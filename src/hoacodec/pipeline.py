"""Full encode/decode orchestration for both codecs plus the container.

Stream layout (all fields MSB-first within bytes, see docs/bitstream.md):

* global header: magic, version, codec id, flags, signal geometry, seeds,
  operating point, codebook/table fingerprints;
* per frame: u32 payload byte count, payload, u32 CRC-32 of the payload.

A frame payload holds the side-info block, the noise-substitution block
(49-bit activity mask plus 6-bit energies), and the entropy-coded
component channels (foreground tracks first, then reduced-order background
channels).  In bypass mode bases and coefficients are stored as raw
float64 instead.

The proposed codec evaluates both band-split modes per frame and keeps the
one with the smaller rate-distortion cost; distortion is mask-weighted
squared reconstruction error over all ambisonic channels, consistent with
the MNMR constraint the core codec enforces.
"""

from __future__ import annotations

import collections
import io
import itertools
import math
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from hoacodec import baseline_td, core_codec, freq_svd, noise_subst, sideinfo, transform
from hoacodec.bitio import BitReader, BitWriter
from hoacodec.errors import ConfigurationError, NumericError, StreamError
from hoacodec.hoa_io import HoaSignal, num_frames, segment_frames
from hoacodec.noise_subst import NUM_GROUPS, FrequencyGroups, NoiseGroupInfo

MAGIC = b"HOAC"
VERSION = 2

CODEC_BASELINE = 0
CODEC_PROPOSED = 1
_CODEC_NAMES = {"baseline": CODEC_BASELINE, "proposed": CODEC_PROPOSED}

_FLAG_BYPASS = 1

GROUP_TABLE_AAC48K = 0
GROUP_TABLE_UNIFORM = 1

# highest ambisonic order either side accepts, (15 + 1)^2 = 256 channels: the
# decoder allocates per channel, and the 8-bit header field admits 65536 channels
MAX_ORDER = 15
# longest frame half length either side accepts (the default is 1024): the
# coders allocate per frame, and the 32-bit header field admits 2^32 - 1
MAX_HALF_LENGTH = 8192

# the mode decision's RD lambda, fixed by the stream format: calibrated on the
# synthetic corpus so both band-split modes are exercised at the defaults
RD_LAMBDA = 1e-4


@dataclass
class EncoderConfig:
    """Everything that parameterizes an encode (and must match at decode)."""

    codec: str = "proposed"
    half_length: int = 1024
    rank: int = 4
    background_order: int = 1
    mnmr: float = 1.0
    seed: int = 0
    bypass_quantization: bool = False
    quantizers: sideinfo.QuantizerSet | None = None

    def codec_id(self) -> int:
        try:
            return _CODEC_NAMES[self.codec]
        except KeyError:
            raise ConfigurationError(f"unknown codec {self.codec!r}") from None

    def side_quantizers(self) -> sideinfo.QuantizerSet | None:
        """The side-info quantizers; None in bypass (raw float64 bases)."""
        return None if self.bypass_quantization else self.quantizers

    def validate(self, order: int) -> None:
        _check_parameters(ConfigurationError, self.codec_id(), order, self)
        M = (order + 1) ** 2
        if not self.bypass_quantization:
            if self.quantizers is None:
                raise ConfigurationError(
                    "no side-info quantizers configured; train them with "
                    "'hoacodec train-quantizers' and pass --codebooks"
                )
            if self.quantizers.dim != M:
                raise ConfigurationError(
                    f"quantizers trained for {self.quantizers.dim} channels, signal has {M}"
                )


def _check_parameters(error, codec_id: int, order: int, p) -> None:
    """Refuse, as ``error``, the coding parameters of ``p`` (an EncoderConfig
    or a StreamHeader) that neither the encoder nor the decoder accepts."""
    M = (order + 1) ** 2
    L = p.half_length
    if order > MAX_ORDER:
        raise error(f"order {order} above the maximum {MAX_ORDER}")
    if L > MAX_HALF_LENGTH:
        raise error(f"half length {L} above the maximum {MAX_HALF_LENGTH}")
    if L < NUM_GROUPS:
        raise error(f"half length {L} below the {NUM_GROUPS} noise groups")
    if L % 2:
        raise error(f"half length {L} is odd; the MDCT folds an even half length")
    if not 1 <= p.rank <= M:
        raise error(f"rank {p.rank} out of range for M={M}")
    if p.background_order > order:
        raise error(f"background order {p.background_order} exceeds order {order}")
    if codec_id == CODEC_PROPOSED and L % freq_svd.BANDS:
        raise error(f"half length {L} does not split into {freq_svd.BANDS} bands")
    if L // freq_svd.BANDS < p.rank:
        raise error(f"bands of {L // freq_svd.BANDS} bins too short to retain rank {p.rank}")
    if not (math.isfinite(p.mnmr) and p.mnmr > 0):
        raise error(f"MNMR {p.mnmr} is not a positive finite ratio")


@dataclass
class FrameStats:
    index: int
    mode: int
    side_bits: int
    noise_bits: int
    core_bits: int
    padding_bits: int
    total_bits: int  # payload + framing overhead
    rd_cost: float = 0.0
    rd_cost_other: float = 0.0
    concealed: bool = False
    conceal_reason: str = ""  # "crc" or the parse error, a raw value out of range included
    max_nmr: float = 0.0  # encoder-side worst band NMR (0 in bypass)
    escalated_bands: int = 0  # bands where no scalefactor met the target
    # side-info basis columns by coding (all 0 in bypass and when concealed)
    intra_columns: int = 0
    predicted_columns: int = 0
    switched_columns: int = 0  # predicted from a reference after a mode switch


_FRAMING_BITS = 64  # the u32 size and u32 CRC around each frame payload

# Raw (bypass) values are any float64 a stream holds; near 1e308 they would
# overflow to inf and NaN in reconstruction, synthesis or the baseline's
# recombination.  _walk bounds them where it reads them, bases at
# sideinfo.RAW_BASIS_BOUND and channels at this bound (a parse error beyond
# either), so no sum or product of decoding passes about 1e210.  The encoder
# stays below both: its bases are unit columns of numlin.svd's right vectors,
# which baseline_td.match_bases only permutes and sign-flips, and
# _check_energy keeps each coded spectrum under about 2e153, its channels
# well within 1e5 times its peak.  Quantized frames need no bound: indices
# below 2**63 at steps up to +120 dB, unit bases and tabled noise energies
# keep every value below about 1e40.
_RAW_CHANNEL_BOUND = 1e200


def _frame_stats(
    index: int, payload_bits: int, side: sideinfo.SideInfoFrame | None, noise_bits=0, core_bits=0,
    **extra,
) -> FrameStats:
    """Accounting of one container frame: the payload bits left over by the
    three categories are padding, and framing adds the u32 size and CRC.
    A concealed frame has no side info and reports mode -1."""
    side = side or sideinfo.SideInfoFrame(mode=-1)
    return FrameStats(
        index=index,
        mode=side.mode,
        side_bits=side.bit_count,
        noise_bits=noise_bits,
        core_bits=core_bits,
        padding_bits=payload_bits - side.bit_count - noise_bits - core_bits,
        total_bits=payload_bits + _FRAMING_BITS,
        intra_columns=side.intra_columns,
        predicted_columns=side.predicted_columns,
        switched_columns=side.switched_columns,
        **extra,
    )


@dataclass
class StreamStats:
    codec: str
    sample_rate: int
    num_samples: int
    num_channels: int
    header_bits: int
    frames: list = field(default_factory=list)

    @property
    def total_bits(self) -> int:
        return self.header_bits + sum(f.total_bits for f in self.frames)

    @property
    def kbps(self) -> float:
        dur = self.num_samples / self.sample_rate if self.num_samples else 0.0
        return self.total_bits / dur / 1000.0 if dur else float("inf")

    @property
    def mode_histogram(self) -> dict:
        return dict(collections.Counter(f.mode for f in self.frames))

    @property
    def side_info_share(self) -> float:
        total = self.total_bits
        return sum(f.side_bits for f in self.frames) / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "codec": self.codec,
            "sample_rate": self.sample_rate,
            "num_samples": self.num_samples,
            "num_channels": self.num_channels,
            "total_bits": self.total_bits,
            "kbps": self.kbps if self.num_samples else None,  # JSON has no infinity
            "header_bits": self.header_bits,
            "mode_histogram": {str(k): v for k, v in self.mode_histogram.items()},
            "side_info_share": self.side_info_share,
            "frames": [vars(f) for f in self.frames],
        }


@dataclass
class EncodeResult:
    stream: bytes
    stats: StreamStats


# --------------------------------------------------------------------------
# header
# --------------------------------------------------------------------------

@dataclass
class StreamHeader:
    codec_id: int
    flags: int
    sample_rate: int
    order: int
    half_length: int
    rank: int
    bands: int
    background_order: int
    seed: int
    original_length: int
    frame_count: int
    mnmr: float
    rd_lambda: float
    quantizer_fingerprint: int
    table_fingerprint: int
    group_table_id: int

    @property
    def bypass(self) -> bool:
        return bool(self.flags & _FLAG_BYPASS)

    @property
    def num_channels(self) -> int:
        return (self.order + 1) ** 2

    def stream_stats(self, frames: list) -> StreamStats:
        return StreamStats(
            codec="proposed" if self.codec_id == CODEC_PROPOSED else "baseline",
            sample_rate=self.sample_rate,
            num_samples=self.original_length,
            num_channels=self.num_channels,
            header_bits=8 * HEADER_BYTES,
            frames=frames,
        )


# the header's table fingerprint, the CRC-32 of the code lengths of the one
# Huffman code every stream is coded with
_TABLE_FINGERPRINT = zlib.crc32(bytes(core_codec.DEFAULT_MAGNITUDE_LENGTHS))


# the header after magic and version: (StreamHeader field, bits) in stream
# order; the float fields are IEEE-754 doubles, the others unsigned
_HEADER_FIELDS = (
    ("codec_id", 8), ("flags", 8), ("sample_rate", 32), ("order", 8), ("half_length", 32),
    ("rank", 8), ("bands", 8), ("background_order", 8), ("seed", 64), ("original_length", 64),
    ("frame_count", 32), ("mnmr", 64), ("rd_lambda", 64), ("quantizer_fingerprint", 32),
    ("table_fingerprint", 32), ("group_table_id", 8),
)
_FLOAT_FIELDS = ("mnmr", "rd_lambda")
HEADER_BYTES = len(MAGIC) + 2 + sum(bits for _, bits in _HEADER_FIELDS) // 8


def _check_header_fits(h: StreamHeader) -> None:
    """Refuse a header value the bit writer could not store in its field."""
    for name, bits in _HEADER_FIELDS:
        value = getattr(h, name)
        if name not in _FLOAT_FIELDS and not 0 <= value < 1 << bits:
            raise ConfigurationError(f"{name} {value} does not fit its {bits}-bit header field")


def _write_header(w: BitWriter, h: StreamHeader) -> None:
    w.write_bytes(MAGIC)
    w.write(VERSION, 16)
    for name, bits in _HEADER_FIELDS:
        if name in _FLOAT_FIELDS:
            w.write_f64(getattr(h, name))
        else:
            w.write(getattr(h, name), bits)


def _group_table_id(groups: FrequencyGroups) -> int:
    """The header id of a table :func:`noise_subst.groups_for` picks."""
    return GROUP_TABLE_AAC48K if groups == FrequencyGroups.aac_48k_long() else GROUP_TABLE_UNIFORM


def _read_header(data: bytes) -> StreamHeader:
    if len(data) < HEADER_BYTES or data[:4] != MAGIC:
        raise StreamError("not a hoacodec stream")
    r = BitReader(data[:HEADER_BYTES])
    r.read_bytes(4)
    version = r.read(16)
    if version != VERSION:
        raise StreamError(f"unsupported stream version {version}")
    h = StreamHeader(**{
        name: r.read_f64() if name in _FLOAT_FIELDS else r.read(bits)
        for name, bits in _HEADER_FIELDS
    })
    # values the encoder can never write (EncoderConfig.validate)
    if h.sample_rate == 0:
        raise StreamError("sample rate 0")
    if h.flags & ~_FLAG_BYPASS:
        raise StreamError(f"unknown flag bits in {h.flags:#04x}")
    if h.codec_id not in (CODEC_BASELINE, CODEC_PROPOSED):
        raise StreamError(f"unknown codec id {h.codec_id}")
    if h.bands != freq_svd.BANDS:
        raise StreamError(f"band count {h.bands} is not the format's {freq_svd.BANDS}")
    if h.rd_lambda != RD_LAMBDA:
        raise StreamError(f"RD lambda {h.rd_lambda} is not the format's {RD_LAMBDA}")
    _check_parameters(StreamError, h.codec_id, h.order, h)
    if h.group_table_id != _group_table_id(noise_subst.groups_for(h.half_length)):
        raise StreamError(f"group table id {h.group_table_id} does not fit half length {h.half_length}")
    if h.table_fingerprint != _TABLE_FINGERPRINT:
        raise StreamError(f"unknown Huffman table fingerprint {h.table_fingerprint:#010x}")
    if h.frame_count != num_frames(h.original_length, h.half_length):
        raise StreamError(
            f"frame count {h.frame_count} does not match {h.original_length} samples "
            f"at half length {h.half_length}"
        )
    return h


# --------------------------------------------------------------------------
# shared payload pieces
# --------------------------------------------------------------------------

def _run(bits: np.ndarray) -> int:
    """A 0/1 array as one integer, its first bit the highest."""
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-bits.size % 8)


def _bits(run: int, size: int) -> np.ndarray:
    """The ``size`` bits of ``run``, highest first, as a 0/1 uint8 array."""
    data = (run << (-size % 8)).to_bytes((size + 7) >> 3, "big")
    return np.unpackbits(np.frombuffer(data, np.uint8), count=size)


def _write_noise_block(w: BitWriter, info: NoiseGroupInfo) -> int:
    """The activity flags as one NUM_GROUPS-bit field, then the active
    groups' 6-bit energy indices as one field."""
    width = noise_subst.ENERGY_BITS
    active = np.asarray(info.active, dtype=bool)
    energies = np.asarray(info.energy_indices, dtype=np.uint8)[active]
    w.write(_run(active), NUM_GROUPS)
    w.write(_run(np.unpackbits(energies[:, None], axis=1)[:, 8 - width :]), width * energies.size)
    return NUM_GROUPS + width * energies.size


def _read_noise_block(r: BitReader) -> tuple:
    """What :func:`_write_noise_block` writes, read as two fields: the flags,
    then the active groups' energy indices as one."""
    active = _bits(r.read(NUM_GROUPS), NUM_GROUPS).view(bool)
    count, width = int(np.count_nonzero(active)), noise_subst.ENERGY_BITS
    fields = _bits(r.read(width * count), width * count).reshape(count, width)
    indices = np.zeros(NUM_GROUPS, dtype=np.uint8)
    indices[active] = np.packbits(fields, axis=1)[:, 0] >> (8 - width)
    return NoiseGroupInfo(active=active, energy_indices=indices), NUM_GROUPS + width * count


def _mask_weighted_error(original: np.ndarray, decoded: np.ndarray, masks, groups) -> float:
    """Distortion for RD decisions: sum over channels/bands of noise/mask,
    with ``masks`` the masking curves of the original channels; the bands
    of each channel are summed on their own, then the channels in order."""
    nmr = core_codec.measure_nmr(original, decoded, masks, groups)
    return float(np.cumsum(np.ascontiguousarray(nmr.T).sum(axis=1))[-1])


# --------------------------------------------------------------------------
# encoding
# --------------------------------------------------------------------------

def encode(signal: HoaSignal, cfg: EncoderConfig) -> EncodeResult:
    """Encode a signal with the configured codec into a container stream."""
    cfg.validate(signal.order)
    codec_id = cfg.codec_id()
    groups = noise_subst.groups_for(cfg.half_length)
    q = cfg.side_quantizers()  # None in bypass: the stream holds no codebook's fingerprint
    qfp = q.fingerprint() if q is not None else 0
    header = StreamHeader(
        codec_id=codec_id,
        flags=_FLAG_BYPASS if cfg.bypass_quantization else 0,
        sample_rate=signal.sample_rate,
        order=signal.order,
        half_length=cfg.half_length,
        rank=cfg.rank,
        bands=freq_svd.BANDS,
        background_order=cfg.background_order,
        seed=cfg.seed,
        original_length=signal.length,
        frame_count=num_frames(signal.length, cfg.half_length),
        mnmr=cfg.mnmr,
        rd_lambda=RD_LAMBDA,
        quantizer_fingerprint=qfp,
        table_fingerprint=_TABLE_FINGERPRINT,
        group_table_id=_group_table_id(groups),
    )
    _check_header_fits(header)
    coder = _encode_proposed if codec_id == CODEC_PROPOSED else _encode_baseline
    hw = BitWriter()
    _write_header(hw, header)
    stream, frame_stats = io.BytesIO(), []
    stream.write(hw.getvalue())
    for payload, stats in coder(signal, cfg, groups):
        stream.write(len(payload).to_bytes(4, "big"))
        stream.write(payload)
        stream.write(zlib.crc32(payload).to_bytes(4, "big"))
        frame_stats.append(stats)
    # getvalue() hands the buffer over without a copy
    return EncodeResult(stream=stream.getvalue(), stats=header.stream_stats(frame_stats))


class _Trial(NamedTuple):
    """One candidate coding of a frame up to its component channels."""

    writer: BitWriter  # holds the side info and the noise block
    side: sideinfo.SideInfoFrame
    noise_bits: int
    channels: np.ndarray  # (L, C): the r foreground tracks, then the background
    state: sideinfo.SideInfoState | None = None  # the side-info state after it
    bases: list | None = None  # per band, the (M, r) basis (proposed RD pick)


def _check_energy(index: int, spectrum: np.ndarray) -> None:
    """Refuse a frame whose sum of squares could overflow float64, before
    the masking and noise analysis square it: a peak below sqrt(max / size)
    keeps the sum finite, and the test itself cannot overflow.  It also
    keeps every bypass frame's raw channels far under ``_RAW_CHANNEL_BOUND``,
    so the decoder conceals no frame the encoder writes."""
    limit = math.sqrt(np.finfo(np.float64).max / spectrum.size)
    peak = float(np.abs(spectrum).max())
    if not peak < limit:  # NaN as well
        raise NumericError(
            f"frame {index}: peak magnitude {peak:.4g} is not below {limit:.4g}, so its energy "
            f"could exceed the float64 limit {np.finfo(np.float64).max:.4g}"
        )


def _code_frames(frames: list, cfg: EncoderConfig, groups) -> list:
    """The one frame coder of both codecs.  ``frames`` is a list of
    (index, trials, original): a frame's candidate codings and its L x M
    ``original`` spectrum.  Codes the channels of every trial of every frame
    in one MNMR-quantization pass (raw in bypass): masking, the scalefactor
    search and the cost each work column by column, so every channel is
    coded as a call on its own frame would code it.  Per frame, with more
    than one trial, the one of least rate-distortion cost against the
    original wins, ties going to the lower mode.  Writes each frame's
    winner's channels; returns (payload, FrameStats, winner's state) per
    frame, in order."""
    channels = np.hstack([t.channels for _, trials, _ in frames for t in trials])
    C = channels.shape[1]
    if cfg.bypass_quantization:
        coded, bits = None, np.full(C, 64 * channels.shape[0])
        max_nmr, escalated = np.zeros(C), np.zeros(C, dtype=int)
    else:
        mask = core_codec.masking_threshold(channels, groups)
        coded = core_codec.quantize_mnmr(channels, mask, cfg.mnmr, groups)
        bits, band_costs = core_codec.channel_cost(coded, groups)
        max_nmr, escalated = coded.nmr.max(axis=0), coded.escalated.sum(axis=0)
    coded_frames, at, decoded = [], 0, None
    for index, trials, original in frames:
        count = trials[0].channels.shape[1]
        cols = [slice(at + k * count, at + (k + 1) * count) for k in range(len(trials))]
        at = cols[-1].stop
        ranked, rd = [0], {}
        if len(trials) > 1:
            if decoded is None:
                decoded = channels if coded is None else core_codec.dequantize_channel(coded, groups)
            # every trial weighs its error with the original channels' masks
            masks = core_codec.masking_threshold(original, groups)
            costs = []
            for t, c in zip(trials, cols):
                layout = freq_svd.layout_for_mode(t.side.mode, original.shape[0])  # as _walk has it
                spectrum = _proposed_spectrum(decoded[:, c], t.bases, layout)
                payload_bits = t.side.bit_count + t.noise_bits + int(bits[c].sum())
                costs.append(
                    _mask_weighted_error(original, spectrum, masks, groups)
                    + RD_LAMBDA * (payload_bits + _FRAMING_BITS + (-payload_bits) % 8)
                )
            ranked = sorted(range(len(trials)), key=lambda k: (costs[k], trials[k].side.mode))
            rd = {"rd_cost": costs[ranked[0]], "rd_cost_other": costs[ranked[1]]}
        t, c = trials[ranked[0]], cols[ranked[0]]
        start = t.writer.bit_length
        if coded is None:
            t.writer.write_f64_array(t.channels.T)  # channel after channel
        else:
            core_codec.entropy_encode_channel(coded.columns(c), band_costs[..., c], groups, t.writer)
        core_bits = t.writer.bit_length - start
        assert core_bits == bits[c].sum()
        payload = t.writer.getvalue()
        stats = _frame_stats(
            index, 8 * len(payload), t.side, t.noise_bits, core_bits,
            max_nmr=float(max_nmr[c].max()), escalated_bands=int(escalated[c].sum()), **rd,
        )
        coded_frames.append((payload, stats, t.state))
    return coded_frames


def _encode_proposed(signal: HoaSignal, cfg: EncoderConfig, groups):
    """Yield (payload, FrameStats) per frame: each frame's spectrum gets one
    trial per band-split mode, and the winner's side-info state carries on."""
    window = transform.sine_window(cfg.half_length)
    state = sideinfo.SideInfoState()
    nbg = (cfg.background_order + 1) ** 2
    for f, frame in enumerate(segment_frames(signal.samples, cfg.half_length)):
        S = transform.mdct_forward(frame, window)
        _check_energy(f, S)
        modes = [freq_svd.MODE_SINGLE_BAND, freq_svd.MODE_FOUR_BANDS]
        bands, raws = zip(*(freq_svd.mode_bases(S, mode, cfg.rank) for mode in modes))
        writers, states = [BitWriter() for _ in modes], [state.copy() for _ in modes]
        sides = sideinfo.encode_sideinfo_trials(list(zip(raws, modes, states, writers)), cfg.side_quantizers())
        trials = []
        for parts, (side, recon), w, trial_state in zip(bands, sides, writers, states):
            # each band projected onto its side-info-rebuilt basis, as the decoder has it
            fgs = [baseline_td.foreground_with_fallback(b, baseline_td.TruncatedBasis(V)) for b, V in zip(parts, recon)]
            residual = S - freq_svd.back_project(fgs, recon)
            info = noise_subst.analyze_discarded(residual[:, nbg:], groups)
            noise_bits = _write_noise_block(w, info)
            channels = np.hstack([np.concatenate(fgs), residual[:, :nbg]])
            trials.append(_Trial(w, side, noise_bits, channels, trial_state, recon))
        [(payload, stats, state)] = _code_frames([(f, trials, S)], cfg, groups)
        yield payload, stats


# the most values (frames x L x coded channels) one _code_frames call of the
# baseline codes, and at least one frame: 16 frames at L=256 and 4 at L=1024
# with 8 coded channels.  The MNMR search's temporaries grow with the values
# it codes (5-9 MiB at this budget), so a segment is capped by values, not
# by frames.
_SEGMENT_VALUES = 32768


def _encode_baseline(signal: HoaSignal, cfg: EncoderConfig, groups):
    """Yield (payload, FrameStats) per frame, one segment of frames behind
    the decomposition.  Frame f's side info is written when frame f is
    decomposed; its core block is [head(f); head(f+1)], where head(f) is
    the first L rows of frame f's [foreground | ambient] components, so it
    is transformed and its noise block written once frame f+1 is decomposed
    (the last block ends in zeros).  The background is the first (t+1)^2
    ambient channels; the rest is discarded and described by the noise
    block.  The side-info state never depends on how the core channels are
    coded, so the channels of up to ``_SEGMENT_VALUES`` values of frames are
    coded by one :func:`_code_frames` call."""
    L, r = cfg.half_length, cfg.rank
    nbg = (cfg.background_order + 1) ** 2
    per_segment = max(1, _SEGMENT_VALUES // (L * (r + nbg)))
    mdct_win = transform.sine_window(L)

    def heads():
        """(index, writer, side info, head) per frame, then a zero head."""
        interp = baseline_td.InterpolationWindow.make(L)
        state, prev_basis = sideinfo.SideInfoState(), None
        for f, X in enumerate(segment_frames(signal.samples, L)):
            raw = baseline_td.truncated_basis(X, r, f)
            if cfg.bypass_quantization and prev_basis is not None:
                # the raw basis is sent, so align it here (quantized side
                # info aligns inside its predicted bands)
                _, _, raw = baseline_td.match_bases(prev_basis, raw)
            w = BitWriter()
            side, recon = sideinfo.encode_sideinfo([raw.vectors], 0, cfg.side_quantizers(), state, w)
            basis = baseline_td.TruncatedBasis(vectors=recon[0], frame=f)
            dec = baseline_td.decompose_frame(X, basis, prev_basis, interp)
            yield f, w, side, np.hstack([dec.foreground[:L], dec.ambient[:L]])
            prev_basis = basis
        yield None, None, None, np.zeros((L, r + signal.num_channels))

    segment = []  # (index, [trial], spectrum) of the frames not coded yet
    for (index, writer, side, head), (following, *_, next_head) in itertools.pairwise(heads()):
        spec = transform.mdct_forward(np.vstack([head, next_head]), mdct_win)
        _check_energy(index, spec)
        info = noise_subst.analyze_discarded(spec[:, r + nbg :], groups)
        trial = _Trial(writer, side, _write_noise_block(writer, info), spec[:, : r + nbg])
        segment.append((index, [trial], spec))
        if len(segment) == per_segment or following is None:
            for payload, stats, _ in _code_frames(segment, cfg, groups):
                yield payload, stats
            segment = []


# --------------------------------------------------------------------------
# decoding
# --------------------------------------------------------------------------

@dataclass
class DecodeResult:
    signal: HoaSignal
    stats: StreamStats
    concealed_frames: int = 0


def _open_stream(stream: bytes, quantizers):
    """Read and check the header, take its group table and split frames.

    Returns (header, groups, frames, fault) where ``frames`` is a list of
    (start, end, crc_ok): the payload is ``stream[start:end]``, sliced when
    it is read, and its CRC is checked without a copy.  ``fault`` is None,
    or the message of a stream that ends before its last frame or holds
    bytes after it.  Codebooks that do not match the stream's fingerprint
    raise :class:`ConfigurationError`.
    """
    header = _read_header(stream)
    if not header.bypass:
        if quantizers is None:
            raise ConfigurationError(
                "stream was coded with trained quantizers; pass the codebook directory"
            )
        if quantizers.fingerprint() != header.quantizer_fingerprint:
            raise ConfigurationError("codebooks do not match the stream fingerprint")
    groups = noise_subst.groups_for(header.half_length)
    frames, pos, view = [], HEADER_BYTES, memoryview(stream)
    while len(frames) < header.frame_count and pos + 4 <= len(stream):
        start, end = pos + 4, pos + 4 + int.from_bytes(stream[pos : pos + 4], "big")
        if end + 4 > len(stream):
            break
        crc = int.from_bytes(stream[end : end + 4], "big")
        frames.append((start, end, zlib.crc32(view[start:end]) == crc))
        pos = end + 4
    fault = None
    if len(frames) < header.frame_count:
        fault = f"stream truncated after {len(frames)} of {header.frame_count} frames"
    elif pos < len(stream):
        fault = f"{len(stream) - pos} bytes after the last of {header.frame_count} frames"
    return header, groups, frames, fault


def _walk(header: StreamHeader, groups: FrequencyGroups, stream: bytes, frames, quantizers, reconstruct: bool):
    """The one frame walk of decode and stats: yields (FrameStats, spectrum,
    bases) per frame of ``frames`` (see :func:`_open_stream`), read as side
    info, noise block and component channels with the side-info state
    carried on.  A frame that fails its CRC or does not parse (padding of 8
    bits or more, or with a set bit, and a raw value out of range included)
    yields stats concealed with the reason ("crc" or the parse error).  The
    baseline has mode 0 alone, with one band.

    With ``reconstruct`` each frame is rebuilt before the next is read: the
    spectrum is the proposed codec's L x M spectrum, or the baseline's
    (L, r + M) component block, and the bases its per-band (M, r) bases.  A
    concealed frame repeats the previous frame's spectrum and bases (zeros
    before the first decoded frame).  Without it every field is read and
    checked alike, but nothing is rebuilt: spectrum and bases are None."""
    L, M, rank = header.half_length, header.num_channels, header.rank
    nbg = (header.background_order + 1) ** 2
    proposed = header.codec_id == CODEC_PROPOSED
    ranks = {0: [rank], 1: [rank] * freq_svd.BANDS} if proposed else {0: [rank]}
    q = None if header.bypass else quantizers
    state = sideinfo.SideInfoState()
    spectrum, bases = None, None
    if reconstruct:
        spectrum, bases = np.zeros((L, M if proposed else rank + M)), [np.zeros((M, rank))]
    for f, (start, end, crc_ok) in enumerate(frames):
        stats, reason, payload_bits = None, "crc", 8 * (end - start)
        if crc_ok:
            reader = BitReader(stream[start:end])
            try:
                side, frame_bases = sideinfo.decode_sideinfo(reader, q, state, ranks, M, reconstruct)
                info, noise_bits = _read_noise_block(reader)
                if header.bypass:
                    raw = reader.read_f64_array((rank + nbg, groups.num_bins))
                    channels = sideinfo.require_bounded(raw, _RAW_CHANNEL_BOUND, "raw channel").T
                else:
                    channels = core_codec.entropy_decode_channel(reader, groups, rank + nbg, values=reconstruct)
                core_bits = reader.bit_position - side.bit_count - noise_bits
                padding = payload_bits - reader.bit_position
                if padding >= 8:
                    raise StreamError(f"{padding} padding bits (at most 7)")
                if reader.read(padding):
                    raise StreamError("nonzero padding bits")
            except StreamError as exc:
                # a damaged prediction chain can leave later frames
                # unparseable; treat them like CRC failures
                reason = str(exc)
            else:
                stats = _frame_stats(f, payload_bits, side, noise_bits, core_bits)
                if reconstruct:
                    if not header.bypass:
                        channels = core_codec.dequantize_channel(channels, groups)
                    noise = noise_subst.synthesize_noise(info, groups, M - nbg, header.seed, f)
                    if proposed:
                        spectrum = _proposed_spectrum(channels, frame_bases, freq_svd.layout_for_mode(side.mode, L))
                        spectrum[:, nbg:] += noise
                    else:
                        spectrum = np.column_stack([channels, noise])
                    bases = frame_bases
        yield stats or _frame_stats(f, payload_bits, None, concealed=True, conceal_reason=reason), spectrum, bases


def decode(stream: bytes, quantizers: sideinfo.QuantizerSet | None = None) -> DecodeResult:
    """Decode a container stream back to an :class:`HoaSignal` in one pass:
    each frame is parsed, reconstructed and overlap-added as it is read.

    Hop f >= 1 of :func:`transform.overlap_add` is output samples
    [(f-1)L, fL): the proposed codec's as it is, the baseline's foreground
    times the per-sample blend of bases f-1 and f plus its ambient columns.
    The baseline drops the tail hop, which would need a basis after the last.
    CRC-failing frames are concealed by repeating the previous frame's
    decoded spectra; a stream truncated or with bytes after its last frame
    raises :class:`StreamError` once its frames are decoded, with their
    samples in the ``partial`` attribute.
    """
    header, groups, frames, fault = _open_stream(stream, quantizers)
    L, rank = header.half_length, header.rank
    proposed = header.codec_id == CODEC_PROPOSED
    interp = baseline_td.InterpolationWindow.make(L)
    frame_stats, recent = [], collections.deque(maxlen=2)  # the bases of the last two frames read

    def spectra():
        for stats, spectrum, bases in _walk(header, groups, stream, frames, quantizers, reconstruct=True):
            frame_stats.append(stats)
            recent.append(bases[0])
            yield spectrum

    hops = len(frames) if proposed else max(len(frames) - 1, 0)
    samples = np.empty((min(header.original_length, hops * L), header.num_channels))
    # every frame is walked, also once the output is full
    for f, hop in enumerate(transform.overlap_add(spectra(), transform.sine_window(L))):
        out = samples[max(f - 1, 0) * L : f * L]
        if not len(out):
            continue
        if not proposed:
            per_sample = baseline_td.interpolate_basis(*map(baseline_td.TruncatedBasis, recent), interp)
            hop = np.einsum("lr,lmr->lm", hop[:, :rank], per_sample) + hop[:, rank:]
        out[:] = hop[: len(out)]

    signal = HoaSignal(sample_rate=header.sample_rate, order=header.order, samples=samples)
    if fault:
        raise StreamError(fault, partial=signal)
    return DecodeResult(
        signal=signal,
        stats=header.stream_stats(frame_stats),
        concealed_frames=sum(f.concealed for f in frame_stats),
    )


def _proposed_spectrum(decoded: np.ndarray, bases: list, layout) -> np.ndarray:
    """L x M spectrum of one proposed frame without noise substitution: each
    band's foreground back-projected through its (M, r) basis, plus the
    background channels.  The columns of ``decoded`` are the r foreground,
    then the background channel spectra; the encoder's RD trials and the
    decoder both use it."""
    rank = bases[0].shape[1]
    # the encoder's RD trials and the decoder must agree bit for bit, so
    # both back-project C-contiguous foregrounds (freq_svd.back_project)
    fg = np.ascontiguousarray(decoded[:, :rank])
    S = freq_svd.back_project([fg[a:b] for a, b in layout], bases)
    S[:, : decoded.shape[1] - rank] += decoded[:, rank:]
    return S


# --------------------------------------------------------------------------
# stream measurement
# --------------------------------------------------------------------------

def measure_stream(stream: bytes, quantizers: sideinfo.QuantizerSet | None = None) -> StreamStats:
    """Exact per-frame bit accounting of an existing stream.

    Reads every frame through the decoder's own walk (:func:`_walk`) with
    every check decode makes, but without reconstruction: no quantized
    basis is rebuilt, no coded bin's value is read and no signal is
    synthesized.  Category sums plus framing overhead equal the container
    size exactly, and each frame's padding is under a byte of zeros.  Raises
    :class:`StreamError` on the first frame decode conceals (a CRC failure,
    or a parse error such as a raw value out of range), with decode's
    reason; its ``partial`` attribute carries the stats of the frames
    before it.
    """
    header, groups, frames, fault = _open_stream(stream, quantizers)
    if fault:
        raise StreamError(fault)
    frame_stats = []
    for stats, _, _ in _walk(header, groups, stream, frames, quantizers, reconstruct=False):
        if stats.concealed:
            reason = stats.conceal_reason
            message = f"frame {stats.index}: CRC mismatch" if reason == "crc" else reason
            raise StreamError(message, partial=header.stream_stats(frame_stats))
        frame_stats.append(stats)
    return header.stream_stats(frame_stats)
