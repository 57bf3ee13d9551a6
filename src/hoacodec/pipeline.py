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
import itertools
import math
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from hoacodec import baseline_td, core_codec, freq_svd, noise_subst, sideinfo, transform
from hoacodec.bitio import BitReader, BitWriter
from hoacodec.errors import ConfigurationError, StreamError
from hoacodec.hoa_io import HoaSignal, TimeFrame, num_frames, segment_frames
from hoacodec.noise_subst import NUM_GROUPS, FrequencyGroups, NoiseGroupInfo

MAGIC = b"HOAC"
VERSION = 1

CODEC_BASELINE = 0
CODEC_PROPOSED = 1
_CODEC_NAMES = {"baseline": CODEC_BASELINE, "proposed": CODEC_PROPOSED}

_FLAG_BYPASS = 1
_FLAG_HANNING_INTERP = 2

GROUP_TABLE_AAC48K = 0
GROUP_TABLE_UNIFORM = 1

# highest ambisonic order either side accepts, (15 + 1)^2 = 256 channels: the
# decoder allocates per channel, and the 8-bit header field admits 65536 channels
MAX_ORDER = 15
# longest frame half length either side accepts (the default is 1024): the
# coders allocate per frame, and the 32-bit header field admits 2^32 - 1
MAX_HALF_LENGTH = 8192

# default RD lambda: calibrated on the synthetic corpus so both band-split
# modes are exercised at the default operating points
DEFAULT_RD_LAMBDA = 1e-4


@dataclass
class EncoderConfig:
    """Everything that parameterizes an encode (and must match at decode)."""

    codec: str = "proposed"
    half_length: int = 1024
    rank: int = 4
    bands: int = 4
    background_order: int = 1
    mnmr: float = 1.0
    flatness_threshold: float = 0.25
    rd_lambda: float = DEFAULT_RD_LAMBDA
    seed: int = 0
    bypass_quantization: bool = False
    interp_window_kind: str = "triangular"
    quantizers: sideinfo.QuantizerSet | None = None
    huffman_table: core_codec.HuffmanTable | None = None
    groups: FrequencyGroups | None = None

    def codec_id(self) -> int:
        try:
            return _CODEC_NAMES[self.codec]
        except KeyError:
            raise ConfigurationError(f"unknown codec {self.codec!r}") from None

    def resolved_groups(self) -> FrequencyGroups:
        return self.groups or noise_subst.groups_for(self.half_length)

    def group_table_id(self) -> int:
        g = self.resolved_groups()
        if g.offsets == noise_subst.AAC_48K_LONG_OFFSETS:
            return GROUP_TABLE_AAC48K
        return GROUP_TABLE_UNIFORM

    def resolved_table(self) -> core_codec.HuffmanTable:
        return self.huffman_table or core_codec.default_table()

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
        if self.resolved_groups().num_bins != self.half_length:
            raise ConfigurationError("group table does not match half_length")


def _check_parameters(error, codec_id: int, order: int, p) -> None:
    """Refuse, as ``error``, the coding parameters of ``p`` (an EncoderConfig
    or a StreamHeader) that neither the encoder nor the decoder accepts."""
    M = (order + 1) ** 2
    L = p.half_length
    if order > MAX_ORDER:
        raise error(f"order {order} above the maximum {MAX_ORDER}")
    if L > MAX_HALF_LENGTH:
        raise error(f"half length {L} above the maximum {MAX_HALF_LENGTH}")
    if L % 2:
        raise error(f"half length {L} is odd; the MDCT folds an even half length")
    if not 1 <= p.rank <= M:
        raise error(f"rank {p.rank} out of range for M={M}")
    if p.background_order > order:
        raise error(f"background order {p.background_order} exceeds order {order}")
    if p.bands < 2 or (codec_id == CODEC_PROPOSED and L % p.bands):
        raise error(f"band count {p.bands} invalid for half length {L}")
    if L // p.bands < p.rank:
        raise error(f"bands of {L // p.bands} bins too short to retain rank {p.rank}")
    if not (math.isfinite(p.mnmr) and p.mnmr > 0):
        raise error(f"MNMR {p.mnmr} is not a positive finite ratio")
    if not (math.isfinite(p.rd_lambda) and p.rd_lambda >= 0):
        raise error(f"RD lambda {p.rd_lambda} is not a finite value >= 0")


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
    conceal_reason: str = ""  # "crc" or the parse error of a concealed frame
    max_nmr: float = 0.0  # encoder-side worst band NMR (0 in bypass)
    escalated_bands: int = 0  # bands where no scalefactor met the target
    # side-info basis columns by coding (all 0 in bypass and when concealed)
    intra_columns: int = 0
    predicted_columns: int = 0
    switched_columns: int = 0  # predicted from a reference after a mode switch


def _frame_stats(
    index: int, payload: bytes, side: sideinfo.SideInfoFrame | None, noise_bits=0, core_bits=0,
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
        padding_bits=8 * len(payload) - side.bit_count - noise_bits - core_bits,
        total_bits=8 * len(payload) + 64,
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
            "kbps": self.kbps,
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
    def interp_kind(self) -> str:
        return "hanning" if self.flags & _FLAG_HANNING_INTERP else "triangular"

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


def _table_fingerprint(table: core_codec.HuffmanTable) -> int:
    return zlib.crc32(bytes(table.lengths))


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
    if h.flags & ~(_FLAG_BYPASS | _FLAG_HANNING_INTERP):
        raise StreamError(f"unknown flag bits in {h.flags:#04x}")
    if h.codec_id not in (CODEC_BASELINE, CODEC_PROPOSED):
        raise StreamError(f"unknown codec id {h.codec_id}")
    _check_parameters(StreamError, h.codec_id, h.order, h)
    if h.group_table_id not in (GROUP_TABLE_AAC48K, GROUP_TABLE_UNIFORM):
        raise StreamError(f"unknown group table id {h.group_table_id}")
    aac = h.group_table_id == GROUP_TABLE_AAC48K
    if h.half_length < NUM_GROUPS or (aac and h.half_length != noise_subst.AAC_48K_LONG_OFFSETS[-1]):
        raise StreamError(f"half length {h.half_length} does not fit group table {h.group_table_id}")
    if h.frame_count != num_frames(h.original_length, h.half_length):
        raise StreamError(
            f"frame count {h.frame_count} does not match {h.original_length} samples "
            f"at half length {h.half_length}"
        )
    return h


# --------------------------------------------------------------------------
# shared payload pieces
# --------------------------------------------------------------------------

def _write_noise_block(w: BitWriter, info: NoiseGroupInfo) -> int:
    """The activity flags as one NUM_GROUPS-bit field, then the active
    groups' energy indices as one run of fields."""
    start = w.bit_length
    active = np.asarray(info.active, dtype=bool)
    w.write(int.from_bytes(np.packbits(active).tobytes(), "big") >> (-NUM_GROUPS % 8), NUM_GROUPS)
    energies = info.energy_indices[active]
    w.write_fields(energies, np.full(energies.size, noise_subst.ENERGY_BITS))
    return w.bit_length - start


def _read_noise_block(r: BitReader) -> tuple:
    start = r.bit_position
    flags = r.read(NUM_GROUPS)
    active = (flags >> np.arange(NUM_GROUPS - 1, -1, -1) & 1).astype(bool)
    indices = np.zeros(NUM_GROUPS, dtype=np.uint8)
    for j in np.flatnonzero(active):
        indices[j] = r.read(noise_subst.ENERGY_BITS)
    info = NoiseGroupInfo(active=active, energy_indices=indices)
    return info, r.bit_position - start


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
    qfp = cfg.quantizers.fingerprint() if cfg.quantizers is not None else 0
    flags = _FLAG_BYPASS if cfg.bypass_quantization else 0
    if cfg.interp_window_kind == "hanning":
        flags |= _FLAG_HANNING_INTERP
    header = StreamHeader(
        codec_id=codec_id,
        flags=flags,
        sample_rate=signal.sample_rate,
        order=signal.order,
        half_length=cfg.half_length,
        rank=cfg.rank,
        bands=cfg.bands,
        background_order=cfg.background_order,
        seed=cfg.seed,
        original_length=signal.length,
        frame_count=num_frames(signal.length, cfg.half_length),
        mnmr=cfg.mnmr,
        rd_lambda=cfg.rd_lambda,
        quantizer_fingerprint=qfp,
        table_fingerprint=_table_fingerprint(cfg.resolved_table()),
        group_table_id=cfg.group_table_id(),
    )
    _check_header_fits(header)
    coder = _encode_proposed if codec_id == CODEC_PROPOSED else _encode_baseline
    hw = BitWriter()
    _write_header(hw, header)
    parts, frame_stats = [hw.getvalue()], []
    for payload, stats in coder(signal, cfg, cfg.resolved_groups(), cfg.resolved_table()):
        parts += [len(payload).to_bytes(4, "big"), payload, zlib.crc32(payload).to_bytes(4, "big")]
        frame_stats.append(stats)
    return EncodeResult(stream=b"".join(parts), stats=header.stream_stats(frame_stats))


class _Trial(NamedTuple):
    """One candidate coding of a frame up to its component channels."""

    writer: BitWriter  # holds the side info and the noise block
    side: sideinfo.SideInfoFrame
    noise_bits: int
    channels: np.ndarray  # (L, C): the r foreground tracks, then the background
    state: sideinfo.SideInfoState | None = None  # the side-info state after it
    bases: list | None = None  # per band, the (M, r) basis (proposed RD pick)
    layout: freq_svd.BandLayout | None = None


def _code_frame(index: int, trials: list, original: np.ndarray, cfg: EncoderConfig, groups, table):
    """The one frame coder of both codecs.  Codes the channels of all
    ``trials`` in one MNMR-quantization pass (raw in bypass).  With more
    than one trial, the one of least rate-distortion cost against the
    L x M ``original`` spectrum wins, ties going to the lower mode.  Writes
    the winner's channels; returns (payload, FrameStats, winner's state)."""
    channels = np.hstack([t.channels for t in trials]) if len(trials) > 1 else trials[0].channels
    count, C = trials[0].channels.shape[1], channels.shape[1]
    if cfg.bypass_quantization:
        coded, bits = None, np.full(C, 64 * channels.shape[0])
        max_nmr, escalated = np.zeros(C), np.zeros(C, dtype=int)
    else:
        mask = core_codec.masking_threshold(channels, groups)
        coded = core_codec.quantize_mnmr(channels, mask, cfg.mnmr, groups)
        bits = core_codec.channel_cost(coded, groups, table)
        max_nmr, escalated = coded.nmr.max(axis=0), coded.escalated.sum(axis=0)
    cols = [slice(k * count, (k + 1) * count) for k in range(len(trials))]
    ranked, rd = [0], {}
    if len(trials) > 1:
        # every trial weighs its error with the original channels' masks
        decoded = channels if coded is None else core_codec.dequantize_channel(coded, groups)
        masks = core_codec.masking_threshold(original, groups)
        costs = []
        for t, c in zip(trials, cols):
            spectrum = _proposed_spectrum(decoded[:, c], t.bases, t.layout)
            payload_bits = t.side.bit_count + t.noise_bits + int(bits[c].sum())
            costs.append(
                _mask_weighted_error(original, spectrum, masks, groups)
                + cfg.rd_lambda * (payload_bits + 64 + (-payload_bits) % 8)
            )
        ranked = sorted(range(len(trials)), key=lambda k: (costs[k], trials[k].side.mode))
        rd = {"rd_cost": costs[ranked[0]], "rd_cost_other": costs[ranked[1]]}
    t, c = trials[ranked[0]], cols[ranked[0]]
    start = t.writer.bit_length
    if coded is None:
        t.writer.write_f64_array(t.channels.T)  # channel after channel
    else:
        core_codec.entropy_encode_channel(coded.columns(c), groups, table, t.writer)
    core_bits = t.writer.bit_length - start
    assert core_bits == bits[c].sum()
    payload = t.writer.getvalue()
    stats = _frame_stats(
        index, payload, t.side, t.noise_bits, core_bits,
        max_nmr=float(max_nmr[c].max()), escalated_bands=int(escalated[c].sum()), **rd,
    )
    return payload, stats, t.state


def _encode_proposed(signal: HoaSignal, cfg: EncoderConfig, groups, table):
    """Yield (payload, FrameStats) per frame: each frame's spectrum gets one
    trial per band-split mode, and the winner's side-info state carries on."""
    window = transform.sine_window(cfg.half_length)
    state = sideinfo.SideInfoState()
    nbg = (cfg.background_order + 1) ** 2
    for frame in segment_frames(signal.samples, cfg.half_length):
        sp = transform.mdct_forward(frame, window)
        trials = []
        for mode in (freq_svd.MODE_SINGLE_BAND, freq_svd.MODE_FOUR_BANDS):
            w, trial_state = BitWriter(), state.copy()
            layout, bands, raw_bases = freq_svd.mode_bases(sp, mode, cfg.rank, cfg.bands)
            side, recon = sideinfo.encode_sideinfo(raw_bases, mode, cfg.side_quantizers(), trial_state, w)
            bases = [baseline_td.TruncatedBasis(vectors=v, frame=sp.index) for v in recon]
            dec = freq_svd.band_decompose(bands, cfg.rank, layout, bases=bases)
            residual = freq_svd.compute_residual(sp, dec)
            info = noise_subst.analyze_discarded(residual[:, nbg:], groups, cfg.flatness_threshold)
            noise_bits = _write_noise_block(w, info)
            channels = np.hstack([np.concatenate(dec.foregrounds), residual[:, :nbg]])
            trials.append(_Trial(w, side, noise_bits, channels, trial_state, recon, layout))
        payload, stats, state = _code_frame(sp.index, trials, sp.coeffs, cfg, groups, table)
        yield payload, stats


def _encode_baseline(signal: HoaSignal, cfg: EncoderConfig, groups, table):
    """Yield (payload, FrameStats) per frame, one frame behind the
    decomposition.  Frame f's side info is written when frame f is
    decomposed; its core block is [head(f); head(f+1)], where head(f) is
    the first L rows of frame f's [foreground | ambient] components, so it
    is coded once frame f+1 is decomposed (the last block ends in zeros).
    The background is the first (t+1)^2 ambient channels; the rest is
    discarded and described by the noise block."""
    L, r = cfg.half_length, cfg.rank
    nbg = (cfg.background_order + 1) ** 2
    interp = baseline_td.InterpolationWindow.make(L, cfg.interp_window_kind)
    mdct_win = transform.sine_window(L)
    state = sideinfo.SideInfoState()
    prev_basis: baseline_td.TruncatedBasis | None = None
    block = np.zeros((2 * L, r + signal.num_channels))  # [head(f-1); head(f)]
    waiting = None  # (index, writer, side info) of the frame whose block is next
    for frame in itertools.chain(segment_frames(signal.samples, L), [None]):
        if frame is None:
            block[L:] = 0.0
        else:
            X = frame.samples
            raw = baseline_td.truncated_basis(X, r, frame.index)
            if cfg.bypass_quantization and prev_basis is not None:
                # the raw basis is sent, so align it here (quantized side
                # info aligns inside its predicted bands)
                _, _, raw = baseline_td.match_bases(prev_basis, raw)
            w = BitWriter()
            side, recon = sideinfo.encode_sideinfo([raw.vectors], 0, cfg.side_quantizers(), state, w)
            basis = baseline_td.TruncatedBasis(vectors=recon[0], frame=frame.index)
            dec = baseline_td.decompose_frame(X, basis, prev_basis, interp)
            block[L:, :r] = dec.foreground[:L]
            block[L:, r:] = dec.ambient[:L]
            prev_basis = basis
        if waiting is not None:
            index, writer, side_info = waiting
            spec = transform.mdct_forward(TimeFrame(index=index, samples=block), mdct_win).coeffs
            info = noise_subst.analyze_discarded(spec[:, r + nbg :], groups, cfg.flatness_threshold)
            trial = _Trial(writer, side_info, _write_noise_block(writer, info), spec[:, : r + nbg])
            payload, stats, _ = _code_frame(index, [trial], spec, cfg, groups, table)
            yield payload, stats
        if frame is not None:
            block[:L] = block[L:]
            waiting = (frame.index, w, side)


# --------------------------------------------------------------------------
# decoding
# --------------------------------------------------------------------------

@dataclass
class ParsedFrame:
    """One frame payload as read from the stream, before reconstruction."""

    side: sideinfo.SideInfoFrame
    bases: list  # per band, the (M, r) basis (one band for the baseline)
    noise: NoiseGroupInfo
    channels: core_codec.CodedChannel | np.ndarray  # the (L, C) components; raw spectra in bypass
    noise_bits: int
    core_bits: int


@dataclass
class DecodeResult:
    signal: HoaSignal
    stats: StreamStats
    concealed_frames: int = 0


def _open_stream(stream: bytes, quantizers, huffman_table, groups):
    """Read and check the header, resolve the group table and split frames.

    Returns (header, table, groups, frames, truncated) where ``frames`` is
    a list of (start, end, crc_ok): the payload is ``stream[start:end]``,
    sliced when it is read, and its CRC is checked without a copy.
    Codebooks or a Huffman table that do not match the stream's
    fingerprints, and a group table that does not cover the stream's half
    length, raise :class:`ConfigurationError`.
    """
    header = _read_header(stream)
    table = huffman_table or core_codec.default_table()
    if _table_fingerprint(table) != header.table_fingerprint:
        raise ConfigurationError("Huffman table does not match the stream")
    if not header.bypass:
        if quantizers is None:
            raise ConfigurationError(
                "stream was coded with trained quantizers; pass the codebook directory"
            )
        if quantizers.fingerprint() != header.quantizer_fingerprint:
            raise ConfigurationError("codebooks do not match the stream fingerprint")
    if groups is None:
        if header.group_table_id == GROUP_TABLE_AAC48K:
            groups = FrequencyGroups.aac_48k_long()
        else:
            groups = FrequencyGroups.uniform(header.half_length)
    elif groups.num_bins != header.half_length:
        raise ConfigurationError(
            f"group table covers {groups.num_bins} bins, stream has {header.half_length}"
        )

    frames, pos, view = [], HEADER_BYTES, memoryview(stream)
    while len(frames) < header.frame_count and pos + 4 <= len(stream):
        start, end = pos + 4, pos + 4 + int.from_bytes(stream[pos : pos + 4], "big")
        if end + 4 > len(stream):
            break
        crc = int.from_bytes(stream[end : end + 4], "big")
        frames.append((start, end, zlib.crc32(view[start:end]) == crc))
        pos = end + 4
    return header, table, groups, frames, len(frames) < header.frame_count


def parse_frame(
    reader: BitReader,
    header: StreamHeader,
    state: sideinfo.SideInfoState,
    quantizers: sideinfo.QuantizerSet | None,
    table: core_codec.HuffmanTable,
    groups: FrequencyGroups,
) -> ParsedFrame:
    """Read one frame payload: side info, noise block, component channels.

    The same syntax serves both codecs; the baseline has a single band in
    either mode.  ``state`` is the side-info prediction state and advances
    with the frame.  Raises :class:`StreamError` on a malformed payload.
    """
    rank = header.rank
    nbands = header.bands if header.codec_id == CODEC_PROPOSED else 1
    ranks = {0: [rank], 1: [rank] * nbands}
    q = None if header.bypass else quantizers
    side, bases = sideinfo.decode_sideinfo(reader, q, state, ranks, header.num_channels)
    noise, noise_bits = _read_noise_block(reader)
    count = rank + (header.background_order + 1) ** 2
    if header.bypass:
        channels = reader.read_f64_array((count, groups.num_bins)).T
    else:
        channels = core_codec.entropy_decode_channel(reader, groups, table, count)
    core_bits = reader.bit_position - side.bit_count - noise_bits
    return ParsedFrame(side, bases, noise, channels, noise_bits, core_bits)


def decode(
    stream: bytes,
    quantizers: sideinfo.QuantizerSet | None = None,
    huffman_table: core_codec.HuffmanTable | None = None,
    groups: FrequencyGroups | None = None,
) -> DecodeResult:
    """Decode a container stream back to an :class:`HoaSignal` in one pass:
    each frame is parsed, reconstructed and overlap-added as it is read.

    CRC-failing frames are concealed by repeating the previous frame's
    decoded spectra; a truncated stream raises :class:`StreamError` whose
    ``partial`` attribute carries the samples decoded so far.
    """
    header, table, groups, frames, truncated = _open_stream(stream, quantizers, huffman_table, groups)
    frame_stats = []
    decoded = _decode_frames(header, stream, frames, quantizers, table, groups, frame_stats)
    window = transform.sine_window(header.half_length)
    if not frames:
        samples = np.zeros((0, header.num_channels))
    elif header.codec_id == CODEC_PROPOSED:  # the output of the frames the stream holds
        length = min(header.original_length, len(frames) * header.half_length)
        samples = transform.synthesize((sp for sp, _ in decoded), window, length)
    else:
        samples = _recombine_baseline(header, decoded, len(frames), window)

    signal = HoaSignal(sample_rate=header.sample_rate, order=header.order, samples=samples)
    if truncated:
        raise StreamError(
            f"stream truncated after {len(frames)} of {header.frame_count} frames",
            partial=signal,
        )
    return DecodeResult(
        signal=signal,
        stats=header.stream_stats(frame_stats),
        concealed_frames=sum(f.concealed for f in frame_stats),
    )


def _decode_frames(header: StreamHeader, stream, frames, quantizers, table, groups, frame_stats: list):
    """Parse each frame payload of ``stream``, or conceal it, and yield its spectrum and
    bases as it is read, appending its :class:`FrameStats` to ``frame_stats``.
    The spectrum is the proposed codec's L x M spectrum, or the baseline's
    (L, r + M) component block.  A concealed frame repeats the previous
    frame's spectrum and bases (zeros before the first decoded frame)."""
    L, M, rank = header.half_length, header.num_channels, header.rank
    nbg = (header.background_order + 1) ** 2
    proposed = header.codec_id == CODEC_PROPOSED
    spectrum, bases = np.zeros((L, M if proposed else rank + M)), [np.zeros((M, rank))]
    state = sideinfo.SideInfoState()
    for f, (start, end, crc_ok) in enumerate(frames):
        payload, p, reason = stream[start:end], None, "crc"
        if crc_ok:
            try:
                p = parse_frame(BitReader(payload), header, state, quantizers, table, groups)
            except StreamError as exc:
                # a damaged prediction chain can leave later frames
                # unparseable; treat them like CRC failures
                reason = str(exc)
        if p is None:
            frame_stats.append(_frame_stats(f, payload, None, concealed=True, conceal_reason=reason))
        else:
            frame_stats.append(_frame_stats(f, payload, p.side, p.noise_bits, p.core_bits))
            bases = p.bases
            channels = p.channels if header.bypass else core_codec.dequantize_channel(p.channels, groups)
            noise = noise_subst.synthesize_noise(p.noise, groups, M - nbg, header.seed, f, channel_offset=nbg)
            if proposed:
                layout = freq_svd.layout_for_mode(p.side.mode, L, header.bands)
                spectrum = _proposed_spectrum(channels, bases, layout)
                spectrum[:, nbg:] += noise
            else:
                spectrum = np.column_stack([channels, noise])
        yield transform.SpectralFrame(index=f, coeffs=spectrum), bases


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
    S = freq_svd.back_project([fg[a:b] for a, b in layout.edges], bases)
    S[:, : decoded.shape[1] - rank] += decoded[:, rank:]
    return S


def _recombine_baseline(header: StreamHeader, decoded, count: int, window) -> np.ndarray:
    """Overlap-add the component stream [foreground | ambient] and, once block
    f >= 1 is added, recombine stream samples [fL, fL+L): the foreground times
    the per-sample blend of bases f-1 and f, plus the ambient columns.  The
    head padding and the tail after the last of ``count`` blocks are dropped."""
    L, rank = header.half_length, header.rank
    interp = baseline_td.InterpolationWindow.make(L, header.interp_kind)
    hoa = np.empty(((count - 1) * L, header.num_channels))
    recent = collections.deque(maxlen=2)  # the bases of the last two blocks read

    def blocks():
        for block, bases in decoded:
            recent.append(baseline_td.TruncatedBasis(bases[0]))
            yield block

    # overlap_add yields samples [fL, fL+L) right after it reads block f
    hops = transform.overlap_add(blocks(), window)
    next(hops)  # the head padding
    for f, hop in zip(range(1, count), hops):
        per_sample = baseline_td.interpolate_basis(*recent, interp)
        hoa[(f - 1) * L : f * L] = np.einsum("lr,lmr->lm", hop[:, :rank], per_sample) + hop[:, rank:]
    return hoa[: header.original_length]


# --------------------------------------------------------------------------
# stream measurement
# --------------------------------------------------------------------------

def measure_stream(
    stream: bytes,
    quantizers: sideinfo.QuantizerSet | None = None,
    huffman_table: core_codec.HuffmanTable | None = None,
) -> StreamStats:
    """Exact per-frame bit accounting of an existing stream.

    Parses every frame as the decoder does (:func:`parse_frame`) without
    any signal reconstruction; category sums plus framing overhead equal
    the container size exactly.
    """
    header, table, groups, frames, truncated = _open_stream(stream, quantizers, huffman_table, None)
    if truncated:
        raise StreamError("stream truncated; cannot account bits")
    state = sideinfo.SideInfoState()
    frame_stats = []
    for f, (start, end, crc_ok) in enumerate(frames):
        if not crc_ok:
            raise StreamError(f"frame {f}: CRC mismatch")
        payload = stream[start:end]
        p = parse_frame(BitReader(payload), header, state, quantizers, table, groups)
        frame_stats.append(_frame_stats(f, payload, p.side, p.noise_bits, p.core_bits))
    return header.stream_stats(frame_stats)
