"""AAC-like coding of component channels.

Per channel and frame: a simplified psychoacoustic masking curve over the
49 frequency groups, scalefactor search meeting a maximum noise-to-mask
ratio per band, x^(3/4) companded integer quantization, and canonical
Huffman entropy coding with trained tables and a per-band raw fallback.

The model is deliberately compact: a two-slope spreading over band indices
with a fixed SNR offset instead of tonality estimation, scalefactors on a
1.5 dB grid spanning +-120 dB.
"""

from __future__ import annotations

import functools
import heapq
import struct
from dataclasses import dataclass, field

import numpy as np

from hoacodec.bitio import BitReader, BitWriter
from hoacodec.errors import FormatError, ShapeError, StreamError
from hoacodec.noise_subst import FrequencyGroups

SF_MIN = -80  # 1.5 dB steps: -120 dB
SF_MAX = 80  # +120 dB
_SF_COUNT = SF_MAX - SF_MIN + 1
_SF_STEPS = 10.0 ** (1.5 * np.arange(SF_MAX, SF_MIN - 1, -1) / 20.0)  # coarse -> fine
_QUANT_MAGIC = 0.4054

ESCAPE_SYMBOL = 16  # magnitudes 0..15 are coded directly, >=16 escape
_ALPHABET = ESCAPE_SYMBOL + 1

_TABLE_MAGIC = b"HAHT"
_TABLE_VERSION = 1


@dataclass
class MaskingConfig:
    """Parameters of the simplified masking model (all config-exposed)."""

    spread_lower_db: float = 22.0  # decay per band toward lower frequencies
    spread_upper_db: float = 12.0  # decay per band toward higher frequencies
    snr_offset_db: float = 18.0  # tonality-independent masker-to-threshold drop
    absolute_floor: float = 1e-9  # per-band power floor (hearing-threshold stand-in)


@dataclass
class MaskingCurve:
    """Masked threshold power per frequency group."""

    band_power: np.ndarray

    def __post_init__(self):
        self.band_power = np.asarray(self.band_power, dtype=np.float64)


def band_energies(spectrum: np.ndarray, groups: FrequencyGroups) -> np.ndarray:
    s2 = np.asarray(spectrum, dtype=np.float64) ** 2
    return np.add.reduceat(s2, groups.offsets[:-1])


@functools.lru_cache(maxsize=8)
def _spreading(lower_db: float, upper_db: float, nb: int) -> np.ndarray:
    """Two-slope spreading gains, (target band, masker band); read-only."""
    d = np.arange(nb)[:, None] - np.arange(nb)[None, :]  # target - masker
    atten_db = np.where(d >= 0, upper_db * d, -lower_db * d)
    gains = 10.0 ** (-atten_db / 10.0)
    gains.setflags(write=False)
    return gains


def masking_threshold(
    spectrum: np.ndarray,
    groups: FrequencyGroups,
    config: MaskingConfig | None = None,
) -> MaskingCurve:
    """Spread per-band energy with two slopes, drop by the SNR offset, floor."""
    cfg = config or MaskingConfig()
    if spectrum.shape[0] != groups.num_bins:
        raise ShapeError(
            f"spectrum has {spectrum.shape[0]} bins, group table {groups.num_bins}"
        )
    energy = band_energies(spectrum, groups)
    spread = energy[None, :] * _spreading(cfg.spread_lower_db, cfg.spread_upper_db, energy.size)
    mask = spread.sum(axis=1) * 10.0 ** (-cfg.snr_offset_db / 10.0)
    return MaskingCurve(band_power=np.maximum(mask, cfg.absolute_floor))


@dataclass
class CodedChannel:
    """Quantization result for one channel of one frame."""

    num_bins: int
    zero_band: np.ndarray  # (nb,) bool: band transmitted as silent
    scalefactors: np.ndarray  # (nb,) int in [SF_MIN, SF_MAX]; valid where not zero_band
    quant_indices: np.ndarray  # (num_bins,) int64 signed
    nmr: np.ndarray = field(default=None)  # encoder-side achieved NMR per band
    escalated: np.ndarray = field(default=None)  # bands where no scalefactor met target
    band_costs: dict = field(default=None, repr=False)  # cache: band -> (huff, raw, width)


# q^(4/3) lookup for the small quantizer indices that dominate; larger
# values fall back to pow
_POW43_LUT = np.arange(4096, dtype=np.float64) ** (4.0 / 3.0)
_SF_STEPS_34 = _SF_STEPS**0.75


def _pow43(q: np.ndarray) -> np.ndarray:
    small = q < _POW43_LUT.size
    if small.all():
        return _POW43_LUT[q.astype(np.intp)]
    out = np.where(small, _POW43_LUT[np.minimum(q, _POW43_LUT.size - 1).astype(np.intp)], 0.0)
    big = ~small
    out[big] = q[big] ** (4.0 / 3.0)
    return out


# scalefactor rows tried per band in the batched search, from the first step
# that quantizes the band's peak to a nonzero index; on the synthetic corpus
# the pick lies fewer than 24 rows past it.  Bands without an in-budget row
# in the window continue with the per-band scan, so the value never changes
# the result, only the time.
_WINDOW = 32


def _scan_band(absx: np.ndarray, absx34: np.ndarray, budget: float, first: int):
    """Coarse-to-fine scan of one band from row ``first``, 16 rows at a time:
    (row, noise, escalated) of the coarsest row within ``budget``, or of the
    minimum-noise row (escalated) when none is."""
    best = (np.inf, -1)
    for chunk in range(first, _SF_COUNT, 16):
        rows = slice(chunk, min(chunk + 16, _SF_COUNT))
        q = np.floor(absx34[None, :] / _SF_STEPS_34[rows, None] + _QUANT_MAGIC)
        deq = _pow43(q) * _SF_STEPS[rows, None]
        noise = np.sum((absx[None, :] - deq) ** 2, axis=1)
        ok = noise <= budget
        if ok.any():
            j = int(np.argmax(ok))
            return chunk + j, float(noise[j]), False
        j = int(np.argmin(noise))
        if noise[j] < best[0]:
            best = (float(noise[j]), chunk + j)
    pick = best[1] if best[1] >= 0 else _SF_COUNT - 1
    q = np.floor(absx34 / _SF_STEPS_34[pick] + _QUANT_MAGIC)
    return pick, float(np.sum((absx - _pow43(q) * _SF_STEPS[pick]) ** 2)), True


def _band_sums(values: np.ndarray, bands: np.ndarray, bins: np.ndarray, out: np.ndarray) -> None:
    """``out[..., bands] = `` the sums of ``values[..., bins]`` over each
    row of ``bins``, gathered into a C-contiguous array and reduced over its
    last axis: the pairwise summation ``np.sum`` applies to one band alone,
    which ``np.add.reduceat`` and strided rows do not reproduce bit for bit."""
    out[..., bands] = np.ascontiguousarray(values[..., bins]).sum(axis=-1)


def quantize_mnmr(
    spectrum: np.ndarray,
    mask: MaskingCurve,
    target: float,
    groups: FrequencyGroups,
) -> CodedChannel:
    """Per band, the coarsest scalefactor whose noise stays within
    ``target`` times the masked threshold.

    Bands whose full energy already fits the budget are sent as silent.
    If even the finest step misses the target (pathological inputs), the
    band is coded at its minimum-noise scalefactor and flagged.

    The search runs on all coded bands at once: every bin is quantized at
    the ``_WINDOW`` scalefactor rows from its band's first nonzero step,
    and the squared errors are summed per band and row (:func:`_band_sums`).
    A band without an in-budget row there continues with the per-band scan.
    """
    if target <= 0:
        raise ShapeError("MNMR target must be positive")
    x = np.asarray(spectrum, dtype=np.float64)
    if x.shape[0] != groups.num_bins:
        raise ShapeError("spectrum does not match the group table")
    offsets, widths, by_width = groups.layout
    nb = widths.size
    power = mask.band_power
    budget = target * power
    absx = np.abs(x)
    absx34 = absx**0.75

    energy = np.empty(nb)
    x2 = x * x
    for bands, bins in by_width:
        _band_sums(x2, bands, bins, energy)
    zero_band = energy <= budget
    nmr = energy / power  # the coded bands' entries are replaced below
    coded = np.flatnonzero(~zero_band)
    # steps that quantize every coefficient to zero give noise == band
    # energy > budget, so the scan starts at the first step that gives the
    # band's peak a nonzero index
    peak34 = np.maximum.reduceat(absx34, offsets[:-1])[coded]
    first = np.count_nonzero(peak34[:, None] / _SF_STEPS_34 < 1.0 - _QUANT_MAGIC, axis=1)
    first = np.minimum(first, _SF_COUNT - 1)

    # squared error of every coded bin at each row of its band's window
    coded_bins = np.repeat(~zero_band, widths)
    rows = np.minimum(np.repeat(first, widths[coded]) + np.arange(_WINDOW)[:, None], _SF_COUNT - 1)
    err = absx34[coded_bins] / _SF_STEPS_34[rows]
    err += _QUANT_MAGIC
    np.floor(err, out=err)
    err = _pow43(err) * _SF_STEPS[rows]
    err -= absx[coded_bins]
    err *= err  # (_WINDOW, coded bins)
    column = np.cumsum(coded_bins) - 1  # bin -> column of err
    noise = np.empty((_WINDOW, nb))
    for bands, bins in by_width:
        keep = ~zero_band[bands]
        _band_sums(err, bands[keep], column[bins[keep]], noise)
    noise = noise[:, coded].T  # (coded bands, _WINDOW)

    ok = (noise <= budget[coded, None]) & (first[:, None] + np.arange(_WINDOW) < _SF_COUNT)
    j = ok.argmax(axis=1)
    k = np.arange(coded.size)
    pick, picked_noise = first + j, noise[k, j]
    escalated = np.zeros(nb, dtype=bool)
    for i in np.flatnonzero(~ok[k, j]).tolist():  # no in-budget row in the window
        b = coded[i]
        lo, hi = offsets[b], offsets[b + 1]
        pick[i], picked_noise[i], escalated[b] = _scan_band(
            absx[lo:hi], absx34[lo:hi], budget[b], int(first[i])
        )
    nmr[coded] = picked_noise / power[coded]
    scalefactors = np.zeros(nb, dtype=np.int64)
    scalefactors[coded] = SF_MAX - pick
    step34 = _SF_STEPS_34[np.repeat(pick, widths[coded])]
    q = np.floor(absx34[coded_bins] / step34 + _QUANT_MAGIC)
    qidx = np.zeros(x.shape[0], dtype=np.int64)
    qidx[coded_bins] = np.sign(x[coded_bins]) * q.astype(np.int64)

    return CodedChannel(
        num_bins=x.shape[0],
        zero_band=zero_band,
        scalefactors=scalefactors,
        quant_indices=qidx,
        nmr=nmr,
        escalated=escalated,
    )


def dequantize_channel(coded: CodedChannel, groups: FrequencyGroups) -> np.ndarray:
    """Reconstruct the spectrum a decoder sees."""
    widths = groups.layout.widths
    steps = np.where(coded.zero_band, 0.0, 10.0 ** (1.5 * coded.scalefactors / 20.0))
    per_bin = np.repeat(steps, widths)
    q = coded.quant_indices
    return np.sign(q) * _pow43(np.abs(q)) * per_bin


def measure_nmr(
    original: np.ndarray,
    decoded: np.ndarray,
    mask: MaskingCurve,
    groups: FrequencyGroups,
) -> np.ndarray:
    """Per-band quantization-noise power over masked threshold power."""
    if original.shape != decoded.shape:
        raise ShapeError("original/decoded shape mismatch")
    err2 = (np.asarray(original, dtype=np.float64) - decoded) ** 2
    noise = np.add.reduceat(err2, groups.offsets[:-1])
    return noise / mask.band_power


# --------------------------------------------------------------------------
# Entropy coding: canonical Huffman over magnitudes 0..15 plus an escape,
# trained on this project's material.  Per coded band a 1-bit mode selects
# Huffman or raw fixed-width, so the payload never exceeds the raw coding.
# --------------------------------------------------------------------------

class HuffmanTable:
    """Canonical Huffman code defined entirely by its code lengths."""

    _FAST_BITS = 12

    def __init__(self, lengths):
        lengths = [int(v) for v in lengths]
        if len(lengths) != _ALPHABET:
            raise FormatError(f"expected {_ALPHABET} code lengths")
        if any(l < 1 or l > 32 for l in lengths):
            raise FormatError("code lengths must be in [1, 32]")
        if abs(sum(2.0 ** -l for l in lengths) - 1.0) > 1e-9:
            raise FormatError("code lengths violate the Kraft equality")
        self.lengths = lengths
        self.length_array = np.asarray(lengths, dtype=np.int64)
        order = sorted(range(_ALPHABET), key=lambda s: (lengths[s], s))
        self.codes = [0] * _ALPHABET
        code = 0
        prev_len = lengths[order[0]]
        for s in order:
            code <<= lengths[s] - prev_len
            self.codes[s] = code
            prev_len = lengths[s]
            code += 1
        self.code_array = np.asarray(self.codes, dtype=np.int64)
        self._decode_map = {
            (lengths[s], self.codes[s]): s for s in range(_ALPHABET)
        }
        # one-shot decode table over the first _FAST_BITS bits
        fb = self._FAST_BITS
        self._fast = np.full(1 << fb, -1, dtype=np.int32)  # (symbol << 6) | length
        for s in range(_ALPHABET):
            l = lengths[s]
            if l <= fb:
                base = self.codes[s] << (fb - l)
                self._fast[base : base + (1 << (fb - l))] = (s << 6) | l

    def read_symbol(self, reader: BitReader) -> int:
        entry = int(self._fast[reader.peek(self._FAST_BITS)])
        if entry >= 0:
            reader.skip(entry & 63)
            return entry >> 6
        code = 0
        for length in range(1, 33):
            code = (code << 1) | reader.read(1)
            sym = self._decode_map.get((length, code))
            if sym is not None:
                return sym
        raise StreamError("invalid Huffman code")

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(_TABLE_MAGIC + struct.pack("<HH", _TABLE_VERSION, _ALPHABET))
            fh.write(bytes(self.lengths))

    @classmethod
    def load(cls, path) -> "HuffmanTable":
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) < 8 or data[:4] != _TABLE_MAGIC:
            raise FormatError(f"{path}: not a Huffman table file")
        version, nsym = struct.unpack_from("<HH", data, 4)
        if version != _TABLE_VERSION or nsym != _ALPHABET:
            raise FormatError(f"{path}: unsupported table version/alphabet")
        return cls(list(data[8 : 8 + nsym]))

    @classmethod
    def train(cls, magnitude_histogram) -> "HuffmanTable":
        """Optimal lengths for a magnitude histogram, then reassigned in
        magnitude order so code length never decreases with magnitude
        (keeps the coarser-step-never-costs-more property exact)."""
        hist = np.asarray(magnitude_histogram, dtype=np.float64)
        if hist.size != _ALPHABET:
            raise FormatError(f"histogram needs {_ALPHABET} entries")
        hist = np.maximum(hist, 1.0)
        # enforce non-increasing counts so lengths are monotone in magnitude
        hist = np.maximum.accumulate(hist[::-1])[::-1]
        heap = [(float(hist[s]), s, (s,)) for s in range(_ALPHABET)]
        heapq.heapify(heap)
        lengths = [0] * _ALPHABET
        counter = _ALPHABET
        while len(heap) > 1:
            w1, _, s1 = heapq.heappop(heap)
            w2, _, s2 = heapq.heappop(heap)
            for s in s1 + s2:
                lengths[s] += 1
            heapq.heappush(heap, (w1 + w2, counter, s1 + s2))
            counter += 1
        ordered = sorted(lengths)
        return cls(ordered)


# default table: frozen from training on the synthetic scene corpus at
# MNMR targets 0.5..8 (demos/05_retrain_tables.py reproduces it)
DEFAULT_MAGNITUDE_LENGTHS = (
    2, 2, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 15,
)

def default_table() -> HuffmanTable:
    return HuffmanTable(DEFAULT_MAGNITUDE_LENGTHS)


def _bit_length(v: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of each value (non-negative int64)."""
    return np.array([x.bit_length() for x in v.tolist()], dtype=np.int64)


def _escapes(mags: np.ndarray):
    """The bins coded with the escape symbol, and the bit length of each
    one's unsigned Exp-Golomb value ``magnitude - ESCAPE_SYMBOL + 1``."""
    esc = np.flatnonzero(mags >= ESCAPE_SYMBOL)
    return esc, _bit_length(mags[esc] - (ESCAPE_SYMBOL - 1))


def _band_costs(mags: np.ndarray, groups: FrequencyGroups, table: HuffmanTable):
    """Exact (huffman_bits, raw_bits, raw_width) of every band from the
    bins' magnitudes, int64 arrays: per-bin code, sign and escape lengths
    summed per band."""
    offsets, widths, _ = groups.layout
    per_bin = table.length_array[np.minimum(mags, ESCAPE_SYMBOL)] + (mags > 0)
    esc, esc_bits = _escapes(mags)
    per_bin[esc] += 2 * esc_bits - 1  # ue() of the excess
    huff = np.add.reduceat(per_bin, offsets[:-1])
    width = np.maximum(_bit_length(np.maximum.reduceat(mags, offsets[:-1])), 1)
    raw = 6 + widths * (width + 1)
    return huff, raw, width


def _cost_cache(coded: CodedChannel, groups: FrequencyGroups, table: HuffmanTable) -> dict:
    """band -> (huffman_bits, raw_bits, raw_width) of every coded band."""
    huff, raw, width = _band_costs(np.abs(coded.quant_indices), groups, table)
    bands = np.flatnonzero(~np.asarray(coded.zero_band, dtype=bool))
    return dict(zip(bands.tolist(), zip(huff[bands].tolist(), raw[bands].tolist(), width[bands].tolist())))


def channel_cost(coded: CodedChannel, groups: FrequencyGroups, table: HuffmanTable) -> int:
    """Exact bit count :func:`entropy_encode_channel` would produce."""
    coded.band_costs = _cost_cache(coded, groups, table)
    # zero flag per band; scalefactor, mode flag and the cheaper coding per coded band
    return len(groups.edges) + sum(9 + min(huff, raw) for huff, raw, _ in coded.band_costs.values())


def entropy_encode_channel(
    coded: CodedChannel,
    groups: FrequencyGroups,
    table: HuffmanTable,
    writer: BitWriter,
) -> int:
    """Serialize one coded channel; returns the number of bits written.

    The channel is written as one run of fields in stream order: each
    band's header, then one field per bin (Huffman code and sign, or raw
    sign and magnitude), with an escape's excess inserted after its code.
    """
    q = coded.quant_indices
    offsets, widths, _ = groups.layout
    zero = np.asarray(coded.zero_band, dtype=bool)
    sf = np.asarray(coded.scalefactors)
    bad = ~zero & ((sf < SF_MIN) | (sf > SF_MAX))
    if bad.any():
        raise StreamError(f"scalefactor {int(sf[bad][0])} out of range")
    # the band modes come from the cost cache (channel_cost's, or the
    # caller's), completed here for bands it does not cover
    costs = coded.band_costs or {}
    bands = np.flatnonzero(~zero)
    if not costs.keys() >= set(bands.tolist()):
        costs = {**_cost_cache(coded, groups, table), **costs}
    huff, raw_cost, band_width = np.array([costs[b] for b in bands.tolist()], dtype=np.int64).reshape(-1, 3).T
    raw = np.zeros(zero.size, dtype=bool)
    raw[bands] = huff > raw_cost
    width = np.ones(zero.size, dtype=np.int64)
    width[bands] = band_width
    # band header: zero:u1, or zero:u1 scalefactor:u8 raw:u1 [width:u6]
    head = np.where(zero, 1, ((sf - SF_MIN) << 1 | raw) << 6 * raw | raw * width)
    head_len = np.where(zero, 1, 10 + 6 * raw)

    # bin field: Huffman code then the sign of a nonzero value, or raw sign
    # then magnitude; none in a zero band
    mags = np.abs(q)
    neg = (q < 0).astype(np.int64)
    nonzero = mags > 0
    sym = np.minimum(mags, ESCAPE_SYMBOL)
    bin_raw = np.repeat(raw, widths)
    bin_width = np.repeat(width, widths)
    bins = np.empty((q.size, 2), dtype=np.int64)  # (value, length)
    bins[:, 0] = np.where(bin_raw, neg << bin_width | mags, table.code_array[sym] << nonzero | neg)
    bins[:, 1] = np.where(bin_raw, bin_width + 1, table.length_array[sym] + nonzero)
    bins[np.repeat(zero, widths)] = 0
    # an escape's bin field is its code alone; its ue() prefix, ue() value
    # and sign are inserted after it, before the next band's header
    esc, esc_bits = _escapes(mags)
    huffman = np.repeat(~zero & ~raw, widths)[esc]
    esc, esc_bits = esc[huffman], esc_bits[huffman]
    bins[esc] = table.codes[ESCAPE_SYMBOL], table.lengths[ESCAPE_SYMBOL]
    extra = np.column_stack([
        np.zeros_like(esc), esc_bits - 1, mags[esc] - (ESCAPE_SYMBOL - 1), esc_bits, neg[esc], np.ones_like(esc),
    ]).reshape(-1, 2)
    at = np.concatenate([np.repeat(esc + 1, 3), offsets[:-1]])
    fields = np.insert(bins, at, np.concatenate([extra, np.column_stack([head, head_len])]), axis=0)
    start = writer.bit_length
    writer.write_fields(fields[:, 0], fields[:, 1])
    return writer.bit_length - start


# Decoding reads a frame payload through a lookup over its bit positions:
# the signed value of the Huffman-coded bin that starts at each position and
# the bits it spans (code plus sign bit), from the 12-bit fast table.  An
# advance of 0 sends that bin to the bit-serial path: escapes, codes longer
# than the fast window, and codes or sign bits that run past the payload.

_EXHAUSTED = "bitstream exhausted"
_MAX_MAGNITUDE = (1 << 63) - 1  # quantizer indices are int64


@functools.lru_cache(maxsize=1)
def _payload_lookup(data: bytes, table: HuffmanTable) -> tuple:
    """(value, advance) lists over the bit positions 0..8*len(data)."""
    nbits = 8 * len(data)
    b = np.frombuffer(data + b"\0\0\0", dtype=np.uint8).astype(np.int64)
    u24 = (b[:-2] << 16) | (b[1:-1] << 8) | b[2:]
    pos = np.arange(nbits + 1)
    window = ((u24[pos >> 3] << (pos & 7)) >> 8) & 0xFFFF  # next 16 bits, zero-padded
    entry = table._fast[window >> (16 - HuffmanTable._FAST_BITS)]
    fast = entry >= 0
    sym = np.where(fast, entry >> 6, ESCAPE_SYMBOL)
    length = np.where(fast, entry & 63, 0)
    negative = (window >> (15 - length)) & 1
    value = np.where(negative == 1, -sym, sym)
    advance = length + (sym > 0)
    advance[(sym >= ESCAPE_SYMBOL) | (pos + advance > nbits)] = 0
    return value.tolist(), advance.tolist()


def entropy_decode_channel(
    reader: BitReader,
    groups: FrequencyGroups,
    table: HuffmanTable,
) -> CodedChannel:
    """Exact inverse of :func:`entropy_encode_channel`."""
    data = reader.data
    padded = data + b"\0\0"
    nbits = 8 * len(data)
    value, advance = _payload_lookup(data, table)
    pos = reader.bit_position
    nb = len(groups.edges)
    zero_band = [False] * nb
    scalefactors = [0] * nb
    q = [0] * groups.num_bins
    for b, (lo, hi) in enumerate(groups.edges):
        if pos >= nbits:
            raise StreamError(_EXHAUSTED)
        i = pos >> 3
        head = (int.from_bytes(padded[i : i + 3], "big") >> (8 - (pos & 7))) & 0xFFFF
        if head & 0x8000:  # zero:u1
            zero_band[b] = True
            pos += 1
            continue
        if pos + 10 > nbits:
            raise StreamError(_EXHAUSTED)
        scalefactors[b] = ((head >> 7) & 0xFF) + SF_MIN
        if head & 0x40:  # raw mode: width:u6, then the band as one field
            width = head & 63
            w1 = width + 1
            pos += 16
            end = pos + (hi - lo) * w1
            if end > nbits:
                raise StreamError(_EXHAUSTED)
            big = int.from_bytes(data[pos >> 3 : (end + 7) >> 3], "big") >> (-end & 7)
            mask = (1 << width) - 1
            for k in range(hi - 1, lo - 1, -1):
                mag = big & mask
                q[k] = -mag if (big >> width) & 1 else mag
                big >>= w1
            pos = end
            continue
        pos += 10
        for k in range(lo, hi):
            a = advance[pos]
            if a:
                q[k] = value[pos]
                pos += a
                continue
            reader.bit_position = pos
            sym = table.read_symbol(reader)
            mag = sym if sym < ESCAPE_SYMBOL else ESCAPE_SYMBOL + reader.read_ue()
            if mag:
                neg = reader.read_flag()
                if mag > _MAX_MAGNITUDE:
                    raise StreamError(f"escape magnitude {mag} out of range")
                q[k] = -mag if neg else mag
            pos = reader.bit_position
    reader.bit_position = pos
    return CodedChannel(
        num_bins=groups.num_bins,
        zero_band=np.array(zero_band, dtype=bool),
        scalefactors=np.array(scalefactors, dtype=np.int64),
        quant_indices=np.array(q, dtype=np.int64),
    )
