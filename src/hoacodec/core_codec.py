"""AAC-like coding of component channels.

Per frame, on all of its C component channels at once (the columns of an
(L, C) spectrum matrix): a simplified psychoacoustic masking curve over the
49 frequency groups, scalefactor search meeting a maximum noise-to-mask
ratio per band, x^(3/4) companded integer quantization, and canonical
Huffman entropy coding with one frozen trained table and a per-band raw
fallback.  Every array is a matrix with one column per channel: per-band
arrays are (49, C), per-bin ones (L, C).

The model is deliberately compact: a two-slope spreading over band indices
with a fixed SNR offset instead of tonality estimation, scalefactors on a
1.5 dB grid spanning +-120 dB.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from hoacodec.bitio import BitReader, BitWriter
from hoacodec.errors import NumericError, ShapeError, StreamError
from hoacodec.noise_subst import FrequencyGroups, GroupLayout

SF_MIN = -80  # 1.5 dB steps: -120 dB
SF_MAX = 80  # +120 dB
_SF_COUNT = SF_MAX - SF_MIN + 1
_SF_STEPS = 10.0 ** (1.5 * np.arange(SF_MAX, SF_MIN - 1, -1) / 20.0)  # coarse -> fine
_QUANT_MAGIC = 0.4054

ESCAPE_SYMBOL = 16  # magnitudes 0..15 are coded directly, >=16 escape
_ALPHABET = ESCAPE_SYMBOL + 1


# the simplified masking model
SPREAD_LOWER_DB = 22.0  # decay per band toward lower frequencies
SPREAD_UPPER_DB = 12.0  # decay per band toward higher frequencies
SNR_OFFSET_DB = 18.0  # tonality-independent masker-to-threshold drop
ABSOLUTE_FLOOR = 1e-9  # per-band power floor (hearing-threshold stand-in)


def _flat(a, n: int, channels: int | None = None) -> np.ndarray:
    """The columns of an (n, C) matrix laid end to end: (C * n,); C must be
    ``channels`` when given."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != n or channels not in (None, a.shape[1]):
        raise ShapeError(f"shape {a.shape} is not ({n}, {channels or 'channels'})")
    return a.ravel(order="F")


def _unflat(flat: np.ndarray, shape: tuple) -> np.ndarray:
    """Channels laid end to end (:func:`_flat`) back in ``shape``."""
    return flat.reshape(shape, order="F")


def band_energies(spectrum: np.ndarray, groups: FrequencyGroups) -> np.ndarray:
    """Energy of each band of each channel: (49, C)."""
    x = _flat(np.asarray(spectrum, dtype=np.float64), groups.num_bins)
    count = x.size // groups.num_bins
    energy = np.add.reduceat(x**2, groups.layout(count).offsets[:-1])
    return _unflat(energy, (len(groups.edges), count))


@functools.lru_cache(maxsize=8)
def _spreading(nb: int) -> np.ndarray:
    """Two-slope spreading gains, (target band, masker band); read-only."""
    d = np.arange(nb)[:, None] - np.arange(nb)[None, :]  # target - masker
    atten_db = np.where(d >= 0, SPREAD_UPPER_DB * d, -SPREAD_LOWER_DB * d)
    gains = 10.0 ** (-atten_db / 10.0)
    gains.setflags(write=False)
    return gains


def masking_threshold(spectrum: np.ndarray, groups: FrequencyGroups) -> np.ndarray:
    """Masked threshold power per band of each channel, (49, C): per-band
    energy spread with two slopes, dropped by the SNR offset, floored."""
    energy = band_energies(spectrum, groups).T  # (C, 49)
    spread = energy[:, None, :] * _spreading(energy.shape[1])
    mask = spread.sum(axis=-1) * 10.0 ** (-SNR_OFFSET_DB / 10.0)
    return np.maximum(mask, ABSOLUTE_FLOOR).T


@dataclass
class CodedChannel:
    """Quantization result for the C component channels of one frame:
    per-band arrays (49, C), per-bin arrays (L, C)."""

    zero_band: np.ndarray  # bool: band transmitted as silent
    scalefactors: np.ndarray  # int in [SF_MIN, SF_MAX]; valid where not zero_band
    quant_indices: np.ndarray  # int64 signed
    nmr: np.ndarray = None  # encoder-side achieved NMR per band
    escalated: np.ndarray = None  # bands where no scalefactor met target

    def columns(self, index) -> "CodedChannel":
        """The channels the column index ``index`` selects."""
        return CodedChannel(*(None if a is None else a[:, index] for a in vars(self).values()))


# q^(4/3) lookup for the small quantizer indices that dominate; larger
# values fall back to pow
_POW43_LUT = np.arange(4096, dtype=np.float64) ** (4.0 / 3.0)
_SF_STEPS_34 = _SF_STEPS**0.75


def _pow43(q: np.ndarray) -> np.ndarray:
    """floor(q)^(4/3) for an array of q >= 0: a table lookup by truncation
    for the values below the table's size, and pow of the floor for the
    others."""
    if not q.size or q.max() < _POW43_LUT.size:
        return np.take(_POW43_LUT, q.astype(np.intp, copy=False))
    big = q >= _POW43_LUT.size
    out = np.where(big, 0.0, _POW43_LUT[np.minimum(q, _POW43_LUT.size - 1).astype(np.intp)])
    out[big] = np.floor(q[big]) ** (4.0 / 3.0)
    return out


# A coefficient quantizes to zero at a scalefactor row while its |x|^(3/4)
# lies below that row's entry here: the step^(3/4) times 1 - _QUANT_MAGIC,
# less a relative 1e-9 so that every coefficient counted as zero is zero in
# the float test of _rows_noise too.  Ascending; the number of entries above
# a value is the first row where it may be nonzero.
_ZERO_BELOW_34 = (_SF_STEPS_34 * (1.0 - _QUANT_MAGIC) * (1.0 - 1e-9))[::-1]
# The entries are geometric (1.5 dB * 3/4 apart), so log10 places a value
# within one entry of its rank; -inf and inf pad the table for the two
# compares that correct it.
_ZERO_BELOW_LOG = float(np.log10(_ZERO_BELOW_34[0]))
_ZERO_BELOW_LOG_STEP = float(np.log10(_ZERO_BELOW_34[-1]) - _ZERO_BELOW_LOG) / (_SF_COUNT - 1)
_ZERO_BELOW_PADDED = np.concatenate(([-np.inf], _ZERO_BELOW_34, [np.inf]))

# Rows past a band's first nonzero step over which the zeroed-coefficient
# bound is summed.
_BOUND_ROWS = 16

# scalefactor rows searched per band in the batched passes, from the row
# where the bound first allows the budget: the first chunk for every coded
# band, each later one only for the bands still without an in-budget row,
# and then 16 rows at a time down to the finest step.  On the synthetic
# corpus the pick lies a median of 5-6 rows past that row, and at most 17,
# so the chunks set the time, not the result.
_CHUNKS = (8, 8, 16)


def _rows_noise(absx, absx34, layout: GroupLayout, bands, first, rows: int) -> np.ndarray:
    """Squared quantization error of each of ``bands`` (increasing) at the
    ``rows`` scalefactor rows from its row in ``first``, clipped at the
    finest step: (bands, rows).

    One pass per band width: the class's chosen bands quantized at every
    row as one C-contiguous (rows, bands * width) array, each band's bins
    contiguous, and summed over a (rows, bands, width) view of it, the
    pairwise summation ``np.sum`` applies to one band alone."""
    _, widths, by_width = layout
    at = np.full(widths.size, -1)
    at[bands] = np.arange(bands.size)
    row = np.minimum(first + np.arange(rows)[:, None], _SF_COUNT - 1)  # (rows, bands)
    noise = np.empty((bands.size, rows))
    for group, bins in by_width:
        sel = at[group]
        keep = sel >= 0
        if not keep.any():
            continue
        sel = sel[keep]
        width = bins.shape[1]
        take = bins[keep].ravel()
        err = np.repeat(_SF_STEPS_34[row[:, sel]], width, axis=1)
        np.divide(absx34[take], err, out=err)
        err += _QUANT_MAGIC
        err = _pow43(err)  # every value is >= _QUANT_MAGIC
        err *= np.repeat(_SF_STEPS[row[:, sel]], width, axis=1)
        err -= absx[take]
        err *= err
        noise[sel] = err.reshape(rows, sel.size, width).sum(axis=-1).T
    return noise


def _zero_below_rank(values: np.ndarray) -> np.ndarray:
    """``np.searchsorted(_ZERO_BELOW_34, values, side="right")`` for values
    >= 0: a log10 estimate of each rank, corrected by one table compare on
    each side.  Zeros are raised to the least normal float before log10."""
    estimate = (np.log10(np.maximum(values, np.finfo(float).tiny)) - _ZERO_BELOW_LOG) / _ZERO_BELOW_LOG_STEP
    rank = np.clip(np.floor(estimate) + 1, 0, _SF_COUNT).astype(np.intp)
    rank += _ZERO_BELOW_PADDED[rank + 1] <= values
    rank -= _ZERO_BELOW_PADDED[rank] > values
    return rank


def _first_nonzero_row(peak34: np.ndarray) -> np.ndarray:
    """Per value of ``peak34`` (an |x|^(3/4)), the first scalefactor row that
    quantizes it to a nonzero index, clipped at the finest step: the row
    from which ``_ZERO_BELOW_34`` no longer counts it as zero, or the next
    one, as the division test at that row decides."""
    first = _SF_COUNT - _zero_below_rank(peak34)
    first += peak34 / _SF_STEPS_34[np.minimum(first, _SF_COUNT - 1)] < 1.0 - _QUANT_MAGIC
    return np.minimum(first, _SF_COUNT - 1)


def _zeroed_energy(x2, absx34, widths, first) -> np.ndarray:
    """For bands of ``widths`` laid end to end in ``x2`` and ``absx34``, the
    energy of the coefficients that quantize to zero at each of the
    ``_BOUND_ROWS`` rows from the band's row in ``first``: a lower bound on
    its noise there, (bands, _BOUND_ROWS), non-increasing along a row."""
    zeroed_until = _SF_COUNT - _zero_below_rank(absx34)
    band = np.repeat(np.arange(widths.size), widths)
    slot = np.clip(zeroed_until - first[band], 0, _BOUND_ROWS)
    slot += band * (_BOUND_ROWS + 1)
    by_row = np.bincount(slot, weights=x2, minlength=widths.size * (_BOUND_ROWS + 1))
    # column t sums the slots past t: the coefficients still zero at row t
    return np.cumsum(by_row.reshape(-1, _BOUND_ROWS + 1)[:, :0:-1], axis=1)[:, ::-1]


def quantize_mnmr(
    spectrum: np.ndarray,
    mask: np.ndarray,
    target: float,
    groups: FrequencyGroups,
) -> CodedChannel:
    """Per band of every channel, the coarsest scalefactor whose noise stays
    within ``target`` times the masked threshold ``mask`` (49, C).

    Bands whose full energy already fits the budget are sent as silent.
    If even the finest step misses the target (pathological inputs), the
    band is coded at its minimum-noise scalefactor and flagged.

    The search runs on all coded bands of all channels at once, laid end
    to end (``groups.layout``).  A coefficient that quantizes to zero adds
    exactly x^2 to its band's noise and none adds less than 0, so a row
    where the band's zeroed coefficients alone exceed the budget (by a
    relative 1e-9, far above that sum's rounding error) cannot be picked:
    each band's search starts past those of the ``_BOUND_ROWS`` rows from
    its first nonzero step.  From there the bins are quantized at the rows
    of one ``_CHUNKS`` entry after the other, then of 16 rows at a time
    down to the finest step, for the bands without an in-budget row so
    far, and the squared errors are summed per band and row
    (:func:`_rows_noise`).  A band without an in-budget row at any step
    takes its minimum-noise row, the first one of all its rows from the
    first nonzero step.

    Raises NumericError when a band's energy is not finite or a quantized
    magnitude would exceed ``_MAX_MAGNITUDE``.
    """
    if not (np.isfinite(target) and target > 0):
        raise ShapeError(f"MNMR target {target} is not a positive finite ratio")
    x = _flat(np.asarray(spectrum, dtype=np.float64), groups.num_bins)
    count = x.size // groups.num_bins
    layout = groups.layout(count)
    offsets, widths, _ = layout
    nb = widths.size
    power = _flat(mask, len(groups.edges), count)
    budget = target * power
    absx = np.abs(x)
    absx34 = absx**0.75

    x2 = x * x
    energy = layout.group_sums(x2)
    if not np.all(np.isfinite(energy)):
        raise NumericError(f"band energy is not finite: it exceeds the float64 limit {np.finfo(float).max:.4g}")
    zero_band = energy <= budget
    nmr = energy / power  # the coded bands' entries are replaced below
    coded = np.flatnonzero(~zero_band)
    coded_bins = np.repeat(~zero_band, widths)
    coded_widths = widths[coded]
    # steps that quantize every coefficient to zero give noise == band
    # energy > budget, so the scan starts at the first step that gives the
    # band's peak a nonzero index, or later where the zeroed energy alone
    # is over budget
    first = _first_nonzero_row(np.maximum.reduceat(absx34, offsets[:-1])[coded])
    zeroed = _zeroed_energy(x2[coded_bins], absx34[coded_bins], coded_widths, first)
    skipped = np.count_nonzero(zeroed > budget[coded, None] * (1.0 + 1e-9), axis=1)
    begin = np.minimum(first + skipped, _SF_COUNT - 1)

    pick = np.empty(coded.size, dtype=np.int64)
    picked_noise = np.empty(coded.size)
    todo = np.arange(coded.size)  # coded bands without an in-budget row yet
    start, chunks = 0, iter(_CHUNKS)
    while todo.size and start < _SF_COUNT - begin[todo].min():
        rows = next(chunks, 16)
        row = begin[todo, None] + start + np.arange(rows)
        noise = _rows_noise(absx, absx34, layout, coded[todo], begin[todo] + start, rows)
        ok = (noise <= budget[coded[todo], None]) & (row < _SF_COUNT)
        found = ok.any(axis=1)
        hit = np.flatnonzero(found)
        j = ok[hit].argmax(axis=1)
        pick[todo[hit]] = row[hit, j]
        picked_noise[todo[hit]] = noise[hit, j]
        todo = todo[~found]
        start += rows
    escalated = np.zeros(nb, dtype=bool)
    if todo.size:  # no in-budget row at any step; clipped rows repeat the finest
        noise = _rows_noise(absx, absx34, layout, coded[todo], first[todo], _SF_COUNT - first[todo].min())
        j = noise.argmin(axis=1)
        pick[todo] = first[todo] + j
        picked_noise[todo] = noise[np.arange(todo.size), j]
        escalated[coded[todo]] = True
    nmr[coded] = picked_noise / power[coded]
    scalefactors = np.zeros(nb, dtype=np.int64)
    scalefactors[coded] = SF_MAX - pick
    step34 = _SF_STEPS_34[np.repeat(pick, coded_widths)]
    q = np.floor(absx34[coded_bins] / step34 + _QUANT_MAGIC)
    if q.size and q.max() >= 2.0**63:  # the least float above _MAX_MAGNITUDE
        raise NumericError(
            f"quantized magnitude {q.max():.4g} exceeds 2^63 - 1, the largest the 6-bit raw width allows"
        )
    qidx = np.zeros(x.size, dtype=np.int64)
    qidx[coded_bins] = np.sign(x[coded_bins]) * q.astype(np.int64)

    band_shape = (len(groups.edges), count)
    return CodedChannel(
        zero_band=_unflat(zero_band, band_shape),
        scalefactors=_unflat(scalefactors, band_shape),
        quant_indices=_unflat(qidx, (groups.num_bins, count)),
        nmr=_unflat(nmr, band_shape),
        escalated=_unflat(escalated, band_shape),
    )


def dequantize_channel(coded: CodedChannel, groups: FrequencyGroups) -> np.ndarray:
    """Reconstruct the (L, C) spectra a decoder sees."""
    steps = np.where(coded.zero_band, 0.0, 10.0 ** (1.5 * coded.scalefactors / 20.0))
    per_bin = np.repeat(steps, groups.layout().widths, axis=0)
    q = coded.quant_indices
    return np.sign(q) * _pow43(np.abs(q)) * per_bin


def measure_nmr(
    original: np.ndarray,
    decoded: np.ndarray,
    mask: np.ndarray,
    groups: FrequencyGroups,
) -> np.ndarray:
    """Per-band quantization-noise power over the masked threshold power
    ``mask``, per channel: (49, C)."""
    if np.shape(original) != np.shape(decoded):
        raise ShapeError("original/decoded shape mismatch")
    noise = band_energies(np.asarray(original, dtype=np.float64) - decoded, groups)
    if np.shape(mask) != noise.shape:
        raise ShapeError(f"mask shape {np.shape(mask)} is not {noise.shape}")
    return noise / mask


# --------------------------------------------------------------------------
# Entropy coding: canonical Huffman over magnitudes 0..15 plus an escape,
# trained on this project's material.  Per coded band a 1-bit mode selects
# Huffman or raw fixed-width, so the payload never exceeds the raw coding.
# --------------------------------------------------------------------------

# the one code of every stream, as fixed as a standard's codebooks: its code
# lengths per symbol, frozen from training on the synthetic scene corpus at
# MNMR targets 0.5..8 (demos/05_retrain_tables.py reproduces them).  They are
# a complete code (Kraft sum 1), so no code is longer than 16 bits.
DEFAULT_MAGNITUDE_LENGTHS = (2, 2, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 15)


def _canonical_code(lengths: tuple) -> tuple:
    """The read-only (lengths, codes, advance, value) arrays of the
    canonical code of ``lengths``: symbols sorted by (length, symbol) take
    consecutive codes.  ``advance`` and ``value`` decode the next 17 bits,
    which hold every code and the bit after it: the bits a bin spans (code,
    then the sign of a nonzero value) and its signed value; an escape, whose
    excess and sign follow its code, spans 0 bits and reads ESCAPE_SYMBOL."""
    codes, advance, value = [0] * _ALPHABET, np.empty(1 << 17, np.uint8), np.empty(1 << 17, np.int8)
    code, length = 0, 0
    for s in sorted(range(_ALPHABET), key=lambda s: (lengths[s], s)):
        code <<= lengths[s] - length
        codes[s], length = code, lengths[s]
        base, span = code << (17 - length), 1 << (17 - length)
        advance[base : base + span] = 0 if s == ESCAPE_SYMBOL else length + (s > 0)
        value[base : base + span] = s
        if 0 < s < ESCAPE_SYMBOL:  # sign bit set
            value[base + span // 2 : base + span] = -s
        code += 1
    tables = (np.array(lengths, dtype=np.int64), np.array(codes, dtype=np.int64), advance, value)
    for t in tables:
        t.setflags(write=False)
    return tables


_LENGTHS, _CODES, _ADVANCE, _VALUE = _canonical_code(DEFAULT_MAGNITUDE_LENGTHS)


def _bit_length(v: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of each value (non-negative int64 or uint64),
    exact: float64 holds each 32-bit half exactly."""
    high = np.frexp(v >> 32)[1]
    return np.where(high, high + 32, np.frexp(v & 0xFFFFFFFF)[1])


def _escapes(mags: np.ndarray):
    """The bins coded with the escape symbol, and the bit length of each
    one's unsigned Exp-Golomb value ``magnitude - ESCAPE_SYMBOL + 1``."""
    esc = np.flatnonzero(mags >= ESCAPE_SYMBOL)
    return esc, _bit_length(mags[esc] - (ESCAPE_SYMBOL - 1))


def _band_costs(mags: np.ndarray, layout: GroupLayout) -> np.ndarray:
    """Exact (huffman_bits, raw_bits, raw_width) of every band from the
    bins' magnitudes, as a (3, bands) int64 array: per-bin code, sign and
    escape lengths summed per band."""
    offsets, widths, _ = layout
    per_bin = _LENGTHS[np.minimum(mags, ESCAPE_SYMBOL)] + (mags > 0)
    esc, esc_bits = _escapes(mags)
    per_bin[esc] += 2 * esc_bits - 1  # ue() of the excess
    huff = np.add.reduceat(per_bin, offsets[:-1])
    width = np.maximum(_bit_length(np.maximum.reduceat(mags, offsets[:-1])), 1)
    return np.stack([huff, 6 + widths * (width + 1), width])


def channel_cost(coded: CodedChannel, groups: FrequencyGroups) -> tuple:
    """Exact bit count :func:`entropy_encode_channel` would produce for each
    channel, (C,), and the (huffman_bits, raw_bits, raw_width) of every band
    of every channel that it takes, (3, 49, C)."""
    nb = len(groups.edges)
    zero = _flat(coded.zero_band, nb)
    count = zero.size // nb
    mags = np.abs(_flat(coded.quant_indices, groups.num_bins))
    costs = _band_costs(mags, groups.layout(count))
    # zero flag per band; scalefactor, mode flag and the cheaper coding per coded band
    bits = np.where(zero, 1, 10 + np.minimum(costs[0], costs[1]))
    return bits.reshape(count, nb).sum(axis=1), costs.reshape(3, count, nb).transpose(0, 2, 1)


def entropy_encode_channel(
    coded: CodedChannel,
    costs: np.ndarray,
    groups: FrequencyGroups,
    writer: BitWriter,
) -> int:
    """Serialize the coded channels one after another; returns the number of
    bits written.  The band modes come from ``costs``, the band costs of
    :func:`channel_cost`.

    The channels are written as one run of fields in stream order: each
    band's header, then one field per bin (Huffman code and sign, or raw
    sign and magnitude), with an escape's excess inserted after its code.
    """
    nb = len(groups.edges)
    zero = _flat(coded.zero_band, nb).astype(bool)
    sf = _flat(coded.scalefactors, nb)
    bad = ~zero & ((sf < SF_MIN) | (sf > SF_MAX))
    if bad.any():
        raise StreamError(f"scalefactor {int(sf[bad][0])} out of range")
    q = _flat(coded.quant_indices, groups.num_bins)
    mags = np.abs(q)
    offsets, widths, _ = groups.layout(zero.size // nb)
    huff, raw_cost, width = (_flat(c, nb) for c in costs)
    raw = ~zero & (huff > raw_cost)
    width = np.where(zero, 1, width)
    # band header: zero:u1, or zero:u1 scalefactor:u8 raw:u1 [width:u6]
    head = np.where(zero, 1, ((sf - SF_MIN) << 1 | raw) << 6 * raw | raw * width)
    head_len = np.where(zero, 1, 10 + 6 * raw)

    # bin field: Huffman code then the sign of a nonzero value, or raw sign
    # then magnitude; none in a zero band
    neg = (q < 0).astype(np.int64)
    nonzero = mags > 0
    sym = np.minimum(mags, ESCAPE_SYMBOL)
    bin_raw = np.repeat(raw, widths)
    bin_width = np.repeat(width, widths)
    bins = np.empty((q.size, 2), dtype=np.int64)  # (value, length)
    bins[:, 0] = np.where(bin_raw, neg << bin_width | mags, _CODES[sym] << nonzero | neg)
    bins[:, 1] = np.where(bin_raw, bin_width + 1, _LENGTHS[sym] + nonzero)
    bins[np.repeat(zero, widths)] = 0
    # an escape's bin field is its code alone; its ue() prefix, ue() value
    # and sign are inserted after it, before the next band's header
    esc, esc_bits = _escapes(mags)
    huffman = np.repeat(~zero & ~raw, widths)[esc]
    esc, esc_bits = esc[huffman], esc_bits[huffman]
    bins[esc] = _CODES[ESCAPE_SYMBOL], _LENGTHS[ESCAPE_SYMBOL]
    extra = np.column_stack([
        np.zeros_like(esc), esc_bits - 1, mags[esc] - (ESCAPE_SYMBOL - 1), esc_bits, neg[esc], np.ones_like(esc),
    ]).reshape(-1, 2)
    at = np.concatenate([np.repeat(esc + 1, 3), offsets[:-1]])
    fields = np.insert(bins, at, np.concatenate([extra, np.column_stack([head, head_len])]), axis=0)
    start = writer.bit_length
    writer.write_fields(fields[:, 0], fields[:, 1])
    return writer.bit_length - start


# Decoding follows the chain of Huffman-coded bins through jump tables over
# the channel region of a payload, from the reader's position to its end:
# nxt[p] is the position after the bin that starts at p (code, sign bit and
# an escape's excess), and doubling level k is nxt applied 2**k times.  The
# levels stop at 8-bin jumps (_LEVELS): each one is a gather over every bit
# of the region, which costs as much as a few thousand band-walk hops, and
# only the AAC table's widest bands would use more.  A band of w bins ends
# after w >> 3 top-level hops and popcount(w & 7) lower ones.  A position
# whose bin runs past the payload or is a bad escape goes to an absorbing
# dead entry.  The tables live for one call.

_EXHAUSTED = "bitstream exhausted"
_MAX_MAGNITUDE = (1 << 63) - 1  # quantizer indices are int64
_ESCAPE_SPAN = 130  # the longest escape excess: ue() of 64 zeros, 65 bits, then a sign
# the longest band header (zero:u1 scalefactor:u8 raw:u1 width:u6) and the
# longest bin (the escape code, then the longest excess and sign): no block
# of channels is longer than its bands and bins at these lengths
_MAX_HEAD_BITS = 16
_MAX_BIN_BITS = max(DEFAULT_MAGNITUDE_LENGTHS) + _ESCAPE_SPAN
_LEVELS = 4  # doubling levels: jumps of 1, 2, 4 and 8 bins
_TOP = 1 << (_LEVELS - 1)
# entries per gather of a doubling level: np.take copies its int32 index to
# intp, so slices bound that copy at 512 KiB; a frame's channels up to 64 Kbit
# take one gather
_LEVEL_SLICE = 1 << 16
# zero bytes after a block: an escape's second 64-bit read may start 78 bits
# past its end, and reads 9 bytes from there
_PADDING = 18
# the window at bit j of a byte is the native 32-bit word from that byte
# shifted right by 15 - j: the shifts of 8 Ki bytes, applied a slice at a time
_WINDOW_SHIFTS = np.tile(np.arange(15, 7, -1, dtype=np.uint32), 1 << 13)
_WINDOW_SHIFTS.setflags(write=False)


def _bin_chain(data: bytes, start: int) -> tuple:
    """The next-position table of the bins from bit ``start`` to the end of
    ``data``, in positions relative to ``start``: (padded, window, nxt,
    escapes, values, errors).  ``padded`` is ``data`` with zero bytes after
    it for every read past its end; ``window[p]`` holds the 17 bits at p,
    zero-padded, for p up to n + 7, so the dead entry indexes it too;
    ``nxt`` has the region's n positions, then n and the dead entry n + 1,
    both dead; ``escapes`` lists the positions that start with the escape
    code, in order, and ``values`` their values; ``errors`` maps each bad
    escape to its message."""
    first, n = start >> 3, 8 * len(data) - start
    padded = data + bytes(_PADDING)
    words = np.ndarray((len(data) - first + 1,), ">u4", padded, first, (1,))  # overlapping
    window = np.repeat(words.astype(np.uint32), 8)
    for lo in range(0, window.size, _WINDOW_SHIFTS.size):
        part = window[lo : lo + _WINDOW_SHIFTS.size]
        np.right_shift(part, _WINDOW_SHIFTS[: part.size], out=part)
    window &= 0x1FFFF
    window = window[start & 7 :]
    advance = np.take(_ADVANCE, window[:n])
    dead = n + 1
    nxt = np.arange(n + 2, dtype=np.int32)  # a payload holds under 2**31 bits
    nxt[:n] += advance
    # a code or sign bit past the end: a bin spans at most 16 bits, so only
    # the last 16 positions can reach past n
    tail = nxt[max(n - 16, 0) :]
    np.minimum(tail, dead, out=tail)
    nxt[n] = dead

    # an escape's excess is ue() (z zeros, a one and z bits), then a sign:
    # the 64 bits after its code give z, and for z <= 62 the 64 bits from
    # its one hold the rest; at z = 64 the bit after the zeros tells 64 from more
    escapes = np.flatnonzero(advance == 0)
    values, errors = np.zeros(escapes.size, dtype=np.int64), {}
    if escapes.size:
        at = start + escapes + DEFAULT_MAGNITUDE_LENGTHS[ESCAPE_SYMBOL]
        zeros = 64 - _bit_length(_words(padded, at))
        word = _words(padded, at + zeros)
        z = np.minimum(zeros, 62).astype(np.uint64)
        excess = (word >> (np.uint64(63) - z)).astype(np.int64)
        end, bits = at + 2 * zeros + 2, 8 * len(data)
        malformed = (zeros == 64) & (word >> np.uint64(63) == 0)  # more than 64 zeros
        exhausted = np.where(malformed, bits - at <= 64, end > bits)
        ok = ~malformed & ~exhausted & (zeros <= 62) & (excess <= _MAX_MAGNITUDE - (ESCAPE_SYMBOL - 1))
        mag = np.where(ok, excess, 0) + (ESCAPE_SYMBOL - 1)
        values = np.where(word >> (np.uint64(62) - z) & np.uint64(1), -mag, mag)
        nxt[escapes] = np.where(ok, end - start, dead)
        for i in np.flatnonzero(~ok).tolist():
            errors[int(escapes[i])] = (
                _EXHAUSTED if exhausted[i] else "malformed Exp-Golomb code" if malformed[i]
                else "escape magnitude out of range"
            )
    return padded, window, nxt, escapes, values, errors


class _ReadPlan(NamedTuple):
    """What a call reads, fixed by the group table and the channel count.
    Bins are placed in slots by rank in their band, then by band: rank 0
    of every band, then rank 1 of every band wider than one bin, and so on."""

    bands: tuple  # per band of the block: (width, levels of its hops)
    levels: int  # doubling levels the hops and steps use
    band: np.ndarray  # per slot, its band
    rank: np.ndarray  # per slot, its rank in the band
    steps: tuple  # (level, lo, hi, src): slots lo:hi are that level applied to slots src
    order: np.ndarray  # per bin of the block, its slot


@functools.lru_cache(maxsize=8)
def _read_plan(groups: FrequencyGroups, count: int) -> _ReadPlan:
    """The read plan of ``count`` channels over ``groups`` (read-only).  Bin
    r + 2**k of a band, where r < 2**k, is level k applied to bin r, up to
    the top level; ranks from 2 * _TOP on are placed _TOP at a time, each
    the top level applied to the bin _TOP before it."""
    _, widths, _ = layout = groups.layout(count)
    top = int(widths.max())
    hops = tuple(
        (w, (_LEVELS - 1,) * (w // _TOP) + tuple(k for k in range(_LEVELS - 1) if w >> k & 1))
        for w in widths.tolist()
    )
    rank, band = np.nonzero(widths > np.arange(top)[:, None])  # slot order
    rank_start = np.searchsorted(rank, np.arange(top + 1))
    slot = np.zeros((widths.size, top), dtype=np.intp)
    slot[band, rank] = np.arange(band.size)
    steps, r = [], 1
    while r < top:
        jump = min(r, _TOP)
        lo, hi = rank_start[r], rank_start[min(r + jump, top)]
        steps.append((jump.bit_length() - 1, lo, hi, slot[band[lo:hi], rank[lo:hi] - jump]))
        r += jump
    order = np.empty(band.size, dtype=np.intp)
    order[layout.offsets[band] + rank] = np.arange(band.size)
    for a in (band, rank, order, *(step[3] for step in steps)):
        a.setflags(write=False)
    return _ReadPlan(hops, min(_LEVELS, top.bit_length()), band, rank, tuple(steps), order)


def _words(padded: bytes, at: np.ndarray) -> np.ndarray:
    """The 64 bits at each bit position ``at`` of ``padded`` as uint64: the
    big-endian word at its byte, shifted left, and the top bits of the byte
    after it.  ``padded`` holds 9 bytes from each position's byte on."""
    i, shift = at >> 3, (at & 7).astype(np.uint64)
    word = np.ndarray((len(padded) - 8,), ">u8", padded, 0, (1,))[i].astype(np.uint64) << shift
    word |= np.frombuffer(padded, np.uint8)[i + 8].astype(np.uint64) >> (np.uint64(8) - shift)
    return word


def _raw_fields(padded: bytes, at: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The signed values of the raw bins at bit positions ``at``: a sign bit,
    then a ``width``-bit magnitude (width <= 63)."""
    one, width = np.uint64(1), width.astype(np.uint64)
    field = _words(padded, at) >> (np.uint64(63) - width)
    mag = (field & ((one << width) - one)).astype(np.int64)
    return np.where(field >> width & one, -mag, mag)


def entropy_decode_channel(
    reader: BitReader,
    groups: FrequencyGroups,
    channels: int,
    values: bool = True,
) -> CodedChannel | None:
    """Exact inverse of :func:`entropy_encode_channel`: reads ``channels``
    channels, one after another, into (49, channels) and (L, channels)
    matrices.

    A walk over the bands records each band header's position and skips
    the band's bins: a raw band by its fixed width, a Huffman band through
    the doubling levels.  One gather of the headers then gives the zero
    flags, scalefactors and raw widths, and the bins of all bands are read
    in one pass, placed by the read plan (:func:`_read_plan`).  With
    ``values`` False that pass is skipped: the call only parses, with every
    check of the full call, moves ``reader`` past the channels and returns
    None."""
    start = reader.bit_position
    nb = len(groups.edges)
    plan = _read_plan(groups, channels)
    # the tables cover no more than the longest block of these channels:
    # every bin of a valid chain, and every bit it reads, lies inside it
    longest = nb * channels * _MAX_HEAD_BITS + groups.num_bins * channels * _MAX_BIN_BITS
    data = reader.data[: (start + longest + 7) >> 3]
    padded, window, nxt, escapes, escape_values, errors = _bin_chain(data, start)
    dead = nxt.size - 1
    n = dead - 1  # the region's bits
    levels = [nxt]
    while len(levels) < plan.levels:
        prev, level = levels[-1], np.empty_like(nxt)
        for lo in range(0, nxt.size, _LEVEL_SLICE):
            # every entry is in range; mode="raise" would buffer the output
            np.take(prev, prev[lo : lo + _LEVEL_SLICE], out=level[lo : lo + _LEVEL_SLICE], mode="wrap")
        levels.append(level)
    # memoryviews index as Python ints, twice as fast as ndarray.item
    bits, jumps = memoryview(window), [memoryview(level) for level in levels]
    heads = [0] * len(plan.bands)  # each band header's position, relative to start
    p = 0
    for b, (w, hop) in enumerate(plan.bands):
        if p >= n:
            raise StreamError(_EXHAUSTED)
        heads[b] = p
        head = bits[p]  # zero:u1, or zero:u1 scalefactor:u8 raw:u1 [width:u6]
        if head >> 16:
            p += 1
            continue
        if p + 10 > n:
            raise StreamError(_EXHAUSTED)
        if head & 0x80:  # a sign and a magnitude per bin
            p += 16 + w * ((head >> 1 & 63) + 1)
            if p > n:
                raise StreamError(_EXHAUSTED)
            continue
        p += 10
        for k in hop:
            p = jumps[k][p]
        if p == dead:  # the first bad bin of the band raises its own error
            p = heads[b] + 10
            while nxt[p] != dead:
                p = nxt[p]
            raise StreamError(errors.get(int(p), _EXHAUSTED))
    reader.bit_position = start + p
    if not values:
        return None

    heads = np.array(heads)
    head = np.take(window, heads)
    zero = (head >> 16).astype(bool)
    raw = ~zero & (head & 0x80).astype(bool)
    # a Huffman band's bins follow its 10-bit header; every other band
    # starts at the dead entry, whose window holds zero bits and so the
    # value 0, and keeps it through every level
    at = np.empty(plan.band.size, dtype=np.int32)
    at[: heads.size] = np.where(zero | raw, dead, heads + 10)
    for k, lo, hi, src in plan.steps:
        np.take(levels[k], np.take(at, src), out=at[lo:hi], mode="wrap")
    values = np.take(_VALUE, np.take(window, at)).astype(np.int64)
    escaped = np.flatnonzero(values == ESCAPE_SYMBOL)
    values[escaped] = escape_values[np.searchsorted(escapes, at[escaped])]
    if raw.any():
        sel = np.flatnonzero(raw[plan.band])
        band, rank = plan.band[sel], plan.rank[sel]
        width = (head[band] >> 1 & 63).astype(np.int64)
        values[sel] = _raw_fields(padded, start + heads[band] + 16 + rank * (width + 1), width)
    scalefactors = np.where(zero, 0, (head >> 8 & 0xFF).astype(np.int64) + SF_MIN)
    return CodedChannel(
        _unflat(zero, (nb, channels)),
        _unflat(scalefactors, (nb, channels)),
        _unflat(values[plan.order], (groups.num_bins, channels)),
    )
