import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from bitfields import read_flag, read_ue, write_flag, write_ue
from hoacodec.bitio import BitReader, BitWriter
from hoacodec.core_codec import (
    ABSOLUTE_FLOOR,
    DEFAULT_MAGNITUDE_LENGTHS,
    ESCAPE_SYMBOL,
    SF_MAX,
    SF_MIN,
    CodedChannel,
    _ADVANCE,
    _BOUND_ROWS,
    _CHUNKS,
    _CODES,
    _LENGTHS,
    _QUANT_MAGIC,
    _SF_COUNT,
    _SF_STEPS,
    _SF_STEPS_34,
    _VALUE,
    _ZERO_BELOW_34,
    _bin_chain,
    _bit_length,
    _first_nonzero_row,
    _pow43,
    _rows_noise,
    _zero_below_rank,
    _zeroed_energy,
    band_energies,
    channel_cost,
    dequantize_channel,
    entropy_decode_channel,
    entropy_encode_channel,
    masking_threshold,
    measure_nmr,
    quantize_mnmr,
)
from hoacodec.errors import ShapeError, StreamError
from hoacodec.noise_subst import FrequencyGroups, groups_for

# the frozen code as Python ints, for BitWriter.write
CODES, LENGTHS = _CODES.tolist(), _LENGTHS.tolist()


@pytest.fixture
def groups():
    return groups_for(1024)


# --- masking ---

def test_silence_masks_at_absolute_floor(groups):
    mask = masking_threshold(np.zeros((1024, 1)), groups)
    assert np.all(mask == ABSOLUTE_FLOOR)


def test_single_loud_band_spreads_monotonically(groups):
    spectrum = np.zeros((1024, 1))
    spectrum[512:544] = 30.0  # one loud region, all in one band
    mask = masking_threshold(spectrum, groups)[:, 0]
    b0 = int(np.argmax(mask))
    above = mask[b0:]
    below = mask[: b0 + 1]
    assert np.all(np.diff(above) <= 1e-9 * above[:-1])
    assert np.all(np.diff(below) >= -1e-9 * below[1:])
    # the bands above the floor fall off by 12 dB per band upward and
    # 22 dB per band downward from the loud band
    lifted = np.flatnonzero(mask > ABSOLUTE_FLOOR)
    up = mask[b0 : lifted[-1] + 1]
    down = mask[lifted[0] : b0 + 1]
    assert up.size > 2 and down.size > 2
    np.testing.assert_allclose(up[1:] / up[:-1], 10.0 ** (-12.0 / 10.0), rtol=1e-12)
    np.testing.assert_allclose(down[:-1] / down[1:], 10.0 ** (-22.0 / 10.0), rtol=1e-12)


def test_mask_scales_with_energy(groups, rng):
    spectrum = rng.standard_normal((1024, 1)) * 5
    m1 = masking_threshold(spectrum, groups)
    m2 = masking_threshold(3.0 * spectrum, groups)
    assert np.allclose(m2, 9.0 * m1, rtol=1e-12)


# --- quantization ---

def test_silence_codes_to_nothing(groups):
    mask = masking_threshold(np.zeros((1024, 1)), groups)
    coded = quantize_mnmr(np.zeros((1024, 1)), mask, 1.0, groups)
    assert coded.zero_band.all()
    assert np.all(coded.quant_indices == 0)


@pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_target_that_is_not_positive_and_finite_is_refused(groups, rng, target):
    spectrum = rng.standard_normal((1024, 1))
    with pytest.raises(ShapeError, match="MNMR target"):
        quantize_mnmr(spectrum, masking_threshold(spectrum, groups), target, groups)


def test_huge_target_gives_coarsest_coding(groups, rng):
    spectrum = rng.standard_normal((1024, 1))
    mask = masking_threshold(spectrum, groups)
    coded = quantize_mnmr(spectrum, mask, 1e12, groups)
    assert coded.zero_band.all()


def test_nmr_constraint_met_and_verified(groups, rng):
    spectrum = rng.standard_normal((1024, 1)) * 20
    mask = masking_threshold(spectrum, groups)
    for tau in (0.5, 1.0, 2.0):
        coded = quantize_mnmr(spectrum, mask, tau, groups)
        assert not coded.escalated.any()
        decoded = dequantize_channel(coded, groups)
        nmr = measure_nmr(spectrum, decoded, mask, groups)
        assert np.all(nmr <= tau * (1 + 1e-9))


def test_coarsest_satisfying_scalefactor(groups, rng):
    # picking any coarser scalefactor in a coded band must violate the target
    spectrum = rng.standard_normal((1024, 1)) * 20
    mask = masking_threshold(spectrum, groups)
    tau = 1.0
    coded = quantize_mnmr(spectrum, mask, tau, groups)
    from hoacodec.core_codec import _QUANT_MAGIC

    for b, (lo, hi) in enumerate(groups.edges[:20]):
        if coded.zero_band[b, 0]:
            continue
        sf = int(coded.scalefactors[b, 0]) + 1  # one step coarser
        if sf > 80:
            continue
        step = 10.0 ** (1.5 * sf / 20.0)
        xs = np.abs(spectrum[lo:hi, 0])
        q = np.floor((xs / step) ** 0.75 + _QUANT_MAGIC)
        noise = float(np.sum((xs - q ** (4.0 / 3.0) * step) ** 2))
        assert noise > tau * mask[b, 0]


def test_measured_nmr_examples(groups, rng):
    spectrum = rng.standard_normal((1024, 1))
    mask = masking_threshold(spectrum, groups)
    zeros = measure_nmr(spectrum, spectrum.copy(), mask, groups)
    assert np.all(zeros == 0.0)
    # inject known noise power into one band
    b = 10
    lo, hi = groups.edges[b]
    noisy = spectrum.copy()
    noisy[lo, 0] += np.sqrt(0.125)
    nmr = measure_nmr(spectrum, noisy, mask, groups)
    assert nmr[b, 0] == pytest.approx(0.125 / mask[b, 0], rel=1e-12)


def test_rate_monotone_in_target(groups, rng):
    spectrum = rng.standard_normal((1024, 1)) * 10
    mask = masking_threshold(spectrum, groups)
    bits = []
    for tau in (0.25, 0.5, 1.0, 2.0, 4.0, 16.0):
        coded = quantize_mnmr(spectrum, mask, tau, groups)
        bits.append(channel_cost(coded, groups)[0][0])
    assert all(b1 >= b2 for b1, b2 in zip(bits, bits[1:]))


# --- entropy coding ---

def test_roundtrip_random_indices(groups, rng):
    spectrum = rng.standard_normal((1024, 1)) * 15
    mask = masking_threshold(spectrum, groups)
    coded = quantize_mnmr(spectrum, mask, 0.5, groups)
    w = BitWriter()
    bits, costs = channel_cost(coded, groups)
    assert entropy_encode_channel(coded, costs, groups, w) == bits[0]
    r = BitReader(w.getvalue())
    back = entropy_decode_channel(r, groups, 1)
    assert np.array_equal(back.quant_indices, coded.quant_indices)
    assert np.array_equal(back.zero_band, coded.zero_band)
    assert np.array_equal(
        back.scalefactors[~coded.zero_band], coded.scalefactors[~coded.zero_band]
    )


def test_all_zero_spectrum_costs_under_two_bits_per_band(groups):
    mask = masking_threshold(np.zeros((1024, 1)), groups)
    coded = quantize_mnmr(np.zeros((1024, 1)), mask, 1.0, groups)
    bits, costs = channel_cost(coded, groups)
    assert entropy_encode_channel(coded, costs, groups, BitWriter()) == bits[0]
    assert bits[0] < 2 * len(groups.edges)


def test_rate_beats_raw_fixed_width(groups, rng):
    # the per-band fallback guarantees huffman-or-raw, so total payload can
    # never exceed coding every band raw
    spectrum = rng.standard_normal((1024, 1)) * 25
    mask = masking_threshold(spectrum, groups)
    coded = quantize_mnmr(spectrum, mask, 0.5, groups)
    actual = channel_cost(coded, groups)[0][0]
    raw_everywhere = 0
    for b, (lo, hi) in enumerate(groups.edges):
        raw_everywhere += 1
        if coded.zero_band[b, 0]:
            continue
        values = coded.quant_indices[lo:hi, 0]
        width = max(1, int(np.max(np.abs(values))).bit_length())
        raw_everywhere += 8 + 1 + 6 + values.size * (width + 1)
    assert actual <= raw_everywhere


def test_escape_values_roundtrip(groups):
    values = np.zeros((1024, 1), dtype=np.int64)
    values[5] = 4000
    values[6] = -77
    values[900] = 16
    coded = CodedChannel(
        zero_band=np.zeros((len(groups.edges), 1), dtype=bool),
        scalefactors=np.zeros((len(groups.edges), 1), dtype=np.int64),
        quant_indices=values,
    )
    w = BitWriter()
    _, costs = channel_cost(coded, groups)
    entropy_encode_channel(coded, costs, groups, w)
    back = entropy_decode_channel(BitReader(w.getvalue()), groups, 1)
    assert np.array_equal(back.quant_indices, values)


# --- tables ---

def test_frozen_lengths_are_complete_and_monotone():
    """The frozen code is complete (the Kraft sum is exactly 1, in
    integers), so no code is longer than 16 bits, the premise of the 17-bit
    decode window; and no magnitude has a shorter code than a smaller one,
    so a coarser step never costs more bits."""
    lengths = DEFAULT_MAGNITUDE_LENGTHS
    assert len(lengths) == ESCAPE_SYMBOL + 1
    assert all(1 <= l <= 16 for l in lengths)
    assert sum(1 << (16 - l) for l in lengths) == 1 << 16
    assert all(a <= b for a, b in zip(lengths, lengths[1:]))
    assert LENGTHS == list(lengths)


def test_canonical_code_tables():
    """Codes are assigned in (length, symbol) order, each the previous plus
    one, shifted to its length; the 17-bit decode tables give each code's
    span (code and sign bit; 0 for the escape) and signed value, and the
    four arrays are read-only."""
    order = sorted(range(ESCAPE_SYMBOL + 1), key=lambda s: (LENGTHS[s], s))
    assert CODES[order[0]] == 0
    for prev, s in zip(order, order[1:]):
        assert CODES[s] == (CODES[prev] + 1) << (LENGTHS[s] - LENGTHS[prev])
    for s in range(ESCAPE_SYMBOL + 1):
        base = CODES[s] << (17 - LENGTHS[s])
        half = 1 << (16 - LENGTHS[s])  # the sign bit follows the code
        span = 0 if s == ESCAPE_SYMBOL else LENGTHS[s] + (s > 0)
        assert _ADVANCE[base] == _ADVANCE[base + 2 * half - 1] == span
        assert _VALUE[base] == s
        assert _VALUE[base + half] == (-s if 0 < s < ESCAPE_SYMBOL else s)
    for table in (_LENGTHS, _CODES, _ADVANCE, _VALUE):
        assert not table.flags.writeable


def test_one_dimensional_arrays_are_refused(groups):
    """The coder takes (rows, C) matrices only: a 1-D spectrum, mask or
    coded channel is a ShapeError."""
    spectrum = np.ones((1024, 1))
    mask = masking_threshold(spectrum, groups)
    coded = quantize_mnmr(spectrum, mask, 1.0, groups)
    with pytest.raises(ShapeError):
        masking_threshold(spectrum[:, 0], groups)
    with pytest.raises(ShapeError):
        quantize_mnmr(spectrum[:, 0], mask, 1.0, groups)
    with pytest.raises(ShapeError):
        quantize_mnmr(spectrum, mask[:, 0], 1.0, groups)
    with pytest.raises(ShapeError):
        channel_cost(coded.columns(0), groups)


@pytest.mark.parametrize("columns", [3, 1])
def test_mask_of_another_channel_count_is_refused(columns, rng):
    """A (49, C') mask for an (L, C) spectrum is a ShapeError unless C' == C,
    also where numpy would broadcast a one-column mask."""
    groups = FrequencyGroups.uniform(256)
    spectrum = rng.standard_normal((256, 4))
    mask = np.ones((len(groups.edges), columns))
    with pytest.raises(ShapeError):
        quantize_mnmr(spectrum, mask, 1.0, groups)
    with pytest.raises(ShapeError):
        measure_nmr(spectrum, 0.5 * spectrum, mask, groups)


def test_band_energy_reduction(groups, rng):
    spectrum = rng.standard_normal((1024, 1))
    e = band_energies(spectrum, groups)
    for b, (lo, hi) in enumerate(groups.edges):
        assert e[b, 0] == pytest.approx(float(np.sum(spectrum[lo:hi, 0] ** 2)))


# --- table-driven channel decoder against a bit-serial reference ---


def _reference_decode(reader, groups, channels):
    """One reader call per field and one bit per Huffman code step;
    ``channels`` channels one after another, stacked as columns."""
    cols = [_reference_decode_one(reader, groups) for _ in range(channels)]
    return CodedChannel(*(np.stack(arrays, axis=-1) for arrays in zip(*cols)))


def _reference_decode_one(reader, groups):
    """One channel's (zero_band, scalefactors, quant_indices)."""
    codes = {(LENGTHS[s], CODES[s]): s for s in range(ESCAPE_SYMBOL + 1)}
    nb = len(groups.edges)
    zero_band = np.zeros(nb, dtype=bool)
    scalefactors = np.zeros(nb, dtype=np.int64)
    q = [0] * groups.num_bins
    for b, (lo, hi) in enumerate(groups.edges):
        if read_flag(reader):
            zero_band[b] = True
            continue
        scalefactors[b] = reader.read(8) + SF_MIN
        if read_flag(reader):
            width = reader.read(6)
            for k in range(lo, hi):
                neg = read_flag(reader)
                mag = reader.read(width)
                q[k] = -mag if neg else mag
            continue
        for k in range(lo, hi):
            code, length = 0, 0
            while (length, code) not in codes:
                code, length = (code << 1) | reader.read(1), length + 1
            sym = codes[(length, code)]
            mag = sym if sym < ESCAPE_SYMBOL else ESCAPE_SYMBOL + read_ue(reader)
            if mag:
                neg = read_flag(reader)
                if mag >= 1 << 63:
                    raise StreamError("escape magnitude out of range")
                q[k] = -mag if neg else mag
    return zero_band, scalefactors, np.array(q, dtype=np.int64)


def _same_parse(data, start, groups, channels=1):
    """The parse-only call (``values=False``) ends at the full call's end
    position, or raises the full call's StreamError text."""
    ends = []
    for values in (True, False):
        reader = BitReader(data)
        reader.bit_position = start
        try:
            entropy_decode_channel(reader, groups, channels, values=values)
            ends.append(reader.bit_position)
        except StreamError as exc:
            ends.append(str(exc))
    assert ends[0] == ends[1]


def _outcome(decoder, data, start, groups, channels=1):
    """(the shape and fields of the CodedChannel, end bit position), or
    "StreamError"."""
    reader = BitReader(data)
    reader.bit_position = start
    try:
        c = decoder(reader, groups, channels)
    except StreamError:
        return "StreamError"
    return (c.quant_indices.shape, c.zero_band.tolist(), c.scalefactors.tolist(),
            c.quant_indices.tolist(), reader.bit_position)


@st.composite
def coded_channels(draw):
    groups = FrequencyGroups.uniform(draw(st.integers(49, 120)))
    nb = len(groups.edges)
    values = np.zeros((groups.num_bins, 1), dtype=np.int64)
    zero_band = np.zeros((nb, 1), dtype=bool)
    scalefactors = np.zeros((nb, 1), dtype=np.int64)
    forced = {}
    magnitude = st.one_of(st.integers(0, 3), st.integers(0, 15), st.integers(16, 1 << 20))
    for b, (lo, hi) in enumerate(groups.edges):
        kind = draw(st.sampled_from(["zero", "huffman", "huffman", "raw"]))
        if kind == "zero":
            zero_band[b, 0] = True
            continue
        scalefactors[b, 0] = draw(st.integers(SF_MIN, SF_MAX))
        mags = draw(st.lists(magnitude, min_size=hi - lo, max_size=hi - lo))
        signs = draw(st.lists(st.booleans(), min_size=hi - lo, max_size=hi - lo))
        values[lo:hi, 0] = [-m if s else m for m, s in zip(mags, signs)]
        if kind == "raw":  # force raw mode, possibly wider than needed
            forced[b] = max(mags).bit_length() + draw(st.integers(0, 2))
    return CodedChannel(zero_band, scalefactors, values), groups, forced


def _force_raw(coded, groups, forced):
    """The band costs of ``coded``, with the ``forced`` bands sent raw at
    the given widths (band -> width)."""
    _, costs = channel_cost(coded, groups)
    for b, width in forced.items():
        costs[:, b, 0] = (1, 0, width)
    return costs


_PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_PROPERTY
@given(coded_channels(), st.integers(0, 15), st.integers(0, 20), st.randoms())
def test_channel_decoder_matches_reference(channel, lead, trail, rnd):
    coded, groups, forced = channel
    costs = _force_raw(coded, groups, forced)
    w = BitWriter()
    w.write(rnd.getrandbits(lead), lead)  # start away from a byte boundary
    entropy_encode_channel(coded, costs, groups, w)
    w.write(rnd.getrandbits(trail), trail)
    data = w.getvalue()

    got = _outcome(entropy_decode_channel, data, lead, groups)
    assert got == _outcome(_reference_decode, data, lead, groups)
    expected = np.where(np.repeat(coded.zero_band, groups.layout().widths, axis=0), 0, coded.quant_indices)
    assert got[3] == expected.tolist()
    _same_parse(data, lead, groups)
    for cut in range(len(data)):  # every truncation: the reference's result or StreamError
        truncated = data[:cut]
        start = min(lead, 8 * cut)
        assert _outcome(entropy_decode_channel, truncated, start, groups) == _outcome(
            _reference_decode, truncated, start, groups
        )
        _same_parse(truncated, start, groups)


@_PROPERTY
@given(st.binary(max_size=200), st.integers(0, 7), st.integers(49, 120))
def test_channel_decoder_on_random_bytes(data, lead, num_bins):
    groups = FrequencyGroups.uniform(num_bins)
    lead = min(lead, 8 * len(data))
    assert _outcome(entropy_decode_channel, data, lead, groups) == _outcome(
        _reference_decode, data, lead, groups
    )
    _same_parse(data, lead, groups)


def test_escape_beyond_int64_is_a_stream_error():
    w = BitWriter()
    w.write(0, 1)  # coded band
    w.write(-SF_MIN, 8)
    w.write(0, 1)  # Huffman mode
    w.write(CODES[ESCAPE_SYMBOL], LENGTHS[ESCAPE_SYMBOL])
    w.write(0, 64)  # ue() with 64 leading zeros: an excess of 2**64 - 1
    w.write(1, 1)
    w.write(0, 64)
    w.write(0, 1)  # sign
    with pytest.raises(StreamError, match="out of range"):
        entropy_decode_channel(BitReader(w.getvalue()), FrequencyGroups.uniform(49), 1)


def test_bit_length_is_exact_around_every_power_of_two():
    """The vectorized bit length equals ``int.bit_length`` next to every
    power of two, where a float64 of the whole value would round, for the
    encoder's int64 magnitudes and the decoder's uint64 words."""
    values = sorted({(1 << k) + d for k in range(64) for d in (-1, 0, 1)} | {0, (1 << 64) - 1})
    for dtype, top in ((np.int64, 1 << 63), (np.uint64, 1 << 64)):
        v = [x for x in values if x < top]
        assert _bit_length(np.array(v, dtype=dtype)).tolist() == [x.bit_length() for x in v]


def _result(decoder, data, start, groups):
    """(values, end bit position), or the StreamError's text."""
    reader = BitReader(data)
    reader.bit_position = start
    try:
        return decoder(reader, groups, 1).quant_indices[:, 0].tolist(), reader.bit_position
    except StreamError as exc:
        return str(exc)


@pytest.mark.parametrize("zeros", [16, 17, 31, 32, 62, 63, 64, 65])
@pytest.mark.parametrize("lead", [0, 7])
def test_escape_excess_at_every_read_length(zeros, lead):
    """An escape whose excess has ``zeros`` leading zeros, then random bits,
    in the first of 49 one-bin bands: around the 32-bit halves of the
    leading-zero count, the int64 limit and the longest code read, the
    decoder gives the reference's values or error text, whole and at every
    cut (with lead 7, one cut leaves exactly 64 bits after the code), and
    parsing alone ends alike."""
    import random

    rnd = random.Random(zeros + lead)
    groups = FrequencyGroups.uniform(49)
    info, negative = rnd.getrandbits(zeros), rnd.random() < 0.5
    w = BitWriter()
    w.write(rnd.getrandbits(lead), lead)
    for value, length in [(0, 1), (-SF_MIN, 8), (0, 1), (CODES[ESCAPE_SYMBOL], 15),
                          (0, zeros), (1, 1), (info, zeros), (int(negative), 1), ((1 << 48) - 1, 48)]:
        w.write(value, length)
    data = w.getvalue()
    magnitude = ESCAPE_SYMBOL - 1 + (1 << zeros | info)
    expected = ([-magnitude if negative else magnitude] + [0] * 48, lead + 75 + 2 * zeros)
    if zeros == 65:
        expected = "malformed Exp-Golomb code"
    elif magnitude >= 1 << 63:
        expected = "escape magnitude out of range"
    assert _result(entropy_decode_channel, data, lead, groups) == expected
    for cut in range(len(data) + 1):
        truncated, start = data[:cut], min(lead, 8 * cut)
        assert _result(entropy_decode_channel, truncated, start, groups) == _result(
            _reference_decode, truncated, start, groups
        )
        _same_parse(truncated, start, groups)


@st.composite
def wide_coded_channels(draw):
    """1 to 3 channels over real band widths: the AAC table (4 to 96 bins)
    or 49 uniform groups over 256 bins.  A band is zero, Huffman or raw;
    magnitudes are mostly small, with escapes up to 2**62, and some bands
    end in an escape.  Returns (coded, groups, raw widths or 0)."""
    groups = draw(st.sampled_from([FrequencyGroups.aac_48k_long(), FrequencyGroups.uniform(256)]))
    count = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nb, L = len(groups.edges), groups.num_bins
    kind = rng.choice(3, size=(nb, count), p=[0.25, 0.6, 0.15])  # zero, Huffman, raw
    mags = rng.integers(0, 4, size=(L, count))
    escape = rng.random((L, count)) < 0.03
    mags[escape] = rng.integers(ESCAPE_SYMBOL, 1 << 20, size=escape.sum())
    last = np.asarray(groups.offsets[1:]) - 1
    ends = rng.random((nb, count)) < 0.3
    for b, c in zip(*np.nonzero(ends)):
        mags[last[b], c] = rng.integers(ESCAPE_SYMBOL, 1 << 62)
    values = np.where(rng.random((L, count)) < 0.5, -mags, mags)
    coded = CodedChannel(kind == 0, rng.integers(SF_MIN, SF_MAX + 1, size=(nb, count)), values)
    peak = np.maximum.reduceat(mags, groups.offsets[:-1], axis=0)
    needed = np.array([[int(v).bit_length() for v in row] for row in peak])
    raw_width = np.where(kind == 2, np.minimum(needed + rng.integers(0, 3, size=needed.shape), 63), 0)
    return coded, groups, raw_width


@_PROPERTY
@given(wide_coded_channels(), st.integers(0, 15), st.integers(0, 20), st.randoms())
def test_channel_decoder_matches_reference_at_real_band_widths(channel, lead, trail, rnd):
    coded, groups, raw_width = channel
    _, costs = channel_cost(coded, groups)
    raw = raw_width > 0
    costs[:, raw] = np.stack([np.ones(raw.sum()), np.zeros(raw.sum()), raw_width[raw]])
    count = coded.zero_band.shape[1]
    w = BitWriter()
    w.write(rnd.getrandbits(lead), lead)
    entropy_encode_channel(coded, costs, groups, w)
    w.write(rnd.getrandbits(trail), trail)
    data = w.getvalue()

    got = _outcome(entropy_decode_channel, data, lead, groups, count)
    assert got == _outcome(_reference_decode, data, lead, groups, count)
    expected = np.where(np.repeat(coded.zero_band, groups.layout().widths, axis=0), 0, coded.quant_indices)
    assert got[3] == expected.tolist()
    _same_parse(data, lead, groups, count)
    # a spread of truncations: the reference's result or StreamError
    cuts = {*np.linspace(0, len(data) - 1, 6).astype(int).tolist(), *(rnd.randrange(len(data)) for _ in range(4))}
    for cut in sorted(cuts):
        truncated, start = data[:cut], min(lead, 8 * cut)
        assert _outcome(entropy_decode_channel, truncated, start, groups, count) == _outcome(
            _reference_decode, truncated, start, groups, count
        )
        _same_parse(truncated, start, groups, count)


def _widest_band_stream(bins):
    """A channel of the AAC table whose bands are all zero but the widest,
    the last, which is Huffman-coded with ``bins`` as its written fields."""
    groups = FrequencyGroups.aac_48k_long()
    w = BitWriter()
    w.write((1 << 48) - 1, 48)  # 48 zero bands
    w.write(0, 1)  # coded band
    w.write(-SF_MIN, 8)
    w.write(0, 1)  # Huffman mode
    for value, length in bins:
        w.write(value, length)
    return groups, w


def _escape_fields(magnitude, negative=False):
    """The fields of an escaped bin: code, ue() of the excess, sign."""
    v = magnitude - ESCAPE_SYMBOL + 1
    size = v.bit_length()
    escape = (CODES[ESCAPE_SYMBOL], LENGTHS[ESCAPE_SYMBOL])
    return [escape, (0, size - 1), (v, size), (int(negative), 1)]


def test_escape_beyond_int64_in_the_last_bin_of_the_widest_band():
    zeros = [(CODES[0], LENGTHS[0])] * 95
    groups, w = _widest_band_stream(zeros + _escape_fields(1 << 63))
    assert groups.layout().widths[-1] == 96
    with pytest.raises(StreamError, match="out of range"):
        entropy_decode_channel(BitReader(w.getvalue()), groups, 1)
    # the largest magnitude that fits
    groups, w = _widest_band_stream(zeros + _escape_fields((1 << 63) - 1, negative=True))
    got = entropy_decode_channel(BitReader(w.getvalue()), groups, 1)
    assert got.quant_indices[-1, 0] == 1 - (1 << 63) and not got.quant_indices[:-1].any()


def test_cut_inside_a_wide_huffman_band_is_exhausted():
    one = (CODES[1] << 1, LENGTHS[1] + 1)  # +1
    groups, w = _widest_band_stream([one] * 96)
    data = w.getvalue()
    assert entropy_decode_channel(BitReader(data), groups, 1).quant_indices[-96:, 0].tolist() == [1] * 96
    assert 8 * 8 > 48 + 10 and 8 * (len(data) - 1) > 48 + 10 + 95 * one[1]
    for cut in (8, len(data) // 2, len(data) - 1):  # in the first, a middle and the last bin
        with pytest.raises(StreamError, match="bitstream exhausted"):
            entropy_decode_channel(BitReader(data[:cut]), groups, 1)


def test_tables_stop_at_the_longest_block(monkeypatch):
    """Bits after the channels change nothing, and the jump tables never
    cover more than the longest block the bands allow: checked on 49
    one-bin bands that each hold the longest valid escape, and with the
    last one's excess at the longest length read (64 leading zeros, out
    of range)."""
    from hoacodec import core_codec

    groups, seen = FrequencyGroups.uniform(49), []
    bin_chain = core_codec._bin_chain

    def recorded(data, start):
        seen.append(8 * len(data) - start)
        return bin_chain(data, start)

    monkeypatch.setattr(core_codec, "_bin_chain", recorded)
    longest = 49 * (16 + 145)
    junk = np.random.default_rng(5).bytes(4096)
    header = [(0, 1), (-SF_MIN, 8), (0, 1)]
    for last, outcome in (((1 << 63) - 1, None), (ESCAPE_SYMBOL + (1 << 65) - 2, "out of range")):
        bins = [*_escape_fields((1 << 63) - 1)] * 48 + _escape_fields(last)
        w = BitWriter()
        for band in range(49):
            for value, length in header + bins[4 * band : 4 * band + 4]:
                w.write(value, length)
        data = w.getvalue()
        for tail in (b"", junk):
            if outcome:
                with pytest.raises(StreamError, match=outcome):
                    entropy_decode_channel(BitReader(data + tail), groups, 1)
                continue
            reader = BitReader(data + tail)
            got = entropy_decode_channel(reader, groups, 1)
            assert got.quant_indices[:, 0].tolist() == [(1 << 63) - 1] * 49
            assert reader.bit_position == 49 * (10 + 141)
    assert max(seen) < longest + 8


def _mixed_block(groups, count, seed):
    """``count`` channels over ``groups`` written one after another: a
    quarter of the bands zero, a sixth raw (one to three bits wider than
    needed, up to 63), the rest Huffman with mostly small magnitudes, a few
    escapes, and a third of the bands ending in an escape.  Returns (data,
    the values the decoder must read)."""
    rng = np.random.default_rng(seed)
    nb, L = len(groups.edges), groups.num_bins
    kind = rng.choice(3, size=(nb, count), p=[0.25, 0.58, 0.17])  # zero, Huffman, raw
    mags = rng.integers(0, 4, size=(L, count))
    escape = rng.random((L, count)) < 0.03
    mags[escape] = rng.integers(ESCAPE_SYMBOL, 1 << 40, size=escape.sum())
    last = np.asarray(groups.offsets[1:]) - 1
    for b, c in zip(*np.nonzero(rng.random((nb, count)) < 0.3)):
        mags[last[b], c] = rng.integers(ESCAPE_SYMBOL, 1 << 62)
    values = np.where(rng.random((L, count)) < 0.5, -mags, mags)
    coded = CodedChannel(kind == 0, rng.integers(SF_MIN, SF_MAX + 1, size=(nb, count)), values)
    _, costs = channel_cost(coded, groups)
    raw = kind == 2
    needed = costs[2][raw]
    width = np.minimum(needed + rng.integers(1, 4, needed.size), 63)
    costs[:, raw] = np.stack([np.ones(raw.sum()), np.zeros(raw.sum()), width])
    w = BitWriter()
    entropy_encode_channel(coded, costs, groups, w)
    return w.getvalue(), np.where(np.repeat(kind == 0, groups.layout().widths, axis=0), 0, values)


@pytest.mark.parametrize("num_bins", [2048, 4096])
@pytest.mark.parametrize("count", [1, 3])
def test_channel_decoder_matches_reference_at_long_uniform_bands(num_bins, count):
    """Bands of 41-42 and 83-84 bins: several top-level hops per band in the
    walk, and several 8-bin chunks placed per band in the value pass."""
    groups = FrequencyGroups.uniform(num_bins)
    assert 41 <= groups.layout().widths.min() and groups.layout().widths.max() <= 84
    data, values = _mixed_block(groups, count, seed=num_bins + count)
    got = _outcome(entropy_decode_channel, data, 0, groups, count)
    assert got == _outcome(_reference_decode, data, 0, groups, count)
    assert got[3] == values.tolist()
    _same_parse(data, 0, groups, count)


@pytest.mark.parametrize("values", [True, False])
def test_jump_tables_peak_under_22_bytes_per_payload_bit(values):
    """An 8-channel block over 49 uniform groups at L=4096, followed by
    512 KiB of zeros: the tables span nearly all of that payload, and one
    call's allocation peak stays under 22 bytes per payload bit (20.3 with
    the levels built in slices, 28.1 when each level's gather copied its
    whole int32 index to intp)."""
    groups = FrequencyGroups.uniform(4096)
    rng = np.random.default_rng(3)
    mags = rng.integers(0, 4, size=(4096, 8))
    q = np.where(rng.random(mags.shape) < 0.5, -mags, mags)
    coded = CodedChannel(np.zeros((49, 8), bool), np.zeros((49, 8), np.int64), q)
    _, costs = channel_cost(coded, groups)
    w = BitWriter()
    entropy_encode_channel(coded, costs, groups, w)
    data = w.getvalue() + bytes(512 * 1024)
    entropy_decode_channel(BitReader(data), groups, 8, values=values)  # the read plan, cached
    reader = BitReader(data)
    tracemalloc.start()
    try:
        entropy_decode_channel(reader, groups, 8, values=values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reader.bit_position == w.bit_length
    assert peak < 22 * 8 * len(data), peak / (8 * len(data))


def _reference_chain(data, start):
    """What ``_bin_chain(data, start)`` must give, built one bit at a time
    over the region's bits (zeros past the end): (window, nxt, escapes,
    {escape: value}, errors).  A bin's code is read bit by bit, and an
    escape's excess, sign and errors in the order of the bit-serial
    reference decoder."""
    bits = [b >> (7 - i) & 1 for b in data for i in range(8)]
    total, n = len(bits), len(bits) - start
    dead = n + 1

    def bit(q):  # the bit at absolute position q, zero past the end
        return bits[q] if q < total else 0

    window = [sum(bit(start + p + i) << (16 - i) for i in range(17)) for p in range(n + 8)]
    codes = {(LENGTHS[s], CODES[s]): s for s in range(ESCAPE_SYMBOL + 1)}
    nxt, escapes, values, errors = list(range(n + 2)), [], {}, {}
    for p in range(n):
        code, length = 0, 0
        while (length, code) not in codes:
            code, length = code << 1 | bit(start + p + length), length + 1
        sym = codes[(length, code)]
        if sym < ESCAPE_SYMBOL:
            end = p + length + (sym > 0)
            nxt[p] = end if end <= n else dead
            continue
        escapes.append(p)
        q, zeros, error = start + p + length, 0, None
        while True:  # ue(): zeros, a one, then as many bits
            if q >= total:
                error = "bitstream exhausted"
                break
            q += 1
            if bits[q - 1]:
                break
            zeros += 1
            if zeros > 64:
                error = "malformed Exp-Golomb code"
                break
        if error is None and q + zeros + 1 > total:  # the excess's bits and the sign
            error = "bitstream exhausted"
        if error is None:
            excess = 1 << zeros | sum(bits[q + i] << (zeros - 1 - i) for i in range(zeros))
            magnitude = ESCAPE_SYMBOL - 1 + excess
            q += zeros + 1
            if magnitude >= 1 << 63:
                error = "escape magnitude out of range"
            else:
                values[p] = -magnitude if bits[q - 1] else magnitude
        if error is None:
            nxt[p] = q - start
        else:
            nxt[p], errors[p] = dead, error
    nxt[n] = dead
    return window, nxt, escapes, values, errors


def _assert_chain_matches_reference(data, start):
    padded, window, nxt, escapes, values, errors = _bin_chain(data, start)
    ref_window, ref_nxt, ref_escapes, ref_values, ref_errors = _reference_chain(data, start)
    n = len(ref_nxt) - 2
    assert padded[: len(data)] == data
    assert window[: n + 8].tolist() == ref_window
    assert nxt.tolist() == ref_nxt
    assert escapes.tolist() == ref_escapes
    assert errors == ref_errors
    # a bad escape's value is never read
    assert {p: v for p, v in zip(escapes.tolist(), values.tolist()) if p not in errors} == ref_values


def _escape_bytes(rnd, lead_bits, zeros):
    """``lead_bits`` random bits, the escape code, ``zeros`` zeros, a one,
    ``zeros`` random bits and a sign, then random bits."""
    w = BitWriter()
    w.write(rnd.getrandbits(lead_bits), lead_bits)
    w.write(CODES[ESCAPE_SYMBOL], LENGTHS[ESCAPE_SYMBOL])
    w.write(0, zeros)
    w.write(1 << zeros | rnd.getrandbits(zeros), zeros + 1)
    w.write(rnd.getrandbits(9), 9)
    return w.getvalue()


def test_bin_chain_matches_bit_serial_construction():
    """The window, next-position table, escapes and error map of
    ``_bin_chain`` equal a bit-by-bit construction: at every start offset
    0-7, on regions of 0 to 9 bytes (around the 4-byte words the windows
    come from), a few hundred random regions biased towards runs of ones
    (escape codes) and zeros (long excesses), and escapes whose excess or
    sign runs past the end."""
    import random

    rnd = random.Random(17)
    cases = []
    for size in range(10):
        for offset in range(8):
            for first in range(2):
                if 8 * first + offset <= 8 * size:
                    cases.append((rnd.randbytes(size), 8 * first + offset))
                    cases.append((bytes([0xFF]) * size, 8 * first + offset))
    for _ in range(300):
        size = rnd.randrange(1, 40)
        data = bytes(rnd.choice((0x00, 0xFF, 0xFE, 0x7F, rnd.randrange(256))) for _ in range(size))
        cases.append((data, rnd.randrange(min(8 * size, 24) + 1)))
    for zeros in (0, 1, 16, 31, 32, 47, 62, 63, 64, 65):
        lead = rnd.randrange(12)
        full = _escape_bytes(rnd, lead, zeros)
        for cut in sorted({len(full), len(full) - 1, len(full) - 2, len(full) // 2, (lead + 15 + zeros) // 8 + 1}):
            cases.append((full[:cut], min(lead, 8 * cut)))
    for data, start in cases:
        _assert_chain_matches_reference(data, start)


# --- batched encoder against the per-band references it replaced ---

def _reference_quantize_mnmr(spectrum, mask, target, groups):
    """Per-band coarse-to-fine scan, 16 scalefactor rows at a time, of one
    channel: an (L, 1) spectrum and its (49, 1) mask."""
    x = np.asarray(spectrum, dtype=np.float64)[:, 0]
    power = mask[:, 0]
    nb = len(groups.edges)
    zero_band = np.zeros(nb, dtype=bool)
    scalefactors = np.zeros(nb, dtype=np.int64)
    qidx = np.zeros(x.shape[0], dtype=np.int64)
    nmr = np.zeros(nb)
    escalated = np.zeros(nb, dtype=bool)
    for b, (lo, hi) in enumerate(groups.edges):
        xs = x[lo:hi]
        budget = target * power[b]
        energy = float(np.sum(xs**2))
        if energy <= budget:
            zero_band[b] = True
            nmr[b] = energy / power[b]
            continue
        absx = np.abs(xs)
        absx34 = absx**0.75
        ratio = float(absx34.max()) / _SF_STEPS_34
        first = min(int(np.searchsorted(ratio, 1.0 - _QUANT_MAGIC, side="left")), _SF_COUNT - 1)
        pick, best = -1, (np.inf, -1)
        for chunk in range(first, _SF_COUNT, 16):
            rows = slice(chunk, min(chunk + 16, _SF_COUNT))
            q = np.floor(absx34[None, :] / _SF_STEPS_34[rows, None] + _QUANT_MAGIC)
            noise = np.sum((absx[None, :] - _pow43(q) * _SF_STEPS[rows, None]) ** 2, axis=1)
            ok = noise <= budget
            if ok.any():
                j = int(np.argmax(ok))
                pick, picked_q, picked_noise = chunk + j, q[j], float(noise[j])
                break
            j = int(np.argmin(noise))
            if noise[j] < best[0]:
                best = (float(noise[j]), chunk + j)
        if pick < 0:
            escalated[b] = True
            pick = best[1] if best[1] >= 0 else _SF_COUNT - 1
            picked_q = np.floor(absx34 / _SF_STEPS_34[pick] + _QUANT_MAGIC)
            picked_noise = float(np.sum((absx - _pow43(picked_q) * _SF_STEPS[pick]) ** 2))
        scalefactors[b] = SF_MAX - pick
        qidx[lo:hi] = np.sign(xs) * picked_q.astype(np.int64)
        nmr[b] = picked_noise / power[b]
    return CodedChannel(*(a[:, None] for a in (zero_band, scalefactors, qidx, nmr, escalated)))


def _reference_band_costs(values):
    mags = np.abs(values)
    width = max(1, int(np.max(mags, initial=0)).bit_length())
    huff = int(_LENGTHS[np.minimum(mags, ESCAPE_SYMBOL)].sum()) + int(np.count_nonzero(mags))
    esc = mags[mags >= ESCAPE_SYMBOL]
    if esc.size:
        huff += int(np.sum(2 * (np.floor(np.log2(esc - ESCAPE_SYMBOL + 1)).astype(np.int64) + 1) - 1))
    return huff, 6 + values.size * (width + 1), width


def _reference_channel_cost(coded, groups):
    """The bit count of a one-channel ``coded``, band by band."""
    total = 0
    for b, (lo, hi) in enumerate(groups.edges):
        total += 1
        if not coded.zero_band[b, 0]:
            huff, raw, _ = _reference_band_costs(coded.quant_indices[lo:hi, 0])
            total += 9 + min(huff, raw)
    return total


def _reference_encode(coded, costs, groups, writer):
    """One BitWriter.write per header field and per value of a one-channel
    ``coded``; the band modes from the band costs ``costs``, or from the
    band's own costs when ``costs`` is None."""
    start = writer.bit_length
    for b, (lo, hi) in enumerate(groups.edges):
        write_flag(writer, coded.zero_band[b, 0])
        if coded.zero_band[b, 0]:
            continue
        writer.write(int(coded.scalefactors[b, 0]) - SF_MIN, 8)
        values = coded.quant_indices[lo:hi, 0]
        if costs is None:
            huff, raw, width = _reference_band_costs(values)
        else:
            huff, raw, width = costs[:, b, 0].tolist()
        write_flag(writer, huff > raw)
        if huff > raw:
            writer.write(width, 6)
            for v in values.tolist():
                writer.write((v < 0) << width | abs(v), width + 1)
            continue
        for v in values.tolist():
            m = abs(v)
            s = min(m, ESCAPE_SYMBOL)
            writer.write(CODES[s], LENGTHS[s])
            if m >= ESCAPE_SYMBOL:
                write_ue(writer, m - ESCAPE_SYMBOL)
            if m:
                write_flag(writer, v < 0)
    return writer.bit_length - start


def _same_coding(got, ref):
    assert np.array_equal(got.zero_band, ref.zero_band)
    assert np.array_equal(got.scalefactors, ref.scalefactors)
    assert np.array_equal(got.quant_indices, ref.quant_indices)
    assert np.array_equal(got.escalated, ref.escalated)
    assert got.nmr.tobytes() == ref.nmr.tobytes()


_GROUP_TABLES = [FrequencyGroups.aac_48k_long(), FrequencyGroups.uniform(256)]
_BAND_KINDS = ("zero", "normal", "normal", "spike", "spike_on_floor", "tiny")


@st.composite
def mnmr_stacks(draw):
    """(spectra, masks, target, groups): 1-16 channels as the columns of an
    (L, C) matrix and its (49, C) mask.  Per band silence, Gaussian bins, a
    lone spike, a spike over a floor 60-120 dB down (first nonzero step set
    by the spike, the pick by the floor: past the window), or values near
    the finest step; per channel a realistic mask or one log-uniform per
    band over 36 decades (escalated bands where the finest step misses)."""
    groups = draw(st.sampled_from(_GROUP_TABLES))
    count = draw(st.integers(1, 16))
    x = np.zeros((groups.num_bins, count))
    power = np.zeros((len(groups.edges), count))
    for c in range(count):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scale = 10.0 ** draw(st.floats(-6, 6))
        for lo, hi in groups.edges:
            kind = draw(st.sampled_from(_BAND_KINDS))
            if kind == "normal":
                x[lo:hi, c] = rng.standard_normal(hi - lo) * scale
            elif kind == "spike":
                x[lo + draw(st.integers(0, hi - lo - 1)), c] = scale * (1 if draw(st.booleans()) else -1)
            elif kind == "spike_on_floor":
                x[lo:hi, c] = rng.standard_normal(hi - lo) * scale * 10.0 ** -draw(st.floats(3, 6))
                x[lo, c] = scale
            elif kind == "tiny":
                x[lo:hi, c] = rng.uniform(-1, 1, hi - lo) * 10.0 ** draw(st.floats(-6.5, -4))
        if draw(st.booleans()):
            power[:, c] = masking_threshold(x[:, [c]], groups)[:, 0]
        else:
            power[:, c] = scale**2 * 10.0 ** rng.uniform(-30, 6, len(groups.edges))
    target = 10.0 ** draw(st.floats(np.log10(0.05), 3))
    return x, power, target, groups


# no shrink phase: a failing case reports as found, in seconds, where
# shrinking one took minutes
_EQUIVALENCE = settings(max_examples=80, deadline=None, derandomize=True,
                        phases=(Phase.explicit, Phase.reuse, Phase.generate),
                        suppress_health_check=[HealthCheck.too_slow])


@_EQUIVALENCE
@given(mnmr_stacks())
def test_batched_search_matches_per_band_scan(case):
    """One call codes the whole matrix; every column equals the per-band
    references applied to that column alone, and so do the matrix forms of
    masking, dequantization and measured NMR."""
    x, mask, target, groups = case
    got = quantize_mnmr(x, mask, target, groups)
    bits, costs = channel_cost(got, groups)
    w, ref = BitWriter(), BitWriter()
    written = entropy_encode_channel(got, costs, groups, w)
    masks = masking_threshold(x, groups)
    decoded = dequantize_channel(got, groups)
    nmr = measure_nmr(x, decoded, mask, groups)
    for c in range(x.shape[1]):
        column = mask[:, [c]]
        one = got.columns([c])
        _same_coding(one, _reference_quantize_mnmr(x[:, [c]], column, target, groups))
        assert bits[c] == _reference_channel_cost(one, groups)
        _reference_encode(one, None, groups, ref)
        assert masks[:, c].tobytes() == masking_threshold(x[:, [c]], groups).tobytes()
        assert decoded[:, c].tobytes() == dequantize_channel(one, groups).tobytes()
        assert nmr[:, c].tobytes() == measure_nmr(x[:, [c]], decoded[:, [c]], column, groups).tobytes()
    assert written == ref.bit_length == bits.sum()
    assert w.getvalue() == ref.getvalue()


def _bound_start(xs, budget):
    """One band's first nonzero step, and the row its search starts at: the
    first nonzero step moved past the rows whose zeroed energy exceeds the
    budget, clipped at the finest step."""
    absx34 = np.abs(xs) ** 0.75
    first = _first_nonzero_row(absx34.max(keepdims=True))
    zeroed = _zeroed_energy(xs * xs, absx34, np.array([xs.size]), first)
    skipped = np.count_nonzero(zeroed > budget * (1 + 1e-9))
    return int(first[0]), min(int(first[0]) + skipped, _SF_COUNT - 1)


@_EQUIVALENCE
@given(mnmr_stacks())
def test_zeroed_energy_bounds_the_noise_of_every_skipped_row(case):
    """At each of the ``_BOUND_ROWS`` rows from a coded band's first nonzero
    step, its zeroed energy is at most the row's noise as the search
    computes it (to the relative 1e-9 the search allows), and every row it
    rules out lies before the first row it allows and is over budget."""
    x, mask, target, groups = case
    got = quantize_mnmr(x, mask, target, groups)
    flat = x.ravel(order="F")
    layout = groups.layout(x.shape[1])
    zero_band = got.zero_band.ravel(order="F")
    coded = np.flatnonzero(~zero_band)
    coded_bins = np.repeat(~zero_band, layout.widths)
    absx = np.abs(flat)
    absx34 = absx**0.75
    first = _first_nonzero_row(np.maximum.reduceat(absx34, layout.offsets[:-1])[coded])
    zeroed = _zeroed_energy((flat * flat)[coded_bins], absx34[coded_bins], layout.widths[coded], first)
    noise = _rows_noise(absx, absx34, layout, coded, first, _BOUND_ROWS)
    budget = target * mask.ravel(order="F")[coded, None]
    assert np.all(zeroed <= noise * (1 + 1e-9))
    ruled_out = zeroed > budget * (1 + 1e-9)
    assert np.all(noise[ruled_out] > np.broadcast_to(budget, noise.shape)[ruled_out])
    assert np.all(np.diff(ruled_out.astype(np.int8), axis=1) <= 0)  # a run from the first row
    pick = SF_MAX - got.scalefactors.ravel(order="F")[coded]
    settled = ~got.escalated.ravel(order="F")[coded]
    assert np.all(pick[settled] >= (first + ruled_out.sum(axis=1))[settled])


def test_first_nonzero_row_matches_the_division_test():
    """The table search with its one division test at the boundary row
    gives the row count of the division test at every row, for peaks at
    and a few ulps around every row's boundary, 0 and extreme magnitudes."""
    edges = _SF_STEPS_34 * (1.0 - _QUANT_MAGIC)
    near, below, above = [edges], edges, edges
    for _ in range(3):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        near += [below, above]
    logs = np.random.default_rng(5).uniform(-240, 240, 20000)
    tiny, huge = np.finfo(float).smallest_subnormal, np.finfo(float).max
    peaks = np.concatenate(near + [10.0**logs, [0.0, tiny, 1e-300, 1e300, huge]])
    with np.errstate(over="ignore"):  # the largest peaks over the finest steps
        division = np.count_nonzero(peaks[:, None] / _SF_STEPS_34 < 1.0 - _QUANT_MAGIC, axis=1)
    assert np.array_equal(_first_nonzero_row(peaks), np.minimum(division, _SF_COUNT - 1))


def test_zero_below_rank_matches_searchsorted():
    """The log10 estimate with its two corrections ranks like a binary
    search: on every table entry and its 1-ulp neighbours, on 0, subnormal
    and extreme values, and on random values across and beyond the table."""
    table = _ZERO_BELOW_34
    logs = np.random.default_rng(11).uniform(np.log10(table[0]) - 2, np.log10(table[-1]) + 2, 50000)
    tiny, huge = np.finfo(float).smallest_subnormal, np.finfo(float).max
    values = np.concatenate([
        table, np.nextafter(table, 0.0), np.nextafter(table, np.inf),
        10.0**logs, [0.0, tiny, np.finfo(float).tiny, 1e-300, 1e300, huge],
    ])
    assert np.array_equal(_zero_below_rank(values), np.searchsorted(table, values, side="right"))


def test_picks_with_noise_or_zeroed_energy_at_the_budget_match_per_band_scan():
    """A pick whose noise equals target x mask exactly, and a pick whose
    zeroed coefficients alone make up the whole budget (so the bound sits
    exactly at it and must not skip the row), agree with the per-band scan."""
    groups = FrequencyGroups.uniform(256)
    target = 2.0
    x = np.zeros((256, 1))
    power = np.ones((len(groups.edges), 1))
    picks = {}
    rng = np.random.default_rng(3)
    for b in range(0, 12, 2):  # noise at the pick == target * mask
        lo, hi = groups.edges[b]
        xs = rng.standard_normal(hi - lo) * 10.0 ** (b - 4)
        x[lo:hi, 0] = xs
        absx = np.abs(xs)
        first, _ = _bound_start(xs, 0.0)
        rows = np.arange(first, _SF_COUNT)
        q = np.floor(absx**0.75 / _SF_STEPS_34[rows, None] + _QUANT_MAGIC)
        noise = np.sum((absx - _pow43(q) * _SF_STEPS[rows, None]) ** 2, axis=1)
        record = np.flatnonzero(noise < np.minimum.accumulate(np.r_[np.inf, noise[:-1]]))
        k = record[np.argmax(noise[record] < 1e-3 * noise[0])]  # a new lowest noise
        power[b, 0] = noise[k] / target
        picks[b] = first + k
    for b in range(1, 12, 2):  # zeroed energy at the pick == target * mask
        lo, hi = groups.edges[b]
        k = 40 + 9 * b
        step = _SF_STEPS[k]
        on_grid = _pow43(np.array([2, 1, 2, 1])) * step * np.array([1, -1, 1, -1])
        small = 2.0 ** np.floor(np.log2(0.25 * step))
        x[lo:hi, 0] = np.r_[on_grid[: hi - lo - 2], small, -small / 2]
        power[b, 0] = 1.25 * small**2 / target
        first, begin = _bound_start(x[lo:hi, 0], 1.25 * small**2)
        assert first < k < first + _BOUND_ROWS and begin <= k  # the bound reaches the pick
        picks[b] = k
    got = quantize_mnmr(x, power, target, groups)
    _same_coding(got.columns([0]), _reference_quantize_mnmr(x, power, target, groups))
    for b, k in picks.items():
        assert SF_MAX - got.scalefactors[b, 0] == k and got.nmr[b, 0] == target


def test_search_edges_no_coded_band_and_bound_start_at_the_finest_step():
    """A frame with no coded band, and a band whose zeroed coefficients
    exceed the budget at every row, so its bound start clips at the finest
    step and it escalates from its first nonzero step."""
    groups = FrequencyGroups.uniform(256)
    x = np.zeros((256, 2))
    x[0:5, 1] = [1.0, 0.3, -0.7, 0.2, 0.9]
    silent = quantize_mnmr(x, np.full((len(groups.edges), 2), 10.0), 1.0, groups)
    assert silent.zero_band.all() and not silent.escalated.any()
    assert not silent.quant_indices.any()
    x[0:5, 0] = [5e-6, 3e-7, -3e-7, 3e-7, -3e-7]  # a floor zero at every step
    power = np.ones((len(groups.edges), 2))
    power[0] = 1e-13, 1e-2
    first, begin = _bound_start(x[0:5, 0], 1e-13)
    assert first + _BOUND_ROWS >= _SF_COUNT and begin == _SF_COUNT - 1
    got = quantize_mnmr(x, power, 1.0, groups)
    for c in range(2):
        _same_coding(got.columns([c]), _reference_quantize_mnmr(x[:, [c]], power[:, [c]], 1.0, groups))
    assert got.escalated[0, 0] and not got.escalated[1:].any() and not got.escalated[:, 1].any()


def test_quantized_values_at_the_pow43_table_edge_match_per_band_scan():
    """Two escalated bands of different widths, searched in the same passes
    down to the finest step, where one band's largest quantized value is
    4095, the last the q^(4/3) table holds, and the other's is 4096, one
    past it: one width class is looked up by truncation, the other takes
    the floor and pow fallback, in the same pass."""
    groups = FrequencyGroups.uniform(256)
    x = np.zeros((256, 1))
    (lo_a, hi_a), (lo_b, hi_b) = groups.edges[0], groups.edges[2]
    assert hi_a - lo_a != hi_b - lo_b
    rng = np.random.default_rng(7)
    for (lo, hi), q in (((lo_a, hi_a), 4095), ((lo_b, hi_b), 4096)):
        x[lo:hi, 0] = rng.uniform(-0.02, 0.02, hi - lo)
        x[lo, 0] = ((q + 0.5 - _QUANT_MAGIC) * _SF_STEPS_34[-1]) ** (4.0 / 3.0)
    power = np.ones((len(groups.edges), 1))
    power[[0, 2]] = 1e-40  # below every row's noise: both bands escalate
    finest = np.floor(np.abs(x) ** 0.75 / _SF_STEPS_34[-1] + _QUANT_MAGIC)
    assert finest[lo_a:hi_a].max() == 4095 and finest[lo_b:hi_b].max() == 4096
    got = quantize_mnmr(x, power, 1.0, groups)
    assert got.escalated[[0, 2], 0].all()
    _same_coding(got, _reference_quantize_mnmr(x, power, 1.0, groups))


def test_search_window_edges_match_per_band_scan():
    """Picks in each chunk, a pick past the last of ``_CHUNKS``, a search
    clipped at the finest step and an escalated band, coded in one matrix
    call, all agree with the per-band scan; the chunks count from each
    band's bound start."""
    groups = FrequencyGroups.uniform(256)
    x = np.zeros((256, 2))
    x[0:5, 0] = [1e3, 1e-3, -2e-3, 3e-3, 1e-3]  # spike over a floor 120 dB down
    x[5:10, 0] = 3e-6  # first nonzero step a few rows from the finest
    x[10:15, 0] = [1.0, 0.3, -0.7, 0.2, 0.9]  # budget below the finest step's noise
    x[0:5, 1] = x[10:15, 1] = [1.0, 0.3, -0.7, 0.2, 0.9]
    x[5:10, 1] = [1.0, 3e-2, -2e-2, 4e-2, 1e-2]  # spike over a floor 30 dB down
    power = np.ones((len(groups.edges), 2))
    power[0:3, 0] = 1e-6, 1e-11, 1e-20
    power[0:3, 1] = 1e-1, 1e-5, 1e-2
    got = quantize_mnmr(x, power, 1.0, groups)
    for c in range(2):
        _same_coding(got.columns([c]), _reference_quantize_mnmr(x[:, [c]], power[:, [c]], 1.0, groups))
    # scalefactor rows of the first three bands, from the bound start
    begin = np.array([[_bound_start(x[lo:hi, c], power[b, c])[1] for c in range(2)]
                      for b, (lo, hi) in enumerate(groups.edges[:3])])
    after = SF_MAX - got.scalefactors[:3] - begin
    window = sum(_CHUNKS)
    assert after[0, 0] >= window  # found by a 16-row pass after the chunks
    assert begin[1, 0] + window > _SF_COUNT  # search clipped at the finest step
    assert got.escalated[2, 0] and not got.escalated[:2, 0].any() and not got.escalated[:, 1].any()
    # channel 1 picks in the first, second and third chunk, two of them
    # after rows the bound skipped
    assert after[0, 1] < _CHUNKS[0] <= after[2, 1] < _CHUNKS[0] + _CHUNKS[1] <= after[1, 1] < window
    firsts = [_bound_start(x[lo:hi, 1], power[b, 1])[0] for b, (lo, hi) in enumerate(groups.edges[:3])]
    assert begin[1, 1] > firsts[1] and begin[2, 1] > firsts[2]


@_PROPERTY
@given(coded_channels(), st.integers(0, 7), st.randoms())
def test_channel_writer_matches_per_value_writes(channel, lead, rnd):
    coded, groups, forced = channel
    assert channel_cost(coded, groups)[0].tolist() == [_reference_channel_cost(coded, groups)]
    costs = _force_raw(coded, groups, forced)  # raw-forced bands stay raw
    prefix = rnd.getrandbits(lead)
    w, ref = BitWriter(), BitWriter()
    w.write(prefix, lead)
    ref.write(prefix, lead)
    assert entropy_encode_channel(coded, costs, groups, w) == _reference_encode(coded, costs, groups, ref)
    assert w.getvalue() == ref.getvalue()


@st.composite
def frame_stacks(draw):
    """(frames, target, groups): 1-20 frames' (L, C_k) spectra at L=256 or
    1024, 1-4 channels each, built band by band from a seeded generator as
    silence, Gaussian bins, or a peak over a floor 3-6 decades down.  Small
    targets quantize such peaks past the 4096 entries of ``_POW43_LUT`` (its
    pow branch), and the smallest ones escalate bands."""
    L = draw(st.sampled_from((256, 1024)))
    groups = groups_for(L)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = []
    for _ in range(draw(st.integers(1, 20))):
        count = int(rng.integers(1, 5))
        x = rng.standard_normal((L, count)) * 10.0 ** rng.uniform(-6, 6, count)
        for c in range(count):
            for (lo, hi), kind in zip(groups.edges, rng.integers(0, 3, len(groups.edges))):
                if kind == 0:
                    x[lo:hi, c] = 0.0
                elif kind == 1:
                    peak = x[lo:hi, c].std() + 1e-300
                    x[lo:hi, c] *= 10.0 ** -rng.uniform(3, 6)
                    x[lo + rng.integers(0, hi - lo), c] = peak
        frames.append(x)
    return frames, 10.0 ** draw(st.floats(-12, 1)), groups


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@_EQUIVALENCE
@given(frame_stacks())
def test_stacked_frames_code_as_each_frame_alone(case):
    """Masking, the MNMR search and the cost of the frames' channels side by
    side equal, column for column and bit for bit, those of each frame's own
    call: the property that lets one call code a segment of frames."""
    frames, target, groups = case
    stacked = np.hstack(frames)
    mask = masking_threshold(stacked, groups)
    coded = quantize_mnmr(stacked, mask, target, groups)
    bits, costs = channel_cost(coded, groups)
    at = 0
    for x in frames:
        cols = slice(at, at + x.shape[1])
        at = cols.stop
        own_mask = masking_threshold(x, groups)
        _same_bits(mask[:, cols], own_mask)
        own = quantize_mnmr(x, own_mask, target, groups)
        for name, value in vars(own).items():
            _same_bits(getattr(coded, name)[:, cols], value)
        own_bits, own_costs = channel_cost(own, groups)
        _same_bits(bits[cols], own_bits)
        _same_bits(costs[..., cols], own_costs)
