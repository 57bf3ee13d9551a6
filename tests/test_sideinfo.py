import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import pinned_kernel_note
from hoacodec import scenes, sideinfo
from hoacodec.baseline_td import TruncatedBasis, match_bases
from hoacodec.bitio import BitReader, BitWriter
from hoacodec.errors import ConfigurationError, HoaCodecError, StreamError, TrainingError
from hoacodec.numlin import Codebook, svd
from hoacodec.sideinfo import (
    QuantizerSet,
    SideInfoState,
    TrainingConfig,
    decode_sideinfo,
    encode_sideinfo,
    encode_sideinfo_trials,
    harvest_training_pairs,
    predict_basis,
    train_quantizers,
)


def _random_basis(rng, m=16, r=4):
    return svd(rng.standard_normal((64, m))).right[:, :r]


def _cb(limit):
    """Width of a field holding a value below ``limit``: cb(limit), at least 1."""
    return max(1, (limit - 1).bit_length())


def _index_bits(codebook):
    """Width of an index field into ``codebook``."""
    return _cb(codebook.size)


# --- prediction ---

def test_identical_bases_predict_perfectly(rng):
    V = _random_basis(rng)
    rho, residual = predict_basis(TruncatedBasis(vectors=V), TruncatedBasis(vectors=V.copy()))
    assert np.allclose(rho, 1.0, atol=1e-12)
    assert np.max(np.abs(residual)) < 1e-12


def test_orthogonal_bases_predict_nothing(rng):
    q = np.linalg.qr(rng.standard_normal((16, 8)))[0]
    prev, cur = q[:, :4], q[:, 4:]
    rho, residual = predict_basis(TruncatedBasis(vectors=prev), TruncatedBasis(vectors=cur))
    assert np.max(np.abs(rho)) < 1e-12
    assert np.allclose(residual, cur, atol=1e-12)


def test_prediction_identity_reconstruction(rng):
    prev = _random_basis(rng)
    cur = _random_basis(rng)
    rho, residual = predict_basis(TruncatedBasis(vectors=prev), TruncatedBasis(vectors=cur))
    assert np.max(np.abs(rho[None] * prev + residual - cur)) < 1e-12


def test_zero_norm_column_gets_zero_coefficient(rng):
    prev = _random_basis(rng)
    prev[:, 2] = 0.0
    cur = _random_basis(rng)
    rho, residual = predict_basis(TruncatedBasis(vectors=prev), TruncatedBasis(vectors=cur))
    assert rho[2] == 0.0
    assert np.allclose(residual[:, 2], cur[:, 2])


# --- coding roundtrips ---

def _roundtrip_frames(rng, q, modes, rank=4, m=16):
    enc_state, dec_state = SideInfoState(), SideInfoState()
    ranks = {0: [rank], 1: [rank] * 4}
    enc_frames = []
    for mode in modes:
        nb = 1 if mode == 0 else 4
        raw = [_random_basis(rng, m, rank) for _ in range(nb)]
        w = BitWriter()
        frame, recon = encode_sideinfo(raw, mode, q, enc_state, w)
        enc_frames.append((w.getvalue(), frame, recon))
    for data, frame, recon in enc_frames:
        r = BitReader(data)
        dframe, drecon = decode_sideinfo(r, q, dec_state, ranks)
        assert dframe.mode == frame.mode
        assert dframe.bit_count == frame.bit_count
        for a, b in zip(recon, drecon):
            assert np.array_equal(a, b)
        yield dframe, drecon


def test_encoder_decoder_stay_in_sync(rng, small_quantizers):
    modes = [0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 0]
    list(_roundtrip_frames(rng, small_quantizers, modes))


def test_first_frame_is_intra(rng, small_quantizers):
    q = small_quantizers
    (first, _), (second, _) = _roundtrip_frames(rng, q, [0, 0])
    # mode, intra_band flag, then one bare intra index per column
    assert (first.intra_columns, first.predicted_columns, first.switched_columns) == (4, 0, 0)
    assert first.bit_count == 1 + 1 + 4 * _index_bits(q.intra)
    # a predicted band: a column_intra flag per column, then its indices
    assert not second.switched and second.switched_columns == 0
    assert second.intra_columns + second.predicted_columns == 4
    assert second.bit_count == 1 + 1 + 4 + (
        second.intra_columns * _index_bits(q.intra)
        + second.predicted_columns * (_index_bits(q.coeff) + _index_bits(q.residual))
    )


def test_reconstructed_columns_unit_norm(rng, small_quantizers):
    for _, drecon in _roundtrip_frames(rng, small_quantizers, [0, 1, 0, 1]):
        for basis in drecon:
            norms = np.linalg.norm(basis, axis=0)
            assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_mode_switch_uses_reference_indices(rng, small_quantizers):
    q = small_quantizers
    _, (switch_frame, _) = _roundtrip_frames(rng, q, [1, 0])
    assert switch_frame.switched
    assert switch_frame.predicted_columns == 0
    assert switch_frame.intra_columns + switch_frame.switched_columns == 4
    assert switch_frame.switched_columns > 0
    # each predicted column names one of the 16 columns the 4 bands left in
    # the pool (4 bits)
    assert switch_frame.bit_count == 1 + 1 + 4 + (
        switch_frame.intra_columns * _index_bits(q.intra)
        + switch_frame.switched_columns * (4 + _index_bits(q.coeff) + _index_bits(q.residual))
    )


def test_static_scene_side_info_near_floor(rng, small_quantizers):
    V = _random_basis(rng)
    enc_state = SideInfoState()
    bits = []
    for f in range(12):
        w = BitWriter()
        frame, _ = encode_sideinfo([V.copy()], 0, small_quantizers, enc_state, w)
        bits.append(frame.bit_count)
    r = 4
    # static content after the intra frame: per-column flag/indices; the
    # coefficient stays pinned at the top codebook entry
    floor = 1 + 1 + r * (
        1 + _index_bits(small_quantizers.coeff) + _index_bits(small_quantizers.residual)
    )
    assert all(b <= floor for b in bits[1:])


def test_truncated_stream_raises(rng, small_quantizers):
    enc_state = SideInfoState()
    w = BitWriter()
    encode_sideinfo([_random_basis(rng)], 0, small_quantizers, enc_state, w)
    data = w.getvalue()[:2]
    with pytest.raises(StreamError):
        decode_sideinfo(BitReader(data), small_quantizers, SideInfoState(), {0: [4], 1: [4] * 4})


@pytest.mark.parametrize("quantized", [True, False])
def test_mode_missing_from_ranks_raises(rng, small_quantizers, quantized):
    """A mode the codec does not have is refused before any band is read,
    and the state is left as it was."""
    q = small_quantizers if quantized else None
    w = BitWriter()
    encode_sideinfo([_random_basis(rng)], 1, q, SideInfoState(), w)
    state = SideInfoState()
    with pytest.raises(StreamError, match="^mode 1 is not a mode of this codec$"):
        decode_sideinfo(BitReader(w.getvalue()), q, state, {0: [4]}, 16)
    assert state.prev_mode is None


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    modes=st.lists(st.integers(0, 1), min_size=1, max_size=6),
    rank=st.integers(1, 5),
    bypass=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_grammar_roundtrip_and_prefixes(small_quantizers, modes, rank, bypass, seed):
    """Decoded bases are bit-identical to the encoder's, ``bit_count`` is the
    bits read, and every strict byte prefix of a frame raises StreamError.
    Quantized, every frame after the first has exactly the bits its column
    counts call for: mode, intra_band per band, column_intra per column,
    then each column's indices."""
    rng = np.random.default_rng(seed)
    q = None if bypass else small_quantizers
    ranks = {0: [rank], 1: [rank] * 4}
    enc_state, dec_state = SideInfoState(), SideInfoState()
    for f, mode in enumerate(modes):
        prev_mode = enc_state.prev_mode
        raw = [_random_basis(rng, 16, rank) for _ in ranks[mode]]
        w = BitWriter()
        frame, recon = encode_sideinfo(raw, mode, q, enc_state, w)
        data = w.getvalue()
        for cut in range(len(data)):
            with pytest.raises(StreamError):
                decode_sideinfo(BitReader(data[:cut]), q, dec_state.copy(), ranks, 16)
        reader = BitReader(data)
        dframe, drecon = decode_sideinfo(reader, q, dec_state, ranks, 16)
        assert dframe.bit_count == frame.bit_count == reader.bit_position
        assert (dframe.mode, dframe.switched) == (frame.mode, frame.switched)
        assert (dframe.intra_columns, dframe.predicted_columns, dframe.switched_columns) == (
            frame.intra_columns, frame.predicted_columns, frame.switched_columns)
        for a, b in zip(recon, drecon):
            assert a.tobytes() == b.tobytes()
        if q is not None and f > 0:
            pool = sum(ranks[prev_mode])
            assert frame.bit_count == 1 + len(ranks[mode]) + sum(ranks[mode]) + (
                frame.intra_columns * _index_bits(q.intra)
                + frame.predicted_columns * (_index_bits(q.coeff) + _index_bits(q.residual))
                + frame.switched_columns * (_cb(pool) + _index_bits(q.coeff) + _index_bits(q.residual))
            )


# out-of-range values in each index field of each branch; r=3 columns, one
# previous mode-0 band (a 3-column pool), codebooks of 12/40/40 entries.
# Fields after the mode bit, as (value, bits).
_PREDICTED_BAND = [(0, 1)]  # intra_band 0
_BAD_FIELDS = {
    "intra band, intra index": (0, [(1, 1), (63, 6)], "intra codebook index"),
    "predicted, intra index": (0, _PREDICTED_BAND + [(1, 1), (40, 6)], "intra codebook index"),
    "predicted, coeff index": (0, _PREDICTED_BAND + [(0, 1), (12, 4)], "coefficient codebook index"),
    "predicted, residual index": (0, _PREDICTED_BAND + [(0, 1), (0, 4), (63, 6)], "residual codebook index"),
    "switched, intra index": (1, _PREDICTED_BAND + [(1, 1), (63, 6)], "intra codebook index"),
    "switched, reference": (1, _PREDICTED_BAND + [(0, 1), (3, 2)], "prediction reference"),
    "switched, coeff index": (1, _PREDICTED_BAND + [(0, 1), (2, 2), (15, 4)], "coefficient codebook index"),
    "switched, residual index": (1, _PREDICTED_BAND + [(0, 1), (0, 2), (0, 4), (40, 6)], "residual codebook index"),
}


@pytest.mark.parametrize("case", sorted(_BAD_FIELDS))
def test_out_of_range_field_raises_stream_error(rng, case):
    mode, fields, match = _BAD_FIELDS[case]
    q = QuantizerSet(
        coeff=Codebook(centroids=np.linspace(-1, 1, 12)[:, None]),
        residual=Codebook(centroids=rng.standard_normal((40, 16))),
        intra=Codebook(centroids=rng.standard_normal((40, 16))),
    )
    state = SideInfoState()
    if case != "intra band, intra index":
        state.prev_bases, state.prev_mode, state.prev_columns = [_random_basis(rng, 16, 3)], 0, 3
    w = BitWriter()
    w.write(mode, 1)
    for value, bits in fields:
        w.write(value, bits)
    with pytest.raises(StreamError, match=match):
        decode_sideinfo(BitReader(w.getvalue() + bytes(8)), q, state, {0: [3], 1: [3, 3]})


# --- the grammar read and written field by field ---

# codebook sizes that are not powers of two, so a field can hold a value at
# or above its limit: coefficient 10 (4 bits), residual 100 (7), intra 200 (8)
_ODD_QUANTIZERS = QuantizerSet(
    coeff=Codebook(centroids=np.linspace(-1, 1, 10)[:, None]),
    residual=Codebook(centroids=np.random.default_rng(1).standard_normal((100, 4))),
    intra=Codebook(centroids=np.random.default_rng(2).standard_normal((200, 4))),
)


def _reference_side_info(reader, q, prev_mode, prev_columns, ranks):
    """The side-info syntax read one field at a time: (mode, per column
    (intra, intra index, reference, coefficient, residual)), or the first
    StreamError."""
    def uint(name, limit):
        value = reader.read(_cb(limit))
        if value >= limit:
            raise StreamError(f"{name} {value} out of range (limit {limit})")
        return value

    def intra():
        return True, uint("intra codebook index", q.intra.size), 0, 0, 0

    mode = uint("mode", 2)
    if mode not in ranks:
        raise StreamError(f"mode {mode} is not a mode of this codec")
    switched = prev_mode is not None and prev_mode != mode
    columns = []
    for r in ranks[mode]:
        if uint("flag", 2):
            columns += [intra() for _ in range(r)]
            continue
        if prev_mode is None:
            raise StreamError("predicted band before any intra frame")
        for _ in range(r):
            if uint("flag", 2):
                columns.append(intra())
                continue
            ref = uint("prediction reference", prev_columns) if switched else 0
            coeff = uint("coefficient codebook index", q.coeff.size)
            columns.append((False, 0, ref, coeff, uint("residual codebook index", q.residual.size)))
    return mode, columns


def _state(prev_mode, prev_columns):
    state = SideInfoState()
    state.prev_mode, state.prev_columns = prev_mode, prev_columns
    return state


def _columns(c):
    return [tuple(x) for x in zip(c.intra.tolist(), c.intra_index.tolist(), c.ref_index.tolist(),
                                 c.coeff_index.tolist(), c.residual_index.tolist())]


def _parsed(parse, data, *args):
    """(mode, columns, end position) of one parse, or its StreamError text."""
    reader = BitReader(data)
    try:
        mode, columns = parse(reader, *args)
    except StreamError as exc:
        return str(exc)
    return mode, columns, reader.bit_position


def _walked(reader, q, prev_mode, prev_columns, ranks):
    """The decoder's walk, parse only, with the fields it reads kept."""
    mode = reader.data[0] >> 7 if reader.data else 0
    c = sideinfo._Code(ranks.get(mode, []))
    info, _ = sideinfo._side_info(sideinfo._Fields(reader), q, _state(prev_mode, prev_columns), ranks,
                                  coded=c, rebuild=False)
    assert info.bit_count == reader.bit_position
    return info.mode, _columns(c)


_RANKS = st.one_of(
    st.builds(lambda r, s: {0: [r], 1: [s] * 4}, st.integers(1, 5), st.integers(1, 3)),
    st.builds(lambda r: {0: [r]}, st.integers(1, 5)),
)


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=20), prev_mode=st.sampled_from([None, 0, 1]),
       prev_columns=st.integers(1, 20), ranks=_RANKS)
def test_column_fields_read_as_field_by_field(data, prev_mode, prev_columns, ranks):
    """Random bits, whole and at every truncation (a column cut short by
    the payload's end included): the walk gives the values, end position
    and StreamError text of reads one field at a time, with every limit
    checked in the same order."""
    args = (_ODD_QUANTIZERS, prev_mode, prev_columns, ranks)
    for cut in range(len(data) + 1):
        assert _parsed(_walked, data[:cut], *args) == _parsed(_reference_side_info, data[:cut], *args)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), prev_mode=st.sampled_from([None, 0, 1]),
       prev_columns=st.integers(1, 20), mode=st.integers(0, 1), ranks=_RANKS)
def test_column_fields_write_as_field_by_field(seed, prev_mode, prev_columns, mode, ranks):
    """The encoder's walk writes the bits of one write per field, and
    reads back as written."""
    q, rng = _ODD_QUANTIZERS, np.random.default_rng(seed)
    mode = min(mode, max(ranks))
    c = sideinfo._Code(ranks[mode])
    n, switched = c.intra.size, prev_mode is not None and prev_mode != mode
    c.intra = np.ones(n, dtype=bool) if prev_mode is None else rng.random(n) < 0.3
    c.intra_index = np.where(c.intra, rng.integers(0, q.intra.size, n), 0)
    c.ref_index = np.where(~c.intra & switched, rng.integers(0, prev_columns, n), 0)
    c.coeff_index = np.where(c.intra, 0, rng.integers(0, q.coeff.size, n))
    c.residual_index = np.where(c.intra, 0, rng.integers(0, q.residual.size, n))
    w = BitWriter()
    sideinfo._side_info(sideinfo._Fields(w), q, _state(prev_mode, prev_columns), ranks, mode, c, rebuild=False)

    expected = BitWriter()
    expected.write(mode, 1)
    at = 0
    for r in ranks[mode]:
        expected.write(int(prev_mode is None), 1)
        for k in range(at, at + r):
            if prev_mode is not None:
                expected.write(int(c.intra[k]), 1)
            if c.intra[k]:
                expected.write(int(c.intra_index[k]), _cb(q.intra.size))
                continue
            if switched:
                expected.write(int(c.ref_index[k]), _cb(prev_columns))
            expected.write(int(c.coeff_index[k]), _cb(q.coeff.size))
            expected.write(int(c.residual_index[k]), _cb(q.residual.size))
        at += r
    bits = expected.bit_length
    assert (w.bit_length, w.getvalue()) == (bits, expected.getvalue())
    assert _parsed(_walked, w.getvalue(), q, prev_mode, prev_columns, ranks) == (mode, _columns(c), bits)


# --- frame-wide decisions against the per-column coder they replaced ---

def _reference_renormalize(v, fallback_axis, dim):
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        out = np.zeros(dim)
        out[fallback_axis % dim] = 1.0
        return out
    return v / n


def _reference_nearest(v, cb):
    return int(np.argmin(np.sum((cb.centroids - np.asarray(v, dtype=np.float64).reshape(-1)) ** 2, axis=1)))


def _reference_intra(q, index, col):
    return _reference_renormalize(q.intra.centroids[index].copy(), col, q.dim)


def _reference_predicted(q, coeff_index, residual_index, ref, col):
    rho = float(q.coeff.centroids[coeff_index, 0])
    return _reference_renormalize(rho * ref + q.residual.centroids[residual_index], col, q.dim)


def _reference_choose(q, target, ref, col):
    """One column's coding, (intra, intra index, coeff index, residual
    index), and its reconstruction: predicted from ``ref`` when that
    reconstructs no worse than intra."""
    intra_idx = _reference_nearest(target, q.intra)
    intra = _reference_intra(q, intra_idx, col)
    if np.linalg.norm(ref) > 1e-12:
        c_idx = _reference_nearest([float(target @ ref)], q.coeff)
        r_idx = _reference_nearest(target - float(q.coeff.centroids[c_idx, 0]) * ref, q.residual)
        predicted = _reference_predicted(q, c_idx, r_idx, ref, col)
        if float(np.sum((predicted - target) ** 2)) <= float(np.sum((intra - target) ** 2)):
            return (False, 0, c_idx, r_idx), predicted
    return (True, intra_idx, 0, 0), intra


def _reference_band(q, state, band, raw, switched):
    """A predicted band coded column by column: (per column (ref_index,
    intra, intra index, coeff index, residual index), the (M, r)
    reconstruction).  Targets are matched and sign-aligned to the band's
    previous basis, or on a switch flipped towards their pool reference."""
    r = raw.shape[1]
    recon, columns = np.empty((q.dim, r)), []
    if switched:
        pool = state.pool()
        for k in range(r):
            target = raw[:, k]
            corrs = target @ pool
            ref_index = int(np.argmax(np.abs(corrs)))
            flip = bool(corrs[ref_index] < 0)
            choice, recon[:, k] = _reference_choose(q, -target if flip else target, pool[:, ref_index], k)
            columns.append((ref_index,) + choice)
    else:
        prev = state.prev_bases[band]
        _, _, aligned = match_bases(TruncatedBasis(vectors=prev), TruncatedBasis(vectors=raw))
        for k in range(r):
            choice, recon[:, k] = _reference_choose(q, aligned.vectors[:, k], prev[:, k], k)
            columns.append((0,) + choice)
    return columns, recon


def _zero_intra_centroid(q):
    """``q`` with intra centroid 0 at the origin and the others pushed out,
    so unit columns pick it and reconstruct through the per-column fallback."""
    intra = q.intra.centroids * 3.0
    intra[0] = 0.0
    return QuantizerSet(coeff=q.coeff, residual=q.residual, intra=Codebook(centroids=intra))


@pytest.mark.parametrize("zero_centroid", [False, True])
@pytest.mark.parametrize("prev_mode", [0, 1])
def test_frame_wide_decisions_match_per_column_reference(rng, small_quantizers, prev_mode, zero_centroid):
    """Both RD trials of a frame after a mode-``prev_mode`` frame: one trial
    has same-mode bands, the other switched ones.  Every field and every
    reconstructed column equals the per-column coder's, bit for bit."""
    q = _zero_intra_centroid(small_quantizers) if zero_centroid else small_quantizers
    picked = set()
    for _ in range(8):
        state = SideInfoState()
        prev_raw = [_random_basis(rng) for _ in range(1 if prev_mode == 0 else 4)]
        encode_sideinfo(prev_raw, prev_mode, q, state, BitWriter())
        raws = {}
        for mode, nb in ((0, 1), (1, 4)):
            # bands that drift from the previous frame (mostly predicted), new
            # ones (mostly intra) and unit axes (intra through the fallback)
            drift = [
                svd(rng.standard_normal((64, 16)) * 0.3 + rng.standard_normal((64, 4)) @ p.T).right[:, :4]
                for p in prev_raw
            ]
            kinds = rng.choice(3, nb, p=[0.5, 0.25, 0.25])
            raws[mode] = [(drift[b % len(drift)], _random_basis(rng), np.eye(16)[:, :4])[k] for b, k in enumerate(kinds)]
        codes = sideinfo._code_bands(q, [(raws[0], 0, state), (raws[1], 1, state)])
        for mode, code in zip((0, 1), codes):
            ranks = [4] * len(raws[mode])
            bases = sideinfo._rebuilt(q, code, ranks, state, mode != prev_mode)
            for band, raw in enumerate(raws[mode]):
                columns, recon = _reference_band(q, state, band, raw, mode != prev_mode)
                k = slice(4 * band, 4 * band + 4)
                got = list(zip(code.ref_index[k], code.intra[k], code.intra_index[k],
                               code.coeff_index[k], code.residual_index[k]))
                assert got == columns
                assert bases[band].tobytes() == recon.tobytes()
                picked.update((mode != prev_mode, c[1]) for c in columns)
    # (switched band, intra) for every kind of column, or with the zero
    # centroid at least one intra column
    assert picked == {(False, False), (False, True), (True, False), (True, True)} or (
        zero_centroid and {(False, True), (True, True)} & picked)


def test_trials_coded_together_match_trials_coded_alone(rng, small_quantizers):
    q = small_quantizers
    for prev_mode in (None, 0, 1):
        state = SideInfoState()
        if prev_mode is not None:
            encode_sideinfo([_random_basis(rng) for _ in range(1 + 3 * prev_mode)], prev_mode, q, state, BitWriter())
        raws = [[_random_basis(rng)], [_random_basis(rng) for _ in range(4)]]
        writers, states = [BitWriter(), BitWriter()], [state.copy(), state.copy()]
        together = encode_sideinfo_trials(list(zip(raws, (0, 1), states, writers)), q)
        for mode, (frame, recon), w, st in zip((0, 1), together, writers, states):
            alone_state, alone_writer = state.copy(), BitWriter()
            alone, alone_recon = encode_sideinfo(raws[mode], mode, q, alone_state, alone_writer)
            assert w.getvalue() == alone_writer.getvalue() and frame == alone
            assert all(a.tobytes() == b.tobytes() for a, b in zip(recon, alone_recon))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(st.prev_bases, alone_state.prev_bases))


def test_wrong_dimension_rejected(rng, small_quantizers):
    with pytest.raises(ConfigurationError):
        encode_sideinfo(
            [_random_basis(rng, m=9, r=3)], 0, small_quantizers, SideInfoState(), BitWriter()
        )


# --- training ---

def test_training_requires_enough_data():
    sig = scenes.render_scene(
        scenes.SceneSpec(duration=0.02, sample_rate=48000, order=1, sources=[], name="tiny")
    )
    config = TrainingConfig(half_length=256, rank=1, coeff_size=4096,
                            residual_size=4, intra_size=4)
    with pytest.raises(TrainingError):
        train_quantizers([sig], config)


def test_training_refuses_signals_of_different_orders():
    sigs = [
        scenes.render_scene(scenes.SceneSpec(duration=0.05, sample_rate=48000, order=order, sources=[], name="o"))
        for order in (1, 3)
    ]
    with pytest.raises(ConfigurationError, match=r"\[4, 16\] channels"):
        train_quantizers(sigs, TrainingConfig(half_length=256, rank=1))


def _small_corpus():
    """The corpus and training config of the ``small_quantizers`` fixture."""
    sigs = [scenes.render_scene(s) for s in scenes.corpus_specs(duration=0.4)[:2]]
    config = TrainingConfig(half_length=256, rank=4, coeff_size=16,
                            residual_size=64, intra_size=64, max_iter=20, seed=7)
    return sigs, config


def test_training_deterministic(small_quantizers):
    again = train_quantizers(*_small_corpus())
    assert again.fingerprint() == small_quantizers.fingerprint()
    assert np.array_equal(again.residual.centroids, small_quantizers.residual.centroids)


def test_harvested_training_material_is_pinned():
    """SHA-256 of the (rho, residual) pairs and intra columns taken from the
    ``small_quantizers`` corpus: both encoders' analysis path (framing, MDCT,
    per-mode bases, matching) feeds training unchanged."""
    rhos, residuals, intras = harvest_training_pairs(*_small_corpus())
    assert (rhos.shape, residuals.shape, intras.shape) == ((3600, 1), (3600, 16), (3648, 16))
    digest = hashlib.sha256(rhos.tobytes() + residuals.tobytes() + intras.tobytes()).hexdigest()
    assert digest == "45b97519a414acb4eab0248df89ee4e4dccd22bbafc4f21f4951c609bc0a4e1c", pinned_kernel_note()


def test_max_frames_caps_the_whole_harvest():
    """The cap counts frames over every path of every signal.  Per 0.1 s
    signal at L=256 the time-domain path has 20 frames of one basis, then
    each mode 20 frames of 1 or 4 band bases, 60 frames in all."""
    sigs = [scenes.render_scene(s) for s in scenes.corpus_specs(duration=0.1)[:2]]
    full = harvest_training_pairs(sigs, TrainingConfig(half_length=256, rank=4))
    for cap, pairs, columns in ((3, 8, 12), (5, 16, 20), (60, 456, 480), (61, 456, 484), (120, 912, 960)):
        rhos, residuals, intras = harvest_training_pairs(
            sigs, TrainingConfig(half_length=256, rank=4, max_frames=cap)
        )
        assert (rhos.shape[0], residuals.shape[0], intras.shape[0]) == (pairs, pairs, columns)
        assert np.array_equal(intras, full[2][:columns]) and np.array_equal(rhos, full[0][:pairs])


def test_static_corpus_concentrates_coefficient_codebook(rng):
    # a constant scene: consecutive bases correlate perfectly, so the
    # coefficient codebook collapses near 1 and residuals near 0
    spec = scenes.SceneSpec(
        duration=0.35, sample_rate=48000, order=3,
        sources=[scenes.SourceSpec(kind="bandnoise", freq=100, freq_hi=8000,
                                   level=0.5, azimuth=0.4, seed=3)],
        diffuse_level=0.0, seed=4, name="static",
    )
    sig = scenes.render_scene(spec)
    config = TrainingConfig(half_length=256, rank=2, coeff_size=4,
                            residual_size=8, intra_size=8, max_iter=20)
    q = train_quantizers([sig], config)
    assert np.max(q.coeff.centroids) > 0.95
    assert np.min(np.linalg.norm(q.residual.centroids, axis=1)) < 0.3


def test_quantizer_files_roundtrip(tmp_path, small_quantizers):
    small_quantizers.save(tmp_path / "cb")
    back = QuantizerSet.load(tmp_path / "cb")
    assert back.fingerprint() == small_quantizers.fingerprint()


def test_missing_codebooks_error_names_training_command(tmp_path):
    with pytest.raises(ConfigurationError, match="train-quantizers"):
        QuantizerSet.load(tmp_path / "nothing")


# per codebook file: magic, u16 version, u16 flags, u32 dim, u32 size, u64
# seed, then the centroids; the u32 fields' offsets
_HACB_FILES = ("coeff.hacb", "residual.hacb", "intra.hacb")
_HACB_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("cut"), st.integers(0, 2**14)),
        st.tuples(st.just("byte"), st.integers(0, 23), st.integers(0, 255)),
        st.tuples(st.just("body"), st.integers(24, 2**14), st.integers(0, 255)),
        st.tuples(
            st.just("size"), st.sampled_from((8, 12)),
            st.one_of(st.integers(0, 300), st.integers(0, 2**32 - 1)),
        ),
    ),
    min_size=1, max_size=3,
)


@pytest.fixture(scope="module")
def codebook_files(small_quantizers, tmp_path_factory):
    folder = tmp_path_factory.mktemp("codebooks")
    small_quantizers.save(folder / "clean")
    return folder, {name: (folder / "clean" / name).read_bytes() for name in _HACB_FILES}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(_HACB_FILES), _HACB_EDITS)
def test_edited_codebook_files_load_or_raise_a_codec_error(codebook_files, name, edits):
    """Truncations, header byte edits, centroid byte edits and dim or size
    edits of one of the three codebook files end in a loaded set or a
    HoaCodecError, never struct.error, ValueError, IndexError or
    MemoryError.  A loaded set whose centroids changed is refused at decode
    by its fingerprint, not by the reader."""
    folder, files = codebook_files
    data = bytearray(files[name])
    for edit in edits:
        if edit[0] == "cut":
            del data[edit[1]:]
        elif edit[0] in ("byte", "body"):
            if edit[1] < len(data):
                data[edit[1]] = edit[2]
        elif edit[1] + 4 <= len(data):
            data[edit[1] : edit[1] + 4] = edit[2].to_bytes(4, "little")
    edited = folder / "edited"
    edited.mkdir(exist_ok=True)
    for other in _HACB_FILES:
        (edited / other).write_bytes(bytes(data) if other == name else files[other])
    try:
        QuantizerSet.load(edited)
    except HoaCodecError:
        pass
