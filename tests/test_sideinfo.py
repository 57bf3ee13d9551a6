import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hoacodec import scenes
from hoacodec.baseline_td import TruncatedBasis
from hoacodec.bitio import BitReader, BitWriter
from hoacodec.errors import ConfigurationError, StreamError, TrainingError
from hoacodec.numlin import Codebook, svd
from hoacodec.sideinfo import (
    QuantizerSet,
    SideInfoState,
    TrainingConfig,
    decode_sideinfo,
    encode_sideinfo,
    harvest_training_pairs,
    predict_basis,
    train_quantizers,
)


def _random_basis(rng, m=16, r=4):
    return svd(rng.standard_normal((64, m))).right[:, :r]


def _index_bits(codebook):
    """Width of an index field into ``codebook``: cb(size), at least 1."""
    return max(1, (codebook.size - 1).bit_length())


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
    # a predicted band: permutation, signs and a column_intra flag per column
    assert not second.switched and second.switched_columns == 0
    assert second.intra_columns + second.predicted_columns == 4
    assert second.bit_count == 1 + 1 + 5 + 4 + 4 + (
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
    # no permutation or band signs; each predicted column names one of the
    # 16 columns the 4 bands left in the pool (4 bits) and a sign
    assert switch_frame.bit_count == 1 + 1 + 4 + (
        switch_frame.intra_columns * _index_bits(q.intra)
        + switch_frame.switched_columns * (4 + 1 + _index_bits(q.coeff) + _index_bits(q.residual))
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
    # static content after the intra frame: permutation + signs + per-column
    # flag/indices; the coefficient stays pinned at the top codebook entry
    floor = 1 + 1 + 5 + r + r * (
        1 + _index_bits(small_quantizers.coeff) + _index_bits(small_quantizers.residual)
    )
    assert all(b <= floor for b in bits[1:])


def test_corrupt_permutation_index_raises(rng, small_quantizers):
    enc_state = SideInfoState()
    w = BitWriter()
    encode_sideinfo([_random_basis(rng)], 0, small_quantizers, enc_state, w)
    w2 = BitWriter()
    encode_sideinfo([_random_basis(rng)], 0, small_quantizers, enc_state, w2)
    data = bytearray(w2.getvalue())
    # frame layout: mode(1) + intra_band(1) + perm(5 bits for r=4); force the
    # permutation field to an out-of-range rank (>= 24)
    data[0] |= 0b00111110
    dec_state = SideInfoState()
    dec_state.prev_bases = [_random_basis(rng)]
    dec_state.prev_mode = 0
    with pytest.raises(StreamError, match="permutation"):
        decode_sideinfo(BitReader(bytes(data)), small_quantizers, dec_state, {0: [4], 1: [4] * 4})


def test_truncated_stream_raises(rng, small_quantizers):
    enc_state = SideInfoState()
    w = BitWriter()
    encode_sideinfo([_random_basis(rng)], 0, small_quantizers, enc_state, w)
    data = w.getvalue()[:2]
    with pytest.raises(StreamError):
        decode_sideinfo(BitReader(data), small_quantizers, SideInfoState(), {0: [4], 1: [4] * 4})


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    modes=st.lists(st.integers(0, 1), min_size=1, max_size=6),
    rank=st.integers(1, 5),
    bypass=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_grammar_roundtrip_and_prefixes(small_quantizers, modes, rank, bypass, seed):
    """Decoded bases are bit-identical to the encoder's, ``bit_count`` is the
    bits read, and every strict byte prefix of a frame raises StreamError."""
    rng = np.random.default_rng(seed)
    q = None if bypass else small_quantizers
    ranks = {0: [rank], 1: [rank] * 4}
    enc_state, dec_state = SideInfoState(), SideInfoState()
    for mode in modes:
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


# out-of-range values in each index field of each branch; r=3 columns, one
# previous mode-0 band (a 3-column pool), codebooks of 12/40/40 entries.
# Fields after the mode bit, as (value, bits).
_PREDICTED = [(0, 1), (0, 3), (0, 3)]  # intra_band, permutation, 3 signs
_SWITCHED = [(0, 1)]  # intra_band
_BAD_FIELDS = {
    "intra band, intra index": (0, [(1, 1), (63, 6)], "intra codebook index"),
    "predicted, permutation": (0, [(0, 1), (7, 3)], "permutation index"),
    "predicted, intra index": (0, _PREDICTED + [(1, 1), (40, 6)], "intra codebook index"),
    "predicted, coeff index": (0, _PREDICTED + [(0, 1), (12, 4)], "coefficient codebook index"),
    "predicted, residual index": (0, _PREDICTED + [(0, 1), (0, 4), (63, 6)], "residual codebook index"),
    "switched, intra index": (1, _SWITCHED + [(1, 1), (63, 6)], "intra codebook index"),
    "switched, reference": (1, _SWITCHED + [(0, 1), (3, 2)], "prediction reference"),
    "switched, coeff index": (1, _SWITCHED + [(0, 1), (2, 2), (1, 1), (15, 4)], "coefficient codebook index"),
    "switched, residual index": (1, _SWITCHED + [(0, 1), (0, 2), (0, 1), (0, 4), (40, 6)], "residual codebook index"),
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
        state.prev_bases, state.prev_mode = [_random_basis(rng, 16, 3)], 0
    w = BitWriter()
    w.write(mode, 1)
    for value, bits in fields:
        w.write(value, bits)
    with pytest.raises(StreamError, match=match):
        decode_sideinfo(BitReader(w.getvalue() + bytes(8)), q, state, {0: [3], 1: [3, 3]})


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
    assert digest == "45b97519a414acb4eab0248df89ee4e4dccd22bbafc4f21f4951c609bc0a4e1c"


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
