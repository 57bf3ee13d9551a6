import numpy as np
import pytest

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
    predict_basis,
    train_quantizers,
)


def _random_basis(rng, m=16, r=4):
    return svd(rng.standard_normal((64, m))).right[:, :r]


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
    frames = list(_roundtrip_frames(rng, small_quantizers, [0, 0]))
    assert frames[0][0].bands[0].intra_band
    assert not frames[1][0].bands[0].intra_band


def test_reconstructed_columns_unit_norm(rng, small_quantizers):
    for _, drecon in _roundtrip_frames(rng, small_quantizers, [0, 1, 0, 1]):
        for basis in drecon:
            norms = np.linalg.norm(basis, axis=0)
            assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_mode_switch_uses_reference_indices(rng, small_quantizers):
    frames = list(_roundtrip_frames(rng, small_quantizers, [1, 0]))
    switch_frame = frames[1][0]
    assert switch_frame.switched
    band = switch_frame.bands[0]
    assert not band.intra_band
    refs = [c.ref_index for c in band.columns if not c.intra]
    # references may point anywhere in the 16-column pool of the 4 bands
    assert all(0 <= ref < 16 for ref in refs)


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
    floor = 1 + 1 + 5 + r + r * (1 + small_quantizers.coeff_bits + small_quantizers.residual_bits)
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


def test_switched_intra_index_out_of_range_raises(rng, small_quantizers):
    # 200 intra entries take 8 index bits, so indices 200..255 are writable
    q = QuantizerSet(
        coeff=small_quantizers.coeff,
        residual=small_quantizers.residual,
        intra=Codebook(centroids=_random_basis(rng, m=16, r=16)[:, np.arange(200) % 16].T),
    )
    w = BitWriter()
    w.write(1, 1)  # mode 1 after a mode-0 frame: the switched branch
    w.write_flag(False)  # predicted band
    w.write_flag(True)  # intra column
    w.write(255, q.intra_bits)
    dec_state = SideInfoState()
    dec_state.prev_bases = [_random_basis(rng)]
    dec_state.prev_mode = 0
    with pytest.raises(StreamError, match="intra codebook index"):
        decode_sideinfo(BitReader(w.getvalue()), q, dec_state, {0: [4], 1: [1]})


def test_truncated_stream_raises(rng, small_quantizers):
    enc_state = SideInfoState()
    w = BitWriter()
    encode_sideinfo([_random_basis(rng)], 0, small_quantizers, enc_state, w)
    data = w.getvalue()[:2]
    with pytest.raises(StreamError):
        decode_sideinfo(BitReader(data), small_quantizers, SideInfoState(), {0: [4], 1: [4] * 4})


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


def test_training_deterministic(small_quantizers):
    sigs = [scenes.render_scene(s) for s in scenes.corpus_specs(duration=0.4)[:2]]
    config = TrainingConfig(half_length=256, rank=4, coeff_size=16,
                            residual_size=64, intra_size=64, max_iter=20, seed=7)
    again = train_quantizers(sigs, config)
    assert again.fingerprint() == small_quantizers.fingerprint()
    assert np.array_equal(again.residual.centroids, small_quantizers.residual.centroids)


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
