import numpy as np
import pytest

from hoacodec.errors import ShapeError
from hoacodec.freq_svd import (
    band_decompose,
    band_split,
    compaction_gain,
    compute_residual,
    layout_for_mode,
    reconstruct_spectrum,
)
from hoacodec.numlin import svd
from hoacodec.transform import SpectralFrame


def _frame(rng, L=256, M=16, rank=None):
    if rank is None:
        return SpectralFrame(index=0, coeffs=rng.standard_normal((L, M)))
    A = rng.standard_normal((L, rank)) @ rng.standard_normal((rank, M))
    return SpectralFrame(index=0, coeffs=A)


def test_layouts():
    assert layout_for_mode(0, 1024) == ((0, 1024),)
    assert layout_for_mode(1, 1024) == ((0, 256), (256, 512), (512, 768), (768, 1024))
    with pytest.raises(ShapeError):
        layout_for_mode(1, 1002)  # 1002 bins do not split into 4 bands
    with pytest.raises(ShapeError):
        layout_for_mode(2, 1024)


def test_single_band_split_is_identity(rng):
    sp = _frame(rng)
    parts = band_split(sp, layout_for_mode(0, 256))
    assert len(parts) == 1
    assert np.array_equal(parts[0], sp.coeffs)


def test_four_band_split_shapes(rng):
    sp = _frame(rng, L=1024)
    parts = band_split(sp, layout_for_mode(1, 1024))
    assert [p.shape for p in parts] == [(256, 16)] * 4


def test_split_concat_is_bit_exact(rng):
    sp = _frame(rng, L=64, M=9)
    layout = ((0, 8), (8, 32), (32, 64))
    assert np.array_equal(np.concatenate(band_split(sp, layout)), sp.coeffs)


def test_layout_sum_mismatch_rejected(rng):
    sp = _frame(rng, L=64)
    with pytest.raises(ShapeError, match="do not tile"):
        band_split(sp, ((0, 8), (8, 16)))


@pytest.mark.parametrize("layout", [
    ((0, 32), (32, 72)),  # past the frame's 64 bins
    ((0, 0), (0, 64)),  # an empty band
    ((0, 40), (32, 64)),  # overlapping bands
    ((0, 16), (32, 64)),  # a gap
    ((32, 64), (0, 32)),  # high to low
    (),
])
def test_layout_that_does_not_tile_the_frame_is_rejected(rng, layout):
    sp = _frame(rng, L=64)
    with pytest.raises(ShapeError, match="do not tile"):
        band_split(sp, layout)


def test_exact_low_rank_content_leaves_no_residual(rng):
    sp = _frame(rng, L=64, M=12, rank=3)
    layout = layout_for_mode(1, 64)
    dec = band_decompose(band_split(sp, layout), 3, layout)
    residual = compute_residual(sp, dec)
    assert np.sum(residual**2) < 1e-18 * np.sum(sp.coeffs**2)


def test_rank_zero_mode_returns_everything_as_residual(rng):
    sp = _frame(rng, L=32, M=4)
    layout = layout_for_mode(0, 32)
    dec = band_decompose(band_split(sp, layout), 0, layout)
    residual = compute_residual(sp, dec)
    assert np.array_equal(residual, sp.coeffs)


def test_residual_plus_approximation_is_identity(rng):
    sp = _frame(rng, L=64, M=10)
    layout = layout_for_mode(1, 64)
    dec = band_decompose(band_split(sp, layout), 3, layout)
    residual = compute_residual(sp, dec)
    back = residual + reconstruct_spectrum(dec)
    assert np.max(np.abs(back - sp.coeffs)) < 1e-12 * np.max(np.abs(sp.coeffs))


def test_captured_energy_equals_top_singular_values(rng):
    sp = _frame(rng, L=128, M=8)
    layout = layout_for_mode(1, 128)
    dec = band_decompose(band_split(sp, layout), 2, layout)
    approx = reconstruct_spectrum(dec)
    for band, (a, b) in zip(band_split(sp, layout), layout):
        s = svd(band).singular_values
        captured = float(np.sum(approx[a:b] ** 2))
        assert captured == pytest.approx(float(np.sum(s[:2] ** 2)), rel=1e-9)


def test_residual_orthogonal_to_band_basis(rng):
    sp = _frame(rng, L=64, M=10)
    layout = layout_for_mode(1, 64)
    dec = band_decompose(band_split(sp, layout), 3, layout)
    residual = compute_residual(sp, dec)
    for basis, (a, b) in zip(dec.bases, layout):
        # unquantized bases: residual rows live outside span(V)
        proj = residual[a:b] @ basis.vectors
        assert np.max(np.abs(proj)) < 1e-8


def test_band_shorter_than_rank_rejected(rng):
    sp = _frame(rng, L=8, M=16)
    layout = layout_for_mode(1, 8)  # 2-bin bands
    with pytest.raises(ShapeError):
        band_decompose(band_split(sp, layout), 4, layout)


# --- compaction ---

def test_single_band_layout_equals_global(rng):
    sp = _frame(rng, L=64, M=8)
    eg, eb = compaction_gain(sp, 3, layout_for_mode(0, 64))
    assert eb == pytest.approx(eg, rel=1e-12)


def test_compaction_rank_below_one_rejected(rng):
    sp = _frame(rng, L=64, M=8)
    for rank in (0, -1):
        with pytest.raises(ShapeError):
            compaction_gain(sp, rank, layout_for_mode(1, 64))


def test_banded_energy_dominates(rng):
    for _ in range(25):
        sp = _frame(rng, L=64, M=8)
        eg, eb = compaction_gain(sp, 2, layout_for_mode(1, 64))
        assert eb >= eg - 1e-9 * float(np.sum(sp.coeffs**2))


def test_no_seams_matches_transform_only_roundtrip(rng):
    # unquantized decomposition with a complete basis must reproduce the
    # transform-only path exactly: the MDCT overlap supplies continuity,
    # no inter-frame machinery needed
    from hoacodec.transform import analyze, sine_window, synthesize

    L, M = 64, 9
    x = rng.standard_normal((6 * L, M))  # stationary random content
    win = sine_window(L)
    spectra, _ = analyze(x, L, win)
    roundtrip = synthesize(spectra, win, x.shape[0])
    layout = layout_for_mode(1, L)
    recon = []
    for sp in spectra:
        dec = band_decompose(band_split(sp, layout), M, layout)
        recon.append(SpectralFrame(index=sp.index, coeffs=reconstruct_spectrum(dec)))
    via_svd = synthesize(recon, win, x.shape[0])
    assert np.max(np.abs(via_svd - roundtrip)) < 1e-9 * np.max(np.abs(roundtrip))


def test_disjoint_band_content_gives_strict_gain(rng):
    # two bands with orthogonal rank-1 content: a single global rank-1
    # basis cannot capture both
    L, M = 32, 6
    S = np.zeros((L, M))
    u1 = rng.standard_normal(L // 2)
    u2 = rng.standard_normal(L // 2)
    S[: L // 2, 0] = u1
    S[L // 2 :, 1] = u2
    sp = SpectralFrame(index=0, coeffs=S)
    layout = ((0, L // 2), (L // 2, L))
    eg, eb = compaction_gain(sp, 1, layout)
    assert eb > eg + 1e-6
    assert eb == pytest.approx(float(np.sum(S**2)), rel=1e-9)
