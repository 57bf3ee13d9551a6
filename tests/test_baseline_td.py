import numpy as np
import pytest

from hoacodec import scenes
from hoacodec.baseline_td import (
    InterpolationWindow,
    TruncatedBasis,
    decompose_frame,
    extract_foreground,
    interpolate_basis,
    match_bases,
    truncated_basis,
)
from hoacodec.errors import ShapeError
from hoacodec.numlin import svd


def _orthonormal(rng, m, r):
    return np.linalg.qr(rng.standard_normal((m, r)))[0]


# --- extract_foreground ---

def test_orthonormal_basis_reduces_to_plain_projection(rng):
    V = _orthonormal(rng, 16, 4)
    X = rng.standard_normal((64, 16))
    fg = extract_foreground(X, TruncatedBasis(vectors=V))
    assert np.allclose(fg, X @ V, atol=1e-10)


def test_full_rank_orthonormal_basis_is_lossless(rng):
    V = _orthonormal(rng, 8, 8)
    X = rng.standard_normal((32, 8))
    fg = extract_foreground(X, TruncatedBasis(vectors=V))
    assert np.linalg.norm(fg @ V.T - X) < 1e-9 * np.linalg.norm(X)


def test_matches_least_squares_oracle(rng):
    for _ in range(20):
        V = _orthonormal(rng, 12, 3)
        Vq = np.round(V * 32) / 32  # crude quantization
        X = rng.standard_normal((50, 12))
        fg = extract_foreground(X, TruncatedBasis(vectors=Vq))
        oracle = np.linalg.lstsq(Vq, X.T, rcond=None)[0].T
        assert np.max(np.abs(fg - oracle)) < 1e-8


def test_least_squares_optimality_against_perturbations(rng):
    V = np.round(_orthonormal(rng, 10, 3) * 16) / 16
    X = rng.standard_normal((40, 10))
    fg = extract_foreground(X, TruncatedBasis(vectors=V))
    base = np.linalg.norm(X - fg @ V.T)
    for _ in range(100):
        alt = fg + rng.standard_normal(fg.shape) * 0.01
        assert base <= np.linalg.norm(X - alt @ V.T) + 1e-12


def test_channel_mismatch_rejected(rng):
    with pytest.raises(ShapeError):
        extract_foreground(np.zeros((8, 6)), TruncatedBasis(vectors=np.zeros((5, 2))))


# --- match_bases ---

def test_identical_bases_identity_match(rng):
    V = _orthonormal(rng, 9, 3)
    prev = TruncatedBasis(vectors=V)
    assignment, signs, aligned = match_bases(prev, TruncatedBasis(vectors=V.copy()))
    assert list(assignment.permutation) == [0, 1, 2]
    assert np.all(signs == 1.0)
    assert np.array_equal(aligned.vectors, V)


def test_swapped_columns_unswapped(rng):
    V = _orthonormal(rng, 9, 3)
    swapped = V[:, [1, 0, 2]]
    assignment, _, aligned = match_bases(
        TruncatedBasis(vectors=V), TruncatedBasis(vectors=swapped)
    )
    assert list(assignment.permutation) == [1, 0, 2]
    assert np.allclose(aligned.vectors, V)


def test_negated_columns_sign_corrected(rng):
    V = _orthonormal(rng, 9, 3)
    assignment, signs, aligned = match_bases(
        TruncatedBasis(vectors=V), TruncatedBasis(vectors=-V)
    )
    assert list(assignment.permutation) == [0, 1, 2]
    assert np.all(signs == -1.0)
    assert np.allclose(aligned.vectors, V)
    dots = np.einsum("mi,mi->i", V, aligned.vectors)
    assert np.all(dots >= 0)


def test_matched_pairs_nonnegative_dot(rng):
    for _ in range(10):
        P = _orthonormal(rng, 16, 4)
        C = _orthonormal(rng, 16, 4)
        _, _, aligned = match_bases(TruncatedBasis(vectors=P), TruncatedBasis(vectors=C))
        dots = np.einsum("mi,mi->i", P, aligned.vectors)
        assert np.all(dots >= -1e-12)


# --- interpolation ---

def test_interpolation_window_shapes():
    w = InterpolationWindow.make(64)
    assert np.all(np.diff(w.values) >= 0)
    assert w.values[-1] == pytest.approx(1.0)
    assert w.values[0] <= 1.0 / 32


def test_identical_endpoints_blend_to_same(rng):
    V = _orthonormal(rng, 8, 2)
    w = InterpolationWindow.make(16)
    seq = interpolate_basis(TruncatedBasis(vectors=V), TruncatedBasis(vectors=V.copy()), w)
    assert np.allclose(seq, V[None], atol=1e-14)


def test_zero_window_keeps_previous(rng):
    P = _orthonormal(rng, 8, 2)
    C = _orthonormal(rng, 8, 2)
    w = InterpolationWindow(values=np.zeros(16))
    seq = interpolate_basis(TruncatedBasis(vectors=P), TruncatedBasis(vectors=C), w)
    assert np.allclose(seq, P[None], atol=1e-14)


def test_triangular_midpoint_is_arithmetic_mean(rng):
    L = 64
    P = _orthonormal(rng, 8, 2)
    C = _orthonormal(rng, 8, 2)
    w = InterpolationWindow.make(L)
    seq = interpolate_basis(TruncatedBasis(vectors=P), TruncatedBasis(vectors=C), w)
    mid = L // 2 - 1  # w = ((L/2-1)+1)/L = 1/2
    assert np.allclose(seq[mid], 0.5 * P + 0.5 * C, atol=1e-12)


# --- full frame analysis ---

def _plane_wave_frame(rng, L=256, az=0.7, el=0.2):
    sig = rng.standard_normal(2 * L)
    Y = scenes.sn3d_harmonics(3, az, el)
    return sig[:, None] * Y


def test_single_source_captured_by_rank_one(rng):
    X = _plane_wave_frame(rng)
    w = InterpolationWindow.make(X.shape[0] // 2)
    res = decompose_frame(X, truncated_basis(X, 1), None, w)
    total = np.sum(X**2)
    fg_energy = np.sum(res.foreground**2)
    assert fg_energy > 0.99 * total
    assert np.sum(res.ambient**2) < 0.01 * total


def test_silence_frame(rng):
    X = np.zeros((128, 16))
    res = decompose_frame(X, truncated_basis(X, 4), None, InterpolationWindow.make(64))
    assert np.all(res.foreground == 0)
    assert np.all(res.ambient == 0)


def test_complete_basis_leaves_no_ambient(rng):
    X = rng.standard_normal((64, 16))
    res = decompose_frame(X, truncated_basis(X, 16), None, InterpolationWindow.make(32))
    assert np.sum(res.ambient**2) < 1e-18 * np.sum(X**2)


def test_ambient_is_frame_minus_approximation(rng):
    X = rng.standard_normal((64, 9))
    basis = truncated_basis(X, 2)
    res = decompose_frame(X, basis, None, InterpolationWindow.make(32))
    L = 32
    approx = X - res.ambient
    # trailing half must be the frame-basis back-projection exactly
    V = basis.vectors
    assert np.allclose(approx[L:], res.foreground[L:] @ V.T, atol=1e-12)


def test_state_chain_matches_and_aligns(rng):
    w = InterpolationWindow.make(32)
    X1 = _plane_wave_frame(rng, L=32)
    first = truncated_basis(X1, 2, 0)
    X2 = -X1  # same subspace, flipped sign
    _, _, aligned = match_bases(first, truncated_basis(X2, 2, 1))
    res = decompose_frame(X2, aligned, first, w)
    dots = np.einsum("mi,mi->i", first.vectors, aligned.vectors)
    assert np.all(dots >= -1e-12)
    # aligned bases blend without cancelling, so the source stays foreground
    assert np.sum(res.ambient**2) < 1e-18 * np.sum(X2**2)


def test_truncated_basis_columns_are_top_singular_vectors(rng):
    X = rng.standard_normal((128, 9))
    tb = truncated_basis(X, 3)
    full = svd(X)
    assert np.array_equal(tb.vectors, full.right[:, :3])
