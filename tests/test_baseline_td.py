import numpy as np
import pytest

from hoacodec import baseline_td, pipeline, scenes
from hoacodec.baseline_td import (
    CONDITION_CAP,
    InterpolationWindow,
    TruncatedBasis,
    decompose_frame,
    drop_degenerate_columns,
    extract_foreground,
    foreground_with_fallback,
    interpolate_basis,
    match_bases,
    truncated_basis,
)
from hoacodec.errors import DegenerateBasisError, ShapeError
from hoacodec.numlin import Codebook, svd
from hoacodec.sideinfo import QuantizerSet


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


# --- degenerate bases and the fallback ---

def _tilted(a, b, condition):
    """A unit column in the plane of unit columns ``a`` and ``b`` whose Gram
    matrix with ``a`` has the given condition number: (1 + c) / (1 - c)."""
    c = 1.0 - 2.0 / (condition + 1.0)
    return c * a + np.sqrt(1.0 - c * c) * b


def _degenerate_bases(rng):
    """(name, basis, whether it exceeds the cap) for M = 16, r = 3 or 4."""
    q = _orthonormal(rng, 16, 4).T
    zero = np.zeros(16)
    return [
        ("repeated column", np.column_stack([q[0], q[1], q[0], q[2]]), True),
        ("zero column", np.column_stack([q[0], zero, q[1]]), True),
        ("all-zero basis", np.zeros((16, 3)), True),
        ("pair near 1e7", np.column_stack([q[0], q[1], _tilted(q[0], q[2], 1e7)]), False),
        ("pair near 1e9", np.column_stack([q[0], q[1], _tilted(q[0], q[2], 1e9)]), True),
        ("pair near 1e9, sound column last", np.column_stack([q[0], _tilted(q[0], q[1], 1e9), q[2]]), True),
    ]


def _exceeds_cap(V):
    return np.linalg.cond(V.T @ V) > CONDITION_CAP


def test_extract_foreground_raises_exactly_above_the_condition_cap(rng):
    X = rng.standard_normal((32, 16))
    for name, V, degenerate in _degenerate_bases(rng):
        assert _exceeds_cap(V) == degenerate, name
        if degenerate:
            with pytest.raises(DegenerateBasisError):
                extract_foreground(X, TruncatedBasis(vectors=V))
        else:
            assert extract_foreground(X, TruncatedBasis(vectors=V)).shape == (32, V.shape[1]), name


def test_fallback_zeroes_the_dropped_columns_latest_first(rng):
    """The fallback keeps the longest leading run of columns within the cap
    (the dropped ones are the latest), zeroes the foreground of the others,
    and gives the kept ones the least-squares fit on the kept sub-basis."""
    X = rng.standard_normal((32, 16))
    for name, V, _ in _degenerate_bases(rng):
        r = V.shape[1]
        kept = max((k for k in range(1, r + 1) if not _exceeds_cap(V[:, :k])), default=0)
        keep = drop_degenerate_columns(TruncatedBasis(vectors=V))
        assert np.array_equal(keep, np.arange(r) < kept), name
        fg = foreground_with_fallback(X, TruncatedBasis(vectors=V))
        assert np.all(fg[:, ~keep] == 0), name
        oracle = np.linalg.lstsq(V[:, keep], X.T, rcond=None)[0].T
        assert np.allclose(fg[:, keep], oracle, rtol=0, atol=1e-6 * np.abs(oracle).max(initial=1.0)), name


@pytest.mark.parametrize("codec", ["proposed", "baseline"])
def test_codebooks_that_rebuild_parallel_columns_code_through_the_fallback(monkeypatch, codec):
    """An intra codebook of one centroid, a residual codebook of one zero
    centroid and positive coefficients rebuild every band's columns
    parallel, so each projection takes the fallback: it raises, then
    projects onto the one column kept.  The stream still decodes without
    concealment, and stats reads the encoder's bits."""
    projections, dropped = [], []

    def counted(function, calls):
        def wrapper(*args):
            calls.append(args)
            return function(*args)
        return wrapper

    monkeypatch.setattr(baseline_td, "extract_foreground", counted(extract_foreground, projections))
    monkeypatch.setattr(baseline_td, "drop_degenerate_columns", counted(drop_degenerate_columns, dropped))
    q = QuantizerSet(
        coeff=Codebook(np.array([[0.5], [1.0]])),
        residual=Codebook(np.zeros((1, 16))),
        intra=Codebook(np.full((1, 16), 0.25)),
    )
    scene = scenes.render_scene(next(s for s in scenes.corpus_specs(duration=0.3) if s.name == "orbiting_chirp"))
    res = pipeline.encode(scene, pipeline.EncoderConfig(codec=codec, half_length=256, quantizers=q))
    assert dropped and len(projections) == 2 * len(dropped)
    assert all(drop_degenerate_columns(basis).sum() == 1 for basis, in dropped)
    dec = pipeline.decode(res.stream, q)
    assert dec.concealed_frames == 0
    assert np.all(np.isfinite(dec.signal.samples))

    def bits(stats):
        return [(f.side_bits, f.noise_bits, f.core_bits, f.padding_bits, f.total_bits) for f in stats.frames]

    assert bits(pipeline.measure_stream(res.stream, q)) == bits(res.stats)


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
