import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoacodec import numlin
from hoacodec.errors import FormatError, NumericError, ShapeError, TrainingError
from hoacodec.numlin import (
    Codebook,
    _assign,
    _row_sums,
    _seed_centroids,
    gla_train,
    hungarian,
    load_codebook,
    quantize_nearest,
    save_codebook,
    svd,
)


# --- svd ---

def test_identity_singular_values():
    res = svd(np.eye(2))
    assert np.allclose(res.singular_values, [1.0, 1.0])


def test_diagonal_canonical_form():
    res = svd(np.diag([3.0, 2.0]))
    assert np.allclose(res.singular_values, [3.0, 2.0])
    assert np.allclose(res.left, np.eye(2))
    assert np.allclose(res.right, np.eye(2))


def test_reconstruction_and_orthogonality(rng):
    for shape in [(8, 4), (40, 8), (16, 16), (4, 9)]:
        A = rng.standard_normal(shape)
        res = svd(A)
        assert np.linalg.norm(res.reconstruct() - A) < 1e-10 * np.linalg.norm(A)
        k = min(shape)
        assert np.linalg.norm(res.left.T @ res.left - np.eye(k)) < 1e-10
        assert np.linalg.norm(res.right.T @ res.right - np.eye(k)) < 1e-10
        assert np.all(np.diff(res.singular_values) <= 0)
        assert np.all(res.singular_values >= 0)


def test_sign_canonicalization_deterministic(rng):
    A = rng.standard_normal((12, 5))
    r1, r2 = svd(A), svd(A.copy())
    assert np.array_equal(r1.right, r2.right)
    anchors = np.abs(r1.right).argmax(axis=0)
    assert np.all(r1.right[anchors, np.arange(5)] > 0)


def test_truncation_beats_random_factorizations(rng):
    A = rng.standard_normal((20, 6))
    res = svd(A)
    k = 2
    best = (res.left[:, :k] * res.singular_values[:k]) @ res.right[:, :k].T
    err_svd = np.linalg.norm(A - best)
    for _ in range(50):
        Y = rng.standard_normal((20, k))
        Z = rng.standard_normal((6, k))
        coef = np.linalg.lstsq(Y, A, rcond=None)[0]
        assert err_svd <= np.linalg.norm(A - Y @ coef) + 1e-12


def test_non_finite_rejected():
    with pytest.raises(NumericError):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


# --- hungarian ---

def brute_force_cost(cost):
    r = cost.shape[0]
    return min(sum(cost[i, p[i]] for i in range(r)) for p in itertools.permutations(range(r)))


def test_identity_cheapest():
    a = hungarian(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert list(a.permutation) == [0, 1]
    assert a.total_cost == 2.0


def test_swap_cheapest():
    a = hungarian(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert list(a.permutation) == [1, 0]
    assert a.total_cost == 2.0


def test_empty_matrix():
    a = hungarian(np.zeros((0, 0)))
    assert a.permutation.size == 0
    assert a.total_cost == 0.0


def test_matches_brute_force_on_random_integer_costs(rng):
    for _ in range(40):
        r = int(rng.integers(1, 7))
        cost = rng.integers(0, 10, (r, r)).astype(float)  # ties are common
        a = hungarian(cost)
        assert sorted(a.permutation.tolist()) == list(range(r))
        assert a.total_cost == brute_force_cost(cost)
        assert float(cost[np.arange(r), a.permutation].sum()) == a.total_cost


def test_non_square_rejected():
    with pytest.raises(ShapeError):
        hungarian(np.zeros((2, 3)))


def test_non_finite_cost_rejected():
    with pytest.raises(NumericError):
        hungarian(np.array([[0.0, np.inf], [1.0, 0.0]]))


def _matching_costs(rng, r):
    """Cost matrices with exact ties, near-ties, and the matcher's own
    1 - |corr| between consecutive bases."""
    yield np.ones((r, r))
    yield rng.integers(0, 3, (r, r)).astype(float)
    grid = rng.integers(0, 4, (r, r)) * 0.25
    yield grid + rng.choice([0.0, 0.4e-9, 2.5e-9], (r, r))
    yield grid * 1e3 + rng.choice([0.0, 0.4e-6, 2.5e-6], (r, r))
    yield rng.uniform(-5, 5, (r, r))
    m = max(r, 16)
    prev = np.linalg.qr(rng.standard_normal((m, r)))[0]
    cur = np.linalg.qr(prev[:, rng.permutation(r)] + 0.2 * rng.standard_normal((m, r)))[0]
    yield 1.0 - np.abs(prev.T @ cur)


def _cheapest_exchange_cycle(cost, perm):
    """The least cost change of any cyclic exchange of targets: an arc
    a -> b moves the source holding target a to target b.  A permutation
    is a least-cost one iff no cycle lowers its cost (Floyd-Warshall)."""
    r = cost.shape[0]
    holder = np.empty(r, dtype=np.intp)
    holder[perm] = np.arange(r)
    dist = cost[holder] - cost[holder, np.arange(r)][:, None]
    for k in range(r):
        np.minimum(dist, dist[:, k, None] + dist[k], out=dist)
    return float(dist.diagonal().min())


@pytest.mark.parametrize("r", list(range(1, 13)) + [16, 20, 24, 32])
def test_hungarian_matches_reference_rule(rng, r):
    """The rule: a least-cost permutation, whatever the ties."""
    for cost in _matching_costs(rng, r):
        a = hungarian(cost)
        assert sorted(a.permutation.tolist()) == list(range(r))
        assert a.total_cost == float(cost[np.arange(r), a.permutation].sum())
        tol = 1e-12 * r * max(1.0, float(np.abs(cost).max()))
        assert _cheapest_exchange_cycle(cost, a.permutation) >= -tol
        if r <= 6:
            assert a.total_cost == pytest.approx(brute_force_cost(cost), abs=tol)


def test_hungarian_solves_once(rng, monkeypatch):
    import scipy.optimize

    calls = []
    solve = scipy.optimize.linear_sum_assignment
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", lambda c: calls.append(c) or solve(c))
    for r in list(range(1, 9)) + [16, 32]:
        costs = (
            rng.uniform(0, 1, (r, r)),
            1.0 - np.eye(r),
            np.ones((r, r)),
            rng.integers(0, 3, (r, r)).astype(float),
        )
        for cost in costs:
            calls.clear()
            hungarian(cost)
            assert len(calls) == 1


# --- GLA ---

def _mean_distance(data, cb):
    """Mean squared distance of ``data`` to its nearest centroids."""
    return float(((data[:, None, :] - cb.centroids[None]) ** 2).sum(axis=2).min(axis=1).mean())


def test_size_one_codebook_is_mean(rng):
    data = rng.standard_normal((200, 3))
    cb = gla_train(data, 1)
    assert np.allclose(cb.centroids[0], data.mean(axis=0), atol=1e-12)


def test_two_point_training_set_recovered():
    data = np.array([[-1.0], [1.0], [-1.0], [1.0]])
    cb = gla_train(data, 2, seed=3)
    assert np.allclose(sorted(cb.centroids[:, 0]), [-1.0, 1.0])
    assert _mean_distance(data, cb) == 0.0


def test_distortion_history_monotone(rng):
    data = rng.standard_normal((600, 4))
    cb = gla_train(data, 8, seed=1)
    assert len(cb.history) >= 1
    assert np.all(np.diff(cb.history) <= 1e-12)


def test_close_to_best_of_restarts(rng):
    data = rng.standard_normal((1000, 1))
    ours = _mean_distance(data, gla_train(data, 4, seed=0))
    best = min(_mean_distance(data, gla_train(data, 4, seed=s)) for s in range(20))
    assert ours <= best * 1.05


def test_degenerate_flag_when_size_exceeds_distinct_vectors():
    data = np.array([[0.0], [1.0]])
    cb = gla_train(data, 4)
    assert cb.degenerate


def test_empty_training_rejected():
    with pytest.raises(TrainingError):
        gla_train(np.zeros((0, 2)), 2)


def _reference_seed_centroids(training, size, rng):
    """The seeding the whole-array one replaced: one np.sum call per row for
    every draw."""
    n = training.shape[0]
    centroids = np.empty((size, training.shape[1]))
    centroids[0] = training[rng.integers(n)]
    d2 = np.sum((training - centroids[0]) ** 2, axis=1)
    for k in range(1, size):
        total = d2.sum()
        if total <= 0:
            centroids[k] = training[rng.integers(n)]
            continue
        probs = d2 / total
        centroids[k] = training[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, np.sum((training - centroids[k]) ** 2, axis=1))
    return centroids


def _reference_assign(training, centroids):
    """The nearest-centroid search the in-place one replaced: three (n, K)
    temporaries."""
    cross = training @ centroids.T
    d2 = np.sum(centroids**2, axis=1)[None, :] - 2.0 * cross
    labels = np.argmin(d2, axis=1)
    dist = d2[np.arange(training.shape[0]), labels] + np.sum(training**2, axis=1)
    return labels, np.maximum(dist, 0.0)


def _reference_gla_train(training, size, tol=1e-6, max_iter=200, seed=0):
    """The Lloyd loop the one-assignment loop replaced: two searches and K
    boolean masks per iteration, each cell's mean taken over its members.
    Returns (centroids, history, degenerate)."""
    training = np.atleast_2d(np.asarray(training, dtype=np.float64))
    degenerate = size > np.unique(training, axis=0).shape[0]
    centroids = _reference_seed_centroids(training, size, np.random.default_rng(seed))
    prev = np.inf
    history = []
    for _ in range(max_iter):
        labels, dist = _reference_assign(training, centroids)
        counts = np.bincount(labels, minlength=size)
        for k in np.flatnonzero(counts == 0):
            far = int(np.argmax(dist))
            centroids[k] = training[far]
            dist[far] = 0.0
        labels, dist = _reference_assign(training, centroids)
        step = float(dist.mean())
        history.append(step)
        for k in range(size):
            members = training[labels == k]
            if members.shape[0]:
                centroids[k] = members.mean(axis=0)
        if np.isfinite(prev) and prev - step <= tol * max(prev, np.finfo(float).tiny):
            break
        prev = step
    return centroids, history, degenerate


def _gla_cases(rng):
    """(training, size, seed): dims 1, 3, 8, 9, 16 and 17, so every tail
    length of the row sums' 8-wide blocks, then a set of few distinct rows,
    so cells go empty and get reseeded."""
    yield rng.standard_normal((700, 1)) * 0.3, 16, 7
    yield rng.standard_normal((500, 3)), 32, 1
    yield rng.standard_normal((600, 8)) * 10.0, 32, 2
    yield rng.standard_normal((600, 9)), 24, 4
    yield rng.standard_normal((900, 16)), 64, 3
    yield rng.standard_normal((700, 17)) * 1e-3, 48, 6
    few = rng.standard_normal((6, 2))
    yield few[rng.integers(6, size=300)], 8, 5


def test_gla_train_matches_reference_bit_for_bit(rng, monkeypatch):
    reseeds = []
    for training, size, seed in _gla_cases(rng):
        want, history, degenerate = _reference_gla_train(training, size, max_iter=40, seed=seed)
        calls = []
        monkeypatch.setattr(numlin, "_assign", lambda x, x2, c: calls.append(1) or _assign(x, x2, c))
        cb = gla_train(training, size, max_iter=40, seed=seed)
        monkeypatch.undo()
        assert cb.centroids.tobytes() == want.tobytes()
        assert cb.history == history and cb.degenerate == degenerate
        reseeds.append(len(calls) - len(history))
    # one search per iteration, plus one after each reseed; the last set reseeds
    assert reseeds[:-1] == [0] * (len(reseeds) - 1) and reseeds[-1] > 0


def test_seeding_matches_reference_bit_for_bit(rng):
    """Every draw as in the per-row seeding, past one row-sum block too."""
    cases = list(_gla_cases(rng))
    cases.append((rng.standard_normal((200, 130)), 16, 8))
    for training, size, seed in cases:
        got = _seed_centroids(training, size, np.random.default_rng(seed))
        want = _reference_seed_centroids(training, size, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()


def test_row_sums_match_np_sum_at_every_width(rng):
    """numpy's summation order, reproduced for rows of 1 to 300 values, one
    block or split: a change to that order fails here instead of moving a
    codebook."""
    for width in list(range(1, 301)) + [511, 1000, 4099]:
        rows = 10.0 ** rng.uniform(-8, 8, (257, width))
        got = _row_sums(np.ascontiguousarray(rows.T))
        assert got.tobytes() == np.sum(rows, axis=1).tobytes(), width


def test_assign_matches_three_temporary_formula(rng):
    for training, size, seed in _gla_cases(rng):
        centroids = _seed_centroids(training, size, np.random.default_rng(seed))
        got = _assign(training, np.sum(training**2, axis=1), centroids)
        for got_part, want_part in zip(got, _reference_assign(training, centroids)):
            assert got_part.tobytes() == want_part.tobytes()


def test_gla_train_peak_memory_is_about_one_distance_matrix():
    training = np.random.default_rng(0).standard_normal((4536, 16))
    tracemalloc.start()
    try:
        gla_train(training, 256, max_iter=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * training.shape[0] * 256 * 8


# --- nearest quantization ---

def test_exact_centroid_hit():
    cb = Codebook(centroids=np.array([[0.0, 0.0], [1.0, 1.0]]))
    idx = quantize_nearest([[1.0, 1.0]], cb)
    assert idx.tolist() == [1] and np.array_equal(cb.centroids[idx[0]], [1.0, 1.0])


def test_tie_goes_to_smaller_index():
    cb = Codebook(centroids=np.array([[-1.0], [1.0]]))
    assert quantize_nearest([[0.0]], cb).tolist() == [0]


def test_matches_linear_scan(rng):
    cb = Codebook(centroids=rng.standard_normal((32, 5)))
    rows = rng.standard_normal((50, 5))
    scan = [min(range(32), key=lambda i: (np.sum((cb.centroids[i] - v) ** 2), i)) for v in rows]
    assert quantize_nearest(rows, cb).tolist() == scan


def test_dimension_mismatch_rejected():
    cb = Codebook(centroids=np.zeros((4, 3)))
    with pytest.raises(ShapeError):
        quantize_nearest([[1.0, 2.0]], cb)
    with pytest.raises(ShapeError):
        quantize_nearest([1.0, 2.0, 3.0], cb)  # one vector, not a (1, dim) row


def test_non_finite_vector_rejected():
    with pytest.raises(NumericError):
        quantize_nearest([[0.0, np.nan, 1.0]], Codebook(centroids=np.zeros((4, 3))))


def _reference_nearest(rows, cb):
    """The per-vector search the batched one replaced: np.sum((c - v) ** 2)
    over each centroid's contiguous row, the first minimum on ties."""
    return [int(np.argmin(np.sum((cb.centroids - v) ** 2, axis=1))) for v in np.asarray(rows, float)]


def _nearest_cases(rng):
    """(rows, codebook) pairs that stress the prefilter's rounding bound."""
    c = rng.standard_normal((64, 16))
    c[10], c[40] = c[3], c[3]  # exact duplicate centroids: the first index wins
    yield np.vstack([c[3], c[40], rng.standard_normal((6, 16))]), Codebook(centroids=c)
    # rows exactly between two centroids, then 1 ulp off towards either side
    mid = (c[5] + c[6]) / 2
    yield np.vstack([mid, np.nextafter(mid, c[5]), np.nextafter(mid, c[6])]), Codebook(centroids=c)
    # equidistant centroids around a row: a ring of points at one distance
    angles = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    yield np.zeros((3, 2)), Codebook(centroids=ring)
    yield np.array([[1e-300, -1e-300], [0.0, 0.0]]), Codebook(centroids=ring * 1e-160)
    # the zero vector against a codebook holding it and its near neighbours
    z = np.vstack([np.full(16, 1e-17), np.zeros(16), -np.full(16, 1e-17), c[:8]])
    yield np.zeros((2, 16)), Codebook(centroids=z)
    # the scalar coefficient codebook: exact ties and near-ties between levels
    levels = np.linspace(-1, 1, 16)[:, None]
    mids = (levels[:-1] + levels[1:]) / 2
    yield np.vstack([mids, np.nextafter(mids, 2), np.nextafter(mids, -2), levels]), Codebook(centroids=levels)
    # large norms: rows and centroids far from the origin, some huge
    big = rng.standard_normal((40, 9)) * 1e150
    yield np.vstack([big[:5] + 1e135, rng.standard_normal((3, 9)) * 1e153]), Codebook(centroids=big)
    yield rng.standard_normal((5, 4)) * 1e200, Codebook(centroids=rng.standard_normal((7, 4)) * 1e200)


def test_batched_nearest_matches_per_row_reference(rng):
    with np.errstate(over="ignore", invalid="ignore"):  # the 1e200 case overflows
        for rows, cb in _nearest_cases(rng):
            assert quantize_nearest(rows, cb).tolist() == _reference_nearest(rows, cb)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 24), st.integers(1, 300), st.integers(-3, 3))
def test_batched_nearest_matches_reference_on_random_codebooks(seed, dim, size, scale):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((size, dim)) * 10.0**scale
    c[rng.integers(size, size=size // 4)] = c[0]
    rows = np.vstack([rng.standard_normal((8, dim)) * 10.0**scale, c[rng.integers(size, size=4)]])
    cb = Codebook(centroids=c)
    assert quantize_nearest(rows, cb).tolist() == _reference_nearest(rows, cb)


# --- codebook files ---

def test_codebook_file_roundtrip(rng, tmp_path):
    cb = gla_train(rng.standard_normal((300, 6)), 16, seed=42)
    path = tmp_path / "cb.hacb"
    save_codebook(cb, path)
    back = load_codebook(path)
    assert np.array_equal(back.centroids, cb.centroids)
    assert back.seed == 42 and back.degenerate == cb.degenerate


def test_codebook_corrupt_file_rejected(tmp_path):
    path = tmp_path / "bad.hacb"
    path.write_bytes(b"XXXX" + b"\x00" * 40)
    with pytest.raises(FormatError):
        load_codebook(path)
    path.write_bytes(b"HACB" + b"\x00" * 10)
    with pytest.raises(FormatError):
        load_codebook(path)


def test_retraining_same_seed_reproduces_bits(rng, tmp_path):
    data = rng.standard_normal((500, 4))
    a = gla_train(data, 8, seed=9)
    b = gla_train(data, 8, seed=9)
    save_codebook(a, tmp_path / "a.hacb")
    save_codebook(b, tmp_path / "b.hacb")
    assert (tmp_path / "a.hacb").read_bytes() == (tmp_path / "b.hacb").read_bytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(0, 1000))
def test_hungarian_property_vs_brute_force(r, seed):
    rng = np.random.default_rng(seed)
    cost = rng.uniform(0, 1, (r, r))
    a = hungarian(cost)
    assert a.total_cost == pytest.approx(brute_force_cost(cost), abs=1e-9)
