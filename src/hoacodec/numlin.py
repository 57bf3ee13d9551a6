"""Shared numerical kernels: SVD, optimal assignment, Lloyd codebook training.

The SVD and the assignment solver wrap LAPACK/scipy primitives behind
deterministic contracts (sign canonicalization, one deterministic solve);
the Generalized Lloyd trainer is implemented here because its seeding,
empty-cell and stopping rules are part of the codec's reproducibility
contract.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from hoacodec.errors import FormatError, NumericError, ShapeError, TrainingError

_CODEBOOK_MAGIC = b"HACB"
_CODEBOOK_VERSION = 1
_FLAG_DEGENERATE = 1
# quantize_nearest keeps the centroids within _NEAREST_ROUNDING * (dim + 4) *
# (max ||c|| + ||x||)^2 of a row's least prefilter value: at least four times
# the 2 * (dim + 2) * eps of that square that the rounding of the prefilter and
# of the exact distance can add up to; the tiny floor covers underflow
_NEAREST_ROUNDING = 8.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny


@dataclass
class SvdResult:
    """Thin SVD A = left @ diag(singular_values) @ right.T, sign-canonicalized."""

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular_values) @ self.right.T


@dataclass
class Assignment:
    """A minimizing bijection for a square cost matrix."""

    permutation: np.ndarray  # target index for each source index
    total_cost: float


@dataclass
class Codebook:
    """A trained set of centroids plus the metadata needed to reproduce it."""

    centroids: np.ndarray  # (size, dim)
    seed: int = 0
    degenerate: bool = False
    # per-iteration training distortions; informational, not serialized
    history: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        self.centroids = np.atleast_2d(np.asarray(self.centroids, dtype=np.float64))
        if self.centroids.shape[0] < 1:
            raise ShapeError("codebook needs at least one centroid")
        if not np.all(np.isfinite(self.centroids)):
            raise NumericError("codebook centroids must be finite")

    @property
    def size(self) -> int:
        return self.centroids.shape[0]

    @functools.cached_property
    def _prefilter_terms(self) -> tuple:
        """For :func:`quantize_nearest`: ||c||^2 per centroid, the largest
        ||c||, and -2 C^T, so that x @ (-2 C^T) + ||c||^2 is the prefilter."""
        sq_norms = np.einsum("ij,ij->i", self.centroids, self.centroids)
        return sq_norms, math.sqrt(float(sq_norms.max())), np.ascontiguousarray(-2.0 * self.centroids.T)

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


def svd(A: np.ndarray) -> SvdResult:
    """Thin SVD with deterministic signs.

    Each right-singular vector is flipped so its largest-magnitude entry is
    positive (first occurrence on ties); the paired left vector is flipped
    with it, keeping the product unchanged.
    """
    A = np.asarray(A, dtype=np.float64)
    if not np.all(np.isfinite(A)):
        raise NumericError("svd input contains non-finite values")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    V = Vt.T
    anchor = np.abs(V).argmax(axis=0)
    signs = np.sign(V[anchor, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    return SvdResult(left=U * signs, singular_values=s, right=V * signs)


def hungarian(cost: np.ndarray) -> Assignment:
    """Minimum-cost assignment: one call of scipy's deterministic solver
    (Crouse, IEEE TAES 2016).  Among tied optima it returns the one that
    solver finds; no caller depends on which."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ShapeError(f"cost matrix must be square, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise NumericError("cost matrix contains non-finite values")
    rows, perm = scipy.optimize.linear_sum_assignment(cost)
    return Assignment(permutation=perm, total_cost=float(cost[rows, perm].sum()))


def _seed_centroids(training: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++-style seeding: spread initial centroids by squared distance."""
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


def _assign(training: np.ndarray, centroids: np.ndarray):
    """Nearest centroid per training vector; ties go to the smaller index."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 ; argmin over c.  One (n, K)
    # matrix, scaled and shifted in place: -2 is exact and c2 + (-2 x.c) is
    # c2 - 2 x.c bit for bit.
    d2 = training @ centroids.T
    d2 *= -2.0
    d2 += np.sum(centroids**2, axis=1)
    labels = np.argmin(d2, axis=1)
    dist = d2[np.arange(training.shape[0]), labels] + np.sum(training**2, axis=1)
    return labels, np.maximum(dist, 0.0)


def gla_train(
    training,
    size: int,
    tol: float = 1e-6,
    max_iter: int = 200,
    seed: int = 0,
) -> Codebook:
    """Generalized Lloyd training of a ``size``-entry codebook.

    Alternates nearest-centroid partition and centroid-mean updates until
    the relative distortion improvement drops below ``tol``.  Empty cells
    are reseeded with the training vector farthest from its current
    centroid.  Deterministic for a fixed seed.
    """
    training = np.atleast_2d(np.asarray(training, dtype=np.float64))
    if training.shape[0] == 0:
        raise TrainingError("empty training set")
    if size < 1:
        raise TrainingError("codebook size must be >= 1")
    distinct = np.unique(training, axis=0).shape[0]
    degenerate = size > distinct

    rng = np.random.default_rng(seed)
    centroids = _seed_centroids(training, size, rng)
    prev = np.inf
    history = []
    for _ in range(max_iter):
        labels, dist = _assign(training, centroids)
        # reseed empty cells before the mean update; only then does the
        # partition change
        counts = np.bincount(labels, minlength=size)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            for k in empty:
                far = int(np.argmax(dist))
                centroids[k] = training[far]
                dist[far] = 0.0
            labels, dist = _assign(training, centroids)
            counts = np.bincount(labels, minlength=size)
        step = float(dist.mean())
        history.append(step)
        # each cell's members, in their original order, are one slice of the
        # label-sorted set: its mean is the masked mean bit for bit
        grouped = training[np.argsort(labels, kind="stable")]
        ends = np.cumsum(counts)
        for k in np.flatnonzero(counts):
            centroids[k] = grouped[ends[k] - counts[k] : ends[k]].mean(axis=0)
        if np.isfinite(prev) and prev - step <= tol * max(prev, np.finfo(float).tiny):
            break
        prev = step
    return Codebook(centroids=centroids, seed=seed, degenerate=degenerate, history=history)


def quantize_nearest(rows, cb: Codebook) -> np.ndarray:
    """Index of the closest centroid to each row of ``rows`` (n, dim).

    The rule: the smallest index among the exact ties of
    ``np.sum((c - x) ** 2)`` over the contiguous last axis.  A GEMM
    prefilter ``||c||^2 - 2 x.c`` (the distance less ``||x||^2``) keeps, per
    row, the centroids within a rounding bound of the row's least value;
    only those are ranked by the exact distance.  The bound covers the
    rounding of both the prefilter and the exact distance (each a float sum
    of dim + 2 terms no larger than ``(max ||c|| + ||x||)^2``), so the
    winner of the exact ranking always survives the prefilter.
    """
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cb.dim:
        raise ShapeError(f"rows have shape {x.shape}, codebook dim {cb.dim}")
    if not np.isfinite(x).all():
        raise NumericError("vectors to quantize must be finite")
    sq_norms, max_norm, scaled = cb._prefilter_terms
    prefilter = x @ scaled + sq_norms
    best = prefilter.argmin(axis=1)  # right wherever it is the only survivor
    reach = max_norm + np.sqrt(np.einsum("ij,ij->i", x, x))
    bound = _NEAREST_ROUNDING * (cb.dim + 4) * reach**2 + _TINY
    # a NaN or infinite bound (overflow) keeps every centroid
    keep = ~(prefilter > (prefilter[np.arange(len(x)), best] + bound)[:, None])
    multi = np.flatnonzero(keep.sum(axis=1) > 1)
    if multi.size:
        row, col = np.nonzero(keep[multi])
        exact = np.full((multi.size, cb.size), np.inf)
        exact[row, col] = np.sum((cb.centroids[col] - x[multi[row]]) ** 2, axis=1)
        best[multi] = np.argmin(exact, axis=1)  # the first of equal minima
    return best


# --------------------------------------------------------------------------
# Codebook file format: little-endian, versioned.
#   magic 'HACB' | u16 version | u16 flags | u32 dim | u32 size | u64 seed
#   followed by size*dim float64 centroids, row-major.
# --------------------------------------------------------------------------

def save_codebook(cb: Codebook, path) -> None:
    header = _CODEBOOK_MAGIC + struct.pack(
        "<HHIIQ",
        _CODEBOOK_VERSION,
        _FLAG_DEGENERATE if cb.degenerate else 0,
        cb.dim,
        cb.size,
        cb.seed,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(cb.centroids.astype("<f8").tobytes())


def load_codebook(path) -> Codebook:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 24 or data[:4] != _CODEBOOK_MAGIC:
        raise FormatError(f"{path}: not a codebook file")
    version, flags, dim, size, seed = struct.unpack_from("<HHIIQ", data, 4)
    if version != _CODEBOOK_VERSION:
        raise FormatError(f"{path}: unsupported codebook version {version}")
    body = data[24:]
    expect = dim * size * 8
    if len(body) != expect:
        raise FormatError(f"{path}: payload is {len(body)} bytes, expected {expect}")
    centroids = np.frombuffer(body, dtype="<f8").reshape(size, dim).copy()
    return Codebook(centroids=centroids, seed=seed, degenerate=bool(flags & _FLAG_DEGENERATE))
