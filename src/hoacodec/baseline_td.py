"""Time-domain blockwise-SVD reference path.

Each 2L-sample frame is decomposed with an SVD; the truncated, quantized
basis is matched to the previous frame (Hungarian on correlation magnitude,
sign correction), interpolated per sample across the frame's advance
region, and used to split the frame into foreground components and an
ambient residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hoacodec.errors import DegenerateBasisError, ShapeError
from hoacodec.numlin import hungarian, svd

CONDITION_CAP = 1e8


@dataclass
class TruncatedBasis:
    """First r (quantized) right-singular vectors of one frame, M x r."""

    vectors: np.ndarray
    frame: int = 0

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ShapeError("basis must be an M x r matrix")
        if self.vectors.shape[1] > self.vectors.shape[0]:
            raise ShapeError("rank r cannot exceed channel count M")

    @property
    def rank(self) -> int:
        return self.vectors.shape[1]


@dataclass
class InterpolationWindow:
    """Blend weights w(l), l in [0, L): 0-ish at the seam, exactly 1 at l=L-1."""

    values: np.ndarray

    @classmethod
    def make(cls, half_length: int) -> "InterpolationWindow":
        """The triangular window (l + 1) / L."""
        return cls(values=(np.arange(half_length) + 1) / half_length)


@dataclass
class FrameDecomposition:
    """Foreground components and the ambient residual of one frame."""

    foreground: np.ndarray  # (2L, r)
    ambient: np.ndarray  # (2L, M)


def extract_foreground(X: np.ndarray, basis: TruncatedBasis) -> np.ndarray:
    """Project a frame onto the quantized basis: X V (V^T V)^{-1}.

    The Gram inverse renormalizes the quantized, no-longer-orthonormal
    columns; the result is the least-squares minimizer of ||X - Y V^T||.
    """
    V = basis.vectors
    if X.shape[1] != V.shape[0]:
        raise ShapeError(f"frame has {X.shape[1]} channels, basis {V.shape[0]}")
    if V.shape[1] == 0:  # rank-0 test mode: empty foreground
        return np.zeros((X.shape[0], 0))
    gram = V.T @ V
    if np.linalg.cond(gram) > CONDITION_CAP:
        raise DegenerateBasisError(
            f"basis Gram matrix condition exceeds {CONDITION_CAP:g}"
        )
    return np.linalg.solve(gram, (X @ V).T).T


def drop_degenerate_columns(basis: TruncatedBasis) -> np.ndarray:
    """Boolean keep-mask: greedily drop later columns until the Gram
    matrix of the kept ones is invertible within the condition cap.
    All-False when even a single column is unusable (zero basis)."""
    V = basis.vectors
    keep = np.ones(V.shape[1], dtype=bool)
    while keep.any():
        sub = V[:, keep]
        if np.linalg.cond(sub.T @ sub) <= CONDITION_CAP:
            break
        keep[np.flatnonzero(keep)[-1]] = False
    return keep


def match_bases(prev: TruncatedBasis, cur: TruncatedBasis):
    """Align the current basis with the previous one.

    Hungarian assignment on cost 1 - |corr| between columns, then sign
    flips so every matched pair has a non-negative dot product.  Returns
    (assignment, signs, aligned) where aligned[:, i] corresponds to
    prev[:, i].
    """
    P, C = prev.vectors, cur.vectors
    if P.shape != C.shape:
        raise ShapeError("bases must share M and r")
    pn = np.linalg.norm(P, axis=0)
    cn = np.linalg.norm(C, axis=0)
    denom = np.outer(pn, cn)
    denom[denom == 0] = 1.0
    corr = (P.T @ C) / denom
    assignment = hungarian(1.0 - np.abs(corr))
    perm = assignment.permutation
    signs = np.where(corr[np.arange(len(perm)), perm] < 0, -1.0, 1.0)
    aligned = C[:, perm] * signs
    return assignment, signs, TruncatedBasis(vectors=aligned, frame=cur.frame)


def interpolate_basis(
    prev: TruncatedBasis, cur: TruncatedBasis, window: InterpolationWindow
) -> np.ndarray:
    """Per-sample blend (1-w(l)) prev + w(l) cur.

    Returns an (L, M, r) array; bases must already be matched and
    sign-aligned.
    """
    if prev.vectors.shape != cur.vectors.shape:
        raise ShapeError("bases must share M and r")
    w = window.values[:, None, None]
    return (1.0 - w) * prev.vectors[None] + w * cur.vectors[None]


def truncated_basis(X: np.ndarray, rank: int, frame: int = 0) -> TruncatedBasis:
    """SVD of a frame and truncation of V to the first ``rank`` columns."""
    res = svd(X)
    return TruncatedBasis(vectors=res.right[:, :rank], frame=frame)


def foreground_with_fallback(X: np.ndarray, basis: TruncatedBasis) -> np.ndarray:
    """Eq-style projection with the degenerate-column fallback: columns
    that would make the Gram matrix singular get a zero foreground."""
    try:
        return extract_foreground(X, basis)
    except DegenerateBasisError:
        keep = drop_degenerate_columns(basis)
        foreground = np.zeros((X.shape[0], basis.rank))
        if keep.any():
            sub = TruncatedBasis(vectors=basis.vectors[:, keep], frame=basis.frame)
            foreground[:, keep] = extract_foreground(X, sub)
        return foreground


def decompose_frame(
    X: np.ndarray,
    basis: TruncatedBasis,
    prev_basis: TruncatedBasis | None,
    window: InterpolationWindow,
) -> FrameDecomposition:
    """Split a frame given its (quantized) basis and the previous one.

    Foreground comes from the frame-end basis; the back-transform uses the
    per-sample interpolated bases over the advance region (first L samples)
    and the frame-end basis over the trailing half.
    """
    L = X.shape[0] // 2
    prev = prev_basis if prev_basis is not None else basis
    foreground = foreground_with_fallback(X, basis)
    approx = np.empty_like(X)
    approx[:L] = np.einsum("lr,lmr->lm", foreground[:L], interpolate_basis(prev, basis, window))
    approx[L:] = foreground[L:] @ basis.vectors.T
    return FrameDecomposition(foreground=foreground, ambient=X - approx)
