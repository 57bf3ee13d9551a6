"""Frequency-domain SVD path: per-band decomposition of MDCT frames.

The spectrum of each frame is partitioned into contiguous bands, each band
gets its own SVD and truncated (quantized) basis, foreground components are
extracted per band with the same Gram-renormalized projection as the
time-domain path, and the residual's ambisonics order is reduced.  The
MDCT's built-in overlap supplies inter-frame continuity, so no basis
matching or interpolation is needed for reconstruction smoothness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hoacodec.baseline_td import foreground_with_fallback, truncated_basis
from hoacodec.errors import ShapeError
from hoacodec.numlin import svd
from hoacodec.transform import SpectralFrame

MODE_SINGLE_BAND = 0
MODE_FOUR_BANDS = 1
BANDS = 4  # band count of MODE_FOUR_BANDS, fixed by the stream format


def layout_for_mode(mode: int, num_bins: int) -> tuple:
    """The (start, stop) bin range of each band of the two per-frame coding
    modes, low to high: 1 band or :data:`BANDS` uniform bands."""
    if mode == MODE_SINGLE_BAND:
        return ((0, num_bins),)
    if mode != MODE_FOUR_BANDS:
        raise ShapeError(f"unknown mode {mode}")
    if num_bins % BANDS:
        raise ShapeError(f"{num_bins} bins do not split into {BANDS} uniform bands")
    width = num_bins // BANDS
    return tuple((b * width, (b + 1) * width) for b in range(BANDS))


@dataclass
class BandDecomposition:
    """Per-band quantized bases and foreground components of one frame."""

    layout: tuple  # (start, stop) bin range per band
    bases: list  # of TruncatedBasis, one per band (quantized)
    foregrounds: list  # of (l_i, r_i) arrays


def band_split(spec: SpectralFrame, layout: tuple) -> list:
    """Row-contiguous partition of the L x M coefficient matrix by the
    (start, stop) ranges of ``layout``, which must tile its rows low to
    high, none empty."""
    S = spec.coeffs
    stops = [0] + [b for _, b in layout]
    if any(a != stop or b <= a for (a, b), stop in zip(layout, stops)) or stops[-1] != S.shape[0]:
        raise ShapeError(f"bands {layout} do not tile the frame's {S.shape[0]} bins, each nonempty")
    return [S[a:b] for a, b in layout]


def mode_bases(S: np.ndarray, mode: int, rank: int) -> tuple:
    """The analysis of an L x M spectrum in one coding mode: (per-band
    coefficient rows, per-band raw truncated bases as (M, rank) arrays).
    The proposed encoder's RD trials and codebook training both start from
    it."""
    parts = [S[a:b] for a, b in layout_for_mode(mode, S.shape[0])]
    return parts, [truncated_basis(b, rank).vectors for b in parts]


def band_decompose(bands: list, rank: int, layout: tuple) -> BandDecomposition:
    """Per-band SVD, truncation to ``rank`` columns, and projection."""
    out_bases = []
    foregrounds = []
    for i, band in enumerate(bands):
        if band.shape[0] < rank:
            raise ShapeError(
                f"band {i} has {band.shape[0]} bins, cannot retain {rank} components"
            )
        basis = truncated_basis(band, rank, frame=i)
        out_bases.append(basis)
        foregrounds.append(foreground_with_fallback(band, basis))
    return BandDecomposition(layout=layout, bases=out_bases, foregrounds=foregrounds)


def back_project(foregrounds: list, bases: list) -> np.ndarray:
    """Stack the per-band back-projections Y_i V_i^T: per band the (l_i, r)
    foreground and the (M, r) basis, stacked into a (sum l_i, M) matrix.

    The one back-projection of the encoder, its RD trials and the decoder.
    A matrix product's rounding can depend on its operands' memory layout,
    so callers that must agree bit for bit pass foregrounds of one layout.
    """
    return np.concatenate([fg @ V.T for fg, V in zip(foregrounds, bases)], axis=0)


def reconstruct_spectrum(dec: BandDecomposition) -> np.ndarray:
    """The decomposition's L x M approximation (:func:`back_project`)."""
    return back_project(dec.foregrounds, [basis.vectors for basis in dec.bases])


def compute_residual(spec: SpectralFrame, dec: BandDecomposition) -> np.ndarray:
    """S minus the stacked per-band approximation."""
    approx = reconstruct_spectrum(dec)
    if approx.shape != spec.coeffs.shape:
        raise ShapeError("decomposition does not match the frame shape")
    return spec.coeffs - approx


def compaction_gain(spec: SpectralFrame, rank: int, layout: tuple):
    """Energy captured by a global rank-r SVD vs per-band rank-r SVDs.

    Returns (energy_global, energy_banded); the banded value can never be
    below the global one since each band may choose its own basis.
    """
    if rank < 1:
        raise ShapeError(f"rank {rank} below 1")
    if rank > spec.coeffs.shape[1]:
        raise ShapeError("rank exceeds channel count")
    s_global = svd(spec.coeffs).singular_values
    energy_global = float(np.sum(s_global[:rank] ** 2))
    energy_banded = 0.0
    for band in band_split(spec, layout):
        s = svd(band).singular_values
        energy_banded += float(np.sum(s[:rank] ** 2))
    return energy_global, energy_banded
