"""Windowed MDCT analysis/synthesis with perfect-reconstruction overlap-add.

Forward transform of a 2L-sample windowed block z:

    X[k] = sum_{l=0}^{2L-1} z[l] cos[(pi/L)(l + 1/2 + L/2)(k + 1/2)]

computed through the standard DCT-IV folding.  The inverse applies the
matching unfold and the synthesis window (identical to the analysis
window); overlap-adding consecutive blocks at hop L cancels the
time-domain aliasing exactly for any Princen-Bradley window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from hoacodec.errors import ShapeError
from hoacodec.hoa_io import segment_frames


def _half_length(window: np.ndarray) -> int:
    """L of a 2L-sample window; it must be a 1-D array of even length."""
    if window.ndim != 1 or window.size % 2:
        raise ShapeError("window must be a 1-D array of even length")
    return window.size // 2


_WINDOW_TOL = 1e-12  # the largest asymmetry and Princen-Bradley error check_window allows


def check_window(window: np.ndarray) -> None:
    """Raise if the window is asymmetric or violates Princen-Bradley."""
    L = _half_length(window)
    if np.max(np.abs(window - window[::-1])) > _WINDOW_TOL:
        raise ShapeError("window is not symmetric")
    pb = window[:L] ** 2 + window[L:] ** 2
    if np.max(np.abs(pb - 1.0)) > _WINDOW_TOL:
        raise ShapeError("window violates the Princen-Bradley condition")


def sine_window(half_length: int) -> np.ndarray:
    """w(l) = sin[(pi/2L)(l + 1/2)], the common MDCT default, as a read-only
    (2L,) array; the MDCT's folding needs an even half length of at least 2."""
    if half_length < 2 or half_length % 2:
        raise ShapeError(f"half length {half_length} is not an even number of at least 2")
    window = np.sin(np.pi / (2 * half_length) * (np.arange(2 * half_length) + 0.5))
    window.setflags(write=False)
    return window


@dataclass
class SpectralFrame:
    """L x M MDCT coefficients of one frame."""

    index: int
    coeffs: np.ndarray


def _dct4(u: np.ndarray) -> np.ndarray:
    # scipy's DCT-IV carries a factor 2 relative to the plain cosine sum
    return 0.5 * scipy.fft.dct(u, type=4, axis=0)


def mdct_forward(x: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Window a 2L x M frame by the (2L,) ``window`` and return its L x M
    MDCT coefficients."""
    L = _half_length(window)
    if x.ndim != 2 or x.shape[0] != 2 * L:
        raise ShapeError(
            f"frame has {x.shape[0] if x.ndim == 2 else x.ndim} rows, expected {2 * L}"
        )
    z = window[:, None] * x
    h = L // 2
    a, b, c, d = z[:h], z[h:L], z[L : L + h], z[L + h :]
    folded = np.concatenate([-c[::-1] - d, a - b[::-1]], axis=0)
    return _dct4(folded)


def mdct_inverse(X: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Inverse MDCT of L x M coefficients plus synthesis windowing; returns
    a 2L x M block."""
    L = _half_length(window)
    if X.ndim != 2 or X.shape[0] != L:
        raise ShapeError(
            f"spectrum has {X.shape[0] if X.ndim == 2 else X.ndim} rows, expected {L}"
        )
    t = _dct4(X) * (2.0 / L)
    h = L // 2
    y = np.empty((2 * L, X.shape[1]))
    y[:h] = t[h:]
    y[h : L + h] = -t[::-1]
    y[L + h :] = -t[:h]
    return window[:, None] * y


def analyze(signal_samples: np.ndarray, half_length: int, window: np.ndarray | None = None):
    """MDCT-transform a (length, channels) array; returns (frames, window),
    frame f a :class:`SpectralFrame` of index f.

    Convenience wrapper chaining :func:`hoa_io.segment_frames` and the
    forward transform the way both pipelines consume per-channel-group
    signals.
    """
    if window is None:
        window = sine_window(half_length)
    frames = segment_frames(signal_samples, half_length)
    return [SpectralFrame(index=f, coeffs=mdct_forward(x, window)) for f, x in enumerate(frames)], window


def overlap_add(spectra, window: np.ndarray):
    """Inverse-MDCT each L x M spectrum as it arrives and overlap-add the
    blocks at hop L: block f lands on samples [fL, fL + 2L) of the padded
    timeline (:func:`hoa_io.pad_signal`).  Right after block f this yields
    samples [fL, fL + L), which no later block reaches, and after the last
    of F blocks the tail [FL, FL + L).  Each sample is the sum of its blocks
    in frame order, added onto 0.0."""
    L = _half_length(window)
    pending = None  # the 2L samples the next block lands on
    for f, sp in enumerate(spectra):
        block = mdct_inverse(sp, window)
        if pending is None:
            pending = np.zeros_like(block)
        elif block.shape != pending.shape:
            raise ShapeError(f"block {f} has shape {block.shape}, expected {pending.shape}")
        pending += block
        yield pending[:L].copy()
        pending[:L] = pending[L:]
        pending[L:] = 0.0
    if pending is not None:
        yield pending[:L]


def synthesize(spectra, window: np.ndarray, original_length: int) -> np.ndarray:
    """Inverse of :func:`analyze` for any iterable of :class:`SpectralFrame`:
    the samples :func:`overlap_add` yields after the head padding, the first
    ``original_length`` of them, or all F*L of F spectra if that is fewer."""
    hops = overlap_add((sp.coeffs for sp in spectra), window)
    next(hops, None)  # the head padding
    out, end = np.zeros((0, 0)), 0
    for hop in hops:
        if not end:
            out = np.empty((original_length, hop.shape[1]))
        n = min(len(hop), original_length - end)
        out[end : end + n] = hop[:n]
        end += n
    return out[:end]
