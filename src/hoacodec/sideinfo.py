"""Compression of the truncated basis matrices across frames.

Per band, the current basis is Hungarian-matched and sign-aligned to the
previous frame's reconstruction, each column is predicted with a scalar
coefficient equal to the correlation coefficient, and coefficient plus
residual vector are quantized with GLA-trained codebooks.  Encoder and
decoder share one reconstruction routine and both operate on reconstructed
(not original) previous bases, so their states can never drift apart.

On a mode switch the band structure changes and there is no per-band
predecessor; each column is then predicted from the best-correlated column
available anywhere in the previous frame, with the chosen reference index
transmitted.

Encoding and decoding walk the one syntax in :func:`_side_info`; in bypass
(no quantizer set) the bases travel as raw float64 through the same walk.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hoacodec.baseline_td import TruncatedBasis, match_bases, truncated_basis
from hoacodec.bitio import BitReader, BitWriter, factorial_bits, lehmer_encode
from hoacodec.errors import ConfigurationError, ShapeError, StreamError, TrainingError
from hoacodec.freq_svd import MODE_FOUR_BANDS, MODE_SINGLE_BAND, mode_bases
from hoacodec.hoa_io import segment_frames
from hoacodec.numlin import Codebook, gla_train, load_codebook, quantize_nearest, save_codebook
from hoacodec.transform import analyze, sine_window

_NORM_EPS = 1e-12

_COEFF_FILE = "coeff.hacb"
_RESIDUAL_FILE = "residual.hacb"
_INTRA_FILE = "intra.hacb"


@dataclass
class QuantizerSet:
    """The three codebooks side-info coding needs for a given channel count."""

    coeff: Codebook  # scalar prediction coefficients
    residual: Codebook  # M-dim prediction residuals
    intra: Codebook  # M-dim unpredicted columns

    def __post_init__(self):
        if self.coeff.dim != 1:
            raise ConfigurationError("coefficient codebook must be scalar")
        if self.residual.dim != self.intra.dim:
            raise ConfigurationError("residual/intra codebooks disagree on dimension")

    @property
    def dim(self) -> int:
        return self.residual.dim

    def fingerprint(self) -> int:
        crc = 0
        for cb in (self.coeff, self.residual, self.intra):
            crc = zlib.crc32(cb.centroids.astype("<f8").tobytes(), crc)
        return crc

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_codebook(self.coeff, directory / _COEFF_FILE)
        save_codebook(self.residual, directory / _RESIDUAL_FILE)
        save_codebook(self.intra, directory / _INTRA_FILE)

    @classmethod
    def load(cls, directory) -> "QuantizerSet":
        directory = Path(directory)
        for name in (_COEFF_FILE, _RESIDUAL_FILE, _INTRA_FILE):
            if not (directory / name).exists():
                raise ConfigurationError(
                    f"missing codebook {name} in {directory}; "
                    "run 'hoacodec train-quantizers' first"
                )
        return cls(
            coeff=load_codebook(directory / _COEFF_FILE),
            residual=load_codebook(directory / _RESIDUAL_FILE),
            intra=load_codebook(directory / _INTRA_FILE),
        )


@dataclass
class SideInfoFrame:
    """One frame's side info: its mode, its size and how its columns were coded."""

    mode: int
    switched: bool = False
    bit_count: int = 0
    intra_columns: int = 0
    predicted_columns: int = 0  # from the same column of the band's previous basis
    switched_columns: int = 0  # from a column of the previous frame's pool


class SideInfoState:
    """Reconstruction state shared (by value) between encoder and decoder."""

    def __init__(self):
        self.prev_bases: list | None = None  # list of (M, r) arrays, unit columns
        self.prev_mode: int | None = None

    def pool(self) -> np.ndarray:
        """All previous columns side by side, (M, total)."""
        return np.concatenate(self.prev_bases, axis=1)

    def copy(self) -> "SideInfoState":
        """An independent state, e.g. for one trial encode of a frame; the
        arrays are shared because a walk replaces them and never writes them."""
        clone = SideInfoState()
        clone.prev_bases, clone.prev_mode = self.prev_bases, self.prev_mode
        return clone


class _Fields:
    """The bit I/O of one side-info walk.  Writing, a field stores the
    encoder's value; reading, it returns the stream's value after checking
    it against the field's limit (:class:`StreamError` naming the field)."""

    def __init__(self, io):
        self.io = io
        self.reading = isinstance(io, BitReader)

    @property
    def position(self) -> int:
        return self.io.bit_position if self.reading else self.io.bit_length

    def uint(self, name: str, limit: int, value: int = 0, bits: int | None = None) -> int:
        """A value below ``limit`` in ``bits`` bits (default cb(limit), at least 1)."""
        if bits is None:
            bits = max(1, (limit - 1).bit_length())
        if not self.reading:
            self.io.write(value, bits)
            return value
        value = self.io.read(bits)
        if value >= limit:
            raise StreamError(f"{name} {value} out of range (limit {limit})")
        return value

    def flag(self, value: bool = False) -> bool:
        return bool(self.uint("flag", 2, int(value)))

    def floats(self, shape: tuple, value: np.ndarray | None = None) -> np.ndarray:
        if not self.reading:
            self.io.write_f64_array(value)
            return value
        return self.io.read_f64_array(shape)


def _renormalize(v: np.ndarray, fallback_axis: int, dim: int) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n < _NORM_EPS:
        out = np.zeros(dim)
        out[fallback_axis % dim] = 1.0
        return out
    return v / n


def _reconstruct_predicted(
    q: QuantizerSet, coeff_index: int, residual_index: int, ref: np.ndarray, col: int
) -> np.ndarray:
    rho = float(q.coeff.centroids[coeff_index, 0])
    res = q.residual.centroids[residual_index]
    return _renormalize(rho * ref + res, col, q.dim)


def _reconstruct_intra(q: QuantizerSet, index: int, col: int) -> np.ndarray:
    return _renormalize(q.intra.centroids[index].copy(), col, q.dim)


def predict_basis(prev: TruncatedBasis, cur: TruncatedBasis):
    """Per-column correlation coefficient and prediction residual.

    Bases must already be matched and sign-aligned; columns with a
    zero-norm partner get rho = 0 and the raw column as residual (the
    intra fallback kicks in at coding time).
    """
    P, C = prev.vectors, cur.vectors
    if P.shape != C.shape:
        raise ShapeError("bases must share M and r")
    pn = np.linalg.norm(P, axis=0)
    cn = np.linalg.norm(C, axis=0)
    denom = pn * cn
    rho = np.where(denom > _NORM_EPS, np.einsum("mi,mi->i", P, C) / np.maximum(denom, _NORM_EPS), 0.0)
    residual = C - rho[None, :] * P
    return rho, residual


def _choose(q: QuantizerSet, target: np.ndarray, ref: np.ndarray, col: int) -> tuple:
    """The encoder's coding of one column, (intra, intra index, coeff index,
    residual index): predicted from ``ref`` when that reconstructs no worse
    than intra."""
    intra_idx, _ = quantize_nearest(target, q.intra)
    intra_err = float(np.sum((_reconstruct_intra(q, intra_idx, col) - target) ** 2))
    if np.linalg.norm(ref) > _NORM_EPS:
        c_idx, _ = quantize_nearest([float(target @ ref)], q.coeff)
        r_idx, _ = quantize_nearest(target - float(q.coeff.centroids[c_idx, 0]) * ref, q.residual)
        pred_err = float(np.sum((_reconstruct_predicted(q, c_idx, r_idx, ref, col) - target) ** 2))
        if pred_err <= intra_err:
            return False, 0, c_idx, r_idx
    return True, intra_idx, 0, 0


def _column(f: _Fields, q, k: int, info: SideInfoFrame, target, ref, pool=None) -> np.ndarray:
    """column_intra:u1, then an intra index, or a prediction: on a mode
    switch from the ``pool`` column the stream names (ref_index, sign), else
    from ``ref``.  ``target`` is the encoder's column, None when decoding."""
    ref_index, flip, choice = 0, False, (False, 0, 0, 0)
    if target is not None:
        if pool is not None:
            corrs = target @ pool
            ref_index = int(np.argmax(np.abs(corrs)))
            flip = bool(corrs[ref_index] < 0)
            target, ref = (-target if flip else target), pool[:, ref_index]
        choice = _choose(q, target, ref, k)
    intra, intra_index, coeff_index, residual_index = choice
    if f.flag(intra):
        info.intra_columns += 1
        return _reconstruct_intra(q, f.uint("intra codebook index", q.intra.size, intra_index), k)
    if pool is not None:
        ref = pool[:, f.uint("prediction reference", pool.shape[1], ref_index)]
        f.flag(flip)
        info.switched_columns += 1
    else:
        info.predicted_columns += 1
    coeff_index = f.uint("coefficient codebook index", q.coeff.size, coeff_index)
    residual_index = f.uint("residual codebook index", q.residual.size, residual_index)
    return _reconstruct_predicted(q, coeff_index, residual_index, ref, k)


def _band(f: _Fields, q, state: SideInfoState, band: int, r: int, info, raw) -> np.ndarray:
    """intra_band:u1, then r intra indices or a predicted band; ``raw`` is
    the encoder's (M, r) basis, None when decoding."""
    recon = np.empty((q.dim, r))
    if f.flag(state.prev_bases is None):
        for k in range(r):
            idx = 0 if raw is None else quantize_nearest(raw[:, k], q.intra)[0]
            recon[:, k] = _reconstruct_intra(q, f.uint("intra codebook index", q.intra.size, idx), k)
        info.intra_columns += r
        return recon
    if state.prev_bases is None:
        raise StreamError("predicted band before any intra frame")
    pool, prev, targets = None, None, raw
    if info.switched:
        pool = state.pool()
    else:
        prev = state.prev_bases[band]
        perm, signs = 0, [1.0] * r
        if raw is not None:
            assignment, signs, aligned = match_bases(
                TruncatedBasis(vectors=prev), TruncatedBasis(vectors=raw)
            )
            perm, targets = lehmer_encode(assignment.permutation.tolist()), aligned.vectors
        f.uint("permutation index", math.factorial(r), perm, factorial_bits(r))
        for s in signs:
            f.flag(s < 0)
    for k in range(r):
        target = None if targets is None else targets[:, k]
        recon[:, k] = _column(f, q, k, info, target, None if prev is None else prev[:, k], pool)
    return recon


def _side_info(f: _Fields, q, state, ranks: dict, mode=0, raw=None, channels=None) -> tuple:
    """The one side-info syntax (docs/bitstream.md § Side info):

        side_info := mode:u1 ( band+ | bypass_basis+ )

    Encodes ``raw`` (per band, the (M, r) basis) when it is given, running
    the encoder's decisions, else decodes.  ``q`` None is bypass: each basis
    is ``channels`` x r raw float64.  Advances ``state``."""
    start = f.position
    mode = f.uint("mode", 2, mode)
    info = SideInfoFrame(mode=mode, switched=state.prev_mode is not None and state.prev_mode != mode)
    bases = []
    for band, r in enumerate(ranks[mode]):
        target = None if raw is None else raw[band]
        if q is None:
            bases.append(f.floats((channels, r), target))
        else:
            bases.append(_band(f, q, state, band, r, info, target))
    state.prev_bases = [b.copy() for b in bases]
    state.prev_mode = mode
    info.bit_count = f.position - start
    return info, bases


def encode_sideinfo(
    raw_bases: list,
    mode: int,
    q: QuantizerSet | None,
    state: SideInfoState,
    writer: BitWriter,
) -> tuple:
    """Quantize one frame's bases and serialize them.

    ``raw_bases``: per band, the (M, r) truncated right-singular vectors in
    singular-value order; ``q`` None writes them as raw float64 (bypass).
    Returns (SideInfoFrame, reconstructed bases); ``state`` is advanced to
    the reconstructions.
    """
    if q is not None and any(b.shape[0] != q.dim for b in raw_bases):
        raise ConfigurationError(
            f"quantizers trained for {q.dim} channels, stream differs"
        )
    ranks = {mode: [b.shape[1] for b in raw_bases]}
    return _side_info(_Fields(writer), q, state, ranks, mode, raw_bases)


def decode_sideinfo(
    reader: BitReader,
    q: QuantizerSet | None,
    state: SideInfoState,
    ranks: dict,
    channels: int | None = None,
) -> tuple:
    """Read what :func:`encode_sideinfo` writes.

    ``ranks``: per mode, the per-band column counts; ``channels``: the row
    count of bypass bases (``q`` None).  Raises :class:`StreamError` on a
    truncated or out-of-range field.
    """
    return _side_info(_Fields(reader), q, state, ranks, channels=channels)


# --------------------------------------------------------------------------
# Quantizer training
# --------------------------------------------------------------------------

@dataclass
class TrainingConfig:
    half_length: int = 1024
    rank: int = 4
    coeff_size: int = 16
    residual_size: int = 256
    intra_size: int = 256
    seed: int = 7
    tol: float = 1e-6
    max_iter: int = 100
    max_frames: int = 12000


def _raw_basis_frames(signals, config: TrainingConfig):
    """(previous, current) raw bases of each frame of the time-domain path
    (one basis), then of each mode of the frequency-domain path (per-band
    bases), signal after signal; a path's first frame has None before it."""
    L = config.half_length
    window = sine_window(L)
    for sig in signals:
        streams = [[[truncated_basis(fr.samples, config.rank).vectors] for fr in segment_frames(sig.samples, L)]]
        specs, _ = analyze(sig.samples, L, window)
        for mode in (MODE_SINGLE_BAND, MODE_FOUR_BANDS):
            streams.append([mode_bases(sp, mode, config.rank)[2] for sp in specs])
        for stream in streams:
            yield from zip([None] + stream, stream)


def harvest_training_pairs(signals, config: TrainingConfig):
    """Open-loop analysis of both pipelines to collect training material.

    Takes the raw bases of the time-domain path (one per frame) and of both
    modes of the frequency-domain path (:func:`freq_svd.mode_bases`) over
    every signal, matches each frame's truncated basis to the previous
    frame's, and records (rho, residual) pairs plus the raw columns for the
    intra codebook, from the first ``config.max_frames`` frames in all.
    """
    rhos, residuals, intras = [], [], []
    for prev, frame_bases in itertools.islice(_raw_basis_frames(signals, config), config.max_frames):
        for band_idx, raw in enumerate(frame_bases):
            for k in range(raw.shape[1]):
                intras.append(raw[:, k])
            if prev is not None and len(prev) == len(frame_bases):
                _, _, aligned = match_bases(
                    TruncatedBasis(vectors=prev[band_idx]),
                    TruncatedBasis(vectors=raw),
                )
                rho, residual = predict_basis(
                    TruncatedBasis(vectors=prev[band_idx]),
                    TruncatedBasis(vectors=aligned.vectors),
                )
                rhos.extend(rho.tolist())
                residuals.extend(residual.T)
    return np.asarray(rhos)[:, None], np.asarray(residuals), np.asarray(intras)


def train_quantizers(signals, config: TrainingConfig | None = None) -> QuantizerSet:
    """GLA-train the three codebooks from a corpus of HoaSignals."""
    config = config or TrainingConfig()
    rhos, residuals, intras = harvest_training_pairs(signals, config)
    if rhos.shape[0] < config.coeff_size or intras.shape[0] < config.intra_size:
        raise TrainingError(
            f"corpus yielded {rhos.shape[0]} prediction pairs and "
            f"{intras.shape[0]} columns; too few for the requested codebooks"
        )
    common = dict(tol=config.tol, max_iter=config.max_iter, seed=config.seed)
    return QuantizerSet(
        coeff=gla_train(rhos, config.coeff_size, **common),
        residual=gla_train(residuals, config.residual_size, **common),
        intra=gla_train(intras, config.intra_size, **common),
    )
