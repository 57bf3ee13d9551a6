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

Encoding and decoding walk the one syntax in :func:`_side_info` and rebuild
the bases from its fields with the one :func:`_rebuilt`; in bypass (no
quantizer set) the bases travel as raw float64 through the same walk.
"""

from __future__ import annotations

import functools
import itertools
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hoacodec.baseline_td import TruncatedBasis, match_bases, truncated_basis
from hoacodec.bitio import BitReader, BitWriter
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

    @functools.cached_property
    def intra_units(self) -> tuple:
        """The intra centroids renormalized as reconstruction does, and which
        of them have zero norm (those fall back per column); encoder and
        decoder share it."""
        units = self.intra.centroids.copy()
        zero = np.array([math.sqrt(row.dot(row)) < _NORM_EPS for row in units])
        for row in units:
            _renormalize(row, 0)
        return units, zero

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
    """Reconstruction state shared (by value) between encoder and decoder;
    a walk that only parses leaves ``prev_bases`` None."""

    def __init__(self):
        self.prev_bases: list | None = None  # list of (M, r) arrays, unit columns
        self.prev_mode: int | None = None  # None before the first frame
        self.prev_columns = 0  # the previous frame's columns: the pool's width

    def pool(self) -> np.ndarray:
        """All previous columns side by side, (M, total)."""
        return np.concatenate(self.prev_bases, axis=1)

    def copy(self) -> "SideInfoState":
        """An independent state, e.g. for one trial encode of a frame; the
        arrays are shared because a walk replaces them and never writes them."""
        clone = SideInfoState()
        clone.prev_bases, clone.prev_mode, clone.prev_columns = self.prev_bases, self.prev_mode, self.prev_columns
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

    def uint(self, name: str, limit: int, value: int = 0) -> int:
        """A value below ``limit`` in cb(limit) bits, at least 1."""
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
        """Raw float64 basis values; one read above RAW_BASIS_BOUND in
        magnitude, or NaN, is a :class:`StreamError`."""
        if not self.reading:
            self.io.write_f64_array(value)
            return value
        return require_bounded(self.io.read_f64_array(shape), RAW_BASIS_BOUND, "raw basis")


RAW_BASIS_BOUND = 1.0 + 1e-9  # unit columns (pipeline._RAW_CHANNEL_BOUND says why)


def require_bounded(values: np.ndarray, bound: float, what: str) -> np.ndarray:
    """``values``, or a :class:`StreamError` when one's magnitude exceeds
    ``bound`` or is NaN."""
    if not np.all(np.abs(values) <= bound):  # False for NaN too
        raise StreamError(f"{what} value out of range")
    return values


def _renormalize(v: np.ndarray, col: int) -> np.ndarray:
    """``v`` scaled to unit length in place, or, when its norm is below
    ``_NORM_EPS``, made the unit vector on axis ``col % dim``.  The norm is
    ``np.linalg.norm`` of ``v``: the BLAS dot of the contiguous ``v`` with
    itself.  The one reconstruction step of encoder and decoder."""
    norm = math.sqrt(v.dot(v))
    if norm < _NORM_EPS:
        v[:] = 0.0
        v[col % len(v)] = 1.0
    else:
        v /= norm
    return v


def _intra_rows(q: QuantizerSet, index, cols) -> np.ndarray:
    """Reconstructed intra columns, as rows: the unit intra centroids, or
    for a zero-norm centroid its column's fallback."""
    units, zero = q.intra_units
    rows = units[index]
    for i in np.flatnonzero(zero[index]):
        rows[i] = _renormalize(np.zeros(q.dim), cols[i])
    return rows


def _predicted_rows(q: QuantizerSet, coeff_index, residual_index, refs: np.ndarray, cols) -> np.ndarray:
    """Reconstructed predicted columns, as rows: rho_hat * ref + residual,
    renormalized; ``refs`` holds the reference columns as rows."""
    rows = q.coeff.centroids[coeff_index, 0][:, None] * refs + q.residual.centroids[residual_index]
    for row, col in zip(rows, cols):
        _renormalize(row, col)
    return rows


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


class _Code:
    """The side-info fields of one frame, per column, band after band.  The
    encoder fills them before its walk writes them; the decoder's walk reads
    them into a fresh one.  After either walk :func:`_rebuilt` reconstructs
    the bases they describe."""

    def __init__(self, ranks: list):
        n = sum(ranks)
        self.intra = np.ones(n, dtype=bool)  # column_intra (every column of an intra band)
        self.intra_index, self.ref_index = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
        self.coeff_index, self.residual_index = np.zeros(n, dtype=int), np.zeros(n, dtype=int)


def _rebuilt(q: QuantizerSet, c: _Code, ranks: list, state: SideInfoState, switched: bool) -> list:
    """The per-band bases the fields of ``c`` describe, rebuilt the same way
    by encoder and decoder: every column intra, then the predicted ones from
    the previous frame's pool, column ``ref_index`` on a mode switch, else
    the column at the same place.  Each band's (M, r) basis is C-contiguous."""
    cols = np.concatenate([np.arange(r) for r in ranks])
    rows = _intra_rows(q, c.intra_index, cols)
    p = np.flatnonzero(~c.intra)
    if p.size:
        refs = np.ascontiguousarray(state.pool()[:, c.ref_index[p] if switched else p].T)
        rows[p] = _predicted_rows(q, c.coeff_index[p], c.residual_index[p], refs, cols[p])
    return [np.ascontiguousarray(rows[at : at + r].T) for r, at in zip(ranks, itertools.accumulate(ranks, initial=0))]


def _code_bands(q: QuantizerSet, trials: list) -> list:
    """The encoder's decisions for every column of every trial (raw bases,
    mode, state): per trial, its :class:`_Code`.

    Each column's target and reference are fixed first: in a same-mode
    band the Hungarian-matched, sign-aligned column and the band's previous
    column; on a mode switch the raw column, flipped when its best pool
    reference correlates negatively, and that pool column.  The match and
    the flips only shape the targets: no field carries them, as the
    decoder rebuilds each column from its reference alone.  References are
    reconstructed columns, so never zero.  Then one nearest-centroid pass
    per codebook covers all columns: intra for all, then coefficient and
    residual for the columns of predicted bands.  A column is predicted
    when its reconstruction error is at most intra's.  Each dot product and
    norm runs per column on the same view as in a per-column coder, so
    every decision is bit-identical to one."""
    codes, targets, refs, cols = [], [], [], []
    for raw_bases, mode, state in trials:
        c = _Code([raw.shape[1] for raw in raw_bases])
        pool = state.pool() if state.prev_mode not in (None, mode) else None
        at = 0
        for band, raw in enumerate(raw_bases):
            k = slice(at, at + raw.shape[1])
            at = k.stop
            if state.prev_bases is None:
                targets += list(raw.T)
                refs += [None] * raw.shape[1]
            elif pool is not None:
                corrs = np.array([target @ pool for target in raw.T])
                best = np.abs(corrs).argmax(axis=1)
                c.ref_index[k] = best
                flips = corrs[np.arange(len(best)), best] < 0
                targets += [-t if f else t for t, f in zip(raw.T, flips)]
                refs += [pool[:, j] for j in c.ref_index[k]]
            else:
                prev = state.prev_bases[band]
                _, _, aligned = match_bases(TruncatedBasis(vectors=prev), TruncatedBasis(vectors=raw))
                targets += list(aligned.vectors.T)
                refs += list(prev.T)
            cols += range(raw.shape[1])
        codes.append(c)

    T, cols = np.array(targets), np.array(cols)
    intra_index = quantize_nearest(T, q.intra)
    rows = _intra_rows(q, intra_index, cols)
    predicted = np.zeros(len(cols), dtype=bool)
    coeff_index, residual_index = np.zeros_like(cols), np.zeros_like(cols)
    p = np.flatnonzero([ref is not None for ref in refs])
    if p.size:
        coeff_index[p] = quantize_nearest([[float(targets[i] @ refs[i])] for i in p], q.coeff)
        Tp, R = T[p], np.array([refs[i] for i in p])
        residual_index[p] = quantize_nearest(Tp - q.coeff.centroids[coeff_index[p], 0][:, None] * R, q.residual)
        pred_rows = _predicted_rows(q, coeff_index[p], residual_index[p], R, cols[p])
        better = np.sum((pred_rows - Tp) ** 2, axis=1) <= np.sum((rows[p] - Tp) ** 2, axis=1)
        predicted[p[better]] = True
    coeff_index[~predicted] = residual_index[~predicted] = intra_index[predicted] = 0

    at = 0
    for c in codes:
        k = slice(at, at + len(c.ref_index))
        at = k.stop
        c.intra, c.intra_index = ~predicted[k], intra_index[k]
        c.coeff_index, c.residual_index = coeff_index[k], residual_index[k]
    return codes


def _band(f: _Fields, q, state: SideInfoState, r: int, switched: bool, c: _Code, at: int) -> None:
    """intra_band:u1, then r intra indices or a predicted band, for the
    columns ``at``.. of ``c``: written as they stand when encoding, read
    into ``c`` when decoding."""
    if f.flag(state.prev_mode is None):
        for k in range(at, at + r):
            c.intra_index[k] = f.uint("intra codebook index", q.intra.size, c.intra_index[k])
        return
    if state.prev_mode is None:
        raise StreamError("predicted band before any intra frame")
    for k in range(at, at + r):
        c.intra[k] = f.flag(c.intra[k])
        if c.intra[k]:
            c.intra_index[k] = f.uint("intra codebook index", q.intra.size, c.intra_index[k])
            continue
        if switched:
            c.ref_index[k] = f.uint("prediction reference", state.prev_columns, c.ref_index[k])
        c.coeff_index[k] = f.uint("coefficient codebook index", q.coeff.size, c.coeff_index[k])
        c.residual_index[k] = f.uint("residual codebook index", q.residual.size, c.residual_index[k])


def _side_info(f: _Fields, q, state, ranks: dict, mode=0, coded=None, channels=None, rebuild=True) -> tuple:
    """The one side-info syntax (docs/bitstream.md § Side info):

        side_info := mode:u1 ( band+ | bypass_basis+ )

    Encodes ``coded`` (the frame's :class:`_Code`, or in bypass its raw
    (M, r) bases) when it is given, else decodes.  Either way the columns
    are counted by coding from the column_intra fields, and the quantized
    bases rebuilt from the fields (:func:`_rebuilt`) when ``rebuild`` is
    set (else they are None).  ``q`` None is bypass: each basis is
    ``channels`` x r raw float64, and no column is counted.  A mode that
    ``ranks`` lacks is a :class:`StreamError`.  Advances ``state``."""
    start = f.position
    mode = f.uint("mode", 2, mode)
    if mode not in ranks:
        raise StreamError(f"mode {mode} is not a mode of this codec")
    info = SideInfoFrame(mode=mode, switched=state.prev_mode is not None and state.prev_mode != mode)
    if q is None:
        bases = [f.floats((channels, r), None if coded is None else coded[band]) for band, r in enumerate(ranks[mode])]
    else:
        c = coded or _Code(ranks[mode])
        for r, at in zip(ranks[mode], itertools.accumulate(ranks[mode], initial=0)):
            _band(f, q, state, r, info.switched, c, at)
        predicted = int(np.count_nonzero(~c.intra))
        info.intra_columns = c.intra.size - predicted
        info.predicted_columns, info.switched_columns = (0, predicted) if info.switched else (predicted, 0)
        bases = _rebuilt(q, c, ranks[mode], state, info.switched) if rebuild else None
    info.bit_count = f.position - start
    state.prev_bases = None if bases is None else [b.copy() for b in bases]
    state.prev_mode, state.prev_columns = mode, sum(ranks[mode])
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
    return encode_sideinfo_trials([(raw_bases, mode, state, writer)], q)[0]


def encode_sideinfo_trials(trials: list, q: QuantizerSet | None) -> list:
    """Several candidate codings of one frame (the proposed encoder's RD
    trials), each a (raw_bases, mode, state, writer) as
    :func:`encode_sideinfo` takes them; returns each trial's
    (SideInfoFrame, bases), as one call per trial would.  The decisions of
    all trials share one nearest-centroid pass per codebook."""
    if q is not None and any(b.shape[0] != q.dim for raw_bases, *_ in trials for b in raw_bases):
        raise ConfigurationError(
            f"quantizers trained for {q.dim} channels, stream differs"
        )
    codes = [t[0] for t in trials] if q is None else _code_bands(q, [t[:3] for t in trials])
    return [
        _side_info(_Fields(writer), q, state, {mode: [b.shape[1] for b in raw_bases]}, mode, coded)
        for (raw_bases, mode, state, writer), coded in zip(trials, codes)
    ]


def decode_sideinfo(
    reader: BitReader,
    q: QuantizerSet | None,
    state: SideInfoState,
    ranks: dict,
    channels: int | None = None,
    rebuild: bool = True,
) -> tuple:
    """Read what :func:`encode_sideinfo` writes.

    ``ranks``: per mode of the codec, the per-band column counts;
    ``channels``: the row count of bypass bases (``q`` None).  With
    ``rebuild`` False the fields are read and checked but the quantized
    bases are not rebuilt: the returned bases are None, and so is
    ``state.prev_bases``.  Raises
    :class:`StreamError` on a truncated or out-of-range field, a mode
    missing from ``ranks`` and a bypass basis value included.
    """
    return _side_info(_Fields(reader), q, state, ranks, channels=channels, rebuild=rebuild)


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
    max_iter: int = 100
    max_frames: int = 12000


def _raw_basis_frames(signals, config: TrainingConfig):
    """(previous, current) raw bases of each frame of the time-domain path
    (one basis), then of each mode of the frequency-domain path (per-band
    bases), signal after signal; a path's first frame has None before it."""
    L = config.half_length
    window = sine_window(L)
    for sig in signals:
        streams = [[[truncated_basis(x, config.rank).vectors] for x in segment_frames(sig.samples, L)]]
        specs, _ = analyze(sig.samples, L, window)
        for mode in (MODE_SINGLE_BAND, MODE_FOUR_BANDS):
            streams.append([mode_bases(sp.coeffs, mode, config.rank)[1] for sp in specs])
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
                prev_basis = TruncatedBasis(vectors=prev[band_idx])
                _, _, aligned = match_bases(prev_basis, TruncatedBasis(vectors=raw))
                rho, residual = predict_basis(prev_basis, aligned)
                rhos.extend(rho.tolist())
                residuals.extend(residual.T)
    return np.asarray(rhos)[:, None], np.asarray(residuals), np.asarray(intras)


def train_quantizers(signals, config: TrainingConfig | None = None) -> QuantizerSet:
    """GLA-train the three codebooks from a corpus of HoaSignals.  Signals of
    different channel counts, a rank outside 1..M of a signal, a negative
    ``max_frames`` or a negative seed are a :class:`ConfigurationError`."""
    config = config or TrainingConfig()
    counts = sorted({sig.num_channels for sig in signals})
    if len(counts) > 1:
        raise ConfigurationError(f"signals of {counts} channels; one codebook set fits one channel count")
    for sig in signals:
        if not 1 <= config.rank <= sig.num_channels:
            raise ConfigurationError(f"rank {config.rank} out of range for M={sig.num_channels}")
    if config.max_frames < 0 or config.seed < 0:
        raise ConfigurationError(f"max_frames {config.max_frames} and seed {config.seed} must be >= 0")
    rhos, residuals, intras = harvest_training_pairs(signals, config)
    if rhos.shape[0] < config.coeff_size or intras.shape[0] < config.intra_size:
        raise TrainingError(
            f"corpus yielded {rhos.shape[0]} prediction pairs and "
            f"{intras.shape[0]} columns; too few for the requested codebooks"
        )
    common = dict(max_iter=config.max_iter, seed=config.seed)
    return QuantizerSet(
        coeff=gla_train(rhos, config.coeff_size, **common),
        residual=gla_train(residuals, config.residual_size, **common),
        intra=gla_train(intras, config.intra_size, **common),
    )
