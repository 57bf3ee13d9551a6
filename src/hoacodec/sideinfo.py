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
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hoacodec.baseline_td import TruncatedBasis, match_bases
from hoacodec.bitio import BitReader, BitWriter, factorial_bits, lehmer_decode, lehmer_encode
from hoacodec.errors import ConfigurationError, ShapeError, StreamError, TrainingError
from hoacodec.numlin import Codebook, gla_train, load_codebook, quantize_nearest, save_codebook

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

    @property
    def coeff_bits(self) -> int:
        return max(1, (self.coeff.size - 1).bit_length())

    @property
    def residual_bits(self) -> int:
        return max(1, (self.residual.size - 1).bit_length())

    @property
    def intra_bits(self) -> int:
        return max(1, (self.intra.size - 1).bit_length())

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
class ColumnCode:
    """How one basis column was coded."""

    intra: bool
    intra_index: int = 0
    coeff_index: int = 0
    residual_index: int = 0
    ref_index: int = 0  # only on mode-switch frames
    sign_flip: bool = False  # only on mode-switch frames


@dataclass
class BandSideInfo:
    intra_band: bool
    permutation: list = field(default_factory=list)
    signs: list = field(default_factory=list)
    columns: list = field(default_factory=list)  # of ColumnCode


@dataclass
class SideInfoFrame:
    """Everything the decoder needs to rebuild one frame's bases."""

    mode: int
    bands: list  # of BandSideInfo
    switched: bool = False
    bit_count: int = 0


class SideInfoState:
    """Reconstruction state shared (by value) between encoder and decoder."""

    def __init__(self):
        self.prev_bases: list | None = None  # list of (M, r) arrays, unit columns
        self.prev_mode: int | None = None

    def pool(self) -> np.ndarray:
        """All previous columns side by side, (M, total)."""
        return np.concatenate(self.prev_bases, axis=1)


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


def _code_column(
    q: QuantizerSet,
    target: np.ndarray,
    ref: np.ndarray | None,
    col: int,
):
    """Choose predictive vs intra coding for one column; return
    (ColumnCode without ref/sign fields, reconstruction)."""
    intra_idx, _ = quantize_nearest(target, q.intra)
    intra_rec = _reconstruct_intra(q, intra_idx, col)
    intra_err = float(np.sum((intra_rec - target) ** 2))
    if ref is not None and np.linalg.norm(ref) > _NORM_EPS:
        rho = float(target @ ref)
        c_idx, _ = quantize_nearest([rho], q.coeff)
        residual = target - float(q.coeff.centroids[c_idx, 0]) * ref
        r_idx, _ = quantize_nearest(residual, q.residual)
        pred_rec = _reconstruct_predicted(q, c_idx, r_idx, ref, col)
        pred_err = float(np.sum((pred_rec - target) ** 2))
        if pred_err <= intra_err:
            return ColumnCode(intra=False, coeff_index=c_idx, residual_index=r_idx), pred_rec
    return ColumnCode(intra=True, intra_index=intra_idx), intra_rec


def encode_sideinfo(
    raw_bases: list,
    mode: int,
    q: QuantizerSet,
    state: SideInfoState,
    writer: BitWriter,
) -> tuple:
    """Quantize one frame's bases and serialize them.

    ``raw_bases``: per band, the (M, r) truncated right-singular vectors in
    singular-value order.  Returns (SideInfoFrame, reconstructed bases);
    ``state`` is advanced to the reconstructions.
    """
    if any(b.shape[0] != q.dim for b in raw_bases):
        raise ConfigurationError(
            f"quantizers trained for {q.dim} channels, stream differs"
        )
    start = writer.bit_length
    writer.write(mode & 1, 1)
    switched = state.prev_mode is not None and state.prev_mode != mode
    bands_info = []
    recon_bases = []

    for band_idx, raw in enumerate(raw_bases):
        r = raw.shape[1]
        if state.prev_bases is None:
            # intra frame: every column coded standalone
            writer.write_flag(True)
            cols = []
            recon = np.empty_like(raw)
            for k in range(r):
                idx, _ = quantize_nearest(raw[:, k], q.intra)
                writer.write(idx, q.intra_bits)
                recon[:, k] = _reconstruct_intra(q, idx, k)
                cols.append(ColumnCode(intra=True, intra_index=idx))
            bands_info.append(BandSideInfo(intra_band=True, columns=cols))
            recon_bases.append(recon)
        elif switched:
            writer.write_flag(False)
            pool = state.pool()
            ref_bits = max(1, (pool.shape[1] - 1).bit_length())
            cols = []
            recon = np.empty_like(raw)
            for k in range(r):
                col = raw[:, k]
                corrs = col @ pool
                ref_idx = int(np.argmax(np.abs(corrs)))
                flip = corrs[ref_idx] < 0
                target = -col if flip else col
                code, rec = _code_column(q, target, pool[:, ref_idx], k)
                code.ref_index = ref_idx
                code.sign_flip = bool(flip)
                writer.write_flag(code.intra)
                if code.intra:
                    writer.write(code.intra_index, q.intra_bits)
                else:
                    writer.write(ref_idx, ref_bits)
                    writer.write_flag(code.sign_flip)
                    writer.write(code.coeff_index, q.coeff_bits)
                    writer.write(code.residual_index, q.residual_bits)
                recon[:, k] = rec
                cols.append(code)
            bands_info.append(BandSideInfo(intra_band=False, columns=cols))
            recon_bases.append(recon)
        else:
            writer.write_flag(False)
            prev = TruncatedBasis(vectors=state.prev_bases[band_idx])
            assignment, signs, aligned = match_bases(prev, TruncatedBasis(vectors=raw))
            perm = assignment.permutation.tolist()
            writer.write(lehmer_encode(perm), factorial_bits(r))
            for s in signs:
                writer.write_flag(s < 0)
            cols = []
            recon = np.empty_like(raw)
            for k in range(r):
                target = aligned.vectors[:, k]
                code, rec = _code_column(q, target, state.prev_bases[band_idx][:, k], k)
                writer.write_flag(code.intra)
                if code.intra:
                    writer.write(code.intra_index, q.intra_bits)
                else:
                    writer.write(code.coeff_index, q.coeff_bits)
                    writer.write(code.residual_index, q.residual_bits)
                recon[:, k] = rec
                cols.append(code)
            bands_info.append(
                BandSideInfo(
                    intra_band=False,
                    permutation=perm,
                    signs=[bool(s < 0) for s in signs],
                    columns=cols,
                )
            )
            recon_bases.append(recon)

    state.prev_bases = [b.copy() for b in recon_bases]
    state.prev_mode = mode
    frame = SideInfoFrame(
        mode=mode,
        bands=bands_info,
        switched=switched,
        bit_count=writer.bit_length - start,
    )
    return frame, recon_bases


def decode_sideinfo(
    reader: BitReader,
    q: QuantizerSet,
    state: SideInfoState,
    ranks: list | None = None,
) -> tuple:
    """Bit-exact mirror of :func:`encode_sideinfo`.

    ``ranks``: per-band column counts for the mode read from the stream;
    resolved by the caller from its configuration (list per mode).
    """
    start = reader.bit_position
    mode = reader.read(1)
    band_ranks = ranks[mode] if isinstance(ranks, dict) else ranks
    switched = state.prev_mode is not None and state.prev_mode != mode
    bands_info = []
    recon_bases = []

    for band_idx, r in enumerate(band_ranks):
        intra_band = reader.read_flag()
        recon = np.empty((q.dim, r))
        cols = []
        if intra_band:
            for k in range(r):
                idx = reader.read(q.intra_bits)
                if idx >= q.intra.size:
                    raise StreamError("intra codebook index out of range")
                recon[:, k] = _reconstruct_intra(q, idx, k)
                cols.append(ColumnCode(intra=True, intra_index=idx))
            bands_info.append(BandSideInfo(intra_band=True, columns=cols))
        elif switched:
            if state.prev_bases is None:
                raise StreamError("predicted band before any intra frame")
            pool = state.pool()
            ref_bits = max(1, (pool.shape[1] - 1).bit_length())
            for k in range(r):
                is_intra = reader.read_flag()
                if is_intra:
                    idx = reader.read(q.intra_bits)
                    if idx >= q.intra.size:
                        raise StreamError("intra codebook index out of range")
                    recon[:, k] = _reconstruct_intra(q, idx, k)
                    cols.append(ColumnCode(intra=True, intra_index=idx))
                else:
                    ref_idx = reader.read(ref_bits)
                    if ref_idx >= pool.shape[1]:
                        raise StreamError("prediction reference out of range")
                    flip = reader.read_flag()
                    c_idx = reader.read(q.coeff_bits)
                    r_idx = reader.read(q.residual_bits)
                    if c_idx >= q.coeff.size or r_idx >= q.residual.size:
                        raise StreamError("prediction codebook index out of range")
                    recon[:, k] = _reconstruct_predicted(q, c_idx, r_idx, pool[:, ref_idx], k)
                    cols.append(
                        ColumnCode(
                            intra=False,
                            coeff_index=c_idx,
                            residual_index=r_idx,
                            ref_index=ref_idx,
                            sign_flip=flip,
                        )
                    )
            bands_info.append(BandSideInfo(intra_band=False, columns=cols))
        else:
            if state.prev_bases is None:
                raise StreamError("predicted band before any intra frame")
            rank_code = reader.read(factorial_bits(r))
            fact = 1
            for i in range(2, r + 1):
                fact *= i
            if rank_code >= fact:
                raise StreamError("permutation index out of range")
            perm = lehmer_decode(rank_code, r)
            signs = [reader.read_flag() for _ in range(r)]
            for k in range(r):
                is_intra = reader.read_flag()
                if is_intra:
                    idx = reader.read(q.intra_bits)
                    if idx >= q.intra.size:
                        raise StreamError("intra codebook index out of range")
                    recon[:, k] = _reconstruct_intra(q, idx, k)
                    cols.append(ColumnCode(intra=True, intra_index=idx))
                else:
                    c_idx = reader.read(q.coeff_bits)
                    r_idx = reader.read(q.residual_bits)
                    if c_idx >= q.coeff.size or r_idx >= q.residual.size:
                        raise StreamError("prediction codebook index out of range")
                    recon[:, k] = _reconstruct_predicted(
                        q, c_idx, r_idx, state.prev_bases[band_idx][:, k], k
                    )
                    cols.append(ColumnCode(intra=False, coeff_index=c_idx, residual_index=r_idx))
            bands_info.append(
                BandSideInfo(intra_band=False, permutation=perm, signs=signs, columns=cols)
            )
        recon_bases.append(recon)

    state.prev_bases = [b.copy() for b in recon_bases]
    state.prev_mode = mode
    frame = SideInfoFrame(
        mode=mode,
        bands=bands_info,
        switched=switched,
        bit_count=reader.bit_position - start,
    )
    return frame, recon_bases


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


def harvest_training_pairs(signals, config: TrainingConfig):
    """Open-loop analysis of both pipelines to collect training material.

    Runs the time-domain path and both band layouts of the frequency-domain
    path over every signal, matching each frame's truncated basis to the
    previous frame's, and records (rho, residual) pairs plus the raw columns
    for the intra codebook.
    """
    from hoacodec.freq_svd import MODE_FOUR_BANDS, MODE_SINGLE_BAND, band_split, layout_for_mode
    from hoacodec.transform import analyze, sine_window
    from hoacodec.baseline_td import truncated_basis
    from hoacodec.hoa_io import segment_frames

    rhos, residuals, intras = [], [], []
    frames_used = 0
    L = config.half_length
    window = sine_window(L)
    for sig in signals:
        streams = []
        # time-domain path: one basis per frame
        tframes = segment_frames(sig, L)
        streams.append([[truncated_basis(fr.samples, config.rank).vectors] for fr in tframes])
        # frequency-domain path, both layouts
        specs, _ = analyze(sig.samples, L, window)
        for mode in (MODE_SINGLE_BAND, MODE_FOUR_BANDS):
            layout = layout_for_mode(mode, L)
            per_frame = []
            for sp in specs:
                bands = band_split(sp, layout)
                per_frame.append(
                    [truncated_basis(b, config.rank).vectors for b in bands]
                )
            streams.append(per_frame)
        for stream in streams:
            prev = None
            for frame_bases in stream:
                frames_used += 1
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
                prev = frame_bases
                if frames_used >= config.max_frames:
                    break
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
