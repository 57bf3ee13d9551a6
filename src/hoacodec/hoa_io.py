"""Multichannel ambisonic WAV reading/writing and 50%-overlapped framing.

Channel ordering is assumed ACN and normalization SN3D; both are carried as
metadata only, the codec itself never depends on them.  Channel counts that
are not a perfect square are rejected outright.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from hoacodec.errors import FormatError, ShapeError

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE

# int PCM full-scale divisors by container bit depth
_PCM_SCALE = {16: 2**15, 24: 2**23, 32: 2**31}


@dataclass
class HoaSignal:
    """Time-domain HOA audio: (N+1)^2 channels of equal length.

    ``samples`` is a float64 array of shape (length, channels) with channels
    in ACN order, amplitudes nominally in [-1, 1].
    """

    sample_rate: int
    order: int
    samples: np.ndarray
    normalization: str = "SN3D"

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim == 1:
            self.samples = self.samples[:, None]
        if self.sample_rate <= 0:
            raise ShapeError("sample_rate must be positive")
        if self.order < 0:
            raise ShapeError("ambisonics order must be >= 0")
        if self.samples.ndim != 2:
            raise ShapeError("samples must be a (length, channels) array")
        if self.samples.shape[1] != self.num_channels:
            raise ShapeError(
                f"expected {(self.order + 1) ** 2} channels for order "
                f"{self.order}, got {self.samples.shape[1]}"
            )

    @property
    def num_channels(self) -> int:
        return (self.order + 1) ** 2

    @property
    def length(self) -> int:
        return self.samples.shape[0]

    @classmethod
    def from_samples(cls, samples, sample_rate) -> "HoaSignal":
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim == 1:
            samples = samples[:, None]
        order = _order_for_channels(samples.shape[1])
        return cls(sample_rate=sample_rate, order=order, samples=samples)


@dataclass
class TimeFrame:
    """One 2L-sample analysis frame; frame f covers padded samples [fL, fL+2L)."""

    index: int
    samples: np.ndarray  # (2L, M)


def _order_for_channels(channels: int) -> int:
    root = round(channels**0.5)
    if root * root != channels:
        raise ShapeError(
            f"{channels} channels is not a square number; "
            "HOA needs (N+1)^2 channels"
        )
    return root - 1


# --------------------------------------------------------------------------
# RIFF/WAVE parsing.  Hand-rolled because multichannel files routinely use
# WAVE_FORMAT_EXTENSIBLE and 24-bit PCM, which the stdlib module rejects.
# --------------------------------------------------------------------------

def read_hoa_wav(path) -> HoaSignal:
    """Read a multichannel WAV file into an :class:`HoaSignal`.

    Accepts PCM 16/24/32 and IEEE float32/float64, plain or extensible
    headers.  Integer samples are normalized to [-1, 1).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (csize,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + csize]
        if cid == b"fmt ":
            if csize < 16:
                raise FormatError(f"{path}: fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            if fmt[0] == _WAVE_FORMAT_EXTENSIBLE:
                if csize < 40:
                    raise FormatError(f"{path}: extensible fmt chunk too short")
                (subformat,) = struct.unpack_from("<H", body, 24)
                fmt = (subformat,) + fmt[1:]
        elif cid == b"data":
            payload = body
        pos += 8 + csize + (csize & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise FormatError(f"{path}: missing fmt or data chunk")

    tag, channels, sample_rate, _, block_align, bits = fmt
    if channels < 1:
        raise FormatError(f"{path}: zero channels")
    frames = len(payload) // block_align if block_align else 0
    payload = payload[: frames * block_align]

    if tag == _WAVE_FORMAT_IEEE_FLOAT and bits == 32:
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    elif tag == _WAVE_FORMAT_IEEE_FLOAT and bits == 64:
        samples = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    elif tag == _WAVE_FORMAT_PCM and bits == 16:
        samples = np.frombuffer(payload, dtype="<i2") / _PCM_SCALE[16]
    elif tag == _WAVE_FORMAT_PCM and bits == 32:
        samples = np.frombuffer(payload, dtype="<i4") / _PCM_SCALE[32]
    elif tag == _WAVE_FORMAT_PCM and bits == 24:
        raw = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
        as32 = (
            raw[:, 0].astype(np.int32)
            | (raw[:, 1].astype(np.int32) << 8)
            | (raw[:, 2].astype(np.int32) << 16)
        )
        as32 = (as32 << 8) >> 8  # sign-extend
        samples = as32 / _PCM_SCALE[24]
    else:
        raise FormatError(f"{path}: unsupported WAV format tag={tag} bits={bits}")

    return HoaSignal.from_samples(samples.reshape(-1, channels), sample_rate)


def write_hoa_wav(signal: HoaSignal, path, sample_format: str = "float32") -> None:
    """Write an :class:`HoaSignal` as WAV.

    ``sample_format``: one of ``float32``, ``pcm16``, ``pcm24``, ``pcm32``.
    float32 round-trips bit-exactly through :func:`read_hoa_wav`; integer
    formats round to the nearest step and clip at full scale.
    """
    x = signal.samples
    if sample_format == "float32":
        tag, bits = _WAVE_FORMAT_IEEE_FLOAT, 32
        payload = x.astype("<f4").tobytes()
    elif sample_format in ("pcm16", "pcm24", "pcm32"):
        bits = int(sample_format[3:])
        tag = _WAVE_FORMAT_PCM
        scale = _PCM_SCALE[bits]
        q = np.clip(np.round(x * scale), -scale, scale - 1).astype(np.int64)
        if bits == 16:
            payload = q.astype("<i2").tobytes()
        elif bits == 32:
            payload = q.astype("<i4").tobytes()
        else:
            q32 = q.astype(np.int32).reshape(-1)
            raw = np.empty((q32.size, 3), dtype=np.uint8)
            raw[:, 0] = q32 & 0xFF
            raw[:, 1] = (q32 >> 8) & 0xFF
            raw[:, 2] = (q32 >> 16) & 0xFF
            payload = raw.tobytes()
    else:
        raise FormatError(f"unknown sample format {sample_format!r}")

    channels = signal.num_channels
    block_align = channels * bits // 8
    byte_rate = signal.sample_rate * block_align
    fmt = struct.pack(
        "<HHIIHH", tag, channels, signal.sample_rate, byte_rate, block_align, bits
    )
    pad = b"\x00" if len(payload) & 1 else b""  # RIFF chunks are word-aligned
    riff_size = 4 + (8 + len(fmt)) + (8 + len(payload) + len(pad))
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", riff_size) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<I", len(fmt)) + fmt)
        fh.write(b"data" + struct.pack("<I", len(payload)) + payload + pad)


# --------------------------------------------------------------------------
# Framing
# --------------------------------------------------------------------------

def num_frames(length: int, half_length: int) -> int:
    """Frame count for a signal of ``length`` samples at hop ``half_length``."""
    if length <= 0:
        return 0
    return -(-length // half_length) + 1  # ceil(length/L) + 1


def pad_signal(samples: np.ndarray, half_length: int) -> np.ndarray:
    """Zero-pad: L at the head, enough at the tail for full 2L frames.

    With this padding every original sample is covered by exactly two
    frames, so overlap-add reconstructs head and tail samples at full
    weight.
    """
    count = num_frames(samples.shape[0], half_length)
    padded = np.zeros(((count + 1) * half_length if count else 0, samples.shape[1]))
    padded[half_length : half_length + samples.shape[0]] = samples
    return padded


def segment_frames(samples: np.ndarray, half_length: int) -> Iterator[TimeFrame]:
    """Yield the 2L-sample frames of a (length, channels) array, advancing
    by L (50% overlap); a 1-D array is one channel.

    Frame f covers padded samples [f*L, f*L + 2L); the padded timeline has
    L zeros prepended (see :func:`pad_signal`).  Each frame is built as it
    is yielded, zeros then the signal rows it covers, so no padded copy of
    the signal exists.  An empty signal yields nothing.  This is the one
    framing of both encoders and of codebook training.
    """
    if half_length <= 0:
        raise ShapeError("frame half-length must be positive")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
    L, length = half_length, samples.shape[0]
    for f in range(num_frames(length, L)):
        start = f * L - L  # the frame's first row on the signal's timeline
        a, b = max(start, 0), min(start + 2 * L, length)
        frame = np.zeros((2 * L, samples.shape[1]))
        frame[a - start : b - start] = samples[a:b]
        yield TimeFrame(index=f, samples=frame)
