"""Synthetic HOA test scenes: plane waves on trajectories plus diffuse beds.

Sources are encoded analytically with real spherical harmonics (ACN order,
SN3D normalization), so scene content is exactly reproducible from a small
JSON recipe.  These scenes stand in for recorded material in the training
and comparison harnesses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.special import lpmv

from hoacodec.errors import FormatError, ParameterError
from hoacodec.hoa_io import HoaSignal


def sn3d_harmonics(order: int, azimuth, elevation) -> np.ndarray:
    """Real spherical harmonics, ACN-ordered, SN3D-normalized.

    ``azimuth``/``elevation`` in radians (elevation from the horizontal
    plane); broadcasting over sample arrays gives an (len, (order+1)^2)
    matrix.  Condon-Shortley phase is removed, per ambisonic convention.
    """
    azimuth = np.atleast_1d(np.asarray(azimuth, dtype=np.float64))
    elevation = np.atleast_1d(np.asarray(elevation, dtype=np.float64))
    azimuth, elevation = np.broadcast_arrays(azimuth, elevation)
    x = np.sin(elevation).ravel()
    az = azimuth.ravel()
    out = np.empty((azimuth.size, (order + 1) ** 2))
    # one cosine and one sine per |m|, one Legendre function per (n, |m|),
    # each shared by +m and -m
    for am in range(order + 1):
        cos = np.cos(am * az)
        sin = np.sin(am * az) if am else None
        for n in range(am, order + 1):
            leg = ((-1.0) ** am) * lpmv(am, n, x)
            norm = math.sqrt(
                (2.0 if am else 1.0) * math.factorial(n - am) / math.factorial(n + am)
            )
            out[:, n * n + n + am] = norm * leg * cos
            if am:
                out[:, n * n + n - am] = norm * leg * sin
    return out


@dataclass
class SourceSpec:
    """One plane-wave source: a signal generator plus a trajectory."""

    kind: str  # tone | noise | bandnoise | am_tone | chirp
    level: float = 0.5
    freq: float = 440.0
    freq_hi: float = 2000.0  # for bandnoise / chirp
    azimuth: float = 0.0  # radians at t=0
    elevation: float = 0.0
    azimuth_rate: float = 0.0  # radians per second
    elevation_rate: float = 0.0
    am_rate: float = 0.0  # amplitude-modulation rate, Hz
    seed: int = 0

    def render(self, num_samples: int, sample_rate: int) -> np.ndarray:
        t = np.arange(num_samples) / sample_rate
        rng = np.random.default_rng(self.seed)
        if self.kind == "tone":
            sig = np.sin(2 * np.pi * self.freq * t)
        elif self.kind == "noise":
            sig = rng.standard_normal(num_samples)
        elif self.kind == "bandnoise":
            sig = _bandlimited_noise(num_samples, sample_rate, self.freq, self.freq_hi, rng)
        elif self.kind == "am_tone":
            sig = np.sin(2 * np.pi * self.freq * t) * (
                0.55 + 0.45 * np.sin(2 * np.pi * max(self.am_rate, 0.5) * t)
            )
        elif self.kind == "chirp":
            inst = self.freq + (self.freq_hi - self.freq) * t / t[-1] if num_samples > 1 else self.freq
            phase = 2 * np.pi * np.cumsum(np.atleast_1d(inst)) / sample_rate
            sig = np.sin(phase)
        else:
            raise ParameterError(f"unknown source kind {self.kind!r}")
        if self.am_rate > 0 and self.kind != "am_tone":
            sig = sig * (0.55 + 0.45 * np.sin(2 * np.pi * self.am_rate * t))
        return self.level * sig

    def trajectory(self, num_samples: int, sample_rate: int):
        t = np.arange(num_samples) / sample_rate
        return (
            self.azimuth + self.azimuth_rate * t,
            np.clip(self.elevation + self.elevation_rate * t, -np.pi / 2, np.pi / 2),
        )


def _bandlimited_noise(n, sample_rate, lo, hi, rng) -> np.ndarray:
    spec = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    spec[(freqs < lo) | (freqs > hi)] = 0.0
    sig = np.fft.irfft(spec, n)
    peak = np.max(np.abs(sig))
    return sig / peak if peak > 0 else sig


@dataclass
class SceneSpec:
    """A reproducible scene recipe."""

    duration: float = 3.0
    sample_rate: int = 48000
    order: int = 3
    sources: list = field(default_factory=list)
    diffuse_level: float = 0.02
    seed: int = 1234
    name: str = "scene"

    def to_json(self, path) -> None:
        doc = {
            "name": self.name,
            "duration": self.duration,
            "sample_rate": self.sample_rate,
            "order": self.order,
            "diffuse_level": self.diffuse_level,
            "seed": self.seed,
            "sources": [vars(s) for s in self.sources],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)

    @classmethod
    def from_json(cls, path) -> "SceneSpec":
        """The recipe :meth:`to_json` writes; a file that is not JSON, an
        unknown or missing key, or a value of the wrong type is a
        :class:`FormatError`."""
        with open(path) as fh:
            try:
                doc = _typed_fields(cls, json.load(fh))
                doc["sources"] = [SourceSpec(**_typed_fields(SourceSpec, s)) for s in doc.get("sources", [])]
                return cls(**doc)
            except (ValueError, TypeError) as exc:
                raise FormatError(f"{path}: not a scene recipe: {exc}") from None


# the JSON values each recipe field annotation accepts: an int is a number,
# a bool is not
_JSON_TYPES = {"float": (int, float), "int": (int,), "str": (str,), "list": (list,)}


def _typed_fields(cls, doc) -> dict:
    """``doc`` once it is an object whose values have the types of
    ``cls``'s field annotations; a ``TypeError`` otherwise."""
    if not isinstance(doc, dict):
        raise TypeError(f"{cls.__name__} must be an object, got {type(doc).__name__}")
    for f in fields(cls):
        value = doc.get(f.name)
        if f.name in doc and (isinstance(value, bool) or not isinstance(value, _JSON_TYPES[f.type])):
            raise TypeError(f"{cls.__name__}.{f.name} must be {f.type}, got {type(value).__name__}")
    return doc


def render_scene(spec: SceneSpec) -> HoaSignal:
    """Encode every source analytically and add a diffuse bed."""
    if spec.sample_rate < 1:
        raise ParameterError(f"sample rate {spec.sample_rate} below 1 Hz")
    if spec.order < 0:
        raise ParameterError(f"negative order {spec.order}")
    n = int(round(spec.duration * spec.sample_rate)) if math.isfinite(spec.duration) else 0
    if n < 1:
        raise ParameterError(f"a {spec.duration} s scene at {spec.sample_rate} Hz has no samples")
    M = (spec.order + 1) ** 2
    out = np.zeros((n, M))
    for src in spec.sources:
        sig = src.render(n, spec.sample_rate)
        az, el = src.trajectory(n, spec.sample_rate)
        out += sig[:, None] * sn3d_harmonics(spec.order, az, el)
    if spec.diffuse_level > 0:
        rng = np.random.default_rng(spec.seed)
        bed = rng.standard_normal((n, M))
        # SN3D diffuse-field weighting: higher orders carry less energy
        orders = np.repeat(np.arange(spec.order + 1), 2 * np.arange(spec.order + 1) + 1)
        out += spec.diffuse_level * bed / np.sqrt(2 * orders + 1)
    peak = np.max(np.abs(out))
    if peak > 0.99:
        out *= 0.99 / peak
    return HoaSignal(sample_rate=spec.sample_rate, order=spec.order, samples=out)


def corpus_specs(order: int = 3, duration: float = 3.0, sample_rate: int = 48000) -> list:
    """Six varied scenes shaped like a small evaluation corpus: static and
    moving sources, speech-like AM content, band-separated material."""
    d = dict(duration=duration, sample_rate=sample_rate, order=order)
    return [
        SceneSpec(
            name="two_talkers",
            sources=[
                SourceSpec(kind="am_tone", freq=220, am_rate=4.0, level=0.4, azimuth=0.6, seed=11),
                SourceSpec(kind="am_tone", freq=520, am_rate=6.5, level=0.35, azimuth=-1.8, elevation=0.25, seed=12),
            ],
            diffuse_level=0.01,
            seed=101,
            **d,
        ),
        SceneSpec(
            name="orbiting_chirp",
            sources=[
                SourceSpec(kind="chirp", freq=150, freq_hi=6000, level=0.45, azimuth=0.0, azimuth_rate=1.2, seed=21),
            ],
            diffuse_level=0.02,
            seed=102,
            **d,
        ),
        SceneSpec(
            name="band_separated",
            sources=[
                # more directional sources than the foreground rank, split
                # across disjoint bands: per-band SVD can separate them,
                # a full-spectrum rank-4 basis cannot
                SourceSpec(kind="bandnoise", freq=60, freq_hi=800, level=0.35, azimuth=1.2, seed=31),
                SourceSpec(kind="bandnoise", freq=900, freq_hi=2500, level=0.3, azimuth=-1.2, elevation=-0.4, seed=32),
                SourceSpec(kind="bandnoise", freq=2600, freq_hi=5500, level=0.28, azimuth=2.6, elevation=0.5, seed=33),
                SourceSpec(kind="bandnoise", freq=5600, freq_hi=11000, level=0.25, azimuth=-2.4, elevation=-0.7, seed=34),
                SourceSpec(kind="tone", freq=420, level=0.2, azimuth=0.1, elevation=1.0, seed=35),
                SourceSpec(kind="tone", freq=3300, level=0.15, azimuth=-0.6, elevation=0.1, seed=36),
                SourceSpec(kind="bandnoise", freq=7000, freq_hi=12000, level=0.2, azimuth=0.8, elevation=-0.9, seed=37),
                SourceSpec(kind="tone", freq=1500, level=0.18, azimuth=2.0, elevation=-0.3, seed=38),
            ],
            diffuse_level=0.015,
            seed=103,
            **d,
        ),
        SceneSpec(
            name="helicopter_fountain",
            sources=[
                SourceSpec(kind="tone", freq=95, level=0.3, azimuth=2.0, elevation=0.9, azimuth_rate=0.4, am_rate=13.0, seed=41),
                SourceSpec(kind="noise", level=0.18, azimuth=-0.5, elevation=-0.2, seed=42),
            ],
            diffuse_level=0.03,
            seed=104,
            **d,
        ),
        SceneSpec(
            name="quiet_ambience",
            sources=[
                SourceSpec(kind="bandnoise", freq=200, freq_hi=4000, level=0.12, azimuth=0.3, seed=51),
            ],
            diffuse_level=0.05,
            seed=105,
            **d,
        ),
        SceneSpec(
            name="music_like",
            sources=[
                SourceSpec(kind="tone", freq=330, level=0.25, azimuth=0.9, am_rate=2.0, seed=61),
                SourceSpec(kind="tone", freq=495, level=0.2, azimuth=0.9, am_rate=2.0, seed=62),
                SourceSpec(kind="bandnoise", freq=2000, freq_hi=8000, level=0.18, azimuth=-2.2, elevation=0.5, am_rate=3.0, seed=63),
            ],
            diffuse_level=0.02,
            seed=106,
            **d,
        ),
    ]
