"""Perceptual noise substitution for ambient channels dropped by order
reduction.

Per frame, the power spectrum of every discarded channel is partitioned
into the 49 AAC frequency groups; groups whose channel-averaged spectral
flatness exceeds a threshold are flagged noise-like and their average
per-bin power is quantized and transmitted.  The decoder regenerates those
groups with seeded pseudo-random coefficients rescaled to the transmitted
power exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from hoacodec.errors import ShapeError

# ISO/IEC 14496-3 scalefactor-band offsets, 48 kHz long windows: 49 bands
# over 1024 bins.
AAC_48K_LONG_OFFSETS = (
    0, 4, 8, 12, 16, 20, 24, 28, 32, 36,
    40, 48, 56, 64, 72, 80, 88, 96,
    108, 120, 132, 144, 160, 176, 196, 216, 240, 264, 292, 320,
    352, 384, 416, 448, 480, 512, 544, 576, 608, 640,
    672, 704, 736, 768, 800, 832, 864, 896, 928, 1024,
)

NUM_GROUPS = 49

# a group is noise-like, and so substituted, above this flatness
FLATNESS_THRESHOLD = 0.25

# energy quantizer: index 0 is exact silence, 1..63 span 96 dB in equal steps
ENERGY_BITS = 6
ENERGY_FLOOR_DB = -60.0
ENERGY_SPAN_DB = 96.0
_ENERGY_LEVELS = (1 << ENERGY_BITS) - 1  # nonzero indices 1..63
_ENERGY_STEP_DB = ENERGY_SPAN_DB / (_ENERGY_LEVELS - 1)


class GroupLayout(NamedTuple):
    """Read-only index arrays of a group table."""

    offsets: np.ndarray  # (50,) group edges
    widths: np.ndarray  # (49,)
    by_width: tuple  # per distinct width: (groups, their bins as (groups, width))

    def group_sums(self, flat: np.ndarray) -> np.ndarray:
        """Each group's sum over a flat (count · L) array, as a row sum of
        one C-contiguous (groups, width) gather per distinct width: the
        pairwise order np.sum gives one group alone, which np.add.reduceat
        does not reproduce bit for bit."""
        out = np.empty(self.widths.size)
        for groups, bins in self.by_width:
            out[groups] = flat[bins].sum(axis=-1)
        return out


@dataclass(frozen=True)
class FrequencyGroups:
    """49 contiguous bin ranges covering [0, L)."""

    offsets: tuple

    def __post_init__(self):
        o = self.offsets
        if len(o) != NUM_GROUPS + 1:
            raise ShapeError(f"need {NUM_GROUPS + 1} offsets, got {len(o)}")
        if o[0] != 0 or any(b <= a for a, b in zip(o, o[1:])):
            raise ShapeError("offsets must start at 0 and strictly increase")

    @property
    def num_bins(self) -> int:
        return self.offsets[-1]

    @property
    def edges(self) -> list:
        return list(zip(self.offsets, self.offsets[1:]))

    @functools.lru_cache(maxsize=16)
    def layout(self, channels: int = 1) -> GroupLayout:
        """Index arrays for work done on all groups of one width at once,
        built on first use; for ``channels`` spectra laid end to end, one
        table of ``channels`` x 49 groups over ``channels`` x L bins."""
        n = self.num_bins
        starts = np.asarray(self.offsets[:-1]) + n * np.arange(channels)[:, None]
        o = np.append(starts.ravel(), n * channels)
        widths = np.diff(o)
        by_width = tuple(
            (g, o[g, None] + np.arange(w))
            for w in np.unique(widths).tolist()
            for g in [np.flatnonzero(widths == w)]
        )
        for a in (o, widths, *(a for group in by_width for a in group)):
            a.setflags(write=False)
        return GroupLayout(o, widths, by_width)

    @classmethod
    def aac_48k_long(cls) -> "FrequencyGroups":
        return cls(offsets=AAC_48K_LONG_OFFSETS)

    @classmethod
    def uniform(cls, num_bins: int) -> "FrequencyGroups":
        """Equal-width fallback for frame lengths other than 1024 bins."""
        if num_bins < NUM_GROUPS:
            raise ShapeError(f"cannot form {NUM_GROUPS} groups from {num_bins} bins")
        bounds = np.linspace(0, num_bins, NUM_GROUPS + 1).round().astype(int)
        return cls(offsets=tuple(bounds.tolist()))


def groups_for(num_bins: int) -> FrequencyGroups:
    """Default table: the AAC 48 kHz long-window bands at L=1024, an
    equal-width 49-group split otherwise."""
    if num_bins == 1024:
        return FrequencyGroups.aac_48k_long()
    return FrequencyGroups.uniform(num_bins)


@dataclass
class NoiseGroupInfo:
    """Per-group activity flags and quantized energy indices for one frame."""

    active: np.ndarray  # (49,) bool
    energy_indices: np.ndarray  # (49,) uint8; meaningful where active

    @classmethod
    def empty(cls) -> "NoiseGroupInfo":
        return cls(
            active=np.zeros(NUM_GROUPS, dtype=bool),
            energy_indices=np.zeros(NUM_GROUPS, dtype=np.uint8),
        )

    def energies(self) -> np.ndarray:
        """Dequantized per-bin average power per group (0 where inactive)."""
        return np.where(self.active, _ENERGY_TABLE[self.energy_indices], 0.0)


def quantize_energy(energy):
    """Log-domain 6-bit index; 0 encodes exact silence (vectorized)."""
    e = np.asarray(energy, dtype=np.float64)
    db = 10.0 * np.log10(np.maximum(e, np.finfo(np.float64).tiny))
    idx = np.clip(np.round((db - ENERGY_FLOOR_DB) / _ENERGY_STEP_DB) + 1, 1, _ENERGY_LEVELS)
    silent = (e <= 0) | (db < ENERGY_FLOOR_DB - _ENERGY_STEP_DB / 2)
    out = np.where(silent, 0, idx).astype(np.int64)
    return out if out.ndim else int(out)


def dequantize_energy(index):
    """Inverse of :func:`quantize_energy` (vectorized; index 0 -> 0)."""
    index = np.asarray(index)
    db = ENERGY_FLOOR_DB + (index.astype(np.float64) - 1) * _ENERGY_STEP_DB
    out = 10.0 ** (db / 10.0)
    return np.where(index == 0, 0.0, out)


# dequantize_energy of every 6-bit index, gathered by NoiseGroupInfo.energies
_ENERGY_TABLE = dequantize_energy(np.arange(1 << ENERGY_BITS))
_ENERGY_TABLE.flags.writeable = False


def spectral_flatness(power) -> float:
    """Geometric over arithmetic mean of a floored power spectrum.

    1.0 for a flat (noise-like) group, near 0 for a single dominant bin.
    The floor removes the log singularity at zero power; evaluating on
    mean-normalized values makes the constant case exactly 1 and the
    AM-GM bound is clamped against rounding dust.
    """
    p = np.asarray(power, dtype=np.float64)
    if p.size == 0:
        raise ShapeError("empty power group")
    mean = p.mean()
    floored = np.maximum(p, 1e-12 * mean + 1e-30)
    ratio = floored / floored.mean()
    return min(1.0, float(np.exp(np.mean(np.log(ratio)))))


def group_flatness(spectra: np.ndarray, groups: FrequencyGroups) -> tuple:
    """Per group of an (L, C) spectrum, the channel-averaged flatness of its
    power (:func:`spectral_flatness` of each channel's group, averaged over
    the C channels) and its per-bin power averaged over bins and channels:
    two (49,) arrays."""
    if spectra.ndim != 2:
        raise ShapeError("spectra must be (L, C)")
    if groups.num_bins != spectra.shape[0]:
        raise ShapeError(f"group table covers {groups.num_bins} bins, frame has {spectra.shape[0]}")
    # all groups of one width at once, as a C-contiguous (groups, bins, C)
    # array: its means over bins and channels add in the same order as
    # those of one (bins, C) group
    power = spectra**2
    flat = np.empty(NUM_GROUPS)
    mean_power = np.empty(NUM_GROUPS)
    for g, bins in groups.layout().by_width:
        p = power[bins]
        floored = np.maximum(p, 1e-12 * p.mean(axis=1, keepdims=True) + 1e-30)
        ratio = floored / floored.mean(axis=1, keepdims=True)
        flat[g] = np.minimum(1.0, np.exp(np.log(ratio).mean(axis=1))).mean(axis=-1)
        mean_power[g] = p.reshape(g.size, -1).mean(axis=-1)
    return flat, mean_power


def analyze_discarded(
    discarded_spectra: np.ndarray,
    groups: FrequencyGroups,
    threshold: float = FLATNESS_THRESHOLD,
) -> NoiseGroupInfo:
    """Flatness-gate the discarded channels' spectra and quantize energies.

    ``discarded_spectra`` is (L, C) MDCT coefficients of the C dropped
    channels.  A group is active when the channel-averaged flatness of its
    power spectrum exceeds ``threshold``; its transmitted energy is the
    per-bin power averaged over bins and channels (:func:`group_flatness`).
    """
    if discarded_spectra.ndim == 2 and discarded_spectra.shape[1] == 0:
        return NoiseGroupInfo.empty()
    flat, mean_power = group_flatness(discarded_spectra, groups)
    indices = quantize_energy(mean_power)
    # below-floor energy decodes to silence anyway: send inactive
    active = (flat > threshold) & (indices > 0)
    return NoiseGroupInfo(active=active, energy_indices=np.where(active, indices, 0).astype(np.uint8))


def synthesize_noise(
    info: NoiseGroupInfo,
    groups: FrequencyGroups,
    channel_count: int,
    stream_seed: int,
    frame_index: int,
) -> np.ndarray:
    """Decoder-side spectra for the discarded channels, (L, C).

    One Philox generator keyed by the stream seed, its counter's word 1 set
    to the frame index, draws a (C, L) standard-normal block: row c is
    discarded channel c, and each group takes its own bins of the row,
    active or not, so any frame's noise is reached directly and no group's
    samples depend on another's activity.  Active groups are rescaled so
    each channel's per-bin average power in the group equals the
    dequantized energy exactly; all other bins are +0.0.
    """
    energies = info.energies()
    if channel_count == 0 or not energies.any():
        return np.zeros((groups.num_bins, channel_count))
    # Philox increments counter word 0 per block, so the frame sits in word
    # 1: frames never share a block
    rng = np.random.Generator(np.random.Philox(key=stream_seed, counter=[0, frame_index, 0, 0]))
    draws = rng.standard_normal((channel_count, groups.num_bins))
    layout = groups.layout(channel_count)
    ss = layout.group_sums(np.square(draws).ravel())  # (C · 49,), channel-major
    for g in np.flatnonzero(ss == 0):  # an all-zero draw becomes a flat group
        draws.ravel()[layout.offsets[g] : layout.offsets[g + 1]] = 1.0
        ss[g] = layout.widths[g]
    gain = np.sqrt(np.tile(energies, channel_count) * layout.widths / ss)
    draws *= np.repeat(gain, layout.widths).reshape(draws.shape)
    # a zero gain times a negative draw leaves -0.0 in an inactive bin, and
    # adding +0.0 makes it +0.0 and changes no other value
    draws += 0.0
    return draws.T
