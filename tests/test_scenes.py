import math

import numpy as np
import pytest
from scipy.special import lpmv

from hoacodec.scenes import corpus_specs, render_scene, sn3d_harmonics


def _per_degree_and_order(order, azimuth, elevation):
    """One Legendre function and one cosine or sine per (n, m)."""
    x = np.sin(elevation)
    out = np.empty((azimuth.size, (order + 1) ** 2))
    for n in range(order + 1):
        for m in range(-n, n + 1):
            am = abs(m)
            norm = math.sqrt((2.0 if m else 1.0) * math.factorial(n - am) / math.factorial(n + am))
            leg = ((-1.0) ** am) * lpmv(am, n, x)
            trig = np.cos(m * azimuth) if m >= 0 else np.sin(am * azimuth)
            out[:, n * n + n + m] = norm * leg * trig
    return out


def _trajectories():
    t = np.linspace(0.0, 1.0, 4001)
    sweep = np.pi / 2 * np.sin(2 * np.pi * 5 * t)
    sweep[[0, -1]] = np.pi / 2, -np.pi / 2
    signs = np.where(np.arange(t.size) % 3, 0.0, -0.0)
    return {
        "sweep": (2 * np.pi * 3 * t - np.pi, sweep),
        "static": (np.full(t.size, 0.7), np.full(t.size, -0.3)),
        "static at -0.0": (np.full(t.size, -0.0), np.full(t.size, -0.0)),
        "horizontal orbit": (1.2 * t, np.zeros(t.size)),
        "fixed azimuth, moving elevation": (np.full(t.size, -1.8), sweep),
        "-0.0 and +0.0 mixed": (signs, -signs),
        "one sample": (np.array([0.4]), np.array([-0.2])),
        "no samples": (np.zeros(0), np.zeros(0)),
    }


@pytest.mark.parametrize("order", range(5))
def test_harmonics_match_the_per_degree_and_order_formula(order):
    """Byte for byte: on a moving source sweeping every azimuth and the
    whole elevation range, poles included; on a static source, a horizontal
    orbit and a fixed azimuth; where -0.0 and +0.0 must stay apart; on one
    sample (a static source's one row in render_scene) and on none."""
    for name, (azimuth, elevation) in _trajectories().items():
        got = sn3d_harmonics(order, azimuth, elevation)
        want = _per_degree_and_order(order, azimuth, elevation)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def _per_sample_render(spec):
    """render_scene with every source's harmonics taken per sample by
    :func:`_per_degree_and_order`."""
    n = int(round(spec.duration * spec.sample_rate))
    out = np.zeros((n, (spec.order + 1) ** 2))
    for src in spec.sources:
        azimuth, elevation = src.trajectory(n, spec.sample_rate)
        out += src.render(n, spec.sample_rate)[:, None] * _per_degree_and_order(spec.order, azimuth, elevation)
    if spec.diffuse_level > 0:
        orders = np.repeat(np.arange(spec.order + 1), 2 * np.arange(spec.order + 1) + 1)
        bed = np.random.default_rng(spec.seed).standard_normal(out.shape)
        out += spec.diffuse_level * bed / np.sqrt(2 * orders + 1)
    peak = np.max(np.abs(out))
    if peak > 0.99:
        out *= 0.99 / peak
    return out


@pytest.mark.parametrize("spec", corpus_specs(duration=0.05), ids=lambda spec: spec.name)
def test_corpus_scenes_match_a_per_sample_render(spec):
    """Static sources take one harmonics row; the samples stay those of a
    per-sample render, byte for byte."""
    got = render_scene(spec).samples
    assert got.tobytes() == _per_sample_render(spec).tobytes()


def test_first_order_is_w_y_z_x():
    az, el = np.array([0.3, -2.0]), np.array([0.5, -1.1])
    got = sn3d_harmonics(1, az, el)
    want = np.stack([np.ones(2), np.sin(az) * np.cos(el), np.sin(el), np.cos(az) * np.cos(el)], axis=1)
    assert np.allclose(got, want, rtol=0, atol=1e-15)
