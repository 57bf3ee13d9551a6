import math

import numpy as np
import pytest
from scipy.special import lpmv

from hoacodec.scenes import sn3d_harmonics


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


@pytest.mark.parametrize("order", range(5))
def test_harmonics_match_the_per_degree_and_order_formula(order):
    """Byte for byte, on a moving source sweeping every azimuth and the
    whole elevation range, poles included."""
    t = np.linspace(0.0, 1.0, 4001)
    azimuth = 2 * np.pi * 3 * t - np.pi
    elevation = np.pi / 2 * np.sin(2 * np.pi * 5 * t)
    elevation[[0, -1]] = np.pi / 2, -np.pi / 2
    got = sn3d_harmonics(order, azimuth, elevation)
    assert got.tobytes() == _per_degree_and_order(order, azimuth, elevation).tobytes()


def test_first_order_is_w_y_z_x():
    az, el = np.array([0.3, -2.0]), np.array([0.5, -1.1])
    got = sn3d_harmonics(1, az, el)
    want = np.stack([np.ones(2), np.sin(az) * np.cos(el), np.sin(el), np.cos(az) * np.cos(el)], axis=1)
    assert np.allclose(got, want, rtol=0, atol=1e-15)
