import numpy as np
import pytest

from hoacodec.errors import ShapeError
from hoacodec.hoa_io import num_frames
from hoacodec.transform import (
    SpectralFrame,
    analyze,
    check_window,
    mdct_forward,
    mdct_inverse,
    overlap_add,
    sine_window,
    synthesize,
)


def naive_mdct(z, L):
    """Normative O(L^2) cosine sum; the oracle the fast path must match."""
    out = np.zeros((L, z.shape[1]))
    for k in range(L):
        phase = np.cos(np.pi / L * (np.arange(2 * L) + 0.5 + L / 2) * (k + 0.5))
        out[k] = phase @ z
    return out


def naive_imdct(X, L):
    out = np.zeros((2 * L, X.shape[1]))
    for n in range(2 * L):
        phase = np.cos(np.pi / L * (n + 0.5 + L / 2) * (np.arange(L) + 0.5))
        out[n] = (2.0 / L) * (phase @ X)
    return out


def test_sine_window_princen_bradley():
    for L in (4, 64, 1024):
        check_window(sine_window(L))


def test_sine_window_is_a_read_only_array():
    win = sine_window(8)
    assert win.shape == (16,) and win.dtype == np.float64
    with pytest.raises(ValueError):
        win[0] = 0.0


@pytest.mark.parametrize("L", [0, 1, 255, -4])
def test_sine_window_refuses_half_lengths_the_mdct_cannot_fold(L):
    with pytest.raises(ShapeError, match="half length"):
        sine_window(L)


def test_bad_window_rejected():
    with pytest.raises(ShapeError, match="symmetric"):
        check_window(np.linspace(0, 1, 16))
    with pytest.raises(ShapeError, match="Princen-Bradley"):
        check_window(np.ones(16))


@pytest.mark.parametrize("window", [np.ones(15), np.ones((2, 8)), np.ones(())])
def test_window_not_1d_of_even_length_is_refused(window):
    frame, spec = np.zeros((16, 2)), np.zeros((8, 2))
    for call in (
        lambda: check_window(window),
        lambda: mdct_forward(frame, window),
        lambda: mdct_inverse(spec, window),
        lambda: list(overlap_add([spec], window)),
        lambda: synthesize([SpectralFrame(index=0, coeffs=spec)], window, 8),
    ):
        with pytest.raises(ShapeError, match="1-D array of even length"):
            call()


def test_zero_frame_gives_zero_coefficients():
    win = sine_window(32)
    assert np.all(mdct_forward(np.zeros((64, 3)), win) == 0.0)


def test_forward_matches_naive_reference(rng):
    L = 64
    win = sine_window(L)
    x = rng.standard_normal((2 * L, 16))
    fast = mdct_forward(x, win)
    ref = naive_mdct(win[:, None] * x, L)
    assert np.max(np.abs(fast - ref)) < 1e-9 * np.max(np.abs(ref))


def test_inverse_matches_naive_reference(rng):
    L = 64
    win = sine_window(L)
    X = rng.standard_normal((L, 4))
    fast = mdct_inverse(X, win)
    ref = win[:, None] * naive_imdct(X, L)
    assert np.max(np.abs(fast - ref)) < 1e-9 * np.max(np.abs(ref))


def test_cosine_input_concentrates_at_its_bin(rng):
    L = 64
    win = sine_window(L)
    k0 = 13
    x = np.cos(np.pi / L * (np.arange(2 * L) + 0.5 + L / 2) * (k0 + 0.5))
    spec = mdct_forward(x[:, None], win)[:, 0]
    # windowing leaks into neighbors; the peak must still be at k0
    assert np.argmax(np.abs(spec)) == k0
    assert np.abs(spec[k0]) > 10 * np.median(np.abs(spec))


def test_linearity(rng):
    L = 32
    win = sine_window(L)
    x = rng.standard_normal((2 * L, 2))
    y = rng.standard_normal((2 * L, 2))
    a, b = 1.7, -0.4
    lhs = mdct_forward(a * x + b * y, win)
    rhs = a * mdct_forward(x, win) + b * mdct_forward(y, win)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(lhs))


def test_shape_mismatch_raises(rng):
    win = sine_window(32)
    with pytest.raises(ShapeError):
        mdct_forward(np.zeros((48, 2)), win)
    with pytest.raises(ShapeError):
        mdct_inverse(np.zeros((48, 2)), win)


def test_tdac_roundtrip_perfect_reconstruction(rng):
    L = 256
    win = sine_window(L)
    x = rng.standard_normal((10 * L + 37, 4))
    spectra, _ = analyze(x, L, win)
    y = synthesize(spectra, win, x.shape[0])
    rel = np.linalg.norm(y - x) / np.linalg.norm(x)
    assert rel < 1e-9


def test_roundtrip_snr_over_180db(rng):
    L = 128
    win = sine_window(L)
    x = rng.standard_normal((10 * L, 3))
    spectra, _ = analyze(x, L, win)
    y = synthesize(spectra, win, x.shape[0])
    snr = -20 * np.log10(np.linalg.norm(y - x) / np.linalg.norm(x))
    assert snr > 180


def test_overlap_add_of_constant_blocks(rng):
    # the same spectrum in every frame: each interior hop sums the second
    # half of one block and the first half of the next
    L = 16
    win = sine_window(L)
    X = rng.standard_normal((L, 1))
    block = mdct_inverse(X, win)
    hops = list(overlap_add(iter([X] * 3), win))
    assert len(hops) == 4
    assert np.array_equal(hops[0], 0.0 + block[:L])
    for hop in hops[1:3]:
        assert np.array_equal(hop, 0.0 + block[L:] + block[:L])
    assert np.array_equal(hops[3], 0.0 + block[L:])
    sp = SpectralFrame(index=0, coeffs=X)
    assert np.array_equal(synthesize((s for s in [sp] * 3), win, 2 * L), np.concatenate(hops[1:3]))


def test_overlap_add_length_arithmetic(rng):
    L = 1024
    win = sine_window(L)
    spectra = [SpectralFrame(index=f, coeffs=rng.standard_normal((L, 2))) for f in range(3)]
    assert synthesize(spectra, win, 2048).shape == (2048, 2)
    # three frames cover 3L samples after the head padding, however long
    # the signal was
    assert synthesize(iter(spectra), win, 10 * L).shape == (3 * L, 2)
    assert synthesize([], win, 2048).shape == (0, 0)


def test_analyze_numbers_its_frames_from_zero(rng):
    L = 32
    for length in (1, 32, 100):
        spectra, _ = analyze(rng.standard_normal((length, 2)), L)
        assert [sp.index for sp in spectra] == list(range(num_frames(length, L)))


def test_parseval_ratio_is_half_frame_length(rng):
    # the frozen regression constant: coefficient energy over windowed
    # energy per frame settles at L/2 for the unnormalized transform
    L = 64
    win = sine_window(L)
    x = rng.standard_normal((20 * L, 2))
    spectra, _ = analyze(x, L, win)
    coef = sum(float(np.sum(sp.coeffs**2)) for sp in spectra)
    windowed = 0.0
    from hoacodec.hoa_io import pad_signal

    padded = pad_signal(x, L)
    for sp in spectra:
        block = padded[sp.index * L : sp.index * L + 2 * L]
        windowed += float(np.sum((win[:, None] * block) ** 2))
    assert coef / windowed == pytest.approx(L / 2, rel=1e-9)
