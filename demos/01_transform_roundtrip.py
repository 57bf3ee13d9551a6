"""MDCT analysis/synthesis: perfect reconstruction through overlap-add.

Runs a multichannel signal through windowing, the lapped transform and its
inverse, and shows that the chain is transparent to double precision, with
the energy ratio between coefficient and windowed-signal domains settling
at the constant L/2.
"""

import numpy as np

from hoacodec.hoa_io import pad_signal
from hoacodec.transform import analyze, check_window, sine_window, synthesize

L = 1024
rng = np.random.default_rng(1)
x = rng.standard_normal((12 * L + 345, 16))

window = sine_window(L)
check_window(window)
print(f"sine window of length {2 * L}: Princen-Bradley condition holds")

spectra, _ = analyze(x, L, window)
print(f"{len(spectra)} frames of {L} x {x.shape[1]} coefficients")

y = synthesize(spectra, window, x.shape[0])
rel = np.linalg.norm(y - x) / np.linalg.norm(x)
print(f"roundtrip relative L2 error: {rel:.3e}  (SNR {-20 * np.log10(rel):.0f} dB)")

coef_energy = sum(float(np.sum(sp.coeffs**2)) for sp in spectra)
padded = pad_signal(x, L)
win_energy = sum(
    float(np.sum((window[:, None] * padded[sp.index * L : sp.index * L + 2 * L]) ** 2))
    for sp in spectra
)
print(f"coefficient/windowed energy ratio: {coef_energy / win_energy:.6f} (L/2 = {L / 2})")
