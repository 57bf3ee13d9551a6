"""Output checks.  Each returns a list of failure messages; empty means pass."""

from __future__ import annotations

import hashlib

import numpy as np

# relative slack on the MNMR ceiling, as in the acceptance suite
MNMR_TOL = 1e-9


def encoded(stream: bytes, stats, mnmr: float) -> list:
    """Exact container accounting and the MNMR ceiling of an encode."""
    failures = []
    if 8 * len(stream) != stats.total_bits:
        failures.append(f"8*len(stream)={8 * len(stream)} != total_bits={stats.total_bits}")
    for f in stats.frames:
        if f.escalated_bands == 0 and f.max_nmr > mnmr * (1 + MNMR_TOL):
            failures.append(f"frame {f.index}: max_nmr {f.max_nmr:.6g} > MNMR {mnmr}")
    return failures


def accounting(encoder_stats, measured) -> list:
    """``measure_stream`` per-frame bit categories equal the encoder's."""
    if len(measured.frames) != len(encoder_stats.frames):
        return [f"measured {len(measured.frames)} frames, encoder wrote {len(encoder_stats.frames)}"]
    failures = []
    for e, m in zip(encoder_stats.frames, measured.frames):
        for key in ("side_bits", "noise_bits", "core_bits", "padding_bits"):
            if getattr(e, key) != getattr(m, key):
                failures.append(f"frame {e.index}: {key} encoder {getattr(e, key)} measured {getattr(m, key)}")
    return failures


def decoded(result, source) -> list:
    """No concealment, finite samples, and the input's shape."""
    failures = []
    if result.concealed_frames:
        failures.append(f"{result.concealed_frames} concealed frame(s)")
    samples = result.signal.samples
    if samples.shape != source.samples.shape:
        failures.append(f"decoded shape {samples.shape} != input shape {source.samples.shape}")
    if not np.all(np.isfinite(samples)):
        failures.append("non-finite decoded samples")
    return failures


def sha256_samples(samples: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(samples, dtype=np.float64).tobytes()).hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
