"""Golden SHA-256 of streams and decoded samples.

The codecs promise byte-identical streams and bit-identical decodes for the
same input and config; a refactor must not move any of these hashes. The
decoded samples depend on numpy's and scipy's floating-point kernels (FFT,
BLAS, pairwise sums), so the pinned values hold for the numpy/scipy builds
they were recorded with; on another build, regenerate them from a commit
known to be correct and compare that commit against the change.

Setup: the 0.4 s ``small_scene`` and ``small_quantizers`` fixtures, L=256,
seed 5; quantized at rank 4 and background order 1, bypass at rank 16 and
background order 3.
"""

import hashlib

import numpy as np
import pytest

from hoacodec import pipeline
from hoacodec.errors import StreamError

_OPERATING_POINTS = {
    "quantized": dict(rank=4, background_order=1),
    "bypass": dict(rank=16, background_order=3, bypass_quantization=True),
}

# (codec, mode) -> stream, decoded, decoded with frame 3 damaged, partial of a 2/3 cut
GOLDEN = {
    ("proposed", "quantized"): (
        "d01406d45e81e93464acc75376de028e0e32c8040eb2bbec542d06998b324453",
        "f11b5e04ef1e1756363f29e2df60e53d88e71cb7b8b0483a68704cf4dc8118cb",
        "ca5f18634be191c06e5d6378e0be6f482e087779f28041342f05695e33daaab3",
        "d069030be20f4e543bd8bfdb83856800b491769fb06d427f99c38a798ac2e473",
    ),
    ("proposed", "bypass"): (
        "b63ff2b3d12153241b57e5bfd270ee4482797c01f2bad9a1c0ac4e4784f5d62d",
        "07f8ebbd4286e3a2e33db7f13d7750d94484fc378ae6f29468a230836e1eeff6",
        "7a2b89ebd509f05031e72636ed653e152c8228e754411980fbdf5e39896b4152",
        "b6fe5c19655101217baff6ae96d58aa6715ddfc90ee38d5bfce136cf06408489",
    ),
    ("baseline", "quantized"): (
        "a9cb80f3e2132fd8f1aaa49156e68549006bb06b842cbf643a8e2b785059c7ea",
        "4031b5f358c20a30442edf9cdb958f22d57c1b9caf694496281483158af9f5c5",
        "592f5aecfc22fb6afefc1f469f0912283c7a76c42521ad26a969ded8a00c2653",
        "5310a3e079be22101ab5eab483bc18767d584bb766fe8d4c3f811cc541a08541",
    ),
    ("baseline", "bypass"): (
        "b11ad520d7ad64d65d2368c481d57efb3c9952a55a4d3200a2b34282476be774",
        "6c1d5e45457452ef5d2501cd33295bbd76bc9dcac14d58d79c8eec4154f1f9b0",
        "291de1a98bed5bfe343302cfcd77126b30a75a01c94cad4024f1cd346f7c1f22",
        "d533f7a8eb53ed4c21d2a63a7a1dbc322f9ff7d74b7b339a7943f6aa6b9d37c5",
    ),
}


def _sha(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


def _damage_frame(stream: bytes, index: int) -> bytes:
    """Flip one byte in the middle of frame ``index``'s payload (its CRC fails)."""
    pos = pipeline.HEADER_BYTES
    for _ in range(index):
        pos += 8 + int.from_bytes(stream[pos : pos + 4], "big")
    size = int.from_bytes(stream[pos : pos + 4], "big")
    out = bytearray(stream)
    out[pos + 4 + size // 2] ^= 0xFF
    return bytes(out)


def _hashes(scene, quantizers, codec, mode):
    cfg = pipeline.EncoderConfig(
        codec=codec, half_length=256, seed=5,
        quantizers=None if mode == "bypass" else quantizers,
        **_OPERATING_POINTS[mode],
    )
    stream = pipeline.encode(scene, cfg).stream
    decoded = pipeline.decode(stream, quantizers=quantizers).signal.samples
    damaged = pipeline.decode(_damage_frame(stream, 3), quantizers=quantizers).signal.samples
    with pytest.raises(StreamError) as exc:
        pipeline.decode(stream[: 2 * len(stream) // 3], quantizers=quantizers)
    partial = exc.value.partial.samples
    return tuple(_sha(x) for x in (stream, decoded, damaged, partial))


@pytest.mark.parametrize("codec,mode", sorted(GOLDEN))
def test_golden_hashes(small_scene, small_quantizers, codec, mode):
    assert _hashes(small_scene, small_quantizers, codec, mode) == GOLDEN[codec, mode]
