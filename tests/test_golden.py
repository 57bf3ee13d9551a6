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

from conftest import pinned_kernel_note
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
        "9fcfddcc8f7499e993b121903204460024742ae786cd055872d6109ec3bba399",
        "a64b3eb71309e36a78e2974e0203e1731eff19b9393bcf0d049375cce51e3d15",
        "7241f62247623f05fff08d01557a31c51fd49ef32e0f3ec8fd986bac9c7f80a8",
    ),
    ("proposed", "bypass"): (
        "b63ff2b3d12153241b57e5bfd270ee4482797c01f2bad9a1c0ac4e4784f5d62d",
        "07f8ebbd4286e3a2e33db7f13d7750d94484fc378ae6f29468a230836e1eeff6",
        "7a2b89ebd509f05031e72636ed653e152c8228e754411980fbdf5e39896b4152",
        "b6fe5c19655101217baff6ae96d58aa6715ddfc90ee38d5bfce136cf06408489",
    ),
    ("baseline", "quantized"): (
        "a9cb80f3e2132fd8f1aaa49156e68549006bb06b842cbf643a8e2b785059c7ea",
        "e04925ea562301aea5b1e22cb1b87ada3088a02e64f5a48c3437797624f2792c",
        "4ee4a3985eef457e7d550d57e6a7931310f3603b00af5d06cc6cf4fe1aebc66e",
        "aef08e4f06572432612658064baff0371161a5bc41a72d96111a4de7154585aa",
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
    assert _hashes(small_scene, small_quantizers, codec, mode) == GOLDEN[codec, mode], pinned_kernel_note()
