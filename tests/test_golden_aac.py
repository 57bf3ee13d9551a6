"""Golden SHA-256 of quantized streams and decodes at L=1024.

``tests/test_golden.py`` codes at L=256, whose 49 uniform groups are 5 and 6
bins wide. At L=1024 the default group table is the AAC 48 kHz long-window
one, with 9 band widths from 4 to 96 bins; the encoder's scalefactor
search and entropy cost group bands by width, so these pins cover the
widths the L=256 ones do not. The same numpy/scipy caveat as in
``tests/test_golden.py`` applies to the decoded hashes.

Setup: the 0.4 s ``small_scene`` and ``small_quantizers`` fixtures, L=1024,
seed 5, rank 4, background order 1, MNMR 1.
"""

import hashlib

import numpy as np
import pytest

from conftest import pinned_kernel_note
from hoacodec import pipeline

# codec -> (stream, decoded)
GOLDEN = {
    "proposed": (
        "5506767734844c09581eb2893dc1dfcc0fbfa802b081f36ff2094c8a25dd3949",
        "a28cb7b5c4903aae5b519b999f309a176796f170cbe8148204726d93c7cdcc86",
    ),
    "baseline": (
        "ccaa2eecfd1479e8ccfb98c6edf50647a473af23591dc2186ead1aba166ff933",
        "8a25178a336be17cbf2221dceb79d44af0722cdf6be523bb86ca42700302a045",
    ),
}


def _sha(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("codec", sorted(GOLDEN))
def test_golden_hashes_aac_groups(small_scene, small_quantizers, codec):
    cfg = pipeline.EncoderConfig(
        codec=codec, half_length=1024, seed=5, rank=4, background_order=1,
        quantizers=small_quantizers,
    )
    stream = pipeline.encode(small_scene, cfg).stream
    assert stream[pipeline.HEADER_BYTES - 1] == pipeline.GROUP_TABLE_AAC48K  # the header's last field
    decoded = pipeline.decode(stream, quantizers=small_quantizers).signal.samples
    assert (_sha(stream), _sha(decoded)) == GOLDEN[codec], pinned_kernel_note()
