"""Smoke test: demos 01-04 run to completion in their own processes, with
every ``RuntimeWarning`` an error as in the suite itself (pyproject.toml's
filter does not reach a subprocess).

The demos call the library's public API (02 the ``freq_svd`` band
decomposition), so an API change that breaks one shows up here.  Demo 05
retrains the Huffman tables on the whole corpus, which takes about 27 s,
and is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hoacodec

_DEMOS = Path(__file__).resolve().parent.parent / "demos"
_SRC = str(Path(hoacodec.__file__).resolve().parent.parent)


@pytest.mark.parametrize("name", [
    "01_transform_roundtrip.py",
    "02_band_compaction.py",
    "03_noise_substitution.py",
    "04_encode_decode.py",
])
def test_demo_runs(name, tmp_path):
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(_DEMOS / name)], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert done.returncode == 0, done.stderr
