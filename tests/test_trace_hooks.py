"""The benchmark's tracer patches library functions by name.

Entering and leaving ``Tracer.recording()`` looks up every name in
``perfbench/tracer.py``'s ``LAYERS`` and the counted ``BitReader``/
``BitWriter`` methods, so this fails as soon as a rename or deletion in
``src/hoacodec`` removes one of them.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import hoacodec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_patches_and_restores_every_traced_name(monkeypatch):
    for info in pkgutil.iter_modules(hoacodec.__path__):
        importlib.import_module(f"hoacodec.{info.name}")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_module = importlib.import_module("tracer")

    originals = {
        (mod, fname): getattr(sys.modules[f"hoacodec.{mod}"], fname)
        for mod, fnames in tracer_module.LAYERS.items()
        for fname in fnames
    }
    tracer = tracer_module.Tracer()
    with tracer.recording():
        for (mod, fname), original in originals.items():
            assert getattr(sys.modules[f"hoacodec.{mod}"], fname) is not original
    for (mod, fname), original in originals.items():
        assert getattr(sys.modules[f"hoacodec.{mod}"], fname) is original
