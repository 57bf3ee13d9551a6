"""Span and count recording around the public functions of ``hoacodec``.

The tracer patches module attributes from outside the library: every
namespace that holds one of the listed function objects (including names
imported with ``from ... import``) gets the same wrapper, so a call is
recorded whichever module makes it.  ``BitReader``/``BitWriter`` methods
and scipy's assignment solver are counted without spans.  Spans live in
memory until :meth:`Tracer.write`.  The wrappers are in place only inside
:meth:`Tracer.recording`, so untraced code runs the library unpatched.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter

import scipy.optimize

from hoacodec import bitio

# module -> public functions that get a span, in report order
LAYERS = {
    "core_codec": [
        "masking_threshold", "quantize_mnmr", "channel_cost", "entropy_encode_channel",
        "measure_nmr", "dequantize_channel", "entropy_decode_channel",
    ],
    "transform": ["mdct_forward", "mdct_inverse"],
    "numlin": ["svd", "hungarian", "quantize_nearest", "gla_train"],
    "baseline_td": ["truncated_basis", "match_bases", "decompose_frame", "interpolate_basis"],
    "freq_svd": ["band_decompose", "compute_residual"],
    "sideinfo": ["encode_sideinfo", "decode_sideinfo", "harvest_training_pairs", "train_quantizers"],
    "noise_subst": ["analyze_discarded", "synthesize_noise"],
    "hoa_io": ["read_hoa_wav", "write_hoa_wav"],
    "scenes": ["render_scene"],
    "pipeline": ["encode", "decode", "measure_stream"],
}

_READER_METHODS = ("read", "read_flag", "peek", "skip", "read_ue", "read_se", "read_f64", "read_bytes")
_WRITER_METHODS = ("write", "write_flag", "write_ue", "write_se", "write_f64", "write_bytes", "getvalue")


class Tracer:
    """Records ``[name, start, end, parent, op]`` spans and named counts."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.enabled = False
        self.op = "-"  # id of the benchmark op the next spans belong to
        self._stack: list = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, op: str | None = None):
        """A benchmark-level span; ``op`` sets the op id for its subtree."""
        if not self.enabled:
            yield
            return
        prev_op = self.op
        if op is not None:
            self.op = op
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()
            self.op = prev_op

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "pipeline.encode":
                self.counts[f"encoded_frames.{result.stats.codec}"] += len(result.stats.frames)
                self.counts["written_bits"] += 8 * len(result.stream)
            elif name in ("pipeline.decode", "pipeline.measure_stream"):
                self.counts["read_bits"] += 8 * len(args[0])
            return result

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    @contextlib.contextmanager
    def recording(self):
        """Record spans and counts inside the block, with the library patched."""
        self._install()
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            self._uninstall()

    def _install(self) -> None:
        """Wrap every listed function in every ``hoacodec`` namespace."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "hoacodec" or n.startswith("hoacodec.")]
        for mod_name, funcs in LAYERS.items():
            home = sys.modules[f"hoacodec.{mod_name}"]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self._spanned(f"{mod_name}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        for cls, methods, key in (
            (bitio.BitReader, _READER_METHODS, "reader_calls"),
            (bitio.BitWriter, _WRITER_METHODS, "writer_calls"),
        ):
            for m in methods:
                self._patch(cls, m, self._counted(key, getattr(cls, m)))
        self._patch(scipy.optimize, "linear_sum_assignment",
                    self._counted("lsa_calls", scipy.optimize.linear_sum_assignment))

    def _uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """name -> [calls, self seconds]; self = duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start - covered
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metrics named ``<module>.<function>.calls``/``.self_s``
        plus the ratios measured at the same boundaries."""
        times = self.self_times()
        metrics = {}
        for mod_name, funcs in LAYERS.items():
            for fname in funcs:
                calls, self_s = times.get(f"{mod_name}.{fname}", (0, 0.0))
                metrics[f"{mod_name}.{fname}.calls"] = (calls, "count")
                metrics[f"{mod_name}.{fname}.self_s"] = (self_s, "s")
        masking_proposed = sum(
            1 for s in self.spans if s[0] == "core_codec.masking_threshold" and "/proposed/" in s[4]
        )
        c = self.counts
        metrics["core_codec.masking_threshold.calls_per_frame"] = (
            _ratio(masking_proposed, c["encoded_frames.proposed"]), "1/frame")
        metrics["bitio.reader_calls_per_bit"] = (_ratio(c["reader_calls"], c["read_bits"]), "1/bit")
        metrics["bitio.writer_calls_per_bit"] = (_ratio(c["writer_calls"], c["written_bits"]), "1/bit")
        metrics["numlin.lsa_calls_per_hungarian"] = (
            _ratio(c["lsa_calls"], times.get("numlin.hungarian", (0, 0.0))[0]), "1/call")
        return metrics

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
