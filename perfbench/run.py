"""hoacodec benchmark: one closed-loop caller drives the library in-process.

    python3 perfbench/run.py --workload encode_sweep --seed 0 --seconds 15 --trace 0

Set-up (scene rendering, codebook training, archive encode) runs three
times and reports its median.  Then whole passes over the workload's ops
run back to back while the next pass is expected to end within
``--seconds``.  Every output is checked.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` (ops) and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics of one traced set-up and pass with ``--trace 1``.  The full report
goes to ``.perfbench_out/``; see README.md.
"""

import os

# one caller on a small machine: keep BLAS and OpenMP pools at one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference_hashes.json"
SETUP_REPEATS = 3
DEFAULT_SEED = 0  # reproduces scenes.corpus_specs exactly; reference hashes are for it

# (name, unit) of the metrics each workload reports to the gate, see README.md
GATED = (
    ("setup_s", "s"),
    ("proposed_s_per_audio_s", "ref_s/s"),
    ("baseline_s_per_audio_s", "ref_s/s"),
    ("kbps_proposed", "kbps"),
    ("kbps_baseline", "kbps"),
    ("proposed_rate_pct_of_baseline", "%"),
    ("snr_db_proposed", "dB"),
    ("snr_db_baseline", "dB"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's output hashes as the reference (default seed only)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.write_reference and args.seed != DEFAULT_SEED:
        p.error("reference hashes are kept for the default seed only")
    return args


def blas_threads() -> dict:
    """Thread count each bundled OpenBLAS reports, where it can be asked."""
    found = {}
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, fn):
                    get = getattr(handle, fn)
                    get.argtypes, get.restype = [], ctypes.c_int
                    found[lib.name] = get()
                    break
    return found


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads() or os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def run(wl, seed, seconds, trace, workdir, clock, tracer):
    """Set-ups then passes.  With ``trace`` the last set-up and the second
    pass (with its checks) are traced; everything else runs untraced."""
    import workloads

    setup_times = []  # step spans of each set-up
    for i in range(SETUP_REPEATS):
        traced = trace and i == SETUP_REPEATS - 1
        with tracer.recording() if traced else contextlib.nullcontext(), tracer.span("setup", op="setup"):
            items, quantizers, steps = workloads.set_up(wl, seed, workdir, clock, tracer)
        setup_times.append(steps)

    passes, pass_times = [], []
    while True:
        traced = trace and len(passes) == 1
        results, elapsed = [], 0.0
        with tracer.recording() if traced else contextlib.nullcontext():
            for i, item in enumerate(items):
                t0 = perf_counter()
                res = workloads.run_op(wl, item, quantizers, workdir, clock, tracer)
                elapsed += perf_counter() - t0
                if not passes or traced:
                    workloads.verify(res, quantizers, tracer)
                res.settle()
                if passes:
                    workloads.verify_repeat(res, passes[0][i])
                    res.encoded = res.measured = None  # the first pass keeps the outputs
                results.append(res)
        passes.append(results)
        pass_times.append(elapsed)
        if len(passes) >= 1 + trace and sum(pass_times) + statistics.mean(pass_times) > seconds:
            return setup_times, passes, pass_times


def s_per_audio_s(passes, codec, stages, ref, clock):
    """Time the ops spent in ``stages`` over the audio seconds they coded;
    wall seconds, or reference seconds with ``ref``."""
    ops = [r for results in passes for r in results
           if not r.failures and (codec is None or r.item.cfg.codec == codec)]
    audio = sum(r.item.audio_s for r in ops)
    return sum(clock.seconds(r.times[s])[ref] for r in ops for s in stages) / audio if audio else None


def output_metrics(results) -> dict:
    """Rate, fidelity and stream counts of one pass's outputs (name -> value)."""
    ok = [r for r in results if not r.failures]
    out = {}
    for codec in ("proposed", "baseline"):
        mine = [r for r in ok if r.item.cfg.codec == codec]
        bits = sum(r.encoded.stats.total_bits for r in mine)
        audio = sum(r.item.audio_s for r in mine)
        out[f"kbps_{codec}"] = bits / audio / 1000 if audio else None
        # mean of per-stream SNRs: steadier across seeds than one pooled SNR,
        # which the loudest scenes dominate
        snrs = [r.snr_db for r in mine if r.snr_db is not None]
        out[f"snr_db_{codec}"] = statistics.mean(snrs) if snrs else None
    # per (scene, MNMR) reduction averaged, as the compare command's table does
    by_key = {(r.item.scene, r.item.cfg.mnmr, r.item.cfg.codec): r.encoded.stats.kbps for r in ok}
    reductions = [
        100 * (by_key[(s, m, "baseline")] - by_key[(s, m, "proposed")]) / by_key[(s, m, "baseline")]
        for (s, m, c) in by_key if c == "baseline" and (s, m, "proposed") in by_key
    ]
    out["rate_reduction_pct"] = statistics.mean(reductions) if reductions else None
    out["proposed_rate_pct_of_baseline"] = 100 - out["rate_reduction_pct"] if reductions else None
    frames = [f for r in ok for f in r.encoded.stats.frames]
    total_bits = sum(r.encoded.stats.total_bits for r in ok)
    out["pipeline.frames"] = len(frames)
    out["pipeline.side_info_share"] = sum(f.side_bits for f in frames) / total_bits if total_bits else 0.0
    out["pipeline.escalated_bands"] = sum(f.escalated_bands for f in frames)
    return out


def changed_outputs(workload, seed, hashes):
    """Outputs whose SHA-256 differs from the reference; None off the default seed."""
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    ref = json.loads(REFERENCE.read_text()).get(workload, {})
    return sum(1 for k, v in ref.items() if hashes.get(k) != v)


def main(argv=None) -> int:
    if not (ROOT / "src" / "hoacodec" / "__init__.py").is_file():
        print(f"perfbench: no hoacodec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)

    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    clock = workloads.Clock()
    tracer = Tracer()
    try:
        setup_times, passes, pass_times = run(wl, args.seed, args.seconds, args.trace, workdir, clock, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced_pass = 1 if args.trace else None
    plain = [p for i, p in enumerate(passes) if i != traced_pass]
    # (wall s, reference s) of each set-up
    setup_totals = [tuple(sum(clock.seconds(span)[k] for span in steps.values()) for k in (0, 1))
                    for steps in setup_times]
    plain_setups = setup_totals[:SETUP_REPEATS - args.trace]
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if r.failures)
    outputs = output_metrics(passes[0])
    hashes = {k: v for r in passes[0] for k, v in r.hashes().items()}
    changed = changed_outputs(wl.name, args.seed, hashes)

    def per_audio(codec, stages, ref=1, runs=plain):
        return s_per_audio_s(runs, codec, stages, ref, clock) if set(stages) <= set(wl.stages) else None

    e2e = {
        "setup_s": statistics.median(t[1] for t in plain_setups),
        "proposed_s_per_audio_s": per_audio("proposed", wl.stages),
        "baseline_s_per_audio_s": per_audio("baseline", wl.stages),
        **{k: outputs[k] for k in ("kbps_proposed", "kbps_baseline", "proposed_rate_pct_of_baseline",
                                   "snr_db_proposed", "snr_db_baseline")},
        "peak_rss_mb": peak_rss_mb,
    }
    # the 13 end-to-end figures in wall seconds, as README.md lists them;
    # None where the workload does not run the op that produces one
    figures = {
        "setup_s": (statistics.median(t[0] for t in plain_setups), "s"),
        "encode_proposed_s_per_audio_s": (per_audio("proposed", ["encode"], 0), "s/s"),
        "encode_baseline_s_per_audio_s": (per_audio("baseline", ["encode"], 0), "s/s"),
        "decode_proposed_s_per_audio_s": (per_audio("proposed", ["decode"], 0), "s/s"),
        "decode_baseline_s_per_audio_s": (per_audio("baseline", ["decode"], 0), "s/s"),
        "stats_s_per_audio_s": (per_audio(None, ["stats"], 0), "s/s"),
        "kbps_proposed": (outputs["kbps_proposed"], "kbps"),
        "kbps_baseline": (outputs["kbps_baseline"], "kbps"),
        "rate_reduction_pct": (outputs["rate_reduction_pct"], "%"),
        "snr_db_proposed": (outputs["snr_db_proposed"], "dB"),
        "snr_db_baseline": (outputs["snr_db_baseline"], "dB"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_rate": (failed / attempted, "1"),
    }
    counts = {
        "pipeline.frames": (outputs["pipeline.frames"], "count"),
        "pipeline.side_info_share": (outputs["pipeline.side_info_share"], "1"),
        "pipeline.escalated_bands": (outputs["pipeline.escalated_bands"], "count"),
        "pipeline.changed_outputs": (changed if changed is not None else 0, "count"),
    }

    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "load": "closed loop, 1 caller, in-process",
        "environment": environment(),
        "setup_times_s": setup_totals, "pass_times_s": pass_times,
        "ops_per_pass": len(passes[0]),
        "figures": figures, "counts": counts,
        "gated": {k: (e2e[k], u) for k, u in GATED},
        "changed_outputs_checked": changed is not None,
        "failures": {r.item.key: r.failures for p in passes for r in p if r.failures},
        "op_times": {r.item.key: [{st: clock.seconds(span) for st, span in p[i].times.items()} for p in passes]
                     for i, r in enumerate(passes[0])},
        "hashes": hashes,
    }
    if args.trace:
        traced = [passes[traced_pass]]
        layer = tracer.layer_metrics()
        layer.update(counts)
        layer["trace.overhead.setup_s"] = (setup_totals[-1][1] - e2e["setup_s"], "s")
        for codec in ("proposed", "baseline"):
            name = f"{codec}_s_per_audio_s"
            layer[f"trace.overhead.{name}"] = (
                per_audio(codec, wl.stages, runs=traced) - e2e[name], "ref_s/s")
        report["layers"] = layer
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in GATED}
    report["metrics"] = metrics

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1))
    if args.write_reference and failed:
        print("perfbench: not writing reference hashes from a run with failures", file=sys.stderr)
    elif args.write_reference:
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        ref[wl.name] = hashes
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")

    env = report["environment"]
    print(f"{wl.name} seed {args.seed}: {len(passes)} pass(es) x {len(passes[0])} ops, "
          f"{failed}/{attempted} failed; python {env['python']} numpy {env['numpy']} "
          f"scipy {env['scipy']} nproc {env['nproc']} blas threads {env['blas_threads']}")
    for title, rows in (("figures (wall seconds)", {**figures, **counts}),
                        ("gated metrics (times in reference seconds)", report["gated"])):
        print(f" {title}:")
        for name, (value, unit) in rows.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<32} {shown:>12} {unit}")
    if changed is None:
        print(" pipeline.changed_outputs is checked on the default seed only")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
