"""Command-line surface: encode, decode, train-quantizers, analyze,
compare, synth, stats.

Exit codes: 0 ok, 1 usage error, 2 runtime failure.  Machine-readable
outputs are JSON (stream stats) and CSV with versioned schema columns.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from hoacodec import core_codec, freq_svd, noise_subst, pipeline, scenes, sideinfo, transform
from hoacodec.errors import HoaCodecError
from hoacodec.hoa_io import read_hoa_wav, write_hoa_wav

COMPARE_SCHEMA = "compare_v1"
COMPACTION_SCHEMA = "compaction_v1"
FLATNESS_SCHEMA = "flatness_v1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_codec_options(p, with_codec=True, with_mnmr=True):
    if with_codec:
        p.add_argument("--codec", choices=["baseline", "proposed"], default="proposed")
    if with_mnmr:
        p.add_argument("--mnmr", type=float, default=1.0, help="max noise-to-mask ratio")
    p.add_argument("--frame", type=int, default=1024, help="frame half-length L")
    p.add_argument("--rank", type=int, default=4, help="foreground components r")
    p.add_argument("--bands", type=int, default=4, help="band count of the split mode")
    p.add_argument("--bg-order", type=int, default=1, help="background ambisonics order t")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rd-lambda", type=float, default=pipeline.DEFAULT_RD_LAMBDA)
    p.add_argument("--flatness-threshold", type=float, default=0.25)
    p.add_argument("--codebooks", type=Path, default=None, help="trained quantizer directory")
    p.add_argument("--huffman-table", type=Path, default=None)
    p.add_argument("--groups", type=Path, default=None, help="frequency-group config JSON")
    p.add_argument("--bypass", action="store_true", help="skip all quantization (diagnostic)")


def _build_config(args, codec=None, mnmr=None) -> pipeline.EncoderConfig:
    quant = sideinfo.QuantizerSet.load(args.codebooks) if args.codebooks else None
    table = core_codec.HuffmanTable.load(args.huffman_table) if args.huffman_table else None
    groups = noise_subst.FrequencyGroups.from_config(args.groups) if args.groups else None
    return pipeline.EncoderConfig(
        codec=codec or args.codec,
        half_length=args.frame,
        rank=args.rank,
        bands=args.bands,
        background_order=args.bg_order,
        mnmr=mnmr if mnmr is not None else args.mnmr,
        flatness_threshold=args.flatness_threshold,
        rd_lambda=args.rd_lambda,
        seed=args.seed,
        bypass_quantization=args.bypass,
        quantizers=quant,
        huffman_table=table,
        groups=groups,
    )


def _number_list(text: str, kind, option: str) -> list:
    """The comma-separated numbers of an option; anything else is a usage error."""
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"{option} wants comma-separated numbers, got {text!r}") from None


def _load_decode_kwargs(args) -> dict:
    kwargs = {}
    if args.codebooks:
        kwargs["quantizers"] = sideinfo.QuantizerSet.load(args.codebooks)
    if args.huffman_table:
        kwargs["huffman_table"] = core_codec.HuffmanTable.load(args.huffman_table)
    return kwargs


def cmd_encode(args) -> int:
    cfg = _build_config(args)
    signal = read_hoa_wav(args.input)
    result = pipeline.encode(signal, cfg)
    args.output.write_bytes(result.stream)
    stats = result.stats
    print(f"wrote {args.output} ({len(result.stream)} bytes)")
    print(f"rate: {stats.kbps:.1f} kbps over {stats.num_samples / stats.sample_rate:.2f} s")
    print(f"modes: {stats.mode_histogram}")
    print(f"side-info share: {100 * stats.side_info_share:.2f}%")
    if args.stats:
        args.stats.write_text(json.dumps(stats.to_dict(), indent=1))
        print(f"stats: {args.stats}")
    return 0


def cmd_decode(args) -> int:
    stream = args.input.read_bytes()
    result = pipeline.decode(stream, **_load_decode_kwargs(args))
    write_hoa_wav(result.signal, args.output, args.format)
    print(f"wrote {args.output} ({result.signal.length} samples, "
          f"{result.signal.num_channels} channels)")
    if result.concealed_frames:
        print(f"warning: concealed {result.concealed_frames} damaged frame(s)")
    return 0


def cmd_stats(args) -> int:
    stream = args.input.read_bytes()
    stats = pipeline.measure_stream(stream, **_load_decode_kwargs(args))
    doc = stats.to_dict()
    if args.json:
        args.json.write_text(json.dumps(doc, indent=1))
        print(f"wrote {args.json}")
    else:
        print(json.dumps(doc, indent=1))
    return 0


def cmd_train(args) -> int:
    wavs = _collect_wavs(args.corpus)
    if not wavs:
        raise UsageError(f"no WAV files under {args.corpus}")
    signals = [read_hoa_wav(p) for p in wavs]
    sizes = _number_list(args.sizes, int, "--sizes")
    if len(sizes) != 3:
        raise UsageError("--sizes wants three comma-separated ints: coeff,residual,intra")
    config = sideinfo.TrainingConfig(
        half_length=args.frame,
        rank=args.rank,
        coeff_size=sizes[0],
        residual_size=sizes[1],
        intra_size=sizes[2],
        seed=args.seed,
        max_frames=args.max_frames,
    )
    quantizers = sideinfo.train_quantizers(signals, config)
    quantizers.save(args.out)
    print(f"trained on {len(signals)} file(s); codebooks in {args.out} "
          f"(fingerprint {quantizers.fingerprint():#010x})")
    return 0


def cmd_analyze(args) -> int:
    signal = read_hoa_wav(args.input)
    spectra, _ = transform.analyze(signal.samples, args.frame)
    layout = freq_svd.BandLayout.uniform(args.frame, args.bands)
    groups = noise_subst.groups_for(args.frame)

    comp_rows, flat, dominated = [], [], 0
    for sp in spectra:
        eg, eb = freq_svd.compaction_gain(sp, args.rank, layout)
        comp_rows.append((sp.index, eg, eb))
        dominated += eb >= eg - 1e-9 * float(np.sum(sp.coeffs**2))
        flat.append(noise_subst.group_flatness(sp.coeffs, groups)[0])
    flat = np.reshape(flat, (-1, noise_subst.NUM_GROUPS))

    comp_path = args.compaction_csv or args.input.with_suffix(".compaction.csv")
    with open(comp_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["schema", "frame", "energy_global", "energy_banded", "gain_ratio"])
        for idx, eg, eb in comp_rows:
            w.writerow([COMPACTION_SCHEMA, idx, f"{eg:.9g}", f"{eb:.9g}",
                        f"{eb / eg:.9g}" if eg > 0 else "1"])
    flat_path = args.flatness_csv or args.input.with_suffix(".flatness.csv")
    with open(flat_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["schema", "group", "bin_start", "bin_stop",
                    "median_flatness", "p10", "p90"])
        for j, (a, b) in enumerate(groups.edges):
            w.writerow([
                FLATNESS_SCHEMA, j, a, b,
                f"{np.median(flat[:, j]):.6g}",
                f"{np.percentile(flat[:, j], 10):.6g}",
                f"{np.percentile(flat[:, j], 90):.6g}",
            ])
    print(f"{dominated}/{len(spectra)} frames with banded energy >= global energy")
    print(f"median flatness across groups: {np.median(flat):.4f}")
    print(f"wrote {comp_path} and {flat_path}")
    return 0


def _collect_wavs(path: Path) -> list:
    if path.is_file():
        return [path]
    return sorted(path.glob("*.wav"))


def cmd_compare(args) -> int:
    wavs = _collect_wavs(args.corpus)
    if not wavs:
        raise UsageError(f"no WAV files under {args.corpus}")
    points = _number_list(args.mnmr, float, "--mnmr")
    rows = []
    for wav in wavs:
        signal = read_hoa_wav(wav)
        for tau in points:
            rates = {}
            for codec in ("baseline", "proposed"):
                cfg = _build_config(args, codec=codec, mnmr=tau)
                rates[codec] = pipeline.encode(signal, cfg).stats.kbps
            reduction = 100.0 * (rates["baseline"] - rates["proposed"]) / rates["baseline"]
            rows.append({
                "file": wav.name,
                "mnmr": tau,
                "baseline_kbps": rates["baseline"],
                "proposed_kbps": rates["proposed"],
                "reduction_percent": reduction,
            })
            if args.verbose:
                print(f"  {wav.name} tau={tau}: baseline {rates['baseline']:.1f} "
                      f"proposed {rates['proposed']:.1f} ({reduction:+.2f}%)")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["schema", "file", "mnmr", "baseline_kbps",
                        "proposed_kbps", "reduction_percent"])
            for r in rows:
                w.writerow([COMPARE_SCHEMA, r["file"], r["mnmr"],
                            f"{r['baseline_kbps']:.3f}", f"{r['proposed_kbps']:.3f}",
                            f"{r['reduction_percent']:.3f}"])

    # console table shaped like the objective-results table: one row per
    # file, one column per operating point labeled by its achieved rate
    labels = {}
    for tau in points:
        mean_rate = np.mean([
            (r["baseline_kbps"] + r["proposed_kbps"]) / 2 for r in rows if r["mnmr"] == tau
        ])
        labels[tau] = f"around {mean_rate:.0f} kbps"
    name_w = max(len(w.name) for w in wavs) + 2
    print("\nBit-rate reduction of the frequency-domain codec vs the baseline")
    print(" " * name_w + " | ".join(f"{labels[tau]:>18}" for tau in points))
    for wav in wavs:
        cells = []
        for tau in points:
            r = next(x for x in rows if x["file"] == wav.name and x["mnmr"] == tau)
            cells.append(f"{r['reduction_percent']:>17.2f}%")
        print(f"{wav.name:<{name_w}}" + " | ".join(cells))
    avg_cells = []
    for tau in points:
        vals = [r["reduction_percent"] for r in rows if r["mnmr"] == tau]
        avg_cells.append(f"{np.mean(vals):>17.2f}%")
    print(f"{'Average':<{name_w}}" + " | ".join(avg_cells))
    if args.csv:
        print(f"\nwrote {args.csv}")
    return 0


def cmd_synth(args) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    if args.recipe:
        spec = scenes.SceneSpec.from_json(args.recipe)
        specs = [spec]
    else:
        specs = scenes.corpus_specs(
            order=args.order, duration=args.duration, sample_rate=args.sample_rate
        )
    for spec in specs:
        signal = scenes.render_scene(spec)
        wav = args.out / f"{spec.name}.wav"
        write_hoa_wav(signal, wav, "float32")
        spec.to_json(args.out / f"{spec.name}.recipe.json")
        print(f"wrote {wav} ({spec.duration:.1f} s, order {spec.order})")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="hoacodec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a HOA WAV into a stream")
    _add_codec_options(p)
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--stats", type=Path, default=None, help="write JSON stats here")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a stream back to WAV")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--codebooks", type=Path, default=None)
    p.add_argument("--huffman-table", type=Path, default=None)
    p.add_argument("--format", default="float32",
                   choices=["float32", "pcm16", "pcm24", "pcm32"])
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("stats", help="exact bit accounting of a stream")
    p.add_argument("input", type=Path)
    p.add_argument("--codebooks", type=Path, default=None)
    p.add_argument("--huffman-table", type=Path, default=None)
    p.add_argument("--json", type=Path, default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train-quantizers", help="GLA-train side-info codebooks")
    p.add_argument("corpus", type=Path, help="WAV file or directory of WAVs")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--frame", type=int, default=1024)
    p.add_argument("--rank", type=int, default=4)
    p.add_argument("--sizes", default="16,256,256",
                   help="codebook sizes: coeff,residual,intra")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--max-frames", type=int, default=12000)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("analyze", help="compaction + flatness report")
    p.add_argument("input", type=Path)
    p.add_argument("--frame", type=int, default=1024)
    p.add_argument("--rank", type=int, default=4)
    p.add_argument("--bands", type=int, default=4)
    p.add_argument("--compaction-csv", type=Path, default=None)
    p.add_argument("--flatness-csv", type=Path, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="baseline vs proposed bit-rate table")
    p.add_argument("--corpus", type=Path, required=True)
    _add_codec_options(p, with_codec=False, with_mnmr=False)
    p.add_argument("--mnmr", default="0.5,1.0,2.0",
                   help="comma-separated MNMR operating points")
    p.add_argument("--csv", type=Path, default=None)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", help="generate synthetic HOA test scenes")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--recipe", type=Path, default=None, help="single-scene JSON recipe")
    p.add_argument("--duration", type=float, default=3.0)
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--sample-rate", type=int, default=48000)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except HoaCodecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
