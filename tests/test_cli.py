import csv
import dataclasses
import json
import os
import struct
import warnings

import numpy as np
import pytest

from hoacodec import pipeline, sideinfo
from hoacodec.cli import _collect_wavs, main
from hoacodec.hoa_io import HoaSignal, read_hoa_wav, write_hoa_wav
from hoacodec.sideinfo import QuantizerSet


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny corpus plus trained codebooks, built through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    cb = root / "cb"
    assert main(["synth", "--out", str(corpus), "--duration", "0.3"]) == 0
    assert main([
        "train-quantizers", str(corpus), "--out", str(cb),
        "--frame", "256", "--sizes", "16,64,64", "--max-frames", "400",
    ]) == 0
    return root


def _wav(workspace):
    return next((workspace / "corpus").glob("two_talkers.wav"))


def test_synth_writes_recipes(workspace):
    names = {p.name for p in (workspace / "corpus").iterdir()}
    assert "band_separated.wav" in names
    assert "band_separated.recipe.json" in names
    assert len([n for n in names if n.endswith(".wav")]) == 6


def test_encode_decode_roundtrip_matches_library(workspace):
    wav = _wav(workspace)
    out = workspace / "out.bs"
    stats = workspace / "out.json"
    code = main([
        "encode", "--codec", "proposed", "--frame", "256", "--mnmr", "1.0",
        "--codebooks", str(workspace / "cb"), "--seed", "5",
        str(wav), str(out), "--stats", str(stats),
    ])
    assert code == 0 and out.exists()
    doc = json.loads(stats.read_text())
    assert doc["codec"] == "proposed" and doc["total_bits"] == 8 * out.stat().st_size

    # library-level encode of the same input is bit-identical
    sig = read_hoa_wav(wav)
    cfg = pipeline.EncoderConfig(
        codec="proposed", half_length=256, mnmr=1.0, seed=5,
        quantizers=QuantizerSet.load(workspace / "cb"),
    )
    assert pipeline.encode(sig, cfg).stream == out.read_bytes()

    rec = workspace / "rec.wav"
    assert main(["decode", str(out), str(rec), "--codebooks", str(workspace / "cb")]) == 0
    dec = pipeline.decode(out.read_bytes(), quantizers=cfg.quantizers)
    lib_wav = workspace / "lib.wav"
    write_hoa_wav(dec.signal, lib_wav)
    assert rec.read_bytes() == lib_wav.read_bytes()


def test_stats_accounting(workspace):
    out = workspace / "out.bs"
    j = workspace / "stats2.json"
    assert main(["stats", str(out), "--codebooks", str(workspace / "cb"),
                 "--json", str(j)]) == 0
    doc = json.loads(j.read_text())
    assert doc["total_bits"] == 8 * out.stat().st_size


def test_analyze_csv_schema(workspace):
    wav = _wav(workspace)
    comp = workspace / "comp.csv"
    flat = workspace / "flat.csv"
    assert main(["analyze", str(wav), "--frame", "256",
                 "--compaction-csv", str(comp), "--flatness-csv", str(flat)]) == 0
    with open(comp) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and rows[0]["schema"] == "compaction_v1"
    assert all(float(r["energy_banded"]) >= float(r["energy_global"]) * (1 - 1e-9)
               for r in rows)
    with open(flat) as fh:
        frows = list(csv.DictReader(fh))
    assert len(frows) == 49 and frows[0]["schema"] == "flatness_v1"


def test_compare_csv_schema(workspace):
    out = workspace / "cmp.csv"
    code = main([
        "compare", "--corpus", str(workspace / "corpus"),
        "--codebooks", str(workspace / "cb"), "--frame", "256",
        "--mnmr", "2.0", "--csv", str(out),
    ])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert set(rows[0]) == {"schema", "file", "mnmr", "baseline_kbps",
                            "proposed_kbps", "reduction_percent"}
    for r in rows:
        expect = 100 * (float(r["baseline_kbps"]) - float(r["proposed_kbps"])) / float(r["baseline_kbps"])
        assert float(r["reduction_percent"]) == pytest.approx(expect, abs=5e-3)


def test_compare_loads_codebooks_once(workspace, tmp_path, monkeypatch):
    """A 2-file x 2-MNMR run loads the codebooks once for its 8 encodes, and
    writes the CSV a run that loads them for every encode writes."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("two_talkers.wav", "band_separated.wav"):
        (corpus / name).write_bytes((workspace / "corpus" / name).read_bytes())
    cb = workspace / "cb"
    argv = ["compare", "--corpus", str(corpus), "--codebooks", str(cb), "--frame", "256", "--mnmr", "1.0,2.0"]
    load, loads = QuantizerSet.load.__func__, []

    def counted(cls, directory):
        loads.append(directory)
        return load(cls, directory)

    monkeypatch.setattr(QuantizerSet, "load", classmethod(counted))
    assert main(argv + ["--csv", str(tmp_path / "once.csv")]) == 0
    assert len(loads) == 1

    encode = pipeline.encode
    monkeypatch.setattr(pipeline, "encode", lambda signal, cfg: encode(
        signal, dataclasses.replace(cfg, quantizers=load(QuantizerSet, cb))))
    assert main(argv + ["--csv", str(tmp_path / "each.csv")]) == 0
    assert (tmp_path / "once.csv").read_bytes() == (tmp_path / "each.csv").read_bytes()


def test_train_quantizers_reports_each_codebook(workspace, tmp_path, capsys):
    """One line per codebook: size, dimension, Lloyd iterations, final mean
    distortion and the degenerate flag, as training left them."""
    corpus = workspace / "corpus"
    assert main(["train-quantizers", str(corpus), "--out", str(tmp_path / "cb"),
                 "--frame", "256", "--sizes", "4,8,12", "--max-frames", "40"]) == 0
    lines = capsys.readouterr().out.splitlines()
    config = sideinfo.TrainingConfig(half_length=256, coeff_size=4, residual_size=8, intra_size=12, max_frames=40)
    q = sideinfo.train_quantizers([read_hoa_wav(p) for p in _collect_wavs(corpus)], config)
    assert lines[0].endswith(f"(fingerprint {q.fingerprint():#010x})")
    assert lines[1:] == [
        f"  coeff: 4 x 1, {len(q.coeff.history)} Lloyd iterations, "
        f"mean distortion {q.coeff.history[-1]:.6g}, degenerate no",
        f"  residual: 8 x 16, {len(q.residual.history)} Lloyd iterations, "
        f"mean distortion {q.residual.history[-1]:.6g}, degenerate no",
        f"  intra: 12 x 16, {len(q.intra.history)} Lloyd iterations, "
        f"mean distortion {q.intra.history[-1]:.6g}, degenerate no",
    ]


def test_train_quantizers_on_mixed_orders_exits_2(tmp_path, capsys):
    for order in (1, 3):
        samples = np.random.default_rng(order).standard_normal((4800, (order + 1) ** 2))
        write_hoa_wav(HoaSignal(sample_rate=48000, order=order, samples=samples), tmp_path / f"o{order}.wav")
    assert main(["train-quantizers", str(tmp_path), "--out", str(tmp_path / "cb"), "--frame", "256"]) == 2
    assert "[4, 16] channels" in capsys.readouterr().err


def _strict_json(text: str):
    """``text`` parsed by a parser that refuses NaN and the infinities."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def test_stats_of_an_empty_signal_are_standard_json(tmp_path, capsys):
    wav, stream = tmp_path / "empty.wav", tmp_path / "empty.bs"
    write_hoa_wav(HoaSignal(sample_rate=48000, order=1, samples=np.zeros((0, 4))), wav)
    assert main(["encode", "--bypass", "--frame", "256", str(wav), str(stream),
                 "--stats", str(tmp_path / "enc.json")]) == 0
    assert _strict_json((tmp_path / "enc.json").read_text())["kbps"] is None
    capsys.readouterr()
    assert main(["stats", str(stream)]) == 0
    assert _strict_json(capsys.readouterr().out)["kbps"] is None


def test_usage_errors_exit_1(workspace, capsys):
    assert main(["encode"]) == 1
    assert main(["compare", "--corpus", str(workspace / "nowhere")]) == 1
    assert main(["train-quantizers", str(workspace / "corpus"),
                 "--out", str(workspace / "x"), "--sizes", "1,2"]) == 1
    # a list entry that is not a number
    capsys.readouterr()
    assert main(["compare", "--corpus", str(workspace / "corpus"), "--mnmr", "1,abc"]) == 1
    assert "--mnmr" in capsys.readouterr().err
    assert main(["train-quantizers", str(workspace / "corpus"),
                 "--out", str(workspace / "x"), "--sizes", "4,8,x"]) == 1
    assert "--sizes" in capsys.readouterr().err


def test_runtime_errors_exit_2(workspace):
    # encoding without codebooks is a runtime configuration error
    wav = _wav(workspace)
    assert main(["encode", "--frame", "256", str(wav), str(workspace / "y.bs")]) == 2
    # decoding garbage
    bad = workspace / "bad.bs"
    bad.write_bytes(b"garbage")
    assert main(["decode", str(bad), str(workspace / "z.wav")]) == 2
    # a WAV cut inside its fmt chunk
    cut = workspace / "cut.wav"
    cut.write_bytes(wav.read_bytes()[:30])
    assert main(["analyze", str(cut), "--frame", "256"]) == 2
    # a frame length the MDCT cannot fold
    for frame in ("255", "0"):
        assert main(["analyze", str(wav), "--frame", frame]) == 2
    # a compaction rank below 1
    for rank in ("0", "-1"):
        assert main(["analyze", str(wav), "--frame", "256", "--rank", rank]) == 2
    assert main(["train-quantizers", str(workspace / "corpus"),
                 "--out", str(workspace / "x255"), "--frame", "255"]) == 2
    # a stream with a byte after its last frame
    long = workspace / "long.bs"
    assert main(["encode", "--bypass", "--frame", "256", str(wav), str(long)]) == 0
    long.write_bytes(long.read_bytes() + b"\x00")
    assert main(["decode", str(long), str(workspace / "long.wav")]) == 2
    assert main(["stats", str(long)]) == 2


def test_bad_parameters_exit_2_with_one_line(workspace, tmp_path, capsys):
    """Bad scene parameters, scene recipes and training settings, and WAV
    files with no samples, end in one error line, not a traceback; a synth
    that fails creates no output directory."""
    recipes = {
        "unknown_key.json": json.dumps({"duration": 0.1, "tempo": 3}),
        "unknown_source_key.json": json.dumps({"duration": 0.1, "sources": [{"kind": "tone", "pitch": 3}]}),
        "not_json.json": "{not json",
        "string_duration.json": json.dumps({"name": "x", "duration": "1"}),
        "bool_order.json": json.dumps({"duration": 0.1, "order": True}),
        "string_source_level.json": json.dumps({"duration": 0.1, "sources": [{"kind": "tone", "level": "0.5"}]}),
        "source_not_object.json": json.dumps({"duration": 0.1, "sources": [3]}),
        "sources_not_list.json": json.dumps({"duration": 0.1, "sources": {"kind": "tone"}}),
    }
    for name, text in recipes.items():
        (tmp_path / name).write_text(text)
    out = str(tmp_path / "scenes")
    train = ["train-quantizers", str(workspace / "corpus"), "--out", str(tmp_path / "cb"), "--frame", "256"]
    too_high = str(read_hoa_wav(_wav(workspace)).num_channels + 1)
    empty = tmp_path / "empty" / "empty.wav"
    empty.parent.mkdir()
    write_hoa_wav(HoaSignal(48000, 1, np.zeros((0, 4))), empty)
    cases = [
        ["analyze", str(empty), "--frame", "256"],
        ["compare", "--corpus", str(empty.parent), "--frame", "256", "--bypass"],
        ["synth", "--out", out, "--duration", "-1"],
        ["synth", "--out", out, "--sample-rate", "0"],
        ["synth", "--out", out, "--order", "-1"],
        *(["synth", "--out", out, "--recipe", str(tmp_path / name)] for name in recipes),
        train + ["--seed", "-1"],
        train + ["--max-frames", "-1"],
        train + ["--rank", "-2"],
        train + ["--rank", too_high],
    ]
    for argv in cases:
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert not (tmp_path / "scenes").exists()


def test_band_count_and_rd_lambda_options_are_usage_errors(workspace):
    """The format fixes the band count (4) and the RD lambda (1e-4); no
    command sets either."""
    wav, out = str(_wav(workspace)), workspace / "b.bs"
    assert main(["encode", "--bands", "4", wav, str(out)]) == 1
    assert main(["encode", "--rd-lambda", "0.1", wav, str(out)]) == 1
    assert main(["compare", "--corpus", str(workspace / "corpus"), "--bands", "4"]) == 1
    assert main(["analyze", wav, "--bands", "4"]) == 1
    assert not out.exists()


def test_huffman_table_option_is_a_usage_error(workspace):
    """Every stream uses the one built-in table; no command takes another."""
    wav, stream = str(_wav(workspace)), str(workspace / "out.bs")
    assert main(["encode", "--huffman-table", "x", wav, str(workspace / "h.bs")]) == 1
    assert main(["decode", "--huffman-table", "x", stream, str(workspace / "h.wav")]) == 1
    assert main(["stats", "--huffman-table", "x", stream]) == 1


def test_flatness_threshold_option_is_a_usage_error(workspace):
    """Noise substitution gates at the constant noise_subst.FLATNESS_THRESHOLD;
    no command sets another (NaN once switched substitution off silently)."""
    wav, out = str(_wav(workspace)), workspace / "f.bs"
    for value in ("0.5", "nan"):
        assert main(["encode", "--flatness-threshold", value, wav, str(out)]) == 1
        assert main(["compare", "--corpus", str(workspace / "corpus"), "--flatness-threshold", value]) == 1
    assert not out.exists()


def test_missing_codebooks_message_names_command(workspace, capsys):
    wav = _wav(workspace)
    code = main(["encode", "--frame", "256", "--codebooks",
                 str(workspace / "missing"), str(wav), str(workspace / "q.bs")])
    assert code == 2
    assert "train-quantizers" in capsys.readouterr().err


def test_too_loud_input_exits_2_with_one_line(workspace, tmp_path, capsys):
    """A float32 WAV 1e30 times full scale would quantize past 2^63 - 1:
    one error line, no traceback and no numpy warning."""
    sig = read_hoa_wav(_wav(workspace))
    loud = tmp_path / "loud.wav"
    write_hoa_wav(HoaSignal(sig.sample_rate, sig.order, sig.samples * 1e30), loud)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([
            "encode", "--frame", "256", "--codebooks", str(workspace / "cb"),
            str(loud), str(tmp_path / "loud.bs"),
        ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "2^63 - 1" in err, err


def test_bypass_input_too_loud_to_decode_exits_2_with_one_line(workspace, tmp_path, capsys):
    """A float64 WAV 1e300 times full scale: a bypass encode would write
    frames the decoder can only conceal, so it refuses them with one error
    line, no traceback and no numpy warning."""
    sig = read_hoa_wav(_wav(workspace))
    payload = (sig.samples * 1e300).astype("<f8").tobytes()
    channels = sig.num_channels
    fmt = struct.pack("<HHIIHH", 3, channels, sig.sample_rate, sig.sample_rate * channels * 8, channels * 8, 64)
    riff = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(payload)) + payload
    loud = tmp_path / "loud64.wav"
    loud.write_bytes(b"RIFF" + struct.pack("<I", len(riff)) + riff)
    assert read_hoa_wav(loud).samples.max() > 1e299
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["encode", "--frame", "256", "--bypass", str(loud), str(tmp_path / "loud.bs")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "float64 limit" in err, err


def test_synth_recipe_names_stay_inside_out(tmp_path, capsys):
    """A recipe name is one file name: ``synth`` writes ``<name>.wav`` and
    ``<name>.recipe.json`` in ``--out``, so a name that is empty, a dot
    entry or a path is refused with one error line, and nothing is
    written."""
    names = ["../escaped", "", ".", "..", "sub/scene", "/abs", "nul\0byte"]
    names += [f"a{sep}b" for sep in (os.sep, os.altsep) if sep]
    for i, name in enumerate(names):
        recipe = tmp_path / f"recipe{i}.json"
        recipe.write_text(json.dumps({"name": name, "duration": 0.01, "sources": []}))
    before = sorted(tmp_path.rglob("*"))
    for i, name in enumerate(names):
        capsys.readouterr()
        assert main(["synth", "--out", str(tmp_path / "out"), "--recipe", str(tmp_path / f"recipe{i}.json")]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "not a file name" in err, (name, err)
    assert sorted(tmp_path.rglob("*")) == before


def test_decode_names_each_concealed_frame_and_why(workspace, tmp_path, capsys):
    wav = _wav(workspace)
    stream = tmp_path / "s.bs"
    assert main(["encode", "--bypass", "--frame", "256", str(wav), str(stream)]) == 0
    damaged = bytearray(stream.read_bytes())
    pos = pipeline.HEADER_BYTES
    for _ in range(2):
        pos += 8 + int.from_bytes(damaged[pos : pos + 4], "big")
    damaged[pos + 4 + 10] ^= 0xFF  # a byte of frame 2's payload
    stream.write_bytes(bytes(damaged))
    capsys.readouterr()
    assert main(["decode", str(stream), str(tmp_path / "s.wav")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "warning: concealed 1 damaged frame(s)"
    assert lines[2:] == ["  frame 2: crc"]
