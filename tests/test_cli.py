import csv
import json
import struct
import warnings

import pytest

from hoacodec import pipeline
from hoacodec.cli import main
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
    # a frame length the MDCT cannot fold
    for frame in ("255", "0"):
        assert main(["analyze", str(wav), "--frame", frame]) == 2
    # a compaction rank below 1
    for rank in ("0", "-1"):
        assert main(["analyze", str(wav), "--frame", "256", "--rank", rank]) == 2
    assert main(["train-quantizers", str(workspace / "corpus"),
                 "--out", str(workspace / "x255"), "--frame", "255"]) == 2


def test_bad_parameters_exit_2_with_one_line(workspace, tmp_path, capsys):
    """Bad band counts, scene parameters and scene recipes end in one error
    line, not a traceback."""
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
    cases = [
        ["analyze", str(_wav(workspace)), "--frame", "256", "--bands", "0"],
        ["synth", "--out", out, "--duration", "-1"],
        ["synth", "--out", out, "--sample-rate", "0"],
        ["synth", "--out", out, "--order", "-1"],
        *(["synth", "--out", out, "--recipe", str(tmp_path / name)] for name in recipes),
    ]
    for argv in cases:
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


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
