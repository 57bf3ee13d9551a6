import csv
import json

import pytest

from hoacodec import pipeline
from hoacodec.cli import main
from hoacodec.hoa_io import read_hoa_wav, write_hoa_wav
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


def test_missing_codebooks_message_names_command(workspace, capsys):
    wav = _wav(workspace)
    code = main(["encode", "--frame", "256", "--codebooks",
                 str(workspace / "missing"), str(wav), str(workspace / "q.bs")])
    assert code == 2
    assert "train-quantizers" in capsys.readouterr().err
