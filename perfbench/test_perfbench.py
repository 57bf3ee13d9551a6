"""Tests of the benchmark's own logic: python3 -m pytest perfbench"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from hoacodec import pipeline, scenes  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_default_seed_is_the_corpus_and_others_reseed_only():
    corpus = scenes.corpus_specs(duration=0.05)
    names = [s.name for s in corpus]
    assert workloads.scene_specs(0, 0.05, names) == corpus
    assert workloads.scene_specs(0, 0.05, names[2:3]) == corpus[2:3]
    other = workloads.scene_specs(3, 0.05, names)
    assert [s.name for s in other] == [s.name for s in corpus]
    for a, b in zip(other, corpus):
        assert a.seed != b.seed
        assert [s.seed for s in a.sources] != [s.seed for s in b.sources]
        a.seed, b.seed = 0, 0
        for sa, sb in zip(a.sources, b.sources):
            sa.seed, sb.seed = 0, 0
        assert a == b


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """decode_archive at a tiny scale: one short scene, both codecs."""
    wl = workloads.Workload("tiny", ("two_talkers",), 0.15, 256, (1.0,), ("decode", "stats"))
    items, quantizers, _ = workloads.set_up(wl, 0, tmp_path_factory.mktemp("work"), workloads.Clock(), Tracer())
    return wl, items[:2], quantizers, tmp_path_factory.mktemp("out")


def _run_and_verify(wl, item, quantizers, workdir):
    res = workloads.run_op(wl, item, quantizers, workdir, workloads.Clock(), Tracer())
    workloads.verify(res, quantizers, Tracer())
    return res


def test_intact_streams_pass_every_check(archive):
    wl, items, quantizers, workdir = archive
    for item in items:
        assert _run_and_verify(wl, item, quantizers, workdir).failures == []


def test_flipped_payload_bit_is_a_failure(archive):
    wl, items, quantizers, workdir = archive
    item = items[1]
    stream = bytearray(item.archived.stream)
    stream[pipeline.HEADER_BYTES + 4 + 2] ^= 0x10  # inside frame 0's payload
    broken = workloads.Item(item.scene, item.wav, item.source, item.cfg,
                            pipeline.EncodeResult(bytes(stream), item.archived.stats))
    res = _run_and_verify(wl, broken, quantizers, workdir)
    assert len(res.failures) == 1 and "CRC mismatch" in res.failures[0]


def test_repeat_pass_must_match_the_first(archive):
    wl, items, quantizers, workdir = archive
    first = _run_and_verify(wl, items[0], quantizers, workdir)
    first.settle()
    assert first.decoded is None and set(first.digests) == {"stream", "decoded"}
    for tamper in (False, True):
        again = workloads.run_op(wl, items[0], quantizers, workdir, workloads.Clock(), Tracer())
        if tamper:
            again.decoded.signal.samples[0, 0] += 1.0
            again.measured.frames[-1].padding_bits += 1
        again.settle()
        workloads.verify_repeat(again, first)
        assert again.failures == (["measured stats differ from the first pass",
                                   "decoded output differs from the first pass"] if tamper else [])


def test_tracer_counts_self_time_and_restores_the_library(archive):
    wl, items, quantizers, workdir = archive
    original = pipeline.decode
    tracer = Tracer()
    with tracer.recording():
        assert pipeline.decode is not original
        workloads.run_op(wl, items[0], quantizers, workdir, workloads.Clock(), tracer)
    assert pipeline.decode is original
    times = tracer.self_times()
    assert times["pipeline.decode"][0] == 1
    assert times["core_codec.entropy_decode_channel"][0] > 0
    op_total = sum(end - start for name, start, end, parent, _ in tracer.spans if parent == -1)
    assert sum(t for _, t in times.values()) == pytest.approx(op_total)
    assert np.isfinite(tracer.layer_metrics()["bitio.reader_calls_per_bit"][0])
