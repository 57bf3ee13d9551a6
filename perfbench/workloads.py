"""The benchmark's workloads: inputs from a seed, set-up, timed ops, checks.

Every op does what the matching ``hoacodec`` command does, without the
process start: an encode reads its input WAV, a decode writes its output
WAV.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from hoacodec import hoa_io, pipeline, scenes, sideinfo

CODECS = ("baseline", "proposed")

# The host's speed drifts by 30% and more over seconds on a shared machine.
# A fixed kernel tracks that drift.  It mixes the codec's kinds of work
# without calling it: an arithmetic loop, method calls reading bits from
# bytes, and numpy on a frame-sized matrix.  The kernel runs KERNEL_RUNS
# times on each side of a measured step and every SAMPLE_PERIOD_S inside
# it, from a timer signal; the time it takes inside the step is taken out
# of the step's time.  A step is reported in wall seconds and in reference
# seconds: its wall time at the speed where the kernel takes KERNEL_REF_S
# (about its time on the 2-core x86-64 VM the README figures come from).
# The kernel times within SPEED_WINDOW_S of a step are pooled by their
# median, since one kernel run alone jitters by 10-20%.
KERNEL_REF_S = 0.0053
KERNEL_RUNS = 5
SAMPLE_PERIOD_S = 0.1
SPEED_WINDOW_S = 0.1
_KERNEL_MATRIX = np.linspace(-3.0, 3.0, 1024 * 16).reshape(1024, 16)
_KERNEL_BYTES = bytes(range(256)) * 4


class _BitSource:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def read(self, nbits: int) -> int:
        value = 0
        for _ in range(nbits):
            bit = (self._data[self._pos >> 3] >> (7 - (self._pos & 7))) & 1
            value = (value << 1) | bit
            self._pos += 1
        return value


class Clock:
    """Times steps and samples the host's speed around each of them."""

    def __init__(self):
        self.samples = []  # (start time, kernel seconds)

    def _sample(self) -> None:
        t0 = perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        source, histogram = _BitSource(_KERNEL_BYTES), {}
        for _ in range(1000):
            symbol = source.read(5)
            histogram[symbol] = histogram.get(symbol, 0) + 1
        for _ in range(10):
            x = np.abs(_KERNEL_MATRIX) ** 0.75
            np.sum(np.floor(x / 1.3 + 0.4), axis=0)
            _KERNEL_MATRIX.T @ _KERNEL_MATRIX
        self.samples.append((t0, perf_counter() - t0))

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    @contextlib.contextmanager
    def timed(self, into: dict, key: str):
        """Store the block's ``(start, end, kernel seconds inside)`` at ``into[key]``."""
        for _ in range(KERNEL_RUNS):
            self._sample()
        first_inside = len(self.samples)
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = perf_counter()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = perf_counter()
            signal.signal(signal.SIGALRM, previous)
        into[key] = (t0, t1, sum(k for _, k in self.samples[first_inside:]))
        for _ in range(KERNEL_RUNS):
            self._sample()

    def seconds(self, span) -> tuple:
        """``(wall seconds, reference seconds)`` of a span from :meth:`timed`,
        without the kernel runs inside it."""
        t0, t1, kernel = span
        near = [k for t, k in self.samples if t0 - SPEED_WINDOW_S <= t <= t1 + SPEED_WINDOW_S]
        wall = t1 - t0 - kernel
        return wall, wall * KERNEL_REF_S / statistics.median(near)


@dataclass(frozen=True)
class Workload:
    name: str
    scenes: tuple  # names from scenes.corpus_specs
    duration: float  # seconds of audio per scene
    half_length: int
    mnmrs: tuple
    stages: tuple  # what one timed op runs, in order: encode, decode, stats


# Scenes are 1 s long, as real files are: at 0.15 s the MDCT's extra
# padded frame alone adds a quarter to the frames coded per audio second,
# and kbps reads a quarter higher (README.md).  One scene per workload keeps a run
# short.  Each is the scene whose rate and SNR vary least between workload
# seeds among those that show the workload's traffic.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("encode_sweep", ("two_talkers",), 1.0, 1024, (0.5, 1.0, 2.0), ("encode",)),
        Workload("decode_archive", ("orbiting_chirp",), 1.0, 1024, (1.0,), ("decode", "stats")),
        Workload("short_frames", ("orbiting_chirp",), 1.0, 256, (1.0,), ("encode", "decode", "stats")),
    )
}

# Codebooks are always trained on the default-seed scenes, so every workload
# seed trains on the same data and set-up does the same work.
TRAINING_SEED = 0


def derive_seed(workload_seed: int, seed: int) -> int:
    return int(np.random.SeedSequence([workload_seed, seed]).generate_state(1)[0])


def scene_specs(workload_seed: int, duration: float, names) -> list:
    """The named ``scenes.corpus_specs`` scenes with every scene and source
    seed re-derived from ``workload_seed``; seed 0 keeps the corpus seeds."""
    specs = [spec for spec in scenes.corpus_specs(duration=duration) if spec.name in names]
    if workload_seed:
        for spec in specs:
            spec.seed = derive_seed(workload_seed, spec.seed)
            for src in spec.sources:
                src.seed = derive_seed(workload_seed, src.seed)
    return specs


@dataclass
class Item:
    """One stream slot: a scene coded with one codec at one MNMR."""

    scene: str
    wav: Path
    source: hoa_io.HoaSignal  # the input as read back from its WAV file
    cfg: pipeline.EncoderConfig
    archived: pipeline.EncodeResult | None = None  # set-up encode (decode_archive)

    @property
    def key(self) -> str:
        return f"{self.scene}/{self.cfg.codec}/{self.cfg.mnmr}"

    @property
    def audio_s(self) -> float:
        return self.source.length / self.source.sample_rate


def _render(specs, workdir: Path, prefix: str) -> list:
    """Render scenes to float32 WAV files; ``(name, path, signal read back)``."""
    out = []
    for spec in specs:
        wav = workdir / f"{prefix}{spec.name}.wav"
        hoa_io.write_hoa_wav(scenes.render_scene(spec), wav, "float32")
        out.append((spec.name, wav, hoa_io.read_hoa_wav(wav)))
    return out


def set_up(wl: Workload, seed: int, workdir: Path, clock: Clock, tracer) -> tuple:
    """Render the scenes to WAV, train codebooks on the training-seed scenes
    (TrainingConfig defaults at the workload's frame length) and, for a
    workload that only decodes, encode the archive.  Returns items,
    quantizers and step spans."""
    steps = {}
    with clock.timed(steps, "corpus"):
        sources = _render(scene_specs(seed, wl.duration, wl.scenes), workdir, "")
        training = _render(scene_specs(TRAINING_SEED, wl.duration, wl.scenes), workdir, "train-")
        quantizers = sideinfo.train_quantizers(
            [s for _, _, s in training], sideinfo.TrainingConfig(half_length=wl.half_length)
        )
    items = [
        Item(name, wav, source, pipeline.EncoderConfig(
            codec=codec, half_length=wl.half_length, mnmr=mnmr, quantizers=quantizers))
        for name, wav, source in sources
        for mnmr in wl.mnmrs
        for codec in CODECS
    ]
    if "encode" not in wl.stages:
        for it in items:
            with tracer.span("setup.encode", op=f"setup/{it.key}"), clock.timed(steps, it.key):
                it.archived = pipeline.encode(it.source, it.cfg)
    return items, quantizers, steps


@dataclass
class OpResult:
    item: Item
    times: dict = field(default_factory=dict)  # stage -> span from Clock.timed
    encoded: pipeline.EncodeResult | None = None
    decoded: pipeline.DecodeResult | None = None
    measured: pipeline.StreamStats | None = None
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # "stream"/"decoded" -> SHA-256
    snr_db: float | None = None  # of the decoded output against the input

    def settle(self) -> None:
        """Hash the outputs and take the decoded output's SNR, then drop the
        decoded samples, so a run's memory does not grow with its passes."""
        if self.encoded is not None:
            self.digests["stream"] = checks.sha256_bytes(self.encoded.stream)
        if self.decoded is not None:
            samples = self.decoded.signal.samples
            self.digests["decoded"] = checks.sha256_samples(samples)
            self.snr_db = snr_db(self.item.source.samples, samples)
            self.decoded = None

    def hashes(self) -> dict:
        return {f"{kind}/{self.item.key}": digest for kind, digest in self.digests.items()}


def snr_db(source: np.ndarray, decoded: np.ndarray) -> float:
    return 10 * math.log10(np.sum(source**2) / np.sum((source - decoded) ** 2))


def run_op(wl: Workload, item: Item, quantizers, workdir: Path, clock: Clock, tracer) -> OpResult:
    """One timed op; an op that raises is recorded as failed."""
    res = OpResult(item, encoded=item.archived)
    with tracer.span("op", op=f"pass/{item.key}"):
        try:
            if "encode" in wl.stages:
                with clock.timed(res.times, "encode"):
                    res.encoded = pipeline.encode(hoa_io.read_hoa_wav(item.wav), item.cfg)
            if "decode" in wl.stages:
                with clock.timed(res.times, "decode"):
                    res.decoded = pipeline.decode(res.encoded.stream, quantizers=quantizers)
                    hoa_io.write_hoa_wav(res.decoded.signal, workdir / "decoded.wav", "float32")
            if "stats" in wl.stages:
                with clock.timed(res.times, "stats"):
                    res.measured = pipeline.measure_stream(res.encoded.stream, quantizers=quantizers)
        except Exception:  # the op boundary: count it, keep the run going
            res.failures.append(traceback.format_exc(limit=4))
    return res


def verify(res: OpResult, quantizers, tracer) -> None:
    """Full output checks.  A stream the op only encoded is parsed with
    ``measure_stream`` and, at MNMR 1.0, decoded, outside the timed op."""
    if res.failures:
        return
    it = res.item
    with tracer.span("check", op=f"check/{it.key}"):
        try:
            res.failures += checks.encoded(res.encoded.stream, res.encoded.stats, it.cfg.mnmr)
            if res.measured is None:
                res.measured = pipeline.measure_stream(res.encoded.stream, quantizers=quantizers)
            res.failures += checks.accounting(res.encoded.stats, res.measured)
            if res.decoded is None and it.cfg.mnmr == 1.0:
                res.decoded = pipeline.decode(res.encoded.stream, quantizers=quantizers)
            if res.decoded is not None:
                res.failures += checks.decoded(res.decoded, it.source)
        except Exception:
            res.failures.append(traceback.format_exc(limit=4))


def verify_repeat(res: OpResult, first: OpResult) -> None:
    """A repeated op must reproduce the first pass exactly: the stream, the
    encoder's stats and, where both passes have them, the measured stats and
    the decoded output.  Both results must be settled."""
    if res.failures or first.failures:
        return
    if res.digests["stream"] != first.digests["stream"]:
        res.failures.append("stream differs from the first pass")
    if res.encoded.stats != first.encoded.stats:
        res.failures.append("encoder stats differ from the first pass")
    if res.measured is not None and first.measured is not None and res.measured != first.measured:
        res.failures.append("measured stats differ from the first pass")
    if "decoded" in res.digests and "decoded" in first.digests and res.digests["decoded"] != first.digests["decoded"]:
        res.failures.append("decoded output differs from the first pass")
