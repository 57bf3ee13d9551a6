import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hoacodec import pipeline
from hoacodec.errors import ConfigurationError, HoaCodecError, NumericError, StreamError
from hoacodec.hoa_io import HoaSignal


def _cfg(q, codec="proposed", **kw):
    defaults = dict(codec=codec, half_length=256, rank=4, background_order=1,
                    mnmr=1.0, quantizers=q, seed=11)
    defaults.update(kw)
    return pipeline.EncoderConfig(**defaults)


@pytest.fixture(scope="module")
def encoded(small_scene_module, small_quantizers_module):
    res = {}
    for codec in ("proposed", "baseline"):
        cfg = _cfg(small_quantizers_module, codec)
        res[codec] = pipeline.encode(small_scene_module, cfg)
    return res


# session fixtures re-exposed at module scope to keep this file readable
@pytest.fixture(scope="module")
def small_scene_module(request):
    return request.getfixturevalue("small_scene")


@pytest.fixture(scope="module")
def small_quantizers_module(request):
    return request.getfixturevalue("small_quantizers")


def test_roundtrip_shapes_and_quality(encoded, small_scene_module, small_quantizers_module):
    for codec in ("proposed", "baseline"):
        dec = pipeline.decode(encoded[codec].stream, quantizers=small_quantizers_module)
        sig = dec.signal
        assert sig.samples.shape == small_scene_module.samples.shape
        assert sig.sample_rate == small_scene_module.sample_rate
        err = np.linalg.norm(sig.samples - small_scene_module.samples)
        assert err < 0.5 * np.linalg.norm(small_scene_module.samples)


def test_encode_deterministic(encoded, small_scene_module, small_quantizers_module):
    again = pipeline.encode(small_scene_module, _cfg(small_quantizers_module))
    assert again.stream == encoded["proposed"].stream


def test_decode_deterministic(encoded, small_quantizers_module):
    a = pipeline.decode(encoded["proposed"].stream, quantizers=small_quantizers_module)
    b = pipeline.decode(encoded["proposed"].stream, quantizers=small_quantizers_module)
    assert np.array_equal(a.signal.samples, b.signal.samples)


def test_rate_accounting_closes(encoded, small_quantizers_module):
    for codec in ("proposed", "baseline"):
        res = encoded[codec]
        assert res.stats.total_bits == 8 * len(res.stream)
        measured = pipeline.measure_stream(res.stream, quantizers=small_quantizers_module)
        assert measured.total_bits == res.stats.total_bits
        for f_enc, f_meas in zip(res.stats.frames, measured.frames):
            assert f_enc.side_bits == f_meas.side_bits
            assert f_enc.noise_bits == f_meas.noise_bits
            assert f_enc.core_bits == f_meas.core_bits


def test_side_info_column_counts(encoded, small_quantizers_module, small_scene_module):
    def counts(stats):
        return [(f.intra_columns, f.predicted_columns, f.switched_columns) for f in stats.frames]

    for codec in ("proposed", "baseline"):
        stream, enc = encoded[codec].stream, counts(encoded[codec].stats)
        assert counts(pipeline.measure_stream(stream, quantizers=small_quantizers_module)) == enc
        assert counts(pipeline.decode(stream, quantizers=small_quantizers_module).stats) == enc
        assert all(sum(c) == 4 * (1 if codec == "baseline" or f.mode == 0 else 4)
                   for c, f in zip(enc, encoded[codec].stats.frames))
    assert all(sum(column) > 0 for column in zip(*counts(encoded["proposed"].stats)))
    cfg = pipeline.EncoderConfig(codec="proposed", half_length=256, bypass_quantization=True)
    assert sum(map(sum, counts(pipeline.encode(small_scene_module, cfg).stats))) == 0


def test_rd_selection_recorded(encoded):
    frames = encoded["proposed"].stats.frames
    assert all(f.rd_cost <= f.rd_cost_other for f in frames)
    modes = {f.mode for f in frames}
    assert modes <= {0, 1}


def test_baseline_is_single_mode(encoded):
    assert encoded["baseline"].stats.mode_histogram == {0: len(encoded["baseline"].stats.frames)}


def test_side_info_share_is_minor(encoded):
    assert encoded["proposed"].stats.side_info_share < 0.15


def test_proposed_stream_switches_modes(encoded):
    # the round-trip tests decode this stream, so they cover both modes and
    # the side-info syntax of a mode switch
    modes = [f.mode for f in encoded["proposed"].stats.frames]
    assert set(modes) == {0, 1}
    assert any(a != b for a, b in zip(modes, modes[1:]))


def test_silence_floor(small_quantizers_module):
    sig = HoaSignal(sample_rate=48000, order=3, samples=np.zeros((48000, 16)))
    cfg = _cfg(small_quantizers_module, half_length=1024)
    res = pipeline.encode(sig, cfg)
    # floor: zero-band flags for 8 channels dominate; headers+flags only
    assert res.stats.kbps < 35.0
    dec = pipeline.decode(res.stream, quantizers=small_quantizers_module)
    assert np.max(np.abs(dec.signal.samples)) < 1e-6


def test_near_lossless_bypass(small_scene_module):
    for codec in ("proposed", "baseline"):
        cfg = pipeline.EncoderConfig(
            codec=codec, half_length=256, rank=16, background_order=3,
            bypass_quantization=True, seed=3,
        )
        res = pipeline.encode(small_scene_module, cfg)
        dec = pipeline.decode(res.stream)
        err = np.linalg.norm(dec.signal.samples - small_scene_module.samples)
        snr = -20 * np.log10(err / np.linalg.norm(small_scene_module.samples))
        assert snr > 100


def test_crc_damage_is_concealed(encoded, small_quantizers_module, small_scene_module):
    stream = bytearray(encoded["proposed"].stream)
    # flip bits inside the third frame's payload
    pos = pipeline.HEADER_BYTES
    for _ in range(2):
        size = int.from_bytes(stream[pos : pos + 4], "big")
        pos += 8 + size
    size = int.from_bytes(stream[pos : pos + 4], "big")
    stream[pos + 10] ^= 0xFF
    dec = pipeline.decode(bytes(stream), quantizers=small_quantizers_module)
    # the damaged frame is concealed; a desynced prediction chain may force
    # later frames into concealment too, but decoding must finish
    assert dec.concealed_frames >= 1
    assert dec.stats.frames[2].concealed
    assert dec.signal.length == small_scene_module.length


def test_truncated_stream_raises_with_partial(encoded, small_quantizers_module):
    stream = encoded["proposed"].stream[: len(encoded["proposed"].stream) // 2]
    with pytest.raises(StreamError) as exc:
        pipeline.decode(stream, quantizers=small_quantizers_module)
    partial = exc.value.partial
    assert partial is not None and partial.length > 0


def test_not_a_stream_rejected():
    with pytest.raises(StreamError):
        pipeline.decode(b"definitely not a stream")


def test_missing_quantizers_error(encoded):
    with pytest.raises(ConfigurationError, match="codebook"):
        pipeline.decode(encoded["proposed"].stream)


def test_wrong_quantizers_rejected(encoded, small_quantizers_module):
    import copy

    other = copy.deepcopy(small_quantizers_module)
    other.residual.centroids[0, 0] += 1.0
    with pytest.raises(ConfigurationError, match="fingerprint"):
        pipeline.decode(encoded["proposed"].stream, quantizers=other)


def test_config_validation(small_quantizers_module):
    sig = HoaSignal(sample_rate=48000, order=1, samples=np.zeros((256, 4)))
    with pytest.raises(ConfigurationError):
        pipeline.encode(sig, _cfg(small_quantizers_module))  # quantizer dim 16 != 4
    with pytest.raises(ConfigurationError):
        cfg = _cfg(None)
        cfg.quantizers = None
        pipeline.encode(sig, cfg)
    with pytest.raises(ConfigurationError):
        cfg = pipeline.EncoderConfig(codec="proposed", half_length=256, rank=4,
                                     background_order=4, bypass_quantization=True)
        pipeline.encode(HoaSignal(48000, 3, np.zeros((256, 16))), cfg)
    with pytest.raises(ConfigurationError, match="order 16 above the maximum"):
        cfg = pipeline.EncoderConfig(codec="baseline", half_length=256, bypass_quantization=True)
        pipeline.encode(HoaSignal(48000, pipeline.MAX_ORDER + 1, np.zeros((256, 289))), cfg)
    with pytest.raises(ConfigurationError, match="half length 8193 above the maximum"):
        cfg = pipeline.EncoderConfig(codec="baseline", half_length=pipeline.MAX_HALF_LENGTH + 1,
                                     bypass_quantization=True)
        pipeline.encode(HoaSignal(48000, 1, np.zeros((256, 4))), cfg)
    for codec in ("baseline", "proposed"):  # the MDCT folds an even half length
        cfg = pipeline.EncoderConfig(codec=codec, half_length=257, bypass_quantization=True)
        with pytest.raises(ConfigurationError, match="half length 257 is odd"):
            pipeline.encode(HoaSignal(48000, 1, np.zeros((512, 4))), cfg)
    # values that do not fit their header field are refused before any frame
    # is encoded
    for kw, order, match in (
        (dict(seed=-1), 3, "seed"),
        (dict(seed=2**64 + 5), 3, "seed"),
        (dict(half_length=2**32), 3, "half length"),
        (dict(bands=256), 3, "bands"),
        (dict(rank=256), 15, "rank"),  # M=256: the rank is in range but not 8 bits wide
        (dict(background_order=256), 15, "background order"),
    ):
        cfg = pipeline.EncoderConfig(codec="baseline", bypass_quantization=True, **kw)
        with pytest.raises(ConfigurationError, match=match):
            pipeline.encode(HoaSignal(48000, order, np.zeros((256, (order + 1) ** 2))), cfg)
    cfg = pipeline.EncoderConfig(codec="baseline", half_length=256, bypass_quantization=True)
    with pytest.raises(ConfigurationError, match="sample_rate"):
        pipeline.encode(HoaSignal(2**32, 1, np.zeros((512, 4))), cfg)
    cfg.seed = 2**64 - 1
    res = pipeline.encode(HoaSignal(48000, 1, np.zeros((512, 4))), cfg)
    assert pipeline.decode(res.stream).stats.frames


@pytest.mark.parametrize("codec", ["baseline", "proposed"])
def test_operating_point_is_checked_up_front(codec, monkeypatch):
    """An MNMR that is not a positive finite ratio, or an RD lambda that is
    not finite and >= 0, is refused before any frame is analysed; the
    decoder refuses a header carrying one."""
    import struct

    from hoacodec import transform

    sig = HoaSignal(48000, 1, np.random.default_rng(3).uniform(-0.5, 0.5, (1024, 4)))
    cfg = pipeline.EncoderConfig(codec=codec, half_length=256, bypass_quantization=True)
    stream = pipeline.encode(sig, cfg).stream
    analysed = []
    monkeypatch.setattr(transform, "mdct_forward", lambda *a: analysed.append(a))
    for kw, match in (
        (dict(mnmr=float("nan")), "MNMR"), (dict(mnmr=float("inf")), "MNMR"),
        (dict(mnmr=0.0), "MNMR"), (dict(mnmr=-1.0), "MNMR"),
        (dict(rd_lambda=float("nan")), "RD lambda"), (dict(rd_lambda=float("inf")), "RD lambda"),
        (dict(rd_lambda=-1e-12), "RD lambda"),
    ):
        bad = pipeline.EncoderConfig(codec=codec, half_length=256, bypass_quantization=True, **kw)
        with pytest.raises(ConfigurationError, match=match):
            pipeline.encode(sig, bad)
        offset = 40 if "mnmr" in kw else 48  # the header's two f64 fields
        edited = bytearray(stream)
        edited[offset : offset + 8] = struct.pack(">d", *kw.values())
        for parse in (pipeline.decode, pipeline.measure_stream):
            with pytest.raises(StreamError, match=match):
                parse(bytes(edited))
    assert not analysed
    monkeypatch.undo()
    # the edges that stay valid: any positive ratio, and lambda 0
    for kw in (dict(mnmr=1e-3), dict(mnmr=1e6), dict(rd_lambda=0.0)):
        ok = pipeline.EncoderConfig(codec=codec, half_length=256, bypass_quantization=True, **kw)
        assert pipeline.decode(pipeline.encode(sig, ok).stream).stats.frames


def _other_huffman_table(stream: bytes) -> bytes:
    """``stream`` with the table fingerprint of another complete code, as a
    stream coded with that table would carry."""
    import zlib

    offset, size = _HEADER_FIELDS["table_fingerprint"]
    other = zlib.crc32(bytes((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 16)))
    return stream[:offset] + other.to_bytes(size, "big") + stream[offset + size :]


def test_wrong_huffman_table_rejected(encoded, small_quantizers_module):
    """Every stream is coded with the one table; a header naming another is
    refused, as no decoder could read its channels."""
    with pytest.raises(StreamError, match="Huffman table"):
        pipeline.decode(_other_huffman_table(encoded["proposed"].stream), quantizers=small_quantizers_module)


def test_measure_stream_checks_fingerprints(encoded, small_quantizers_module):
    import copy

    stream = encoded["proposed"].stream
    with pytest.raises(StreamError, match="Huffman table"):
        pipeline.measure_stream(_other_huffman_table(stream), quantizers=small_quantizers_module)
    other_codebooks = copy.deepcopy(small_quantizers_module)
    other_codebooks.residual.centroids[0, 0] += 1.0
    with pytest.raises(ConfigurationError, match="fingerprint"):
        pipeline.measure_stream(stream, quantizers=other_codebooks)


# (byte offset, size) of header fields, see docs/bitstream.md
_HEADER_FIELDS = {
    "version": (4, 2), "codec_id": (6, 1), "flags": (7, 1), "sample_rate": (8, 4), "order": (12, 1),
    "half_length": (13, 4), "rank": (17, 1), "bands": (18, 1), "background_order": (19, 1),
    "original_length": (28, 8), "frame_count": (36, 4), "table_fingerprint": (60, 4), "group_table_id": (64, 1),
}


@pytest.mark.parametrize("field,value,match", [
    ("version", 1, "unsupported stream version 1"),  # v1 sent dead predicted-band fields
    ("codec_id", 7, "codec id"),
    ("flags", 5, "unknown flag bits"),  # bypass plus an undefined bit
    ("flags", 129, "unknown flag bits"),
    ("flags", 2, "unknown flag bits"),  # bit 1, once a window choice, is retired
    ("flags", 3, "unknown flag bits"),
    ("sample_rate", 0, "sample rate"),
    ("order", 16, "order 16 above"),  # M=289 channels
    ("order", 200, "order 200 above"),  # M=40401
    ("group_table_id", 5, "group table id"),
    ("group_table_id", 0, "half length"),  # the AAC table needs L=1024, the stream has 256
    ("half_length", 1024, "group table id 1 does not fit half length 1024"),  # L=1024 implies the AAC table
    ("table_fingerprint", 0, "unknown Huffman table fingerprint"),
    ("half_length", 32, "half length"),  # fewer bins than noise groups
    # with a matching frame count; the decoder would allocate per frame
    ("half_length", 2**26, "half length 67108864 above the maximum"),
    ("half_length", 2**31, "half length 2147483648 above the maximum"),
    ("half_length", 257, "half length 257 is odd"),
    ("rank", 0, "rank"),
    ("rank", 17, "rank"),  # M=16
    ("background_order", 4, "background order"),  # order 3
    ("bands", 1, "band count"),
    ("bands", 3, "band count"),  # 256 bins do not split into 3 bands
    # the 0.4 s scene has 19200 samples in 76 frames at L=256
    ("original_length", 2**62, "frame count"),
    ("original_length", 3 * 19200, "frame count"),
    ("original_length", 1, "frame count"),
])
def test_header_values_the_encoder_never_writes_are_rejected(
    encoded, small_quantizers_module, field, value, match
):
    stream = bytearray(encoded["proposed"].stream)
    edits = {field: value}
    if field == "half_length":  # keep the frame count consistent with it
        edits["frame_count"] = pipeline.num_frames(19200, value)
    for name, v in edits.items():
        offset, size = _HEADER_FIELDS[name]
        stream[offset : offset + size] = v.to_bytes(size, "big")
    for parse in (pipeline.decode, pipeline.measure_stream):
        with pytest.raises(StreamError, match=match):
            parse(bytes(stream), quantizers=small_quantizers_module)


def test_odd_half_length_in_a_baseline_header_is_rejected(small_scene_module):
    """Header bit 135 is the lowest bit of the half length: 256 becomes 257
    with the frame count still matching, and the MDCT cannot fold it."""
    sig = HoaSignal(48000, 3, small_scene_module.samples[:9600])
    cfg = pipeline.EncoderConfig(codec="baseline", half_length=256, bypass_quantization=True)
    stream = bytearray(pipeline.encode(sig, cfg).stream)
    stream[135 // 8] ^= 0x80 >> 135 % 8
    for parse in (pipeline.decode, pipeline.measure_stream):
        with pytest.raises(StreamError, match="half length 257 is odd"):
            parse(bytes(stream))


@pytest.mark.parametrize("lead", [0, 3])
def test_noise_block_matches_per_flag_fields_and_detects_truncation(rng, lead):
    from hoacodec.bitio import BitReader, BitWriter
    from hoacodec.noise_subst import ENERGY_BITS, NUM_GROUPS, NoiseGroupInfo

    active = rng.random(NUM_GROUPS) < 0.5
    energies = rng.integers(0, 1 << ENERGY_BITS, NUM_GROUPS).astype(np.uint8)
    w, ref = BitWriter(), BitWriter()
    for writer in (w, ref):
        writer.write(0b101 & ((1 << lead) - 1), lead)
    bits = pipeline._write_noise_block(w, NoiseGroupInfo(active, energies))
    for flag in active:
        ref.write_flag(bool(flag))
    for j in np.flatnonzero(active):
        ref.write(int(energies[j]), ENERGY_BITS)
    data = w.getvalue()
    assert data == ref.getvalue() and bits == NUM_GROUPS + ENERGY_BITS * active.sum()

    r = BitReader(data)
    r.skip(lead)
    info, read_bits = pipeline._read_noise_block(r)
    assert read_bits == bits and np.array_equal(info.active, active)
    assert np.array_equal(info.energy_indices[active], energies[active])
    for cut in ((lead + NUM_GROUPS) // 8, (lead + bits - 1) // 8):  # in the flags, in the energies
        r = BitReader(data[:cut])
        r.skip(lead)
        with pytest.raises(StreamError, match="bitstream exhausted"):
            pipeline._read_noise_block(r)


def test_concealed_frames_report_mode_minus_one(encoded, small_quantizers_module):
    for codec in ("proposed", "baseline"):
        stream = bytearray(encoded[codec].stream)
        size = int.from_bytes(stream[pipeline.HEADER_BYTES : pipeline.HEADER_BYTES + 4], "big")
        stream[pipeline.HEADER_BYTES + 4 + size // 2] ^= 0xFF  # frame 0 payload
        dec = pipeline.decode(bytes(stream), quantizers=small_quantizers_module)
        assert dec.stats.frames[0].concealed
        assert dec.stats.frames[0].mode == -1
        f0 = dec.stats.frames[0]
        assert f0.intra_columns == f0.predicted_columns == f0.switched_columns == 0
        assert dec.stats.mode_histogram.get(-1) == dec.concealed_frames


def _frame_span(stream, index):
    """(start, size) of frame ``index``'s payload in a container stream."""
    pos = pipeline.HEADER_BYTES
    for _ in range(index):
        pos += 8 + int.from_bytes(stream[pos : pos + 4], "big")
    return pos + 4, int.from_bytes(stream[pos : pos + 4], "big")


def test_concealment_reasons(encoded, small_quantizers_module):
    import json
    import zlib

    stream = encoded["proposed"].stream
    start, size = _frame_span(stream, 2)
    crc_damaged = bytearray(stream)
    crc_damaged[start + size // 2] ^= 0xFF
    # frame 2 with an empty payload and a matching CRC: it fails to parse
    empty = (
        stream[: start - 4] + (0).to_bytes(4, "big") + zlib.crc32(b"").to_bytes(4, "big")
        + stream[start + size + 4 :]
    )
    for damaged, reason in ((bytes(crc_damaged), "crc"), (empty, "bitstream exhausted")):
        dec = pipeline.decode(damaged, quantizers=small_quantizers_module)
        frames = dec.stats.frames
        assert frames[2].concealed and frames[2].conceal_reason == reason
        assert all(f.conceal_reason == "" for f in frames[:2])
        assert all(bool(f.conceal_reason) == f.concealed for f in frames)
        doc = json.loads(json.dumps(dec.stats.to_dict()))
        assert doc["frames"][2]["conceal_reason"] == reason


def _with_payload(stream, index, payload) -> bytes:
    """``stream`` with frame ``index``'s payload replaced, size and CRC updated."""
    import zlib

    start, size = _frame_span(stream, index)
    framed = len(payload).to_bytes(4, "big") + payload + zlib.crc32(payload).to_bytes(4, "big")
    return stream[: start - 4] + framed + stream[start + size + 4 :]


def test_padding_of_a_byte_or_a_set_bit_is_refused(encoded, small_quantizers_module):
    """A payload pads to a byte with fewer than 8 zero bits.  A byte more, or
    a set pad bit, is a parse error: decode conceals the frame and stats
    raises, with the same reason."""
    for codec in ("proposed", "baseline"):
        res = encoded[codec]
        f = next(f for f in res.stats.frames if f.padding_bits)
        start, size = _frame_span(res.stream, f.index)
        payload = res.stream[start : start + size]
        for damaged, reason in (
            (payload + b"\0", f"{f.padding_bits + 8} padding bits (at most 7)"),
            (payload[:-1] + bytes([payload[-1] | 1]), "nonzero padding bits"),
        ):
            stream = _with_payload(res.stream, f.index, damaged)
            frames = pipeline.decode(stream, quantizers=small_quantizers_module).stats.frames
            assert [g.index for g in frames if g.concealed] == [f.index]
            assert frames[f.index].conceal_reason == reason
            with pytest.raises(StreamError) as raised:
                pipeline.measure_stream(stream, quantizers=small_quantizers_module)
            assert str(raised.value) == reason


def test_junk_after_the_channels_costs_bounded_memory(encoded, small_quantizers_module):
    """The channel decoder's tables cover at most the longest block the
    header allows (38 KB at L=256 with 8 channels), not a frame's whole
    payload: with 256 KiB and 1 MiB of zeros after frame 0's channels the
    allocation peak of decode and of stats was 7.3 MiB and 8.0 MiB, where
    tables over all of the payload took 48.5 MiB at 256 KiB."""
    import tracemalloc

    stream = encoded["proposed"].stream
    start, size = _frame_span(stream, 0)
    for junk in (1 << 18, 1 << 20):
        padded = _with_payload(stream, 0, stream[start : start + size] + bytes(junk))
        for call in (pipeline.decode, pipeline.measure_stream):
            tracemalloc.start()
            try:
                try:
                    call(padded, quantizers=small_quantizers_module)
                except StreamError as exc:
                    assert "padding bits" in str(exc)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 12 * 2**20, (call.__name__, junk, peak / 2**20)


def test_stats_parses_without_rebuilding(encoded, small_quantizers_module, monkeypatch):
    """Stats reads every field decode reads, with the same FrameStats, but
    never rebuilds a quantized basis; the proposed stream holds intra,
    predicted and switched columns."""
    from hoacodec import sideinfo

    rebuilt = [0]
    rebuild = sideinfo._rebuilt

    def counted(*args):
        rebuilt[0] += 1
        return rebuild(*args)

    monkeypatch.setattr(sideinfo, "_rebuilt", counted)
    for codec in ("proposed", "baseline"):
        stream = encoded[codec].stream
        rebuilt[0] = 0
        frames = pipeline.decode(stream, quantizers=small_quantizers_module).stats.frames
        assert rebuilt[0] == len(frames)
        rebuilt[0] = 0
        assert pipeline.measure_stream(stream, quantizers=small_quantizers_module).frames == frames
        assert rebuilt[0] == 0
    frames = encoded["proposed"].stats.frames
    for kind in ("intra_columns", "predicted_columns", "switched_columns"):
        assert sum(getattr(f, kind) for f in frames) > 0, kind


@pytest.fixture(scope="module")
def chirp_bypass_streams():
    """0.2 s of ``orbiting_chirp`` in bypass at L=256, per codec."""
    from hoacodec import scenes

    spec = next(s for s in scenes.corpus_specs(duration=0.2) if s.name == "orbiting_chirp")
    signal = scenes.render_scene(spec)
    return {
        codec: pipeline.encode(signal, pipeline.EncoderConfig(codec=codec, half_length=256, bypass_quantization=True))
        for codec in ("proposed", "baseline")
    }


def _with_raw_values(res, edits) -> bytes:
    """``res.stream`` under recomputed CRCs, with raw float64 values
    overwritten: ``edits`` lists (frame, where, value, index), writing
    ``value`` over value ``index`` (from the end when negative) of the
    frame's raw basis run (after the mode bit) or channel run (after the
    noise block), or over the whole run when ``index`` is None."""
    import zlib

    stream = bytearray(res.stream)
    for frame, where, value, index in edits:
        f = res.stats.frames[frame]
        if where == "basis":
            first, count = 1, (f.side_bits - 1) // 64
        else:
            first, count = f.side_bits + f.noise_bits, f.core_bits // 64
        at, n = (first, count) if index is None else (first + 64 * (index % count), 1)
        start, size = _frame_span(stream, frame)
        bits = int.from_bytes(stream[start : start + size], "big")
        shift = 8 * size - at - 64 * n
        run = int.from_bytes(np.full(n, value, ">f8").tobytes(), "big")
        bits = bits & ~(((1 << 64 * n) - 1) << shift) | run << shift
        stream[start : start + size] = bits.to_bytes(size, "big")
        stream[start + size : start + size + 4] = zlib.crc32(stream[start : start + size]).to_bytes(4, "big")
    return bytes(stream)


def _assert_frame_0_concealed(stream, where):
    """Decode conceals frame 0 alone for its raw value, with finite samples,
    and stats raises there with decode's reason."""
    dec = pipeline.decode(stream)
    assert dec.concealed_frames == 1 and dec.stats.frames[0].concealed
    assert dec.stats.frames[0].conceal_reason == f"raw {where} value out of range"
    assert np.all(np.isfinite(dec.signal.samples))
    with pytest.raises(StreamError, match=f"^raw {where} value out of range$"):
        pipeline.measure_stream(stream)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["basis", "channel"])
@pytest.mark.parametrize("codec", ["proposed", "baseline"])
def test_non_finite_raw_value_conceals_the_frame(chirp_bypass_streams, codec, where, value):
    """A NaN or infinity in a raw value (the first basis value, or the
    payload's last channel value) is a parse error: the frame is concealed
    and every decoded sample stays finite."""
    index = 0 if where == "basis" else -1
    _assert_frame_0_concealed(_with_raw_values(chirp_bypass_streams[codec], [(0, where, value, index)]), where)


@pytest.mark.parametrize("where", ["basis", "channel"])
@pytest.mark.parametrize("codec", ["proposed", "baseline"])
def test_huge_finite_raw_value_conceals_the_frame(chirp_bypass_streams, codec, where):
    """A finite raw value near the float64 limit would overflow to inf and
    NaN samples in synthesis: it is out of range where it is read, so the
    frame is concealed and stats stops there."""
    index = 0 if where == "basis" else -1
    _assert_frame_0_concealed(_with_raw_values(chirp_bypass_streams[codec], [(0, where, -1.5e308, index)]), where)


@pytest.fixture(scope="module")
def talkers_bypass_streams():
    """0.2 s of ``two_talkers`` in bypass at L=256, per codec."""
    from hoacodec import scenes

    signal = scenes.render_scene(scenes.corpus_specs(duration=0.2)[0])
    return {
        codec: pipeline.encode(signal, pipeline.EncoderConfig(codec=codec, half_length=256, bypass_quantization=True))
        for codec in ("proposed", "baseline")
    }


def test_raw_values_too_large_together_across_frames_are_refused(talkers_bypass_streams):
    """Frame 3 of a baseline bypass stream holds raw bases at 1e180 and
    channels at 1e-200, frame 4 channels at 1e180.  Each frame alone
    reconstructs to small values, but the recombination blends frame 3's
    bases into frame 4's foreground, overflowing to inf and NaN.  Frame 3's
    bases are out of range where they are read: decode conceals that frame
    alone and every sample is finite, and stats stops there."""
    edits = [(3, "basis", 1e180, None), (3, "channel", 1e-200, None), (4, "channel", 1e180, None)]
    stream = _with_raw_values(talkers_bypass_streams["baseline"], edits)
    dec = pipeline.decode(stream)
    assert [f.index for f in dec.stats.frames if f.concealed] == [3]
    assert dec.stats.frames[3].conceal_reason == "raw basis value out of range"
    assert np.all(np.isfinite(dec.signal.samples))
    with pytest.raises(StreamError, match="^raw basis value out of range$") as raised:
        pipeline.measure_stream(stream)
    assert raised.value.partial.frames == dec.stats.frames[:3]


@pytest.mark.parametrize("codec,bit", [
    ("proposed", 55),  # codec_id: the proposed frames read as baseline frames
    ("proposed", 102), ("proposed", 103), ("baseline", 102), ("baseline", 103),  # order
])
def test_header_flips_that_misread_raw_values_stay_finite(talkers_bypass_streams, codec, bit):
    """Each of these one-bit header flips leaves a few frames that parse,
    misaligned, into finite raw values near 1e308.  The decode raises a
    HoaCodecError or conceals those frames; its samples are finite."""
    stream = bytearray(talkers_bypass_streams[codec].stream)
    stream[bit // 8] ^= 0x80 >> bit % 8
    try:
        dec = pipeline.decode(bytes(stream))
    except HoaCodecError:
        return
    assert dec.concealed_frames > 0
    assert np.all(np.isfinite(dec.signal.samples))


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    codec=st.sampled_from(["proposed", "baseline"]),
    frame=st.integers(0, 5),
    flips=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=4),
)
def test_bit_flips_with_valid_crc_conceal_or_raise(encoded, small_quantizers_module, codec, frame, flips):
    """Stats stops where decode conceals: ``measure_stream`` raises exactly
    when ``decode`` conceals a frame, with the first concealed frame's
    reason, and the two account every frame before it alike.  Each set of
    flips is checked under a recomputed CRC and under the stream's own CRC,
    which the flips break."""
    _assert_conceal_or_raise(encoded[codec].stream, small_quantizers_module, frame, flips)


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    codec=st.sampled_from(["proposed", "baseline"]),
    frame=st.integers(0, 5),
    flips=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=4),
    exponent=st.booleans(),
)
def test_bit_flips_in_bypass_streams_conceal_or_raise(talkers_bypass_streams, codec, frame, flips, exponent):
    """The same contract on bypass streams, where most flips land in raw
    values.  With ``exponent``, each flip moves to the top exponent bit of
    the raw channel value it falls in, which takes a value below 2 out of
    range."""
    res = talkers_bypass_streams[codec]
    if exponent:
        f = res.stats.frames[frame]
        first = f.side_bits + f.noise_bits
        flips = [first + 64 * (bit % (f.core_bits // 64)) + 1 for bit in flips]
    _assert_conceal_or_raise(res.stream, None, frame, flips)


def _assert_conceal_or_raise(stream, quantizers, frame, flips):
    import zlib

    stream = bytearray(stream)
    start, size = _frame_span(stream, frame)
    for bit in flips:
        bit %= 8 * size
        stream[start + bit // 8] ^= 0x80 >> (bit % 8)
    crc_broken = bytes(stream)
    stream[start + size : start + size + 4] = zlib.crc32(stream[start : start + size]).to_bytes(4, "big")
    for damaged in (bytes(stream), crc_broken):
        frames = pipeline.decode(damaged, quantizers=quantizers).stats.frames
        concealed = [f for f in frames if f.concealed]
        if not concealed:
            measured = pipeline.measure_stream(damaged, quantizers=quantizers).frames
            assert measured == frames
            continue
        first = concealed[0]
        reason = f"frame {first.index}: CRC mismatch" if first.conceal_reason == "crc" else first.conceal_reason
        with pytest.raises(StreamError) as raised:
            pipeline.measure_stream(damaged, quantizers=quantizers)
        assert str(raised.value) == reason
        assert raised.value.partial.frames == frames[: first.index]


def test_decode_reads_no_bit_at_a_time(small_scene_module, small_quantizers_module, monkeypatch):
    """Entropy decoding must not fall back to one BitReader call per symbol."""
    from hoacodec.bitio import BitReader

    calls = [0]

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("read", "read_flag", "peek", "skip", "read_ue", "read_se", "read_f64", "read_bytes"):
        monkeypatch.setattr(BitReader, name, counted(getattr(BitReader, name)))
    stream = pipeline.encode(small_scene_module, _cfg(small_quantizers_module, half_length=1024)).stream
    pipeline.decode(stream, quantizers=small_quantizers_module)
    pipeline.measure_stream(stream, quantizers=small_quantizers_module)
    assert calls[0] / (2 * 8 * len(stream)) < 0.02


def test_encode_does_no_work_per_symbol(small_scene_module, small_quantizers_module, monkeypatch):
    """A proposed encode computes masking curves in two calls per frame, one
    for the original channels (shared by both RD trials) and one for both
    trials' components, and entropy-encodes the winner's channels in one
    call per frame, as one bit run, not one BitWriter call per field."""
    from hoacodec import core_codec
    from hoacodec.bitio import BitWriter

    masks, encodes, writes, inside = [0], [0], [0], [False]
    masking_threshold = core_codec.masking_threshold
    entropy_encode_channel = core_codec.entropy_encode_channel

    def counted_mask(*args, **kwargs):
        masks[0] += 1
        return masking_threshold(*args, **kwargs)

    def encode_channel(*args, **kwargs):
        encodes[0] += 1
        inside[0] = True
        try:
            return entropy_encode_channel(*args, **kwargs)
        finally:
            inside[0] = False

    def counted(fn):
        def wrapper(*args, **kwargs):
            writes[0] += inside[0]
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(core_codec, "masking_threshold", counted_mask)
    monkeypatch.setattr(core_codec, "entropy_encode_channel", encode_channel)
    for name in [n for n in vars(BitWriter) if n.startswith("write")]:
        monkeypatch.setattr(BitWriter, name, counted(getattr(BitWriter, name)))
    cfg = _cfg(small_quantizers_module, half_length=1024)
    frames = pipeline.encode(small_scene_module, cfg).stats.frames
    assert masks[0] <= 2 * len(frames)
    assert encodes[0] == len(frames)
    assert writes[0] < 0.01 * sum(f.core_bits for f in frames)


@pytest.mark.parametrize("offset", range(8))
def test_raw_matrix_read_matches_per_value_reads(rng, offset):
    from hoacodec.bitio import BitReader, BitWriter

    values = rng.standard_normal(24) * 10.0 ** rng.integers(-300, 300, 24)
    values[:3] = (-0.0, np.inf, np.nan)
    w = BitWriter()
    w.write(0, offset)
    for v in values:
        w.write_f64(v)
    w.write(0b101, 3)
    data = w.getvalue()
    per_value = BitReader(data)
    per_value.skip(offset)
    expected = np.array([per_value.read_f64() for _ in values]).reshape(4, 6)
    reader = BitReader(data)
    reader.skip(offset)
    got = reader.read_f64_array((4, 6))
    assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()
    assert reader.bit_position == per_value.bit_position
    assert reader.read(3) == 0b101
    # a run that passes the end of the payload
    for cut in (len(data) - 2, 8 + offset // 8):
        short = BitReader(data[:cut])
        short.skip(offset)
        with pytest.raises(StreamError):
            short.read_f64_array((4, 6))


def test_measure_stream_on_bypass_needs_no_codebooks(small_scene_module):
    cfg = pipeline.EncoderConfig(codec="proposed", half_length=256, rank=4,
                                 background_order=1, bypass_quantization=True, seed=1)
    res = pipeline.encode(small_scene_module, cfg)
    stats = pipeline.measure_stream(res.stream)
    assert stats.total_bits == 8 * len(res.stream)


def test_stats_json_serializable(encoded):
    import json

    doc = json.dumps(encoded["proposed"].stats.to_dict())
    assert "mode_histogram" in doc


@pytest.fixture(scope="module")
def foa_setup():
    """First-order (M=4) scene and matching quantizers."""
    from hoacodec import scenes, sideinfo

    spec = scenes.SceneSpec(
        duration=0.4, sample_rate=48000, order=1,
        sources=[
            scenes.SourceSpec(kind="bandnoise", freq=150, freq_hi=6000,
                              level=0.4, azimuth=0.7, seed=5),
            scenes.SourceSpec(kind="tone", freq=500, level=0.25,
                              azimuth=-1.0, elevation=0.3, seed=6),
        ],
        diffuse_level=0.03, seed=55, name="foa",
    )
    sig = scenes.render_scene(spec)
    config = sideinfo.TrainingConfig(half_length=256, rank=2, coeff_size=8,
                                     residual_size=32, intra_size=32, max_iter=15)
    return sig, sideinfo.train_quantizers([sig], config)


@pytest.mark.parametrize("codec,rank,bg_order,bands", [
    ("proposed", 2, 0, 4),
    ("proposed", 3, 1, 8),
    ("baseline", 1, 1, 4),
    ("baseline", 4, 0, 4),
])
def test_parameter_matrix_roundtrips(foa_setup, codec, rank, bg_order, bands):
    sig, quant = foa_setup
    cfg = pipeline.EncoderConfig(
        codec=codec, half_length=256, rank=rank, bands=bands,
        background_order=bg_order, mnmr=1.0, quantizers=quant, seed=9,
    )
    res = pipeline.encode(sig, cfg)
    dec = pipeline.decode(res.stream, quantizers=quant)
    assert dec.signal.samples.shape == sig.samples.shape
    measured = pipeline.measure_stream(res.stream, quantizers=quant)
    assert measured.total_bits == 8 * len(res.stream)


def test_decode_peak_memory_stays_near_the_output(small_scene_module):
    """One pass each way, with no per-frame list of frames, spectra,
    payloads or blocks, and the stream held once: the allocation peak of an
    encode stays below 1.5x the input samples' bytes, and that of a decode
    below 1.6x the output's."""
    import tracemalloc

    def peak_of(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    source = small_scene_module.samples.nbytes
    for codec in ("proposed", "baseline"):
        cfg = pipeline.EncoderConfig(codec=codec, half_length=256, bypass_quantization=True)
        encoded, peak = peak_of(lambda: pipeline.encode(small_scene_module, cfg))
        assert peak < 1.5 * source, (codec, "encode", peak / source)
        decoded, peak = peak_of(lambda: pipeline.decode(encoded.stream))
        out = decoded.signal.samples.nbytes
        assert peak < 1.6 * out, (codec, "decode", peak / out)


def test_quantized_decode_peak_memory_stays_near_the_output(small_scene_module, full_quantizers):
    """The channel decoder's jump tables live for one frame: the allocation
    peak of decoding a quantized L=1024 stream (measured 2.09x and 2.41x
    the output's bytes for the proposed codec and the baseline) stays
    within 25% of that, far below a table kept for every frame."""
    import tracemalloc

    for codec, bound in (("proposed", 2.6), ("baseline", 3.0)):
        cfg = pipeline.EncoderConfig(codec=codec, half_length=1024, quantizers=full_quantizers)
        stream = pipeline.encode(small_scene_module, cfg).stream
        tracemalloc.start()
        try:
            decoded = pipeline.decode(stream, quantizers=full_quantizers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = decoded.signal.samples.nbytes
        assert peak < bound * out, (codec, peak / out)


def test_one_channel_decode_call_per_frame(encoded, small_quantizers_module, monkeypatch):
    from hoacodec import core_codec

    calls = []
    decode_channels = core_codec.entropy_decode_channel

    def counted(*args, **kwargs):
        calls.append(args[2])
        return decode_channels(*args, **kwargs)

    monkeypatch.setattr(core_codec, "entropy_decode_channel", counted)
    for codec in ("proposed", "baseline"):
        stream = encoded[codec].stream
        for parse in (lambda s, **kw: pipeline.decode(s, **kw).stats, pipeline.measure_stream):
            calls.clear()
            stats = parse(stream, quantizers=small_quantizers_module)
            assert calls == [4 + 4] * len(stats.frames)  # rank 4 plus (1 + 1)^2 background channels


@pytest.fixture(scope="module")
def talkers_short():
    """0.1 s of ``two_talkers``."""
    from hoacodec import scenes

    return scenes.render_scene(scenes.corpus_specs(duration=0.1)[0])


@pytest.mark.parametrize("codec", ["proposed", "baseline"])
def test_too_loud_input_raises_numeric_error(talkers_short, small_quantizers, codec):
    """Scaled by 1e29 the scene still encodes.  By 1e30 a quantized magnitude
    passes 2^63 - 1, which the 6-bit raw width cannot hold.  By 1e160 and
    1e300 a frame's energy could pass the float64 maximum, so the frame is
    refused before any analysis squares it, quantized or in bypass.  Each
    refusal is a NumericError naming the limit, with no numpy warning.  In
    bypass, 1e150 lies just under that limit and its stream decodes without
    a concealed frame."""

    def encode(k, bypass=False):
        cfg = pipeline.EncoderConfig(
            codec=codec, half_length=256, quantizers=small_quantizers, bypass_quantization=bypass
        )
        return pipeline.encode(HoaSignal(talkers_short.sample_rate, talkers_short.order, talkers_short.samples * k), cfg)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(np.isfinite(f.max_nmr) for f in encode(1e29).stats.frames)
        with pytest.raises(NumericError, match=r"2\^63 - 1"):
            encode(1e30)
        for k in (1e29, 1e30, 1e150):
            assert pipeline.decode(encode(k, bypass=True).stream).concealed_frames == 0
        for bypass in (False, True):
            for k in (1e160, 1e300):
                with pytest.raises(NumericError, match="float64 limit"):
                    encode(k, bypass)
