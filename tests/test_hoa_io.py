import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoacodec.errors import FormatError, HoaCodecError, NumericError, ShapeError
from hoacodec.hoa_io import (
    HoaSignal,
    num_frames,
    pad_signal,
    read_hoa_wav,
    segment_frames,
    write_hoa_wav,
)


def _signal(rng, length=1000, channels=16, rate=48000):
    return HoaSignal.from_samples(rng.uniform(-0.9, 0.9, (length, channels)), rate)


def test_order_derived_from_channel_count(rng, tmp_path):
    sig = _signal(rng, channels=4)
    assert sig.order == 1
    write_hoa_wav(sig, tmp_path / "foa.wav")
    assert read_hoa_wav(tmp_path / "foa.wav").order == 1


def test_third_order_sixteen_channels(rng, tmp_path):
    sig = _signal(rng, channels=16)
    write_hoa_wav(sig, tmp_path / "toa.wav")
    back = read_hoa_wav(tmp_path / "toa.wav")
    assert back.order == 3 and back.num_channels == 16


def test_non_square_channel_count_rejected(rng):
    with pytest.raises(ShapeError):
        HoaSignal.from_samples(rng.uniform(-1, 1, (100, 5)), 48000)


def test_mismatched_order_rejected(rng):
    with pytest.raises(ShapeError):
        HoaSignal(sample_rate=48000, order=2, samples=rng.uniform(-1, 1, (100, 16)))


def test_float32_roundtrip_bit_exact(rng, tmp_path):
    sig = _signal(rng)
    write_hoa_wav(sig, tmp_path / "f.wav", "float32")
    back = read_hoa_wav(tmp_path / "f.wav")
    assert np.array_equal(back.samples, sig.samples.astype("<f4").astype(np.float64))
    assert back.sample_rate == sig.sample_rate


@pytest.mark.parametrize("fmt,step", [("pcm16", 2**-15), ("pcm24", 2**-23), ("pcm32", 2**-31)])
def test_pcm_roundtrip_within_one_step(rng, tmp_path, fmt, step):
    sig = _signal(rng)
    write_hoa_wav(sig, tmp_path / "p.wav", fmt)
    back = read_hoa_wav(tmp_path / "p.wav")
    assert np.max(np.abs(back.samples - sig.samples)) <= step


@pytest.mark.parametrize("bits", [16, 24, 32])
def test_pcm_bytes_and_samples_are_exact(rng, tmp_path, bits):
    """Each sample is written as round(x * 2^(bits-1)), clipped to the
    format's range, in bits/8 little-endian two's-complement bytes, and read
    back as exactly that integer over 2^(bits-1)."""
    scale = 2 ** (bits - 1)
    edges = [-1.0, 1.0 - 1 / scale, 1.0, -1.5, np.inf, -np.inf, 0.5 / scale, -0.5 / scale]
    x = np.concatenate([rng.uniform(-1.2, 1.2, 400), edges]).reshape(-1, 4)
    write_hoa_wav(HoaSignal.from_samples(x, 48000), tmp_path / "p.wav", f"pcm{bits}")
    q = np.clip(np.round(x * scale), -scale, scale - 1)
    expected = b"".join(int(v).to_bytes(bits // 8, "little", signed=True) for v in q.ravel())
    data = (tmp_path / "p.wav").read_bytes()
    start = data.index(b"data") + 8
    assert data[start : start + len(expected)] == expected
    assert np.array_equal(read_hoa_wav(tmp_path / "p.wav").samples, q / scale)


def test_nan_samples_are_refused_by_the_integer_formats(tmp_path):
    x = np.zeros((8, 4))
    x[3, 2] = np.nan
    sig = HoaSignal.from_samples(x, 48000)
    for fmt in ("pcm16", "pcm24", "pcm32"):
        with pytest.raises(NumericError, match=f"NaN sample cannot be written as {fmt}"):
            write_hoa_wav(sig, tmp_path / f"{fmt}.wav", fmt)
        assert not (tmp_path / f"{fmt}.wav").exists()
    write_hoa_wav(sig, tmp_path / "f.wav", "float32")
    assert np.isnan(read_hoa_wav(tmp_path / "f.wav").samples[3, 2])


@pytest.mark.parametrize("fmt, frames, rate", [("float32", 2**26 + 1, 48000), ("pcm16", 2**27, 48000), ("float32", 1, 2**26)])
def test_data_past_the_riff_fields_is_refused_before_conversion(tmp_path, fmt, frames, rate):
    # 16 channels: 2^32 + 64 and 2^32 data bytes, past the 32-bit RIFF size,
    # or 2^32 bytes per second, past the 32-bit byte rate
    import tracemalloc

    sig = HoaSignal(sample_rate=rate, order=3, samples=np.broadcast_to(np.zeros(16), (frames, 16)))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"{frames * 16 * int(fmt[-2:]) // 8} bytes of samples"):
            write_hoa_wav(sig, tmp_path / "big.wav", fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert not (tmp_path / "big.wav").exists()


def test_empty_signal_roundtrip(tmp_path):
    sig = HoaSignal(sample_rate=48000, order=1, samples=np.zeros((0, 4)))
    write_hoa_wav(sig, tmp_path / "empty.wav")
    back = read_hoa_wav(tmp_path / "empty.wav")
    assert back.length == 0 and back.num_channels == 4


def test_pcm24_mono_odd_payload_roundtrip(rng, tmp_path):
    # 1 channel x 24-bit with odd sample count exercises RIFF pad bytes
    sig = HoaSignal.from_samples(rng.uniform(-0.9, 0.9, (333, 1)), 48000)
    write_hoa_wav(sig, tmp_path / "odd.wav", "pcm24")
    back = read_hoa_wav(tmp_path / "odd.wav")
    assert back.length == 333
    assert np.max(np.abs(back.samples - sig.samples)) <= 2**-23


def test_garbage_file_rejected(tmp_path):
    (tmp_path / "bad.wav").write_bytes(b"not a riff file at all")
    with pytest.raises(FormatError):
        read_hoa_wav(tmp_path / "bad.wav")


@pytest.mark.parametrize("length", range(20, 36))
def test_file_cut_inside_fmt_chunk_rejected(rng, tmp_path, length):
    """A 16-bit file cut inside its fmt chunk (bytes 20 to 35) holds less
    than the chunk size declares."""
    path = tmp_path / "cut.wav"
    write_hoa_wav(_signal(rng, length=10, channels=4), path, "pcm16")
    data = path.read_bytes()
    assert len(data) == 124
    path.write_bytes(data[:length])
    with pytest.raises(FormatError, match="fmt chunk too short"):
        read_hoa_wav(path)


def test_inconsistent_block_align_rejected(rng, tmp_path):
    # a 4-channel float32 file whose fmt chunk claims 6 bytes per sample frame
    import struct

    path = tmp_path / "x.wav"
    write_hoa_wav(_signal(rng, length=64, channels=4), path, "float32")
    data = bytearray(path.read_bytes())
    fmt = data.index(b"fmt ") + 8
    assert struct.unpack_from("<H", data, fmt + 12) == (16,)
    struct.pack_into("<H", data, fmt + 12, 6)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="block align"):
        read_hoa_wav(path)


def test_extensible_header_accepted(rng, tmp_path):
    # rewrap a plain float WAV as WAVE_FORMAT_EXTENSIBLE
    import struct

    sig = _signal(rng, length=64, channels=4)
    payload = sig.samples.astype("<f4").tobytes()
    sub = struct.pack("<HHIIHH", 0xFFFE, 4, 48000, 48000 * 16, 16, 32)
    ext = struct.pack("<HHI", 22, 32, 0) + struct.pack("<H", 3) + b"\x00" * 14
    fmt = sub + ext
    riff = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    riff += b"data" + struct.pack("<I", len(payload)) + payload
    data = b"RIFF" + struct.pack("<I", len(riff)) + riff
    (tmp_path / "ext.wav").write_bytes(data)
    back = read_hoa_wav(tmp_path / "ext.wav")
    assert np.array_equal(back.samples, sig.samples.astype("<f4").astype(np.float64))
    # cut after 30 of the extensible chunk's 40 bytes
    (tmp_path / "cut.wav").write_bytes(data[:50])
    with pytest.raises(FormatError, match="extensible fmt chunk too short"):
        read_hoa_wav(tmp_path / "cut.wav")


# --- framing ---

def test_frame_count_examples():
    assert num_frames(2048, 1024) == 3
    assert num_frames(1024, 1024) == 2
    assert num_frames(0, 1024) == 0


def test_frames_are_2l_long(rng):
    frames = list(segment_frames(_signal(rng, length=2048).samples, 1024))
    assert len(frames) == 3
    assert all(fr.shape == (2048, 16) for fr in frames)


def test_every_sample_in_exactly_two_frames(rng):
    L = 128
    for length in (1, 77, 128, 300, 1024):
        frames = segment_frames(rng.uniform(-0.9, 0.9, (length, 4)), L)
        coverage = np.zeros(L + length + 4 * L)
        for f, _ in enumerate(frames):
            coverage[f * L : f * L + 2 * L] += 1
        # original samples occupy padded indices [L, L+length)
        assert np.all(coverage[L : L + length] == 2)


def test_empty_signal_yields_no_frames():
    assert list(segment_frames(np.zeros((0, 4)), 1024)) == []


def test_frame_offsets_follow_hop(rng):
    L = 64
    for length in (1, 64, 500, 512):
        x = rng.uniform(-0.9, 0.9, (length, 4))
        padded = pad_signal(x, L)
        frames = list(segment_frames(x, L))
        assert len(frames) == num_frames(length, L)
        for f, fr in enumerate(frames):
            # bit for bit, zero padding included
            assert fr.tobytes() == padded[f * L : f * L + 2 * L].tobytes()


# the byte offsets of the RIFF, fmt and data chunk sizes in write_hoa_wav's files
_WAV_SIZE_FIELDS = (4, 16, 40)
_WAV_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("cut"), st.integers(0, 200)),
        st.tuples(st.just("byte"), st.integers(0, 47), st.integers(0, 255)),
        st.tuples(
            st.just("size"), st.sampled_from(_WAV_SIZE_FIELDS),
            st.one_of(st.integers(0, 200), st.integers(0, 2**32 - 1)),
        ),
    ),
    min_size=1, max_size=3,
)


@pytest.fixture(scope="module")
def wav_files(tmp_path_factory):
    """The bytes of one 11-sample mono signal as PCM16, PCM24 (an odd
    payload, so the data chunk is padded) and float32."""
    folder = tmp_path_factory.mktemp("wav")
    sig = HoaSignal.from_samples(np.random.default_rng(3).uniform(-0.9, 0.9, (11, 1)), 48000)
    files = {}
    for fmt in ("pcm16", "pcm24", "float32"):
        write_hoa_wav(sig, folder / f"{fmt}.wav", fmt)
        files[fmt] = (folder / f"{fmt}.wav").read_bytes()
    return folder, files


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(("pcm16", "pcm24", "float32")), _WAV_EDITS)
def test_edited_wav_loads_or_raises_a_codec_error(wav_files, fmt, edits):
    """Truncations, header byte edits and chunk-size edits of a WAV file end
    in a signal or a HoaCodecError, never struct.error, ValueError,
    IndexError or MemoryError."""
    folder, files = wav_files
    data = bytearray(files[fmt])
    for edit in edits:
        if edit[0] == "cut":
            del data[edit[1]:]
        elif edit[0] == "byte":
            if edit[1] < len(data):
                data[edit[1]] = edit[2]
        elif edit[1] + 4 <= len(data):
            data[edit[1] : edit[1] + 4] = edit[2].to_bytes(4, "little")
    path = folder / "edited.wav"
    path.write_bytes(bytes(data))
    try:
        sig = read_hoa_wav(path)
    except HoaCodecError:
        return
    assert sig.samples.shape[1] == sig.num_channels
