import numpy as np
import pytest

from hoacodec.errors import FormatError, ShapeError
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


# --- framing ---

def test_frame_count_examples():
    assert num_frames(2048, 1024) == 3
    assert num_frames(1024, 1024) == 2
    assert num_frames(0, 1024) == 0


def test_frames_are_2l_long(rng):
    frames = list(segment_frames(_signal(rng, length=2048).samples, 1024))
    assert len(frames) == 3
    assert all(fr.samples.shape == (2048, 16) for fr in frames)


def test_every_sample_in_exactly_two_frames(rng):
    L = 128
    for length in (1, 77, 128, 300, 1024):
        frames = segment_frames(rng.uniform(-0.9, 0.9, (length, 4)), L)
        coverage = np.zeros(L + length + 4 * L)
        for fr in frames:
            coverage[fr.index * L : fr.index * L + 2 * L] += 1
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
        assert [fr.index for fr in frames] == list(range(num_frames(length, L)))
        for fr in frames:
            # bit for bit, zero padding included
            assert fr.samples.tobytes() == padded[fr.index * L : fr.index * L + 2 * L].tobytes()
