import numpy as np
import pytest
from hypothesis import given, strategies as st

from hoacodec.bitio import BitReader, BitWriter
from hoacodec.errors import StreamError


def test_write_read_fixed_fields():
    w = BitWriter()
    w.write(0b101, 3)
    w.write_flag(True)
    w.write(0xDEAD, 16)
    data = w.getvalue()
    r = BitReader(data)
    assert r.read(3) == 0b101
    assert r.read_flag() is True
    assert r.read(16) == 0xDEAD


def test_value_too_wide_rejected():
    w = BitWriter()
    with pytest.raises(ValueError):
        w.write(4, 2)
    # at every width, including the 64-bit header fields: no silent wrap
    for value, nbits in ((-1, 8), (-1, 64), (1 << 64, 64), ((1 << 64) + 5, 64), (1 << 70, 65)):
        with pytest.raises(ValueError):
            w.write(value, nbits)
    assert w.bit_length == 0
    w.write((1 << 64) - 1, 64)
    assert BitReader(w.getvalue()).read(64) == (1 << 64) - 1


def test_exp_golomb_roundtrip():
    w = BitWriter()
    values = [0, 1, 2, 3, 7, 8, 100, 4095]
    for v in values:
        w.write_ue(v)
    signed = [0, 1, -1, 5, -17, 1000, -1000]
    for v in signed:
        w.write_se(v)
    r = BitReader(w.getvalue())
    assert [r.read_ue() for _ in values] == values
    assert [r.read_se() for _ in signed] == signed


@pytest.mark.parametrize("offset", range(8))
def test_f64_array_write_matches_per_value_writes(offset):
    values = np.array([
        [-0.0, 0.0, np.inf, -np.inf],
        [np.nan, 5e-324, -2.2250738585072e-309, 1.0],
        [-1.5, 3.141592653589793, 1e-300, -2e300],
    ])
    per_value, run = BitWriter(), BitWriter()
    for w in (per_value, run):
        w.write(0b1011011 >> (7 - offset) if offset else 0, offset)
    for v in values.reshape(-1):
        per_value.write_f64(v)
    run.write_f64_array(values)
    assert run.bit_length == per_value.bit_length
    for w in (per_value, run):
        w.write(0b101, 3)
    assert run.getvalue() == per_value.getvalue()


@given(
    st.lists(st.integers(0, 64).flatmap(
        lambda n: st.tuples(st.integers(0, (1 << n) - 1), st.just(n))), max_size=60),
    st.integers(0, 7),
    st.integers(0, 127),
)
def test_field_run_matches_per_field_writes(fields, offset, lead):
    per_field, run = BitWriter(), BitWriter()
    for w in (per_field, run):
        w.write(lead >> (7 - offset), offset)
    for value, nbits in fields:
        per_field.write(value, nbits)
    run.write_fields(
        np.array([v for v, _ in fields], dtype=np.uint64), np.array([n for _, n in fields], dtype=np.int64)
    )
    assert run.bit_length == per_field.bit_length
    for w in (per_field, run):
        w.write(0b101, 3)
    assert run.getvalue() == per_field.getvalue()


@pytest.mark.parametrize("pattern", [(1 << 64) - 1, 0x8123_4567_89AB_CDEF])
@pytest.mark.parametrize("offset", range(8))
def test_field_run_of_every_length_matches_per_field_writes(offset, pattern):
    """Fields of every length 0..64 from every pending offset, all ones or
    the last bits of a pattern whose 16-bit pieces differ: in one run,
    where each field is split into pieces at its own boundaries, then one
    run per field."""
    lengths = np.arange(65)
    values = np.array([pattern & ((1 << n) - 1) for n in lengths.tolist()], dtype=np.uint64)
    run, per_field = BitWriter(), BitWriter()
    for w in (run, per_field):
        w.write(0b1011001 >> (7 - offset), offset)
    for _ in range(2):
        for value, nbits in zip(values.tolist(), lengths.tolist()):
            per_field.write(value, nbits)
    run.write_fields(values, lengths)
    for i in range(lengths.size):
        run.write_fields(values[i : i + 1], lengths[i : i + 1])
    assert run.bit_length == per_field.bit_length
    assert run.getvalue() == per_field.getvalue()


def test_field_run_rejects_values_wider_than_their_field():
    w = BitWriter()
    w.write(1, 3)
    for values, lengths in (([4], [2]), ([1], [0]), ([0, 1 << 63], [1, 63]), ([0], [65]), ([0], [-1])):
        with pytest.raises(ValueError):
            w.write_fields(np.array(values, dtype=np.uint64), np.array(lengths))
    assert w.bit_length == 3


def test_f64_roundtrip():
    w = BitWriter()
    for v in (0.0, -1.5, 3.141592653589793, 1e-300, -2e300):
        w.write_f64(v)
    r = BitReader(w.getvalue())
    for v in (0.0, -1.5, 3.141592653589793, 1e-300, -2e300):
        assert r.read_f64() == v


def test_read_past_end_raises():
    r = BitReader(b"\xff")
    r.read(8)
    with pytest.raises(StreamError):
        r.read(1)


def test_peek_does_not_consume():
    r = BitReader(b"\xa5")
    assert r.peek(4) == 0xA
    assert r.read(4) == 0xA
    assert r.peek(8) == 0x50  # zero-padded past the end
    assert r.read(4) == 0x5


@given(st.lists(st.tuples(st.integers(0, 2**20 - 1), st.integers(1, 20)), max_size=60))
def test_arbitrary_field_sequences_roundtrip(fields):
    w = BitWriter()
    for value, nbits in fields:
        w.write(value & ((1 << nbits) - 1), nbits)
    r = BitReader(w.getvalue())
    for value, nbits in fields:
        assert r.read(nbits) == value & ((1 << nbits) - 1)

