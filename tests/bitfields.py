"""Field helpers for reference coders that spell a stream out field by
field, on nothing of ``bitio`` but ``BitWriter.write``, ``BitReader.read``
and ``BitReader.bit_position``.  The wire forms are those of
docs/bitstream.md."""

from hoacodec.errors import StreamError


def write_flag(writer, flag) -> None:
    writer.write(int(bool(flag)), 1)


def read_flag(reader) -> bool:
    return bool(reader.read(1))


def write_ue(writer, value: int) -> None:
    """Unsigned Exp-Golomb: value + 1 in binary, after one zero per bit of
    it past the first."""
    v = value + 1
    writer.write(0, v.bit_length() - 1)
    writer.write(v, v.bit_length())


def read_ue(reader) -> int:
    zeros = 0
    while not reader.read(1):
        zeros += 1
        if zeros > 64:
            raise StreamError("malformed Exp-Golomb code")
    return (1 << zeros | reader.read(zeros)) - 1


def skip(reader, nbits: int) -> None:
    """Move past ``nbits`` bits; :class:`StreamError` past the end."""
    reader.bit_position += nbits
