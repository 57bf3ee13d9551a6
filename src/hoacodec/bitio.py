"""MSB-first bit packing used by the side-info, core-codec and container layers.

All multi-bit fields are written most-significant-bit first so the byte
stream is unambiguous and independent of host endianness.
"""

from __future__ import annotations

import struct

import numpy as np

from hoacodec.errors import StreamError


# row n keeps the last n bits of a 16-bit row
_KEEP_LAST = np.arange(16) >= 16 - np.arange(17)[:, None]
_KEEP_LAST.setflags(write=False)


class BitWriter:
    """Accumulates bits MSB-first and flushes them into a bytearray."""

    def __init__(self):
        self._buf = bytearray()
        self._acc = 0
        self._nacc = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits < 0 or value < 0 or value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        acc = (self._acc << nbits) | int(value)
        full, self._nacc = divmod(self._nacc + nbits, 8)
        if full:
            self._buf += (acc >> self._nacc).to_bytes(full, "big")
        self._acc = acc & ((1 << self._nacc) - 1)

    def write_flag(self, flag: bool) -> None:
        self.write(1 if flag else 0, 1)

    def write_ue(self, value: int) -> None:
        """Unsigned Exp-Golomb: zero-prefixed binary of value+1."""
        if value < 0:
            raise ValueError("write_ue needs a non-negative value")
        v = value + 1
        nb = v.bit_length()
        self.write(0, nb - 1)
        self.write(v, nb)

    def write_se(self, value: int) -> None:
        """Signed Exp-Golomb via the usual zigzag map."""
        self.write_ue(2 * value - 1 if value > 0 else -2 * value)

    def write_f64(self, value: float) -> None:
        self.write(int.from_bytes(struct.pack(">d", value), "big"), 64)

    def write_f64_array(self, values) -> None:
        """Write ``values`` row-major as big-endian float64, the bits of one
        :meth:`write_f64` per value, as one field."""
        data = np.ascontiguousarray(values, dtype=">f8").tobytes()
        self.write(int.from_bytes(data, "big"), 8 * len(data))

    def write_fields(self, values: np.ndarray, lengths: np.ndarray) -> None:
        """Write ``values[i]`` in ``lengths[i]`` bits for every i, the bits of
        one :meth:`write` per field: fields longer than 16 bits are split into
        16-bit pieces, high piece first, the pieces unpacked into a
        (pieces, 16) bit matrix, and the last ``length`` bits of each row
        packed behind the pending bits and appended as bytes."""
        values = np.asarray(values, dtype=np.uint64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if np.any((lengths < 0) | (lengths > 64)) or np.any(
            (lengths < 64) & (values >> np.minimum(lengths, 63).astype(np.uint64) != 0)
        ):
            raise ValueError("a value does not fit in its field")
        if lengths.size and lengths.max() > 16:
            parts = np.maximum((lengths + 15) >> 4, 1)
            ends = np.cumsum(parts)
            # 16 x the pieces after each one in its field
            shift = 16 * (np.repeat(ends, parts) - 1 - np.arange(ends[-1]))
            lengths = np.minimum(np.repeat(lengths, parts) - shift, 16)
            values = (np.repeat(values, parts) >> shift.astype(np.uint64)) & np.uint64(0xFFFF)
        # the pending bits lead as one more piece
        pieces = np.empty(values.size + 1, dtype=">u2")
        pieces[0], pieces[1:] = self._acc, values
        lengths = np.concatenate(([self._nacc], lengths))
        matrix = np.unpackbits(pieces.view(np.uint8).reshape(-1, 2), axis=1)
        bits = matrix[np.take(_KEEP_LAST, lengths, axis=0)]
        packed = np.packbits(bits)
        self._nacc = bits.size % 8
        self._acc = int(packed[-1]) >> (8 - self._nacc) if self._nacc else 0
        self._buf += packed[: bits.size // 8].tobytes()

    def write_bytes(self, data: bytes) -> None:
        for b in data:
            self.write(b, 8)

    @property
    def bit_length(self) -> int:
        return 8 * len(self._buf) + self._nacc

    def getvalue(self) -> bytes:
        """Byte-align with zero padding and return the buffer."""
        if self._nacc:
            pad = 8 - self._nacc
            self.write(0, pad)
        return bytes(self._buf)


class BitReader:
    """Reads MSB-first bit fields from a bytes object."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0  # in bits

    def read(self, nbits: int) -> int:
        pos = self._pos
        end = pos + nbits
        if end > 8 * len(self._data):
            raise StreamError("bitstream exhausted")
        self._pos = end
        # the bytes the field touches, as one integer, less the bits after it
        chunk = int.from_bytes(self._data[pos >> 3 : (end + 7) >> 3], "big")
        return (chunk >> (-end % 8)) & ((1 << nbits) - 1)

    def read_flag(self) -> bool:
        return bool(self.read(1))

    def peek(self, nbits: int) -> int:
        """Read without consuming; bits past the end are zero-padded."""
        save = self._pos
        avail = 8 * len(self._data) - save
        if avail >= nbits:
            value = self.read(nbits)
        else:
            value = self.read(avail) << (nbits - avail) if avail > 0 else 0
        self._pos = save
        return value

    def skip(self, nbits: int) -> None:
        if self._pos + nbits > 8 * len(self._data):
            raise StreamError("bitstream exhausted")
        self._pos += nbits

    def read_ue(self) -> int:
        zeros = 0
        while not self.read(1):
            zeros += 1
            if zeros > 64:
                raise StreamError("malformed Exp-Golomb code")
        v = 1 << zeros
        if zeros:
            v |= self.read(zeros)
        return v - 1

    def read_se(self) -> int:
        u = self.read_ue()
        return (u + 1) // 2 if u % 2 else -(u // 2)

    def read_f64(self) -> float:
        return struct.unpack(">d", self.read(64).to_bytes(8, "big"))[0]

    def read_f64_array(self, shape) -> np.ndarray:
        """Read ``prod(shape)`` big-endian float64 values, what
        :meth:`BitWriter.write_f64_array` writes, as one field."""
        nbytes = 8 * int(np.prod(shape))
        data = self.read(8 * nbytes).to_bytes(nbytes, "big")
        return np.frombuffer(data, ">f8").astype(np.float64).reshape(shape)

    def read_bytes(self, n: int) -> bytes:
        return bytes(self.read(8) for _ in range(n))

    @property
    def data(self) -> bytes:
        return self._data

    @property
    def bit_position(self) -> int:
        return self._pos

    @bit_position.setter
    def bit_position(self, pos: int) -> None:
        if not 0 <= pos <= 8 * len(self._data):
            raise StreamError("bitstream exhausted")
        self._pos = pos

