"""Bit-level reading and field widths for the Skip-index encodings.

The paper's metadata fields have data-dependent bit widths
(``log2(|DescTag_parent|)`` bits for a tag code, ``log2(SubtreeSize_
parent)`` bits for a size) and "need be aligned on a byte frontier" per
element.  :class:`BitReader` reads exactly that: fixed-width big-endian
bit fields, byte alignment, varints and raw bytes.  The encoder packs
each byte-aligned item header into one integer instead of writing it
bit by bit, so only the varint helpers are shared on the write side.
"""

from __future__ import annotations

from typing import Iterable


def bits_for(n: int) -> int:
    """Bits needed to represent values in ``[0, n]`` (0 when n == 0).

    This is the paper's ``ceil(log2(.))`` with the convention that a
    field over a singleton domain occupies no bits at all.
    """
    if n <= 0:
        return 0
    return n.bit_length()


def bits_for_count(count: int) -> int:
    """Bits needed to index one of ``count`` values (0 for count <= 1)."""
    if count <= 1:
        return 0
    return (count - 1).bit_length()


def varint_size(value: int) -> int:
    """Bytes of the LEB128 varint encoding ``value``."""
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


def put_varint(out: bytearray, value: int) -> None:
    """Append ``value`` as a LEB128 unsigned varint (``ValueError`` if
    negative)."""
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def put_varints(out: bytearray, values: Iterable[int]) -> None:
    """:func:`put_varint` for each of ``values``, in one loop."""
    append = out.append
    for value in values:
        while value >= 0x80:
            append((value & 0x7F) | 0x80)
            value >>= 7
        append(value)


class BitReader:
    """Big-endian bit stream reader over a bytes-like object."""

    def __init__(self, data: bytes, offset: int = 0):
        self._data = data
        self._byte_pos = offset
        self._bit_pos = 0

    def read_bits(self, width: int) -> int:
        if width < 0:
            raise ValueError("negative width")
        value = 0
        remaining = width
        while remaining > 0:
            if self._byte_pos >= len(self._data):
                raise EOFError("bit stream exhausted")
            free = 8 - self._bit_pos
            take = min(free, remaining)
            byte = self._data[self._byte_pos]
            chunk = (byte >> (free - take)) & ((1 << take) - 1)
            value = (value << take) | chunk
            self._bit_pos += take
            if self._bit_pos == 8:
                self._bit_pos = 0
                self._byte_pos += 1
            remaining -= take
        return value

    def read_bit(self) -> int:
        return self.read_bits(1)

    def align(self) -> None:
        if self._bit_pos:
            self._bit_pos = 0
            self._byte_pos += 1

    def read_bytes(self, count: int) -> bytes:
        self.align()
        end = self._byte_pos + count
        if end > len(self._data):
            raise EOFError("byte stream exhausted")
        chunk = self._data[self._byte_pos : end]
        self._byte_pos = end
        return bytes(chunk)

    def read_varint(self) -> int:
        self.align()
        shift = 0
        value = 0
        while True:
            if self._byte_pos >= len(self._data):
                raise EOFError("varint exhausted")
            byte = self._data[self._byte_pos]
            self._byte_pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def tell(self) -> int:
        """Byte offset of the next aligned read."""
        return self._byte_pos + (1 if self._bit_pos else 0)

    def seek(self, offset: int) -> None:
        self._byte_pos = offset
        self._bit_pos = 0

    def exhausted(self, end: int) -> bool:
        """True if the aligned position reached ``end``."""
        return self.tell() >= end
