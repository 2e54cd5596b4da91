"""Chunk / fragment / block layout (Appendix A).

"We consider an XML document of any size, split in chunks (e.g., 2 KB),
divided in small fragments (e.g., 256 bytes), and in turn subdivided in
blocks of 8 bytes.  The chunk partition is required to make the
integrity checking compatible with the memory capacity of the SOE,
fragments are introduced to allow random accesses inside a chunk and
the block is the unit of encryption."
"""

from __future__ import annotations

from typing import Iterator, List, Tuple


class ChunkLayout:
    """Geometry of the protected document.

    All sizes are bytes; ``chunk_size`` must be a multiple of
    ``fragment_size`` (a power-of-two multiple so fragments form a
    complete Merkle tree) and ``fragment_size`` a multiple of
    ``block_size``.
    """

    def __init__(
        self,
        chunk_size: int = 2048,
        fragment_size: int = 256,
        block_size: int = 8,
        digest_size: int = 24,
    ):
        if chunk_size % fragment_size:
            raise ValueError("chunk size must be a multiple of the fragment size")
        if fragment_size % block_size:
            raise ValueError("fragment size must be a multiple of the block size")
        fragments = chunk_size // fragment_size
        if fragments & (fragments - 1):
            raise ValueError("fragments per chunk must be a power of two")
        if digest_size % block_size:
            raise ValueError("digest size must be a multiple of the block size")
        self.chunk_size = chunk_size
        self.fragment_size = fragment_size
        self.block_size = block_size
        self.digest_size = digest_size  # encrypted ChunkDigest (SHA-1 padded)
        self.fragments_per_chunk = fragments
        self.blocks_per_chunk = chunk_size // block_size

    # ------------------------------------------------------------------
    def chunk_count(self, plaintext_size: int) -> int:
        if plaintext_size == 0:
            return 0
        return (plaintext_size + self.chunk_size - 1) // self.chunk_size

    def chunk_of(self, offset: int) -> int:
        return offset // self.chunk_size

    def fragment_of(self, offset_in_chunk: int) -> int:
        return offset_in_chunk // self.fragment_size

    def chunk_range(self, chunk_index: int, plaintext_size: int) -> Tuple[int, int]:
        """Plaintext byte range ``[start, end)`` covered by the chunk."""
        start = chunk_index * self.chunk_size
        end = min(start + self.chunk_size, plaintext_size)
        return start, end

    def chunks_covering(self, offset: int, length: int) -> Iterator[int]:
        """Chunk indexes intersecting ``[offset, offset + length)``."""
        if length <= 0:
            return
        first = self.chunk_of(offset)
        last = self.chunk_of(offset + length - 1)
        yield from range(first, last + 1)

    def fragments_covering(
        self, start_in_chunk: int, length: int
    ) -> Iterator[int]:
        """Fragment indexes (within one chunk) intersecting the range."""
        if length <= 0:
            return
        first = self.fragment_of(start_in_chunk)
        last = self.fragment_of(start_in_chunk + length - 1)
        yield from range(first, min(last, self.fragments_per_chunk - 1) + 1)

    # ------------------------------------------------------------------
    def stored_chunk_size(self) -> int:
        """Bytes a full chunk occupies at the terminal (digest header +
        encrypted payload)."""
        return self.digest_size + self.chunk_size

    def payload_size(self, chunk_index: int, plaintext_size: int) -> int:
        """Encrypted payload bytes stored for the chunk: its plaintext up
        to the block holding its last byte.  Only a last chunk is short;
        its zero padding is encrypted but never stored."""
        start, end = self.chunk_range(chunk_index, plaintext_size)
        return -((start - end) // self.block_size) * self.block_size

    def pad_chunk(self, data: bytes) -> bytes:
        """Zero-pad a (possibly last, short) chunk to the full size."""
        if len(data) > self.chunk_size:
            raise ValueError("chunk payload too large")
        if len(data) == self.chunk_size:
            return data
        return data + b"\x00" * (self.chunk_size - len(data))

    def split_fragments(self, chunk: bytes) -> List[bytes]:
        """The chunk's ``fragments_per_chunk`` fragments; past the end of
        a trimmed last chunk they are short or empty."""
        if len(chunk) > self.chunk_size:
            raise ValueError("fragment split of an oversize chunk")
        size = self.fragment_size
        return [chunk[i : i + size] for i in range(0, self.chunk_size, size)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ChunkLayout(chunk=%d, fragment=%d, block=%d)" % (
            self.chunk_size,
            self.fragment_size,
            self.block_size,
        )
