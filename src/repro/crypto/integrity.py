"""Confidentiality + integrity schemes compared in Fig. 11.

Four ways of protecting the encoded document at the untrusted terminal:

* **ECB** — position-XOR ECB encryption only: confidentiality without
  tamper resistance (the baseline of Fig. 11);
* **CBC-SHA** — CBC encryption + SHA-1 digest of each chunk's
  *plaintext*: the direct state-of-the-art combination.  Any access
  forces the SOE to transfer and decrypt the whole chunk to recompute
  the digest;
* **CBC-SHAC** — same, but the digest covers the *ciphertext*: the SOE
  still transfers the whole chunk but only decrypts the blocks it
  needs;
* **ECB-MHT** — the paper's proposal: position-XOR ECB + a Merkle hash
  tree over the chunk's fragments (hashing the ciphertext).  The SOE
  transfers only the fragments it reads plus the sibling hashes the
  terminal computes, recombines the root and checks it against the
  encrypted ChunkDigest.

All schemes expose the same interface: :meth:`BaseScheme.protect` turns
an encoded plaintext into a :class:`SecureDocument` (what the terminal
stores) and :meth:`BaseScheme.reader` opens an SOE-side random-access
reader that decrypts, verifies and charges every primitive cost to a
:class:`~repro.metrics.Meter`.  :class:`SecureBytes` adapts a reader to
the bytes-like interface the Skip-index decoder expects, so the whole
pipeline (decrypt -> verify -> decode -> evaluate) composes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.compute import xtea_cipher
from repro.crypto.chunks import ChunkLayout
from repro.crypto.merkle import HASH_SIZE, MerkleTree, sha1, verify_with_siblings
from repro.crypto.modes import (
    decrypt_cbc,
    decrypt_positioned,
    encrypt_cbc,
    encrypt_cbc_chunked,
    encrypt_positioned,
    make_iv,
    versioned_position,
)
from repro.metrics import Meter


class IntegrityError(Exception):
    """Raised when tampering is detected."""


class SecureDocument:
    """One protected document: chunk records (digest + payload).

    ``stored`` is what the untrusted terminal holds and may tamper
    with.  ``version`` / ``chunk_versions`` are *trusted* metadata that
    travel with the document key over the secure channel (Section 2):
    the document-level update counter and, per chunk, the version it
    was last (re-)encrypted under.  Both feed the position/MAC
    derivation, so a chunk record captured before an update no longer
    verifies once the chunk has been re-encrypted — the cross-version
    replay the original scheme could not detect.
    """

    def __init__(
        self,
        scheme: "BaseScheme",
        stored: bytes,
        plaintext_size: int,
        version: int = 0,
        chunk_versions: Optional[List[int]] = None,
    ):
        self.scheme = scheme
        if isinstance(stored, (bytes, bytearray, memoryview)):
            stored = bytearray(stored)  # mutable so tests can tamper
        # Anything else is a store pager (len + contiguous slicing):
        # keep it as-is so chunk records page in from disk on demand.
        self.stored = stored
        self.plaintext_size = plaintext_size
        self.layout = scheme.layout
        self.version = version
        if chunk_versions is None:
            chunk_versions = [version] * self.layout.chunk_count(plaintext_size)
        self.chunk_versions = list(chunk_versions)

    def chunk_version(self, chunk_index: int) -> int:
        """Version chunk ``chunk_index`` was last encrypted under."""
        if 0 <= chunk_index < len(self.chunk_versions):
            return self.chunk_versions[chunk_index]
        return self.version

    def stored_size(self) -> int:
        return len(self.stored)

    def record(self, chunk_index: int) -> bytes:
        """The stored bytes of one chunk record.

        Every record is a full digest header + chunk, except the last:
        it stops at the block holding the document's last plaintext
        byte, or is full too if it was written before tails were
        trimmed.  A stored size that fits neither raises."""
        layout = self.layout
        header = layout.digest_size if self.scheme.has_digest else 0
        full = header + layout.chunk_size
        last = layout.chunk_count(self.plaintext_size) - 1
        tail = len(self.stored) - last * full
        if tail != full and tail != header + layout.payload_size(
            last, self.plaintext_size
        ):
            raise IntegrityError(
                "stored size %d does not fit %d chunk records"
                % (len(self.stored), last + 1)
            )
        return bytes(self.stored[chunk_index * full : (chunk_index + 1) * full])

    def chunk_record(self, chunk_index: int) -> Tuple[bytes, bytes]:
        """(digest header, encrypted payload) of one chunk record."""
        record = self.record(chunk_index)
        digest_size = self.layout.digest_size if self.scheme.has_digest else 0
        return record[:digest_size], record[digest_size:]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SecureDocument(%s, %d bytes stored)" % (
            self.scheme.name,
            len(self.stored),
        )


class BaseScheme:
    """Common machinery: chunking, digest encryption, reader factory.

    Every scheme encrypts under XTEA on the implementation
    :func:`~repro.compute.xtea_cipher` picks; ``key`` is the cipher key
    the chunk records are encrypted under, which a persistent store
    records to rebuild the scheme.
    """

    name = "base"
    has_digest = True
    #: The :class:`BaseReader` subclass :meth:`reader` opens.
    reader_class: type

    def __init__(
        self,
        key: bytes = b"\x00" * 16,
        layout: Optional[ChunkLayout] = None,
    ):
        self.key = key
        self.cipher = xtea_cipher(key)
        self.layout = layout if layout is not None else ChunkLayout()
        if self.cipher.block_size != self.layout.block_size:
            raise ValueError("cipher block size does not match the layout")

    # -- scheme-specific hooks -----------------------------------------
    def _encrypt_chunk(self, chunk: bytes, chunk_index: int, version: int = 0) -> bytes:
        raise NotImplementedError

    def _digest_input(self, plaintext_chunk: bytes, cipher_chunk: bytes) -> bytes:
        raise NotImplementedError

    # -- digest encryption (shared) ------------------------------------
    def _encrypt_digest(
        self, digest: bytes, chunk_index: int, version: int = 0
    ) -> bytes:
        padded = digest + b"\x00" * (self.layout.digest_size - len(digest))
        # A distinct position space (high bit set) keeps digest blocks
        # unlinkable to payload blocks; the version folds in below it,
        # binding each digest record to the update that produced it.
        position = versioned_position(
            (1 << 62) + chunk_index * self.layout.digest_size, version
        )
        return encrypt_positioned(self.cipher, padded, position)

    def _decrypt_digest(
        self, encrypted: bytes, chunk_index: int, version: int = 0
    ) -> bytes:
        position = versioned_position(
            (1 << 62) + chunk_index * self.layout.digest_size, version
        )
        return decrypt_positioned(self.cipher, encrypted, position)[:HASH_SIZE]

    # -- public API -------------------------------------------------------
    def protect(self, plaintext: bytes, version: int = 0) -> SecureDocument:
        """Encrypt (and digest) ``plaintext`` for storage at the terminal."""
        layout = self.layout
        stored = bytearray()
        count = layout.chunk_count(len(plaintext))
        for record in self._chunk_records(plaintext, range(count), version):
            stored.extend(record)
        return SecureDocument(self, bytes(stored), len(plaintext), version=version)

    def record_stream(self, plaintext: bytes, version: int = 0):
        """Yield the document's stored chunk records in order, without
        materializing the concatenated ciphertext — the streaming
        publish path of a disk store buffers at most one log segment of
        these at a time."""
        count = self.layout.chunk_count(len(plaintext))
        return self._chunk_records(plaintext, range(count), version)

    def _chunk_records(self, plaintext: bytes, indexes, version: int):
        """Yield the stored records for ``indexes``, in order.

        The batching hook behind :meth:`protect` and
        :meth:`record_stream`: schemes whose chunk records are
        independent may override it to vectorize across chunks (the CBC
        schemes do).
        """
        for chunk_index in indexes:
            yield self._chunk_record(plaintext, chunk_index, version)

    def _chunk_record(self, plaintext: bytes, chunk_index: int, version: int) -> bytes:
        """One stored chunk record ([digest header +] encrypted payload).

        The chunk is encrypted zero-padded to full size, but only
        :meth:`ChunkLayout.payload_size` bytes of it are stored; the
        CBC-SHAC and ECB-MHT digests cover exactly those bytes."""
        layout = self.layout
        start, end = layout.chunk_range(chunk_index, len(plaintext))
        chunk = layout.pad_chunk(plaintext[start:end])
        cipher_chunk = self._encrypt_chunk(chunk, chunk_index, version)[
            : layout.payload_size(chunk_index, len(plaintext))
        ]
        if not self.has_digest:
            return cipher_chunk
        digest = self._chunk_digest(chunk, cipher_chunk)
        return self._encrypt_digest(digest, chunk_index, version) + cipher_chunk

    def reencrypt(
        self,
        document: SecureDocument,
        new_plaintext: bytes,
        dirty_chunks: Set[int],
        version: int,
    ) -> Tuple[SecureDocument, int]:
        """Copy-on-write update: rebuild only the dirty chunk records.

        Returns ``(new document, chunks re-encrypted)``.  The input
        ``document`` is left byte-for-byte untouched, so in-flight
        readers holding it finish against a consistent pre-update
        snapshot.  Dirty chunks (plus any chunk the new plaintext adds
        beyond the old chunk count) are re-encrypted under ``version``;
        clean chunk records are shared as-is and keep their recorded
        versions, so the whole store stays verifiable chunk by chunk.
        The caller is responsible for ``dirty_chunks`` covering every
        byte range that actually changed; a size change therefore
        dirties every record whose trimmed length changes.
        """
        layout = self.layout
        record = (layout.digest_size if self.has_digest else 0) + layout.chunk_size
        old_count = layout.chunk_count(document.plaintext_size)
        new_count = layout.chunk_count(len(new_plaintext))
        keep = min(old_count, new_count)
        kept = document.stored[: keep * record]
        versions = list(document.chunk_versions[:keep])
        versions.extend([version] * (new_count - keep))
        dirty = {index for index in dirty_chunks if 0 <= index < new_count}
        dirty.update(range(keep, new_count))
        order = sorted(dirty)
        fresh = dict(zip(order, self._chunk_records(new_plaintext, order, version)))
        for chunk_index in order:
            versions[chunk_index] = version
        updated = SecureDocument(
            self,
            b"".join(
                fresh[index]
                if index in fresh
                else kept[index * record : (index + 1) * record]
                for index in range(new_count)
            ),
            len(new_plaintext),
            version=version,
            chunk_versions=versions,
        )
        return updated, len(dirty)

    def _chunk_digest(self, plaintext_chunk: bytes, cipher_chunk: bytes) -> bytes:
        return sha1(self._digest_input(plaintext_chunk, cipher_chunk))

    def reader(self, document: SecureDocument, meter: Optional[Meter] = None):
        """An SOE-side reader over ``document`` charging ``meter``."""
        if meter is None:
            meter = Meter()
        return self.reader_class(self, document, meter)


class _ChunkCache:
    """Single-chunk SOE cache (the SOE RAM holds one chunk at a time;
    non-contiguous accesses re-pay the chunk work, as in the paper's
    worst case of one digest per visited chunk).  ``cipher_chunk`` is
    the chunk's encrypted payload, fetched from the store once, on
    first touch."""

    def __init__(self):
        self.chunk_index: Optional[int] = None
        self.plain: Optional[bytearray] = None
        self.have_blocks: Set[int] = set()
        self.have_fragments: Set[int] = set()
        self.cipher_chunk: Optional[bytes] = None
        self.digest: Optional[bytes] = None

    def switch_to(self, chunk_index: int) -> bool:
        """Focus the cache on ``chunk_index``; True if it was a miss."""
        if self.chunk_index == chunk_index:
            return False
        self.chunk_index = chunk_index
        self.plain = None
        self.have_blocks = set()
        self.have_fragments = set()
        self.cipher_chunk = None
        self.digest = None
        return True


class BaseReader:
    """SOE-side random-access reader.

    The reader owns the cursor (:meth:`read` walks the chunks a range
    covers), the single-chunk cache and the loop that decrypts a
    range's missing blocks as contiguous runs.  A scheme supplies only
    ``_prepare_chunk`` (the chunk-granularity work on first touch) and
    ``_decrypt_run`` (how one run of blocks decrypts).
    """

    def __init__(self, scheme: BaseScheme, document: SecureDocument, meter: Meter):
        self.scheme = scheme
        self.document = document
        self.meter = meter
        self.layout = scheme.layout
        self.cache = _ChunkCache()

    # ------------------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        """Plaintext bytes ``[offset, offset+length)``, decrypted and
        verified; every primitive cost is charged to the meter."""
        if length <= 0:
            return b""
        end = min(offset + length, self.document.plaintext_size)
        if offset >= end:
            return b""
        out = bytearray()
        layout = self.layout
        for chunk_index in layout.chunks_covering(offset, end - offset):
            chunk_start, chunk_end = layout.chunk_range(
                chunk_index, self.document.plaintext_size
            )
            lo = max(offset, chunk_start) - chunk_start
            hi = min(end, chunk_end) - chunk_start
            if self.cache.switch_to(chunk_index):
                self.meter.chunks_accessed += 1
                self._prepare_chunk(chunk_index)
            self._ensure_range(chunk_index, lo, hi)
            assert self.cache.plain is not None
            out.extend(self.cache.plain[lo:hi])
        return bytes(out)

    def _ensure_range(self, chunk_index: int, lo: int, hi: int) -> None:
        """Make plaintext bytes ``[lo, hi)`` of the chunk available:
        decrypt the blocks not cached yet, one ``_decrypt_run`` call per
        contiguous run instead of one per 8-byte block."""
        block = self.layout.block_size
        have = self.cache.have_blocks
        plain = self.cache.plain
        index = lo // block
        last = (hi - 1) // block
        while index <= last:
            if index in have:
                index += 1
                continue
            first = index
            while index <= last and index not in have:
                index += 1
            run = self._decrypt_run(chunk_index, first, index)
            self.meter.bytes_decrypted += len(run)
            plain[first * block : index * block] = run
            have.update(range(first, index))

    def _cipher_run(self, first: int, end: int) -> bytes:
        """The open chunk's ciphertext blocks ``[first, end)``."""
        block = self.layout.block_size
        return self.cache.cipher_chunk[first * block : end * block]

    # -- hooks ----------------------------------------------------------
    def _prepare_chunk(self, chunk_index: int) -> None:
        """Chunk-granularity work on first touch (transfer/verify)."""
        raise NotImplementedError

    def _decrypt_run(self, chunk_index: int, first: int, end: int) -> bytes:
        """Plaintext of blocks ``[first, end)`` of the open chunk."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# ECB: confidentiality only
# ----------------------------------------------------------------------
class _EcbReader(BaseReader):
    def _prepare_chunk(self, chunk_index: int) -> None:
        _digest, self.cache.cipher_chunk = self.document.chunk_record(chunk_index)
        self.cache.plain = bytearray(self.layout.chunk_size)

    def _decrypt_run(self, chunk_index: int, first: int, end: int) -> bytes:
        # Without a digest nothing is transferred up front: each run
        # enters the SOE when it is read.
        run = self._cipher_run(first, end)
        self.meter.bytes_transferred += len(run)
        return self._decrypt_positioned(chunk_index, first, run)

    def _decrypt_positioned(self, chunk_index: int, first: int, run: bytes) -> bytes:
        """Any run of position-XOR ECB blocks decrypts on its own."""
        layout = self.layout
        base = versioned_position(
            chunk_index * layout.chunk_size,
            self.document.chunk_version(chunk_index),
        )
        return decrypt_positioned(
            self.scheme.cipher, run, base + first * layout.block_size
        )


class EcbScheme(BaseScheme):
    """Position-XOR ECB without integrity (Fig. 11's 'ECB')."""

    name = "ECB"
    has_digest = False
    reader_class = _EcbReader

    def _encrypt_chunk(self, chunk: bytes, chunk_index: int, version: int = 0) -> bytes:
        return encrypt_positioned(
            self.cipher,
            chunk,
            versioned_position(chunk_index * self.layout.chunk_size, version),
        )


class _CbcChunkedProtect:
    """Vectorized protect for the per-chunk CBC schemes.

    Each chunk is its own CBC chain (the IV comes from the versioned
    chunk position), so chains are independent and can run in lockstep
    through :func:`encrypt_cbc_chunked` — one vectorized cipher call
    per block *step* instead of one per block.  Byte-identical to the
    per-chunk form.
    """

    def _chunk_records(self, plaintext, indexes, version):
        indexes = list(indexes)
        layout = self.layout
        chunks = []
        for chunk_index in indexes:
            start, end = layout.chunk_range(chunk_index, len(plaintext))
            chunks.append(layout.pad_chunk(plaintext[start:end]))
        ivs = [
            make_iv(versioned_position(chunk_index, version))
            for chunk_index in indexes
        ]
        cipher_chunks = encrypt_cbc_chunked(self.cipher, chunks, ivs)
        for chunk_index, chunk, cipher_chunk in zip(indexes, chunks, cipher_chunks):
            cipher_chunk = cipher_chunk[
                : layout.payload_size(chunk_index, len(plaintext))
            ]
            digest = self._chunk_digest(chunk, cipher_chunk)
            yield self._encrypt_digest(digest, chunk_index, version) + cipher_chunk


# ----------------------------------------------------------------------
# CBC-SHA: CBC + digest over the plaintext chunk
# ----------------------------------------------------------------------
class _CbcShaReader(BaseReader):
    def _prepare_chunk(self, chunk_index: int) -> None:
        # The digest covers the plaintext, so the whole chunk is
        # decrypted on open and every block is then cached.
        layout = self.layout
        version = self.document.chunk_version(chunk_index)
        encrypted_digest, payload = self.document.chunk_record(chunk_index)
        self.meter.bytes_transferred += layout.digest_size + layout.chunk_size
        # A trimmed record's padding was never stored: zero-fill it back,
        # so the digest covers the same full plaintext chunk.
        plain = decrypt_cbc(
            self.scheme.cipher,
            payload,
            make_iv(versioned_position(chunk_index, version)),
        ).ljust(layout.chunk_size, b"\x00")
        self.meter.bytes_decrypted += layout.chunk_size
        self.meter.bytes_hashed += layout.chunk_size
        digest = self.scheme._decrypt_digest(encrypted_digest, chunk_index, version)
        self.meter.bytes_decrypted += layout.digest_size
        self.meter.digest_decrypts += 1
        if sha1(plain) != digest:
            raise IntegrityError("chunk %d digest mismatch" % chunk_index)
        self.cache.plain = bytearray(plain)
        self.cache.have_blocks = set(range(layout.chunk_size // layout.block_size))


class CbcShaScheme(_CbcChunkedProtect, BaseScheme):
    """CBC encryption, SHA-1 of the *plaintext* chunk (Fig. 11's
    'CBC-SHA'): every access costs a full chunk transfer + decrypt +
    hash."""

    name = "CBC-SHA"
    reader_class = _CbcShaReader

    def _encrypt_chunk(self, chunk: bytes, chunk_index: int, version: int = 0) -> bytes:
        return encrypt_cbc(
            self.cipher, chunk, make_iv(versioned_position(chunk_index, version))
        )

    def _digest_input(self, plaintext_chunk: bytes, cipher_chunk: bytes) -> bytes:
        return plaintext_chunk


# ----------------------------------------------------------------------
# CBC-SHAC: CBC + digest over the ciphertext chunk
# ----------------------------------------------------------------------
class _CbcShacReader(BaseReader):
    def _prepare_chunk(self, chunk_index: int) -> None:
        layout = self.layout
        version = self.document.chunk_version(chunk_index)
        encrypted_digest, payload = self.document.chunk_record(chunk_index)
        self.meter.bytes_transferred += layout.digest_size + layout.chunk_size
        self.meter.bytes_hashed += layout.chunk_size
        digest = self.scheme._decrypt_digest(encrypted_digest, chunk_index, version)
        self.meter.bytes_decrypted += layout.digest_size
        self.meter.digest_decrypts += 1
        if sha1(payload) != digest:
            raise IntegrityError("chunk %d digest mismatch" % chunk_index)
        self.cache.cipher_chunk = payload
        self.cache.plain = bytearray(layout.chunk_size)

    def _decrypt_run(self, chunk_index: int, first: int, end: int) -> bytes:
        # A CBC run decrypts on its own given the ciphertext block
        # before it (the chunk IV for the first block).
        if first:
            iv = self._cipher_run(first - 1, first)
        else:
            version = self.document.chunk_version(chunk_index)
            iv = make_iv(versioned_position(chunk_index, version))
        return decrypt_cbc(self.scheme.cipher, self._cipher_run(first, end), iv)


class CbcShacScheme(_CbcChunkedProtect, BaseScheme):
    """CBC encryption, SHA-1 of the *ciphertext* chunk: the SOE checks
    integrity without decrypting the chunk (only the needed blocks)."""

    name = "CBC-SHAC"
    reader_class = _CbcShacReader

    def _encrypt_chunk(self, chunk: bytes, chunk_index: int, version: int = 0) -> bytes:
        return encrypt_cbc(
            self.cipher, chunk, make_iv(versioned_position(chunk_index, version))
        )

    def _digest_input(self, plaintext_chunk: bytes, cipher_chunk: bytes) -> bytes:
        return cipher_chunk


# ----------------------------------------------------------------------
# ECB-MHT: the paper's proposal
# ----------------------------------------------------------------------
class _EcbMhtReader(_EcbReader):
    def __init__(self, scheme, document, meter):
        super().__init__(scheme, document, meter)
        self._tree_cache: Dict[int, MerkleTree] = {}

    def _terminal_tree(self, chunk_index: int, payload: bytes) -> MerkleTree:
        """The terminal's Merkle tree for a chunk (untrusted side; built
        over the ciphertext ``payload`` it stores)."""
        tree = self._tree_cache.get(chunk_index)
        if tree is None:
            tree = MerkleTree(self.layout.split_fragments(payload))
            self._tree_cache[chunk_index] = tree
        return tree

    def _prepare_chunk(self, chunk_index: int) -> None:
        layout = self.layout
        encrypted_digest, self.cache.cipher_chunk = self.document.chunk_record(
            chunk_index
        )
        self.meter.bytes_transferred += layout.digest_size
        self.cache.digest = self.scheme._decrypt_digest(
            encrypted_digest, chunk_index, self.document.chunk_version(chunk_index)
        )
        self.meter.bytes_decrypted += layout.digest_size
        self.meter.digest_decrypts += 1
        self.cache.plain = bytearray(layout.chunk_size)

    def _ensure_range(self, chunk_index: int, lo: int, hi: int) -> None:
        # Transfer and verify the range's fragments not seen yet, then
        # decrypt its blocks.
        layout = self.layout
        needed_fragments = [
            f
            for f in layout.fragments_covering(lo, hi - lo)
            if f not in self.cache.have_fragments
        ]
        payload = self.cache.cipher_chunk
        if needed_fragments:
            fragment_size = layout.fragment_size
            fragments: Dict[int, bytes] = {}
            for f in needed_fragments:
                data = payload[f * fragment_size : (f + 1) * fragment_size]
                fragments[f] = data
                self.meter.bytes_transferred += fragment_size
                self.meter.bytes_hashed += fragment_size
            siblings = self._terminal_tree(chunk_index, payload).sibling_hashes(
                needed_fragments
            )
            self.meter.bytes_transferred += HASH_SIZE * len(siblings)
            ok, recombinations = verify_with_siblings(
                layout.fragments_per_chunk,
                fragments,
                siblings,
                self.cache.digest,
            )
            self.meter.hash_nodes += recombinations
            if not ok:
                raise IntegrityError(
                    "chunk %d Merkle verification failed" % chunk_index
                )
            self.cache.have_fragments.update(needed_fragments)
        super()._ensure_range(chunk_index, lo, hi)

    def _decrypt_run(self, chunk_index: int, first: int, end: int) -> bytes:
        # The transfer was already charged per fragment.
        run = self._cipher_run(first, end)
        return self._decrypt_positioned(chunk_index, first, run)


class EcbMhtScheme(BaseScheme):
    """Position-XOR ECB + Merkle hash tree per chunk (Fig. 11's
    'ECB-MHT'): only the touched fragments enter the SOE; the terminal
    cooperates by sending sibling hashes (Fig. F1)."""

    name = "ECB-MHT"
    reader_class = _EcbMhtReader

    def _encrypt_chunk(self, chunk: bytes, chunk_index: int, version: int = 0) -> bytes:
        return encrypt_positioned(
            self.cipher,
            chunk,
            versioned_position(chunk_index * self.layout.chunk_size, version),
        )

    def _digest_input(self, plaintext_chunk: bytes, cipher_chunk: bytes) -> bytes:
        raise NotImplementedError  # the digest is the Merkle root instead

    def _chunk_digest(self, plaintext_chunk: bytes, cipher_chunk: bytes) -> bytes:
        tree = MerkleTree(self.layout.split_fragments(cipher_chunk))
        return tree.root


# ----------------------------------------------------------------------
# Bytes-like adapter for the Skip-index decoder
# ----------------------------------------------------------------------
class SecureBytes:
    """Random-access bytes view over a scheme reader.

    Supports ``len``, integer indexing and slicing — exactly what the
    Skip-index :class:`~repro.skipindex.bitio.BitReader` needs.  Every
    access flows through the scheme's decrypt-and-verify path, so costs
    and integrity checks apply transparently to the decoding pipeline.
    """

    def __init__(self, reader: BaseReader):
        self._reader = reader
        self._size = reader.document.plaintext_size

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, item):
        if isinstance(item, slice):
            start, stop, step = item.indices(self._size)
            if step != 1:
                raise ValueError("SecureBytes slices must be contiguous")
            return self._reader.read(start, stop - start)
        if item < 0:
            item += self._size
        data = self._reader.read(item, 1)
        if not data:
            raise IndexError("SecureBytes index out of range")
        return data[0]


SCHEMES = {
    "ECB": EcbScheme,
    "CBC-SHA": CbcShaScheme,
    "CBC-SHAC": CbcShacScheme,
    "ECB-MHT": EcbMhtScheme,
}


def make_scheme(
    name: str,
    key: bytes = b"\x00" * 16,
    layout: Optional[ChunkLayout] = None,
) -> BaseScheme:
    """Factory by Fig. 11 scheme name."""
    try:
        cls = SCHEMES[name]
    except KeyError:
        raise ValueError(
            "unknown scheme %r (expected one of %s)" % (name, sorted(SCHEMES))
        )
    return cls(key=key, layout=layout)
