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

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.crypto.chunks import ChunkLayout
from repro.crypto.des import Des, TripleDes
from repro.crypto.merkle import HASH_SIZE, MerkleTree, sha1, verify_with_siblings
from repro.crypto.modes import (
    BlockCipher,
    NullCipher,
    decrypt_cbc,
    decrypt_positioned,
    encrypt_cbc,
    encrypt_cbc_chunked,
    encrypt_positioned,
    make_iv,
    versioned_position,
)
from repro.crypto.xtea import Xtea
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

    def chunk_record(self, chunk_index: int) -> Tuple[bytes, bytes]:
        """(digest header, encrypted payload) of one chunk record."""
        layout = self.layout
        digest_size = layout.digest_size if self.scheme.has_digest else 0
        record_size = digest_size + layout.chunk_size
        start = chunk_index * record_size
        record = bytes(self.stored[start : start + record_size])
        return record[:digest_size], record[digest_size:]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SecureDocument(%s, %d bytes stored)" % (
            self.scheme.name,
            len(self.stored),
        )


class BaseScheme:
    """Common machinery: chunking, digest encryption, reader factory."""

    name = "base"
    has_digest = True

    def __init__(
        self,
        key: bytes = b"\x00" * 16,
        cipher_factory: Callable[[bytes], BlockCipher] = Xtea,
        layout: Optional[ChunkLayout] = None,
        backend=None,
    ):
        self._key = key
        self._cipher_factory = cipher_factory
        if backend is not None:
            # The backend may swap the factory for an accelerated twin
            # (native kernels); output stays byte-identical.
            cipher_factory = backend.cipher_factory(cipher_factory)
        self.cipher = cipher_factory(key)
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
        """One stored chunk record ([digest header +] encrypted payload)."""
        layout = self.layout
        start, end = layout.chunk_range(chunk_index, len(plaintext))
        chunk = layout.pad_chunk(plaintext[start:end])
        cipher_chunk = self._encrypt_chunk(chunk, chunk_index, version)
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
        byte range that actually changed.
        """
        layout = self.layout
        record = (layout.digest_size if self.has_digest else 0) + layout.chunk_size
        old_count = layout.chunk_count(document.plaintext_size)
        new_count = layout.chunk_count(len(new_plaintext))
        keep = min(old_count, new_count)
        stored = bytearray(document.stored[: keep * record])
        stored.extend(b"\x00" * ((new_count - keep) * record))
        versions = list(document.chunk_versions[:keep])
        versions.extend([version] * (new_count - keep))
        dirty = {index for index in dirty_chunks if 0 <= index < new_count}
        dirty.update(range(keep, new_count))
        for chunk_index in sorted(dirty):
            start = chunk_index * record
            stored[start : start + record] = self._chunk_record(
                new_plaintext, chunk_index, version
            )
            versions[chunk_index] = version
        updated = SecureDocument(
            self,
            bytes(stored),
            len(new_plaintext),
            version=version,
            chunk_versions=versions,
        )
        return updated, len(dirty)

    def _chunk_digest(self, plaintext_chunk: bytes, cipher_chunk: bytes) -> bytes:
        return sha1(self._digest_input(plaintext_chunk, cipher_chunk))

    def reader(self, document: SecureDocument, meter: Optional[Meter] = None):
        raise NotImplementedError


class _ChunkCache:
    """Single-chunk SOE cache (the SOE RAM holds one chunk at a time;
    non-contiguous accesses re-pay the chunk work, as in the paper's
    worst case of one digest per visited chunk)."""

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
    """SOE-side random-access reader: scheme-specific per-chunk work is
    delegated to ``_prepare_chunk`` / ``_materialize_blocks``."""

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

    # -- hooks ----------------------------------------------------------
    def _prepare_chunk(self, chunk_index: int) -> None:
        """Chunk-granularity work on first touch (transfer/verify)."""
        raise NotImplementedError

    def _ensure_range(self, chunk_index: int, lo: int, hi: int) -> None:
        """Make plaintext bytes ``[lo, hi)`` of the chunk available."""
        raise NotImplementedError


def _decrypt_block_runs(
    cipher,
    payload: bytes,
    base_position: int,
    first: int,
    last: int,
    cache: _ChunkCache,
    meter: Meter,
    block: int,
    charge_transfer: bool = True,
) -> None:
    """Decrypt the not-yet-cached blocks in ``[first, last]`` as
    contiguous runs (one positioned-mode call per run instead of one
    per 8-byte block); charges are identical to the per-block form.

    ``charge_transfer=False`` for readers whose transfer was already
    charged at fragment granularity (ECB-MHT).
    """
    have = cache.have_blocks
    plain_buffer = cache.plain
    index = first
    while index <= last:
        if index in have:
            index += 1
            continue
        run_start = index
        while index <= last and index not in have:
            index += 1
        span = payload[run_start * block : index * block]
        if charge_transfer:
            meter.bytes_transferred += len(span)
        plain = decrypt_positioned(cipher, span, base_position + run_start * block)
        meter.bytes_decrypted += len(span)
        plain_buffer[run_start * block : index * block] = plain
        have.update(range(run_start, index))


# ----------------------------------------------------------------------
# ECB: confidentiality only
# ----------------------------------------------------------------------
class EcbScheme(BaseScheme):
    """Position-XOR ECB without integrity (Fig. 11's 'ECB')."""

    name = "ECB"
    has_digest = False

    def _encrypt_chunk(self, chunk: bytes, chunk_index: int, version: int = 0) -> bytes:
        return encrypt_positioned(
            self.cipher,
            chunk,
            versioned_position(chunk_index * self.layout.chunk_size, version),
        )

    def reader(self, document: SecureDocument, meter: Optional[Meter] = None):
        return _EcbReader(self, document, meter if meter is not None else Meter())


class _EcbReader(BaseReader):
    def _prepare_chunk(self, chunk_index: int) -> None:
        self.cache.plain = bytearray(self.layout.chunk_size)

    def _ensure_range(self, chunk_index: int, lo: int, hi: int) -> None:
        layout = self.layout
        block = layout.block_size
        _digest, payload = self.document.chunk_record(chunk_index)
        first = lo // block
        last = (hi - 1) // block
        base = versioned_position(
            chunk_index * layout.chunk_size,
            self.document.chunk_version(chunk_index),
        )
        _decrypt_block_runs(
            self.scheme.cipher,
            payload,
            base,
            first,
            last,
            self.cache,
            self.meter,
            block,
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
            digest = self._chunk_digest(chunk, cipher_chunk)
            yield self._encrypt_digest(digest, chunk_index, version) + cipher_chunk


# ----------------------------------------------------------------------
# CBC-SHA: CBC + digest over the plaintext chunk
# ----------------------------------------------------------------------
class CbcShaScheme(_CbcChunkedProtect, BaseScheme):
    """CBC encryption, SHA-1 of the *plaintext* chunk (Fig. 11's
    'CBC-SHA'): every access costs a full chunk transfer + decrypt +
    hash."""

    name = "CBC-SHA"

    def _encrypt_chunk(self, chunk: bytes, chunk_index: int, version: int = 0) -> bytes:
        return encrypt_cbc(
            self.cipher, chunk, make_iv(versioned_position(chunk_index, version))
        )

    def _digest_input(self, plaintext_chunk: bytes, cipher_chunk: bytes) -> bytes:
        return plaintext_chunk

    def reader(self, document: SecureDocument, meter: Optional[Meter] = None):
        return _CbcShaReader(self, document, meter if meter is not None else Meter())


class _CbcShaReader(BaseReader):
    def _prepare_chunk(self, chunk_index: int) -> None:
        layout = self.layout
        version = self.document.chunk_version(chunk_index)
        encrypted_digest, payload = self.document.chunk_record(chunk_index)
        self.meter.bytes_transferred += layout.digest_size + layout.chunk_size
        plain = decrypt_cbc(
            self.scheme.cipher,
            payload,
            make_iv(versioned_position(chunk_index, version)),
        )
        self.meter.bytes_decrypted += layout.chunk_size
        self.meter.bytes_hashed += layout.chunk_size
        digest = self.scheme._decrypt_digest(encrypted_digest, chunk_index, version)
        self.meter.bytes_decrypted += layout.digest_size
        self.meter.digest_decrypts += 1
        if sha1(plain) != digest:
            raise IntegrityError("chunk %d digest mismatch" % chunk_index)
        self.cache.plain = bytearray(plain)
        self.cache.have_blocks = set(range(layout.chunk_size // layout.block_size))

    def _ensure_range(self, chunk_index: int, lo: int, hi: int) -> None:
        pass  # the whole chunk was materialized in _prepare_chunk


# ----------------------------------------------------------------------
# CBC-SHAC: CBC + digest over the ciphertext chunk
# ----------------------------------------------------------------------
class CbcShacScheme(_CbcChunkedProtect, BaseScheme):
    """CBC encryption, SHA-1 of the *ciphertext* chunk: the SOE checks
    integrity without decrypting the chunk (only the needed blocks)."""

    name = "CBC-SHAC"

    def _encrypt_chunk(self, chunk: bytes, chunk_index: int, version: int = 0) -> bytes:
        return encrypt_cbc(
            self.cipher, chunk, make_iv(versioned_position(chunk_index, version))
        )

    def _digest_input(self, plaintext_chunk: bytes, cipher_chunk: bytes) -> bytes:
        return cipher_chunk

    def reader(self, document: SecureDocument, meter: Optional[Meter] = None):
        return _CbcShacReader(self, document, meter if meter is not None else Meter())


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

    def _ensure_range(self, chunk_index: int, lo: int, hi: int) -> None:
        layout = self.layout
        block = layout.block_size
        payload = self.cache.cipher_chunk
        assert payload is not None
        first = lo // block
        last = (hi - 1) // block
        for index in range(first, last + 1):
            if index in self.cache.have_blocks:
                continue
            previous = (
                make_iv(
                    versioned_position(
                        chunk_index, self.document.chunk_version(chunk_index)
                    )
                )
                if index == 0
                else payload[(index - 1) * block : index * block]
            )
            cipher_block = payload[index * block : (index + 1) * block]
            plain_block = self.scheme.cipher.decrypt_block(cipher_block)
            plain = (
                int.from_bytes(plain_block, "big") ^ int.from_bytes(previous, "big")
            ).to_bytes(block, "big")
            self.meter.bytes_decrypted += block
            self.cache.plain[index * block : (index + 1) * block] = plain
            self.cache.have_blocks.add(index)


# ----------------------------------------------------------------------
# CBC-SHA-DOC: one CBC chain over the whole document (compat variant)
# ----------------------------------------------------------------------
class CbcShaDocScheme(BaseScheme):
    """CBC-SHA with a single document-wide CBC chain.

    The per-chunk CBC schemes restart the chain at every chunk, which
    is what makes their encryption parallelizable; this variant keeps
    the classic whole-document chain — chunk ``i``'s IV is the last
    ciphertext block of chunk ``i-1`` — for interoperability with
    stores written that way.  The price is inherent: encryption is
    sequential and any update cascades re-encryption from the first
    dirty chunk to the end of the document.
    """

    name = "CBC-SHA-DOC"

    def _digest_input(self, plaintext_chunk: bytes, cipher_chunk: bytes) -> bytes:
        return plaintext_chunk

    def record_stream(self, plaintext: bytes, version: int = 0):
        count = self.layout.chunk_count(len(plaintext))
        previous = make_iv(versioned_position(0, version))
        return self._iter_records(plaintext, 0, count, version, previous)

    def _iter_records(self, plaintext: bytes, first: int, count: int,
                      version: int, previous: bytes):
        """Records for chunks ``[first, count)`` given the chain state
        ``previous`` (the IV for chunk ``first``)."""
        layout = self.layout
        for chunk_index in range(first, count):
            start, end = layout.chunk_range(chunk_index, len(plaintext))
            chunk = layout.pad_chunk(plaintext[start:end])
            cipher_chunk = encrypt_cbc(self.cipher, chunk, previous)
            digest = self._chunk_digest(chunk, cipher_chunk)
            yield self._encrypt_digest(digest, chunk_index, version) + cipher_chunk
            previous = cipher_chunk[-layout.block_size :]

    def protect(self, plaintext: bytes, version: int = 0) -> SecureDocument:
        layout = self.layout
        stored = bytearray()
        count = layout.chunk_count(len(plaintext))
        previous = make_iv(versioned_position(0, version))
        for record in self._iter_records(plaintext, 0, count, version, previous):
            stored.extend(record)
        return SecureDocument(self, bytes(stored), len(plaintext), version=version)

    def reencrypt(
        self,
        document: SecureDocument,
        new_plaintext: bytes,
        dirty_chunks: Set[int],
        version: int,
    ) -> Tuple[SecureDocument, int]:
        layout = self.layout
        record = layout.digest_size + layout.chunk_size
        old_count = layout.chunk_count(document.plaintext_size)
        new_count = layout.chunk_count(len(new_plaintext))
        keep = min(old_count, new_count)
        dirty = {index for index in dirty_chunks if 0 <= index < new_count}
        dirty.update(range(keep, new_count))
        # The chain makes every chunk after the first dirty one depend
        # on re-encrypted ciphertext, so the rewrite cascades to the
        # end of the document.
        first = min(dirty) if dirty else new_count
        stored = bytearray(document.stored[: first * record])
        versions = list(document.chunk_versions[:first])
        if first == 0:
            previous = make_iv(versioned_position(0, version))
        else:
            previous = bytes(
                document.stored[first * record - layout.block_size : first * record]
            )
        for rec in self._iter_records(new_plaintext, first, new_count,
                                      version, previous):
            stored.extend(rec)
            versions.append(version)
        updated = SecureDocument(
            self,
            bytes(stored),
            len(new_plaintext),
            version=version,
            chunk_versions=versions,
        )
        return updated, new_count - first

    def reader(self, document: SecureDocument, meter: Optional[Meter] = None):
        return _CbcShaDocReader(
            self, document, meter if meter is not None else Meter()
        )


class _CbcShaDocReader(BaseReader):
    def _prepare_chunk(self, chunk_index: int) -> None:
        layout = self.layout
        version = self.document.chunk_version(chunk_index)
        encrypted_digest, payload = self.document.chunk_record(chunk_index)
        self.meter.bytes_transferred += layout.digest_size + layout.chunk_size
        if chunk_index == 0:
            iv = make_iv(
                versioned_position(0, self.document.chunk_version(0))
            )
        else:
            # The chain IV is the previous chunk's last ciphertext
            # block, fetched from the (untrusted) store; tampering with
            # it garbles this chunk's first block and fails the digest.
            _prev_digest, prev_payload = self.document.chunk_record(
                chunk_index - 1
            )
            iv = prev_payload[-layout.block_size :]
            self.meter.bytes_transferred += layout.block_size
        plain = decrypt_cbc(self.scheme.cipher, payload, iv)
        self.meter.bytes_decrypted += layout.chunk_size
        self.meter.bytes_hashed += layout.chunk_size
        digest = self.scheme._decrypt_digest(
            encrypted_digest, chunk_index, version
        )
        self.meter.bytes_decrypted += layout.digest_size
        self.meter.digest_decrypts += 1
        if sha1(plain) != digest:
            raise IntegrityError("chunk %d digest mismatch" % chunk_index)
        self.cache.plain = bytearray(plain)
        self.cache.have_blocks = set(range(layout.chunk_size // layout.block_size))

    def _ensure_range(self, chunk_index: int, lo: int, hi: int) -> None:
        pass  # the whole chunk was materialized in _prepare_chunk


# ----------------------------------------------------------------------
# ECB-MHT: the paper's proposal
# ----------------------------------------------------------------------
class EcbMhtScheme(BaseScheme):
    """Position-XOR ECB + Merkle hash tree per chunk (Fig. 11's
    'ECB-MHT'): only the touched fragments enter the SOE; the terminal
    cooperates by sending sibling hashes (Fig. F1)."""

    name = "ECB-MHT"

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

    def reader(self, document: SecureDocument, meter: Optional[Meter] = None):
        return _EcbMhtReader(self, document, meter if meter is not None else Meter())


class _EcbMhtReader(BaseReader):
    def __init__(self, scheme, document, meter):
        super().__init__(scheme, document, meter)
        self._tree_cache: Dict[int, MerkleTree] = {}

    def _terminal_tree(self, chunk_index: int) -> MerkleTree:
        """The terminal's Merkle tree for a chunk (untrusted side; built
        over the ciphertext it stores)."""
        tree = self._tree_cache.get(chunk_index)
        if tree is None:
            _digest, payload = self.document.chunk_record(chunk_index)
            tree = MerkleTree(self.layout.split_fragments(payload))
            self._tree_cache[chunk_index] = tree
        return tree

    def _prepare_chunk(self, chunk_index: int) -> None:
        layout = self.layout
        encrypted_digest, _payload = self.document.chunk_record(chunk_index)
        self.meter.bytes_transferred += layout.digest_size
        self.cache.digest = self.scheme._decrypt_digest(
            encrypted_digest, chunk_index, self.document.chunk_version(chunk_index)
        )
        self.meter.bytes_decrypted += layout.digest_size
        self.meter.digest_decrypts += 1
        self.cache.plain = bytearray(layout.chunk_size)

    def _ensure_range(self, chunk_index: int, lo: int, hi: int) -> None:
        layout = self.layout
        needed_fragments = [
            f
            for f in layout.fragments_covering(lo, hi - lo)
            if f not in self.cache.have_fragments
        ]
        _digest, payload = self.document.chunk_record(chunk_index)
        if needed_fragments:
            fragment_size = layout.fragment_size
            fragments: Dict[int, bytes] = {}
            for f in needed_fragments:
                data = payload[f * fragment_size : (f + 1) * fragment_size]
                fragments[f] = data
                self.meter.bytes_transferred += fragment_size
                self.meter.bytes_hashed += fragment_size
            siblings = self._terminal_tree(chunk_index).sibling_hashes(
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
        # Decrypt only the blocks of the requested range (batched into
        # contiguous runs; the transfer was already charged per
        # fragment above).
        block = layout.block_size
        base = versioned_position(
            chunk_index * layout.chunk_size,
            self.document.chunk_version(chunk_index),
        )
        _decrypt_block_runs(
            self.scheme.cipher,
            payload,
            base,
            lo // block,
            (hi - 1) // block,
            self.cache,
            self.meter,
            block,
            charge_transfer=False,
        )


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
    "CBC-SHA-DOC": CbcShaDocScheme,
    "ECB-MHT": EcbMhtScheme,
}

#: Cipher factories a persistent store knows how to rebuild by name.
_CIPHER_FACTORIES = {
    "xtea": Xtea,
    "des": Des,
    "3des": TripleDes,
    "null": NullCipher,
}


def _cipher_kind(factory) -> Optional[str]:
    """The spec name of a cipher factory, or ``None`` for custom ones.

    Native subclasses resolve to their base kind — the loader picks its
    own (possibly native) implementation for that kind, and all
    implementations are byte-identical by construction.
    """
    if isinstance(factory, type):
        for kind, base in _CIPHER_FACTORIES.items():
            if issubclass(factory, base):
                return kind
    return None


def storage_spec(scheme: BaseScheme):
    """What a persistent store must record to rebuild ``scheme``:
    ``(name, key, cipher kind, (chunk, fragment, block, digest) sizes)``.

    The key is the scheme's *cipher* key — the one the chunk records
    were actually encrypted under — which may differ from the
    provisioning key a station hands to its store (an externally
    prepared document arrives with its own encryption key).

    ``None`` when the cipher factory is custom (unknown by name), in
    which case only the in-memory store can hold it.
    """
    kind = _cipher_kind(scheme._cipher_factory)
    if kind is None:
        return None
    layout = scheme.layout
    return (
        scheme.name,
        scheme._key,
        kind,
        (
            layout.chunk_size,
            layout.fragment_size,
            layout.block_size,
            layout.digest_size,
        ),
    )


def make_scheme(
    name: str,
    key: bytes = b"\x00" * 16,
    backend=None,
    **kwargs,
) -> BaseScheme:
    """Factory by Fig. 11 scheme name."""
    try:
        cls = SCHEMES[name]
    except KeyError:
        raise ValueError(
            "unknown scheme %r (expected one of %s)" % (name, sorted(SCHEMES))
        )
    return cls(key=key, backend=backend, **kwargs)
