"""Block cipher modes: ECB, CBC and the paper's position-XOR ECB.

Section 6 / Appendix A: plain ECB leaks equal blocks; CBC fixes that
but penalizes random access (each block needs its predecessor).  The
paper instead XORs each 8-byte block with its *absolute position* in
the document before ECB encryption: ``E_k(b XOR p)``.  Equal plaintext
blocks at different positions produce different ciphertexts, and any
single block can be decrypted independently given its position — which
also defeats block-substitution attacks (a moved block decrypts to
garbage because the position no longer matches).

Two implementations live side by side:

* the **default functions** (``encrypt_ecb`` & co.) are whole-buffer
  fast paths: they hand the entire buffer to the cipher's
  ``encrypt_blocks``/``decrypt_blocks`` when it has one, and XOR
  chains/position masks via ``int.from_bytes`` over the full buffer
  instead of a per-byte generator per block.  Position masks are
  memoized across calls (chunk base positions repeat on every read);
* the ``*_reference`` functions are the original block-at-a-time
  forms, kept as the differential-fuzz oracle
  (``tests/test_crypto.py``) and as the baseline of the crypto
  microbench (``repro bench hotpath``).
"""

from __future__ import annotations

import struct
import threading
from collections import OrderedDict
from typing import Protocol


class BlockCipher(Protocol):
    """Anything encrypting/decrypting fixed 8-byte blocks."""

    block_size: int

    def encrypt_block(self, block: bytes) -> bytes:
        ...

    def decrypt_block(self, block: bytes) -> bytes:
        ...


def _check(data: bytes, block_size: int) -> None:
    if len(data) % block_size:
        raise ValueError(
            "data length %d is not a multiple of the %d-byte block size"
            % (len(data), block_size)
        )


def pad_to_block(data: bytes, block_size: int = 8) -> bytes:
    """Zero-pad to a whole number of blocks (sizes travel out of band)."""
    remainder = len(data) % block_size
    if remainder:
        return data + b"\x00" * (block_size - remainder)
    return data


def _encrypt_blocks(cipher: BlockCipher, data: bytes) -> bytes:
    fast = getattr(cipher, "encrypt_blocks", None)
    if fast is not None:
        return fast(data)
    size = cipher.block_size
    return b"".join(
        cipher.encrypt_block(data[i : i + size]) for i in range(0, len(data), size)
    )


def _decrypt_blocks(cipher: BlockCipher, data: bytes) -> bytes:
    fast = getattr(cipher, "decrypt_blocks", None)
    if fast is not None:
        return fast(data)
    size = cipher.block_size
    return b"".join(
        cipher.decrypt_block(data[i : i + size]) for i in range(0, len(data), size)
    )


# ----------------------------------------------------------------------
# ECB
# ----------------------------------------------------------------------
def encrypt_ecb(cipher: BlockCipher, data: bytes) -> bytes:
    _check(data, cipher.block_size)
    return _encrypt_blocks(cipher, data)


def decrypt_ecb(cipher: BlockCipher, data: bytes) -> bytes:
    _check(data, cipher.block_size)
    return _decrypt_blocks(cipher, data)


def encrypt_ecb_reference(cipher: BlockCipher, data: bytes) -> bytes:
    """Block-at-a-time oracle for :func:`encrypt_ecb`."""
    _check(data, cipher.block_size)
    size = cipher.block_size
    return b"".join(
        cipher.encrypt_block(data[i : i + size]) for i in range(0, len(data), size)
    )


def decrypt_ecb_reference(cipher: BlockCipher, data: bytes) -> bytes:
    """Block-at-a-time oracle for :func:`decrypt_ecb`."""
    _check(data, cipher.block_size)
    size = cipher.block_size
    return b"".join(
        cipher.decrypt_block(data[i : i + size]) for i in range(0, len(data), size)
    )


# ----------------------------------------------------------------------
# CBC
# ----------------------------------------------------------------------
def encrypt_cbc(cipher: BlockCipher, data: bytes, iv: bytes) -> bytes:
    _check(data, cipher.block_size)
    size = cipher.block_size
    if len(iv) != size:
        raise ValueError("IV must be one block")
    # A cipher may run the whole chain itself (the native kernels do:
    # CBC's serial dependency defeats the SWAR trick but costs nothing
    # in C).
    fast = getattr(cipher, "encrypt_cbc", None)
    if fast is not None:
        return fast(data, iv)
    out = bytearray()
    previous = int.from_bytes(iv, "big")
    encrypt_block = cipher.encrypt_block
    from_bytes = int.from_bytes
    for i in range(0, len(data), size):
        block = (from_bytes(data[i : i + size], "big") ^ previous).to_bytes(
            size, "big"
        )
        cipher_block = encrypt_block(block)
        previous = from_bytes(cipher_block, "big")
        out.extend(cipher_block)
    return bytes(out)


def decrypt_cbc(cipher: BlockCipher, data: bytes, iv: bytes) -> bytes:
    _check(data, cipher.block_size)
    size = cipher.block_size
    if len(iv) != size:
        raise ValueError("IV must be one block")
    if not data:
        return b""
    # Decrypt the whole buffer in one pass, then XOR with the shifted
    # ciphertext chain (iv || c_0 .. c_{n-2}) as one big-int operation.
    plain = _decrypt_blocks(cipher, data)
    chain = iv + data[:-size]
    return (
        int.from_bytes(plain, "big") ^ int.from_bytes(chain, "big")
    ).to_bytes(len(data), "big")


def encrypt_cbc_reference(cipher: BlockCipher, data: bytes, iv: bytes) -> bytes:
    """Block-at-a-time oracle for :func:`encrypt_cbc`."""
    _check(data, cipher.block_size)
    size = cipher.block_size
    if len(iv) != size:
        raise ValueError("IV must be one block")
    out = bytearray()
    previous = iv
    for i in range(0, len(data), size):
        block = bytes(a ^ b for a, b in zip(data[i : i + size], previous))
        previous = cipher.encrypt_block(block)
        out.extend(previous)
    return bytes(out)


def decrypt_cbc_reference(cipher: BlockCipher, data: bytes, iv: bytes) -> bytes:
    """Block-at-a-time oracle for :func:`decrypt_cbc`."""
    _check(data, cipher.block_size)
    size = cipher.block_size
    if len(iv) != size:
        raise ValueError("IV must be one block")
    out = bytearray()
    previous = iv
    for i in range(0, len(data), size):
        block = data[i : i + size]
        plain = cipher.decrypt_block(block)
        out.extend(a ^ b for a, b in zip(plain, previous))
        previous = block
    return bytes(out)


def encrypt_cbc_chunked(cipher, chunks, ivs):
    """CBC-encrypt many equal-sized chunks, each under its own IV.

    Every chunk is an independent CBC chain (the paper's integrity unit
    is the chunk, and :func:`make_iv` already derives the IV from the
    versioned chunk position), so the chains can advance *in lockstep*:
    step ``j`` gathers block ``j`` of every chunk into one buffer, XORs
    it with the previous step's ciphertext lanes as a single big-int
    operation, and makes one vectorized ``encrypt_blocks`` call for all
    chunks.  That turns ``chunks x blocks`` per-block cipher calls into
    ``blocks`` whole-buffer calls — the fix for cbc-encrypt's historic
    ~1x "speedup".

    Returns the list of ciphertext chunks, in order.  Falls back to
    per-chunk :func:`encrypt_cbc` whenever the lockstep layout does not
    apply (odd block size, unequal chunk lengths, a cipher without
    ``encrypt_blocks``, or a cipher with its own whole-chain
    ``encrypt_cbc`` — the native kernels — where per-chunk is already
    optimal).
    """
    chunks = list(chunks)
    ivs = list(ivs)
    if len(chunks) != len(ivs):
        raise ValueError("need exactly one IV per chunk")
    if not chunks:
        return []
    size = cipher.block_size
    length = len(chunks[0])
    lockstep = (
        size == 8
        and len(chunks) > 1
        and length % 8 == 0
        and getattr(cipher, "encrypt_cbc", None) is None
        and getattr(cipher, "encrypt_blocks", None) is not None
        and all(len(chunk) == length for chunk in chunks)
        and all(len(iv) == 8 for iv in ivs)
    )
    if not lockstep:
        return [encrypt_cbc(cipher, chunk, iv) for chunk, iv in zip(chunks, ivs)]
    count = len(chunks)
    out = [bytearray() for _ in range(count)]
    previous = int.from_bytes(b"".join(ivs), "big")
    encrypt_blocks = cipher.encrypt_blocks
    from_bytes = int.from_bytes
    for j in range(0, length, 8):
        gathered = b"".join(chunk[j : j + 8] for chunk in chunks)
        mixed = from_bytes(gathered, "big") ^ previous
        encrypted = encrypt_blocks(mixed.to_bytes(count * 8, "big"))
        previous = from_bytes(encrypted, "big")
        for index in range(count):
            out[index] += encrypted[index * 8 : index * 8 + 8]
    return [bytes(chunk) for chunk in out]


def encrypt_cbc_chunked_reference(cipher, chunks, ivs):
    """Per-chunk block-at-a-time oracle for :func:`encrypt_cbc_chunked`."""
    chunks = list(chunks)
    ivs = list(ivs)
    if len(chunks) != len(ivs):
        raise ValueError("need exactly one IV per chunk")
    return [
        encrypt_cbc_reference(cipher, chunk, iv)
        for chunk, iv in zip(chunks, ivs)
    ]


def make_iv(index: int, block_size: int = 8) -> bytes:
    """Deterministic per-chunk IV derived from the chunk index."""
    return struct.pack(">Q", index)[:block_size].rjust(block_size, b"\x00")


# ----------------------------------------------------------------------
# Position-XOR ECB (the paper's scheme)
# ----------------------------------------------------------------------
#: Byte positions live below this bit; document versions above it (and
#: below bit 62, the digest position space of repro.crypto.integrity).
VERSION_SHIFT = 40


def versioned_position(position: int, version: int) -> int:
    """Fold a document version into the position space.

    The paper binds each block to its *location*; a live update path
    must also bind it to *time*, or a terminal can splice back a chunk
    captured before the update and it would still decrypt and verify.
    Folding the version counter into the high bits of the position
    makes every re-encryption a fresh position space: a stale-version
    chunk decrypts to garbage and its digest no longer matches.
    Version 0 is the identity, so pre-update stores are unchanged.
    """
    if version < 0:
        raise ValueError("document version must be >= 0")
    if version:
        return position + (version << VERSION_SHIFT)
    return position


def _position_mask(position: int) -> bytes:
    return struct.pack(">Q", position & 0xFFFFFFFFFFFFFFFF)


#: Memoized whole-buffer position masks.  Chunk reads re-derive the
#: same (base position, block count) pairs on every request, so the
#: concatenated 64-bit position words are computed once and reused;
#: version bumps change the base position and simply mint new entries.
#: The memo is a least-recently-used cache capped at
#: ``_POSITION_MASKS_SIZE`` entries, so a long-lived station churning
#: document versions cannot grow it without bound.
_POSITION_MASKS: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
_POSITION_MASKS_SIZE = 256
_POSITION_MASKS_LOCK = threading.Lock()

_Q64 = 0xFFFFFFFFFFFFFFFF


def _positions_int(start_position: int, block_count: int) -> int:
    """Big-int concatenation of the 64-bit positions of `block_count`
    consecutive 8-byte blocks starting at `start_position`."""
    key = (start_position, block_count)
    with _POSITION_MASKS_LOCK:
        mask = _POSITION_MASKS.get(key)
        if mask is not None:
            _POSITION_MASKS.move_to_end(key)
            return mask
    mask = 0
    position = start_position
    for _ in range(block_count):
        mask = (mask << 64) | (position & _Q64)
        position += 8
    with _POSITION_MASKS_LOCK:
        _POSITION_MASKS[key] = mask
        while len(_POSITION_MASKS) > _POSITION_MASKS_SIZE:
            _POSITION_MASKS.popitem(last=False)
    return mask


def encrypt_positioned(cipher: BlockCipher, data: bytes, start_position: int) -> bytes:
    """Encrypt ``E_k(b XOR p)`` where ``p`` is the absolute byte
    position of each block in the document (``start_position`` for the
    first block, +8 per block)."""
    _check(data, cipher.block_size)
    if cipher.block_size != 8:
        return encrypt_positioned_reference(cipher, data, start_position)
    if not data:
        return b""
    fast = getattr(cipher, "encrypt_positioned", None)
    if fast is not None:
        return fast(data, start_position)
    mask = _positions_int(start_position, len(data) // 8)
    xored = (int.from_bytes(data, "big") ^ mask).to_bytes(len(data), "big")
    return _encrypt_blocks(cipher, xored)


def decrypt_positioned(cipher: BlockCipher, data: bytes, start_position: int) -> bytes:
    """Inverse of :func:`encrypt_positioned` — any block decrypts
    independently given its position (random access)."""
    _check(data, cipher.block_size)
    if cipher.block_size != 8:
        return decrypt_positioned_reference(cipher, data, start_position)
    if not data:
        return b""
    fast = getattr(cipher, "decrypt_positioned", None)
    if fast is not None:
        return fast(data, start_position)
    plain = _decrypt_blocks(cipher, data)
    mask = _positions_int(start_position, len(data) // 8)
    return (int.from_bytes(plain, "big") ^ mask).to_bytes(len(data), "big")


def encrypt_positioned_reference(
    cipher: BlockCipher, data: bytes, start_position: int
) -> bytes:
    """Block-at-a-time oracle for :func:`encrypt_positioned`."""
    _check(data, cipher.block_size)
    size = cipher.block_size
    out = bytearray()
    for i in range(0, len(data), size):
        mask = _position_mask(start_position + i)
        block = bytes(a ^ b for a, b in zip(data[i : i + size], mask))
        out.extend(cipher.encrypt_block(block))
    return bytes(out)


def decrypt_positioned_reference(
    cipher: BlockCipher, data: bytes, start_position: int
) -> bytes:
    """Block-at-a-time oracle for :func:`decrypt_positioned`."""
    _check(data, cipher.block_size)
    size = cipher.block_size
    out = bytearray()
    for i in range(0, len(data), size):
        mask = _position_mask(start_position + i)
        plain = cipher.decrypt_block(data[i : i + size])
        out.extend(a ^ b for a, b in zip(plain, mask))
    return bytes(out)
