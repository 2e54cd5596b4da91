"""DES and Triple-DES (EDE) block ciphers, pure Python.

The paper's target smart card hardwires 3DES; we implement it from the
FIPS 46-3 specification so correctness tests can pin the standard test
vectors.  This implementation favours clarity over speed — the SOE cost
model charges decryption by *bytes at the Table 1 throughput*, so the
Python speed of the cipher never influences measured results; benches
default to the faster XTEA with identical block geometry.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

BLOCK_SIZE = 8

# ----------------------------------------------------------------------
# FIPS 46-3 tables (1-based bit positions, MSB first)
# ----------------------------------------------------------------------
_IP = (
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
)
_FP = (
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
)
_E = (
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9, 8, 9, 10, 11,
    12, 13, 12, 13, 14, 15, 16, 17, 16, 17, 18, 19, 20, 21, 20, 21,
    22, 23, 24, 25, 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
)
_P = (
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10,
    2, 8, 24, 14, 32, 27, 3, 9, 19, 13, 30, 6, 22, 11, 4, 25,
)
_PC1 = (
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18,
    10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22,
    14, 6, 61, 53, 45, 37, 29, 21, 13, 5, 28, 20, 12, 4,
)
_PC2 = (
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10,
    23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2,
    41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
)
_SHIFTS = (1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1)
_SBOXES = (
    (
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
        0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
        4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
        15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ),
    (
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
        3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
        0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
        13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ),
    (
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
        13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
        13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
        1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ),
    (
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
        13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
        10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
        3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ),
    (
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
        14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
        4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
        11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ),
    (
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
        10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
        9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
        4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ),
    (
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
        13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
        1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
        6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ),
    (
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
        1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
        7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
        2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ),
)


def _permute(value: int, width: int, table: Sequence[int]) -> int:
    result = 0
    for position in table:
        result = (result << 1) | ((value >> (width - position)) & 1)
    return result


def _rotate28(value: int, count: int) -> int:
    return ((value << count) | (value >> (28 - count))) & 0xFFFFFFF


# ----------------------------------------------------------------------
# Table-driven fast paths, built on the first Des construction
# ----------------------------------------------------------------------
# Bit permutations are linear: permuting a value equals OR-ing the
# permutations of its bytes.  Each per-byte table below therefore holds
# the permutation of `byte << shift` for all 256 byte values, turning a
# 64-entry bit loop per block into eight table lookups.  By the same
# linearity each row is built from its 8 single-bit images: a value's
# image is the image of the value without its lowest set bit, OR-ed with
# that bit's image.
#
# Building them takes a few milliseconds, and a process serving only
# XTEA schemes never needs them, so :func:`_build_tables` sets them when
# the first :class:`Des` is made.
_IP_BYTES = _FP_BYTES = _E_BYTES = _SP = None


def _byte_tables(width: int, table: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    tables = []
    for byte_index in range(width // 8):
        shift = width - 8 * (byte_index + 1)
        bit_images = [_permute(1 << (shift + bit), width, table) for bit in range(8)]
        row = [0] * 256
        for value in range(1, 256):
            low = value & -value
            row[value] = row[value ^ low] | bit_images[low.bit_length() - 1]
        tables.append(tuple(row))
    return tuple(tables)


def _build_tables() -> None:
    """Set the fast-path tables.  Idempotent, and safe to race: every
    build yields equal tables, and ``_SP`` — the one :class:`Des`
    checks — is set last."""
    global _IP_BYTES, _FP_BYTES, _E_BYTES, _SP
    _IP_BYTES = _byte_tables(64, _IP)
    _FP_BYTES = _byte_tables(64, _FP)
    _E_BYTES = _byte_tables(32, _E)
    # Combined S-box + P permutation: _SP[box][chunk] is the P-permuted
    # contribution of S-box `box` fed with the 6-bit `chunk`.
    _SP = tuple(
        tuple(
            _permute(
                _SBOXES[box][
                    16 * (((chunk & 0x20) >> 4) | (chunk & 1)) + ((chunk >> 1) & 0xF)
                ]
                << (28 - 4 * box),
                32,
                _P,
            )
            for chunk in range(64)
        )
        for box in range(8)
    )


def _permute_bytes(value: int, tables: Tuple[Tuple[int, ...], ...]) -> int:
    result = 0
    shift = 8 * (len(tables) - 1)
    for table in tables:
        result |= table[(value >> shift) & 0xFF]
        shift -= 8
    return result


class Des:
    """Single DES over 8-byte blocks with an 8-byte key."""

    block_size = BLOCK_SIZE
    key_size = 8

    def __init__(self, key: bytes):
        if len(key) != 8:
            raise ValueError("DES key must be 8 bytes")
        if _SP is None:
            _build_tables()
        self._subkeys = self._key_schedule(int.from_bytes(key, "big"))
        self._subkeys_rev = tuple(reversed(self._subkeys))

    @staticmethod
    def _key_schedule(key: int) -> Tuple[int, ...]:
        permuted = _permute(key, 64, _PC1)
        c = permuted >> 28
        d = permuted & 0xFFFFFFF
        subkeys: List[int] = []
        for shift in _SHIFTS:
            c = _rotate28(c, shift)
            d = _rotate28(d, shift)
            subkeys.append(_permute((c << 28) | d, 56, _PC2))
        return tuple(subkeys)

    @staticmethod
    def _feistel(half: int, subkey: int) -> int:
        expanded = _permute_bytes(half, _E_BYTES) ^ subkey
        sp = _SP
        return (
            sp[0][(expanded >> 42) & 0x3F]
            | sp[1][(expanded >> 36) & 0x3F]
            | sp[2][(expanded >> 30) & 0x3F]
            | sp[3][(expanded >> 24) & 0x3F]
            | sp[4][(expanded >> 18) & 0x3F]
            | sp[5][(expanded >> 12) & 0x3F]
            | sp[6][(expanded >> 6) & 0x3F]
            | sp[7][expanded & 0x3F]
        )

    def _crypt_block(self, block: bytes, subkeys: Sequence[int]) -> bytes:
        value = _permute_bytes(int.from_bytes(block, "big"), _IP_BYTES)
        left = value >> 32
        right = value & 0xFFFFFFFF
        feistel = self._feistel
        for subkey in subkeys:
            left, right = right, left ^ feistel(right, subkey)
        combined = (right << 32) | left  # final swap
        return _permute_bytes(combined, _FP_BYTES).to_bytes(8, "big")

    def encrypt_block(self, block: bytes) -> bytes:
        return self._crypt_block(block, self._subkeys)

    def decrypt_block(self, block: bytes) -> bytes:
        return self._crypt_block(block, self._subkeys_rev)


class TripleDes:
    """3DES in EDE mode with a 24-byte key (or 16-byte two-key form)."""

    block_size = BLOCK_SIZE
    key_size = 24

    def __init__(self, key: bytes):
        if len(key) == 16:
            key = key + key[:8]
        if len(key) != 24:
            raise ValueError("3DES key must be 16 or 24 bytes")
        self._first = Des(key[0:8])
        self._second = Des(key[8:16])
        self._third = Des(key[16:24])

    def encrypt_block(self, block: bytes) -> bytes:
        return self._third.encrypt_block(
            self._second.decrypt_block(self._first.encrypt_block(block))
        )

    def decrypt_block(self, block: bytes) -> bytes:
        return self._first.decrypt_block(
            self._second.encrypt_block(self._third.decrypt_block(block))
        )
