"""XTEA block cipher (Needham & Wheeler), 8-byte blocks, 16-byte key.

The cipher every scheme encrypts under: it has the same 64-bit block
geometry as the paper's 3DES — so the chunk/fragment/block layout of
Appendix A is unchanged — but runs an order of magnitude faster in pure
Python.
The architecture is cipher-agnostic (Section 6), and the SOE cost model
charges decryption per byte at the Table 1 throughput regardless of the
cipher doing the work.

The round schedule (``total + k[total & 3]`` / ``total + k[(total >>
11) & 3]``) is data-independent, so it is precomputed once per cipher
instance instead of being re-derived 32 times per block.  On top of the
per-block API, :meth:`Xtea.encrypt_blocks` / :meth:`Xtea.decrypt_blocks`
process a whole multi-block buffer in one call — no per-block function
dispatch, no struct round-trips — which is what the vectorized modes in
:mod:`repro.crypto.modes` build on.
"""

from __future__ import annotations

import struct
import threading
from collections import OrderedDict

_DELTA = 0x9E3779B9
_MASK = 0xFFFFFFFF

# Lane constants depend only on the block count, and buffer sizes repeat
# heavily (every chunk of a layout has the same block count), so they
# are memoized module-wide with a small LRU instead of being re-derived
# by big-int division on every encrypt_blocks/decrypt_blocks call.
_LANE_CONSTANTS: "OrderedDict[int, tuple]" = OrderedDict()
_LANE_CONSTANTS_SIZE = 64
_LANE_CONSTANTS_LOCK = threading.Lock()


def _lane_constants(count: int):
    with _LANE_CONSTANTS_LOCK:
        cached = _LANE_CONSTANTS.get(count)
        if cached is not None:
            _LANE_CONSTANTS.move_to_end(count)
            return cached
    ones = (1 << (64 * count)) // ((1 << 64) - 1)  # 1 in every lane
    lanes32 = _MASK * ones
    cached = (ones, lanes32)
    with _LANE_CONSTANTS_LOCK:
        _LANE_CONSTANTS[count] = cached
        while len(_LANE_CONSTANTS) > _LANE_CONSTANTS_SIZE:
            _LANE_CONSTANTS.popitem(last=False)
    return cached


class Xtea:
    """XTEA with the standard 64 Feistel half-rounds (32 cycles)."""

    block_size = 8
    key_size = 16

    def __init__(self, key: bytes, rounds: int = 32):
        if len(key) != 16:
            raise ValueError("XTEA key must be 16 bytes")
        self._key = struct.unpack(">4L", key)
        self.rounds = rounds
        # Data-independent round schedule: the two key/sum mixes of each
        # cycle depend only on the round counter.  Masking to 32 bits is
        # safe — the XOR's high bits never reach the low 32 bits of the
        # subsequent masked add/subtract.
        k = self._key
        total = 0
        schedule = []
        for _ in range(rounds):
            first = (total + k[total & 3]) & _MASK
            total = (total + _DELTA) & _MASK
            second = (total + k[(total >> 11) & 3]) & _MASK
            schedule.append((first, second))
        self._schedule = tuple(schedule)
        self._schedule_rev = tuple(reversed(schedule))

    def encrypt_block(self, block: bytes) -> bytes:
        value = int.from_bytes(block, "big")
        v0 = value >> 32
        v1 = value & _MASK
        for first, second in self._schedule:
            v0 = (v0 + ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ first)) & _MASK
            v1 = (v1 + ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ second)) & _MASK
        return ((v0 << 32) | v1).to_bytes(8, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        value = int.from_bytes(block, "big")
        v0 = value >> 32
        v1 = value & _MASK
        for first, second in self._schedule_rev:
            v1 = (v1 - ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ second)) & _MASK
            v0 = (v0 - ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ first)) & _MASK
        return ((v0 << 32) | v1).to_bytes(8, "big")

    # -- whole-buffer fast paths ---------------------------------------
    # SIMD-within-a-register over Python big ints: every block's v0 (and
    # v1) word is packed into a 64-bit lane of one arbitrary-precision
    # integer, so each of the 64 half-rounds runs as a handful of
    # whole-buffer int operations instead of per-block arithmetic.  The
    # 32-bit values sit in the low half of each lane; the high half
    # absorbs add carries (< 2^38) and is cleared by the lane mask, so
    # lanes never contaminate each other:
    #
    #   shift <<4  : stays inside the lane (36 < 64 bits)
    #   shift >>5  : spills a lane's low bits into the neighbour's high
    #                half — removed by the & lanes32 mask
    #   add        : per-lane sums < 2^38, no carry across lanes
    #   subtract   : biased by 2^37 per lane (a multiple of 2^32, so
    #                the mod-2^32 result is unchanged) to avoid borrows
    def _lane_constants(self, count: int):
        return _lane_constants(count)

    def encrypt_blocks(self, data: bytes) -> bytes:
        """ECB-encrypt a whole multiple-of-8 buffer in one pass."""
        if len(data) % 8:
            raise ValueError("buffer length must be a multiple of 8")
        if len(data) == 8:
            return self.encrypt_block(data)
        if not data:
            return b""
        count = len(data) // 8
        ones, lanes32 = self._lane_constants(count)
        packed = int.from_bytes(data, "big")
        v0 = (packed >> 32) & lanes32
        v1 = packed & lanes32
        for first, second in self._schedule:
            v0 = (
                v0 + (((((v1 << 4) ^ ((v1 >> 5) & lanes32)) + v1)) ^ (first * ones))
            ) & lanes32
            v1 = (
                v1 + (((((v0 << 4) ^ ((v0 >> 5) & lanes32)) + v0)) ^ (second * ones))
            ) & lanes32
        return ((v0 << 32) | v1).to_bytes(len(data), "big")

    def decrypt_blocks(self, data: bytes) -> bytes:
        """ECB-decrypt a whole multiple-of-8 buffer in one pass."""
        if len(data) % 8:
            raise ValueError("buffer length must be a multiple of 8")
        if len(data) == 8:
            return self.decrypt_block(data)
        if not data:
            return b""
        count = len(data) // 8
        ones, lanes32 = self._lane_constants(count)
        bias = ones << 37  # > any per-lane subtrahend, and ≡ 0 mod 2^32
        packed = int.from_bytes(data, "big")
        v0 = (packed >> 32) & lanes32
        v1 = packed & lanes32
        for first, second in self._schedule_rev:
            v1 = (
                v1
                + bias
                - (((((v0 << 4) ^ ((v0 >> 5) & lanes32)) + v0)) ^ (second * ones))
            ) & lanes32
            v0 = (
                v0
                + bias
                - (((((v1 << 4) ^ ((v1 >> 5) & lanes32)) + v1)) ^ (first * ones))
            ) & lanes32
        return ((v0 << 32) | v1).to_bytes(len(data), "big")
