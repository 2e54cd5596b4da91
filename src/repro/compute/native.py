"""C-accelerated XTEA / DES block kernels loaded through :mod:`ctypes`.

The SWAR fast paths in :mod:`repro.crypto.xtea` and
:mod:`repro.crypto.modes` top out around 8-10 MB/s on one core: every
half-round is still a handful of arbitrary-precision int operations in
the interpreter.  This module embeds the same kernels as ~200 lines of
C, compiles them once per machine with whatever ``cc`` is on PATH, and
exposes drop-in cipher subclasses (:class:`NativeXtea`,
:class:`NativeDes`, :class:`NativeTripleDes`) whose ``encrypt_blocks``
/ ``decrypt_blocks`` run the whole buffer in native code.

Design constraints, in order:

* **No new dependencies.**  ``ctypes`` ships with CPython; the only
  external tool is a C compiler, and its absence is handled by
  returning ``None`` from :func:`load_library` so callers fall back to
  the pure-Python path.  (``cffi`` is present in some environments but
  buys nothing over ``ctypes`` for four flat functions.)
* **Byte-identical output.**  The Python schedules are the single
  source of truth: Python computes the XTEA round schedule and the DES
  subkeys exactly as the pure classes do and hands the flattened
  arrays to C, which only runs the data path.  The pure SWAR
  implementations stay as the differential-fuzz oracle (see
  ``tests/test_compute.py``), exactly as PR 4 kept the ``*_reference``
  functions.
* **Safe caching.**  The shared object is keyed by a hash of the C
  source and built atomically (compile to a temp name, ``os.replace``)
  in a per-user temp directory, so concurrent processes and source
  upgrades never race or load stale kernels.

Set ``REPRO_NO_NATIVE=1`` to disable the native path entirely (used by
the CI leg that proves the repo works with no compiler present).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional

from repro.crypto.des import Des, TripleDes
from repro.crypto.xtea import Xtea

C_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>

/* ------------------------------------------------------------------ */
/* byte order helpers (the wire format is big-endian)                  */
/* ------------------------------------------------------------------ */
static uint32_t load_be32(const uint8_t *p) {
    return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
         | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static void store_be32(uint8_t *p, uint32_t v) {
    p[0] = (uint8_t)(v >> 24);
    p[1] = (uint8_t)(v >> 16);
    p[2] = (uint8_t)(v >> 8);
    p[3] = (uint8_t)v;
}

static uint64_t load_be64(const uint8_t *p) {
    return ((uint64_t)load_be32(p) << 32) | load_be32(p + 4);
}

static void store_be64(uint8_t *p, uint64_t v) {
    store_be32(p, (uint32_t)(v >> 32));
    store_be32(p + 4, (uint32_t)v);
}

/* ------------------------------------------------------------------ */
/* XTEA: the schedule (rounds x {first, second}) is precomputed by     */
/* Python exactly as repro.crypto.xtea does, so the data path below    */
/* matches Xtea.encrypt_block bit for bit.                             */
/* ------------------------------------------------------------------ */
void xtea_encrypt_blocks(uint8_t *buf, size_t nblocks,
                         const uint32_t *schedule, int rounds) {
    for (size_t b = 0; b < nblocks; b++) {
        uint8_t *p = buf + 8 * b;
        uint32_t v0 = load_be32(p);
        uint32_t v1 = load_be32(p + 4);
        for (int r = 0; r < rounds; r++) {
            v0 += ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ schedule[2 * r]);
            v1 += ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ schedule[2 * r + 1]);
        }
        store_be32(p, v0);
        store_be32(p + 4, v1);
    }
}

/* schedule here is the REVERSED cycle order (Python's _schedule_rev), */
/* still flattened as {first, second} pairs.                           */
void xtea_decrypt_blocks(uint8_t *buf, size_t nblocks,
                         const uint32_t *schedule, int rounds) {
    for (size_t b = 0; b < nblocks; b++) {
        uint8_t *p = buf + 8 * b;
        uint32_t v0 = load_be32(p);
        uint32_t v1 = load_be32(p + 4);
        for (int r = 0; r < rounds; r++) {
            v1 -= ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ schedule[2 * r + 1]);
            v0 -= ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ schedule[2 * r]);
        }
        store_be32(p, v0);
        store_be32(p + 4, v1);
    }
}

/* Positioned mode E_k(b XOR p): each block is XORed with its absolute  */
/* big-endian 64-bit byte position before encryption (after, for        */
/* decryption).  Positions advance by 8 per block and wrap modulo 2^64  */
/* exactly like the Python mask arithmetic.                             */
void xtea_encrypt_positioned(uint8_t *buf, size_t nblocks,
                             const uint32_t *schedule, int rounds,
                             uint64_t position) {
    for (size_t b = 0; b < nblocks; b++, position += 8) {
        uint8_t *p = buf + 8 * b;
        uint32_t v0 = load_be32(p) ^ (uint32_t)(position >> 32);
        uint32_t v1 = load_be32(p + 4) ^ (uint32_t)position;
        for (int r = 0; r < rounds; r++) {
            v0 += ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ schedule[2 * r]);
            v1 += ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ schedule[2 * r + 1]);
        }
        store_be32(p, v0);
        store_be32(p + 4, v1);
    }
}

void xtea_decrypt_positioned(uint8_t *buf, size_t nblocks,
                             const uint32_t *schedule, int rounds,
                             uint64_t position) {
    for (size_t b = 0; b < nblocks; b++, position += 8) {
        uint8_t *p = buf + 8 * b;
        uint32_t v0 = load_be32(p);
        uint32_t v1 = load_be32(p + 4);
        for (int r = 0; r < rounds; r++) {
            v1 -= ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ schedule[2 * r + 1]);
            v0 -= ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ schedule[2 * r]);
        }
        store_be32(p, v0 ^ (uint32_t)(position >> 32));
        store_be32(p + 4, v1 ^ (uint32_t)position);
    }
}

/* CBC is inherently sequential, which is exactly why it belongs in C:  */
/* the chain dependency defeats the SWAR trick but costs nothing here.  */
void xtea_encrypt_cbc(uint8_t *buf, size_t nblocks,
                      const uint32_t *schedule, int rounds,
                      const uint8_t *iv) {
    uint32_t c0 = load_be32(iv);
    uint32_t c1 = load_be32(iv + 4);
    for (size_t b = 0; b < nblocks; b++) {
        uint8_t *p = buf + 8 * b;
        uint32_t v0 = load_be32(p) ^ c0;
        uint32_t v1 = load_be32(p + 4) ^ c1;
        for (int r = 0; r < rounds; r++) {
            v0 += ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ schedule[2 * r]);
            v1 += ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ schedule[2 * r + 1]);
        }
        store_be32(p, v0);
        store_be32(p + 4, v1);
        c0 = v0;
        c1 = v1;
    }
}

/* ------------------------------------------------------------------ */
/* DES (FIPS 46-3).  Tables mirror repro.crypto.des; the 16 48-bit     */
/* subkeys per pass come precomputed from Python, so the C side never  */
/* touches PC-1/PC-2.  passes=1 is single DES; passes=3 with the       */
/* appropriate subkey ordering is 3DES EDE (see NativeTripleDes).      */
/* ------------------------------------------------------------------ */
static const uint8_t DES_IP[64] = {
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
};
static const uint8_t DES_FP[64] = {
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
};
static const uint8_t DES_E[48] = {
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9, 8, 9, 10, 11,
    12, 13, 12, 13, 14, 15, 16, 17, 16, 17, 18, 19, 20, 21, 20, 21,
    22, 23, 24, 25, 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
};
static const uint8_t DES_P[32] = {
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10,
    2, 8, 24, 14, 32, 27, 3, 9, 19, 13, 30, 6, 22, 11, 4, 25,
};
static const uint8_t DES_SBOX[8][64] = {
    {
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
        0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
        4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
        15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    },
    {
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
        3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
        0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
        13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    },
    {
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
        13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
        13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
        1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    },
    {
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
        13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
        10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
        3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    },
    {
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
        14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
        4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
        11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    },
    {
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
        10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
        9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
        4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    },
    {
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
        13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
        1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
        6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    },
    {
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
        1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
        7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
        2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    },
};

/* Combined S-box + P permutation, built once by repro_native_init().  */
static uint32_t des_sp[8][64];

static uint64_t permute64(uint64_t value, const uint8_t *table, int n) {
    uint64_t out = 0;
    for (int i = 0; i < n; i++)
        out = (out << 1) | ((value >> (64 - table[i])) & 1);
    return out;
}

void repro_native_init(void) {
    for (int box = 0; box < 8; box++) {
        for (int chunk = 0; chunk < 64; chunk++) {
            int row = ((chunk & 0x20) >> 4) | (chunk & 1);
            int col = (chunk >> 1) & 0xF;
            uint32_t val =
                (uint32_t)DES_SBOX[box][16 * row + col] << (28 - 4 * box);
            uint32_t out = 0;
            for (int i = 0; i < 32; i++)
                out = (out << 1) | ((val >> (32 - DES_P[i])) & 1);
            des_sp[box][chunk] = out;
        }
    }
}

static uint32_t des_feistel(uint32_t half, uint64_t subkey) {
    uint64_t expanded = 0;
    for (int i = 0; i < 48; i++)
        expanded = (expanded << 1) | ((half >> (32 - DES_E[i])) & 1);
    expanded ^= subkey;
    return des_sp[0][(expanded >> 42) & 0x3F]
         | des_sp[1][(expanded >> 36) & 0x3F]
         | des_sp[2][(expanded >> 30) & 0x3F]
         | des_sp[3][(expanded >> 24) & 0x3F]
         | des_sp[4][(expanded >> 18) & 0x3F]
         | des_sp[5][(expanded >> 12) & 0x3F]
         | des_sp[6][(expanded >> 6) & 0x3F]
         | des_sp[7][expanded & 0x3F];
}

/* subkeys holds `passes` consecutive groups of 16; encryption vs       */
/* decryption (and the EDE composition) is purely a matter of which     */
/* groups the caller passes and in what order.                          */
static uint64_t des_crypt_one(uint64_t value,
                              const uint64_t *subkeys, int passes) {
    for (int pass = 0; pass < passes; pass++) {
        const uint64_t *keys = subkeys + 16 * pass;
        uint64_t v = permute64(value, DES_IP, 64);
        uint32_t left = (uint32_t)(v >> 32);
        uint32_t right = (uint32_t)v;
        for (int r = 0; r < 16; r++) {
            uint32_t next = left ^ des_feistel(right, keys[r]);
            left = right;
            right = next;
        }
        value = permute64(((uint64_t)right << 32) | left, DES_FP, 64);
    }
    return value;
}

void des_crypt_blocks(uint8_t *buf, size_t nblocks,
                      const uint64_t *subkeys, int passes) {
    for (size_t b = 0; b < nblocks; b++) {
        uint8_t *p = buf + 8 * b;
        store_be64(p, des_crypt_one(load_be64(p), subkeys, passes));
    }
}

/* xor_after=0 XORs the position before the cipher (encrypt direction); */
/* xor_after=1 XORs it after (decrypt direction).                       */
void des_crypt_positioned(uint8_t *buf, size_t nblocks,
                          const uint64_t *subkeys, int passes,
                          uint64_t position, int xor_after) {
    for (size_t b = 0; b < nblocks; b++, position += 8) {
        uint8_t *p = buf + 8 * b;
        uint64_t value = load_be64(p);
        if (!xor_after)
            value ^= position;
        value = des_crypt_one(value, subkeys, passes);
        if (xor_after)
            value ^= position;
        store_be64(p, value);
    }
}
"""

#: Set to any non-empty value to refuse the native path (CI fallback leg).
NO_NATIVE_ENV = "REPRO_NO_NATIVE"

_NOT_PROBED = object()
_LIB = _NOT_PROBED
_LIB_LOCK = threading.Lock()


def _cache_dir() -> Path:
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return Path(tempfile.gettempdir()) / ("repro-native-%d" % uid)


def _compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build_library() -> Optional[ctypes.CDLL]:
    if os.environ.get(NO_NATIVE_ENV):
        return None
    cc = _compiler()
    if cc is None:
        return None
    digest = hashlib.sha256(C_SOURCE.encode("utf-8")).hexdigest()[:16]
    directory = _cache_dir()
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError:
        return None
    lib_path = directory / ("repro_kernels_%s.so" % digest)
    if not lib_path.exists():
        source_path = directory / ("repro_kernels_%s.c" % digest)
        build_path = directory / (
            "repro_kernels_%s.%d.tmp" % (digest, os.getpid())
        )
        try:
            source_path.write_text(C_SOURCE)
            result = subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", "-o", str(build_path),
                 str(source_path)],
                capture_output=True,
                timeout=120,
            )
            if result.returncode != 0:
                return None
            # Atomic publish: concurrent builders race harmlessly, the
            # last replace wins and every .so is equivalent.
            os.replace(build_path, lib_path)
        except (OSError, subprocess.SubprocessError):
            return None
        finally:
            if build_path.exists():
                try:
                    build_path.unlink()
                except OSError:
                    pass
    try:
        lib = ctypes.CDLL(str(lib_path))
    except OSError:
        return None
    lib.xtea_encrypt_blocks.argtypes = (
        ctypes.c_char_p, ctypes.c_size_t,
        ctypes.POINTER(ctypes.c_uint32), ctypes.c_int,
    )
    lib.xtea_encrypt_blocks.restype = None
    lib.xtea_decrypt_blocks.argtypes = lib.xtea_encrypt_blocks.argtypes
    lib.xtea_decrypt_blocks.restype = None
    lib.xtea_encrypt_cbc.argtypes = (
        ctypes.c_char_p, ctypes.c_size_t,
        ctypes.POINTER(ctypes.c_uint32), ctypes.c_int, ctypes.c_char_p,
    )
    lib.xtea_encrypt_cbc.restype = None
    lib.xtea_encrypt_positioned.argtypes = (
        ctypes.c_char_p, ctypes.c_size_t,
        ctypes.POINTER(ctypes.c_uint32), ctypes.c_int, ctypes.c_uint64,
    )
    lib.xtea_encrypt_positioned.restype = None
    lib.xtea_decrypt_positioned.argtypes = lib.xtea_encrypt_positioned.argtypes
    lib.xtea_decrypt_positioned.restype = None
    lib.des_crypt_blocks.argtypes = (
        ctypes.c_char_p, ctypes.c_size_t,
        ctypes.POINTER(ctypes.c_uint64), ctypes.c_int,
    )
    lib.des_crypt_blocks.restype = None
    lib.des_crypt_positioned.argtypes = (
        ctypes.c_char_p, ctypes.c_size_t,
        ctypes.POINTER(ctypes.c_uint64), ctypes.c_int,
        ctypes.c_uint64, ctypes.c_int,
    )
    lib.des_crypt_positioned.restype = None
    lib.repro_native_init.argtypes = ()
    lib.repro_native_init.restype = None
    lib.repro_native_init()
    return lib


def load_library() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, or ``None`` when unavailable.

    The result (including a failed build) is memoized; use
    :func:`reset_native_cache` to re-probe after changing the
    environment (tests do this around ``REPRO_NO_NATIVE``).
    """
    global _LIB
    if _LIB is _NOT_PROBED:
        with _LIB_LOCK:
            if _LIB is _NOT_PROBED:
                _LIB = _build_library()
    return _LIB  # type: ignore[return-value]


def native_available() -> bool:
    return load_library() is not None


def library_path() -> Optional[str]:
    lib = load_library()
    return getattr(lib, "_name", None) if lib is not None else None


def reset_native_cache() -> None:
    """Forget the memoized library so the next call re-probes."""
    global _LIB
    with _LIB_LOCK:
        _LIB = _NOT_PROBED


def _flatten_schedule(schedule) -> "ctypes.Array":
    flat = []
    for first, second in schedule:
        flat.append(first)
        flat.append(second)
    return (ctypes.c_uint32 * len(flat))(*flat)


class NativeXtea(Xtea):
    """XTEA whose whole-buffer paths run in the C kernel.

    The schedule comes from the pure-Python constructor, so per-block
    output is bit-identical to :class:`~repro.crypto.xtea.Xtea`; only
    the buffer loops move to C.
    """

    def __init__(self, key: bytes, rounds: int = 32):
        super().__init__(key, rounds)
        lib = load_library()
        if lib is None:
            raise RuntimeError("native kernels are not available")
        self._lib = lib
        self._c_schedule = _flatten_schedule(self._schedule)
        self._c_schedule_rev = _flatten_schedule(self._schedule_rev)

    def encrypt_blocks(self, data: bytes) -> bytes:
        if len(data) % 8:
            raise ValueError("buffer length must be a multiple of 8")
        if not data:
            return b""
        buf = ctypes.create_string_buffer(bytes(data), len(data))
        self._lib.xtea_encrypt_blocks(
            buf, len(data) // 8, self._c_schedule, self.rounds
        )
        return buf.raw

    def decrypt_blocks(self, data: bytes) -> bytes:
        if len(data) % 8:
            raise ValueError("buffer length must be a multiple of 8")
        if not data:
            return b""
        buf = ctypes.create_string_buffer(bytes(data), len(data))
        self._lib.xtea_decrypt_blocks(
            buf, len(data) // 8, self._c_schedule_rev, self.rounds
        )
        return buf.raw

    def encrypt_cbc(self, data: bytes, iv: bytes) -> bytes:
        """Whole-buffer CBC chain (hooked by :func:`modes.encrypt_cbc`)."""
        if len(data) % 8:
            raise ValueError("buffer length must be a multiple of 8")
        if len(iv) != 8:
            raise ValueError("IV must be 8 bytes")
        if not data:
            return b""
        buf = ctypes.create_string_buffer(bytes(data), len(data))
        self._lib.xtea_encrypt_cbc(
            buf, len(data) // 8, self._c_schedule, self.rounds, bytes(iv)
        )
        return buf.raw

    def encrypt_positioned(self, data: bytes, start_position: int) -> bytes:
        """Whole-buffer E_k(b XOR p) (hooked by
        :func:`modes.encrypt_positioned`)."""
        if len(data) % 8:
            raise ValueError("buffer length must be a multiple of 8")
        if not data:
            return b""
        buf = ctypes.create_string_buffer(bytes(data), len(data))
        self._lib.xtea_encrypt_positioned(
            buf, len(data) // 8, self._c_schedule, self.rounds,
            start_position & 0xFFFFFFFFFFFFFFFF,
        )
        return buf.raw

    def decrypt_positioned(self, data: bytes, start_position: int) -> bytes:
        if len(data) % 8:
            raise ValueError("buffer length must be a multiple of 8")
        if not data:
            return b""
        buf = ctypes.create_string_buffer(bytes(data), len(data))
        self._lib.xtea_decrypt_positioned(
            buf, len(data) // 8, self._c_schedule_rev, self.rounds,
            start_position & 0xFFFFFFFFFFFFFFFF,
        )
        return buf.raw


def _subkey_array(*groups) -> "ctypes.Array":
    flat = [subkey for group in groups for subkey in group]
    return (ctypes.c_uint64 * len(flat))(*flat)


class NativeDes(Des):
    """Single DES with whole-buffer kernels (subkeys from Python)."""

    def __init__(self, key: bytes):
        super().__init__(key)
        lib = load_library()
        if lib is None:
            raise RuntimeError("native kernels are not available")
        self._lib = lib
        self._c_enc = _subkey_array(self._subkeys)
        self._c_dec = _subkey_array(self._subkeys_rev)

    def _crypt_blocks(self, data: bytes, subkeys, passes: int) -> bytes:
        if len(data) % 8:
            raise ValueError("buffer length must be a multiple of 8")
        if not data:
            return b""
        buf = ctypes.create_string_buffer(bytes(data), len(data))
        self._lib.des_crypt_blocks(buf, len(data) // 8, subkeys, passes)
        return buf.raw

    def _crypt_positioned(
        self, data: bytes, subkeys, passes: int, position: int, xor_after: int
    ) -> bytes:
        if len(data) % 8:
            raise ValueError("buffer length must be a multiple of 8")
        if not data:
            return b""
        buf = ctypes.create_string_buffer(bytes(data), len(data))
        self._lib.des_crypt_positioned(
            buf, len(data) // 8, subkeys, passes,
            position & 0xFFFFFFFFFFFFFFFF, xor_after,
        )
        return buf.raw

    def encrypt_blocks(self, data: bytes) -> bytes:
        return self._crypt_blocks(data, self._c_enc, 1)

    def decrypt_blocks(self, data: bytes) -> bytes:
        return self._crypt_blocks(data, self._c_dec, 1)

    def encrypt_positioned(self, data: bytes, start_position: int) -> bytes:
        return self._crypt_positioned(data, self._c_enc, 1, start_position, 0)

    def decrypt_positioned(self, data: bytes, start_position: int) -> bytes:
        return self._crypt_positioned(data, self._c_dec, 1, start_position, 1)


class NativeTripleDes(TripleDes):
    """3DES EDE as three native passes with the composed subkey order."""

    def __init__(self, key: bytes):
        super().__init__(key)
        lib = load_library()
        if lib is None:
            raise RuntimeError("native kernels are not available")
        self._lib = lib
        # encrypt: E(k1) then D(k2) then E(k3); decrypt reverses it.
        self._c_enc = _subkey_array(
            self._first._subkeys,
            self._second._subkeys_rev,
            self._third._subkeys,
        )
        self._c_dec = _subkey_array(
            self._third._subkeys_rev,
            self._second._subkeys,
            self._first._subkeys_rev,
        )

    def _crypt_blocks(self, data: bytes, subkeys) -> bytes:
        if len(data) % 8:
            raise ValueError("buffer length must be a multiple of 8")
        if not data:
            return b""
        buf = ctypes.create_string_buffer(bytes(data), len(data))
        self._lib.des_crypt_blocks(buf, len(data) // 8, subkeys, 3)
        return buf.raw

    def _crypt_positioned(
        self, data: bytes, subkeys, position: int, xor_after: int
    ) -> bytes:
        if len(data) % 8:
            raise ValueError("buffer length must be a multiple of 8")
        if not data:
            return b""
        buf = ctypes.create_string_buffer(bytes(data), len(data))
        self._lib.des_crypt_positioned(
            buf, len(data) // 8, subkeys, 3,
            position & 0xFFFFFFFFFFFFFFFF, xor_after,
        )
        return buf.raw

    def encrypt_blocks(self, data: bytes) -> bytes:
        return self._crypt_blocks(data, self._c_enc)

    def decrypt_blocks(self, data: bytes) -> bytes:
        return self._crypt_blocks(data, self._c_dec)

    def encrypt_positioned(self, data: bytes, start_position: int) -> bytes:
        return self._crypt_positioned(data, self._c_enc, start_position, 0)

    def decrypt_positioned(self, data: bytes, start_position: int) -> bytes:
        return self._crypt_positioned(data, self._c_dec, start_position, 1)


_NATIVE_CLASSES = {Xtea: NativeXtea, Des: NativeDes, TripleDes: NativeTripleDes}


def native_factory(base):
    """Map a pure cipher factory to its native twin when one exists.

    Unknown factories (and the native classes themselves) pass through
    unchanged, so a custom cipher plugged into ``make_scheme`` keeps
    working on every backend.
    """
    if not native_available():
        return base
    return _NATIVE_CLASSES.get(base, base)
