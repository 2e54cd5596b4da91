"""C-accelerated XTEA block kernels loaded through :mod:`ctypes`.

The SWAR fast paths in :mod:`repro.crypto.xtea` and
:mod:`repro.crypto.modes` top out around 8-10 MB/s on one core: every
half-round is still a handful of arbitrary-precision int operations in
the interpreter.  This module embeds the same kernels as ~110 lines of
C, compiles them once per machine with whatever ``cc`` is on PATH, and
exposes a drop-in cipher subclass (:class:`NativeXtea`) whose block,
CBC-encrypt and positioned paths run the whole buffer in native code.

Design constraints, in order:

* **No new dependencies.**  ``ctypes`` ships with CPython; the only
  external tool is a C compiler, and its absence is handled by
  returning ``None`` from :func:`load_library` so callers fall back to
  the pure-Python path.  (``cffi`` is present in some environments but
  buys nothing over ``ctypes`` for five flat functions.)
* **Byte-identical output.**  The Python schedules are the single
  source of truth: Python computes the XTEA round schedule exactly as
  the pure class does and hands the flattened arrays to C, which only
  runs the data path.  The pure SWAR implementation stays as the
  differential-fuzz oracle (see ``tests/test_compute.py``), as the
  ``*_reference`` mode functions do for the fast paths.
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
import threading
from pathlib import Path
from typing import Optional

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
"""

#: Set to any non-empty value to refuse the native path (CI fallback leg).
NO_NATIVE_ENV = "REPRO_NO_NATIVE"

_NOT_PROBED = object()
_LIB = _NOT_PROBED
_LIB_LOCK = threading.Lock()


def _cache_dir() -> Path:
    # tempfile.gettempdir()'s choice, minus its writability probe: a
    # launch that finds the cached library never imports tempfile.
    names = ("TMPDIR", "TEMP", "TMP")
    base = next((os.environ[name] for name in names if os.environ.get(name)), "/tmp")
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return Path(os.path.abspath(base)) / ("repro-native-%d" % uid)


def _build_library() -> Optional[ctypes.CDLL]:
    if os.environ.get(NO_NATIVE_ENV):
        return None
    digest = hashlib.sha256(C_SOURCE.encode("utf-8")).hexdigest()[:16]
    directory = _cache_dir()
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError:
        return None
    lib_path = directory / ("repro_kernels_%s.so" % digest)
    if not lib_path.exists():
        # Build-only imports: a launch that finds the cached library
        # never loads them.
        import shutil
        import subprocess

        cc = next(filter(None, map(shutil.which, ("cc", "gcc", "clang"))), None)
        if cc is None:
            return None
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
    """XTEA whose block and buffer paths all run in the C kernel.

    The round schedule is the one :class:`~repro.crypto.xtea.Xtea`
    derives, flattened into the two ctypes arrays the kernels read; the
    Python tuples are then dropped, so a resident cipher holds only the
    native copy.  Per-block output is bit-identical to the pure class.
    """

    def __init__(self, key: bytes, rounds: int = 32):
        lib = load_library()
        if lib is None:
            raise RuntimeError("native kernels are not available")
        super().__init__(key, rounds)
        self._lib = lib
        self._c_schedule = _flatten_schedule(self._schedule)
        self._c_schedule_rev = _flatten_schedule(self._schedule_rev)
        del self._schedule, self._schedule_rev

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 8:
            raise ValueError("XTEA block must be 8 bytes")
        return self.encrypt_blocks(block)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 8:
            raise ValueError("XTEA block must be 8 bytes")
        return self.decrypt_blocks(block)

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

