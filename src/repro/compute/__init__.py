"""Which XTEA implementation runs the crypto hot paths.

:func:`xtea_cipher` is the one place that picks: the C-kernel
:class:`~repro.compute.native.NativeXtea` when the kernels load, the
pure-Python :class:`~repro.crypto.xtea.Xtea` otherwise.  Both are
byte-identical; ``REPRO_NO_NATIVE=1`` forces the pure one.  Every
scheme, store and link cipher gets its cipher here, so what serves a
request is what :data:`BACKEND` reports.
"""

from __future__ import annotations

from typing import Dict

from repro.compute.native import NativeXtea, native_available, reset_native_cache
from repro.crypto.xtea import Xtea


def xtea_cipher(key: bytes) -> Xtea:
    """An XTEA cipher under ``key`` on the fastest implementation here."""
    return (NativeXtea if native_available() else Xtea)(key)


class BackendInfo:
    """Read-only description of what :func:`xtea_cipher` builds here,
    for STATS, the ``stage:evaluate`` span and bench provenance."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return "native" if native_available() else "pure"

    def describe(self) -> Dict[str, object]:
        return {"name": self.name, "native_kernels": native_available()}


BACKEND = BackendInfo()

__all__ = [
    "BACKEND",
    "native_available",
    "reset_native_cache",
    "xtea_cipher",
]
