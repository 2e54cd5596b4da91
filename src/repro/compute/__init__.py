"""Pluggable execution backends for the crypto hot paths.

Selection: ``SecureStation(backend=...)`` / ``repro serve --backend``
accept ``"pure"``, ``"native"``, ``"auto"`` (or ``None``), or an
already-constructed :class:`ComputeBackend`.  Auto-detection prefers
the native C kernels when a compiler is (or was) available and falls
back to pure Python otherwise.  Every backend runs in the calling
process.
"""

from __future__ import annotations

from typing import List, Union

from repro.compute.backends import (
    BackendUnavailable,
    ComputeBackend,
    NativeBackend,
    PureBackend,
)
from repro.compute.native import native_available, reset_native_cache

BACKEND_NAMES = ("pure", "native")


def auto_backend() -> ComputeBackend:
    """Fastest always-safe in-process backend for this machine."""
    if native_available():
        return NativeBackend()
    return PureBackend()


def resolve_backend(
    spec: Union[None, str, ComputeBackend],
) -> ComputeBackend:
    """Turn a backend selector into a live backend instance.

    ``None`` / ``"auto"`` auto-detect; explicit names are strict —
    asking for ``"native"`` on a machine without the kernels raises
    :class:`BackendUnavailable` instead of silently degrading.
    """
    if isinstance(spec, ComputeBackend):
        return spec
    if spec is None or spec == "auto":
        return auto_backend()
    if spec == "pure":
        return PureBackend()
    if spec == "native":
        return NativeBackend()
    raise ValueError(
        "unknown compute backend %r (expected one of %s, 'auto', or a "
        "ComputeBackend instance)" % (spec, ", ".join(BACKEND_NAMES))
    )


def available_backends() -> List[str]:
    """Names of the backends constructible on this machine."""
    names = ["pure"]
    if native_available():
        names.append("native")
    return names


__all__ = [
    "BACKEND_NAMES",
    "BackendUnavailable",
    "ComputeBackend",
    "NativeBackend",
    "PureBackend",
    "auto_backend",
    "available_backends",
    "native_available",
    "reset_native_cache",
    "resolve_backend",
]
