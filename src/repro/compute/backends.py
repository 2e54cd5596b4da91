"""The pluggable compute backends behind the crypto hot paths.

Two implementations of one small contract (:class:`ComputeBackend`):

* :class:`PureBackend` — the existing pure-Python SWAR fast paths,
  always available, and the oracle every other backend is fuzzed
  against;
* :class:`NativeBackend` — same call graph, but XTEA is swapped for
  its C-kernel twin in :mod:`repro.compute.native`.

Both run in the calling process, one request at a time, like the
paper's single secure processor.
"""

from __future__ import annotations

from typing import Dict

from repro.compute.native import native_available, native_factory


class BackendUnavailable(RuntimeError):
    """An explicitly requested backend cannot run here."""


class ComputeBackend:
    """Contract between the schemes/station and an execution strategy.

    ``cipher_factory`` may substitute an accelerated cipher class.  All
    backends are byte-identical by construction; only speed differs.
    """

    name = "base"

    def cipher_factory(self, base):
        return base

    def describe(self) -> Dict[str, object]:
        """Wire-safe self-description: backend name and whether the C
        kernels are actually loadable *here* — surfaced through the
        STATS frame so a gateway (and ``repro top``) can show a node
        silently running on the pure path."""
        return {"name": self.name, "native_kernels": bool(native_available())}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "%s(%r)" % (type(self).__name__, self.name)


class PureBackend(ComputeBackend):
    """The in-process pure-Python fast paths — the universal fallback."""

    name = "pure"


class NativeBackend(ComputeBackend):
    """In-process execution on the compiled C kernels."""

    name = "native"

    def __init__(self):
        if not native_available():
            raise BackendUnavailable(
                "native kernels unavailable (no C compiler, build failure, "
                "or REPRO_NO_NATIVE set)"
            )

    def cipher_factory(self, base):
        return native_factory(base)
