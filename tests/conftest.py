"""Fixtures shared by the tier-1 tests."""

import pytest

from repro.compute import native_available, reset_native_cache
from repro.compute.native import NO_NATIVE_ENV, NativeXtea
from repro.crypto.xtea import Xtea


@pytest.fixture
def use_xtea(monkeypatch):
    """Switch the XTEA implementation the code builds from here on.

    ``use_xtea("pure")`` sets ``REPRO_NO_NATIVE``, ``use_xtea("native")``
    clears it; either re-probes the kernels and returns the cipher
    class every scheme and link must now hold.  The environment and
    the probe are restored when the test ends.
    """

    def use(name):
        if name == "pure":
            monkeypatch.setenv(NO_NATIVE_ENV, "1")
        else:
            monkeypatch.delenv(NO_NATIVE_ENV, raising=False)
        reset_native_cache()
        assert native_available() == (name == "native")
        return NativeXtea if name == "native" else Xtea

    yield use
    monkeypatch.undo()
    reset_native_cache()


@pytest.fixture(params=["pure", "native"])
def xtea_leg(request, use_xtea):
    """Run the test once per XTEA implementation; yields its class."""
    if request.param == "native" and not native_available():
        pytest.skip("native kernels unavailable")
    return use_xtea(request.param)
