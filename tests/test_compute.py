"""Compute-backend tests: kernel parity, selection, degradation, fuzz.

The pure-Python SWAR paths are the oracle; the native C kernels must
be byte-identical to them on every scheme, and a machine without a
compiler must degrade to the pure path without failing a request.
"""

import random

import pytest

from repro import Policy
from repro.compute import (
    BackendUnavailable,
    NativeBackend,
    PureBackend,
    auto_backend,
    available_backends,
    native_available,
    reset_native_cache,
    resolve_backend,
)
from repro.compute.backends import ComputeBackend
from repro.compute.native import NO_NATIVE_ENV
from repro.crypto import modes
from repro.crypto.integrity import SCHEMES, make_scheme
from repro.crypto.xtea import Xtea
from repro.metrics import Meter

needs_native = pytest.mark.skipif(
    not native_available(), reason="native kernels unavailable"
)


def random_bytes(rng: random.Random, length: int) -> bytes:
    return bytes(rng.randrange(256) for _ in range(length))


# ---------------------------------------------------------------------------
# Native kernels vs the pure oracle
# ---------------------------------------------------------------------------


@needs_native
@pytest.mark.parametrize("kind", ["xtea"])
def test_native_kernels_match_pure_oracle(kind):
    from repro.compute.native import NativeXtea

    rng = random.Random(1234)
    pure, native = Xtea(bytes(range(16))), NativeXtea(bytes(range(16)))
    for length in (0, 8, 64, 2048, 4096 + 8):
        data = random_bytes(rng, length)
        sealed = modes.encrypt_ecb(native, data)
        assert sealed == modes.encrypt_ecb_reference(pure, data)
        assert modes.decrypt_ecb(native, sealed) == data
        assert modes.decrypt_ecb(pure, sealed) == data


@needs_native
@pytest.mark.parametrize("kind", ["xtea"])
def test_native_positioned_matches_reference(kind):
    """The positioned C kernel vs both the SWAR fast path and the
    block-at-a-time reference, including versioned and wrap-adjacent
    start positions."""
    from repro.compute.native import NativeXtea

    rng = random.Random(99)
    pure, native = Xtea(bytes(range(16))), NativeXtea(bytes(range(16)))
    positions = [0, 8, 2048, (1 << 63) - 8, (123 << 40) | 4096, (1 << 64) - 16]
    for length in (0, 8, 2048):
        data = random_bytes(rng, length)
        for position in positions:
            reference = modes.encrypt_positioned_reference(pure, data, position)
            assert modes.encrypt_positioned(pure, data, position) == reference
            assert modes.encrypt_positioned(native, data, position) == reference
            assert modes.decrypt_positioned(native, reference, position) == data
            assert modes.decrypt_positioned(pure, reference, position) == data


@needs_native
def test_native_cbc_matches_pure_chain():
    from repro.compute.native import NativeXtea

    rng = random.Random(7)
    pure = Xtea(bytes(range(16)))
    native = NativeXtea(bytes(range(16)))
    for length in (8, 2048, 2048 * 3):
        data = random_bytes(rng, length)
        iv = modes.make_iv(rng.randrange(1 << 32))
        sealed = modes.encrypt_cbc(native, data, iv)
        assert sealed == modes.encrypt_cbc_reference(pure, data, iv)
        assert modes.decrypt_cbc(native, sealed, iv) == data
        assert modes.decrypt_cbc(pure, sealed, iv) == data


@needs_native
def test_native_xtea_keeps_only_the_native_schedule():
    from repro.compute.native import NativeXtea

    rng = random.Random(23)
    for _ in range(16):
        key = random_bytes(rng, 16)
        pure, native = Xtea(key), NativeXtea(key)
        assert not hasattr(native, "_schedule")
        assert not hasattr(native, "_schedule_rev")
        for _ in range(16):
            block = random_bytes(rng, 8)
            sealed = pure.encrypt_block(block)
            assert native.encrypt_block(block) == sealed
            assert native.decrypt_block(sealed) == block
            assert native.decrypt_block(block) == pure.decrypt_block(block)


def test_chunked_cbc_matches_reference():
    """Lockstep chunked CBC (the parallelizable form) is byte-identical
    to encrypting each chunk independently."""
    rng = random.Random(21)
    cipher = Xtea(bytes(range(16)))
    chunks = [random_bytes(rng, 2048) for _ in range(5)]
    ivs = [modes.make_iv(i) for i in range(5)]
    fast = modes.encrypt_cbc_chunked(cipher, chunks, ivs)
    reference = modes.encrypt_cbc_chunked_reference(cipher, chunks, ivs)
    assert fast == reference
    assert fast == [modes.encrypt_cbc(cipher, c, iv) for c, iv in zip(chunks, ivs)]


def test_position_mask_cache_is_bounded():
    cipher = Xtea(bytes(range(16)))
    # Far more distinct (position, count) keys than the cap can hold.
    for position in range(0, modes._POSITION_MASKS_SIZE * 16 * 8, 8):
        modes.encrypt_positioned(cipher, b"\x00" * 8, position)
    assert len(modes._POSITION_MASKS) == modes._POSITION_MASKS_SIZE
    # A repeated key is served from the memo as its most recent entry.
    modes.encrypt_positioned(cipher, b"\x00" * 16, 0)
    first = modes._POSITION_MASKS[(0, 2)]
    modes.encrypt_positioned(cipher, b"\x00" * 16, 0)
    assert modes._POSITION_MASKS[(0, 2)] is first
    assert next(reversed(modes._POSITION_MASKS)) == (0, 2)
    assert len(modes._POSITION_MASKS) == modes._POSITION_MASKS_SIZE


# ---------------------------------------------------------------------------
# Backend selection and degradation
# ---------------------------------------------------------------------------


def test_resolve_backend_names_and_passthrough():
    assert isinstance(resolve_backend("pure"), PureBackend)
    instance = PureBackend()
    assert resolve_backend(instance) is instance
    with pytest.raises(ValueError):
        resolve_backend("simd")
    with pytest.raises(ValueError):
        resolve_backend("pool")


def test_auto_prefers_native_when_available():
    backend = auto_backend()
    if native_available():
        assert isinstance(backend, NativeBackend)
    else:
        assert isinstance(backend, PureBackend)
    assert resolve_backend(None).name == backend.name
    assert resolve_backend("auto").name == backend.name


def test_no_native_env_forces_pure(monkeypatch):
    """With REPRO_NO_NATIVE set (the no-compiler CI leg), auto resolves
    to pure and an explicit native request is a loud error."""
    monkeypatch.setenv(NO_NATIVE_ENV, "1")
    reset_native_cache()
    try:
        assert not native_available()
        assert "native" not in available_backends()
        assert isinstance(auto_backend(), PureBackend)
        assert isinstance(resolve_backend("auto"), PureBackend)
        with pytest.raises(BackendUnavailable):
            NativeBackend()
    finally:
        monkeypatch.delenv(NO_NATIVE_ENV)
        reset_native_cache()


def test_base_backend_is_a_passthrough():
    backend = ComputeBackend()
    assert backend.cipher_factory(Xtea) is Xtea
    assert backend.describe() == {
        "name": "base",
        "native_kernels": native_available(),
    }


# ---------------------------------------------------------------------------
# Differential fuzz: pure == native, every scheme
# ---------------------------------------------------------------------------


def _backends_under_test():
    backends = [PureBackend()]
    if native_available():
        backends.append(NativeBackend())
    return backends


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_fuzz_backends_byte_identical(name):
    """Random plaintexts through protect + full read-back on every
    backend: stored bytes and recovered plaintext must match the pure
    oracle exactly (the acceptance bar for the whole backend layer)."""
    rng = random.Random("fuzz:" + name)
    for _ in range(3):
        plaintext = random_bytes(rng, rng.choice([0, 37, 4096, 30_000]))
        version = rng.randrange(4)
        expected = make_scheme(name).protect(plaintext, version=version)
        for backend in _backends_under_test():
            scheme = make_scheme(name, backend=backend)
            document = scheme.protect(plaintext, version=version)
            assert document.stored == expected.stored, (name, backend.name)
            recovered = scheme.reader(document, Meter()).read(0, len(plaintext))
            assert recovered == plaintext, (name, backend.name)


@pytest.mark.parametrize("name", ["ECB", "CBC-SHAC"])
def test_fuzz_station_views_identical_across_backends(name):
    from repro.engine import SecureStation, prepare_document
    from repro.xmlkit.parser import parse_document
    from repro.xmlkit.serializer import serialize, serialize_events

    from test_differential import random_policy, random_tree

    rng = random.Random("fuzz:" + name)
    for _ in range(3):
        tree = parse_document(serialize(random_tree(rng, max_nodes=25)))
        policy = Policy(random_policy(rng).rules, subject="fuzz")
        prepared = prepare_document(tree, scheme=name)
        views = {}
        for backend in _backends_under_test():
            station = SecureStation(cache_views=False, backend=backend)
            station.publish("doc", prepared)
            views[backend.name] = serialize_events(
                station.evaluate("doc", policy).events
            )
            station.close()
        reference = views.pop("pure")
        for backend_name, view in views.items():
            assert view == reference, backend_name


@pytest.mark.parametrize("name", ["pure", "native"])
def test_fuzz_link_sealing_identical_across_backends(name):
    """A link sealed under a backend's cipher is byte-identical to the
    pure oracle's, each side opens the other's blobs, and a flipped
    byte is refused."""
    from repro.compute.native import NativeXtea
    from repro.engine.station import link_cipher, open_sealed, seal_payload

    if name == "native" and not native_available():
        pytest.skip("native kernels unavailable")
    backend = resolve_backend(name)
    rng = random.Random("link-seal:" + name)
    for length in range(41):
        key = random_bytes(rng, 16)
        payload = random_bytes(rng, length)
        pure = link_cipher(key, PureBackend())
        cipher = link_cipher(key, backend)
        assert isinstance(cipher, NativeXtea) == (name == "native")
        sealed = seal_payload(key, payload, cipher)
        assert sealed == seal_payload(key, payload, pure)
        assert sealed == seal_payload(key, payload)  # cipher built per call
        assert open_sealed(key, sealed, pure) == payload
        assert open_sealed(key, seal_payload(key, payload, pure), cipher) == payload
        flipped = bytearray(sealed)
        flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
        with pytest.raises(ValueError):
            open_sealed(key, bytes(flipped), cipher)
