"""XTEA implementation tests: kernel parity, degradation, fuzz.

The pure-Python SWAR paths are the oracle; the native C kernels must
be byte-identical to them on every scheme, and a machine without a
compiler must degrade to the pure path without failing a request.
"""

import random

import pytest

from repro import Policy
from repro.compute import BACKEND, native_available, xtea_cipher
from repro.crypto import modes
from repro.crypto.integrity import SCHEMES, make_scheme
from repro.crypto.xtea import Xtea
from repro.metrics import Meter

needs_native = pytest.mark.skipif(
    not native_available(), reason="native kernels unavailable"
)

#: The XTEA implementations this machine runs, the pure oracle first.
IMPLEMENTATIONS = ("pure", "native") if native_available() else ("pure",)


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
# Degradation and differential fuzz: pure == native, every scheme
# ---------------------------------------------------------------------------


def test_no_native_env_forces_pure(use_xtea):
    """With REPRO_NO_NATIVE set (the no-compiler CI leg), every cipher
    is the pure one and the description says so."""
    use_xtea("pure")
    assert not native_available()
    assert type(xtea_cipher(bytes(16))) is Xtea
    assert BACKEND.describe() == {"name": "pure", "native_kernels": False}


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_fuzz_backends_byte_identical(name, use_xtea):
    """Random plaintexts through protect + full read-back on each XTEA
    implementation: stored bytes and recovered plaintext must match the
    pure oracle exactly."""
    rng = random.Random("fuzz:" + name)
    cases = [
        (random_bytes(rng, rng.choice([0, 37, 4096, 30_000])), rng.randrange(4))
        for _ in range(3)
    ]
    expected = {}
    for implementation in IMPLEMENTATIONS:
        cipher_class = use_xtea(implementation)
        for index, (plaintext, version) in enumerate(cases):
            scheme = make_scheme(name)
            assert type(scheme.cipher) is cipher_class
            document = scheme.protect(plaintext, version=version)
            stored = expected.setdefault(index, document.stored)
            assert document.stored == stored, (name, implementation)
            recovered = scheme.reader(document, Meter()).read(0, len(plaintext))
            assert recovered == plaintext, (name, implementation)


@pytest.mark.parametrize("name", ["ECB", "CBC-SHAC"])
def test_fuzz_station_views_identical_across_backends(name, use_xtea):
    """A prepared document published on a station serves on the
    implementation it was prepared with, and every implementation
    serves the pure oracle's views."""
    from repro.engine import SecureStation, prepare_document
    from repro.xmlkit.parser import parse_document
    from repro.xmlkit.serializer import serialize, serialize_events

    from test_differential import random_policy, random_tree

    rng = random.Random("fuzz:" + name)
    cases = [
        (
            parse_document(serialize(random_tree(rng, max_nodes=25))),
            Policy(random_policy(rng).rules, subject="fuzz"),
        )
        for _ in range(3)
    ]
    views = {}
    for implementation in IMPLEMENTATIONS:
        cipher_class = use_xtea(implementation)
        for index, (tree, policy) in enumerate(cases):
            station = SecureStation(cache_views=False)
            station.publish("doc", prepare_document(tree, scheme=name))
            assert type(station.document("doc").scheme.cipher) is cipher_class
            view = serialize_events(station.evaluate("doc", policy).events)
            assert views.setdefault(index, view) == view, implementation
            station.close()


@pytest.mark.parametrize("name", ["pure", "native"])
def test_fuzz_link_sealing_identical_across_backends(name, use_xtea):
    """A link sealed on either implementation is byte-identical to the
    pure oracle's, each side opens the other's blobs, and a flipped
    byte is refused."""
    from repro.engine.station import link_cipher, open_sealed, seal_payload

    if name not in IMPLEMENTATIONS:
        pytest.skip("native kernels unavailable")
    cipher_class = use_xtea(name)
    rng = random.Random("link-seal:" + name)
    for length in range(41):
        key = random_bytes(rng, 16)
        payload = random_bytes(rng, length)
        pure = Xtea(key)
        cipher = link_cipher(key)
        assert type(cipher) is cipher_class
        sealed = seal_payload(key, payload, cipher)
        assert sealed == seal_payload(key, payload, pure)
        assert sealed == seal_payload(key, payload)  # cipher built per call
        assert open_sealed(key, sealed, pure) == payload
        assert open_sealed(key, seal_payload(key, payload, pure), cipher) == payload
        flipped = bytearray(sealed)
        flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
        with pytest.raises(ValueError):
            open_sealed(key, bytes(flipped), cipher)
