"""Tests for the crypto substrate: ciphers, modes, Merkle, schemes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.chunks import ChunkLayout
from repro.crypto.des import Des, TripleDes
from repro.crypto.integrity import (
    SCHEMES,
    IntegrityError,
    SecureBytes,
    make_scheme,
)
from repro.crypto.merkle import MerkleTree, sha1, verify_with_siblings
from repro.crypto.modes import (
    NullCipher,
    decrypt_cbc,
    decrypt_cbc_reference,
    decrypt_ecb,
    decrypt_ecb_reference,
    decrypt_positioned,
    decrypt_positioned_reference,
    encrypt_cbc,
    encrypt_cbc_reference,
    encrypt_ecb,
    encrypt_ecb_reference,
    encrypt_positioned,
    encrypt_positioned_reference,
    make_iv,
    pad_to_block,
    versioned_position,
)
from repro.crypto.xtea import Xtea
from repro.metrics import Meter

KEY16 = bytes(range(16))


class TestDes:
    def test_fips_vector(self):
        # Classic known-answer test.
        cipher = Des(bytes.fromhex("133457799BBCDFF1"))
        plain = bytes.fromhex("0123456789ABCDEF")
        expected = bytes.fromhex("85E813540F0AB405")
        assert cipher.encrypt_block(plain) == expected
        assert cipher.decrypt_block(expected) == plain

    def test_weak_vector_zero(self):
        cipher = Des(bytes.fromhex("0000000000000000"))
        plain = bytes.fromhex("0000000000000000")
        expected = bytes.fromhex("8CA64DE9C1B123A7")
        assert cipher.encrypt_block(plain) == expected

    def test_triple_des_round_trip(self):
        cipher = TripleDes(bytes(range(24)))
        block = b"8bytes!!"
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_triple_des_two_key_form(self):
        cipher = TripleDes(bytes(range(16)))
        block = b"ABCDEFGH"
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_triple_des_ede_with_equal_keys_is_des(self):
        key = bytes.fromhex("133457799BBCDFF1")
        single = Des(key)
        triple = TripleDes(key * 3)
        block = bytes.fromhex("0123456789ABCDEF")
        assert triple.encrypt_block(block) == single.encrypt_block(block)

    def test_key_length_validation(self):
        with pytest.raises(ValueError):
            Des(b"short")
        with pytest.raises(ValueError):
            TripleDes(b"short")


class TestXtea:
    def test_known_vector(self):
        # Standard XTEA vector: key = 000102..0f, plain = 4142434445464748.
        cipher = Xtea(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        plain = bytes.fromhex("4142434445464748")
        assert cipher.decrypt_block(cipher.encrypt_block(plain)) == plain

    @given(st.binary(min_size=8, max_size=8), st.binary(min_size=16, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_property_round_trip(self, block, key):
        cipher = Xtea(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_different_blocks_differ(self):
        cipher = Xtea(KEY16)
        assert cipher.encrypt_block(b"AAAAAAAA") != cipher.encrypt_block(b"BBBBBBBB")


class TestModes:
    def test_ecb_round_trip(self):
        cipher = Xtea(KEY16)
        data = bytes(range(64))
        assert decrypt_ecb(cipher, encrypt_ecb(cipher, data)) == data

    def test_ecb_leaks_equal_blocks(self):
        cipher = Xtea(KEY16)
        data = b"SAMEBLK!" * 2
        encrypted = encrypt_ecb(cipher, data)
        assert encrypted[:8] == encrypted[8:]

    def test_positioned_hides_equal_blocks(self):
        cipher = Xtea(KEY16)
        data = b"SAMEBLK!" * 2
        encrypted = encrypt_positioned(cipher, data, 0)
        assert encrypted[:8] != encrypted[8:]
        assert decrypt_positioned(cipher, encrypted, 0) == data

    def test_positioned_random_access(self):
        cipher = Xtea(KEY16)
        data = bytes(range(256 % 256)) or bytes(range(256))
        data = bytes(i % 256 for i in range(256))
        encrypted = encrypt_positioned(cipher, data, 1024)
        # Decrypt a single middle block independently.
        block = encrypted[40:48]
        assert decrypt_positioned(cipher, block, 1024 + 40) == data[40:48]

    def test_positioned_detects_relocation(self):
        # A substituted block decrypts to garbage at another position.
        cipher = Xtea(KEY16)
        data = b"SECRET01SECRET02"
        encrypted = encrypt_positioned(cipher, data, 0)
        moved = decrypt_positioned(cipher, encrypted[0:8], 8)
        assert moved != data[0:8] and moved != data[8:16]

    def test_cbc_round_trip(self):
        cipher = Xtea(KEY16)
        data = bytes(range(128))
        iv = make_iv(7)
        assert decrypt_cbc(cipher, encrypt_cbc(cipher, data, iv), iv) == data

    def test_cbc_hides_equal_blocks(self):
        cipher = Xtea(KEY16)
        data = b"SAMEBLK!" * 4
        encrypted = encrypt_cbc(cipher, data, make_iv(0))
        blocks = {encrypted[i : i + 8] for i in range(0, len(encrypted), 8)}
        assert len(blocks) == 4

    def test_unaligned_rejected(self):
        with pytest.raises(ValueError):
            encrypt_ecb(NullCipher(), b"123")

    def test_pad_to_block(self):
        assert pad_to_block(b"12345") == b"12345\x00\x00\x00"
        assert pad_to_block(b"12345678") == b"12345678"


class TestVectorizedModes:
    """The whole-buffer fast paths must agree bit-for-bit with the
    block-at-a-time reference forms, on every cipher, for random
    buffers, positions and document versions."""

    CIPHERS = [
        ("xtea", lambda: Xtea(KEY16)),
        ("null", lambda: NullCipher()),
        ("des", lambda: Des(bytes(range(8)))),
        ("3des", lambda: TripleDes(bytes(range(24)))),
    ]

    @pytest.mark.parametrize("name", [name for name, _ in CIPHERS])
    def test_fuzz_against_blockwise_reference(self, name):
        factory = dict(self.CIPHERS)[name]
        cipher = factory()
        rng = random.Random("fuzz:" + name)
        for _ in range(12):
            blocks = rng.randrange(0, 65)
            data = bytes(rng.randrange(256) for _ in range(8 * blocks))
            iv = bytes(rng.randrange(256) for _ in range(8))
            position = versioned_position(
                rng.randrange(0, 1 << 40) & ~7, rng.randrange(0, 4)
            )
            assert encrypt_ecb(cipher, data) == encrypt_ecb_reference(cipher, data)
            assert decrypt_ecb(cipher, data) == decrypt_ecb_reference(cipher, data)
            assert encrypt_cbc(cipher, data, iv) == encrypt_cbc_reference(
                cipher, data, iv
            )
            assert decrypt_cbc(cipher, data, iv) == decrypt_cbc_reference(
                cipher, data, iv
            )
            assert encrypt_positioned(
                cipher, data, position
            ) == encrypt_positioned_reference(cipher, data, position)
            assert decrypt_positioned(
                cipher, data, position
            ) == decrypt_positioned_reference(cipher, data, position)

    def test_round_trips_through_fast_paths(self):
        cipher = Xtea(KEY16)
        rng = random.Random(99)
        for _ in range(8):
            data = bytes(rng.randrange(256) for _ in range(8 * rng.randrange(1, 40)))
            iv = make_iv(rng.randrange(1 << 32))
            position = rng.randrange(0, 1 << 40) & ~7
            assert decrypt_ecb(cipher, encrypt_ecb(cipher, data)) == data
            assert decrypt_cbc(cipher, encrypt_cbc(cipher, data, iv), iv) == data
            assert (
                decrypt_positioned(
                    cipher, encrypt_positioned(cipher, data, position), position
                )
                == data
            )

    def test_position_mask_cache_distinguishes_versions(self):
        """Version-folded positions must never collide in the memoized
        mask cache: the same offsets under different versions decrypt
        under different masks."""
        cipher = Xtea(KEY16)
        data = b"A" * 64
        v0 = encrypt_positioned(cipher, data, versioned_position(128, 0))
        v1 = encrypt_positioned(cipher, data, versioned_position(128, 1))
        assert v0 != v1
        # Repeat calls hit the cache and stay deterministic.
        assert v0 == encrypt_positioned(cipher, data, versioned_position(128, 0))
        assert v1 == encrypt_positioned(cipher, data, versioned_position(128, 1))

    def test_xtea_blocks_api_validates_length(self):
        cipher = Xtea(KEY16)
        with pytest.raises(ValueError):
            cipher.encrypt_blocks(b"123")
        with pytest.raises(ValueError):
            cipher.decrypt_blocks(b"123")
        assert cipher.encrypt_blocks(b"") == b""
        assert cipher.decrypt_blocks(b"") == b""


class TestMerkle:
    def fragments(self, count=8, size=32):
        rng = random.Random(1)
        return [bytes(rng.randrange(256) for _ in range(size)) for _ in range(count)]

    def test_root_changes_with_any_fragment(self):
        fragments = self.fragments()
        tree = MerkleTree(fragments)
        tampered = list(fragments)
        tampered[3] = b"\x00" * 32
        assert MerkleTree(tampered).root != tree.root

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            MerkleTree([b"a", b"b", b"c"])

    def test_single_fragment_tree(self):
        tree = MerkleTree([b"only"])
        assert tree.root == sha1(b"only")

    @pytest.mark.parametrize("requested", [[0], [3], [0, 1], [2, 5], [0, 7], list(range(8))])
    def test_sibling_verification(self, requested):
        fragments = self.fragments()
        tree = MerkleTree(fragments)
        siblings = tree.sibling_hashes(requested)
        ok, recombinations = verify_with_siblings(
            8, {i: fragments[i] for i in requested}, siblings, tree.root
        )
        assert ok
        assert recombinations >= 1 or len(requested) == 8

    def test_paper_figure_f1(self):
        # Fig. F1: access F3 (index 2) of 8 fragments -> terminal sends
        # H4, H12, H5678 (three sibling hashes).
        fragments = self.fragments()
        tree = MerkleTree(fragments)
        siblings = tree.sibling_hashes([2])
        assert len(siblings) == 3
        ok, recombinations = verify_with_siblings(
            8, {2: fragments[2]}, siblings, tree.root
        )
        assert ok and recombinations == 3

    def test_tampered_fragment_fails(self):
        fragments = self.fragments()
        tree = MerkleTree(fragments)
        siblings = tree.sibling_hashes([2])
        ok, _ = verify_with_siblings(8, {2: b"evil" * 8}, siblings, tree.root)
        assert not ok

    def test_tampered_sibling_fails(self):
        fragments = self.fragments()
        tree = MerkleTree(fragments)
        siblings = tree.sibling_hashes([2])
        key = next(iter(siblings))
        siblings[key] = b"\x00" * 20
        ok, _ = verify_with_siblings(8, {2: fragments[2]}, siblings, tree.root)
        assert not ok


class TestChunkLayout:
    def test_defaults_match_paper(self):
        layout = ChunkLayout()
        assert layout.chunk_size == 2048
        assert layout.fragment_size == 256
        assert layout.block_size == 8
        assert layout.fragments_per_chunk == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            ChunkLayout(chunk_size=1000, fragment_size=256)
        with pytest.raises(ValueError):
            ChunkLayout(chunk_size=2048, fragment_size=250)
        with pytest.raises(ValueError):
            ChunkLayout(chunk_size=2048 + 256, fragment_size=256)

    def test_covering_helpers(self):
        layout = ChunkLayout()
        assert list(layout.chunks_covering(0, 1)) == [0]
        assert list(layout.chunks_covering(2047, 2)) == [0, 1]
        assert list(layout.fragments_covering(0, 257)) == [0, 1]
        assert list(layout.fragments_covering(255, 1)) == [0]

    def test_chunk_count(self):
        layout = ChunkLayout()
        assert layout.chunk_count(0) == 0
        assert layout.chunk_count(1) == 1
        assert layout.chunk_count(2048) == 1
        assert layout.chunk_count(2049) == 2


class TestSchemes:
    PLAINTEXT = bytes((i * 37 + 11) % 256 for i in range(5000))

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_round_trip_full_read(self, name):
        scheme = make_scheme(name, key=KEY16)
        document = scheme.protect(self.PLAINTEXT)
        reader = scheme.reader(document, Meter())
        assert reader.read(0, len(self.PLAINTEXT)) == self.PLAINTEXT

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_random_access_reads(self, name):
        scheme = make_scheme(name, key=KEY16)
        document = scheme.protect(self.PLAINTEXT)
        reader = scheme.reader(document, Meter())
        rng = random.Random(3)
        for _ in range(50):
            offset = rng.randrange(len(self.PLAINTEXT))
            length = rng.randrange(1, 200)
            expected = self.PLAINTEXT[offset : offset + length]
            assert reader.read(offset, length) == expected

    @pytest.mark.parametrize("name", ["CBC-SHA", "CBC-SHAC", "ECB-MHT"])
    def test_tampering_detected(self, name):
        scheme = make_scheme(name, key=KEY16)
        document = scheme.protect(self.PLAINTEXT)
        # Flip one bit in the middle of the stored payload.
        document.stored[len(document.stored) // 2] ^= 0x40
        reader = scheme.reader(document, Meter())
        with pytest.raises(IntegrityError):
            reader.read(0, len(self.PLAINTEXT))

    def test_ecb_does_not_detect_tampering(self):
        scheme = make_scheme("ECB", key=KEY16)
        document = scheme.protect(self.PLAINTEXT)
        document.stored[100] ^= 0x01
        reader = scheme.reader(document, Meter())
        data = reader.read(0, len(self.PLAINTEXT))
        assert data != self.PLAINTEXT  # garbled but silently accepted

    @pytest.mark.parametrize("name", ["CBC-SHA", "CBC-SHAC", "ECB-MHT"])
    def test_digest_tampering_detected(self, name):
        scheme = make_scheme(name, key=KEY16)
        document = scheme.protect(self.PLAINTEXT)
        document.stored[0] ^= 0x80  # first digest byte
        reader = scheme.reader(document, Meter())
        with pytest.raises(IntegrityError):
            reader.read(0, 10)

    def test_mht_transfers_less_than_cbc_sha_for_small_reads(self):
        sha_meter, mht_meter = Meter(), Meter()
        for name, meter in [("CBC-SHA", sha_meter), ("ECB-MHT", mht_meter)]:
            scheme = make_scheme(name, key=KEY16)
            document = scheme.protect(self.PLAINTEXT)
            reader = scheme.reader(document, meter)
            reader.read(10, 16)  # one small read
        assert mht_meter.bytes_transferred < sha_meter.bytes_transferred
        assert mht_meter.bytes_decrypted < sha_meter.bytes_decrypted

    def test_shac_decrypts_less_than_sha(self):
        sha_meter, shac_meter = Meter(), Meter()
        for name, meter in [("CBC-SHA", sha_meter), ("CBC-SHAC", shac_meter)]:
            scheme = make_scheme(name, key=KEY16)
            document = scheme.protect(self.PLAINTEXT)
            reader = scheme.reader(document, meter)
            reader.read(10, 16)
        assert shac_meter.bytes_decrypted < sha_meter.bytes_decrypted
        assert shac_meter.bytes_transferred == sha_meter.bytes_transferred

    def test_costs_charged_once_per_cached_chunk(self):
        scheme = make_scheme("ECB-MHT", key=KEY16)
        document = scheme.protect(self.PLAINTEXT)
        meter = Meter()
        reader = scheme.reader(document, meter)
        reader.read(0, 16)
        first = meter.bytes_transferred
        reader.read(0, 16)  # same fragment, same chunk: cached
        assert meter.bytes_transferred == first

    def test_secure_bytes_view(self):
        scheme = make_scheme("ECB-MHT", key=KEY16)
        document = scheme.protect(self.PLAINTEXT)
        view = SecureBytes(scheme.reader(document, Meter()))
        assert len(view) == len(self.PLAINTEXT)
        assert view[0] == self.PLAINTEXT[0]
        assert view[100:140] == self.PLAINTEXT[100:140]
        assert view[-1] == self.PLAINTEXT[-1]

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            make_scheme("ROT13")

    def test_equal_plaintext_blocks_hidden_in_store(self):
        scheme = make_scheme("ECB", key=KEY16)
        document = scheme.protect(b"SAMEBLK!" * 16)
        stored = bytes(document.stored)
        blocks = {stored[i : i + 8] for i in range(0, 128, 8)}
        assert len(blocks) == 16
