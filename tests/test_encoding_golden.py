"""Golden bytes for the publisher pipeline.

The encoding pins hold what the bit-by-bit encoder that preceded the
byte-aligned one produced too.  The Skip-index encoding, its root
offset and its text/dictionary accounting are the publish-time output a
stored document is made of: they may only change together with the
encoding's format version.  The structural-index blob is pinned apart
(``GOLDEN_INDEX``, ``GOLDEN_*_INDEX``), because it has a format version
of its own: a blob format change moves only those pins.
"""

import hashlib
import random

import pytest

from repro.datasets.hospital import HospitalConfig, generate_hospital
from repro.skipindex.encoder import encode_document
from repro.skipindex.structural import build_structural_index, parse_structural_index
from repro.skipindex.updates import reencode_after
from repro.xmlkit.dom import Node
from repro.xmlkit.parser import parse_document


def _sha(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()


def _fingerprint(encoded):
    return (
        _sha(encoded.data),
        encoded.root_offset,
        encoded.stats.text_bytes,
        encoded.stats.dictionary_bytes,
    )


def _hospital(folders: int, seed: int) -> Node:
    # The shape of the serving benchmark's documents.
    return generate_hospital(
        HospitalConfig(
            folders=folders,
            doctors=4,
            acts_per_folder=3,
            labresults_per_folder=2,
            seed=seed,
        )
    )


def _random_tree(rng: random.Random) -> Node:
    tags = ["a", "b", "c", "d", "e", "f", "g", "h", "i"]
    texts = ["", "t", "42", "longer text", "été", "x" * 300]
    budget = [rng.randint(1, 120)]

    def build(depth: int) -> Node:
        node = Node(rng.choice(tags))
        while budget[0] > 0 and rng.random() < (0.8 if depth < 6 else 0.2):
            budget[0] -= 1
            if rng.random() < 0.4:
                node.children.append(rng.choice(texts))
            else:
                node.children.append(build(depth + 1))
        return node

    return build(0)


def _power_of_two_tree(pad: int) -> Node:
    # The root's content is 255 bytes at pad=241 and 257 at pad=242:
    # crossing 256 widens <c>'s size field from 8 to 9 bits, which grows
    # its header by a byte, so the sizing must iterate past 256.
    return parse_document(
        "<r><c><d>x</d><e>y</e><f>z</f></c>" + "t" * pad + "</r>"
    )


def _grown():
    old = _hospital(4, 7)
    new = _hospital(4, 7)
    new.children[0].children.insert(1, Node("Brand-new", ["fresh text"]))
    encoded, grew = reencode_after(encode_document(old), new)
    assert grew
    return encoded


SINGLE = {
    "hot-views": lambda: encode_document(_hospital(8, 7)),
    "corpus-0": lambda: encode_document(_hospital(4, 7)),
    "corpus-1": lambda: encode_document(_hospital(4, 8)),
    "corpus-2": lambda: encode_document(_hospital(4, 9)),
    "corpus-3": lambda: encode_document(_hospital(4, 10)),
    "reencode-grown": _grown,
    "pow2-below": lambda: encode_document(_power_of_two_tree(241)),
    "pow2-above": lambda: encode_document(_power_of_two_tree(242)),
    "attributes": lambda: encode_document(
        parse_document('<a k="v"><b j="1" i="">x<c/>y</b><b>z</b>tail</a>')
    ),
}

GOLDEN = {
    "attributes": (
        "6d90030945065bcc3cc81d056e23da1b0cfd3c0118bac6883c91744569b542b3",
        21,
        9,
        21,
    ),
    "corpus-0": (
        "3a13dd65056ccd90897b15e58c63594778c84555828e56ee49b2111e9f437f49",
        234,
        5703,
        234,
    ),
    "corpus-1": (
        "b85e1bd913aca9116d1d4d9cd447a87ae2740cb73f2bc8b92be5cb3fa9337eaf",
        247,
        5131,
        247,
    ),
    "corpus-2": (
        "fda11d74a0f4cd735358dcc9bdf84cfda01c50ce143aadc0571f2e7edc1afb24",
        250,
        5302,
        250,
    ),
    "corpus-3": (
        "f5f0ab013521258d4eb1f58824968b1657fcfe9100f727d27f9cbe0638d62aea",
        248,
        5835,
        248,
    ),
    "hot-views": (
        "6957326d9433afd76976dd710850882370e4206ffae697b38aeae8424dcfb604",
        254,
        10147,
        254,
    ),
    "pow2-above": (
        "c8ec1a5eb4da550ab0e1f4a6fefba98d203888b20ec829d4b6cf1b9dfae85db1",
        16,
        245,
        16,
    ),
    "pow2-below": (
        "092d4c7f16fae23f487b7c35850c30b9ba7b488db32b4a7e39e652a74a5b6010",
        16,
        244,
        16,
    ),
    "reencode-grown": (
        "1774e76cd1f078fabfe58729d05d011a549ffad84273b052a40024b0c9b48474",
        244,
        5713,
        244,
    ),
}
#: sha256 of each document's structural-index blob and its bytes.
GOLDEN_INDEX = {
    "attributes": (
        "c480872bd8fc89968108d436ce8a4fa7ca553debf27a958f8b4584e4bda566ca",
        30,
    ),
    "corpus-0": (
        "2c14694f55d7fb4e5f6483f7d9176cb9c9534f2b41319c8917fd5d01e60a176c",
        427,
    ),
    "corpus-1": (
        "c5e4c5a5e9cf0de5c57701f738e2c78c80294fe8090f1604a3ef23a8a7361591",
        428,
    ),
    "corpus-2": (
        "33abc887add5c2c4e1610c06b640708cbba3e9777f70cd1b581daa42d9737b13",
        469,
    ),
    "corpus-3": (
        "aa41197b495ceb9c5bcd5a700098db583ed896c2b33ceec5dded36fcbb209b83",
        466,
    ),
    "hot-views": (
        "6a3bf19741e4dd29f00abf9d94687712238576569f68c1e7a68a01979a8ab128",
        793,
    ),
    "pow2-above": (
        "a229b7ba4fbc04c8312e418126b88046985a574879e9df8541fc8f09c6e43c4a",
        25,
    ),
    "pow2-below": (
        "c9a5a686e4939a72b345af7c5c67f900f47cffed979ddfc59bb338d7c3c3f6b3",
        25,
    ),
    "reencode-grown": (
        "252f4816b8ec97115e86bf8dbd06cafaecc84a60884dc5f58f182d1590bac82d",
        429,
    ),
}
#: sha256 over the encodings and root offsets, text bytes, dictionary
#: bytes.
GOLDEN_CORPUS = (
    "6af3519ffe4b71ea15ddbe1f99063156f1bac3f1e4b9c4b711fd76927a333767",
    735967,
    31679,
)
GOLDEN_RANDOM = (
    "e6416fd052dea2ff227e7a9a980397a3e4290b9e0f0fe499c69faa8294a0fbe7",
    120572,
    2588,
)
#: sha256 over the structural-index blobs, in order, and their total
#: bytes.
GOLDEN_CORPUS_INDEX = (
    "adb9ff4056d269ae8180a255e59d3dba6cc1d62b709cba8dac9d9ddd57e8bf48",
    58536,
)
GOLDEN_RANDOM_INDEX = (
    "36fa5b92049d0fd17d8553e641cc5969e35212f78ac2a23ca2d47a6211feaec7",
    13529,
)


def _cold_corpus():
    # All 128 document shapes of the cold-corpus workload.
    return [encode_document(_hospital(4, 7 + index)) for index in range(128)]


def _random_trees():
    rng = random.Random(20240417)
    return [encode_document(_random_tree(rng)) for _ in range(150)]


def _digest_encodings(encodings):
    digest = hashlib.sha256()
    text = dictionary = 0
    for encoded in encodings:
        digest.update(bytes(encoded.data))
        digest.update(b"%d|" % encoded.root_offset)
        text += encoded.stats.text_bytes
        dictionary += encoded.stats.dictionary_bytes
    return digest.hexdigest(), text, dictionary


def _digest_blobs(encodings):
    # The blob a document persists; it parses back to the index built
    # at publish, every column, bitmap and parent link included.
    digest = hashlib.sha256()
    total = 0
    for encoded in encodings:
        index = build_structural_index(encoded)
        blob = index.to_bytes()
        assert parse_structural_index(blob, encoded) == index
        digest.update(blob)
        total += len(blob)
    return digest.hexdigest(), total


@pytest.mark.parametrize("name", sorted(SINGLE))
def test_encoding_matches_golden(name):
    assert _fingerprint(SINGLE[name]()) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SINGLE))
def test_index_blob_matches_golden(name):
    assert _digest_blobs([SINGLE[name]()]) == GOLDEN_INDEX[name]


def test_cold_corpus_matches_golden():
    assert _digest_encodings(_cold_corpus()) == GOLDEN_CORPUS


def test_cold_corpus_index_blobs_match_golden():
    pins = _digest_blobs(_cold_corpus())
    # A blob stores only what the encoding cannot re-derive (version 1,
    # which stored starts, header lengths and bitmaps, took 146,404 B).
    assert pins[1] <= 60_000
    assert pins == GOLDEN_CORPUS_INDEX


def test_random_trees_match_golden():
    assert _digest_encodings(_random_trees()) == GOLDEN_RANDOM


def test_random_tree_index_blobs_match_golden():
    assert _digest_blobs(_random_trees()) == GOLDEN_RANDOM_INDEX


def test_power_of_two_crossing_iterates_the_local_fixpoint():
    # Width 0 -> 8 (255 bytes) settles; above 256 a third round moves the
    # root's width to 9 bits and grows <c>'s header by a byte.
    below = encode_document(_power_of_two_tree(241))
    above = encode_document(_power_of_two_tree(242))
    assert (below.stats.fixpoint_rounds, above.stats.fixpoint_rounds) == (2, 3)
