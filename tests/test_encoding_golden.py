"""Golden bytes for the publisher pipeline.

Every value below was captured from the bit-by-bit encoder and index
builder that preceded the byte-aligned ones.  The Skip-index encoding,
its root offset, its text/dictionary accounting and the structural
index blob are the publish-time output a stored document is made of:
they may only change together with the format version.
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
        _sha(build_structural_index(encoded).to_bytes()),
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
        "0a75531d89740156378ac270a356af8bad6cc03ba487bf22cc3c2ac234bc132b",
    ),
    "corpus-0": (
        "3a13dd65056ccd90897b15e58c63594778c84555828e56ee49b2111e9f437f49",
        234,
        5703,
        234,
        "dbbf5c6b29e6316af97bb649aaa1027fac8ad6812e69748c7bba64607c3d41c0",
    ),
    "corpus-1": (
        "b85e1bd913aca9116d1d4d9cd447a87ae2740cb73f2bc8b92be5cb3fa9337eaf",
        247,
        5131,
        247,
        "6a9b91426e4260d64051c7b761ec434a01c5111cee00745ff287cc01c3fcd014",
    ),
    "corpus-2": (
        "fda11d74a0f4cd735358dcc9bdf84cfda01c50ce143aadc0571f2e7edc1afb24",
        250,
        5302,
        250,
        "6ddf4de87daca9414d92930b02c2b432da35cc1cff64bf00fa4ec8c13dbb4278",
    ),
    "corpus-3": (
        "f5f0ab013521258d4eb1f58824968b1657fcfe9100f727d27f9cbe0638d62aea",
        248,
        5835,
        248,
        "1d4d53a3617d23aff0025b69e4dbb563f7bd6dfcf66b571834aa566ecc18fb4b",
    ),
    "hot-views": (
        "6957326d9433afd76976dd710850882370e4206ffae697b38aeae8424dcfb604",
        254,
        10147,
        254,
        "7b41fe5bc7416917dc3ee51cf2635b22bf029623d3ce80fbd00e7748f3db962a",
    ),
    "pow2-above": (
        "c8ec1a5eb4da550ab0e1f4a6fefba98d203888b20ec829d4b6cf1b9dfae85db1",
        16,
        245,
        16,
        "2ed3c477186401b99fa7161b62619c9b72241d8276b16930dd67ae768436f4a9",
    ),
    "pow2-below": (
        "092d4c7f16fae23f487b7c35850c30b9ba7b488db32b4a7e39e652a74a5b6010",
        16,
        244,
        16,
        "4b9107b1e1b25398e6b7d6ac0cfc0e03456ba1746f004768d43b74c32bf64328",
    ),
    "reencode-grown": (
        "1774e76cd1f078fabfe58729d05d011a549ffad84273b052a40024b0c9b48474",
        244,
        5713,
        244,
        "b81be1368a4d6521b1849048a4d2c2b93d7f252c8eba593c3c5bf607e575d2b1",
    ),
}
GOLDEN_CORPUS = (
    "c28d768febb2fc28f9a1e392e55e1a6b9e05f5cbf9296368729c7b34c479958c",
    735967,
    31679,
)
#: sha256 over the 128 cold-corpus structural-index blobs, in order.
GOLDEN_CORPUS_INDEX = "86c108945160ba91e20dac9359f2f7d39330e1a3498700ee5af6beb858e4ef05"
GOLDEN_RANDOM = (
    "b79f5e01918d2fd941ea97836f9d66a44af67768bd89baa3caeac5f525507981",
    120572,
    2588,
)


@pytest.mark.parametrize("name", sorted(SINGLE))
def test_encoding_matches_golden(name):
    assert _fingerprint(SINGLE[name]()) == GOLDEN[name]


def _digest_all(encodings):
    digest = hashlib.sha256()
    text = dictionary = 0
    for encoded in encodings:
        digest.update(bytes(encoded.data))
        digest.update(build_structural_index(encoded).to_bytes())
        digest.update(b"%d|" % encoded.root_offset)
        text += encoded.stats.text_bytes
        dictionary += encoded.stats.dictionary_bytes
    return digest.hexdigest(), text, dictionary


def test_cold_corpus_matches_golden():
    # All 128 document shapes of the cold-corpus workload.
    encodings = (encode_document(_hospital(4, 7 + index)) for index in range(128))
    assert _digest_all(encodings) == GOLDEN_CORPUS


def test_cold_corpus_index_blobs_match_golden():
    # The blob a cold-corpus document persists, whether its index was
    # built at publish or parsed back from the store.
    digest = hashlib.sha256()
    for index in range(128):
        encoded = encode_document(_hospital(4, 7 + index))
        blob = build_structural_index(encoded).to_bytes()
        assert parse_structural_index(blob).to_bytes() == blob
        digest.update(blob)
    assert digest.hexdigest() == GOLDEN_CORPUS_INDEX


def test_random_trees_match_golden():
    rng = random.Random(20240417)
    encodings = (encode_document(_random_tree(rng)) for _ in range(150))
    assert _digest_all(encodings) == GOLDEN_RANDOM


def test_power_of_two_crossing_iterates_the_local_fixpoint():
    # Width 0 -> 8 (255 bytes) settles; above 256 a third round moves the
    # root's width to 9 bits and grows <c>'s header by a byte.
    below = encode_document(_power_of_two_tree(241))
    above = encode_document(_power_of_two_tree(242))
    assert (below.stats.fixpoint_rounds, above.stats.fixpoint_rounds) == (2, 3)
