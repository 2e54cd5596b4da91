"""Integrity schemes under attack: a small security audit.

Demonstrates Section 6 / Appendix A: position-XOR encryption hides
equal plaintext blocks and defeats block relocation; the Merkle-tree
scheme detects every tampering attempt while transferring only the
fragments the SOE actually reads; plain ECB silently accepts garbage.

Run with::

    python examples/integrity_audit.py
"""

import random

from repro.crypto.integrity import IntegrityError, make_scheme
from repro.datasets import HospitalConfig, generate_hospital, secretary_policy
from repro.engine import evaluate_document, prepare_document
from repro.metrics import Meter

KEY = bytes(range(16))


def attack(document, mutate, label: str) -> None:
    """Apply ``mutate`` to a fresh protected copy and try to read it."""
    mutate(document.stored)
    scheme = document.scheme
    reader = scheme.reader(document, Meter())
    try:
        reader.read(0, document.plaintext_size)
    except IntegrityError as error:
        print("  %-28s DETECTED (%s)" % (label, error))
    else:
        print("  %-28s *** NOT DETECTED ***" % label)


def main() -> None:
    rng = random.Random(0)
    plaintext = bytes(rng.randrange(256) for _ in range(6000))

    print("Scheme behaviour under tampering (6 KB document):")
    for name in ["ECB-MHT", "CBC-SHA", "CBC-SHAC"]:
        print("%s:" % name)
        scheme = make_scheme(name, key=KEY)

        def flip_payload(stored):
            stored[len(stored) // 2] ^= 0x20

        def flip_digest(stored):
            stored[1] ^= 0x80

        def swap_blocks(stored):
            a, b = len(stored) // 2, len(stored) // 2 + 8
            stored[a : a + 8], stored[b : b + 8] = (
                stored[b : b + 8],
                stored[a : a + 8],
            )

        attack(scheme.protect(plaintext), flip_payload, "bit flip in payload")
        attack(scheme.protect(plaintext), flip_digest, "bit flip in digest")
        attack(scheme.protect(plaintext), swap_blocks, "ciphertext block swap")

    print("ECB (confidentiality only):")
    scheme = make_scheme("ECB", key=KEY)
    document = scheme.protect(plaintext)
    document.stored[64] ^= 0x01
    data = scheme.reader(document, Meter()).read(0, len(plaintext))
    print(
        "  bit flip in payload          accepted silently "
        "(plaintext garbled: %s)" % (data != plaintext)
    )

    # Equal blocks are hidden even in ECB mode (position XOR):
    repeated = scheme.protect(b"SAMEBLOCK" * 64 + b"\x00" * 7)
    stored = bytes(repeated.stored)
    blocks = {stored[i : i + 8] for i in range(0, 256, 8)}
    print(
        "  equal plaintext blocks map to %d distinct ciphertext blocks"
        % len(blocks)
    )

    # End-to-end: a tampered hospital document cannot serve any view.
    print("\nEnd-to-end detection inside an SOE session:")
    hospital = generate_hospital(HospitalConfig(folders=10, seed=1))
    prepared = prepare_document(hospital, scheme="ECB-MHT", key=KEY)
    prepared.secure.stored[prepared.stored_size // 2] ^= 0x04
    try:
        evaluate_document(prepared, secretary_policy(), use_skip_index=False)
    except IntegrityError as error:
        print("  session aborted: %s" % error)


if __name__ == "__main__":
    main()
