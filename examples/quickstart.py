"""Quickstart: evaluate access-control rules on an XML document.

Builds a tiny document, attaches a policy of positive and negative
rules, and prints the authorized view — first through the plain
streaming evaluator, then through the full secure pipeline (Skip-index
encoding + encryption + integrity + SOE simulation).

Run with::

    python examples/quickstart.py
"""

from repro import (
    AccessRule,
    Policy,
    authorized_view,
    compile_policy,
    evaluate_document,
    prepare_document,
)
from repro.xmlkit import parse_document, serialize_events

DOCUMENT = """
<library>
  <book>
    <title>Streaming XML Security</title>
    <price>42</price>
    <review author="alice">Excellent coverage of smart cards.</review>
    <internal>margin 37%</internal>
  </book>
  <book>
    <title>Databases on Untrusted Servers</title>
    <price>18</price>
    <internal>margin 12%</internal>
  </book>
</library>
"""


def main() -> None:
    document = parse_document(DOCUMENT)

    # <sign, subject, object> rules; the object is an XP{[],*,//} path.
    policy = Policy(
        [
            AccessRule("+", "//book", name="allow-books"),
            AccessRule("-", "//internal", name="hide-internals"),
            AccessRule("-", "//book[price > 40]/review", name="hide-premium-reviews"),
        ],
        subject="visitor",
    )

    # The rules compile once into a reusable plan (parse + NFA build);
    # everything after this line only walks precompiled automata.
    plan = compile_policy(policy)

    # 1. Pure streaming evaluation (no crypto) -------------------------
    view = authorized_view(document, plan)
    print("Authorized view (streaming evaluator):")
    print("  " + serialize_events(view))

    # 2. The same through the secure pipeline of the paper -------------
    # publisher half: parse -> Skip-index encode -> encrypt/digest
    prepared = prepare_document(document, scheme="ECB-MHT")
    print(
        "\nEncoded size: %d bytes, stored (encrypted+digests): %d bytes"
        % (prepared.encoded_size, prepared.stored_size)
    )
    # SOE half: decrypt + verify -> Skip-index decode -> evaluate
    # (with the same plan)
    result = evaluate_document(prepared, plan, context="smartcard")
    assert result.events == view, "secure pipeline must agree"
    print("Secure SOE session produced the identical view.")
    print(
        "Simulated smart-card time: %.4f s "
        "(communication %.4f, decryption %.4f, access control %.4f, "
        "integrity %.4f)"
        % (
            result.breakdown.total,
            result.breakdown.communication,
            result.breakdown.decryption,
            result.breakdown.access_control,
            result.breakdown.integrity,
        )
    )
    print(
        "Bytes transferred into the SOE: %d of %d stored (%.0f%% skipped)"
        % (
            result.meter.bytes_transferred,
            prepared.stored_size,
            100.0 * result.meter.skipped_bytes / max(1, prepared.encoded_size),
        )
    )


if __name__ == "__main__":
    main()
