"""The paper's motivating example: medical folders with three profiles.

Generates the Hospital document of Fig. 1 and serves the Secretary,
Doctor and Researcher policies from one :class:`repro.engine.
SecureStation` — the multi-client SOE: the document is published once,
each profile's rules compile once into a cached plan, and a whole
shift of clients reuses those plans.  A miniature of the paper's
Section 7 evaluation, server edition.

Run with::

    python examples/hospital_views.py
"""

from repro.datasets import (
    HospitalConfig,
    doctor_policy,
    generate_hospital,
    researcher_policy,
    secretary_policy,
)
from repro.engine import SecureStation
from repro.soe.session import lwb_seconds
from repro.xmlkit.events import OPEN, TEXT


def describe_view(events) -> str:
    opens = sum(1 for event in events if event[0] == OPEN)
    text_bytes = sum(len(event[1]) for event in events if event[0] == TEXT)
    tags = sorted({event[1] for event in events if event[0] == OPEN})
    shown = ", ".join(tags[:9]) + ("..." if len(tags) > 9 else "")
    return "%4d elements, %6d text bytes, tags: %s" % (opens, text_bytes, shown)


def main() -> None:
    document = generate_hospital(HospitalConfig(folders=60, doctors=8, seed=2))

    station = SecureStation(context="smartcard")
    prepared = station.publish("hospital", document, scheme="ECB-MHT")
    print(
        "Hospital document: %d elements, %d bytes encoded, %d bytes stored"
        % (document.count_elements(), prepared.encoded_size, prepared.stored_size)
    )

    profiles = [
        ("Secretary", secretary_policy()),
        ("Doctor (doctor0)", doctor_policy("doctor0")),
        ("Researcher", researcher_policy()),
    ]
    print()
    print("Per-request serving (one Skip-index pass per profile):")
    for name, policy in profiles:
        result = station.evaluate("hospital", policy)
        lwb = lwb_seconds(result.events, "smartcard", with_integrity=True)
        print("%-18s %s" % (name, describe_view(result.events)))
        print(
            "%-18s simulated %.3f s (LWB oracle %.3f s, x%.2f), "
            "%d subtrees skipped, %d pending read-backs"
            % (
                "",
                result.seconds,
                lwb,
                result.seconds / lwb if lwb else float("inf"),
                result.meter.skipped_subtrees,
                result.meter.deferred_subtrees,
            )
        )
        print()

    # A whole shift of clients: every returning policy reuses its
    # compiled plan from the station's plan cache.
    cohort = [secretary_policy(), researcher_policy()] + [
        doctor_policy("doctor%d" % index) for index in range(6)
    ]
    for policy in cohort:
        station.evaluate("hospital", policy)
    cache = station.stats
    print(
        "Plan cache: %d hits / %d misses (policies compiled once, reused since)"
        % (cache.plan_hits, cache.plan_misses)
    )

    # The Doctor's view depends on the USER binding: compare physicians.
    print("\nPer-physician view sizes (rule D2 binds USER):")
    for doctor in ["doctor0", "doctor3", "doctor7"]:
        result = station.evaluate("hospital", doctor_policy(doctor))
        print(
            "  %-8s -> %5d events, %6d bytes delivered"
            % (doctor, len(result.events), result.result_bytes)
        )


if __name__ == "__main__":
    main()
