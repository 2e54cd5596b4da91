"""Fig. 9 — access-control overhead: BF vs TCSBR vs LWB per profile.

Paper's findings that must reproduce:

* Brute-Force is dramatically slower (it reads and decrypts the whole
  document): 3.5x-15x the LWB depending on the profile's selectivity;
* TCSBR is close to the (unreachable) LWB;
* the Researcher pays the largest relative overhead (predicates on
  Protocol remain pending until each folder's end);
* the cost split is dominated by decryption, then communication, with
  access control at a few percent (2-15 % in the paper).
"""

from conftest import print_experiment

from repro.bench.experiments import fig9_access_control
from repro.engine import evaluate_document


def test_fig9_access_control(workloads, benchmark):
    data = benchmark.pedantic(
        lambda: fig9_access_control(workloads), rounds=1, iterations=1
    )
    print_experiment("Figure 9 - access control overhead", data)
    rows = {row[0]: row for row in data["rows"]}

    for profile in ["secretary", "doctor", "researcher"]:
        bf, tcsbr, lwb = rows[profile][1], rows[profile][2], rows[profile][3]
        assert bf > 2.5 * tcsbr, profile  # the index pays off massively
        assert tcsbr > lwb, profile  # LWB is a true lower bound

    # Selective profiles gain the most from skipping (paper: secretary
    # BF/LWB ~ 15, doctor ~ 3.5).
    assert rows["secretary"][4] > rows["doctor"][4]
    # The researcher has the largest TCSBR/LWB overhead (pending
    # predicates force buffering and read-back).
    assert rows["researcher"][5] > rows["secretary"][5]
    assert rows["researcher"][5] > rows["doctor"][5]


def test_fig9_cost_split(workloads):
    data = fig9_access_control(workloads)
    for profile, detail in data["details"].items():
        shares = detail["tcsbr"].breakdown.shares()
        # Decryption dominates, then communication, AC a few percent.
        assert shares["decryption"] > shares["communication"], profile
        assert shares["communication"] > shares["access_control"], profile
        assert shares["access_control"] < 0.20, profile


def test_fig9_tcsbr_session_kernel(workloads, benchmark):
    """Wall-clock of one full TCSBR secretary session (not simulated)."""
    prepared = workloads.prepared("hospital", "ECB")
    policy = workloads.profile("secretary")

    def kernel():
        return evaluate_document(prepared, policy)

    result = benchmark.pedantic(kernel, rounds=1, iterations=1)
    assert result.events
