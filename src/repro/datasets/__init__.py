"""Dataset generators.

The paper evaluates on one synthetic document (Hospital, generated with
ToXgene following the schema of Fig. 1) and three real documents from
the UW XML repository (WSU, Sigmod Record, Treebank).  The real
datasets are not redistributable here, so we generate *synthetic
equivalents* matching the characteristics the paper reports in Table 2
(size, text share, depth distribution, number of distinct tags,
recursion) — the quantities that drive every measured effect (index
ratios in Fig. 8, throughput in Fig. 12).

* :mod:`repro.datasets.hospital` — the Hospital document + the
  Secretary/Doctor/Researcher access-control policies of Fig. 1;
* :mod:`repro.datasets.real` — WSU / Sigmod / Treebank substitutes;
* :mod:`repro.datasets.policies` — random access-control policies for
  the Fig. 12 experiment.

Only the Hospital names are re-exported: the serving process loads
this package, and the two benchmark-only modules are imported from
their submodules.
"""

from repro.datasets.hospital import (
    HospitalConfig,
    doctor_policy,
    generate_hospital,
    researcher_policy,
    secretary_policy,
)

__all__ = [
    "HospitalConfig",
    "generate_hospital",
    "secretary_policy",
    "doctor_policy",
    "researcher_policy",
]
