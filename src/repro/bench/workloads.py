"""Benchmark-scale documents and policies, built once and shared.

The paper's documents range from 350 KB (Sigmod) to 59 MB (Treebank);
a pure-Python pipeline cannot chew 59 MB in a benchmark suite, so every
document is scaled down while preserving its *shape* (Table 2 ratios,
depth profile, tag alphabet).  The scale factors below give documents
of roughly 20 KB–500 KB encoded, which exercise hundreds of chunks —
enough for every effect the paper measures (skip locality, chunk
granularity, pending read-backs) to be visible.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.accesscontrol.model import Policy
from repro.datasets import (
    HospitalConfig,
    doctor_policy,
    generate_hospital,
    researcher_policy,
    secretary_policy,
)
from repro.datasets.policies import random_policy_for
from repro.datasets.real import generate_sigmod, generate_treebank, generate_wsu
from repro.datasets.hospital import GROUPS
from repro.engine.plans import PolicyPlan, compile_policy
from repro.skipindex.encoder import EncodedDocument, encode_document
from repro.engine.pipeline import prepare_document
from repro.soe.session import PreparedDocument
from repro.xmlkit.dom import Node


class Workloads:
    """Lazily-built, memoized benchmark inputs."""

    #: (folders, doctors) for the benchmark Hospital document.
    HOSPITAL_CONFIG = HospitalConfig(
        folders=400, doctors=12, acts_per_folder=6, seed=42
    )
    WSU_SCALE = 2.0
    SIGMOD_SCALE = 4.0
    TREEBANK_SCALE = 1.5

    _instance: Optional["Workloads"] = None

    def __init__(self):
        self._documents: Dict[str, Node] = {}
        self._encoded: Dict[str, EncodedDocument] = {}
        self._prepared: Dict[Tuple[str, str], PreparedDocument] = {}
        self._plans: Dict[str, PolicyPlan] = {}

    @classmethod
    def shared(cls) -> "Workloads":
        """Process-wide instance (documents are expensive to rebuild)."""
        if cls._instance is None:
            cls._instance = cls()
        return cls._instance

    # ------------------------------------------------------------------
    def document(self, name: str) -> Node:
        if name not in self._documents:
            if name == "hospital":
                self._documents[name] = generate_hospital(self.HOSPITAL_CONFIG)
            elif name == "wsu":
                self._documents[name] = generate_wsu(self.WSU_SCALE)
            elif name == "sigmod":
                self._documents[name] = generate_sigmod(self.SIGMOD_SCALE)
            elif name == "treebank":
                self._documents[name] = generate_treebank(self.TREEBANK_SCALE)
            else:
                raise KeyError("unknown document %r" % name)
        return self._documents[name]

    def encoded(self, name: str) -> EncodedDocument:
        if name not in self._encoded:
            self._encoded[name] = encode_document(self.document(name))
        return self._encoded[name]

    def prepared(self, name: str, scheme: str = "ECB") -> PreparedDocument:
        key = (name, scheme)
        if key not in self._prepared:
            self._prepared[key] = prepare_document(self.document(name), scheme=scheme)
        return self._prepared[key]

    # ------------------------------------------------------------------
    # The profiles of Section 7
    # ------------------------------------------------------------------
    def profile(self, name: str) -> Policy:
        if name == "secretary":
            return secretary_policy()
        if name == "doctor":
            return doctor_policy("doctor0")
        if name == "researcher":
            return researcher_policy()  # all 10 protocol groups
        # Fig. 10's five views:
        if name == "part-time-doctor":
            # Few patients: a physician id that rarely signs acts.
            return doctor_policy("doctor11")
        if name == "full-time-doctor":
            return doctor_policy("doctor0")
        if name == "junior-researcher":
            return researcher_policy(GROUPS[:1])
        if name == "senior-researcher":
            return researcher_policy(GROUPS[:5])
        raise KeyError("unknown profile %r" % name)

    def plan(self, name: str) -> PolicyPlan:
        """Compiled (memoized) plan of a Section 7 profile — the form
        the benchmark sessions consume, so no experiment ever pays
        rule compilation inside its measured region twice."""
        if name not in self._plans:
            self._plans[name] = compile_policy(self.profile(name))
        return self._plans[name]

    def random_policy(self, document: str, rules: int = 8, seed: int = 1) -> Policy:
        return random_policy_for(self.document(document), rules=rules, seed=seed)
