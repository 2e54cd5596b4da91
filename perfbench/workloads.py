"""The four serving workloads: documents, grants and seeded request streams.

Both sides of the benchmark import this module.  The serving process
(``perfbench.serving``) publishes the documents it generates; the client
side (``perfbench.client``) regenerates the same documents from the same seed
for its correctness oracle and draws its requests from seeded streams.
The program under test only ever sees the generated XML and the wire
requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro import UpdateOp
from repro.datasets.hospital import (
    GROUPS,
    HospitalConfig,
    doctor_policy,
    generate_hospital,
    researcher_policy,
    secretary_policy,
)
from repro.xmlkit.dom import Node
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serializer import serialize

#: The three paper profiles, as ``hospital_station``/``hospital_cluster``
#: grant them (doctor0, researcher on G1-G3).
SUBJECTS = ("secretary", "doctor0", "researcher")
SCHEMES = ("ECB-MHT", "CBC-SHAC", "CBC-SHA", "ECB")
AGE_QUERY = "//Folder/Admin/Age"
DIAGNOSTIC_QUERY = "//MedActs//Diagnostic"
#: The generator seed of document 0's shape (``hospital_station``'s).
SHAPE_SEED = 7

#: Leaves whose text a write-mix update may rewrite.  Predicate fields
#: (RPhys, Type, Cholesterol) are left alone so the mix keeps every
#: subject's view the same size over a run.
EDITABLE_TAGS = frozenset(
    (
        "SSN",
        "Fname",
        "Lname",
        "Age",
        "Address",
        "Insurance",
        "VitalSigns",
        "Symptoms",
        "Diagnostic",
        "Comments",
        "Observations",
        "Notes",
    )
)


def policies():
    """The grant of every subject, keyed by subject."""
    granted = (
        secretary_policy(),
        doctor_policy("doctor0"),
        researcher_policy(GROUPS[:3]),
    )
    return {policy.subject: policy for policy in granted}


@dataclass(frozen=True)
class Workload:
    """One traffic mix; why each exists is stated in BENCHMARK.json."""

    name: str
    folders: int
    documents: int
    #: Schemes assigned round-robin over the documents.
    schemes: Tuple[str, ...]
    queries: Tuple[Optional[str], ...]
    #: ``"memory"``, ``"log"`` or ``"cluster"`` (2 backends, 2 replicas).
    store: str
    #: LogStore page-cache budget in bytes (``None``: the store default).
    cache_bytes: Optional[int] = None
    update_share: float = 0.0
    #: Updates go to the first ``written`` documents only.
    written: int = 0
    #: Stream units in the sequential pass that yields the count metrics.
    count_units: int = 300


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="hot-views",
            folders=8,
            documents=1,
            schemes=("ECB-MHT",),
            queries=(None, AGE_QUERY),
            store="memory",
        ),
        Workload(
            name="cold-corpus",
            folders=4,
            documents=128,
            schemes=SCHEMES,
            queries=(None, AGE_QUERY, DIAGNOSTIC_QUERY),
            store="log",
            cache_bytes=256 * 1024,
        ),
        Workload(
            name="write-mix",
            folders=4,
            documents=4,
            schemes=SCHEMES,
            queries=(None,),
            store="log",
            update_share=0.2,
            # Two documents stay read-only, so about two views in three
            # hit the cache.  With all four written the hit share sits
            # near one half, where the median swings between the two.
            written=2,
            count_units=250,
        ),
        Workload(
            name="gateway-views",
            folders=4,
            documents=4,
            schemes=("ECB-MHT",),
            queries=(None,),
            store="cluster",
            count_units=200,
        ),
    )
}


@dataclass(frozen=True)
class Document:
    id: str
    xml: str
    scheme: str


def hospital_config(folders: int, seed: int) -> HospitalConfig:
    # The shape hospital_station/hospital_cluster use.
    return HospitalConfig(
        folders=folders,
        doctors=4,
        acts_per_folder=3,
        labresults_per_folder=2,
        seed=seed,
    )


def document_id(workload: Workload, index: int) -> str:
    if workload.store == "cluster":
        # hospital_cluster's naming.
        return "hospital" if index == 0 else "hospital%d" % (index + 1)
    return "doc%03d" % index


def documents(workload: Workload, seed: int) -> List[Document]:
    """Generate the workload's documents.

    Document ``i`` has one shape whatever the seed: the hospital
    generator's document for ``SHAPE_SEED + i``, with its elements, the
    fields rules test (RPhys, Type, Cholesterol) and the length of every
    text.  The seed rewrites the text of every editable leaf (same length
    and character classes), so each seed serves other bytes at the same
    cost: every view, chunk and frame keeps its size.
    """
    rng = random.Random("%s:documents:%d" % (workload.name, seed))
    docs = []
    for index in range(workload.documents):
        tree = generate_hospital(hospital_config(workload.folders, SHAPE_SEED + index))
        for node in tree.descendants():
            if node.tag in EDITABLE_TAGS:
                node.children = [
                    _same_shape(child, rng) if isinstance(child, str) else child
                    for child in node.children
                ]
        scheme = workload.schemes[index % len(workload.schemes)]
        docs.append(Document(document_id(workload, index), serialize(tree), scheme))
    return docs


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def _element_path(root: Node, target: Node) -> List[int]:
    path: List[int] = []

    def walk(node: Node) -> bool:
        if node is target:
            return True
        for index, child in enumerate(node.element_children()):
            path.append(index)
            if walk(child):
                return True
            path.pop()
        return False

    walk(root)
    return path


def editable_leaves(xml: str) -> List[Tuple[List[int], str]]:
    """``(element path, text)`` of every rewritable leaf, in document order."""
    root = parse_document(xml)
    return [
        (_element_path(root, node), node.text())
        for node in root.descendants()
        if node.tag in EDITABLE_TAGS and node.text()
    ]


def _same_shape(text: str, rng: random.Random) -> str:
    """Random text of the same length and character classes: the edit
    changes bytes but no size field, so only dirty chunks re-encrypt."""
    out = []
    for char in text:
        if char.isdigit():
            out.append(rng.choice("0123456789"))
        elif "a" <= char <= "z":
            out.append(rng.choice("abcdefghijklmnopqrstuvwxyz"))
        elif "A" <= char <= "Z":
            out.append(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ"))
        else:
            out.append(char)
    return "".join(out)


class RequestStream:
    """One seeded, endless sequence of units.  A unit is a tuple of
    requests sent back to back: one view or update, or an
    insert-then-delete pair, so whoever stops drawing between units
    never leaves an inserted element behind.  A request is
    ``("view", document, subject, query)`` or
    ``("update", document, subject, UpdateOp)``.

    ``stream`` names the sequence (the count pass and each closed-loop
    client draw their own), so a seed fixes every request a run sends.
    Updates target only the ``writable`` document indexes (by default
    the workload's written ones).  Concurrent streams are given disjoint
    documents, so an insert-then-delete pair always finds the element it
    inserted.
    """

    def __init__(
        self,
        workload: Workload,
        docs: List[Document],
        seed: int,
        stream: int,
        writable: Optional[List[int]] = None,
    ):
        self.workload = workload
        self.ids = [doc.id for doc in docs]
        self.rng = random.Random("%s:%d:%d" % (workload.name, seed, stream))
        self.stream = stream
        if writable is None:
            writable = list(range(workload.written))
        self.writable = writable
        self.leaves = (
            [editable_leaves(doc.xml) for doc in docs]
            if workload.update_share
            else []
        )
        self.folders = workload.folders
        self._inserted = 0

    def __iter__(self) -> Iterator[tuple]:
        rng = self.rng
        workload = self.workload
        while True:
            subject = rng.choice(SUBJECTS)
            if self.writable and rng.random() < workload.update_share:
                index = rng.choice(self.writable)
                document = self.ids[index]
                if rng.random() < 0.1:
                    # A new tag grows the dictionary: the full
                    # re-encryption cascade.  Deleting it again keeps
                    # the document's size bounded over a run.
                    self._inserted += 1
                    memo = Node("Memo%dn%d" % (self.stream, self._inserted))
                    memo.add("memo %d" % self._inserted)
                    yield (
                        ("update", document, subject, UpdateOp.insert([], memo)),
                        ("update", document, subject, UpdateOp.delete([self.folders])),
                    )
                else:
                    path, text = rng.choice(self.leaves[index])
                    op = UpdateOp.set_text(path, _same_shape(text, rng))
                    yield (("update", document, subject, op),)
            else:
                document = rng.choice(self.ids)
                yield (("view", document, subject, rng.choice(workload.queries)),)
