"""The correctness oracle: a plaintext DOM copy of every document.

Each acknowledged :class:`~repro.UpdateOp` is filed under the version
its RESULT trailer returned; a view is correct when its bytes equal the
plaintext reference model (``reference_authorized_view`` +
``serialize_events``) of the document at the version the view reports.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.accesscontrol.reference import reference_authorized_view
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serializer import serialize_events


class Oracle:
    def __init__(self, documents: Dict[str, str], policies):
        """``documents`` maps id to published XML; ``policies`` maps
        subject to its granted :class:`~repro.Policy`."""
        self.policies = policies
        self._trees = {doc: {0: parse_document(xml)} for doc, xml in documents.items()}
        self._ops: Dict[str, Dict[int, object]] = {doc: {} for doc in documents}
        self._expected: Dict[tuple, Optional[bytes]] = {}
        self._lock = threading.Lock()

    def acknowledge(self, document: str, version: int, op) -> bool:
        """File an acknowledged update; False when the version is taken
        by another update (versions of one document form a chain)."""
        with self._lock:
            ops = self._ops[document]
            if version < 1 or version in ops:
                return False
            ops[version] = op
            return True

    def tree(self, document: str, version: int):
        """The model at ``version``, or None when an update is missing."""
        trees = self._trees[document]
        known = max(v for v in trees if v <= version)
        for step in range(known + 1, version + 1):
            op = self._ops[document].get(step)
            if op is None:
                return None
            trees[step] = op.apply(trees[step - 1])
        return trees[version]

    def expected(self, document: str, subject: str, query, version: int):
        """The correct view bytes, or None when no model exists."""
        key = (document, subject, query, version)
        if key not in self._expected:
            tree = self.tree(document, version) if document in self._trees else None
            self._expected[key] = (
                None
                if tree is None or subject not in self.policies
                else serialize_events(
                    reference_authorized_view(tree, self.policies[subject], query)
                ).encode("utf-8")
            )
        return self._expected[key]

    def check(self, document: str, subject: str, query, version, data) -> bool:
        if not isinstance(version, int) or version < 0:
            return False
        expected = self.expected(document, subject, query, version)
        return expected is not None and expected == bytes(data)
