"""Tag dictionary for dictionary-based structure compression.

Section 4.1: "we make the rather classic assumption that the document
structure is compressed thanks to a dictionary of tags".  The dictionary
maps each distinct element tag to a dense integer code; the Skip index
encodes tags as references into (subsets of) this dictionary.

The dictionary is stored inside the SOE (it is part of the document key
material) and is tiny: one entry per *distinct* tag.  Tags are
interned, so every dictionary of a station — one per published
document, and those rebuilt from the manifest on restart — shares one
``str`` per distinct tag.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, Iterator, List, Optional


class TagDictionary:
    """Bidirectional mapping ``tag <-> code`` with dense codes ``0..N-1``.

    Codes are assigned in first-seen order, which makes dictionaries
    deterministic for a given document — important for reproducible
    encodings and stable test fixtures.
    """

    def __init__(self, tags: Optional[Iterable[str]] = None):
        self._code_by_tag: Dict[str, int] = {}
        self._tag_by_code: List[str] = []
        if tags:
            for tag in tags:
                self.add(tag)

    # ------------------------------------------------------------------
    def add(self, tag: str) -> int:
        """Register ``tag`` (idempotent) and return its code."""
        code = self._code_by_tag.get(tag)
        if code is None:
            tag = sys.intern(tag)
            code = len(self._tag_by_code)
            self._code_by_tag[tag] = code
            self._tag_by_code.append(tag)
        return code

    def code(self, tag: str) -> int:
        """Code for ``tag``; raises ``KeyError`` for unknown tags."""
        return self._code_by_tag[tag]

    def tag(self, code: int) -> str:
        """Tag for ``code``; raises ``IndexError`` for unknown codes."""
        return self._tag_by_code[code]

    def __contains__(self, tag: str) -> bool:
        return tag in self._code_by_tag

    def __len__(self) -> int:
        return len(self._tag_by_code)

    def __iter__(self) -> Iterator[str]:
        return iter(self._tag_by_code)

    def tags(self) -> List[str]:
        """All tags in code order."""
        return list(self._tag_by_code)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TagDictionary(%d tags)" % len(self)
