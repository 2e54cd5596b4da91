"""Skip index (Section 4): compact recursive structural index.

The Skip index lets the SOE detect rules and queries that cannot apply
inside a subtree and *skip* the subtree — saving decryption and
communication, the two bottlenecks of the architecture.  It encodes,
per element:

* its tag, as a reference into the *parent's* descendant-tag set
  (recursive dictionary compression);
* the set of tags appearing in its subtree (``TagArray``), as a bitmap
  over the parent's set;
* its encoded subtree size, with a field width derived from the
  parent's size.

Modules:

* :mod:`repro.skipindex.bitio` — the bit-level reader, field widths
  and varint helpers;
* :mod:`repro.skipindex.encoder` — the TCSBR encoder (the Skip index
  proper) producing a self-delimiting binary document;
* :mod:`repro.skipindex.decoder` — the streaming decoder and the
  :class:`~repro.skipindex.decoder.SkipIndexNavigator` feeding the
  evaluator with events, metadata and physical skips;
* :mod:`repro.skipindex.variants` — the NC, TC, TCS and TCSB encodings
  compared against TCSBR in Fig. 8 (benchmark-only: import it from
  the submodule);
* :mod:`repro.skipindex.structural` — the publish-time pre/post
  structural index and the :class:`~repro.skipindex.structural.
  IndexedNavigator` that serves queries without decrypting structure.
"""

from repro.skipindex.encoder import EncodedDocument, encode_document
from repro.skipindex.decoder import (
    SkipIndexNavigator,
    decode_document,
    iter_decoded_events,
)
from repro.skipindex.structural import (
    IndexedNavigator,
    StructuralIndex,
    StructuralIndexError,
    build_structural_index,
    parse_structural_index,
)

__all__ = [
    "EncodedDocument",
    "encode_document",
    "decode_document",
    "iter_decoded_events",
    "SkipIndexNavigator",
    "IndexedNavigator",
    "StructuralIndex",
    "StructuralIndexError",
    "build_structural_index",
    "parse_structural_index",
]
