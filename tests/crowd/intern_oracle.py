"""Reference store for hash-consing: the same ``Collection`` with an
interner that never shares.

Collections intern their documents' small sub-documents
(:class:`repro.crowd.columnar.Interner`); there is no switch for it in
``src/``.  The oracle here swaps in an interner that freezes every value
privately — what the store did before — so a test can hold the shared
store to it byte for byte, and measure what sharing saves.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping
from typing import Any

from repro.crowd.columnar import Interner, freeze
from repro.crowd.database import Collection, DocumentStore


class PrivateCopies(Interner):
    """Every value gets its own frozen copy; nothing is shared."""

    def freeze_fields(self, doc: Mapping[str, Any]) -> dict[str, Any]:
        return {field: freeze(value) for field, value in doc.items()}

    freeze_decoded = freeze_fields


class PrivateStore(DocumentStore):
    """A ``DocumentStore`` whose collections share nothing."""

    def collection(self, name: str) -> Collection:
        coll = super().collection(name)
        if not isinstance(coll._interner, PrivateCopies):
            coll._interner = PrivateCopies()
        return coll



def replay(store: DocumentStore, lines: Iterable[str]) -> DocumentStore:
    """``store`` after applying journal ``lines``, each parsed on its own
    (a restart from a journal, compacted or not)."""
    for line in lines:
        store.apply_op(json.loads(line))
    return store


def same(a: Any, b: Any) -> bool:
    """Type-, order- and bit-exact equality of two JSON-shaped values
    (``==`` cannot tell ``1`` from ``True`` or ``0.0`` from ``-0.0``, and
    says two NaNs differ)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float):
        if a != a or b != b:
            return a != a and b != b
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b
