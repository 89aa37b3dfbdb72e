"""A lossy link: how tests make a replica miss writes while it stays up."""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from repro.service import SimTransport

#: more deliveries than any block below sends, retries included
_WINDOW = 10_000


@contextmanager
def lossy(transport: SimTransport) -> Iterator[None]:
    """Every request to ``transport`` is lost inside the block.

    Its node misses the writes sent meanwhile without ever going down,
    so no revive round heals them: the replica stays stale until a
    quorum read or an anti-entropy round repairs it.
    """
    first = transport.n_requests + 1
    transport.scripted_faults.update(range(first, first + _WINDOW))
    try:
        yield
    finally:
        transport.scripted_faults.difference_update(range(first, first + _WINDOW))
