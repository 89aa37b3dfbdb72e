"""One reader for a journal's logical bytes.

A :class:`~repro.service.wal.DurableLog` keeps zeros on disk past its
journal's logical end: the space its next appends are written into.
Tests and benches that compare a journal's bytes or its size read them
through :func:`journal_bytes`, which also checks that the rest is zeros.
"""

from __future__ import annotations

from pathlib import Path


def journal_bytes(path: str | Path) -> bytes:
    """The journal's bytes before its first NUL byte; asserts that they
    end at a line's end and that every byte after them is zero."""
    data = Path(path).read_bytes()
    end = data.find(b"\0")
    end = len(data) if end < 0 else end
    assert data[end:] == bytes(len(data) - end), f"{path}: not zeros past the logical end"
    assert data[:end].endswith(b"\n") or end == 0, f"{path}: a torn line at the logical end"
    return data[:end]
