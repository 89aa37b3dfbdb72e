"""Benchmark-suite configuration: make the shared harness, the package
and the test suite's fixtures importable."""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(Path(__file__).parent), str(REPO / "src"), str(REPO)]

from tests.conftest import sparse_threshold  # noqa: E402,F401
