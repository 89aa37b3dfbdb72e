"""Write-side build scheduling: debounce + optional background thread.

The builder never fits anything itself — it decides *when* the
registry's build function runs.  Record uploads call :meth:`notify`;
a key becomes due when ``min_new_samples`` notifications accumulated
since its last build *attempt* (a due build that produces nothing — the
problem is not registered yet, or has too few samples — spends the count
like one that succeeds; reads still build on first demand), or (with
``max_staleness_s``) when the last build is old enough.  In synchronous mode (the default, and what the tests
pin) the build runs inline on the notifying thread — the upload request
pays for the refit, reads stay pure.  In background mode due keys are
queued and a daemon worker drains them, so uploads return immediately
and reads may briefly serve the previous (stale-counted) entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Mapping

from ..core import perf

__all__ = ["RegistryBuilder"]


class RegistryBuilder:
    """Debounced build trigger around a ``build(problem, task)`` callable."""

    def __init__(
        self,
        build: Callable[[str, Mapping[str, Any]], Any],
        *,
        min_new_samples: int = 1,
        max_staleness_s: float | None = None,
        background: bool = False,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if min_new_samples < 1:
            raise ValueError("min_new_samples must be >= 1")
        if max_staleness_s is not None and max_staleness_s <= 0:
            raise ValueError("max_staleness_s must be positive")
        import time

        self._build = build
        self.min_new_samples = int(min_new_samples)
        self.max_staleness_s = max_staleness_s
        self.background = bool(background)
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        #: (problem, task_key) -> notifications since the last build attempt
        self._pending: dict[tuple[str, str], int] = {}
        self._last_built: dict[tuple[str, str], float] = {}
        #: queued background builds, deduplicated by key (FIFO)
        self._queue: OrderedDict[tuple[str, str], tuple[str, dict[str, Any]]] = (
            OrderedDict()
        )
        self._cv = threading.Condition(self._lock)
        self._building = 0
        self._stop = False
        self._thread: threading.Thread | None = None
        if self.background:
            self._thread = threading.Thread(
                target=self._worker, name="registry-builder", daemon=True
            )
            self._thread.start()

    # -- write-side trigger --------------------------------------------------
    def notify(
        self, problem_name: str, task_parameters: Mapping[str, Any], task_key: str
    ) -> bool:
        """Record one new eligible sample; returns whether a build was due."""
        key = (problem_name, task_key)
        with self._lock:
            pending = self._pending.get(key, 0) + 1
            last = self._last_built.get(key)
            due = pending >= self.min_new_samples or (
                self.max_staleness_s is not None
                and last is not None
                and self._clock() - last >= self.max_staleness_s
            )
            # a due attempt spends the count whatever it produces: a build
            # that yields nothing (problem not registered, too few samples)
            # is tried again after another ``min_new_samples``
            # notifications, not on every upload from then on
            self._pending[key] = 0 if due else pending
        if not due:
            return False
        if self.background:
            with self._cv:
                self._queue[key] = (problem_name, dict(task_parameters))
                self._queue.move_to_end(key)
                self._cv.notify()
        else:
            self._build(problem_name, dict(task_parameters))
        return True

    def note_built(self, problem_name: str, task_key: str) -> None:
        """Reset the debounce state of one key (a build just succeeded)."""
        key = (problem_name, task_key)
        with self._lock:
            self._pending[key] = 0
            self._last_built[key] = self._clock()

    def pending(self, problem_name: str, task_key: str) -> int:
        with self._lock:
            return self._pending.get((problem_name, task_key), 0)

    # -- background worker ---------------------------------------------------
    def _worker(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._stop:
                    self._cv.wait()
                if self._stop and not self._queue:
                    return
                _, (problem, task) = self._queue.popitem(last=False)
                self._building += 1
            try:
                self._build(problem, task)
            except Exception:  # one bad build must not kill the worker
                perf.incr("registry_build_errors")
            finally:
                with self._cv:
                    self._building -= 1
                    self._cv.notify_all()

    def flush(self, timeout_s: float = 30.0) -> bool:
        """Block until queued background builds finished (tests/shutdown)."""
        if not self.background:
            return True
        deadline = self._clock() + timeout_s
        with self._cv:
            while self._queue or self._building:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return False
                self._cv.wait(timeout=min(remaining, 0.1))
        return True

    def close(self) -> None:
        if self._thread is None:
            return
        with self._cv:
            self._stop = True
            self._cv.notify_all()
        self._thread.join()
        self._thread = None
