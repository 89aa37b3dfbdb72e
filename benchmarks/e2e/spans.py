"""Spans around public calls, recorded from outside the program.

Nothing here patches ``src/``: every wrapper delegates to an object the
program hands out or accepts through a public seam (a ``TLAStrategy``
passed to ``TransferTuner``, a problem objective, a tuner callback, the
crowd endpoint's ``handle``, a ``SimTransport.target``) and records one
span around the call.

The wrappers come in two kinds.  The *load generator's clock* —
:class:`TimedEndpoint`, :class:`TimedObjective`, :class:`TimedCallback`
— is on in traced and untraced passes alike, because the end-to-end
metrics are computed from it; it costs two clock reads per call.  The
*layer wrappers* — :class:`TracedStrategy`, :func:`traced_target` — are
installed in the traced pass only.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "Span",
    "TimedCallback",
    "TimedEndpoint",
    "TimedObjective",
    "TracedStrategy",
    "Tracer",
    "maybe_span",
    "route_seconds",
    "self_times",
    "summarize",
    "traced_target",
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the span that caused this one (None = root)
    parent: int | None
    #: session / request identifier shared by the spans of one operation
    rid: str | None

    def to_list(self) -> list[Any]:
        return [self.name, self.start, self.end, self.parent, self.rid]


class Tracer:
    """In-memory span log; written out by the runner when the workload ends.

    Nesting is tracked per thread.  The load is a closed loop from one
    client thread, so a span opened on another thread with nothing open
    there (the router's fan-out pool serving a shard request) is caused
    by whatever the client thread has open at that moment.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client_stack: list[int] = []
        self._local.stack = self._client_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: str | None = None) -> Iterator[int]:
        stack = self._stack()
        if stack:
            parent: int | None = stack[-1]
        else:
            parent = self._client_stack[-1] if self._client_stack else None
        with self._lock:
            if rid is None and parent is not None:
                rid = self.spans[parent].rid
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, parent, rid)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            yield index
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def to_json(self) -> dict[str, Any]:
        return {
            "columns": ["name", "start", "end", "parent", "rid"],
            "spans": [s.to_list() for s in self.spans],
        }


def maybe_span(tracer: Tracer | None, name: str, rid: str | None = None):
    """``tracer.span(...)`` or a no-op when the pass is untraced."""
    return tracer.span(name, rid) if tracer is not None else nullcontext()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children may overlap each other (parallel shard requests of one
    fan-out) and are clipped to the parent's interval, so the covered
    part is the length of the union of the clipped child intervals.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``count``, ``total_s`` (durations) and ``self_s``."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, own):
        row = out.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += self_s
    return out


# -- the load generator's own clock (on in every pass) ------------------------

class TimedEndpoint:
    """The crowd endpoint as its callers see it, one log row per request.

    Rows are ``(route, seconds, ok, built)``; ``built`` says whether the
    registry's build counter rose while the request was in flight, so
    the cost of synchronous rebuilds on the request path can be summed.
    """

    def __init__(self, inner: Any, counters: Mapping[str, int], tracer: Tracer | None = None):
        self._inner = inner
        self._counters = counters
        self.tracer = tracer
        self.log: list[tuple[str, float, bool, bool]] = []

    def handle(self, request: Mapping[str, Any]) -> dict[str, Any]:
        route = str(request.get("route"))
        builds = self._counters.get("registry_builds", 0)
        t0 = time.perf_counter()
        with maybe_span(self.tracer, "service.request"):
            response = self._inner.handle(request)
        seconds = time.perf_counter() - t0
        built = self._counters.get("registry_builds", 0) > builds
        self.log.append((route, seconds, bool(response.get("ok")), built))
        return response


def route_seconds(log: list[tuple[str, float, bool, bool]], *routes: str) -> list[float]:
    """Latencies of the :class:`TimedEndpoint` log rows of the given routes."""
    return [seconds for route, seconds, _, _ in log if route in routes]


class TimedObjective:
    """A problem objective that adds up the time spent evaluating."""

    def __init__(self, objective: Callable, tracer: Tracer | None = None) -> None:
        self._objective = objective
        self._tracer = tracer
        self.total_s = 0.0
        self.calls = 0

    def __call__(self, task, config):
        t0 = time.perf_counter()
        try:
            with maybe_span(self._tracer, "apps.evaluate"):
                return self._objective(task, config)
        finally:
            self.total_s += time.perf_counter() - t0
            self.calls += 1


class TimedCallback:
    """A tuner callback that notes when each evaluation reached it."""

    def __init__(self, callback: Callable, name: str, tracer: Tracer | None = None) -> None:
        self._callback = callback
        self._name = name
        self._tracer = tracer
        #: perf_counter reading when each call began
        self.starts: list[float] = []

    def __call__(self, evaluation) -> None:
        self.starts.append(time.perf_counter())
        with maybe_span(self._tracer, self._name):
            self._callback(evaluation)


# -- layer wrappers (traced pass only) ----------------------------------------

class TracedStrategy:
    """Delegates a ``TLAStrategy``; spans around its lifecycle calls.

    ``model`` returns the strategy's predict callable wrapped in a
    ``core.predict`` span, so the acquisition search's calls into the
    surrogate are separated from the search itself.  Every other
    attribute (``name``, ``prepared``, ``source_gps``, ``store``, ...)
    is the inner strategy's.
    """

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def prepare(self, sources, rng) -> None:
        with self._tracer.span("tla.prepare"):
            self._inner.prepare(sources, rng)

    def model(self, target, rng):
        with self._tracer.span("tla.model"):
            predict = self._inner.model(target, rng)
        if predict is None:
            return None
        tracer = self._tracer

        def traced_predict(X):
            with tracer.span("core.predict"):
                return predict(X)

        return traced_predict

    def notify_proposal(self, x_unit, rng) -> None:
        with self._tracer.span("tla.notify"):
            self._inner.notify_proposal(x_unit, rng)

    def notify_result(self, x_unit, y) -> None:
        with self._tracer.span("tla.notify"):
            self._inner.notify_result(x_unit, y)


def traced_target(target: Callable, tracer: Tracer, replica_writes: list[int]) -> Callable:
    """A ``SimTransport.target`` (= ``CrowdShard.handle``) under a span.

    ``replica_writes[0]`` counts the writes the router sends to shards on
    a client's behalf: stamped uploads and internal ``replicate`` calls.
    """

    def handle(request: Mapping[str, Any]) -> dict[str, Any]:
        route = request.get("route")
        if route == "replicate" or (route == "upload" and "uid" in request):
            replica_writes[0] += 1
        with tracer.span("service.shard"):
            return target(request)

    return handle
