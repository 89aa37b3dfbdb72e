"""A fixed request script against a 3-shard quorum deployment.

:func:`run_script` drives every router route, the degraded-mode paths
and the membership operations in one fixed order and returns the
normalized ``json.dumps(response, sort_keys=True)`` line of every step
plus the final ``service_*`` perf counters.  The expected output,
``golden_transcript.json``, was generated at commit ``c5d1889`` (before
the router's replica policies were folded into shared helpers)::

    PYTHONPATH=<checkout>/src python -m tests.service.golden_transcript \
        > tests/service/golden_transcript.json

and ``tests/service/test_router.py`` compares against it, so the wire
behaviour of the router is pinned response by response.  It was
regenerated once, by the same command on the current checkout, when the
model-store routes ``upload_model`` / ``query_models`` were deleted: their
five steps stay in place as probes answering ``not_found`` (so the clock
and every later step keep their place), and only those lines, the
``routes`` line and the counters those routes fed changed.  It was
regenerated again, the same way, when the node stopped serving
``browse_html``: only that step changed, from the router's
``bad_request`` refusal to the ``not_found`` of any unknown route.
It was regenerated again, the same way, when the router's read cache was
deleted: every response stayed byte-identical, and only the three
``service_cache_hits`` / ``_invalidations`` / ``_misses`` counters
disappeared.  It was regenerated again, the same way, when hinted
handoff was deleted: the first divergence became a lossy link (the same
responses), the two ``hints_pending`` lines became ``shard_records``
before and after the revives, the three ``service_hints_*`` counters
went, and the revives' own rounds added three ``antientropy_rounds``,
the ``antientropy_records_shipped`` counter and the client retries of
their digest requests to shards still down.  It was regenerated again,
the same way, when a record's uid came to be derived from its upload
token: the script's own tokens ``k1``–``k4`` became tokens of client 1,
``[1, 1]``–``[1, 4]`` (a bare string is now refused as ``bad_request``),
so those four writes' uids changed (12, 13, 15, 17 became
``2**32 + 1`` … ``2**32 + 4``) wherever they appear and nothing else in
those lines did, the ``routes`` line gained ``client_id``, and
``service_client_retries`` fell 50 → 44 because anti-entropy sends each
digest request once.

Normalization: API keys (random) become ``<key:NAME>``, floats are
rounded to 9 decimals (GP arithmetic), and the router's clock is a
manual one, so ``retry_after`` is deterministic.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core import perf
from repro.registry import RegistryOptions
from repro.service import build_service
from repro.service.shard import shard_key

from .links import lossy

PROBLEM = "demo"
SPACE = {
    "input_space": [{"name": "t", "type": "real", "lower_bound": 0, "upper_bound": 10}],
    "parameter_space": [
        {"name": "x", "type": "real", "lower_bound": 0.0, "upper_bound": 1.0}
    ],
    "output_space": [{"name": "y", "type": "output"}],
}


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _rounded(value: Any) -> Any:
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def run_script() -> dict[str, Any]:
    """Run the script; returns ``{"lines": [...], "counters": {...}}``."""
    svc = build_service(
        3, replication=2, write_quorum=2, read_quorum=2, registry=RegistryOptions()
    )
    clock = ManualClock()
    svc.router._clock = clock
    keys: dict[str, str] = {}
    lines: list[str] = []

    def note(label: str, value: Any) -> Any:
        line = json.dumps({label: _rounded(value)}, sort_keys=True, default=str)
        for name, api_key in keys.items():
            line = line.replace(api_key, f"<key:{name}>")
        lines.append(line)
        return value

    def send(request: dict[str, Any], *, tick: float = 1.0) -> dict[str, Any]:
        clock.now += tick
        return note(str(request.get("route")), svc.router.handle(request))

    def upload(who: str, task: dict, x: float, output: Any, **extra: Any) -> dict:
        return send(
            {
                "route": "upload",
                "api_key": keys[who],
                "problem_name": PROBLEM,
                "task_parameters": task,
                "tuning_parameters": {"x": x},
                "output": output,
                **extra,
            }
        )

    def read(route: str, who: str = "alice", **extra: Any) -> dict:
        return send({"route": route, "api_key": keys[who], **extra})

    with perf.collect() as stats, svc:
        # -- accounts --------------------------------------------------------
        for name in ("alice", "bob"):
            response = svc.router.handle(
                {"route": "register", "username": name, "email": f"{name}@lab.gov"}
            )
            keys[name] = response["api_key"]
            note("register", response)
        read("whoami")
        send({"route": "whoami", "api_key": "no-such-key"})

        # -- writes ----------------------------------------------------------
        send(
            {
                "route": "register_problem",
                "api_key": keys["alice"],
                "problem_name": PROBLEM,
                "problem_space": SPACE,
            }
        )
        send({"route": "register_problem", "api_key": keys["alice"]})
        for i in range(6):
            upload("alice", {"t": 2}, (i % 10) / 10.0, float(i % 7) - 3.0)
        for i in range(3):
            upload("bob", {"t": 5}, 0.2 * i, 1.0 + i)
        upload("bob", {"t": 5}, 0.9, None)  # a failed evaluation
        upload("alice", {"t": 2}, 0.75, 0.5, idempotency_key=[1, 1])
        upload("alice", {"t": 2}, 0.75, 0.5, idempotency_key=[1, 1])  # lost-ack retry
        upload("alice", {"t": 7}, 0.35, 2.5, idempotency_key=[1, 2], uid=999)
        send({"route": "upload", "api_key": keys["alice"], "problem_name": PROBLEM})
        upload("alice", {"t": 2}, 0.1, 1.0, api_key="no-such-key")

        # -- reads -----------------------------------------------------------
        pinned = {"problem_name": PROBLEM, "task_parameters": {"t": 2}}
        read("query", **pinned)
        read("query", **pinned)  # the same read again
        read("query", **pinned, limit=2)
        read("query", "bob", problem_name=PROBLEM, task_parameters={"t": 5},
             require_success=False)
        read("query", problem_name=PROBLEM)
        read("query", problem_name=PROBLEM, limit=3)
        sql = "SELECT * WHERE problem_name = 'demo' ORDER BY output DESC LIMIT 4"
        read("query_sql", sql=sql)
        read("query_sql", sql="SELECT * WHERE output >= 2 ORDER BY uid")
        read("query_sql", sql="SELECT nonsense FROM")
        read("problems")
        read("leaderboard", problem_name=PROBLEM)
        read("contributors", problem_name=PROBLEM)
        # the removed model-store routes: probes, answered not_found
        read("query_models", problem_name=PROBLEM)
        read("upload_model", problem_name=PROBLEM, task_parameters={"t": 2})
        read("upload_model")
        read("query_models", problem_name=PROBLEM)
        read("predict", **pinned, configurations=[{"x": 0.15}, {"x": 0.85}])
        read("model_meta", **pinned)
        read("predict", problem_name=PROBLEM, configurations=[{"x": 0.5}])
        read("predict", problem_name=PROBLEM, task_parameters={"t": 9},
             configurations=[{"x": 0.5}])
        read("browse_html")
        read("replicate", records=[])
        read("no_such_route")

        # -- backpressure: one key over its rate, the clock standing still ----
        svc.router.options.rate_limit = 1.0
        svc.router.options.burst = 2
        for _ in range(3):
            send({"route": "whoami", "api_key": keys["bob"]}, tick=0.0)
        read("whoami")  # another key has its own bucket
        svc.router.options.rate_limit = None

        # -- degraded mode ---------------------------------------------------
        prefs = svc.router.ring.preference(shard_key(PROBLEM, {"t": 2}), 2)
        note("prefs", prefs)
        other = {
            "route": "register_problem",
            "api_key": keys["alice"],
            "problem_name": "other",
            "problem_space": SPACE,
        }
        # a lossy link, not an outage: nothing heals on revive, the reads
        # have to
        with lossy(svc.transports[prefs[1]]):
            upload("alice", {"t": 2}, 0.55, -1.5, idempotency_key=[1, 3])  # quorum miss
            send(other)  # degraded broadcast
        read("query", **pinned)  # read-repairs the lagging replica
        note("anti_entropy", svc.router.anti_entropy_round())  # heals the problem doc
        # an outage: the revived shards heal themselves
        svc.kill_shard(prefs[1])
        upload("alice", {"t": 2}, 0.45, 1.5, idempotency_key=[1, 4])  # quorum miss
        send({**other, "problem_name": "another"})
        read("query", **pinned)  # served by the surviving replica
        read("predict", **pinned, configurations=[{"x": 0.15}])
        svc.kill_shard(prefs[0])
        read("query", **pinned, limit=1)  # every replica down
        read("predict", **pinned, configurations=[{"x": 0.25}])
        upload("alice", {"t": 2}, 0.65, -2.5)  # nobody to take it
        read("query", problem_name=PROBLEM)  # fan-out from the survivor
        for name in sorted(svc.transports):
            svc.kill_shard(name)
        read("query", problem_name=PROBLEM, limit=5)
        read("problems")
        read("query_models", problem_name=PROBLEM)  # a probe, as above
        send({**other, "problem_name": "third"})
        note("shard_records", {n: s.count() for n, s in sorted(svc.shards.items())})
        for name in sorted(svc.transports):
            svc.revive_shard(name)  # each runs its anti-entropy round
        note("shard_records", {n: s.count() for n, s in sorted(svc.shards.items())})
        upload("alice", {"t": 2}, 0.45, 1.5, idempotency_key=[1, 4])  # client retry
        read("query", **pinned)
        note("anti_entropy", svc.router.anti_entropy_round())
        read("problems")
        read("sensitivity", **pinned, n_base=16, n_bootstrap=4, seed=0)

        # -- membership ------------------------------------------------------
        note("add_shard", svc.add_shard())
        note("shard_records", {n: s.count() for n, s in sorted(svc.shards.items())})
        read("query", **pinned)
        read("leaderboard", problem_name=PROBLEM)
        note("remove_shard", svc.remove_shard("shard-0"))
        note("shard_records", {n: s.count() for n, s in sorted(svc.shards.items())})
        read("query", problem_name=PROBLEM, require_success=False)
        read("model_meta", **pinned)
        note("routes", svc.router.routes())
    counters = {
        name: value
        for name, value in sorted(stats.snapshot()["counters"].items())
        if name.startswith("service_")
    }
    return {"lines": lines, "counters": counters}


if __name__ == "__main__":
    print(json.dumps(run_script(), indent=1, sort_keys=True))
