"""Seeded interleavings of uploads, lost acks and their retries, kills,
revives, shard restarts from disk, router restarts and anti-entropy
rounds on 4 durable shards (R = 2, W in {1, 2}).

Whatever the interleaving, once every shard is up again each
acknowledged upload is stored exactly once on each of its replicas and
nowhere else, and every bucket's digest agrees across its replicas: a
shard that comes back heals itself by the round it runs on revive, and
a retry names the record it retries by its token, whichever router
applied the first attempt.
"""

from __future__ import annotations

import random

import pytest

from repro.service import ServiceClient, build_service
from repro.service.client import RetryPolicy
from repro.service.shard import shard_key, split_bucket_key, token_uid

_RECORDS = "performance_records"
TASKS = [{"t": t} for t in range(12)]
N_OPS = 150
#: op -> weight
OPS = {
    "upload": 10,
    "retry": 3,
    "kill": 2,
    "revive": 3,
    "restart": 2,
    "restart_router": 1,
    "round": 3,
}
#: the share of uploads whose ack is lost on the way back to the client
LOST_ACKS = 0.25


class _Front:
    """The service as its client reaches it, keeping every upload as sent."""

    def __init__(self, svc) -> None:
        self.svc = svc
        self.sent: list[dict] = []

    def handle(self, request):
        if request.get("route") == "upload" and "idempotency_key" in request:
            self.sent.append(request)
        return self.svc.handle(request)


def _no_backoff(svc) -> None:
    """A down shard answers at once: the router's connections do not back off."""
    for client in svc.router._shards.values():
        client.retry = RetryPolicy(max_retries=0)


def _run(root, seed: int):
    rng = random.Random(seed)
    svc = build_service(
        4,
        replication=2,
        write_quorum=1 + seed % 2,
        data_dir=root,
        snapshot_every=16,
        fsync_every=10_000,
    )
    _no_backoff(svc)
    key = svc.register_user("alice", "a@lab.gov")[1]
    front = _Front(svc)
    client = ServiceClient(front)
    acked: dict[int, dict] = {}  # uid -> task
    names = sorted(svc.shards)
    for i in range(N_OPS):
        op = rng.choices(list(OPS), weights=list(OPS.values()))[0]
        down = [n for n in names if svc.transports[n].down]
        if op == "upload":
            task = rng.choice(TASKS)
            response = client.handle(
                {
                    "route": "upload",
                    "api_key": key,
                    "problem_name": "demo",
                    "task_parameters": task,
                    "tuning_parameters": {"x": i},
                    "output": float(i),
                }
            )
            if response["ok"] and rng.random() >= LOST_ACKS:
                acked[response["uid"]] = task
        elif op == "retry" and front.sent:
            # the client retries an earlier upload under its own token
            request = rng.choice(front.sent)
            response = svc.handle(request)
            if response["ok"]:
                assert response["uid"] == token_uid(request["idempotency_key"])
                acked[response["uid"]] = request["task_parameters"]
        elif op == "kill" and len(down) < 2:
            svc.kill_shard(rng.choice([n for n in names if n not in down]))
        elif op == "revive" and down:
            svc.revive_shard(rng.choice(down))
        elif op == "restart":
            svc.restart_shard(rng.choice(names))
        elif op == "restart_router":
            svc.restart_router()
            _no_backoff(svc)
        elif op == "round":
            svc.router.anti_entropy_round()
    for name in names:
        svc.revive_shard(name)  # a no-op for a shard that is up
    return svc, acked


@pytest.mark.parametrize("seed", range(20))
def test_every_acked_upload_is_on_exactly_its_replicas(tmp_path, seed):
    svc, acked = _run(tmp_path, seed)
    with svc:
        assert acked
        held = {
            name: [doc["uid"] for doc in shard.repository.store[_RECORDS].find({})]
            for name, shard in svc.shards.items()
        }
        for name, uids in held.items():
            assert len(uids) == len(set(uids)), f"{name} holds a uid twice"
        for uid, task in acked.items():
            replicas = svc.router.ring.preference(shard_key("demo", task), 2)
            holders = sorted(name for name, uids in held.items() if uid in uids)
            assert holders == sorted(replicas), (uid, task)

        digests = {
            name: shard.handle({"route": "digest"})["digests"]
            for name, shard in svc.shards.items()
        }
        for bucket in {key for d in digests.values() for key in d}:
            collection, ring_key = split_bucket_key(bucket)
            assert collection == _RECORDS
            replicas = svc.router.ring.preference(ring_key, 2)
            assert len({digests[name].get(bucket) for name in replicas}) == 1, bucket
