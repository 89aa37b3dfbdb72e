"""A write is encoded once, before the store changes.

The upload route encodes the record document — its journal line — and
stores the decoding (sorted keys, lists, exact JSON types).  So a value
JSON cannot hold is refused with nothing stored on any replica, and a
node answers a record with the same bytes before and after a restart.
"""

from __future__ import annotations

import json

import numpy as np

from repro.service import build_service


def _upload(key: str, tuning: dict, task=None) -> dict:
    return {
        "route": "upload",
        "api_key": key,
        "problem_name": "demo",
        "task_parameters": {"t": 1} if task is None else task,
        "tuning_parameters": tuning,
        "output": 1.0,
    }


def _query(key: str) -> dict:
    return {"route": "query", "api_key": key, "problem_name": "demo", "require_success": False}


def test_a_value_json_cannot_hold_is_refused_with_nothing_stored(tmp_path):
    with build_service(2, replication=2, data_dir=tmp_path) as svc:
        key = svc.register_user("alice", "a@lab.gov")[1]
        response = svc.client.handle(_upload(key, {"mb": np.int64(3)}))
        assert not response["ok"] and response["error"] == "bad_request"
        assert {name: shard.count() for name, shard in svc.shards.items()} == {
            "shard-0": 0,
            "shard-1": 0,
        }
        assert svc.client.handle(_query(key))["records"] == []
        # healing has nothing to copy, and nothing raises
        assert svc.router.anti_entropy_round()["healed"] == 0
        svc.restart_shard("shard-0")
        response = svc.client.handle(_upload(key, {"mb": 3}))
        assert response["ok"] and response["replicas_acked"] == 2
        assert svc.total_records() == 2


def test_a_record_reads_the_same_bytes_before_and_after_a_restart(tmp_path):
    with build_service(1, replication=1, data_dir=tmp_path) as svc:
        key = svc.register_user("alice", "a@lab.gov")[1]
        tuning = {"z": 1, "grid": (2, 3), "a": {"y": [1.5, (True, None)], "b": -0.0}}
        assert svc.client.handle(_upload(key, tuning, task={"n": 2, "m": 1}))["ok"]
        before = json.dumps(svc.client.handle(_query(key))["records"])
        svc.restart_shard("shard-0")
        after = json.dumps(svc.client.handle(_query(key))["records"])
        assert after == before
        (record,) = json.loads(after)
        assert list(record["tuning_parameters"]) == ["a", "grid", "z"]
        assert record["tuning_parameters"]["grid"] == [2, 3]
