"""The replica write path, pinned byte for byte.

A fixed request sequence against a durable :class:`CrowdShard` with a
registry attached: a new upload, a duplicate-uid replay, a failed run
(``None`` output), a machine name the tag database normalizes
(``"Cori-Haswell"``), a ``private`` record, a refused upload, a clock-
stamped upload, a compaction, then a journal tail.  The responses, the
bytes of the data directory and the registry's per-key data versions
must equal what the sequence produced before the upload route built its
stored document in one pass (the literals below; run this module to
print them for the checkout on ``PYTHONPATH``).  The image those bytes
then held since lost one element, the empty ``surrogate_models``
collection: the deleted model store created it in every shard's store.
The ``documents`` literal since took the journal's key order (sorted,
``_id`` first): the store keeps the decoding of the line it journals,
so a restarted node reads back the same bytes.  The ``files`` literal
since became one journal: the image's documents as the ops that rebuild
them (a ``collection`` op per collection, an ``insert`` per document),
a ``checkpoint`` line, then the tail, no line numbered.

Every upload is router-stamped (``uid`` given): an unstamped one draws
from the process-wide uid counter, whose value depends on what ran
before.  No problem is registered, so no model is fitted and nothing
here depends on the BLAS.
"""

from __future__ import annotations

import json
import sys

from repro.core.problem import task_key
from repro.crowd.users import UserRegistry
from repro.registry import RegistryOptions
from repro.service import CrowdShard

_MACHINE = {"machine_name": "Cori-Haswell", "haswell": {"nodes": 8, "cores": 32}}
_SOFTWARE = {"ScaLAPACK": {"version_split": [2, 1, 0]}, "gcc": {"version_split": [9, 1, 0]}}


def _upload(key: str, uid: int, task: int, output, **extra) -> dict:
    return {
        "route": "upload",
        "api_key": key,
        "problem_name": "demo",
        "task_parameters": {"t": task},
        "tuning_parameters": {"x": uid / 8, "mb": 4 * uid},
        "output": output,
        "machine_configuration": _MACHINE,
        "software_configuration": _SOFTWARE,
        "uid": uid,
        **extra,
    }


def write_sequence(data_dir) -> dict:
    """Run the sequence; the responses, files and registry versions."""
    users = UserRegistry()
    users.register("alice", "a@lab.gov")
    key = users.issue_api_key("alice")
    shard = CrowdShard(
        "s0", data_dir, users=users, snapshot_every=10_000, registry=RegistryOptions()
    )
    requests = [
        _upload(key, 1, 0, 1.5, timestamp=1.0),
        _upload(key, 1, 0, 1.5, timestamp=1.0),  # a replayed write
        _upload(key, 2, 0, None, timestamp=2.0),  # a failed run
        _upload(key, 3, 1, 0.25, timestamp=3.0, accessibility={"level": "private"}),
        _upload(key, 4, 1, float("inf"), timestamp=4.0),  # refused
        _upload(
            key, 5, 1, 7, timestamp=5.0, accessibility={"level": "group", "groups": ["g"]}
        ),
        _upload(key, 6, 0, 2.0),  # stamped by the shard's clock
    ]
    responses = [shard.handle(request) for request in requests]
    shard.snapshot()
    responses.append(shard.handle(_upload(key, 7, 1, 3.0, timestamp=9.0)))
    versions = {
        str(t): shard.registry.data_version("demo", repr(task_key({"t": t}))) for t in (0, 1)
    }
    # the stored documents in their own key order (the files sort keys)
    documents = json.dumps(shard.repository.store["performance_records"].find({}))
    shard.close()
    files = {path.name: path.read_text() for path in sorted(data_dir.iterdir())}
    return {
        "responses": responses,
        "documents": documents,
        "files": files,
        "versions": versions,
    }


#: what the sequence produced before the one-pass document path
PARENT = {
    "responses": [
        {"ok": True, "uid": 1},
        {"duplicate": True, "ok": True, "uid": 1},
        {"ok": True, "uid": 2},
        {"ok": True, "uid": 3},
        {
            "error": "bad_request",
            "message": "output must be null or a finite number, got inf",
            "ok": False,
        },
        {"ok": True, "uid": 5},
        {"ok": True, "uid": 6},
        {"ok": True, "uid": 7},
    ],
    "documents": (
        '[{"_id": 1, "accessibility": {"groups": [], "level": "public"}, "machine_confi'
        'guration": {"haswell": {"cores": 32, "nodes": 8}, "machine_name": "Cori"}, "ou'
        'tput": 1.5, "owner": "alice", "problem_name": "demo", "software_configuration"'
        ': {"gcc": {"version_split": [9, 1, 0]}, "scalapack": {"version_split": [2, 1, '
        '0]}}, "task_parameters": {"t": 0}, "timestamp": 1.0, "tuning_parameters": {"mb'
        '": 4, "x": 0.125}, "uid": 1}, {"_id": 2, "accessibility": {"groups": [], "leve'
        'l": "public"}, "machine_configuration": {"haswell": {"cores": 32, "nodes": 8},'
        ' "machine_name": "Cori"}, "output": null, "owner": "alice", "problem_name": "d'
        'emo", "software_configuration": {"gcc": {"version_split": [9, 1, 0]}, "scalapa'
        'ck": {"version_split": [2, 1, 0]}}, "task_parameters": {"t": 0}, "timestamp": '
        '2.0, "tuning_parameters": {"mb": 8, "x": 0.25}, "uid": 2}, {"_id": 3, "accessi'
        'bility": {"groups": [], "level": "private"}, "machine_configuration": {"haswel'
        'l": {"cores": 32, "nodes": 8}, "machine_name": "Cori"}, "output": 0.25, "owner'
        '": "alice", "problem_name": "demo", "software_configuration": {"gcc": {"versio'
        'n_split": [9, 1, 0]}, "scalapack": {"version_split": [2, 1, 0]}}, "task_parame'
        'ters": {"t": 1}, "timestamp": 3.0, "tuning_parameters": {"mb": 12, "x": 0.375}'
        ', "uid": 3}, {"_id": 4, "accessibility": {"groups": ["g"], "level": "group"}, '
        '"machine_configuration": {"haswell": {"cores": 32, "nodes": 8}, "machine_name"'
        ': "Cori"}, "output": 7, "owner": "alice", "problem_name": "demo", "software_co'
        'nfiguration": {"gcc": {"version_split": [9, 1, 0]}, "scalapack": {"version_spl'
        'it": [2, 1, 0]}}, "task_parameters": {"t": 1}, "timestamp": 5.0, "tuning_param'
        'eters": {"mb": 20, "x": 0.625}, "uid": 5}, {"_id": 5, "accessibility": {"group'
        's": [], "level": "public"}, "machine_configuration": {"haswell": {"cores": 32,'
        ' "nodes": 8}, "machine_name": "Cori"}, "output": 2.0, "owner": "alice", "probl'
        'em_name": "demo", "software_configuration": {"gcc": {"version_split": [9, 1, 0'
        ']}, "scalapack": {"version_split": [2, 1, 0]}}, "task_parameters": {"t": 0}, "'
        'timestamp": 6.0, "tuning_parameters": {"mb": 24, "x": 0.75}, "uid": 6}, {"_id"'
        ': 6, "accessibility": {"groups": [], "level": "public"}, "machine_configuratio'
        'n": {"haswell": {"cores": 32, "nodes": 8}, "machine_name": "Cori"}, "output": '
        '3.0, "owner": "alice", "problem_name": "demo", "software_configuration": {"gcc'
        '": {"version_split": [9, 1, 0]}, "scalapack": {"version_split": [2, 1, 0]}}, "'
        'task_parameters": {"t": 1}, "timestamp": 9.0, "tuning_parameters": {"mb": 28, '
        '"x": 0.875}, "uid": 7}]'
    ),
    "files": {
        'wal.jsonl': (
            '{"c": "performance_records", "next_id": 6, "op": "collection"}\n'
            '{"c": "performance_records", "doc": {"_id": 1, "accessibility": {"groups": [],'
            ' "level": "public"}, "machine_configuration": {"haswell": {"cores": 32, "nodes'
            '": 8}, "machine_name": "Cori"}, "output": 1.5, "owner": "alice", "problem_name'
            '": "demo", "software_configuration": {"gcc": {"version_split": [9, 1, 0]}, "sc'
            'alapack": {"version_split": [2, 1, 0]}}, "task_parameters": {"t": 0}, "timesta'
            'mp": 1.0, "tuning_parameters": {"mb": 4, "x": 0.125}, "uid": 1}, "op": "insert'
            '"}\n'
            '{"c": "performance_records", "doc": {"_id": 2, "accessibility": {"groups": [],'
            ' "level": "public"}, "machine_configuration": {"haswell": {"cores": 32, "nodes'
            '": 8}, "machine_name": "Cori"}, "output": null, "owner": "alice", "problem_nam'
            'e": "demo", "software_configuration": {"gcc": {"version_split": [9, 1, 0]}, "s'
            'calapack": {"version_split": [2, 1, 0]}}, "task_parameters": {"t": 0}, "timest'
            'amp": 2.0, "tuning_parameters": {"mb": 8, "x": 0.25}, "uid": 2}, "op": "insert'
            '"}\n'
            '{"c": "performance_records", "doc": {"_id": 3, "accessibility": {"groups": [],'
            ' "level": "private"}, "machine_configuration": {"haswell": {"cores": 32, "node'
            's": 8}, "machine_name": "Cori"}, "output": 0.25, "owner": "alice", "problem_na'
            'me": "demo", "software_configuration": {"gcc": {"version_split": [9, 1, 0]}, "'
            'scalapack": {"version_split": [2, 1, 0]}}, "task_parameters": {"t": 1}, "times'
            'tamp": 3.0, "tuning_parameters": {"mb": 12, "x": 0.375}, "uid": 3}, "op": "ins'
            'ert"}\n'
            '{"c": "performance_records", "doc": {"_id": 4, "accessibility": {"groups": ["g'
            '"], "level": "group"}, "machine_configuration": {"haswell": {"cores": 32, "nod'
            'es": 8}, "machine_name": "Cori"}, "output": 7, "owner": "alice", "problem_name'
            '": "demo", "software_configuration": {"gcc": {"version_split": [9, 1, 0]}, "sc'
            'alapack": {"version_split": [2, 1, 0]}}, "task_parameters": {"t": 1}, "timesta'
            'mp": 5.0, "tuning_parameters": {"mb": 20, "x": 0.625}, "uid": 5}, "op": "inser'
            't"}\n'
            '{"c": "performance_records", "doc": {"_id": 5, "accessibility": {"groups": [],'
            ' "level": "public"}, "machine_configuration": {"haswell": {"cores": 32, "nodes'
            '": 8}, "machine_name": "Cori"}, "output": 2.0, "owner": "alice", "problem_name'
            '": "demo", "software_configuration": {"gcc": {"version_split": [9, 1, 0]}, "sc'
            'alapack": {"version_split": [2, 1, 0]}}, "task_parameters": {"t": 0}, "timesta'
            'mp": 6.0, "tuning_parameters": {"mb": 24, "x": 0.75}, "uid": 6}, "op": "insert'
            '"}\n'
            '{"c": "registry_models", "next_id": 1, "op": "collection"}\n'
            '{"c": "registry_problems", "next_id": 1, "op": "collection"}\n'
            '{"op": "checkpoint"}\n'
            '{"c": "performance_records", "doc": {"_id": 6, "accessibility": {"groups": [],'
            ' "level": "public"}, "machine_configuration": {"haswell": {"cores": 32, "nodes'
            '": 8}, "machine_name": "Cori"}, "output": 3.0, "owner": "alice", "problem_name'
            '": "demo", "software_configuration": {"gcc": {"version_split": [9, 1, 0]}, "sc'
            'alapack": {"version_split": [2, 1, 0]}}, "task_parameters": {"t": 1}, "timesta'
            'mp": 9.0, "tuning_parameters": {"mb": 28, "x": 0.875}, "uid": 7}, "op": "inser'
            't"}\n'
        ),
    },
    "versions": {"0": 2, "1": 1},
}


def test_write_path_bytes_match_the_parent(tmp_path):
    got = write_sequence(tmp_path)
    assert got["responses"] == PARENT["responses"]
    assert got["versions"] == PARENT["versions"]
    assert got["documents"] == PARENT["documents"]
    assert got["files"] == PARENT["files"]


if __name__ == "__main__":  # prints the literal above
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(write_sequence(Path(tmp)), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
