"""Shutdown tests: no daemon thread outlives a closed deployment.

Regression coverage for the background-thread leak: the router's
anti-entropy loop kept running after teardown, bleeding work (and file
handles, with ``data_dir``) across test boundaries and fabric runs.
"""

from __future__ import annotations

import gc
import threading
import time
import weakref

from repro.registry import RegistryOptions
from repro.service import build_service

BACKGROUND = ("crowd-antientropy",)


def background_threads() -> list[str]:
    return [
        t.name
        for t in threading.enumerate()
        if t.is_alive() and any(t.name.startswith(b) for b in BACKGROUND)
    ]


def wait_gone(deadline_s: float = 5.0) -> list[str]:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        left = background_threads()
        if not left:
            return []
        time.sleep(0.01)
    return background_threads()


class TestServiceClose:
    def test_close_stops_anti_entropy_thread(self):
        svc = build_service(2, anti_entropy_interval_s=0.01)
        time.sleep(0.05)
        assert any(n.startswith("crowd-antientropy") for n in background_threads())
        svc.close()
        assert wait_gone() == []

    def test_context_manager_closes_everything(self):
        with build_service(
            3,
            anti_entropy_interval_s=0.01,
            registry=RegistryOptions(),
        ) as svc:
            _, key = svc.register_user("closer", "c@crowd.io")
            assert svc.client.handle(
                {
                    "route": "upload",
                    "api_key": key,
                    "problem_name": "p",
                    "task_parameters": {"t": 1},
                    "tuning_parameters": {"x": 0.5},
                    "output": 1.0,
                }
            )["ok"]
        assert wait_gone() == []

    def test_a_registry_starts_no_thread_of_its_own(self, tmp_path, monkeypatch):
        """Builds run on the thread that stored the record, and the router
        asks its shards on the calling thread: a deployment without
        anti-entropy starts no thread, and ``close()`` leaves none."""
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        before = set(threading.enumerate())
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        with build_service(4, data_dir=tmp_path, registry=RegistryOptions()) as svc:
            _, key = svc.register_user("closer", "c@crowd.io")
            space = {"parameter_space": [
                {"name": "x", "type": "real", "lower_bound": 0.0, "upper_bound": 1.0}
            ]}
            request = {"api_key": key, "problem_name": "p", "task_parameters": {"t": 0}}
            assert svc.client.handle(
                {**request, "route": "register_problem", "problem_space": space}
            )["ok"]
            for i in range(60):
                assert svc.client.handle(
                    {**request, "route": "upload", "task_parameters": {"t": i % 12},
                     "tuning_parameters": {"x": (i % 10) / 10.0}, "output": float(i)}
                )["ok"]
            assert svc.client.handle(
                {**request, "route": "predict", "configurations": [{"x": 0.5}]}
            )["ok"]
        assert started == []
        assert set(threading.enumerate()) <= before

    def test_close_is_idempotent(self):
        svc = build_service(2, anti_entropy_interval_s=0.01)
        svc.close()
        svc.close()  # second close must be a no-op, not an error
        assert wait_gone() == []

    def test_close_after_partial_teardown(self):
        """Removing a shard first must not break the full shutdown."""
        svc = build_service(3, anti_entropy_interval_s=0.01)
        svc.remove_shard("shard-2")
        svc.close()
        assert wait_gone() == []

    def test_router_and_shard_close_idempotent(self):
        svc = build_service(2, registry=RegistryOptions())
        with svc.router:
            pass
        svc.router.close()
        for shard in svc.shards.values():
            with shard:
                pass
            shard.close()
        svc.close()
        assert wait_gone() == []


class TestClosedShardIsFreed:
    def _service(self, tmp_path):
        svc = build_service(2, data_dir=tmp_path, registry=RegistryOptions())
        _, key = svc.register_user("closer", "c@crowd.io")
        for i in range(6):
            assert svc.client.handle(
                {
                    "route": "upload",
                    "api_key": key,
                    "problem_name": "p",
                    "task_parameters": {"t": i},
                    "tuning_parameters": {"x": 0.1 * i},
                    "output": float(i),
                }
            )["ok"]
        return svc, key

    def test_restart_frees_the_old_node_by_refcount(self, tmp_path):
        """``close()`` breaks the store -> observer -> shard cycle and the
        node holds no bound methods of itself, so the node a restart
        replaces — its store and registry included — is gone at once: no
        collector pass, no second copy of the store waiting for one."""
        svc, _ = self._service(tmp_path)
        gc.collect()
        gc.disable()
        try:
            node = svc.shards["shard-0"]
            old = [
                weakref.ref(part)
                for part in (node, node.repository.store, node.registry)
            ]
            records = node.count()
            del node
            svc.restart_shard("shard-0")
            assert [ref() for ref in old] == [None] * len(old)
            assert svc.shards["shard-0"].count() == records
        finally:
            gc.enable()
            svc.close()

    def test_closed_shard_refuses_unjournaled_writes(self, tmp_path):
        svc, key = self._service(tmp_path)
        shard = svc.shards["shard-0"]
        shard.close()
        response = shard.handle(
            {
                "route": "upload",
                "api_key": key,
                "problem_name": "p",
                "task_parameters": {"t": 99},
                "tuning_parameters": {"x": 0.5},
                "output": 1.0,
            }
        )
        assert not response["ok"]
        svc.close()
