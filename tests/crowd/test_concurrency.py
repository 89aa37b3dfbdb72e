"""Thread-safety of the document store / repository boundary.

These tests hammer one ``CrowdRepository`` from concurrent uploader and
reader threads under an aggressively small ``sys.setswitchinterval`` so
the interpreter forces thread switches inside the mutation paths.  On
the pre-lock code the readers crash with ``RuntimeError: dictionary
changed size during iteration`` (or observe torn index state); with the
``RLock`` at the :class:`Collection` boundary every interleaving is
safe.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.crowd.database import Collection
from repro.crowd.records import PerformanceRecord
from repro.crowd.repository import CrowdRepository
from tests.conftest import register


N_WRITERS = 4
N_READERS = 4
N_OPS = 150


@pytest.fixture(autouse=True)
def _aggressive_switching():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def _run_threads(targets):
    errors: list[BaseException] = []

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        return run

    threads = [threading.Thread(target=wrap(fn)) for fn in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


class TestCollectionConcurrency:
    def test_concurrent_insert_find_count(self):
        c = Collection("x")
        stop = threading.Event()

        def writer(wid):
            def run():
                for i in range(N_OPS):
                    c.insert({"k": f"w{wid}", "i": i})
                    if i % 10 == 0:
                        c.update({"k": f"w{wid}", "i": i}, {"seen": True})
            return run

        def reader():
            def run():
                while not stop.is_set():
                    c.find({"k": "w0"})
                    c.count({})
                    c.find({}, sort="i", limit=5)
            return run

        errors: list[BaseException] = []

        def guarded(fn):
            def run():
                try:
                    fn()
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
            return run

        reader_threads = [
            threading.Thread(target=guarded(reader())) for _ in range(N_READERS)
        ]
        for t in reader_threads:
            t.start()
        write_errors = _run_threads([writer(w) for w in range(N_WRITERS)])
        stop.set()
        for t in reader_threads:
            t.join()
        assert write_errors == []
        assert errors == []
        assert len(c) == N_WRITERS * N_OPS

    def test_concurrent_delete_and_find(self):
        c = Collection("x")
        c.insert_many([{"k": i % 10, "i": i} for i in range(500)])

        def deleter(group):
            def run():
                c.delete({"k": group})
            return run

        def reader():
            def run():
                for _ in range(50):
                    c.find({})
                    c.count({"k": 3})
            return run

        errors = _run_threads(
            [deleter(g) for g in range(5)] + [reader() for _ in range(4)]
        )
        assert errors == []
        assert len(c) == 250
        assert c.count({"k": {"$lt": 5}}) == 0


class TestRepositoryConcurrency:
    def test_concurrent_upload_and_query(self):
        repo = CrowdRepository()
        key = register(repo.users, "alice")
        stop = threading.Event()

        def uploader(wid):
            def run():
                for i in range(N_OPS):
                    record = PerformanceRecord(
                        problem_name="demo",
                        task_parameters={"t": i % 5},
                        tuning_parameters={"x": float(i), "w": wid},
                        output=float(i),
                    )
                    repo.upload_many([record], key)
            return run

        query_errors: list[BaseException] = []

        def querier():
            def run():
                while not stop.is_set():
                    try:
                        repo.query_docs(key, problem_name="demo")
                        repo.query_docs(
                            key, problem_name="demo", task_parameters={"t": 1}
                        )
                        repo.problems(key)
                    except BaseException as exc:  # noqa: BLE001
                        query_errors.append(exc)
                        return
            return run

        query_threads = [threading.Thread(target=querier()) for _ in range(3)]
        for t in query_threads:
            t.start()
        upload_errors = _run_threads([uploader(w) for w in range(N_WRITERS)])
        stop.set()
        for t in query_threads:
            t.join()
        assert upload_errors == []
        assert query_errors == []
        records = repo.query_docs(key, problem_name="demo")
        assert len(records) == N_WRITERS * N_OPS
        # uids unique even though uploads raced: each is named by its clock tick
        assert len({r["uid"] for r in records}) == N_WRITERS * N_OPS
        # timestamps strictly increase — the logical clock never forked
        stamps = sorted(r["timestamp"] for r in records)
        assert len(set(stamps)) == len(stamps)
