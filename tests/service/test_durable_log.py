"""One durability contract, held against both users of ``DurableLog``.

``CrowdShard`` and ``DurableJobQueue`` sit on the same primitive
(:class:`repro.service.wal.DurableLog`), so every test here runs against
both through one parametrized fixture:

* **no lost acknowledged write** — an op acknowledged while the journal
  is being compacted (deterministic interleaving), and under four
  concurrent writers with a checkpoint every 8 ops, is there after a
  restart from disk;
* **the crash matrix** — kill the process at each point of the
  journal/compaction protocol, reopen the directory: every acknowledged
  op is present, nothing that was never attempted is;
* **the checkpoint rule** — a compaction is due after ``snapshot_every``
  ops *and* once the dead bytes reached the live ones, counted from what
  is on disk: an insert-only history never compacts, dead bytes reaching
  live bytes compact exactly once, restarting before every op still
  checkpoints, and recovery reads at most about twice the live data.
  The tests above that need a compaction first journal dead data
  (``prime``), so from then on the floor of ops decides when it comes;
* **on-disk format** — the bytes a fixed single-threaded call sequence
  writes are pinned (the compacted state, its ``checkpoint`` line, then
  the ops journaled after it; the sequences compact explicitly: on their
  insert-only data the checkpoint rule never does).  One format is read:
  the directories commit ``c5d1889`` wrote — an image beside a numbered
  journal, torn final line included — its numbered journal alone, and an
  image beside a compacted journal (a migration killed before the image
  went) are refused with a ``ValueError`` naming the file, every byte of
  the directory left as it was.  The shard image literal lost one
  element, the empty ``surrogate_models`` collection the deleted model
  store created in every shard's store.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import threading
from pathlib import Path

import pytest

from repro.crowd.users import UserRegistry
from repro.fabric import DurableJobQueue
from repro.service import CrowdShard
from repro.service import wal
from repro.service.shard import shard_key

from .journal import journal_bytes

#: a dead-data document: large next to everything the tests write after it
_PAD = "x" * (1 << 16)


# ---------------------------------------------------------------------------
# the two users behind one small driver interface
# ---------------------------------------------------------------------------


class _User:
    """Opens handles and remembers them, so the fixture can release the
    file handles of the ones a test abandoned (= killed) at teardown."""

    def __init__(self) -> None:
        self.opened: list = []

    def open(self, data_dir, snapshot_every=10_000):
        self.opened.append(self._open(data_dir, snapshot_every))
        return self.opened[-1]

    def primed(self, data_dir, snapshot_every):
        """A handle whose journal already holds more dead bytes than the
        test will write live, so its first image comes at the test's
        ``snapshot_every``-th op (the priming ops not counted)."""
        handle = self.open(data_dir, self.prime_ops + snapshot_every)
        self.prime(handle)
        return handle


class ShardUser(_User):
    """Acknowledged write ``i`` = one stamped upload (uid ``i + 1``)."""

    name = "shard"
    ops_per_write = 1
    #: the journal, and the image a version before it kept beside it
    wal_name, parent_image = "wal.jsonl", "snapshot.json"
    #: a second thread's write proceeds while the journal is being compacted
    writes_during_snapshot = True

    def __init__(self) -> None:
        super().__init__()
        self.users = UserRegistry()
        self.users.register("alice", "a@lab.gov")
        self.key = self.users.issue_api_key("alice")

    def _open(self, data_dir, snapshot_every):
        return CrowdShard("s0", data_dir, users=self.users, snapshot_every=snapshot_every)

    #: a padded upload, then the drop of its bucket
    prime_ops = 2
    #: churns per write that outweigh it
    churns = 1

    def prime(self, shard) -> None:
        self.churn(shard, _PAD)

    def churn(self, shard, pad: str = _PAD[:1024]) -> None:
        """Two ops that leave the padded document dead."""
        task = {"t": -1}
        assert self.write(shard, -1, problem="churn", task=task, pad=pad) == -1
        key = shard_key("churn", task)
        assert shard.handle({"route": "drop_bucket", "key": key})["dropped"] == 1

    def write(self, shard, i: int, problem="demo", task=None, pad=None) -> int:
        response = shard.handle(
            {
                "route": "upload",
                "api_key": self.key,
                "problem_name": problem,
                "task_parameters": {"t": i % 3} if task is None else task,
                "tuning_parameters": {"x": i} if pad is None else {"pad": pad},
                "output": float(i),
                "uid": i + 10_000 if i < 0 else i + 1,
                "timestamp": float(i + 1),
            }
        )
        assert response["ok"], response
        return i

    def present(self, shard) -> set[int]:
        docs = shard.repository.store["performance_records"].find({}, frozen=True)
        assert shard.count() == len(docs)
        return {int(doc["uid"]) - 1 for doc in docs}


class QueueUser(_User):
    """Acknowledged write ``i`` = enqueue + complete of one job tagged
    ``i``; present once the job is DONE with its result."""

    name = "queue"
    ops_per_write = 2
    wal_name, parent_image = "queue.wal.jsonl", "queue.snapshot.json"
    #: the queue compacts under its own lock: writers wait for it
    writes_during_snapshot = False

    #: a churn job, leased and redispatched (dead as it is written) 40 times
    prime_ops = 41

    def _open(self, data_dir, snapshot_every):
        return DurableJobQueue(data_dir, snapshot_every=snapshot_every)

    def prime(self, queue) -> None:
        job_id = queue.enqueue({"churn": True})
        for _ in range(40):
            self.churn(queue, job_id)

    #: churns per write that outweigh it
    churns = 8

    def churn(self, queue, job_id=None) -> None:
        """One dead op: a lease of the oldest pending job, redispatched."""
        job = queue.lease(0, 0.0, 1.0)
        assert job is not None and job_id in (None, job.job_id)
        queue.redispatch(job.job_id)

    def write(self, queue, i: int) -> int:
        job_id = queue.enqueue({"i": i})
        assert queue.complete(job_id, f"{job_id}.0", {"y": float(i)}) == "applied"
        return i

    def present(self, queue) -> set[int]:
        done = queue.completed_jobs()
        assert all(job.result == {"y": float(job.config["i"])} for job in done)
        return {int(job.config["i"]) for job in done}


@pytest.fixture(params=[ShardUser, QueueUser], ids=lambda cls: cls.name)
def user(request):
    user = request.param()
    yield user
    for handle in user.opened:
        handle.close()


def _restart(user, tmp_path, handle=None):
    """Reopen the directory; ``handle`` (if given) is closed first, else
    the previous object is simply abandoned — a process kill."""
    if handle is not None:
        handle.close()
    return user.open(tmp_path)


#: the line that ends a compacted journal's rebuilt state
_CHECKPOINT = b'{"op": "checkpoint"}\n'


def _compacted(journal) -> int | None:
    """The bytes of the journal's compacted part (through its checkpoint
    line), ``None`` if it was never compacted."""
    end = journal_bytes(journal).find(_CHECKPOINT)
    return None if end < 0 else end + len(_CHECKPOINT)


def _during_compaction(monkeypatch, step):
    """Run ``step`` inside the next compaction, once the live state is
    listed and before the log takes its lock to copy what was appended
    meanwhile."""
    real = wal.DurableLog.snapshot

    def snapshot(self, ops):
        monkeypatch.setattr(wal.DurableLog, "snapshot", real)  # this one only

        def listed_then_step():
            yield from ops()
            step()

        real(self, listed_then_step)

    monkeypatch.setattr(wal.DurableLog, "snapshot", snapshot)


# ---------------------------------------------------------------------------
# no acknowledged write is lost to a compaction
# ---------------------------------------------------------------------------


def test_write_acked_during_a_snapshot_survives(user, tmp_path, monkeypatch):
    """A second thread's write lands after the live state was listed and
    before the compacted file replaces the journal.  (At c5d1889 the
    shard acknowledged it, counted it, and lost it on restart:
    ``truncate()`` wiped an op the image did not hold.)"""
    handle = user.primed(tmp_path, snapshot_every=3)
    acked: list[int] = []
    inside_window: list[bool] = []
    writers: list[threading.Thread] = []

    def concurrent_writer():
        writer = threading.Thread(target=lambda: acked.append(user.write(handle, 100)))
        writer.start()
        # the shard's writer finishes inside the window; the queue's waits
        # for the queue lock the compaction holds, so stop waiting for it
        writer.join(timeout=30 if user.writes_during_snapshot else 0.2)
        inside_window.append(not writer.is_alive())
        writers.append(writer)

    _during_compaction(monkeypatch, concurrent_writer)
    for i in range(3):
        acked.append(user.write(handle, i))
    for writer in writers:
        writer.join(timeout=30)
        assert not writer.is_alive()
    assert inside_window == [user.writes_during_snapshot]
    assert _compacted(tmp_path / user.wal_name) is not None
    acked.append(user.write(handle, 101))  # follows the copied tail, not its zeros
    assert len(acked) == 5 and user.present(handle) == set(acked)
    assert user.present(_restart(user, tmp_path, handle)) == set(acked)
    assert [path.name for path in tmp_path.iterdir()] == [user.wal_name]


def test_concurrent_writers_lose_nothing_across_a_restart(user, tmp_path):
    handle = user.open(tmp_path, snapshot_every=8)
    acked: list[list[int]] = [[] for _ in range(4)]

    def writer(t: int) -> None:
        for i in range(200):
            acked[t].append(user.write(handle, 1000 * t + i))

    threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads mid-operation, often
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    everything = {ident for per_thread in acked for ident in per_thread}
    assert len(everything) == 800
    assert user.present(_restart(user, tmp_path, handle)) == everything
    # and without the clean close: whatever was acknowledged is on disk
    handle = user.open(tmp_path, snapshot_every=8)
    user.write(handle, 5000)
    assert user.present(_restart(user, tmp_path)) >= everything


# ---------------------------------------------------------------------------
# the crash matrix
# ---------------------------------------------------------------------------


class _Kill(BaseException):
    """The process dies here (BaseException: no handler swallows it)."""


def _kill_after_append(monkeypatch, user):
    real = wal.DurableLog.append

    def append_then_die(self, op, dead=0):
        real(self, op, dead)
        raise _Kill

    monkeypatch.setattr(wal.DurableLog, "append", append_then_die)


def _kill_at_replace(after: bool):
    """Die as the compacted file replaces the journal: before the rename,
    or after it and before the journal is reopened."""

    def arm(monkeypatch, user):
        real = os.replace

        def replace_and_die(src, dst):
            if os.path.basename(dst) != user.wal_name:
                real(src, dst)
                return
            if after:
                real(src, dst)
            raise _Kill

        monkeypatch.setattr(os, "replace", replace_and_die)

    return arm


def _kill_mid_growth(holes: bool):
    """Die in an append that allocates: its line is written, and then the
    file ends right after it (the zeros never written) or only its new
    size reached the disk (a hole where the zeros go)."""

    def arm(monkeypatch, user):
        real = wal.DurableLog._write_locked

        def exhausted(self, ops, dead):
            self._alloc = self._bytes  # the zeros run out here
            real(self, ops, dead)

        def write_line_then_die(fd, data, offset):
            if data.strip(b"\0"):
                os.pwrite(fd, data, offset)
                return
            os.ftruncate(fd, offset)
            if holes:
                os.ftruncate(fd, offset + len(data))
            raise _Kill

        monkeypatch.setattr(wal.DurableLog, "_write_locked", exhausted)
        monkeypatch.setattr(wal, "_pwrite", write_line_then_die)

    return arm


#: kill point -> how to arm it; each fires inside write number 5 (the
#: one that makes the compaction due) or, for the append and growth
#: points, write 5's first journaled op.  ``mid-tail-rewrite`` is the compacted file not yet
#: in place while a second writer was acknowledged during the compaction
#: (the queue's waits for the queue lock, and gets in once the kill has
#: released it): the old journal holds that write either way.
KILL_POINTS = {
    "appended-not-acked": _kill_after_append,
    "grown-short": _kill_mid_growth(holes=False),
    "grown-with-holes": _kill_mid_growth(holes=True),
    "snapshot-tmp-not-replaced": _kill_at_replace(after=False),
    "snapshot-replaced-not-reopened": _kill_at_replace(after=True),
    "mid-tail-rewrite": _kill_at_replace(after=False),
}


@pytest.mark.parametrize("point", sorted(KILL_POINTS))
def test_acked_ops_survive_kill(user, point, tmp_path, monkeypatch):
    handle = user.primed(tmp_path, snapshot_every=5 * user.ops_per_write)
    acked = {user.write(handle, i) for i in range(4)}
    writers: list[threading.Thread] = []
    if point == "mid-tail-rewrite":

        def concurrent_writer():
            writer = threading.Thread(target=lambda: acked.add(user.write(handle, 50)))
            writer.start()
            writer.join(timeout=30 if user.writes_during_snapshot else 0.2)
            writers.append(writer)

        _during_compaction(monkeypatch, concurrent_writer)
    KILL_POINTS[point](monkeypatch, user)
    with pytest.raises(_Kill):
        user.write(handle, 4)  # in flight: never acknowledged
    monkeypatch.undo()
    for writer in writers:
        writer.join(timeout=30)
        assert not writer.is_alive() and 50 in acked
    if point.startswith("snapshot") or point == "mid-tail-rewrite":
        # the dying write had journaled everything before the compaction began
        acked.add(4)
    recovered = _restart(user, tmp_path)
    assert acked <= user.present(recovered) <= acked | {4}
    assert [path.name for path in tmp_path.iterdir()] == [user.wal_name]
    journal_bytes(tmp_path / user.wal_name)  # zeros past the logical end
    # the recovered directory keeps working: write, restart, still there
    acked.add(user.write(recovered, 7))
    assert acked <= user.present(_restart(user, tmp_path, recovered)) <= acked | {4}
    journal_bytes(tmp_path / user.wal_name)


def _torn_append_is_cut_off(user, tmp_path, *parts: tuple[int, bytes]) -> None:
    """A power cut tore an append: ``parts`` are what reached the disk, as
    ``(offset past the logical end, bytes)``.  Recovery keeps the acked ops
    and cuts the rest off, and the next entry starts on its own line."""
    handle = user.primed(tmp_path, snapshot_every=3 * user.ops_per_write)
    acked = {user.write(handle, i) for i in range(5)}  # a compaction + a tail
    journal = tmp_path / user.wal_name
    end = len(journal_bytes(journal))
    assert end > _compacted(journal)
    with open(journal, "r+b") as fh:  # power cut
        for at, data in parts:
            fh.seek(end + at)
            fh.write(data)
    recovered = _restart(user, tmp_path)
    assert user.present(recovered) == acked
    assert len(journal_bytes(journal)) == end  # cut off: zeros past the end
    acked.add(user.write(recovered, 9))
    assert user.present(_restart(user, tmp_path)) == acked
    assert all(json.loads(line) for line in journal_bytes(journal).splitlines())


def test_torn_final_journal_line_is_discarded_and_cut_off(user, tmp_path):
    # a prefix of the line, the zeros after it untouched
    _torn_append_is_cut_off(user, tmp_path, (0, b'{"op": "ins'))


def test_a_torn_append_whose_pages_landed_out_of_order_is_cut_off(user, tmp_path):
    # a prefix, a gap of zeros inside the line, then a later page
    _torn_append_is_cut_off(
        user, tmp_path, (0, b'{"op": "ins'), (4096, b'ert", "c": 1}\n{"op": "dr')
    )


# ---------------------------------------------------------------------------
# the checkpoint rule
# ---------------------------------------------------------------------------


def _compactions(monkeypatch) -> list[int]:
    """The size of every compacted state written from here on."""
    sizes: list[int] = []
    real = wal.DurableLog.snapshot

    def measured(self, ops):
        real(self, ops)
        sizes.append(_compacted(self.wal_path))

    monkeypatch.setattr(wal.DurableLog, "snapshot", measured)
    return sizes


def test_an_insert_only_history_writes_no_image(user, tmp_path, monkeypatch):
    """Replaying a journaled insert decodes the document a compacted
    journal would: re-encoding live data buys nothing at recovery."""
    sizes = _compactions(monkeypatch)
    handle = user.open(tmp_path, snapshot_every=4 * user.ops_per_write)
    acked = {user.write(handle, i) for i in range(240)}
    assert sizes == [] and _compacted(tmp_path / user.wal_name) is None
    assert user.present(_restart(user, tmp_path, handle)) == acked


def test_dead_bytes_reaching_live_bytes_write_one_image(user, tmp_path, monkeypatch):
    every = 4 * user.ops_per_write
    handle = user.open(tmp_path, snapshot_every=every)
    acked = {user.write(handle, i) for i in range(20)}
    if user.name == "queue":
        handle.enqueue({"churn": True})
    sizes = _compactions(monkeypatch)
    churned = 0
    while not sizes:
        # dead bytes below the live ones: no compaction yet
        assert 2 * churned < 1000
        user.churn(handle)
        churned += 1
    assert len(sizes) == 1
    # the journal is the live data, and nothing was journaled after it
    assert len(journal_bytes(tmp_path / user.wal_name)) == sizes[0]
    assert user.present(_restart(user, tmp_path, handle)) == acked


def test_restarting_before_every_checkpoint_still_checkpoints(user, tmp_path):
    """A process restarted before every op: the ops since the compaction
    and the dead bytes are recounted from disk.  (Before the counts came
    from disk, every run started its op count at zero and the journal
    grew without bound.)"""
    every = 5 * user.ops_per_write + 1
    handle = user.open(tmp_path, snapshot_every=every)
    acked = {user.write(handle, i) for i in range(5)}
    if user.name == "queue":
        handle.enqueue({"churn": True})
    for _ in range(200):
        handle.close()
        handle = user.open(tmp_path, snapshot_every=every)
        user.churn(handle)
        if _compacted(tmp_path / user.wal_name) is not None:
            break
    assert _compacted(tmp_path / user.wal_name) is not None
    assert user.present(_restart(user, tmp_path, handle)) == acked


def test_the_floor_counts_only_what_follows_the_compacted_part(user, tmp_path, monkeypatch):
    """Recovery restarts the floor at the checkpoint line: the compacted
    lines rebuild the state, they are not ops journaled since the last
    compaction."""
    every = user.prime_ops + 3
    handle = user.open(tmp_path, snapshot_every=every)
    acked = {user.write(handle, i) for i in range(5)}
    handle.snapshot()
    handle.close()
    sizes = _compactions(monkeypatch)
    handle = user.open(tmp_path, snapshot_every=every)
    user.prime(handle)  # dead bytes past the live ones, the floor not reached
    assert sizes == []
    for _ in range(3):
        user.churn(handle)
    assert len(sizes) == 1
    assert user.present(_restart(user, tmp_path, handle)) == acked


def test_recovery_reads_at_most_about_twice_the_live_data(user, tmp_path, monkeypatch):
    """Writes and churn interleaved: whatever point the process stops
    at, recovery reads the live data plus at most as many dead bytes,
    give or take the floor's ops."""
    every = 4 * user.ops_per_write
    sizes = _compactions(monkeypatch)
    live_dir, probe_dir = tmp_path / "live", tmp_path / "probe"
    handle = user.open(live_dir, snapshot_every=every)
    if user.name == "queue":
        handle.enqueue({"churn": True})
    acked = set()
    for i in range(120):
        acked.add(user.write(handle, i))
        for _ in range(user.churns):
            user.churn(handle)
        if i % 20 == 19:
            # the live data: a compaction of the same state, in a copy
            compactions = len(sizes)
            shutil.copytree(live_dir, probe_dir)
            probe = user.open(probe_dir)
            probe.snapshot()
            probe.close()
            live = sizes.pop()
            assert len(sizes) == compactions
            shutil.rmtree(probe_dir)
            assert len(journal_bytes(live_dir / user.wal_name)) <= 2 * live + every * 1200
    assert len(sizes) >= 2  # the churn was compacted along the way
    assert user.present(_restart(user, live_dir, handle)) == acked


# ---------------------------------------------------------------------------
# the on-disk format, and the one migration from c5d1889's
# ---------------------------------------------------------------------------


def _record(uid: int, task: int) -> dict:
    return {
        "problem_name": "demo",
        "task_parameters": {"t": task},
        "tuning_parameters": {"x": uid},
        "output": float(uid),
        "uid": uid,
        "timestamp": float(uid),
    }


def shard_sequence(data_dir) -> None:
    """A fixed call sequence: a compaction after op 5, then a tail
    holding an ``insert``, a batched ``insert_many`` and a ``delete``."""
    who = ShardUser()
    shard = CrowdShard("s0", data_dir, users=who.users, snapshot_every=5)
    for uid in range(1, 7):
        assert shard.handle({"route": "upload", "api_key": who.key, **_record(uid, uid % 2)})["ok"]
        if uid == 5:
            shard.snapshot()
    healed = [{**_record(uid, 1), "owner": "bob"} for uid in (50, 51)]
    assert shard.handle({"route": "replicate", "records": healed})["applied"] == 2
    assert shard.handle({"route": "drop_bucket", "key": shard_key("demo", {"t": 0})})["dropped"] == 3
    shard.close()


def queue_sequence(data_dir) -> None:
    """A fixed call sequence: a compaction after op 5, then a tail
    holding a ``redispatch``, a ``complete`` and an ``enqueue``."""
    queue = DurableJobQueue(data_dir, snapshot_every=5)
    for i in range(4):
        queue.enqueue({"x": i / 4})
    first = queue.lease(0, 0.0, 1.0)
    assert queue.complete(first.job_id, first.lease_token, {"y": 0.5}) == "applied"
    queue.snapshot()
    second = queue.lease(0, 0.0, 1.0)
    queue.redispatch(second.job_id)
    third = queue.lease(1, 2.0, 1.0)
    assert queue.complete(third.job_id, third.lease_token, {"y": 1.5, "worker": 1}) == "applied"
    queue.enqueue({"x": 0.9})
    queue.close()


#: what the two sequences write, byte for byte
WRITTEN_BYTES = {
    'wal.jsonl': (
        '{"c": "performance_records", "next_id": 6, "op": "collection"}\n'
        '{"c": "performance_records", "doc": {"_id": 1, "accessibility": {"groups": [], '
        '"level": "public"}, "machine_configuration": {}, "output": 1.0, "owner": "alice", '
        '"problem_name": "demo", "software_configuration": {}, "task_parameters": {"t": 1}, '
        '"timestamp": 1.0, "tuning_parameters": {"x": 1}, "uid": 1}, "op": "insert"}\n'
        '{"c": "performance_records", "doc": {"_id": 2, "accessibility": {"groups": [], '
        '"level": "public"}, "machine_configuration": {}, "output": 2.0, "owner": "alice", '
        '"problem_name": "demo", "software_configuration": {}, "task_parameters": {"t": 0}, '
        '"timestamp": 2.0, "tuning_parameters": {"x": 2}, "uid": 2}, "op": "insert"}\n'
        '{"c": "performance_records", "doc": {"_id": 3, "accessibility": {"groups": [], '
        '"level": "public"}, "machine_configuration": {}, "output": 3.0, "owner": "alice", '
        '"problem_name": "demo", "software_configuration": {}, "task_parameters": {"t": 1}, '
        '"timestamp": 3.0, "tuning_parameters": {"x": 3}, "uid": 3}, "op": "insert"}\n'
        '{"c": "performance_records", "doc": {"_id": 4, "accessibility": {"groups": [], '
        '"level": "public"}, "machine_configuration": {}, "output": 4.0, "owner": "alice", '
        '"problem_name": "demo", "software_configuration": {}, "task_parameters": {"t": 0}, '
        '"timestamp": 4.0, "tuning_parameters": {"x": 4}, "uid": 4}, "op": "insert"}\n'
        '{"c": "performance_records", "doc": {"_id": 5, "accessibility": {"groups": [], '
        '"level": "public"}, "machine_configuration": {}, "output": 5.0, "owner": "alice", '
        '"problem_name": "demo", "software_configuration": {}, "task_parameters": {"t": 1}, '
        '"timestamp": 5.0, "tuning_parameters": {"x": 5}, "uid": 5}, "op": "insert"}\n'
        '{"op": "checkpoint"}\n'
        '{"c": "performance_records", "doc": {"_id": 6, "accessibility": {"groups": [], '
        '"level": "public"}, "machine_configuration": {}, "output": 6.0, "owner": "alice", '
        '"problem_name": "demo", "software_configuration": {}, "task_parameters": {"t": 0}, '
        '"timestamp": 6.0, "tuning_parameters": {"x": 6}, "uid": 6}, "op": "insert"}\n'
        '{"c": "performance_records", "docs": [{"_id": 7, "output": 50.0, "owner": "bob", '
        '"problem_name": "demo", "task_parameters": {"t": 1}, "timestamp": 50.0, '
        '"tuning_parameters": {"x": 50}, "uid": 50}, {"_id": 8, "output": 51.0, "owner": '
        '"bob", "problem_name": "demo", "task_parameters": {"t": 1}, "timestamp": 51.0, '
        '"tuning_parameters": {"x": 51}, "uid": 51}], "op": "insert_many"}\n'
        '{"c": "performance_records", "flt": {"_id": {"$in": [2, 4, 6]}}, "op": "delete"}\n'
    ),
    'queue.wal.jsonl': (
        '{"attempt": 0, "config": {"x": 0.0}, "job_id": 0, "op": "job", "redispatches": 0, '
        '"result": {"y": 0.5}, "state": "done", "token": "0.0"}\n'
        '{"attempt": 0, "config": {"x": 0.25}, "job_id": 1, "op": "job", "redispatches": 0, '
        '"result": null, "state": "pending", "token": null}\n'
        '{"attempt": 0, "config": {"x": 0.5}, "job_id": 2, "op": "job", "redispatches": 0, '
        '"result": null, "state": "pending", "token": null}\n'
        '{"attempt": 0, "config": {"x": 0.75}, "job_id": 3, "op": "job", "redispatches": 0, '
        '"result": null, "state": "pending", "token": null}\n'
        '{"op": "checkpoint"}\n'
        '{"attempt": 1, "job_id": 1, "op": "redispatch"}\n'
        '{"job_id": 2, "op": "complete", "result": {"worker": 1, "y": 1.5}, "token": "2.0"}\n'
        '{"config": {"x": 0.9}, "job_id": 4, "op": "enqueue"}\n'
    ),
}

#: what the two sequences left on disk at c5d1889, byte for byte
PARENT_BYTES = {
    'snapshot.json': (
        '{"format": "gptunecrowd-shard-snapshot-v1", '
        '"store": {"collections": [{"docs": [{"_id": 1, "accessibility": {"groups": [], '
        '"level": "public"}, "machine_configuration": {}, "output": 1.0, "owner": "alice", '
        '"problem_name": "demo", "software_configuration": {}, "task_parameters": {"t": 1}, '
        '"timestamp": 1.0, "tuning_parameters": {"x": 1}, "uid": 1}, {"_id": 2, '
        '"accessibility": {"groups": [], "level": "public"}, "machine_configuration": {}, '
        '"output": 2.0, "owner": "alice", "problem_name": "demo", "software_configuration": {}, '
        '"task_parameters": {"t": 0}, "timestamp": 2.0, "tuning_parameters": {"x": 2}, '
        '"uid": 2}, {"_id": 3, "accessibility": {"groups": [], "level": "public"}, '
        '"machine_configuration": {}, "output": 3.0, "owner": "alice", "problem_name": "demo", '
        '"software_configuration": {}, "task_parameters": {"t": 1}, "timestamp": 3.0, '
        '"tuning_parameters": {"x": 3}, "uid": 3}, {"_id": 4, "accessibility": {"groups": [], '
        '"level": "public"}, "machine_configuration": {}, "output": 4.0, "owner": "alice", '
        '"problem_name": "demo", "software_configuration": {}, "task_parameters": {"t": 0}, '
        '"timestamp": 4.0, "tuning_parameters": {"x": 4}, "uid": 4}, {"_id": 5, '
        '"accessibility": {"groups": [], "level": "public"}, "machine_configuration": {}, '
        '"output": 5.0, "owner": "alice", "problem_name": "demo", "software_configuration": {}, '
        '"task_parameters": {"t": 1}, "timestamp": 5.0, "tuning_parameters": {"x": 5}, '
        '"uid": 5}], "name": "performance_records", "next_id": 6}], '
        '"format": "gptunecrowd-store-v1"}, '
        '"wal_seq": 5}'
    ),
    'wal.jsonl': (
        '{"c": "performance_records", "doc": {"_id": 6, "accessibility": {"groups": [], '
        '"level": "public"}, "machine_configuration": {}, "output": 6.0, "owner": "alice", '
        '"problem_name": "demo", "software_configuration": {}, "task_parameters": {"t": 0}, '
        '"timestamp": 6.0, "tuning_parameters": {"x": 6}, "uid": 6}, "op": "insert", "seq": 6}\n'
        '{"c": "performance_records", "docs": [{"_id": 7, "output": 50.0, "owner": "bob", '
        '"problem_name": "demo", "task_parameters": {"t": 1}, "timestamp": 50.0, '
        '"tuning_parameters": {"x": 50}, "uid": 50}, {"_id": 8, "output": 51.0, "owner": "bob", '
        '"problem_name": "demo", "task_parameters": {"t": 1}, "timestamp": 51.0, '
        '"tuning_parameters": {"x": 51}, "uid": 51}], "op": "insert_many", "seq": 7}\n'
        '{"c": "performance_records", "flt": {"_id": {"$in": [2, 4, 6]}}, "op": "delete", '
        '"seq": 8}\n'
    ),
    'queue.snapshot.json': (
        '{"format": "gptunecrowd-fabric-queue-v1", "jobs": [{"attempt": 0, "config": {"x": 0.0}, '
        '"job_id": 0, "redispatches": 0, "result": {"y": 0.5}, "state": "done", "token": "0.0"}, '
        '{"attempt": 0, "config": {"x": 0.25}, "job_id": 1, "redispatches": 0, "result": null, '
        '"state": "pending", "token": null}, {"attempt": 0, "config": {"x": 0.5}, "job_id": 2, '
        '"redispatches": 0, "result": null, "state": "pending", "token": null}, {"attempt": 0, '
        '"config": {"x": 0.75}, "job_id": 3, "redispatches": 0, "result": null, '
        '"state": "pending", "token": null}], "next_job_id": 4, "wal_seq": 5}'
    ),
    'queue.wal.jsonl': (
        '{"attempt": 1, "job_id": 1, "op": "redispatch", "seq": 6}\n'
        '{"job_id": 2, "op": "complete", "result": {"worker": 1, "y": 1.5}, "seq": 7, '
        '"token": "2.0"}\n'
        '{"config": {"x": 0.9}, "job_id": 4, "op": "enqueue", "seq": 8}\n'
    ),
}
SEQUENCES = {"shard": shard_sequence, "queue": queue_sequence}


def test_fixed_sequence_writes_the_pinned_bytes(user, tmp_path):
    SEQUENCES[user.name](tmp_path)
    written = {path.name: journal_bytes(path).decode() for path in tmp_path.iterdir()}
    assert written == {user.wal_name: WRITTEN_BYTES[user.wal_name]}


def _directory(path, files: dict[str, str]):
    path.mkdir()
    for name, text in files.items():
        (path / name).write_text(text)
    return path


def _refused(user, path, offending: str) -> None:
    """Opening ``path`` raises a ``ValueError`` naming ``offending`` and
    leaves every byte of the directory as it was."""
    before = {p.name: p.read_bytes() for p in path.iterdir()}
    with pytest.raises(ValueError, match=re.escape(str(path / offending))):
        user.open(path)
    assert {p.name: p.read_bytes() for p in path.iterdir()} == before


@pytest.mark.parametrize("torn", [False, True], ids=["intact", "torn-final-line"])
def test_parent_written_directory_is_refused(user, torn, tmp_path):
    """The directory the user's sequence left at c5d1889."""
    journal = PARENT_BYTES[user.wal_name] + ('{"seq": 9, "op": "enq' if torn else "")
    files = {user.wal_name: journal, user.parent_image: PARENT_BYTES[user.parent_image]}
    _refused(user, _directory(tmp_path / "old", files), user.parent_image)


def test_a_numbered_journal_without_its_image_is_refused(user, tmp_path):
    files = {user.wal_name: PARENT_BYTES[user.wal_name]}
    _refused(user, _directory(tmp_path / "old", files), user.wal_name)


def test_an_image_beside_a_compacted_journal_is_refused(user, tmp_path):
    """What a migration killed before it deleted the image left behind."""
    files = {
        user.wal_name: WRITTEN_BYTES[user.wal_name],
        user.parent_image: PARENT_BYTES[user.parent_image],
    }
    _refused(user, _directory(tmp_path / "old", files), user.parent_image)


if __name__ == "__main__":  # prints WRITTEN_BYTES for the checkout on PYTHONPATH
    import tempfile

    for label, sequence in (("SHARD", shard_sequence), ("QUEUE", queue_sequence)):
        with tempfile.TemporaryDirectory() as tmp:
            sequence(tmp)
            for path in sorted(Path(tmp).iterdir()):
                sys.stdout.write(f"{label} {path.name} = {journal_bytes(path).decode()!r}\n")
