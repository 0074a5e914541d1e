"""Journal-format tests for the work queue (v2 snapshot + JSONL log).

Pins the crash-safety clauses the journaled commit path introduced:
torn-tail healing after a SIGKILLed mid-append writer, exactly-once
replay of a record whose newline never landed, snapshot-compaction
equivalence, batched verb idempotency under duplicate / out-of-order
completes, the heartbeat no-op fast path, and the refusal of a
pre-journal v1 manifest.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import FabricError
from repro.fabric import WorkQueue
from repro.fabric.queue import QUEUE_FORMAT

IDS = ["u-a", "u-b", "u-c", "u-d"]


class Clock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def make_queue(tmp_path, clock, ids=IDS, done=(), **kwargs):
    return WorkQueue.create(
        tmp_path / "q", "sweep-1", ids, done=done, clock=clock, **kwargs
    )


def reopen(tmp_path, clock, **kwargs):
    """A fresh handle on the same queue directory (cold caches)."""
    return WorkQueue(tmp_path / "q", clock=clock, **kwargs)


class TestJournalReplay:
    def test_fresh_handle_replays_the_journal(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock)
        q.lease_batch("w", 1, 10.0)
        q.complete_batch("w", ["u-a"])
        snap = reopen(tmp_path, clock).snapshot()
        assert (snap.done, snap.leased, snap.pending) == (1, 0, 3)
        assert snap.completions == 1

    def test_torn_garbage_tail_is_healed_and_skipped(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock)
        q.lease_batch("w", 1, 10.0)
        # A writer SIGKILLed mid-append: undecodable partial line, no
        # newline.  Its operation never happened.
        with open(q.journal_path, "ab") as fh:
            fh.write(b'{"q": 99, "op": "done", "w": "w"')
        q2 = reopen(tmp_path, clock)
        snap = q2.snapshot()
        assert (snap.leased, snap.done) == (1, 0)
        # The heal isolated the garbage; later appends start clean and
        # every record (old, healed-garbage-skipped, new) replays.
        assert q2.lease_batch("w2", 1, 10.0) == ["u-b"]
        snap3 = reopen(tmp_path, clock).snapshot()
        assert (snap3.leased, snap3.pending) == (2, 2)

    def test_torn_but_decodable_tail_applies_exactly_once(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock)
        q.lease_batch("w", 1, 10.0)
        # The writer died between write() and the newline hitting disk:
        # the record content is complete, only the terminator is torn.
        with open(q.journal_path, "rb+") as fh:
            data = fh.read()
            assert data.endswith(b"\n")
            fh.seek(0)
            fh.truncate()
            fh.write(data[:-1])
        q2 = reopen(tmp_path, clock)
        assert q2.snapshot().leased == 1  # applied once, not zero times
        # A second sync (and a second fresh handle) must not double-
        # apply it: the lease counter stays at 1.
        q2.heartbeat("nobody", ttl=1.0)
        assert reopen(tmp_path, clock).snapshot().leases == 1

    def test_concurrent_handles_converge(self, tmp_path):
        clock = Clock()
        q1 = make_queue(tmp_path, clock)
        q2 = reopen(tmp_path, clock)
        assert q1.lease_batch("w1", 1, 10.0) == ["u-a"]
        assert q2.lease_batch("w2", 1, 10.0) == ["u-b"]  # sees w1's lease
        q1.complete_batch("w1", ["u-a"])
        snap = q2.snapshot()
        assert (snap.done, snap.leased, snap.pending) == (1, 1, 2)


class TestCompaction:
    def test_compacted_state_equals_journaled_state(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock)
        q.lease_batch("w", 1, 10.0)
        q.lease_batch("w", 1, 10.0)
        q.complete_batch("w", ["u-a"])
        before = q.snapshot()
        q.compact()
        assert (tmp_path / "q" / "JOURNAL.jsonl").stat().st_size == 0
        assert reopen(tmp_path, clock).snapshot() == before

    def test_threshold_triggers_compaction(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock, compact_bytes=1)
        q.lease_batch("w", 1, 10.0)  # every append immediately compacts
        assert (tmp_path / "q" / "JOURNAL.jsonl").stat().st_size == 0
        doc = json.loads((tmp_path / "q" / "MANIFEST.json").read_text())
        assert doc["units"]["u-a"]["state"] == "leased"
        assert doc["seq"] == 1

    def test_other_handle_detects_compaction(self, tmp_path):
        clock = Clock()
        q1 = make_queue(tmp_path, clock)
        q2 = reopen(tmp_path, clock)
        assert q2.snapshot().pending == 4  # warm q2's cache first
        q1.lease_batch("w", 1, 10.0)
        q1.complete_batch("w", ["u-a"])
        q1.compact()  # snapshot replaced, journal truncated
        snap = q2.snapshot()
        assert (snap.done, snap.pending) == (1, 3)


class TestBatchedVerbs:
    def test_lease_batch_takes_pending_then_steals(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock)
        assert q.lease_batch("w1", 3, ttl=5.0) == ["u-a", "u-b", "u-c"]
        clock.now += 10.0  # w1's leases expire
        got = q.lease_batch("w2", 10, ttl=5.0)
        assert got == ["u-d", "u-a", "u-b", "u-c"]  # pending first
        snap = q.snapshot()
        assert snap.reissues == 3 and snap.leased == 4
        assert snap.leased_by == {"w2": 4}

    def test_complete_batch_is_idempotent(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock)
        q.lease_batch("w", 4, ttl=10.0)
        assert q.complete_batch("w", ["u-a", "u-b"]) == 2
        # Duplicate and overlapping completes transition nothing new.
        assert q.complete_batch("other", ["u-b", "u-a"]) == 0
        assert q.complete_batch("w", ["u-b", "u-c"]) == 1
        assert q.snapshot().completions == 3

    def test_out_of_order_completes_commute(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock)
        q.lease_batch("w", 4, ttl=10.0)
        # Completion order need not match lease order, and any worker
        # (a thief finishing a re-issued unit) may report it.
        q.complete_batch("thief", ["u-d", "u-b"])
        q.complete_batch("w", ["u-c", "u-a", "u-d"])
        snap = q.snapshot()
        assert snap.finished and snap.completions == 4

    def test_unknown_unit_in_batch_rejects_whole_batch(self, tmp_path):
        q = make_queue(tmp_path, Clock())
        q.lease_batch("w", 2, ttl=10.0)
        with pytest.raises(FabricError, match="unknown unit"):
            q.complete_batch("w", ["u-a", "nope"])
        assert q.snapshot().completions == 0  # atomic: nothing landed

    def test_empty_lease_writes_nothing(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock)
        q.lease_batch("w", 4, ttl=100.0)
        journal = tmp_path / "q" / "JOURNAL.jsonl"
        size = journal.stat().st_size
        assert q.lease_batch("w2", 4, ttl=100.0) == []
        assert journal.stat().st_size == size


class TestHeartbeatNoop:
    def test_leaseless_heartbeat_touches_no_disk(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock)
        q.lease_batch("w", 1, 10.0)
        journal = tmp_path / "q" / "JOURNAL.jsonl"
        manifest = tmp_path / "q" / "MANIFEST.json"
        j_before = journal.stat()
        m_before = manifest.stat()
        assert q.heartbeat("idle-worker", ttl=10.0) == 0
        j_after = journal.stat()
        m_after = manifest.stat()
        assert (j_before.st_size, j_before.st_mtime_ns) == (
            j_after.st_size,
            j_after.st_mtime_ns,
        )
        assert (m_before.st_size, m_before.st_mtime_ns) == (
            m_after.st_size,
            m_after.st_mtime_ns,
        )

    def test_holding_heartbeat_still_commits(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock)
        q.lease_batch("w", 1, 5.0)
        journal = tmp_path / "q" / "JOURNAL.jsonl"
        size = journal.stat().st_size
        assert q.heartbeat("w", ttl=5.0) == 1
        assert journal.stat().st_size > size


class TestV1Manifest:
    def test_v1_manifest_is_refused_naming_both_formats(self, tmp_path):
        """The pre-journal format is not read, upgraded or overwritten."""
        root = tmp_path / "q"
        root.mkdir()
        manifest = root / "MANIFEST.json"
        v1 = json.dumps(
            {
                "format": "repro.fabric-queue/1",
                "sweep": "sweep-1",
                "units": {},
                "leases": 0,
                "completions": 0,
                "reissues": 0,
                "workers": {},
            }
        )
        manifest.write_text(v1)
        for open_queue in (
            lambda: WorkQueue.create(root, "sweep-1", [], clock=Clock()),
            lambda: WorkQueue(root, clock=Clock()).snapshot(),
        ):
            with pytest.raises(FabricError) as exc:
                open_queue()
            assert "'repro.fabric-queue/1'" in str(exc.value)
            assert repr(QUEUE_FORMAT) in str(exc.value)
        assert manifest.read_text() == v1
