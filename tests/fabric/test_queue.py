"""Unit tests for the durable work queue's lease state machine.

Each test pins one clause of the pending → leased → done machine with
an injected clock: FIFO leasing, heartbeat extension, expiry-based
stealing, idempotent completion, clean release, and resume semantics
(same sweep id keeps done units; different id or unit set refuses).
"""

from __future__ import annotations

import json

import pytest

from repro.errors import FabricError
from repro.fabric import QueueSnapshot, WorkQueue

IDS = ["u-a", "u-b", "u-c"]


class Clock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def make_queue(tmp_path, clock, ids=IDS, done=()):
    return WorkQueue.create(
        tmp_path / "q", "sweep-1", ids, done=done, clock=clock
    )


class TestLease:
    @pytest.mark.parametrize("ttl", [0.0, -1.0, float("nan"), float("inf")])
    def test_ttl_must_be_positive_and_finite(self, tmp_path, ttl):
        clock = Clock()
        q = make_queue(tmp_path, clock)
        with pytest.raises(FabricError, match="positive and finite"):
            q.lease_batch("w", 1, ttl)
        q.lease_batch("w", 1, 10.0)
        with pytest.raises(FabricError, match="positive and finite"):
            q.heartbeat("w", ttl)
        snap = q.snapshot()
        assert (snap.pending, snap.leased) == (2, 1)

    def test_fifo_then_none(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock)
        assert q.lease_batch("w1", 1, 10.0) == ["u-a"]
        assert q.lease_batch("w1", 1, 10.0) == ["u-b"]
        assert q.lease_batch("w2", 1, 10.0) == ["u-c"]
        assert q.lease_batch("w2", 1, 10.0) == []  # all leased, none expired
        assert not q.finished()

    def test_expired_lease_is_stolen_oldest_first(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock)
        q.lease_batch("dead", 1, 5.0)   # u-a expires at 1005
        clock.now += 2.0
        q.lease_batch("dying", 1, 5.0)  # u-b expires at 1007
        q.lease_batch("w", 1, 100.0)    # u-c healthy
        clock.now = 1008.0         # both short leases expired
        # Oldest expiry first.
        assert q.lease_batch("thief", 1, 100.0) == ["u-a"]
        assert q.lease_batch("thief", 1, 100.0) == ["u-b"]
        assert q.lease_batch("thief", 1, 100.0) == []
        snap = q.snapshot()
        assert snap.reissues == 2
        assert snap.leases == 5

    def test_heartbeat_extends_every_lease_of_the_worker(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock)
        q.lease_batch("w", 1, 5.0)
        q.lease_batch("w", 1, 5.0)
        clock.now += 4.0
        assert q.heartbeat("w", ttl=5.0) == 2
        clock.now += 4.0  # would be past the original expiry
        assert q.lease_batch("thief", 1, 5.0) == ["u-c"]  # pending, not stolen
        assert q.snapshot().reissues == 0

    def test_attempts_count_reissues(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock, ids=["u-a"])
        q.lease_batch("w1", 1, 1.0)
        clock.now += 10.0
        assert q.lease_batch("w2", 1, 1.0) == ["u-a"]  # nothing pending: steal
        q.compact()  # fold the journal so the snapshot is current
        doc = json.loads((tmp_path / "q" / "MANIFEST.json").read_text())
        assert doc["units"]["u-a"]["attempts"] == 2


class TestLeaseShare:
    """With the worker count W, a lease takes ⌈pending / (2·W)⌉ units."""

    IDS28 = [f"u-{i:02d}" for i in range(28)]

    def drain(self, q, k, workers):
        sizes = []
        while got := q.lease_batch(
            f"w{len(sizes) % 2}", k, 10.0, workers=workers
        ):
            sizes.append(len(got))
        return sizes

    def test_successive_leases_shrink_with_the_pending_count(self, tmp_path):
        q = make_queue(tmp_path, Clock(), ids=self.IDS28)
        assert self.drain(q, 16, workers=2) == [7, 6, 4, 3, 2, 2, 1, 1, 1, 1]
        assert q.snapshot().leased == 28

    def test_the_batch_still_caps_the_share(self, tmp_path):
        q = make_queue(tmp_path, Clock(), ids=self.IDS28)
        assert self.drain(q, 3, workers=1) == [3] * 8 + [2, 1, 1]

    def test_without_a_worker_count_the_batch_holds(self, tmp_path):
        q = make_queue(tmp_path, Clock(), ids=self.IDS28)
        assert len(q.lease_batch("w", 16, 10.0)) == 16
        assert len(q.lease_batch("w", 16, 10.0)) == 12

    def test_steals_one_expired_lease_at_a_time(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock)
        q.lease_batch("dead", 3, 1.0)
        clock.now += 5.0  # nothing pending: the share is one unit
        assert q.lease_batch("thief", 3, 10.0, workers=2) == ["u-a"]
        assert q.lease_batch("thief", 3, 10.0) == ["u-b", "u-c"]

    def test_worker_count_must_be_positive(self, tmp_path):
        q = make_queue(tmp_path, Clock())
        with pytest.raises(FabricError, match="worker count"):
            q.lease_batch("w", 1, 10.0, workers=0)
        assert q.snapshot().leased == 0


class TestCompleteRelease:
    def test_complete_is_idempotent_and_any_worker(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock)
        q.lease_batch("w1", 1, 1.0)
        assert q.complete_batch("other", ["u-a"]) == 1  # thief completes
        assert q.complete_batch("w1", ["u-a"]) == 0    # resurrected holder
        assert q.snapshot().completions == 1

    def test_complete_unknown_unit_raises(self, tmp_path):
        q = make_queue(tmp_path, Clock())
        with pytest.raises(FabricError, match="unknown unit"):
            q.complete_batch("w", ["nope"])

    def test_release_returns_unit_to_pending(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock)
        q.lease_batch("w", 1, 100.0)
        q.release("w", "u-a")
        assert q.lease_batch("w2", 1, 1.0) == ["u-a"]  # immediately leasable

    def test_release_ignores_foreign_lease(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock)
        q.lease_batch("w", 1, 100.0)
        q.release("other", "u-a")  # not the holder: no-op
        assert q.snapshot().leased == 1

    def test_finished_when_all_done(self, tmp_path):
        q = make_queue(tmp_path, Clock())
        for uid in IDS:
            q.lease_batch("w", 1, 10.0)
            q.complete_batch("w", [uid])
        assert q.finished()
        assert q.lease_batch("w", 1, 10.0) == []


class TestCreateResume:
    def test_predone_units_start_done(self, tmp_path):
        q = make_queue(tmp_path, Clock(), done=["u-b"])
        snap = q.snapshot()
        assert (snap.pending, snap.done) == (2, 1)
        assert q.lease_batch("w", 1, 1.0) == ["u-a"]
        assert q.lease_batch("w", 1, 1.0) == ["u-c"]

    def test_resume_keeps_done_and_counters(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock)
        q.lease_batch("w", 1, 10.0)
        q.complete_batch("w", ["u-a"])
        q2 = make_queue(tmp_path, clock)  # same sweep id, same units
        snap = q2.snapshot()
        assert snap.done == 1 and snap.completions == 1
        assert q2.lease_batch("w", 1, 1.0) == ["u-b"]

    def test_resume_unions_new_predone(self, tmp_path):
        clock = Clock()
        make_queue(tmp_path, clock)
        q2 = make_queue(tmp_path, clock, done=["u-c"])
        assert q2.snapshot().done == 1

    def test_other_sweep_id_refused(self, tmp_path):
        make_queue(tmp_path, Clock())
        with pytest.raises(FabricError, match="belongs to sweep"):
            WorkQueue.create(tmp_path / "q", "sweep-2", IDS, clock=Clock())

    def test_other_unit_set_refused(self, tmp_path):
        make_queue(tmp_path, Clock())
        with pytest.raises(FabricError, match="different unit set"):
            WorkQueue.create(
                tmp_path / "q", "sweep-1", ["u-x"], clock=Clock()
            )

    def test_duplicate_and_unknown_predone_refused(self, tmp_path):
        with pytest.raises(FabricError, match="duplicate"):
            WorkQueue.create(tmp_path / "q1", "s", ["u", "u"])
        with pytest.raises(FabricError, match="not in the sweep"):
            WorkQueue.create(tmp_path / "q2", "s", ["u"], done=["z"])

    def test_corrupt_manifest_surfaces_as_fabric_error(self, tmp_path):
        q = make_queue(tmp_path, Clock())
        q.path.write_text("{not json")
        with pytest.raises(FabricError, match="unreadable"):
            q.snapshot()
        q.path.write_text(json.dumps({"format": "other/9"}))
        with pytest.raises(FabricError, match="format"):
            q.snapshot()


class TestSnapshot:
    def test_counts_workers_and_liveness(self, tmp_path):
        clock = Clock()
        q = make_queue(tmp_path, clock)
        q.lease_batch("w1", 1, 10.0)
        clock.now += 100.0
        q.lease_batch("w2", 1, 10.0)
        snap = q.snapshot()
        assert isinstance(snap, QueueSnapshot)
        assert set(snap.workers) == {"w1", "w2"}
        doc = snap.to_dict()
        assert doc["total"] == 3 and doc["finished"] is False
