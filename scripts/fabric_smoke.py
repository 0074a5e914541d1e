#!/usr/bin/env python
"""Chaos smoke test of the distributed sweep fabric (used by CI).

Exercises the fabric's headline guarantees in one scripted incident:

* a coordinator shards a sweep and computes it as one of **three**
  local workers (``workers=3``: itself and two spawned processes)
  against one shared store;
* one spawned worker is **SIGKILLed while it holds a lease** (no
  cleanup handlers run — its leases simply stop heartbeating and
  expire);
* the sweep must still complete — survivors steal the expired leases —
  and the merged result must be **bit-identical** to a single-process
  ``run_experiment`` of the same shape;
* **journal chaos**: a second sweep's only worker is SIGKILLed while
  it is actively journaling lease/complete records, and the journal
  tail is additionally torn (a partial line with no newline, exactly
  what a writer killed mid-``write`` leaves).  The resumed sweep must
  heal the tail, replay the journal, keep every completed unit done,
  and still merge bit-identically;
* a re-run of the same sweep over the same store must resume: zero
  leases, zero completions, nothing recomputed;
* **lease shares**: replaying the journal of a fresh ``workers=2``
  sweep, no lease may have taken more than ``⌈pending / (2·W)⌉`` units
  at its time (W = 2).  The check reads only the journal's order, never
  its timestamps.

Exits non-zero with a diagnostic on any violation.

Usage::

    PYTHONPATH=src python scripts/fabric_smoke.py
    make fabric-smoke
"""

from __future__ import annotations

import json
import os
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.experiments.figures import get_figure_spec
from repro.experiments.runner import run_experiment
from repro.fabric import FabricCoordinator, run_sweep

FIGURE = "fig2"
TRIALS = 16
SEED = 2026
CHUNK = 2
LEASE_TTL = 1.0  # short: stolen leases come back fast after the kill
KILL_DEADLINE = 20.0  # give up waiting for the victim to lease


def result_text(result) -> str:
    doc = result.to_dict()
    doc.pop("elapsed_seconds", None)
    return json.dumps(doc, sort_keys=True)


def fail(message: str) -> None:
    raise SystemExit(f"FAIL: {message}")


def kill_leg(spec, store: Path, reference: str) -> None:
    """Three workers (two spawned), one SIGKILLed while holding a lease."""
    start = time.perf_counter()
    coordinator = FabricCoordinator(
        spec,
        trials=TRIALS,
        seed=SEED,
        chunk_size=CHUNK,
        store=store,
        lease_ttl=LEASE_TTL,
    )
    killed: dict[str, object] = {}
    # Spawned worker i is named "local-<coordinator pid>-<i>"; the
    # victim is worker 0.
    victim_name = f"local-{os.getpid()}-0"

    def kill_when_leased(pids: list[int]) -> None:
        # The hook runs before the coordinator computes, so holding it
        # here until the victim leases keeps units pending for it.
        if len(pids) != 2:
            fail(f"expected 2 spawned workers, got {pids}")
        deadline = time.monotonic() + KILL_DEADLINE
        while time.monotonic() < deadline:
            # snapshot() replays the journal under the queue lock, so
            # the view is always whole records — never a torn
            # mid-append read.
            held = coordinator.queue.snapshot().leased_by.get(victim_name)
            if held:
                os.kill(pids[0], signal.SIGKILL)
                killed["pid"] = pids[0]
                killed["held"] = held
                return
            time.sleep(0.01)

    try:
        coordinator.execute(workers=3, on_workers=kill_when_leased, poll=0.05)
        result = coordinator.merge()
        report = coordinator.report(time.perf_counter() - start)
    finally:
        coordinator.close()
    print("      " + report.summary())
    if "pid" not in killed:
        fail("the victim never leased a unit")
    print(
        f"      SIGKILLed worker pid={killed['pid']} holding "
        f"{killed['held']} lease(s)"
    )
    if report.reissues < 1:
        fail("no lease of the killed worker was re-issued")
    if result_text(result) != reference:
        fail("sweep result differs from the single-process reference")
    done = report.completions + report.prestored_units
    if done != report.units:
        fail(f"{report.units} units but only {done} accounted done")


def journal_chaos_leg(spec, store: Path, reference: str) -> None:
    """SIGKILL the only worker mid-journaling, tear the tail, resume."""
    coordinator = FabricCoordinator(
        spec,
        trials=TRIALS,
        seed=SEED,
        chunk_size=CHUNK,
        store=store,
        lease_ttl=LEASE_TTL,
        batch=1,  # one journal commit per unit: maximal append traffic
    )
    killed: dict[str, object] = {}

    def kill_mid_journal(pids: list[int]) -> None:
        if not pids:
            fail("expected a spawned worker for the journal-chaos leg")

        def assassin() -> None:
            deadline = time.monotonic() + KILL_DEADLINE
            while time.monotonic() < deadline:
                snap = coordinator.queue.snapshot()
                # Strike while the worker is actively appending —
                # after some completions landed but well before the
                # sweep is over.
                if 0 < snap.done < snap.total:
                    os.kill(pids[0], signal.SIGKILL)
                    killed["pid"] = pids[0]
                    killed["done"] = snap.done
                    return
                if snap.finished:
                    return
                time.sleep(0.005)

        threading.Thread(target=assassin, daemon=True).start()

    try:
        # One spawned worker and no computing coordinator: once the
        # worker dies the queue stalls; we stop waiting as soon as the
        # kill has landed.
        procs = coordinator.spawn_workers(1)
        kill_mid_journal([p.pid for p in procs])
        deadline = time.monotonic() + KILL_DEADLINE
        while "pid" not in killed and time.monotonic() < deadline:
            if coordinator.queue.finished():
                break
            time.sleep(0.02)
        for proc in procs:
            proc.join(timeout=KILL_DEADLINE)
        if "pid" not in killed:
            fail("the journal-chaos thread never killed the worker")
        snap = coordinator.queue.snapshot()
        done_before = snap.done
        print(
            f"      SIGKILLed the journaling worker pid={killed['pid']} "
            f"({done_before}/{snap.total} units done)"
        )
        # Tear the journal tail the way a mid-write SIGKILL would: a
        # partial record with no terminating newline.
        journal = coordinator.root / "JOURNAL.jsonl"
        with open(journal, "ab") as fh:
            fh.write(b'{"q": 999999, "op": "done", "w": "torn')
    finally:
        coordinator.close()

    resumed = run_sweep(
        spec,
        trials=TRIALS,
        seed=SEED,
        workers=0,  # finish inline: deterministic, single process
        chunk_size=CHUNK,
        store=store,
        lease_ttl=LEASE_TTL,
    )
    print("      " + resumed.report.summary())
    if result_text(resumed.result) != reference:
        fail("journal-chaos result differs from the reference")
    report = resumed.report
    if report.completions + report.prestored_units != report.units:
        fail("journal-chaos resume left units unaccounted")
    # Replay must have kept the pre-kill completions: the resumed run
    # may recompute at most the units the dead worker never finished.
    if report.completions > report.units - done_before:
        fail(
            f"journal replay lost completions: {done_before} were done "
            f"before the kill, yet the resume recomputed "
            f"{report.completions} of {report.units}"
        )


def lease_share_leg(spec, store: Path, reference: str) -> None:
    """Replay a ``workers=2`` sweep's journal against the share rule."""
    workers = 2
    outcome = run_sweep(
        spec,
        trials=TRIALS,
        seed=SEED,
        workers=workers,
        chunk_size=CHUNK,
        store=store,
        lease_ttl=LEASE_TTL,
    )
    print("      " + outcome.report.summary())
    if result_text(outcome.result) != reference:
        fail("lease-share sweep result differs from the reference")
    root = Path(outcome.report.fabric_root)
    manifest = json.loads((root / "MANIFEST.json").read_text())
    if manifest["seq"] != 0:
        fail("the queue was compacted; its journal lacks early leases")
    pending = {
        uid for uid, entry in manifest["units"].items()
        if entry["state"] == "pending"
    }
    sizes = []
    for line in (root / "JOURNAL.jsonl").read_text().splitlines():
        record = json.loads(line)
        if record["op"] == "lease":
            cap = max(1, -(-len(pending) // (2 * workers)))
            size = len(record["us"])
            if size > cap:
                fail(
                    f"a lease took {size} units with {len(pending)} pending "
                    f"(share cap {cap})"
                )
            sizes.append(size)
            pending.difference_update(uid for uid, _stolen in record["us"])
        elif record["op"] == "rel":
            pending.update(record["us"])
    if sum(sizes) != outcome.report.units:
        fail(f"leases cover {sum(sizes)} of {outcome.report.units} units")
    print(f"      lease sizes in journal order: {sizes}")


def main() -> int:
    spec = get_figure_spec(FIGURE)
    print(f"[1/5] single-process reference ({FIGURE}, trials={TRIALS})")
    reference = result_text(
        run_experiment(
            spec, trials=TRIALS, seed=SEED, jobs=1, chunk_size=CHUNK
        )
    )

    with tempfile.TemporaryDirectory(prefix="fabric-smoke-") as tmp:
        store = Path(tmp) / "store"
        print(
            "[2/5] fabric sweep: 3 workers (2 spawned), one SIGKILLed "
            "holding a lease"
        )
        kill_leg(spec, store, reference)

        print("[3/5] resume over the same store must recompute nothing")
        resumed = run_sweep(
            spec,
            trials=TRIALS,
            seed=SEED,
            workers=2,
            chunk_size=CHUNK,
            store=store,
            lease_ttl=LEASE_TTL,
        )
        print("      " + resumed.report.summary())
        if result_text(resumed.result) != reference:
            fail("resumed result differs from the reference")
        if resumed.report.leases or resumed.report.completions:
            fail(
                "resume recomputed work: "
                f"{resumed.report.leases} leases, "
                f"{resumed.report.completions} completions"
            )

    with tempfile.TemporaryDirectory(prefix="fabric-smoke-j-") as tmp:
        print("[4/5] journal chaos: kill mid-append, tear the tail, resume")
        journal_chaos_leg(spec, Path(tmp) / "store", reference)

    with tempfile.TemporaryDirectory(prefix="fabric-smoke-s-") as tmp:
        print("[5/5] lease shares: replay a workers=2 sweep's journal")
        lease_share_leg(spec, Path(tmp) / "store", reference)

    print(
        "OK: sweeps survived a SIGKILLed worker and a torn journal, "
        "stayed bit-identical, resumed for free, and leased by shares"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
