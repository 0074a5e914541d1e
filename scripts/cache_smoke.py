#!/usr/bin/env python
"""End-to-end smoke test of the cached-sweep CLI path (used by CI).

Runs a tiny sweep twice through ``python -m repro experiment --cache``
against a fresh store and checks the whole contract at the CLI
boundary:

* the first (cold) run computes every chunk partial (0% hit rate),
* the second (warm) run restores every partial (100% hit rate, nothing
  computed, nothing appended),
* both runs print byte-identical reports (the numbers a cached run
  serves are exactly the numbers the cold run computed).

Exits non-zero with a diagnostic on any violation.  Extra arguments
pass through to both CLI runs — ``--engine paired-ref`` smokes the
reference pipeline.

Usage::

    PYTHONPATH=src python scripts/cache_smoke.py [--engine paired-ref]
    make cache-smoke
"""

from __future__ import annotations

import re
import subprocess
import sys
import tempfile
from pathlib import Path

FIGURE = "fig2"
TRIALS = "8"

_CACHE_LINE = re.compile(
    r"^cache: (?P<hits>\d+) restored / (?P<misses>\d+) computed"
)


def run_once(store: Path, extra: list[str]) -> tuple[str, int, int]:
    """One CLI run; returns (report text, restored, computed)."""
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "experiment",
            FIGURE,
            "--trials",
            TRIALS,
            "--jobs",
            "1",
            "--cache",
            str(store),
            *extra,
        ],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"FATAL: CLI exited {proc.returncode}")
    report_lines = []
    hits = misses = None
    for line in proc.stdout.splitlines():
        match = _CACHE_LINE.match(line)
        if match:
            hits = int(match.group("hits"))
            misses = int(match.group("misses"))
        else:
            # Wall-clock is the one legitimately non-deterministic part
            # of the report; everything else must match byte for byte.
            report_lines.append(re.sub(r"elapsed=\S+", "elapsed=*", line))
    if hits is None:
        raise SystemExit("FATAL: no 'cache:' summary line in CLI output")
    return "\n".join(report_lines), hits, misses


def main(extra: list[str]) -> int:
    with tempfile.TemporaryDirectory(prefix="cache-smoke-") as tmp:
        store = Path(tmp) / "store"
        cold_report, cold_hits, cold_misses = run_once(store, extra)
        print(f"cold run: {cold_hits} restored / {cold_misses} computed")
        warm_report, warm_hits, warm_misses = run_once(store, extra)
        print(f"warm run: {warm_hits} restored / {warm_misses} computed")

    failures = []
    if cold_hits != 0:
        failures.append(f"cold run restored {cold_hits} partials from nothing")
    if cold_misses == 0:
        failures.append("cold run computed nothing")
    if warm_misses != 0:
        failures.append(f"warm run recomputed {warm_misses} partials")
    if warm_hits != cold_misses:
        failures.append(
            f"warm run restored {warm_hits} partials, expected {cold_misses}"
        )
    if warm_report != cold_report:
        failures.append("warm report differs from cold report")
    for failure in failures:
        print(f"FATAL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("cache smoke OK: second run served 100% from the store")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
