"""``python -m bench.compare A B``: judge run set B (a change) against A (its parent).

A and B are directories of pass documents written by ``python -m bench
--out DIR``.  For every workload and end-to-end metric it prints each
side's median and quartiles, the pairs B won (the i-th run of A against
the i-th run of B, in file-name order; ties count for neither) and a
verdict:

* ``improved``   — B wins at least nine tenths of the pairs and the medians
  differ by more than A's interquartile range;
* ``regressed``  — B's median is worse than A's by more than the bound,
  and A's interquartile range is within the bound or every run of B
  reads worse than every run of A;
* ``unresolved`` — A's interquartile range is wider than the metric's
  bound, unless every run of B reads better than every run of A;
* ``unchanged``  — otherwise.

Bounds come from ``BENCHMARK.json``; ``error_rate`` may not increase at all.
The exit status is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Direction of every metric a pass reports, and the ``BENCHMARK.json``
#: metric whose bound it uses.
METRICS = {
    "setup_s": ("lower", "setup_s"),
    "trials_per_s": ("higher", "throughput_per_s"),
    "p50_ms": ("lower", "p50_ms"),
    "p99_ms": ("lower", "p50_ms"),
    "max_rps": ("higher", "throughput_per_s"),
    "sat_rps": ("higher", "throughput_per_s"),
    "error_rate": ("lower", None),
    "peak_rss_mb": ("lower", "peak_rss_mb"),
}


def load_runs(directory: Path) -> list[dict]:
    runs = []
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("format") == "bench-pass/1":
            runs.append(doc)
    if not runs:
        raise SystemExit(f"no pass documents in {directory}")
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(median, first quartile, third quartile)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, int, int]:
    """``(verdict, pairs B won, pairs)`` of change *b* against parent *a*."""
    sign = 1.0 if better == "higher" else -1.0

    def gain(x: float, y: float) -> float:
        """How much better *y* reads than *x* (positive = better)."""
        return sign * (y - x)

    pairs = list(zip(a, b))
    won = sum(1 for x, y in pairs if gain(x, y) > 0)
    a_med, a_q1, a_q3 = summary(a)
    b_med = summary(b)[0]
    spread = a_q3 - a_q1
    if pairs and won >= 0.9 * len(pairs) and abs(b_med - a_med) > spread:
        return "improved", won, len(pairs)
    scale = abs(a_med)
    wide = bool(scale) and spread / scale > bound
    if -gain(a_med, b_med) > bound * scale and (
        not wide or all(gain(x, y) < 0 for x in a for y in b)
    ):
        return "regressed", won, len(pairs)
    if wide and not all(gain(x, y) > 0 for x in a for y in b):
        return "unresolved", won, len(pairs)
    return "unchanged", won, len(pairs)


def compare(a_runs: list[dict], b_runs: list[dict], bounds: dict[str, float]) -> list[dict]:
    rows = []
    names = [w for w in a_runs[0]["workloads"] if w in b_runs[0]["workloads"]]
    for workload in names:
        for metric, (better, bound_of) in METRICS.items():
            a = [r["workloads"][workload]["metrics"].get(metric) for r in a_runs]
            b = [r["workloads"][workload]["metrics"].get(metric) for r in b_runs]
            if None in a or None in b:
                continue
            bound = bounds[bound_of] if bound_of else 0.0
            result, won, pairs = verdict(a, b, better, bound)
            rows.append({
                "workload": workload, "metric": metric,
                "a": summary(a), "b": summary(b),
                "won": won, "pairs": pairs, "bound": bound, "verdict": result,
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.compare",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="directory of the parent's passes")
    parser.add_argument("change", type=Path, help="directory of the change's passes")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK_JSON.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = compare(load_runs(args.parent), load_runs(args.change), bounds)
    print(f"{'workload':<16} {'metric':<13} {'parent: median [q1, q3]':<36} "
          f"{'change: median [q1, q3]':<36} {'won':<7} {'bound':<6} verdict")
    for row in rows:
        a = "{:.5g} [{:.5g}, {:.5g}]".format(*row["a"])
        b = "{:.5g} [{:.5g}, {:.5g}]".format(*row["b"])
        won = f"{row['won']}/{row['pairs']}"
        print(f"{row['workload']:<16} {row['metric']:<13} {a:<36} {b:<36} "
              f"{won:<7} {row['bound']:<6.2f} {row['verdict']}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
