"""``python -m bench``: run the workloads, check outputs, print every metric.

A full pass runs each workload in its own process (this module with
``--workload``) and prints every end-to-end metric by name and unit.
With ``--trace`` each of them also runs the workload traced, next to the
untraced measurement, and prints the per-layer metrics and the tracing
overhead.  ``--out DIR`` keeps the pass as one JSON document for
:mod:`bench.compare`.

With ``--workload NAME`` this process drives that one workload; the
last line it prints is the result as one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json``, or with ``--trace 1`` its per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench import workloads

BENCHMARK_JSON = workloads.ROOT / "BENCHMARK.json"

#: Units of the metrics a workload reports, by name.
UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "max_rps": "1/s",
    "sat_rps": "1/s",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
}


def load_spec() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def result_line(doc: dict, spec: dict) -> dict:
    """The result line: the metrics ``BENCHMARK.json`` names.

    ``throughput_per_s`` is the workload's throughput: trial judgments
    per second on batch workloads, ``sat_rps`` on service workloads.
    """
    if doc["trace"]:
        values, wanted = doc["layers"], spec["per_layer"]
    else:
        values = dict(doc["metrics"])
        values["throughput_per_s"] = values.get("trials_per_s") or values.get("sat_rps")
        wanted = spec["end_to_end"]
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_workload(doc: dict) -> None:
    status = "ok" if doc["correct"] else "INCORRECT"
    print(f"[{doc['workload']}] seed={doc['seed']} {status} "
          f"({doc['failed']}/{doc['attempted']} checks failed)")
    for problem in doc["problems"]:
        print(f"  problem: {problem}")
    for why in doc["skipped"]:
        print(f"  skipped check: {why}")
    for name, value in doc["metrics"].items():
        print(f"  {name:<13} {fmt(value):>12} {UNITS[name]}")
    detail = doc["detail"]
    print(f"  host slowness {fmt(statistics.median(detail['slowness']))} "
          "(times and rates above are scaled to slowness 1)")
    if "fixed_tail" in detail:
        tail = detail["fixed_tail"]
        print(f"  fixed-rate samples {detail['fixed_samples']}; highest reportable "
              f"percentile p{fmt(tail['q'])} = {fmt(tail['ms'])} ms; generator "
              f"lateness p99 {detail['loadgen_lag_p99_ms']:.3f} ms"
              + ("" if detail["valid"] else " (INVALID: generator too late)"))
    if doc["layers"]:
        for name, value in doc["layers"].items():
            print(f"  layer {name:<26} {fmt(value)}")


def run_one(args: argparse.Namespace) -> int:
    if not (workloads.SRC / "repro").is_dir():
        print(f"error: no program source at {workloads.SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    started = time.perf_counter()
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.smoke)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "run_wall_s": time.perf_counter() - started,
        **result,
    }
    if args.report is not None:
        args.report.write_text(json.dumps(doc, indent=1))
    print_workload(doc)
    print(json.dumps(result_line(doc, spec)))
    return 0


def run_child(workload: str, args: argparse.Namespace, trace: int) -> dict:
    workloads.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.WORK) as tmp:
        report = Path(tmp) / "report.json"
        cmd = [sys.executable, "-m", "bench", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--report", str(report)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=workloads.ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=600)
        if proc.returncode != 0 or not report.exists():
            raise SystemExit(f"{workload}: workload process failed ({proc.returncode}):\n"
                             f"{proc.stdout[-3000:]}")
        return json.loads(report.read_text())


def run_pass(args: argparse.Namespace) -> int:
    names = args.workloads.split(",")
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        print(f"error: unknown workloads {unknown}", file=sys.stderr)
        return 2
    docs = {}
    for name in names:
        doc = docs[name] = run_child(name, args, args.trace)
        if args.smoke:
            print(f"[{name}] {'ok' if doc['correct'] else 'INCORRECT'} "
                  f"({doc['failed']}/{doc['attempted']} checks failed)")
            for problem in doc["problems"]:
                print(f"  problem: {problem}")
        else:
            print_workload(doc)
    if args.out is not None and not args.smoke:
        args.out.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        pass_doc = {
            "format": "bench-pass/1",
            "seed": args.seed,
            "seconds": args.seconds,
            "host": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                     "machine": platform.machine()},
            "trace": bool(args.trace),
            "workloads": docs,
        }
        path = args.out / f"pass-{stamp}-seed{args.seed}.json"
        path.write_text(json.dumps(pass_doc, indent=1) + "\n")
        print(f"wrote {path}")
    return 0 if all(doc["correct"] for doc in docs.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="drive one workload in this process and print its "
                        "result as the last line")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS),
                        help="comma-separated workloads of a full pass (default: all)")
    parser.add_argument("--seed", type=int, default=2026,
                        help="seed of every generated input (default 2026)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also make a traced run (1) for the "
                        "per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, correctness checks only, no numbers kept")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to write the pass document into")
    parser.add_argument("--report", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Servers are stopped with SIGINT.  A shell that starts this process in
    # the background ignores SIGINT, and an ignored signal stays ignored in
    # every child; a handler here makes children start with the default.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.workload:
        return run_one(args)
    return run_pass(args)


if __name__ == "__main__":
    sys.exit(main())
