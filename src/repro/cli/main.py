"""Command-line entry point: figures (default) and the online service.

Two subcommands share one ``repro`` entry point:

* ``figures`` (the default when the first argument is not a subcommand
  name, so every historical invocation keeps working)::

      repro-figures --list
      repro-figures fig2 --trials 256 --jobs 8
      python -m repro --all --trials 1024 --out results/
      python -m repro figures fig3 fig4

* ``serve`` — run the online deadline-assignment HTTP service::

      python -m repro serve --port 8077
      curl -s localhost:8077/healthz

Each figures run prints the success-ratio table and an ASCII chart,
and — when ``--out`` is given — writes ``<figure>.json``,
``<figure>.csv`` and ``<figure>.md`` into the output directory.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

from ..errors import ReproError

__all__ = [
    "main",
    "build_parser",
    "build_serve_parser",
    "figures_main",
    "serve_main",
]

#: First-argument tokens routed to a dedicated subcommand parser.
#: ``experiment`` is an alias of ``figures`` — the subcommand runs any
#: experiment (declarative --config documents included), not only the
#: paper's figures.
SUBCOMMANDS = ("figures", "experiment", "serve", "sweep", "store")


def build_parser() -> argparse.ArgumentParser:
    """The ``figures`` subcommand parser (also the historical CLI)."""
    # Imported here, not at module level, so that ``repro serve``
    # processes never load the experiment harness (or NumPy).
    from ..experiments.figures import FIGURES

    parser = argparse.ArgumentParser(
        prog="repro-figures",
        description=(
            "Reproduce the evaluation figures of 'A Robust Adaptive "
            "Metric for Deadline Assignment in Heterogeneous Distributed "
            "Real-Time Systems' (Jonsson, IPPS 1999)."
        ),
        epilog=(
            "Subcommands: 'figures' (this, the default), 'serve' (online "
            "deadline-assignment HTTP service), 'sweep' (distributed "
            "multi-worker experiment execution) and 'store' (result-store "
            "inspection/repair); see 'python -m repro <cmd> --help'."
        ),
    )
    parser.add_argument(
        "figures",
        nargs="*",
        metavar="FIGURE",
        help=f"experiment ids to run (available: {', '.join(sorted(FIGURES))})",
    )
    parser.add_argument(
        "--all", action="store_true", help="run every registered experiment"
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiments and exit"
    )
    parser.add_argument(
        "--config",
        type=Path,
        action="append",
        default=[],
        metavar="FILE",
        help="run a declarative experiment from a JSON document "
        "(repeatable; see repro.experiments.config)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=1024,
        help="trials per cell (paper: 1024 task graphs; default 1024)",
    )
    parser.add_argument(
        "--seed", type=int, default=2026, help="experiment root seed"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: CPU count; 1 = serial)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=32,
        help="trials per worker unit (default 32; success counts, ratios, "
        "intervals and the CSV never depend on it, the mean laxity and "
        "lateness fields are bit-identical only at equal --chunk-size)",
    )
    parser.add_argument(
        "--engine",
        choices=("paired", "paired-ref"),
        default="paired",
        help="execution engine: 'paired' generates each workload once per "
        "sweep point and judges it with every series (default); "
        "'paired-ref' is the same engine pinned to the string-keyed "
        "reference pipeline instead of the compiled kernel (the oracle; "
        "results are bit-identical either way)",
    )
    parser.add_argument(
        "--cache",
        type=Path,
        default=None,
        metavar="DIR",
        help="persistent result store: completed (cell, seed-chunk) "
        "partials are restored instead of recomputed, so warm re-runs, "
        "resumed sweeps and added series skip finished work (results "
        "are bit-identical to uncached runs)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory for JSON/CSV/Markdown result files",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="after running, fold every result in --out into REPORT.md",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``serve`` subcommand parser."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the online deadline-assignment service: POST /assign "
            "(slices + optional admission verdict), GET /healthz, "
            "GET /metrics (Prometheus text)."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8077,
        help="TCP port (0 picks a free port; default 8077)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="LRU budget for cached assignments (default 1024)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="persist computed assignments to a result store in DIR; a "
        "restarted service pointed at the same directory starts warm",
    )
    # Imported lazily everywhere else, but the parser default must be
    # computed at build time so --help shows the real value.
    from ..service.pool import default_workers

    parser.add_argument(
        "--workers",
        type=int,
        default=default_workers(),
        help="worker processes serving assignments (default "
        "min(cpu_count, 4)); 1 serves from this process, behind the same "
        "front end",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=0,
        help="bound on in-flight computations before requests are shed "
        "with 429 (0 = unbounded, the default)",
    )
    parser.add_argument(
        "--retry-after",
        type=int,
        default=1,
        help="Retry-After seconds advertised on 429 responses (default 1)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        help="seconds to wait for in-flight requests on shutdown before "
        "failing them (default 5.0)",
    )
    return parser


def serve_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro serve``.

    Every topology serves through the asyncio front end: ``--workers 1``
    over one service in this process, ``--workers N`` over N pre-forked
    assignment worker processes.  Service knobs are validated up front
    in either case, so a bad ``--cache-size`` fails fast instead of
    inside a spawned worker.
    """
    args = build_serve_parser().parse_args(argv)
    from ..service import DeadlineAssignmentService, InProcessBackend, WorkerPool

    for flag, value, least in (
        ("--workers", args.workers, 1),
        ("--max-queue", args.max_queue, 0),
        ("--retry-after", args.retry_after, 0),
    ):
        if value < least:
            print(
                f"error: {flag} must be at least {least}, got {value}",
                file=sys.stderr,
            )
            return 2
    max_queue = args.max_queue if args.max_queue > 0 else None
    try:
        service = DeadlineAssignmentService(
            cache_size=args.cache_size,
            max_queue=max_queue,
            cache_dir=args.cache_dir,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workers > 1:
        service.close()
        backend = WorkerPool(
            args.workers,
            cache_size=args.cache_size,
            max_queue=max_queue,
            cache_dir=args.cache_dir,
        )
        topology = f"{args.workers} worker processes; "
    else:
        backend, topology = InProcessBackend(service), ""
    frontend = start_frontend(
        backend, args.host, args.port, retry_after=args.retry_after
    )
    if frontend is None:
        return 1
    host, port = frontend.address
    print(
        f"repro deadline-assignment service on http://{host}:{port} "
        f"({topology}POST /assign, GET /healthz, GET /metrics; "
        "Ctrl-C to stop)"
    )
    try:
        threading.Event().wait()  # serve until interrupted
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        frontend.close(timeout=args.drain_timeout)
    return 0


def start_frontend(
    backend, host: str, port: int, *, retry_after: int = 1, fabric=None
):
    """Serve *backend* through the asyncio front end on *host*:*port*.

    *fabric*, a sweep coordinator, mounts its ``/fabric/*`` endpoint,
    counted on the front end's metrics.  Returns the started front
    end, or ``None`` once a bind or startup failure has been printed as
    an ``error:`` line.
    """
    from ..service import PooledFrontend

    frontend = PooledFrontend(
        backend, host=host, port=port, retry_after=retry_after
    )
    if fabric is not None:
        frontend.fabric = fabric.endpoint(metrics=frontend.metrics)
    try:
        frontend.start()
    except OSError as exc:
        print(f"error: cannot bind {host}:{port}: {exc}", file=sys.stderr)
        return None
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    return frontend


def main(argv: list[str] | None = None) -> int:
    """Dispatch to a subcommand; bare arguments run ``figures``."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "sweep":
        from .sweep_tool import sweep_main

        return sweep_main(argv[1:])
    if argv and argv[0] == "store":
        from .store_tool import store_main

        return store_main(argv[1:])
    if argv and argv[0] in ("figures", "experiment"):
        argv = argv[1:]
    return figures_main(argv)


def _cache_summary(stats) -> str:
    """One-line result-store summary printed under each experiment report.

    Surfaces reuse without making anyone read JSON: how many chunk
    partials were restored vs. computed this run, and the store's
    resulting size.
    """
    return (
        f"cache: {stats.hits} restored / {stats.misses} computed "
        f"chunk partials ({stats.hit_rate:.0%} hit rate), "
        f"{stats.appends} appended; store now {stats.records} records, "
        f"{stats.bytes / 1024:.1f} KiB"
    )


def figures_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``figures`` subcommand."""
    from ..experiments.figures import FIGURES, get_figure_spec
    from ..experiments.report import (
        render_report,
        result_markdown,
        save_csv,
        save_json,
    )
    from ..experiments.runner import iter_experiments

    args = build_parser().parse_args(argv)

    if args.list:
        for name in sorted(FIGURES):
            spec = get_figure_spec(name)
            print(f"{name:10s} {spec.title} ({spec.paper_reference})")
        return 0

    names: list[object] = list(
        sorted(FIGURES) if args.all else args.figures
    )
    names.extend(args.config)
    if not names:
        print(
            "nothing to do: name experiments, use --config, or --all / --list",
            file=sys.stderr,
        )
        return 2

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    store = None
    if args.cache is not None:
        from ..store import TrialStore

        try:
            store = TrialStore(args.cache)
        except ReproError as exc:
            print(f"error opening cache {args.cache}: {exc}", file=sys.stderr)
            return 2

    status = 0
    specs, labels = [], []
    for name in names:
        try:
            if isinstance(name, Path):
                from ..experiments.config import load_spec

                spec = load_spec(name)
                name = spec.name
            else:
                spec = get_figure_spec(name)
        except ReproError as exc:
            print(f"error running {name!r}: {exc}", file=sys.stderr)
            status = 1
            continue
        specs.append(spec)
        labels.append(name)

    # One plan for every experiment: shared workloads are generated and
    # shared cells judged once, and each result arrives (in the order
    # named) as soon as its last unit is merged.
    reported = 0
    try:
        for result in iter_experiments(
            specs,
            trials=args.trials,
            seed=args.seed,
            jobs=args.jobs,
            chunk_size=args.chunk_size,
            engine=args.engine,
            cache=store,
        ):
            name = labels[reported]
            reported += 1
            if isinstance(result, ReproError):
                print(f"error running {name!r}: {result}", file=sys.stderr)
                status = 1
                continue
            print(render_report(result))
            if result.cache_stats is not None:
                print(_cache_summary(result.cache_stats))
            print()
            if args.out is not None:
                save_json(result, args.out / f"{name}.json")
                save_csv(result, args.out / f"{name}.csv")
                (args.out / f"{name}.md").write_text(
                    f"### {result.title}\n\n{result_markdown(result)}\n"
                )
    except ReproError as exc:  # options no experiment can run with
        for name in labels[reported:]:
            print(f"error running {name!r}: {exc}", file=sys.stderr)
        status = 1
    finally:
        if store is not None:
            store.close()

    if args.report:
        if args.out is None:
            print("--report requires --out", file=sys.stderr)
            return 2
        from ..experiments.reportcard import build_report

        try:
            report = build_report(args.out)
        except ReproError as exc:
            print(f"error building report: {exc}", file=sys.stderr)
            return 1
        (args.out / "REPORT.md").write_text(report + "\n")
        print(f"wrote combined report to {args.out / 'REPORT.md'}")
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
