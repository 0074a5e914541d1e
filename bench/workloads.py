"""The four workloads: how each drives the program and what it measures.

Batch workloads (``figures``, ``sweep``) run the real CLI as a child
process, back to back, until ``seconds`` have passed; each run is one
*rep* and the metrics are medians over reps.  Service workloads
(``assign_distinct``, ``assign_repeat``) start ``repro serve`` and drive
``POST /assign`` with the open-loop generator in :mod:`bench.loadgen`.

The program runs with its default settings: :func:`run` drops every
``REPRO_*`` switch from the environment, and each child process gets
``PYTHONPATH=src``.
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

from bench import gates
from bench.hostspeed import Probe
from bench.loadgen import (
    LoadGenerator,
    PhaseResult,
    arrivals,
    completed_per_second,
    highest_reportable,
    percentile,
    reportable,
    search_max_rate,
    step_passes,
)
from bench.trace import FLUSH_INTERVAL, covered_seconds, layer_metrics, load_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BATCH = ("figures", "sweep")
SERVICE = ("assign_distinct", "assign_repeat")
WORKLOADS = BATCH + SERVICE

#: Trials per cell of one rep, normal and ``--smoke``.  ``figures`` stays
#: below the vec tier's 64-lane threshold (its chunks are at most 32
#: seeds); ``sweep`` at 256 trials gives 28 units of 64 seeds, enough for
#: both local workers to lease a batch.
TRIALS = {"figures": (16, 2), "sweep": (256, 64)}

#: Service workloads: worker processes, offered rate (req/s) of the
#: fixed-rate phase and the p95 limit (ms) a step of the max_rps search
#: must meet.  The rates sit near 30% and 25% of the capacity measured on
#: a 2-CPU host, because latency near saturation amplifies every slow
#: spell: at twice the assign_distinct rate the p50 of alternating 8-s
#: phases on one server spread by 16-28% (interquartile range over
#: median), at this rate by 4-13%; at 150 req/s, assign_repeat's p50
#: spread by 53% over ten seeds in an hour with 16% of CPU time stolen.
SERVICE_CONFIG = {
    "assign_distinct": {"workers": 2, "rate": 40.0, "p95_ms": 100.0},
    "assign_repeat": {"workers": 1, "rate": 100.0, "p95_ms": 25.0},
}
REPEAT_BODIES = 32
#: Tasks per repeat body.  A quarter of Zipf(1) traffic over 32 bodies is
#: the top body, so with the generator's 40-60 tasks the seed alone moved
#: the mean request size, and with it sat_rps, by about 10%.
REPEAT_TASKS = 50
#: Distinct bodies are this many generated graphs, each sent with a
#: unique offset added to its E-T-E deadlines (a distinct digest, so a
#: cache miss, at the cost of one generation per base graph).
DISTINCT_BASE = 256
SETUP_STARTS = 3
#: ``repro --list`` runs behind a batch workload's ``setup_s`` (at least).
LIST_RUNS = 5
#: A batch run makes at least this many reps (a traced run: one traced,
#: one untraced).
MIN_REPS = 2
CHILD_TIMEOUT = 150.0
#: Generator lateness (p99, ms) above which the fixed-rate latencies are
#: flagged invalid.  The generator shares the host's CPUs with the server,
#: so a few milliseconds of lateness is normal on a 2-CPU host; latency is
#: timed from the due time, so lateness is counted, never hidden.
MAX_LAG_MS = 5.0

#: ``(start, end)`` of a measurement, in ``time.perf_counter`` seconds.
Window = tuple[float, float]


def program_env(trace_dir: Path | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("BENCH_TRACE_DIR", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    if trace_dir is not None:
        env["BENCH_TRACE_DIR"] = str(trace_dir)
    return env


def repro_cmd(args: list[str], traced: bool) -> list[str]:
    return [sys.executable, "-m", "bench.traced" if traced else "repro", *args]


def children_peak_rss_mb() -> float:
    """Largest resident set of any waited-for descendant (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def median_layers(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in per_rep) for key in per_rep[0]}


def timed_run(cmd: list[str], env: dict[str, str],
              log: Path | None = None) -> tuple[subprocess.Popen, Window]:
    """Run *cmd* from the checkout root; ``(process, its wall-clock window)``.

    The wait blocks in ``waitpid``: ``Popen.wait(timeout)`` polls in steps
    of up to 50 ms and would round every time.  A watchdog kills a child
    that outlives ``CHILD_TIMEOUT``.  Standard error goes to *log*.
    """
    with open(log or os.devnull, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            proc.wait()
        finally:
            watchdog.cancel()
        return proc, (start, time.perf_counter())


def _list_window() -> Window:
    """Wall-clock window of one ``repro --list``: interpreter start and imports."""
    proc, window = timed_run(repro_cmd(["--list"], False), program_env())
    if proc.returncode != 0:
        raise RuntimeError(f"repro --list exited {proc.returncode}")
    return window


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------


def _batch_args(workload: str, trials: int, seed: int, rep: Path) -> list[str]:
    if workload == "figures":
        return ["--all", "--trials", str(trials), "--jobs", "1", "--seed",
                str(seed), "--out", str(rep / "out")]
    return ["sweep", "fig3", "--trials", str(trials), "--workers", "2",
            "--seed", str(seed), "--store", str(rep / "store"),
            "--out", str(rep / "out")]


def _check_paired_ref(check: gates.Checks, seed: int, trials: int,
                      out: Path, work: Path) -> None:
    """Re-run one seeded-random experiment on the reference pipeline; its
    result must match the default engine's byte for byte."""
    name = random.Random(seed).choice(gates.figure_names())
    dest = work / "paired-ref"
    log = work / "paired-ref.log"
    proc, _window = timed_run(
        repro_cmd([name, "--trials", str(trials), "--jobs", "1", "--seed",
                   str(seed), "--engine", "paired-ref", "--out", str(dest)], False),
        program_env(), log,
    )
    check.expect(
        proc.returncode == 0
        and gates.canonical_digest(dest / f"{name}.json")
        == gates.canonical_digest(out / f"{name}.json"),
        f"{name}: --engine paired-ref result differs ({log.read_text()[-500:]!r})",
    )


def _run_rep(workload: str, trials: int, seed: int, rep: Path, traced: bool) -> dict:
    """One timed run of the batch command; its outputs stay in *rep*."""
    trace_dir = rep / "trace" if traced else None
    rep.mkdir(parents=True)
    log = rep / "stderr.log"
    proc, window = timed_run(
        repro_cmd(_batch_args(workload, trials, seed, rep), traced),
        program_env(trace_dir), log,
    )
    wall = window[1] - window[0]
    outputs = sorted((rep / "out").glob("*.json"))
    result = {
        "window": window,
        "wall_s": wall,
        "traced": traced,
        "exit": proc.returncode,
        "stderr": log.read_text(errors="replace")[-2000:],
        "judgments": sum(gates.judgments(p) for p in outputs),
        "digests": {p.stem: gates.canonical_digest(p) for p in outputs},
    }
    if traced:
        spans = load_spans(trace_dir)
        result["layers"] = layer_metrics(spans)
        result["layers"]["trace.coverage"] = covered_seconds(spans, proc.pid) / wall
    return result


def run_batch(workload: str, seed: int, seconds: float, traced: bool,
              smoke: bool, work: Path, probe: Probe) -> dict:
    trials = TRIALS[workload][1 if smoke else 0]
    setups: list[Window] = []
    reps: list[dict] = []
    start = time.perf_counter()
    # Set-up samples are taken between reps, so a slow spell of the host
    # cannot skew all of them.  A traced run alternates traced and untraced
    # reps, so the tracing overhead compares reps made seconds apart.  A
    # rep starts only while the median rep so far still fits in *seconds*.
    minimum = 1 if smoke and not traced else MIN_REPS
    while len(reps) < minimum or (
        not smoke
        and time.perf_counter() - start + statistics.median(r["wall_s"] for r in reps)
        <= seconds
    ):
        setups.append(_list_window())
        rep = work / f"rep{len(reps)}"
        reps.append(_run_rep(workload, trials, seed, rep, traced and len(reps) % 2 == 1))
        if len(reps) > 1:
            shutil.rmtree(rep)
    while len(setups) < LIST_RUNS:
        setups.append(_list_window())
    probe.stop()
    peak = children_peak_rss_mb()

    check = gates.Checks()
    expected = gates.batch_outputs(workload)
    for i, rep in enumerate(reps):
        check.expect(rep["exit"] == 0, f"rep {i} exited {rep['exit']}: {rep['stderr']}")
        check.expect(sorted(rep["digests"]) == expected,
                     f"rep {i} wrote {sorted(rep['digests'])}")
        check.expect(rep["digests"] == reps[0]["digests"],
                     f"rep {i} results differ from rep 0")
    first = work / "rep0"
    gates.check_golden(check, workload, trials, seed, reps[0]["digests"])
    if workload == "figures":
        _check_paired_ref(check, seed, trials, first / "out", work)
    else:
        gates.check_sweep_units(check, seed, trials, first / "store")

    judged = reps[0]["judgments"]
    for rep in reps:
        rep["scaled_s"] = probe.scaled(*rep["window"])
    walls = [r["scaled_s"] for r in reps if not r["traced"]]
    metrics = {
        "setup_s": statistics.median(probe.scaled(*w) for w in setups),
        "trials_per_s": statistics.median(judged / w for w in walls),
        "p50_ms": 1000.0 * statistics.median(walls),
        "error_rate": check.failed / check.attempted,
        "peak_rss_mb": peak,
    }
    layers = None
    if traced:
        traced_reps = [r for r in reps if r["traced"]]
        layers = median_layers([r["layers"] for r in traced_reps])
        layers["trace_overhead"] = (
            statistics.median(r["scaled_s"] for r in traced_reps) / statistics.median(walls)
            - 1.0
        )
    return {
        "correct": check.ok,
        "attempted": check.attempted,
        "failed": check.failed,
        "problems": check.problems,
        "skipped": check.skipped,
        "metrics": metrics,
        "detail": {
            "trials_per_cell": trials,
            "judgments_per_rep": judged,
            "rep_walls_s": [r["wall_s"] for r in reps],
            "slowness": [r["wall_s"] / r["scaled_s"] for r in reps],
            "raw_trials_per_s": statistics.median(
                judged / r["wall_s"] for r in reps if not r["traced"]
            ),
        },
        "layers": layers,
    }


# ----------------------------------------------------------------------
# Service workloads
# ----------------------------------------------------------------------

_ADDRESS = re.compile(rb"on http://([0-9.]+):(\d+)")


class Server:
    """One ``repro serve`` child process; stdout goes to a log file."""

    def __init__(self, workers: int, traced: bool, log: Path,
                 trace_dir: Path | None) -> None:
        self.log = log
        self.started = time.perf_counter()
        with open(log, "wb") as fh:
            self.proc = subprocess.Popen(
                repro_cmd(["serve", "--workers", str(workers), "--port", "0"], traced),
                cwd=ROOT, env=program_env(trace_dir),
                stdout=fh, stderr=subprocess.STDOUT,
            )

    def address(self, timeout: float = 60.0) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _ADDRESS.search(self.log.read_bytes())
            if match:
                return match.group(1).decode(), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not start: {self.log.read_text()[-2000:]}")

    def stop(self) -> None:
        """Graceful stop (SIGINT drains within 5 s), else kill.  Pool workers
        of a killed server exit when their pipe closes."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def post(host: str, port: int, body: bytes) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        conn.request("POST", "/assign", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def scrape_metrics(host: str, port: int) -> dict[str, float]:
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode()
    finally:
        conn.close()
    series = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            try:
                series[name] = float(value)
            except ValueError:
                pass
    return series


def start_ready(workers: int, traced: bool, work: Path, probe: bytes,
                index: str) -> tuple[Server, Window, tuple[str, int]]:
    """Start a server; the window from ``Popen`` to the first 200 on /assign."""
    trace_dir = work / f"server{index}-trace" if traced else None
    server = Server(workers, traced, work / f"server{index}.log", trace_dir)
    try:
        host, port = server.address()
        status, payload = 0, b""
        deadline = time.monotonic() + 60.0
        while status != 200 and time.monotonic() < deadline:
            try:
                status, payload = post(host, port, probe)
            except OSError:
                time.sleep(0.01)
        if status != 200:
            raise RuntimeError(f"probe failed: {status} {payload[:200]!r}")
        return server, (server.started, time.perf_counter()), (host, port)
    except BaseException:
        server.stop()
        raise


def _phase_seconds(seconds: float) -> tuple[float, float]:
    """Warm-up and fixed-rate phase lengths for a run of *seconds*."""
    return min(3.0, 0.1 * seconds), 0.4 * seconds


#: Length of one step of the max_rps search: 200+ requests at the rates
#: where the search ends.
STEP_SECONDS = 2.0
#: Closed-loop bursts per server, and their length, for ``sat_rps``.
BURSTS = 2
BURST_SECONDS = 1.0
#: The max_rps search starts at this share of the measured ``sat_rps``.
SEARCH_START = 0.7


class _Bodies:
    """Which body each request carries, and which answers are kept."""

    def __init__(self, workload: str, seed: int) -> None:
        self.distinct = workload == "assign_distinct"
        self.seed = seed
        self.factory = (
            gates.BodyFactory(seed, DISTINCT_BASE) if self.distinct
            else gates.BodyFactory(seed, REPEAT_BODIES, REPEAT_TASKS)
        )
        self.rng = random.Random(seed)
        self._next = 0  # distinct bodies never repeat within a run
        self._weights = [1.0 / (k + 1) for k in range(REPEAT_BODIES)]  # Zipf, s = 1

    def pick(self, _i: int) -> tuple[int, bytes]:
        if self.distinct:
            self._next += 1
            return self._next, self.factory.variant(self._next)
        index = self.rng.choices(range(REPEAT_BODIES), self._weights)[0]
        return index, self.factory.base(index)

    def keep(self, index: int) -> bool:
        """Repeat answers are all checked; distinct ones a seeded 2% sample."""
        return not self.distinct or zlib.crc32(f"{self.seed}:{index}".encode()) % 50 == 0


def _measure(workload: str, bodies: _Bodies, seconds: float, traced: bool,
             smoke: bool, search: bool, work: Path, tag: str) -> dict:
    """Start the servers, drive every phase, scrape /metrics, stop them.

    The max_rps search runs only when *search* is true.

    Latency differs by server instance (the same traffic gave p50s 30%
    apart on fresh servers of one host), so the fixed-rate phase is split
    evenly over ``SETUP_STARTS`` live servers and the steps of the max_rps
    search take turns on them.
    """
    config = SERVICE_CONFIG[workload]
    rate, limit = config["rate"], config["p95_ms"]
    rng = bodies.rng
    servers: list[Server] = []
    gens: list[LoadGenerator] = []
    setups: list[Window] = []
    phases: list[PhaseResult] = []
    fixed: list[tuple[PhaseResult, Window]] = []
    bursts: list[tuple[float, Window]] = []
    loop = asyncio.new_event_loop()

    def run_phase(gen, offsets, pick=bodies.pick, deadline=None):
        result = loop.run_until_complete(
            gen.run_phase(offsets, pick, bodies.keep, deadline)
        )
        phases.append(result)
        return result

    def timed(run):
        start = time.perf_counter()
        return run(), (start, time.perf_counter())

    turn = itertools.count()

    def try_rate(r: float) -> bool:
        gen = gens[next(turn) % len(gens)]
        offsets = arrivals(rng, r, STEP_SECONDS)
        return step_passes(run_phase(gen, offsets, deadline=STEP_SECONDS + 1.0), limit)

    try:
        for i in range(1 if smoke else SETUP_STARTS):
            server, setup, (host, port) = start_ready(
                config["workers"], traced, work, bodies.factory.probe(), f"{tag}{i}"
            )
            servers.append(server)
            setups.append(setup)
            gens.append(LoadGenerator(host, port, connections=2))
        warmup_s, fixed_s = (0.5, 2.0) if smoke else _phase_seconds(seconds)
        for gen in gens:
            if not bodies.distinct:  # pre-warm: every repeat body once
                run_phase(gen, [0.0] * REPEAT_BODIES, lambda k: (k, bodies.factory.base(k)))
            run_phase(gen, arrivals(rng, rate, warmup_s / len(gens)))
            offsets = arrivals(rng, rate, fixed_s / len(gens))
            fixed.append(timed(lambda: run_phase(gen, offsets)))
        for _ in range(BURSTS):
            for gen in gens:
                result, window = timed(lambda: loop.run_until_complete(
                    gen.run_closed(BURST_SECONDS, bodies.pick, bodies.keep)
                ))
                phases.append(result)
                bursts.append((completed_per_second(result), window))
        sat_rps = statistics.median(rate for rate, _window in bursts)
        (max_rps, steps), search_window = timed(
            lambda: search_max_rate(SEARCH_START * sat_rps, try_rate)
        ) if search else ((None, []), None)
        scraped = [scrape_metrics(gen.host, gen.port) for gen in gens]
        if traced:
            time.sleep(2 * FLUSH_INTERVAL)  # pool workers exit via os._exit
    finally:
        for gen in gens:
            loop.run_until_complete(gen.close())
        loop.close()
        for server in servers:
            server.stop()
    samples = [s for part, _window in fixed for s in part.samples]
    return {
        "setups": setups, "phases": phases, "fixed": fixed, "bursts": bursts,
        "max_rps": max_rps, "search": search_window, "steps": steps,
        "lag_ms": [1000.0 * x for part, _window in fixed for x in part.lateness],
        "wait_ms": [1000.0 * (s.sent - s.due) for s in samples if s.sent],
        "scraped": {key: sum(d.get(key, 0.0) for d in scraped)
                    for key in set().union(*scraped)},
        "trace_dirs": [work / f"server{tag}{i}-trace" for i in range(len(servers))],
    }


def _service_layers(run: dict) -> dict[str, float]:
    spans = [span for trace_dir in run["trace_dirs"] for span in load_spans(trace_dir)]
    layers = layer_metrics(spans)
    scraped = run["scraped"]
    hits = scraped.get("repro_cache_hits_total", 0.0)
    lookups = hits + scraped.get("repro_cache_misses_total", 0.0)
    batches = scraped.get("repro_batches_total", 0.0)
    layers.update({
        "service.hit_ratio": hits / lookups if lookups else 0.0,
        "service.coalesced": scraped.get('repro_assignments_total{source="coalesced"}', 0.0),
        "service.batch_mean": (
            scraped.get("repro_batched_items_total", 0.0) / batches if batches else 0.0
        ),
        "loadgen.conn_wait_ms": percentile(run["wait_ms"], 50),
        "loadgen.lag_ms": percentile(run["lag_ms"], 99),
    })
    return layers


def _scaled(run: dict, probe: Probe) -> dict:
    """The end-to-end numbers of one measurement at the reference speed:
    each time divided by (each rate multiplied by) the host's slowness
    over the interval it was measured in."""
    parts = [(part.latencies_ms(), probe.slowness(*window)) for part, window in run["fixed"]]
    return {
        "setups": [probe.scaled(*window) for window in run["setups"]],
        "latencies_ms": [ms / slow for lat, slow in parts for ms in lat],
        "part_p50_ms": [percentile(lat, 50) / slow for lat, slow in parts],
        "bursts_rps": [rate * probe.slowness(*window) for rate, window in run["bursts"]],
        "max_rps": run["max_rps"] and run["max_rps"] * probe.slowness(*run["search"]),
    }


def run_service(workload: str, seed: int, seconds: float, traced: bool,
                smoke: bool, work: Path, probe: Probe) -> dict:
    bodies = _Bodies(workload, seed)
    # The per-layer metrics of a traced run need no max_rps search.
    search = not (smoke or traced)
    plain = _measure(workload, bodies, seconds, False, smoke, search, work, "plain")
    peak = children_peak_rss_mb()
    runs = [plain]
    if traced:  # traced servers, right after the untraced ones
        runs.append(_measure(workload, bodies, seconds, True, smoke, search, work, "traced"))
    probe.stop()

    check = gates.Checks()
    payloads: dict[int, set[bytes]] = {}
    for run in runs:
        for result in run["phases"]:
            for sample in result.samples:
                if not sample.sent:
                    continue  # dropped unsent when an overloaded step ended
                check.expect(sample.status == 200,
                             f"request for body {sample.index}: status {sample.status}")
                if sample.payload is not None:
                    payloads.setdefault(sample.index, set()).add(sample.payload)
    gates.check_responses(check, bodies.factory, payloads, bodies.distinct)

    scaled = _scaled(plain, probe)
    lat = scaled["latencies_ms"]
    lag_p99 = percentile(plain["lag_ms"], 99)
    q = highest_reportable(len(lat))
    metrics = {
        "setup_s": statistics.median(scaled["setups"]),
        "p50_ms": percentile(lat, 50),
        "p99_ms": percentile(lat, 99) if reportable(len(lat), 99) else None,
        "max_rps": scaled["max_rps"],
        "sat_rps": statistics.median(scaled["bursts_rps"]),
        "error_rate": check.failed / check.attempted,
        "peak_rss_mb": peak,
    }
    layers = None
    if traced:
        layers = _service_layers(runs[1])
        layers["trace_overhead"] = (
            percentile(_scaled(runs[1], probe)["latencies_ms"], 50) / metrics["p50_ms"]
            - 1.0
        )
    return {
        "correct": check.ok,
        "attempted": check.attempted,
        "failed": check.failed,
        "problems": check.problems,
        "skipped": check.skipped,
        "metrics": metrics,
        "detail": {
            "fixed_samples": len(lat),
            "fixed_tail": {"q": q, "ms": percentile(lat, q) if q else None},
            "server_p50_ms": scaled["part_p50_ms"],
            "bursts_rps": scaled["bursts_rps"],
            "search_steps": plain["steps"],
            "setup_starts_s": scaled["setups"],
            "slowness": [probe.slowness(*window) for _part, window in plain["fixed"]],
            "raw_p50_ms": percentile(
                [ms for part, _window in plain["fixed"] for ms in part.latencies_ms()], 50
            ),
            "raw_sat_rps": statistics.median(rate for rate, _window in plain["bursts"]),
            "loadgen_lag_p99_ms": lag_p99,
            "valid": lag_p99 <= MAX_LAG_MS,
        },
        "layers": layers,
    }


def run(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """Run one workload in a fresh work directory, removed afterwards."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    probe = Probe(work / "hostspeed.txt")
    try:
        runner = run_batch if workload in BATCH else run_service
        return runner(workload, seed, seconds, traced, smoke, work, probe)
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)
