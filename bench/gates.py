"""Correctness checks run outside the timed window, and request bodies.

A failed check counts against ``error_rate`` and makes the run incorrect.
Result files are compared through :func:`canonical_digest`: the SHA-256 of
the result JSON with ``elapsed_seconds`` removed and keys sorted.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"
MAX_PROBLEMS = 20


def use_src() -> None:
    """Make the checkout's ``repro`` importable in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Checks:
    """Tally of correctness checks: attempted, failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.skipped: list[str] = []

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def expect(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(problem)

    def skip(self, why: str) -> None:
        self.skipped.append(why)


def canonical_digest(path: Path) -> str:
    doc = json.loads(path.read_text())
    doc.pop("elapsed_seconds", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def judgments(path: Path) -> int:
    """Trial judgments behind one result file (trials summed over cells)."""
    return sum(cell["trials"] for cell in json.loads(path.read_text())["cells"])


def figure_names() -> list[str]:
    use_src()
    from repro.experiments.figures import FIGURES

    return sorted(FIGURES)


def batch_outputs(workload: str) -> list[str]:
    return figure_names() if workload == "figures" else ["fig3"]


def check_golden(check: Checks, workload: str, trials: int, seed: int,
                 digests: dict[str, str]) -> None:
    golden = json.loads(GOLDEN.read_text())
    entry = golden["digests"].get(f"{workload}@{trials}")
    if seed != golden["seed"] or entry is None:
        check.skip(f"golden digests exist for seed {golden['seed']} only")
        return
    for name, digest in sorted(entry.items()):
        check.expect(digests.get(name) == digest,
                     f"{name}: result differs from its golden digest")


def check_sweep_units(check: Checks, seed: int, trials: int, store_dir: Path) -> None:
    """Recompute two seeded-random units on the reference pipeline and
    compare them with the records the sweep committed."""
    use_src()
    from repro.experiments.figures import get_figure_spec
    from repro.experiments.runner import run_paired_cells
    from repro.fabric.units import auto_chunk_size, extract_units
    from repro.store import TrialStore

    units = extract_units(get_figure_spec("fig3"), trials=trials, seed=seed,
                          chunk_size=auto_chunk_size(trials))
    store = TrialStore(store_dir)
    try:
        for unit in random.Random(seed).sample(units, 2):
            partials = run_paired_cells(list(unit.cells), list(unit.seeds),
                                        use_kernel=False)
            for key, (_si, cell) in zip(unit.keys, partials):
                check.expect(
                    json.dumps(cell.to_dict()) == json.dumps(store.get(key)),
                    f"unit {unit.unit_id[:12]}: stored record differs from the "
                    "reference pipeline",
                )
    finally:
        store.close()


class BodyFactory:
    """``POST /assign`` bodies built from seeded ``WorkloadParams(m=4)`` graphs.

    ``base(k)`` is the body of graph *k*; ``variant(i)`` is graph
    ``i % count`` with ``(i // count + 1) / 4096`` added to every E-T-E
    deadline, so every *i* has its own digest.  ``probe()`` is a graph
    used by no workload request.  *n_tasks* pins the graph size (default:
    the generator's 40-60 tasks).
    """

    def __init__(self, seed: int, count: int, n_tasks: int | None = None) -> None:
        use_src()
        from repro.graph import graph_to_dict
        from repro.rng import make_rng
        from repro.system.platform import platform_to_dict
        from repro.workload import WorkloadParams, generate_workload

        rng = random.Random(seed)
        params = WorkloadParams(m=4) if n_tasks is None else WorkloadParams(
            m=4, n_tasks_range=(n_tasks, n_tasks)
        )
        self.count = count
        self._parts: list[tuple[bytes, list[dict]]] = []
        for _ in range(count + 1):
            workload = generate_workload(params, make_rng(rng.getrandbits(63)))
            graph = graph_to_dict(workload.graph)
            e2e = graph.pop("e2e_deadlines")
            head = json.dumps({"metric": "ADAPT-L",
                               "platform": platform_to_dict(workload.platform)})
            prefix = f'{head[:-1]}, "graph": {json.dumps(graph)[:-1]}, "e2e_deadlines": '
            self._parts.append((prefix.encode(), e2e))

    def _body(self, k: int, offset: float) -> bytes:
        prefix, e2e = self._parts[k]
        shifted = [dict(pair, deadline=pair["deadline"] + offset) for pair in e2e]
        return prefix + json.dumps(shifted).encode() + b"}}"

    def base(self, k: int) -> bytes:
        return self._body(k, 0.0)

    def variant(self, i: int) -> bytes:
        return self._body(i % self.count, (i // self.count + 1) / 4096)

    def probe(self) -> bytes:
        return self._body(self.count, 0.0)


def reference_response(body: bytes, cached: bool) -> dict:
    """What ``/assign`` must answer for *body*: the reference pipeline's
    assignment serialized through the service's own response format."""
    use_src()
    from repro.core.slicing import distribute_deadlines
    from repro.service.api import (
        request_digest,
        request_from_dict,
        response_from_assignment,
        response_to_dict,
    )

    request = request_from_dict(json.loads(body))
    assignment = distribute_deadlines(
        request.graph, request.platform, request.metric,
        estimator=request.estimator, params=request.params, kernel=False,
    )
    return response_to_dict(
        response_from_assignment(assignment, request_digest(request), cached=cached)
    )


def check_responses(check: Checks, factory: BodyFactory,
                    payloads: dict[int, set[bytes]], distinct: bool) -> None:
    for index, seen in sorted(payloads.items()):
        body = factory.variant(index) if distinct else factory.base(index)
        for payload in seen:
            doc = json.loads(payload)
            check.expect(
                doc == reference_response(body, cached=bool(doc.get("cached"))),
                f"response for body {index} differs from the reference pipeline",
            )
