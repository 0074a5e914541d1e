"""Unit tests for task-graph validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.graph import (
    GraphBuilder,
    Task,
    TaskGraph,
    TransitiveClosure,
    check_graph,
    validate_graph,
)
from repro.workload import WorkloadParams, generate_task_graph

from ..property.strategies import task_graphs


class TestValidateGraph:
    def test_valid_graph_passes(self, chain3):
        report = validate_graph(chain3)
        assert report.ok
        assert report.warnings == []

    def test_empty_graph_fails(self):
        report = validate_graph(TaskGraph())
        assert not report.ok

    def test_cycle_fails(self):
        g = TaskGraph()
        for tid in "ab":
            g.add_task(Task(id=tid, wcet={"e": 1.0}))
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        report = validate_graph(g)
        assert not report.ok
        assert "cycle" in report.errors[0]

    def test_e2e_pair_must_anchor_at_input_and_output(self):
        g = (
            GraphBuilder()
            .task("a", 1).task("b", 1).task("c", 1)
            .edge("a", "b").edge("b", "c")
            .build()
        )
        g.set_e2e_deadline("b", "c", 10.0)  # b is not an input task
        report = validate_graph(g)
        assert any("not an input task" in e for e in report.errors)

    def test_disconnected_pair_warns(self):
        g = (
            GraphBuilder()
            .task("i1", 1).task("o1", 1).task("i2", 1).task("o2", 1)
            .edge("i1", "o1").edge("i2", "o2")
            .e2e("i1", "o2", 10)
            .build()
        )
        report = validate_graph(g)
        assert report.ok
        assert any("no path connects" in w for w in report.warnings)

    def test_deadline_below_min_work_warns(self, chain3):
        chain3.set_e2e_deadline("a", "c", 9.0)  # min work is 45
        # min over pairs: the new tighter pair triggers the warning
        report = validate_graph(chain3)
        assert any("below the minimum" in w for w in report.warnings)

    def test_uncovered_output_warns_when_required(self):
        g = GraphBuilder().task("a", 1).task("b", 1).edge("a", "b").build()
        report = validate_graph(g, require_e2e=True)
        assert any("not covered" in w for w in report.warnings)

    def test_check_graph_raises(self):
        with pytest.raises(ValidationError):
            check_graph(TaskGraph())

    def test_raise_if_invalid_passes_warnings(self, chain3):
        chain3.set_e2e_deadline("a", "c", 9.0)
        validate_graph(chain3).raise_if_invalid()  # warnings don't raise

    def test_overflowing_path_work_still_connects(self):
        # 1e308 + 1e308 overflows to inf: the pair is connected, but no
        # path has a finite minimum work to compare the deadline with.
        g = (
            GraphBuilder()
            .task("a", 1e308).task("b", 1e308)
            .edge("a", "b")
            .e2e("a", "b", 10.0)
            .build()
        )
        assert validate_graph(g).warnings == []


# ----------------------------------------------------------------------
# Differential test against the per-pair specification
# ----------------------------------------------------------------------
def _reference_min_path_work(graph, src, dst):
    """Smallest sum of minimum WCETs over any src→dst path, per pair."""
    INF = float("inf")
    dist = {tid: INF for tid in graph.task_ids()}
    dist[src] = graph.task(src).min_wcet()
    for tid in graph.topological_order():
        if dist[tid] == INF:
            continue
        for s in graph.successors(tid):
            cand = dist[tid] + graph.task(s).min_wcet()
            if cand < dist[s]:
                dist[s] = cand
    return None if dist[dst] == INF else dist[dst]


def _reference_report(graph, require_e2e):
    """The report spelled out pair by pair: one closure query and one
    full-graph DP for every E-T-E pair."""
    errors, warnings = [], []
    if graph.n_tasks == 0:
        return ["task graph is empty"], warnings
    if not graph.is_acyclic():
        return ["task graph contains a precedence cycle"], warnings
    closure = TransitiveClosure(graph)
    inputs = set(graph.input_tasks())
    outputs = set(graph.output_tasks())
    for (a1, a2), d in graph.e2e_deadlines().items():
        if a1 not in inputs:
            errors.append(
                f"E-T-E pair ({a1!r}, {a2!r}): {a1!r} is not an input task"
            )
        if a2 not in outputs:
            errors.append(
                f"E-T-E pair ({a1!r}, {a2!r}): {a2!r} is not an output task"
            )
        if a1 != a2 and not closure.reachable(a1, a2):
            warnings.append(
                f"E-T-E pair ({a1!r}, {a2!r}): no path connects the pair"
            )
        min_work = _reference_min_path_work(graph, a1, a2)
        if min_work is not None and d < min_work:
            warnings.append(
                f"E-T-E pair ({a1!r}, {a2!r}): deadline {d:g} is below the "
                f"minimum possible path execution time {min_work:g}"
            )
    if require_e2e:
        covered = {a2 for (_, a2) in graph.e2e_deadlines()}
        for out in sorted(outputs - covered):
            warnings.append(
                f"output task {out!r} is not covered by any E-T-E deadline"
            )
    return errors, warnings


@st.composite
def graphs_with_arbitrary_pairs(draw):
    """A DAG whose E-T-E pairs are drawn from all task pairs: non-input
    and non-output anchors, ``a1 == a2``, unreachable pairs, and
    deadlines on both sides of the pair's minimum work."""
    # Near-max WCETs make every path of two or more tasks sum to inf.
    low, high = draw(st.sampled_from([(1.0, 30.0), (9e307, 1e308)]))
    graph = draw(task_graphs(min_wcet=low, max_wcet=high))
    ids = graph.task_ids()
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
            max_size=12,
            unique=True,
        )
    )
    for a1, a2 in pairs:
        work = _reference_min_path_work(graph, a1, a2)
        factor = draw(
            st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.01, 3.0)
        )
        base = work if work is not None and work < 1e300 else 100.0
        graph.set_e2e_deadline(a1, a2, factor * base)
    return graph


@given(graphs_with_arbitrary_pairs(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_report_matches_per_pair_reference(graph, require_e2e):
    report = validate_graph(graph, require_e2e=require_e2e)
    errors, warnings = _reference_report(graph, require_e2e)
    assert report.errors == errors
    assert report.warnings == warnings


def test_one_topological_order_and_no_closure(monkeypatch):
    graph = generate_task_graph(
        WorkloadParams(n_tasks_range=(60, 60)),
        np.random.default_rng(2),
        ["c1", "c2"],
    )
    assert len(graph.e2e_deadlines()) >= 50
    calls = {"topological_order": 0, "closure": 0}
    topological_order = TaskGraph.topological_order

    def counted_order(self):
        calls["topological_order"] += 1
        return topological_order(self)

    def no_closure(self, graph):
        calls["closure"] += 1

    monkeypatch.setattr(TaskGraph, "topological_order", counted_order)
    monkeypatch.setattr(TransitiveClosure, "__init__", no_closure)
    report = validate_graph(graph, require_e2e=True)
    assert report.ok
    assert calls == {"topological_order": 1, "closure": 0}


def _seeded_graph(seed):
    return generate_task_graph(
        WorkloadParams(n_tasks_range=(20, 30)),
        np.random.default_rng(seed),
        ["c1", "c2"],
    )


def _inject(graph, fault):
    """*graph* with one kind of structural fault added."""
    inputs, outputs = graph.input_tasks(), graph.output_tasks()
    inner = [t for t in graph.task_ids() if t not in inputs and t not in outputs]
    if fault == "empty":
        return TaskGraph()
    if fault == "cycle":
        graph.add_edge(outputs[0], inputs[0])
    elif fault == "non-input source":
        graph.set_e2e_deadline(inner[0], outputs[0], 50.0)
    elif fault == "non-output sink":
        graph.set_e2e_deadline(inputs[0], inner[-1], 50.0)
    elif fault == "several bad pairs":
        graph.set_e2e_deadline(inner[0], outputs[-1], 50.0)
        graph.set_e2e_deadline(inputs[-1], inner[0], 50.0)
        graph.set_e2e_deadline(inner[-1], inner[0], 50.0)
    return graph


def _raised(call):
    try:
        call()
    except ValidationError as exc:
        return str(exc)
    return None


class TestCheckGraph:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    @pytest.mark.parametrize(
        "fault",
        [
            None,
            "empty",
            "cycle",
            "non-input source",
            "non-output sink",
            "several bad pairs",
        ],
    )
    def test_raises_exactly_what_the_report_raises(self, seed, fault):
        graph = _inject(_seeded_graph(seed), fault)
        expected = _raised(lambda: validate_graph(graph).raise_if_invalid())
        assert (expected is None) == (fault is None)
        assert _raised(lambda: check_graph(graph)) == expected

    def test_several_bad_pairs_join_in_pair_order(self):
        graph = _inject(_seeded_graph(3), "several bad pairs")
        message = _raised(lambda: check_graph(graph))
        assert message.count("; ") == 3
        assert message == "; ".join(validate_graph(graph).errors)

    def test_computes_no_warnings(self, monkeypatch):
        import repro.graph.validation as validation

        def no_dp(*args):
            raise AssertionError("check_graph ran a min-work DP")

        monkeypatch.setattr(validation, "_min_path_work", no_dp)
        graph = _seeded_graph(11)
        a1, a2 = graph.input_tasks()[0], graph.output_tasks()[0]
        graph.set_e2e_deadline(a1, a2, 1e-6)  # below any path's work
        check_graph(graph)
        with pytest.raises(AssertionError, match="min-work DP"):
            validate_graph(graph)
