"""The compiled slicing kernel against the reference on tie-heavy DAGs.

Integer WCETs from {1, 2, 3} on a single-class platform make path
weights, lengths and ratios tie often, which is where the kernel's
bookkeeping (kept DPs, ancestor-mask invalidation, deferred path
reconstruction, the heap's tie-breaks) could part from the reference
:func:`repro.core.paths.find_critical_path`.  Every case asserts the
same paths, the same degenerate flag and the same windows in the same
insertion order.  The deterministic cases below each drive one of the
kernel's branches; their comments give the step at which it happens.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import distribute_deadlines
from repro.graph import Task, TaskGraph
from repro.kernel import slicing as kslicing
from repro.system import identical_platform

METRICS = ["PURE", "NORM", "ADAPT-G", "ADAPT-L"]
FACTORS = [0.5, 0.75, 1.0, 1.25, 1.5, 2.0]


def assert_kernel_matches_reference(graph, m, metric):
    platform = identical_platform(m)
    ref = distribute_deadlines(graph, platform, metric, kernel=False)
    fast = distribute_deadlines(graph, platform, metric, kernel=True)
    assert fast.paths == ref.paths
    assert fast.degenerate == ref.degenerate
    assert list(fast.windows.items()) == list(ref.windows.items())
    return ref


def build(weights, edges, deadlines):
    """A graph from ``{id: wcet}`` (insertion order kept), an edge list
    and either one uniform E-T-E deadline or ``{(a1, a2): d}``."""
    graph = TaskGraph()
    for tid, c in weights.items():
        graph.add_task(Task(id=tid, wcet={"default": float(c)}))
    for a, b in edges:
        graph.add_edge(a, b, 0.0)
    if isinstance(deadlines, dict):
        for (a1, a2), d in deadlines.items():
            graph.set_e2e_deadline(a1, a2, float(d))
    else:
        graph.set_uniform_e2e_deadline(float(deadlines))
    return graph


# ----------------------------------------------------------------------
# Tie-heavy random DAGs
# ----------------------------------------------------------------------
wcets = st.sampled_from([1, 2, 3])


@st.composite
def layered(draw):
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    levels, edges, k = [], [], 0
    for width in widths:
        levels.append([f"n{k + i}" for i in range(width)])
        k += width
    for lvl in range(1, len(levels)):
        earlier = [t for level in levels[:lvl] for t in level]
        for tid in levels[lvl]:
            preds = {draw(st.sampled_from(levels[lvl - 1]))}
            preds.update(
                draw(st.lists(st.sampled_from(earlier), max_size=2, unique=True))
            )
            edges += [(p, tid) for p in sorted(preds)]
    return [t for level in levels for t in level], edges


@st.composite
def fork_joins(draw):
    """Stages of wide forks joined again; some branches are chains."""
    tasks, edges = ["s0"], []
    join = "s0"
    for stage in range(draw(st.integers(1, 3))):
        ends = []
        for b in range(draw(st.integers(2, 6))):
            prev = join
            for d in range(draw(st.integers(1, 2))):
                tid = f"f{stage}_{b}_{d}"
                tasks.append(tid)
                edges.append((prev, tid))
                prev = tid
            ends.append(prev)
        join = f"j{stage}"
        tasks.append(join)
        edges += [(e, join) for e in ends]
    return tasks, edges


@st.composite
def chains(draw):
    """A long chain with a few short side branches and shortcuts."""
    length = draw(st.integers(4, 14))
    tasks = [f"c{i:02d}" for i in range(length)]
    edges = [(tasks[i], tasks[i + 1]) for i in range(length - 1)]
    for b in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, length - 2))
        j = draw(st.integers(i + 1, length - 1))
        side = f"b{b}"
        tasks.append(side)
        edges += [(tasks[i], side), (side, tasks[j])]
    return tasks, edges


@st.composite
def tie_heavy_graphs(draw):
    tasks, edges = draw(st.one_of(layered(), fork_joins(), chains()))
    # Shuffle the insertion order (the DP's scan and successor order
    # depend on it) without breaking edge validity.
    order = draw(st.permutations(tasks))
    weights = {t: draw(wcets) for t in order}
    edge_order = draw(st.permutations(edges))
    total = sum(weights.values())
    deadline = draw(st.sampled_from(FACTORS)) * total
    return build(weights, edge_order, deadline)


@given(tie_heavy_graphs(), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference_on_tie_heavy_dags(graph, m):
    for metric in METRICS:
        assert_kernel_matches_reference(graph, m, metric)


# ----------------------------------------------------------------------
# Deterministic cases, one per kernel branch
# ----------------------------------------------------------------------
def spy_keeps_dp(monkeypatch):
    seen: list[bool] = []
    real = kslicing._keeps_dp

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(kslicing, "_keeps_dp", spy)
    return seen


def test_kept_dp(monkeypatch):
    # Step 1 picks a→c (weight 3 beats b→c's 2).  Head b's DP reached
    # {b, c}; c leaves, but c is nobody's parent in b's DP, so the DP
    # is kept with reached set {b} and b is rescored: its new deadline
    # pin (c's arrival) makes b its own tail.
    graph = build({"a": 2, "b": 1, "c": 1}, [("a", "c"), ("b", "c")], 6)
    seen = spy_keeps_dp(monkeypatch)
    ref = assert_kernel_matches_reference(graph, 2, "PURE")
    assert ref.paths == [("a", "c"), ("b",)]
    assert seen == [True]


def test_rebuilt_dp_when_a_path_task_is_the_first_of_tied_parents(
    monkeypatch,
):
    # Insertion order makes the topological order a, h, i, t, q, j, so
    # head h's DP relaxes j from i before q, with equal (dist, cnt):
    # par[j] = i.  Step 1 picks a→i→t (weight 7 against h's 5), which
    # removes i but not j: keeping h's DP would leave j hanging off a
    # removed task, so it is rebuilt and j's parent becomes q.
    graph = build(
        {"h": 1, "a": 3, "q": 1, "i": 1, "t": 3, "j": 1},
        [("a", "i"), ("h", "q"), ("h", "i"), ("i", "t"), ("i", "j"),
         ("q", "j")],
        12,
    )
    seen = spy_keeps_dp(monkeypatch)
    ref = assert_kernel_matches_reference(graph, 2, "PURE")
    assert ref.paths[0] == ("a", "i", "t")
    assert ("h", "q", "j") in ref.paths
    assert seen[0] is False


def test_ancestor_of_a_new_pin_whose_dp_does_not_reach_it():
    # Step 1 picks g→x→s (the tight deadline on s).  Head h reached p
    # only through x, so its rebuilt DP is {h}.  Step 2 picks q→y and
    # pins p's deadline: h is a full-graph ancestor of p (h→x→p) and a
    # built head, so the ancestor filter visits it, but its DP does not
    # reach p and its candidate stays valid.
    graph = build(
        {"g": 3, "h": 1, "x": 1, "s": 3, "p": 1, "y": 1, "q": 7},
        [("g", "x"), ("h", "x"), ("x", "p"), ("x", "s"), ("p", "y"),
         ("q", "y")],
        {("g", "s"): 8, ("h", "s"): 8, ("g", "y"): 12, ("h", "y"): 12,
         ("q", "y"): 12},
    )
    ref = assert_kernel_matches_reference(graph, 2, "PURE")
    assert ref.paths[:2] == [("g", "x", "s"), ("q", "y")]
    assert {("h",), ("p",)} <= set(ref.paths[2:])


def test_leaf_heads():
    # After a→b, head c has no successor left in Π (it never had one):
    # its DP is the shared single-task rows.  The isolated task z is an
    # input and an output, so it is a leaf head from the start.
    graph = build(
        {"a": 2, "b": 2, "c": 1, "z": 3},
        [("a", "b"), ("a", "c")],
        10,
    )
    for metric in METRICS:
        ref = assert_kernel_matches_reference(graph, 3, metric)
        assert ("c",) in ref.paths and ("z",) in ref.paths
