"""Integer-indexed workload compilation (the kernel's data layer).

A :class:`CompiledWorkload` flattens one generated workload — task
graph plus platform — into contiguous arrays indexed by small integers,
so the hot trial loop (metric weights → slicing DP → EDF placement)
never touches a string key, a dataclass attribute chain, or a per-task
dict lookup:

* a task-index ↔ task-id table in **graph insertion order** (the order
  of ``graph.task_ids()``, which is the order the reference
  implementation sums estimates and WCETs in — float summation order is
  part of the bit-identity contract);
* the topological order as an int array (insertion order and
  topological order differ in general, so both are kept);
* successor and predecessor adjacency as one tuple row per task
  (successor indices; ``(predecessor, message size)`` pairs), in the
  graph's edge-insertion order;
* per task, its platform-valid WCET values (the estimators' input);
* per-task arrival phasings and output-deadline bounds;
* a string-rank permutation for tasks: ``rank[i]`` is the position of
  ``ids[i]`` in ``sorted(ids)``.  Every tie-break in the reference
  implementation compares id *strings*; comparing ranks is
  order-isomorphic, so integer comparisons reproduce the exact same
  winners.

That is everything estimation, the metric weights and slicing read.
The EDF placement arrays — a dense WCET matrix ``[task × processor]``
(row-major, ``-1.0`` marking an ineligible processor), the per-task
eligible ``(processor, wcet)`` rows and bitmask, processor ids and
their string ranks, and resource sets — are a :class:`Placement`,
built once on the first :meth:`CompiledWorkload.placement` call, so a
workload that is only sliced (a ``POST /assign`` cache miss) never
builds them.

The compilation is pure — everything derives from the workload alone —
so one compiled workload is shared by every series of a trial (it hangs
off :class:`~repro.experiments.context.TrialContext` as a lazy
property), and memoizes the per-estimator weight arrays the kernel
metrics produce.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Callable, Mapping

from ..core.estimation import WCET_AVG, WCET_MAX, WCET_MIN, WcetEstimator
from ..errors import EligibilityError
from ..types import Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from ..graph.taskgraph import TaskGraph
    from ..system.platform import Platform

__all__ = ["CompiledWorkload", "Placement", "compile_workload"]


class Placement:
    """The EDF placement arrays of one compiled workload.

    Built by :meth:`CompiledWorkload.placement`; immutable by
    convention, like the workload's own arrays.
    """

    __slots__ = (
        "wcet_pp",
        "elig_rows",
        "elig_mask",
        "proc_ids",
        "proc_rank",
        "resources",
        "has_resources",
    )

    def __init__(self, cw: "CompiledWorkload") -> None:
        procs = list(cw.platform.processors())
        n, m = cw.n, cw.m
        self.proc_ids = [p.id for p in procs]
        proc_index = {pid: q for q, pid in enumerate(self.proc_ids)}
        proc_rank = [0] * m
        for r, pid in enumerate(sorted(self.proc_ids)):
            proc_rank[proc_index[pid]] = r
        self.proc_rank = proc_rank
        proc_cls = [(q, proc.cls) for q, proc in enumerate(procs)]
        wcet_pp = array("d", [-1.0] * (n * m))
        elig_mask = [0] * n
        # (processor, wcet) pairs per task in processor order — the EDF
        # probe loop walks these directly instead of scanning the dense
        # row for ineligible -1.0 cells.
        elig_rows: list[tuple[tuple[int, float], ...]] = []
        resources: list[tuple[str, ...]] = []
        for i, task in enumerate(cw.graph._tasks.values()):
            wcet_get = task.wcet.get
            base = i * m
            row: list[tuple[int, float]] = []
            for q, cls in proc_cls:
                c = wcet_get(cls)
                if c is not None:
                    wcet_pp[base + q] = c
                    elig_mask[i] |= 1 << q
                    row.append((q, c))
            elig_rows.append(tuple(row))
            resources.append(tuple(task.resources))
        self.wcet_pp = wcet_pp
        self.elig_rows = elig_rows
        self.elig_mask = elig_mask
        self.resources = resources
        self.has_resources = any(resources)


class CompiledWorkload:
    """Flat, integer-indexed view of one (graph, platform) pair.

    Attributes are documented in the module docstring; all arrays are
    immutable by convention (the kernel never writes to them).
    """

    __slots__ = (
        "graph",
        "platform",
        "n",
        "m",
        "ids",
        "index",
        "rank",
        "topo",
        "succ_lists",
        "pred_ps",
        "indeg",
        "wcet_vals",
        "phasing",
        "input_idx",
        "output_idx",
        "out_deadline",
        "_placement",
        "_anc",
        "_psets",
        "_est_lists",
        "_weight_lists",
        "_vec",
    )

    def __init__(self, graph: "TaskGraph", platform: "Platform") -> None:
        self.graph = graph
        self.platform = platform

        # Compilation reads the graph's raw adjacency dicts: the public
        # accessors copy a list per call, and one compile per trial walks
        # every task several times.  The insertion order of ``_tasks`` is
        # exactly ``graph.task_ids()`` — the reference sum order.
        tasks_d = graph._tasks
        succ_d = graph._succ
        pred_d = graph._pred
        ids = list(tasks_d)
        n = len(ids)
        index = {tid: i for i, tid in enumerate(ids)}
        self.ids = ids
        self.index = index
        self.n = n

        # String-rank permutation: rank-compare ≡ id-string-compare.
        rank = [0] * n
        for r, tid in enumerate(sorted(ids)):
            rank[index[tid]] = r
        self.rank = rank

        # Adjacency rows, preserving the graph's edge-insertion order per
        # task (the order the reference DP/commit loops iterate in).
        succ_lists: list[tuple[int, ...]] = []
        pred_ps: list[tuple[tuple[int, float], ...]] = []
        for tid in ids:
            succ_lists.append(tuple([index[s] for s in succ_d[tid]]))
            pred_ps.append(
                tuple([(index[p], size) for p, size in pred_d[tid].items()])
            )
        # Tuple-per-task successor rows: the slicing DP's innermost loop
        # iterates successors millions of times per sweep, and a direct
        # tuple walk beats a CSR range+index pair in CPython.
        self.succ_lists = succ_lists
        # Tuple-per-task (predecessor, message-size) rows — the EDF
        # incoming/commit loops and the slicing attach sweep walk these
        # instead of paired index/size lookups.
        self.pred_ps = pred_ps
        indeg = array("i", (len(prow) for prow in pred_ps))
        self.indeg = indeg

        # Kahn topological order over the int arrays, replicating the
        # exact LIFO pop / insertion-order seeding of
        # :meth:`TaskGraph.topological_order` (the DP relaxation order
        # depends on it, so the sequence must match the reference).
        indeg_rem = list(indeg)
        topo_ready = [i for i in range(n) if not indeg_rem[i]]
        topo: list[int] = []
        while topo_ready:
            i = topo_ready.pop()
            topo.append(i)
            for j in succ_lists[i]:
                indeg_rem[j] -= 1
                if not indeg_rem[j]:
                    topo_ready.append(j)
        if len(topo) != n:
            # Defer to the reference walk for its CycleError diagnostics.
            graph.topological_order()
        self.topo = array("i", topo)

        self.m = platform.m
        # Per-task platform-valid WCET values, exactly the list the
        # reference estimators filter per call (`task.wcet.items()`
        # restricted to the platform's used classes, insertion order) —
        # captured once so the kernel can combine estimates without
        # building the string-keyed estimate map.
        usable = set(platform.used_class_ids())
        self.wcet_vals = [
            tuple([c for cls, c in task.wcet.items() if cls in usable])
            for task in tasks_d.values()
        ]
        self.phasing = array("d", [task.phasing for task in tasks_d.values()])

        self.input_idx = [index[t] for t in ids if not pred_d[t]]
        output_idx = [index[t] for t in ids if not succ_d[t]]
        self.output_idx = output_idx
        # Tightest E-T-E bound per output, by one pass over the pair
        # deadlines (min() is exact, so accumulation order is free).
        # Pairs ending at a non-output task are ignored, like the
        # reference's per-output :meth:`TaskGraph.output_deadline` scan.
        out_deadline: list[Time | None] = [None] * n
        out_set = set(output_idx)
        for (a1, a2), d in graph._e2e.items():
            j = index[a2]
            if j not in out_set:
                continue
            bound = tasks_d[a1].phasing + d
            cur = out_deadline[j]
            if cur is None or bound < cur:
                out_deadline[j] = bound
        self.out_deadline = out_deadline

        self._placement: Placement | None = None
        self._anc: list[int] | None = None
        self._psets: list[int] | None = None
        self._est_lists: dict[str, list[float]] = {}
        self._weight_lists: dict[tuple, list[float]] = {}
        # Lazily built NumPy twin of the flat arrays (padded successor/
        # predecessor matrices, dense WCET view) — owned and memoized by
        # :func:`repro.kernel.vec.vec_arrays`; ``None`` until the
        # vectorized path first touches this workload.
        self._vec = None

    # ------------------------------------------------------------------
    def placement(self) -> Placement:
        """The EDF placement arrays, built on the first call and kept.

        Every EDF loop over this workload reads them (the scalar kernel
        loop, :meth:`~repro.kernel.edf.KernelSchedule.to_schedule` and
        the vec tier's batch engine); slicing and the weights never do.
        """
        placement = self._placement
        if placement is None:
            placement = self._placement = Placement(self)
        return placement

    def ancestor_masks(self) -> list[int]:
        """Per task, the bitmask of its ancestors *including itself*.

        One pass over ``topo`` (O(n + E) mask ORs), built on first use
        and shared: the slicing kernel narrows its invalidation sweeps
        with these masks, and :meth:`parallel_set_sizes` counts them.
        """
        anc = self._anc
        if anc is None:
            anc = [0] * self.n
            pred_ps = self.pred_ps
            for i in self.topo:
                mask = 1 << i
                for p, _sz in pred_ps[i]:
                    mask |= anc[p]
                anc[i] = mask
            self._anc = anc
        return anc

    def parallel_set_sizes(self) -> list[int]:
        """``|Ψ_i|`` per task (lazy bitset closure; exact integers).

        Identical to :meth:`TransitiveClosure.parallel_set_size` for
        every task — popcounts of reachability masks are integers, so no
        float-order caveats apply.
        """
        if self._psets is None:
            n = self.n
            anc = self.ancestor_masks()
            succ_lists = self.succ_lists
            # Descendant masks, each including its task, like ``anc``:
            # |Ψ_i| = n − (|desc_i| − 1) − (|anc_i| − 1) − 1.
            desc = [0] * n
            for i in reversed(self.topo):
                mask = 1 << i
                for j in succ_lists[i]:
                    mask |= desc[j]
                desc[i] = mask
            self._psets = [
                n + 1 - desc[i].bit_count() - anc[i].bit_count()
                for i in range(n)
            ]
        return self._psets

    def estimates_list(
        self, est_name: str, est_map: Mapping[str, Time]
    ) -> list[float]:
        """*est_map* flattened to insertion order, memoized per estimator."""
        cached = self._est_lists.get(est_name)
        if cached is None:
            cached = [est_map[tid] for tid in self.ids]
            self._est_lists[est_name] = cached
        return cached

    def estimates_from_vals(self, est_name: str, combine) -> list[float]:
        """Estimates combined straight from the platform-valid WCET rows.

        *combine* must be the estimator's own ``combine`` (it sees the
        very value tuples the reference filters per task, so the floats
        — including WCET-AVG's summation order — are identical).  Shares
        the memo with :meth:`estimates_list`; both produce the same
        list for the same estimator name.
        """
        cached = self._est_lists.get(est_name)
        if cached is None:
            ids = self.ids
            cached = []
            for i, vals in enumerate(self.wcet_vals):
                if not vals:
                    raise EligibilityError(
                        f"task {ids[i]!r} has no eligible class on this "
                        "platform"
                    )
                cached.append(combine(vals))
            self._est_lists[est_name] = cached
        return cached

    def estimates(
        self,
        estimator: WcetEstimator,
        est_map: Callable[[], Mapping[str, Time]],
    ) -> list[float]:
        """*estimator*'s ``c̄_i`` per task, memoized by its name.

        The rule every kernel caller shares: the stateless per-task
        estimators (WCET-AVG/-MAX/-MIN) combine the platform-valid WCET
        rows directly (:meth:`estimates_from_vals`); graph-aware or
        custom ones flatten the reference map that *est_map* returns
        (:meth:`estimates_list`).  *est_map* is called only then.
        """
        if estimator is WCET_AVG or estimator is WCET_MAX or estimator is WCET_MIN:
            return self.estimates_from_vals(estimator.name, estimator.combine)
        return self.estimates_list(estimator.name, est_map())

    def weights_cache(self) -> dict[tuple, list[float]]:
        """Memo for metric weight arrays, keyed by the kernel metrics."""
        return self._weight_lists


def compile_workload(graph: "TaskGraph", platform: "Platform") -> CompiledWorkload:
    """Compile *graph*/*platform* into a :class:`CompiledWorkload`."""
    return CompiledWorkload(graph, platform)
