"""Structural unit tests for :class:`repro.kernel.compiled.CompiledWorkload`.

Every flat array must agree with the public accessors of the graph and
platform it was compiled from — these are the invariants the slicing
and EDF fast paths lean on without re-checking.
"""

import pytest

from repro.core.estimation import WCET_AVG, WCET_MAX, estimate_map
from repro.experiments.context import TrialContext
from repro.graph.algorithms import TransitiveClosure
from repro.kernel.compiled import compile_workload
from repro.workload import WorkloadParams


@pytest.fixture(scope="module")
def compiled_pair():
    context = TrialContext.from_seed(WorkloadParams(m=4), 424242)
    return context.graph, context.platform, compile_workload(
        context.graph, context.platform
    )


class TestIndexing:
    def test_ids_are_insertion_order(self, compiled_pair):
        graph, _platform, cw = compiled_pair
        assert cw.ids == graph.task_ids()
        assert cw.n == graph.n_tasks
        assert all(cw.index[tid] == i for i, tid in enumerate(cw.ids))

    def test_rank_orders_like_id_strings(self, compiled_pair):
        _graph, _platform, cw = compiled_pair
        by_rank = sorted(range(cw.n), key=lambda i: cw.rank[i])
        assert [cw.ids[i] for i in by_rank] == sorted(cw.ids)

    def test_topo_matches_reference_walk(self, compiled_pair):
        graph, _platform, cw = compiled_pair
        assert [cw.ids[i] for i in cw.topo] == graph.topological_order()


class TestAdjacency:
    def test_succ_rows_preserve_edge_order(self, compiled_pair):
        graph, _platform, cw = compiled_pair
        for i, tid in enumerate(cw.ids):
            assert [cw.ids[j] for j in cw.succ_lists[i]] == graph.successors(
                tid
            )

    def test_pred_rows_carry_message_sizes(self, compiled_pair):
        graph, _platform, cw = compiled_pair
        for i, tid in enumerate(cw.ids):
            row = [(cw.ids[p], size) for p, size in cw.pred_ps[i]]
            assert [p for p, _s in row] == graph.predecessors(tid)
            for p, size in row:
                assert size == graph.message_size(p, tid)

    def test_indeg_and_boundary_tasks(self, compiled_pair):
        graph, _platform, cw = compiled_pair
        assert list(cw.indeg) == [
            len(graph.predecessors(t)) for t in cw.ids
        ]
        assert [cw.ids[i] for i in cw.input_idx] == graph.input_tasks()
        assert [cw.ids[i] for i in cw.output_idx] == graph.output_tasks()


class TestPlatformArrays:
    def test_wcet_matrix_and_eligibility(self, compiled_pair):
        graph, platform, cw = compiled_pair
        pl = cw.placement()
        procs = list(platform.processors())
        assert pl.proc_ids == [p.id for p in procs]
        for i, tid in enumerate(cw.ids):
            task = graph.task(tid)
            for q, proc in enumerate(procs):
                c = task.wcet.get(proc.cls)
                cell = pl.wcet_pp[i * cw.m + q]
                if c is None:
                    assert cell == -1.0
                    assert not (pl.elig_mask[i] >> q) & 1
                else:
                    assert cell == c
                    assert (pl.elig_mask[i] >> q) & 1
            assert [
                (pl.proc_ids[q], c) for q, c in pl.elig_rows[i]
            ] == [
                (p.id, task.wcet[p.cls])
                for p in procs
                if p.cls in task.wcet
            ]

    def test_out_deadline_matches_reference_bound(self, compiled_pair):
        graph, _platform, cw = compiled_pair
        for i in cw.output_idx:
            assert cw.out_deadline[i] == graph.output_deadline(cw.ids[i])


class TestDerivedCaches:
    def test_parallel_set_sizes_match_closure(self, compiled_pair):
        graph, _platform, cw = compiled_pair
        closure = TransitiveClosure(graph)
        assert cw.parallel_set_sizes() == [
            closure.parallel_set_size(t) for t in cw.ids
        ]

    def test_estimates_from_vals_match_estimate_map(self, compiled_pair):
        graph, platform, cw = compiled_pair
        for est in (WCET_AVG, WCET_MAX):
            reference = estimate_map(graph, est, platform)
            direct = cw.estimates_from_vals(est.name, est.combine)
            assert direct == [reference[t] for t in cw.ids]

    def test_estimates_memo_is_shared_between_paths(self, compiled_pair):
        graph, platform, cw = compiled_pair
        direct = cw.estimates_from_vals(WCET_AVG.name, WCET_AVG.combine)
        via_map = cw.estimates_list(
            WCET_AVG.name, estimate_map(graph, WCET_AVG, platform)
        )
        assert direct is via_map  # same memo entry, same floats

    def test_ancestor_masks_match_closure(self, compiled_pair):
        graph, _platform, cw = compiled_pair
        closure = TransitiveClosure(graph)
        index = cw.index
        anc = cw.ancestor_masks()
        for i, tid in enumerate(cw.ids):
            expected = 1 << i
            for a in closure.ancestors(tid):
                expected |= 1 << index[a]
            assert anc[i] == expected
        assert cw.ancestor_masks() is anc  # built once, then shared
