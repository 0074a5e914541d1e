"""Algorithm SLICING over a compiled workload (kernel fast path).

One function runs the whole deadline distribution — critical-path
search, window slicing, boundary projection, pin propagation — against
the flat arrays of a :class:`~repro.kernel.compiled.CompiledWorkload`.
It picks exactly the paths of :func:`repro.core.slicing.slice_with_state`
+ :func:`repro.core.paths.find_critical_path`, with every string-keyed
dict replaced by an int-indexed array and the per-step bookkeeping cut
to what a step actually changes:

* pins (`arrivals`/`deadlines`) become float arrays plus presence
  bytearrays;
* each head's DP is a dense dist/count/parent triple plus a
  *reached-set bitmask*.  A head with no successor left in Π points at
  shared read-only rows instead of building one;
* invalidation walks only the built heads that are full-graph
  ancestors of the removed path or of a new deadline pin (a head's DP
  reaches only its descendants), then tests the reached set with one
  ``&``;
* a DP whose reached set loses tasks that are nobody's DP parent is
  kept as it is (see ``_keeps_dp``) instead of rebuilt;
* candidates carry their tail; a path is reconstructed only when its
  head is selected (or on an exact aggregate tie inside one head);
* lexicographic path tie-breaks compare precomputed string-rank
  tuples, which order exactly like the id strings.

Bit-identity is the contract: the DP relaxation order (topological
suffix × successor-insertion order, filtered to Π), every floating-point
expression of the scoring/sharing/projection code, and the tie-breaking
total order are preserved operation for operation, so the produced
windows, chosen paths, and degenerate flag equal the reference's bit
for bit.  ``tests/kernel`` and ``tests/property/test_prop_kernel_ties.py``
enforce this against randomized and tie-heavy workloads.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Sequence

from ..core.assignment import DeadlineAssignment, TaskWindow
from ..errors import DistributionError, MetricError
from ..types import Time
from .compiled import CompiledWorkload

__all__ = ["KernelAssignment", "kernel_slice"]

_UNSET = object()  # "no memoized best candidate" sentinel


class KernelAssignment:
    """Array-form deadline assignment produced by :func:`kernel_slice`.

    Holds per-task arrivals and absolute deadlines (insertion-indexed),
    the chosen paths as int tuples, and the degenerate flag — enough for
    the kernel EDF stage and the trial aggregates without materializing
    a :class:`~repro.core.assignment.DeadlineAssignment`.  It records
    no metric name: the slicing reads only the sharing rule and the
    weights, so metrics whose weights coincide share one assignment,
    and :meth:`to_assignment` applies the name as a label.
    """

    __slots__ = ("win_a", "win_d", "paths", "degenerate")

    def __init__(
        self,
        win_a: list[float],
        win_d: list[float],
        paths: list[tuple[int, ...]],
        degenerate: bool,
    ) -> None:
        self.win_a = win_a
        self.win_d = win_d
        self.paths = paths
        self.degenerate = degenerate

    def min_laxity(self, est: Sequence[float]) -> float:
        """``min_i (d_i − c̄_i)`` — same floats as the reference.

        Each laxity is ``(D_i − a_i) − c̄_i`` exactly as the reference
        computes it (the relative deadline is stored as that difference
        at window-construction time); ``min`` over floats is exact.
        """
        win_a, win_d = self.win_a, self.win_d
        if not win_a:
            raise DistributionError("empty assignment has no laxity")
        return min(
            (win_d[i] - win_a[i]) - est[i] for i in range(len(win_a))
        )

    def to_assignment(
        self,
        cw: CompiledWorkload,
        metric_name: str,
        estimator_name: str = "?",
    ) -> DeadlineAssignment:
        """Materialize the reference-format assignment (bit-identical).

        Windows are inserted path by path in selection order — the very
        insertion order the reference loop produces — so even dict
        iteration order matches.  *metric_name* and *estimator_name*
        label the result as the reference would.
        """
        ids = cw.ids
        win_a, win_d = self.win_a, self.win_d
        windows: dict[str, TaskWindow] = {}
        for path in self.paths:
            for i in path:
                a_i = win_a[i]
                d_abs = win_d[i]
                windows[ids[i]] = TaskWindow(
                    arrival=a_i,
                    relative_deadline=d_abs - a_i,
                    absolute_deadline=d_abs,
                )
        return DeadlineAssignment(
            windows=windows,
            metric_name=metric_name,
            estimator_name=estimator_name,
            paths=[tuple(ids[i] for i in path) for path in self.paths],
            degenerate=self.degenerate,
        )


def kernel_slice(
    cw: CompiledWorkload, metric, weights: Sequence[float]
) -> KernelAssignment:
    """Run Algorithm SLICING on the compiled arrays.

    *metric* must be one of the kernel-supported metric instances (its
    sharing family, ``kernel_share``, selects the ratio/deadline
    formulas, and is all this function reads of it); *weights* is the
    matching :func:`~repro.kernel.metrics.kernel_weights` array.
    Every tier slices through this scalar scan: at trial sizes the
    per-head candidate sets are too small for array ranking to win.
    """
    n = cw.n
    succ_lists = cw.succ_lists
    pred_ps = cw.pred_ps
    rank = cw.rank
    ids = cw.ids
    anc = cw.ancestor_masks()
    norm = metric.kernel_share == "norm"

    # Step 1: pin arrivals of input tasks and deadlines of output tasks.
    arr = [0.0] * n
    has_arr = bytearray(n)
    dl = [0.0] * n
    has_dl = bytearray(n)
    for i in cw.input_idx:
        arr[i] = cw.phasing[i]
        has_arr[i] = 1
    dl_mask = 0  # bitmask twin of has_dl — prunes the tails scan
    for i in cw.output_idx:
        bound = cw.out_deadline[i]
        if bound is None:
            raise DistributionError(
                f"output task {ids[i]!r} has no E-T-E deadline; the slicing "
                "technique needs a window for every output task"
            )
        dl[i] = bound
        has_dl[i] = 1
        dl_mask |= 1 << i

    active = bytearray(b"\x01" * n)
    n_left = n
    # Π in topological order, kept current by removing each path's
    # tasks (relative order is preserved, as the reference's filter).
    order_active: list[int] = list(cw.topo)
    # Π-restricted successor rows (the kernel twin of the reference's
    # succ_active).  Rows of removed tasks are never read, and step 13
    # removes each path task from its surviving predecessors' rows, so
    # the DP needs no per-edge activity check.  The initial rows are
    # the compiled tuples, copied into a list on first removal.
    succ_a: list[Sequence[int]] = list(succ_lists)

    win_a = [0.0] * n
    win_d = [0.0] * n
    chosen_paths: list[tuple[int, ...]] = []
    degenerate = False

    # Per-head memos (see repro.core.slicing for the invalidation rules;
    # dp_mask[h] is the reached set of head h's DP as a bitmask).  Each
    # DP is a dense triple of n-vectors — dist None-sentinelled, cnt and
    # par meaningful only inside the reached set.  A head with no
    # successor left in Π reaches only itself, with (w_h, 1, −1): its
    # DP points at ``weights`` and the read-only rows below, shared by
    # every such head, instead of building a triple.
    leaf_cnt = [1] * n
    leaf_par = [-1] * n
    dp_dist: list[Sequence[float | None] | None] = [None] * n
    dp_cnt: list[list[int] | None] = [None] * n
    dp_par: list[list[int] | None] = [None] * n
    dp_mask = [0] * n
    # live[h]: head h's valid heap entry, None when its DP reaches no
    # pinned tail, _UNSET when it must be (re)scored.
    live: list = [_UNSET] * n
    built_mask = 0  # heads holding a built DP

    # Incremental global selection.  Every head's current candidate
    # lives in a lazy-deletion min-heap keyed by the selection total
    # order — (R, −weight, −length, head-rank) — so a step reads the
    # winner off the top instead of rescanning every head.  The
    # reference breaks full ties by comparing path id-tuples
    # lexicographically; a path starts at its head, so across heads
    # that comparison is decided at position 0, and ``rank[h]`` alone
    # reproduces it.  Within one head only stale duplicates can tie
    # (entries are all numbers, so such ties compare harmlessly), and
    # identity against ``live`` tells the valid entry from the stale
    # ones, which are popped on contact.  An entry ends with its head
    # and tail, not its path: a valid entry refers to the DP it was
    # scored on, and its head's arrival and its tail's deadline are
    # unchanged (changing either resets ``live``), so the path and the
    # window are read once, on selection.  ``dirty`` lists heads whose
    # candidate must be (re)computed before the next selection.
    cand_heap: list = []
    dirty: list[int] = list(cw.input_idx)

    while n_left:
        # --- refresh the candidates of invalidated heads --------------
        for h in dirty:
            if not active[h] or not has_arr[h] or live[h] is not _UNSET:
                continue  # removed, not (yet) a head, or a duplicate
            dist = dp_dist[h]
            if dist is not None:
                cnt = dp_cnt[h]
                par = dp_par[h]
                mask = dp_mask[h]
            elif not succ_a[h]:
                dist = dp_dist[h] = weights
                cnt = dp_cnt[h] = leaf_cnt
                par = dp_par[h] = leaf_par
                mask = dp_mask[h] = 1 << h
                built_mask |= mask
            else:
                # Longest-Σw DP over the Π-restricted topological
                # suffix — relaxation order identical to the
                # reference (suffix order × successor-insertion
                # order), so every dist/cnt/par tie-break matches.
                dist = [None] * n
                cnt = [0] * n
                par = [0] * n
                dist[h] = weights[h]
                cnt[h] = 1
                par[h] = -1
                mask = 1 << h
                for i in order_active[order_active.index(h):]:
                    d_i = dist[i]
                    if d_i is None:
                        continue
                    n_i = cnt[i] + 1
                    for j in succ_a[i]:
                        cand = d_i + weights[j]
                        cur = dist[j]
                        if cur is None:
                            dist[j] = cand
                            cnt[j] = n_i
                            par[j] = i
                            mask |= 1 << j
                        elif cand > cur or (
                            cand == cur and n_i > cnt[j]
                        ):
                            dist[j] = cand
                            cnt[j] = n_i
                            par[j] = i
                dp_dist[h] = dist
                dp_cnt[h] = cnt
                dp_par[h] = par
                dp_mask[h] = mask
                built_mask |= 1 << h

            # Score this head's tails from the DP aggregates.  The
            # scan order is irrelevant (total-order selection), so
            # walking the reached-set bitmask is sound.  The leader
            # is tracked as scalars (l_tail < 0 = none yet).
            l_tail = -1
            l_r = l_w = 0.0
            l_len = 0
            leader_path: tuple[int, ...] | None = None
            a_h = arr[h]
            mbits = mask & dl_mask
            while mbits:
                low = mbits & -mbits
                mbits ^= low
                t = low.bit_length() - 1
                total_w = dist[t]
                window = dl[t] - a_h
                length = cnt[t]
                if norm:
                    if total_w <= 0.0:
                        raise MetricError(
                            "NORM requires positive execution times"
                        )
                    r = (window - total_w) / total_w
                else:
                    r = (window - total_w) / length
                if l_tail >= 0:
                    if r > l_r:
                        continue
                    if r == l_r:
                        if total_w < l_w:
                            continue
                        if total_w == l_w:
                            if length < l_len:
                                continue
                            if length == l_len:
                                if leader_path is None:
                                    leader_path = _reconstruct(
                                        par, l_tail
                                    )
                                path = _reconstruct(par, t)
                                if not _rank_lt(
                                    rank, path, leader_path
                                ):
                                    continue
                                l_r, l_w, l_len = r, total_w, length
                                l_tail = t
                                leader_path = path
                                continue
                l_r, l_w, l_len = r, total_w, length
                l_tail = t
                leader_path = None
            if l_tail < 0:
                live[h] = None
            else:
                entry = (l_r, -l_w, -l_len, rank[h], h, l_tail)
                live[h] = entry
                heappush(cand_heap, entry)
        dirty = []

        # --- pick the minimum-R critical path off the heap ------------
        while cand_heap:
            top = cand_heap[0]
            h = top[4]
            if live[h] is top:
                break
            heappop(cand_heap)
        else:
            # Unreachable for valid DAG workloads (see repro.core.slicing).
            raise DistributionError(
                f"no critical path found with {n_left} task(s) "
                "remaining; the task graph violates the slicing "
                "preconditions"
            )
        tail = top[5]
        path = _reconstruct(dp_par[h], tail)
        chosen_paths.append(path)
        a0 = arr[h]
        d_tail = dl[tail]

        # --- step 4: distribute the window over the path --------------
        window = d_tail - a0
        k_len = len(path)
        # Σ weights along the path: 0.0 + w_0 + w_1 + … accumulates the
        # same floats as the reference's sum() over the path.
        total_w = 0.0
        for i in path:
            total_w += weights[i]
        if k_len == 1:
            # Single-task path (the most common case): the boundary
            # chain collapses to [a0, max(a0, d_tail)] regardless of the
            # share (`boundaries[k] = end` overwrites the only interior
            # slot, then the forward pass restores monotonicity), and
            # the projection's ok-audit reduces to the three conditions
            # below — same outcomes as _project_boundaries, no lists.
            i0 = path[0]
            if norm:
                if total_w <= 0.0:
                    raise MetricError(
                        "NORM requires positive execution times"
                    )
                r = (window - total_w) / total_w
                s0 = weights[i0] * (1.0 + r)
            else:
                s0 = weights[i0] + (window - total_w) / k_len
            ok = not s0 < 0.0
            if window <= 0.0:
                ok = False
            else:
                t0 = s0 if s0 > 0.0 else 0.0
                if t0 > window and t0 > window * (1.0 + 1e-12):
                    ok = False
            if a0 > d_tail + 1e-9:
                ok = False
            degenerate = degenerate or not ok
            win_a[i0] = a0
            win_d[i0] = d_tail if d_tail >= a0 else a0
        else:
            if norm:
                if total_w <= 0.0:
                    raise MetricError(
                        "NORM requires positive execution times"
                    )
                r = (window - total_w) / total_w
                shares = [weights[i] * (1.0 + r) for i in path]
            else:
                share = (window - total_w) / k_len
                shares = [weights[i] + share for i in path]
            boundaries, ok = _project_boundaries(
                path, a0, d_tail, shares, arr, has_arr, dl, has_dl
            )
            degenerate = degenerate or not ok
            for pos, i in enumerate(path):
                win_a[i] = boundaries[pos]
                win_d[i] = boundaries[pos + 1]

        path_mask = 0
        path_anc = 0  # the path's full-graph ancestors, itself included
        for i in path:
            path_mask |= 1 << i
            path_anc |= anc[i]

        # --- steps 5–12: attach neighbours to the new spine -----------
        new_pin_mask = 0
        pin_anc = 0
        for i in path:
            d_abs = win_d[i]
            a_i = win_a[i]
            for j in succ_lists[i]:
                if active[j] and not (path_mask >> j) & 1:
                    if not has_arr[j] or d_abs > arr[j]:
                        arr[j] = d_abs
                        has_arr[j] = 1
                        live[j] = _UNSET
                        dirty.append(j)
            for p, _sz in pred_ps[i]:
                if active[p] and not (path_mask >> p) & 1:
                    if not has_dl[p] or a_i < dl[p]:
                        dl[p] = a_i
                        has_dl[p] = 1
                        dl_mask |= 1 << p
                        new_pin_mask |= 1 << p
                        pin_anc |= anc[p]
        # A head's DP reaches only its descendants, so only built heads
        # among the new pins' ancestors can have one in their tail set.
        mb = built_mask & pin_anc
        while mb:
            low = mb & -mb
            mb ^= low
            h = low.bit_length() - 1
            if dp_mask[h] & new_pin_mask:
                live[h] = _UNSET
                dirty.append(h)

        # --- step 13: remove the path from Π --------------------------
        for i in path:
            active[i] = 0
            has_arr[i] = 0
            has_dl[i] = 0
            order_active.remove(i)
        dl_mask &= ~path_mask
        n_left -= k_len
        # Each removed task leaves the rows of its surviving
        # predecessors (it is in each such row exactly once).  A row
        # still holding the compiled tuple is copied on first write.
        for i in path:
            for p, _sz in pred_ps[i]:
                if active[p]:
                    row = succ_a[p]
                    if row.__class__ is tuple:
                        row = succ_a[p] = list(row)
                    row.remove(i)
        # Same ancestor filter for the DPs that reached the path.
        mb = built_mask & path_anc
        while mb:
            low = mb & -mb
            mb ^= low
            h = low.bit_length() - 1
            reached = dp_mask[h]
            if not reached & path_mask:
                continue
            if active[h] and _keeps_dp(
                succ_lists, path, path_mask, reached, dp_par[h]
            ):
                dp_mask[h] = reached & ~path_mask
            else:
                dp_dist[h] = None
                dp_cnt[h] = None
                dp_par[h] = None
                dp_mask[h] = 0
                built_mask ^= low
            live[h] = _UNSET
            dirty.append(h)

    return KernelAssignment(win_a, win_d, chosen_paths, degenerate)


def _keeps_dp(
    succ_lists: list[tuple[int, ...]],
    path: tuple[int, ...],
    path_mask: int,
    reached: int,
    par: list[int],
) -> bool:
    """Whether removing *path* leaves a head's DP unchanged.

    Each reached node's parent is the first predecessor, in scan order,
    that attains its largest ``(dist, cnt)``.  A removed task that is
    no surviving reached node's parent takes no argmax with it, so by
    induction over the topological order every survivor keeps its
    ``dist``, ``cnt``, ``par`` and reachability; the DP stays exact once
    the path's bits leave its reached set.
    """
    survivors = reached & ~path_mask
    for i in path:
        if (reached >> i) & 1:
            for j in succ_lists[i]:
                if (survivors >> j) & 1 and par[j] == i:
                    return False
    return True


def _reconstruct(par: list[int], tail: int) -> tuple[int, ...]:
    path = [tail]
    node = par[tail]
    while node != -1:
        path.append(node)
        node = par[node]
    path.reverse()
    return tuple(path)


def _rank_lt(
    rank: list[int], a: tuple[int, ...], b: tuple[int, ...]
) -> bool:
    """Whether path *a* orders before *b* by task-id string comparison."""
    return [rank[i] for i in a] < [rank[i] for i in b]


def _project_boundaries(
    path: tuple[int, ...],
    start: Time,
    end: Time,
    shares: list[Time],
    arr: list[float],
    has_arr: bytearray,
    dl: list[float],
    has_dl: bytearray,
) -> tuple[list[Time], bool]:
    """Slice boundaries honouring interior pins — the array twin of
    :func:`repro.core.slicing._project_boundaries` (same expressions,
    same tolerances, same clamp order)."""
    k = len(path)
    ok = True

    window = end - start
    # `s if s > 0.0 else 0.0` ≡ max(0.0, s) for every float (including
    # signed zeros: max keeps its first argument when not less).
    clamped = [s if s > 0.0 else 0.0 for s in shares]
    if min(shares) < 0.0:
        ok = False
    total = sum(clamped)
    if window <= 0.0:
        clamped = [0.0] * k
        ok = False
    elif total > window:
        scale = window / total if total > 0.0 else 0.0
        clamped = [s * scale for s in clamped]
        if total > window * (1.0 + 1e-12):
            ok = False
    elif total < window:
        clamped[-1] += window - total

    boundaries = [start]
    acc = start
    for s in clamped:
        acc += s
        boundaries.append(acc)
    boundaries[k] = end

    for i in range(k - 1, 0, -1):
        cap = boundaries[i + 1]
        t = path[i - 1]
        if has_dl[t] and dl[t] < cap:
            cap = dl[t]
        if boundaries[i] > cap:
            boundaries[i] = cap

    for i in range(1, k + 1):
        floor = boundaries[i - 1]
        if i < k:
            t = path[i]
            if has_arr[t] and arr[t] > floor:
                floor = arr[t]
        if boundaries[i] < floor:
            boundaries[i] = floor

    if boundaries[k] > end + 1e-9:
        ok = False
    for i in range(1, k):
        t = path[i - 1]
        if has_dl[t] and boundaries[i] > dl[t] + 1e-9:
            ok = False
    return boundaries, ok
