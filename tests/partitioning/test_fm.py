"""Tests for the FM refinement pass and cut computation."""

import heapq
import random
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partitioning.fm import (
    _fm_pass,
    _gain,
    _initial_gains,
    _net_counts,
    bisection_cut,
    fm_refine,
)
from repro.partitioning.hypergraph import Hypergraph


def two_cliques(k=4, bridge_weight=0.1):
    """Two k-vertex groups, heavy internal nets, one light bridge net."""
    n = 2 * k
    nets = [tuple(range(k)), tuple(range(k, n)), (k - 1, k)]
    weights = [10.0, 10.0, bridge_weight]
    return Hypergraph(n, [1.0] * n, nets, weights)


class TestCut:
    def test_uncut_partition_costs_zero(self):
        h = two_cliques()
        side = [0] * 4 + [1] * 4
        assert bisection_cut(h, side) == pytest.approx(0.1)

    def test_fully_mixed_cuts_everything(self):
        h = two_cliques()
        side = [0, 1] * 4
        assert bisection_cut(h, side) == pytest.approx(20.1)

    def test_all_on_one_side_cuts_nothing(self):
        h = two_cliques()
        assert bisection_cut(h, [0] * 8) == 0.0


class TestRefinement:
    def test_repairs_a_bad_bisection(self):
        h = two_cliques()
        # swap one vertex across: both heavy nets become cut
        side = [0, 0, 0, 1, 0, 1, 1, 1]
        refined = fm_refine(h, side, target0=4.0, tolerance=1.0)
        assert bisection_cut(h, refined) == pytest.approx(0.1)

    def test_respects_balance(self):
        h = two_cliques()
        side = [0, 0, 0, 1, 0, 1, 1, 1]
        refined = fm_refine(h, side, target0=4.0, tolerance=1.0)
        w0 = sum(1 for s in refined if s == 0)
        assert 3 <= w0 <= 5

    def test_never_worsens_cut(self):
        rng = random.Random(4)
        for trial in range(10):
            n = 12
            nets = []
            for _ in range(20):
                size = rng.randint(2, 4)
                nets.append(tuple(rng.sample(range(n), size)))
            h = Hypergraph(n, [1.0] * n, nets, [1.0] * 20)
            side = [rng.randint(0, 1) for _ in range(n)]
            before = bisection_cut(h, side)
            refined = fm_refine(h, side, target0=n / 2, tolerance=2.0)
            assert bisection_cut(h, refined) <= before + 1e-9

    def test_repairs_infeasible_balance(self):
        """All vertices on one side: FM must move some across."""
        h = two_cliques()
        refined = fm_refine(h, [0] * 8, target0=4.0, tolerance=1.0)
        w0 = sum(1 for s in refined if s == 0)
        assert w0 < 8

    def test_weighted_vertices_balanced_by_weight(self):
        h = Hypergraph(4, [3.0, 1.0, 1.0, 1.0], [(0, 1), (2, 3)], [1.0, 1.0])
        refined = fm_refine(h, [0, 0, 1, 1], target0=3.0, tolerance=0.5)
        w0 = sum(h.vwgt[v] for v in range(4) if refined[v] == 0)
        assert abs(w0 - 3.0) <= 1.0


# ---------------------------------------------------------------------------
# Reference pass: the FM pass as it was before inadmissible moves were
# parked by (side, vertex weight).  Every entry popped while inadmissible
# is deferred and pushed back after each move.  ``_fm_pass`` must pick
# the same moves and return exactly the same result.
# ---------------------------------------------------------------------------


def reference_fm_pass(
    h: Hypergraph, side: List[int], target0: float, tolerance: float
) -> Tuple[bool, List[int]]:
    c0, c1 = _net_counts(h, side)
    w0 = sum(h.vwgt[v] for v in range(h.n) if side[v] == 0)
    locked = [False] * h.n
    version = [0] * h.n

    # (-gain, v, version); build + heapify pops in the same order as
    # sequential pushes (keys are distinct per vertex)
    heap: List[Tuple[float, int, int]] = [
        (-_gain(h, side, c0, c1, v), v, 0) for v in range(h.n)
    ]
    heapq.heapify(heap)

    moves: List[int] = []
    cum = 0.0

    def feasible(weight0: float) -> bool:
        return abs(weight0 - target0) <= tolerance

    # Best prefix is chosen by (feasibility, cumulative gain): a pass
    # starting from an unbalanced assignment must keep the moves that
    # restore balance even when their cut gain is negative.
    start_key = (feasible(w0), 0.0)
    best_key = start_key
    best_len = 0

    def admissible(v: int) -> bool:
        delta = -h.vwgt[v] if side[v] == 0 else h.vwgt[v]
        new_w0 = w0 + delta
        if abs(new_w0 - target0) <= tolerance:
            return True
        return abs(new_w0 - target0) < abs(w0 - target0)

    deferred: List[Tuple[float, int, int]] = []
    while heap or deferred:
        if not heap:
            # Everything left was inadmissible; no further moves possible.
            break
        neg_g, v, ver = heapq.heappop(heap)
        if locked[v] or version[v] != ver:
            continue
        if not admissible(v):
            deferred.append((neg_g, v, ver))
            # If nothing admissible remains on the heap we will exit via
            # the empty-heap check; otherwise keep popping.
            continue
        # apply the move
        g = -neg_g
        s = side[v]
        side[v] = 1 - s
        w0 += -h.vwgt[v] if s == 0 else h.vwgt[v]
        locked[v] = True
        # Update per-net side counts and collect the vertices whose gain
        # can actually have changed (classic FM threshold rules: a net's
        # contribution to a pin's gain only flips when its side counts
        # cross the 0/1/2 boundaries).  Gains are recomputed *fresh* for
        # those vertices, so the pushed values are bit-identical to a
        # recompute-everything pass; vertices outside the set keep their
        # live heap entry, whose key equals what a fresh push would
        # carry, preserving the pop order exactly.
        affected = set()
        for e in h.pins_of[v]:
            if s == 0:
                F, T = c0[e], c1[e]  # counts before the move
                c0[e] -= 1
                c1[e] += 1
            else:
                F, T = c1[e], c0[e]
                c1[e] -= 1
                c0[e] += 1
            pins = h.nets[e]
            if T == 0 or F == 1:
                # net enters/leaves the cut: every free pin is affected
                for u in pins:
                    if not locked[u]:
                        affected.add(u)
            else:
                if F == 2:
                    # the one remaining pin on v's old side could now
                    # uncut the net by following
                    for u in pins:
                        if side[u] == s and not locked[u]:
                            affected.add(u)
                if T == 1:
                    # the previously lone pin on the other side no
                    # longer uncuts the net by moving
                    for u in pins:
                        if side[u] != s and not locked[u]:
                            affected.add(u)
        cum += g
        moves.append(v)
        key = (feasible(w0), cum)
        if key > (best_key[0], best_key[1] + 1e-12):
            best_key = key
            best_len = len(moves)
        for u in affected:
            version[u] += 1
            heapq.heappush(
                heap, (-_gain(h, side, c0, c1, u), u, version[u])
            )
        # previously deferred vertices may have become admissible
        if deferred:
            for item in deferred:
                heapq.heappush(heap, item)
            deferred.clear()

    # roll back to the best prefix
    for v in moves[best_len:]:
        side[v] = 1 - side[v]
    improved = best_key[0] > start_key[0] or best_key[1] > 1e-12
    return improved, side


def reference_fm_refine(h, side, target0, tolerance, max_passes=8):
    side = list(side)
    for _ in range(max_passes):
        improved, side = reference_fm_pass(h, side, target0, tolerance)
        if not improved:
            break
    return side


@st.composite
def vertex_weights(draw, n):
    """Weights of one of five kinds: uniform, a few classes, all
    distinct, extreme magnitudes, or with zeros."""
    positive = st.floats(0.05, 50.0, allow_nan=False, allow_infinity=False)
    extreme = st.builds(
        lambda m, e: m * 10.0 ** e,
        st.floats(1.0, 9.99),
        st.integers(-300, 17),
    )
    kind = draw(
        st.sampled_from(["uniform", "classes", "distinct", "extreme", "zeros"])
    )
    if kind == "uniform":
        return [draw(positive)] * n
    if kind == "classes":
        classes = draw(st.lists(positive, min_size=2, max_size=4))
        return draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))
    if kind == "distinct":
        return draw(st.lists(positive, min_size=n, max_size=n, unique=True))
    if kind == "extreme":
        return draw(st.lists(extreme, min_size=n, max_size=n))
    return draw(
        st.lists(
            st.one_of(st.just(0.0), positive), min_size=n, max_size=n
        )
    )


@st.composite
def fm_instance(draw):
    """(hypergraph, side, target0, tolerance) for one FM call."""
    n = draw(st.integers(1, 24))
    vwgt = draw(vertex_weights(n))
    n_nets = draw(st.integers(0, 30))
    nets = [
        tuple(draw(st.lists(st.integers(0, n - 1), min_size=1,
                            max_size=min(5, n), unique=True)))
        for _ in range(n_nets)
    ]
    nwgt = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0.1, 0.3, 1.0]),
                st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False),
            ),
            min_size=n_nets,
            max_size=n_nets,
        )
    )
    h = Hypergraph(n, vwgt, nets, nwgt)
    # all on one side is an infeasible start for any balanced target
    side = draw(
        st.one_of(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.sampled_from([[0] * n, [1] * n]),
        )
    )
    total = h.total_vertex_weight
    target0 = draw(st.sampled_from([0.5, 1 / 3, 0.75])) * total
    tolerance = draw(
        st.sampled_from(
            [0.0, 0.01 * total, max(vwgt) * 0.5 + 1e-12, 0.25 * total]
        )
    )
    return h, side, target0, tolerance


class TestMatchesReference:
    @given(fm_instance())
    @settings(max_examples=100, deadline=None)
    def test_initial_gains_are_bit_identical_to_gain(self, instance):
        h, side, _, _ = instance
        c0, c1 = _net_counts(h, side)
        assert _initial_gains(h, side, c0, c1) == [
            _gain(h, side, c0, c1, v) for v in range(h.n)
        ]

    @given(fm_instance())
    @settings(max_examples=300, deadline=None)
    def test_pass_matches_reference(self, instance):
        h, side, target0, tolerance = instance
        assert _fm_pass(h, list(side), target0, tolerance) == (
            reference_fm_pass(h, list(side), target0, tolerance)
        )

    @given(fm_instance())
    @settings(max_examples=150, deadline=None)
    def test_refine_matches_reference(self, instance):
        h, side, target0, tolerance = instance
        assert fm_refine(h, side, target0, tolerance) == (
            reference_fm_refine(h, side, target0, tolerance)
        )
