"""Fiduccia–Mattheyses bisection refinement.

Classic single-vertex-move refinement with per-pass rollback: vertices
move one at a time (each at most once per pass) in best-gain-first order
subject to a balance constraint; at the end of the pass the prefix with
the best cumulative gain is kept.  Gains are maintained incrementally
from per-net side counts.  A move that is inadmissible at the current
balance waits in a heap for its (side, vertex weight) class, so no entry
is re-examined after every move.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.partitioning.hypergraph import Hypergraph


def bisection_cut(h: Hypergraph, side: Sequence[int]) -> float:
    """Total weight of nets spanning both sides."""
    cut = 0.0
    for e, pins in enumerate(h.nets):
        s0 = side[pins[0]]
        if any(side[v] != s0 for v in pins[1:]):
            cut += h.nwgt[e]
    return cut


def _net_counts(h: Hypergraph, side: Sequence[int]) -> Tuple[List[int], List[int]]:
    c0 = [0] * h.n_nets
    c1 = [0] * h.n_nets
    for e, pins in enumerate(h.nets):
        for v in pins:
            if side[v] == 0:
                c0[e] += 1
            else:
                c1[e] += 1
    return c0, c1


def _gain(h: Hypergraph, side: Sequence[int], c0, c1, v: int) -> float:
    """Cut reduction if ``v`` moves to the other side."""
    g = 0.0
    s = side[v]
    for e in h.pins_of[v]:
        here = c0[e] if s == 0 else c1[e]
        there = c1[e] if s == 0 else c0[e]
        if here == 1:
            g += h.nwgt[e]  # net becomes uncut
        if there == 0:
            g -= h.nwgt[e]  # net becomes cut
    return g


def fm_refine(
    h: Hypergraph,
    side: List[int],
    target0: float,
    tolerance: float,
    max_passes: int = 8,
) -> List[int]:
    """Refine ``side`` in place-ish; returns the refined assignment.

    ``target0`` is the desired total vertex weight of side 0 and
    ``tolerance`` the allowed absolute deviation (hMETIS's UBfactor
    translated to weight units).  A move is admissible if it keeps side 0
    within ``target0 ± tolerance`` **or** strictly reduces the imbalance —
    so an infeasible initial assignment is repaired rather than frozen.
    """
    side = list(side)
    for _ in range(max_passes):
        improved, side = _fm_pass(h, side, target0, tolerance)
        if not improved:
            break
    return side


def _initial_gains(h: Hypergraph, side: Sequence[int], c0, c1) -> List[float]:
    """``_gain`` of every vertex, from one sweep over the nets.

    Nets are visited in ascending order, which is the ``pins_of`` order
    ``_gain`` sums in, and each net applies the same two conditional
    terms to its pins, so every value is bit-identical to ``_gain``
    even for fractional net weights.  A net with at least two pins on
    each side changes no gain and is skipped.
    """
    gains = [0.0] * h.n
    for e, pins in enumerate(h.nets):
        n0, n1 = c0[e], c1[e]
        if n0 >= 2 and n1 >= 2:
            continue
        w = h.nwgt[e]
        for u in pins:
            here, there = (n0, n1) if side[u] == 0 else (n1, n0)
            if here == 1:
                gains[u] += w  # net becomes uncut
            if there == 0:
                gains[u] -= w  # net becomes cut
    return gains


def _fm_pass(
    h: Hypergraph, side: List[int], target0: float, tolerance: float
) -> Tuple[bool, List[int]]:
    heappop, heappush = heapq.heappop, heapq.heappush
    vwgt = h.vwgt
    c0, c1 = _net_counts(h, side)
    w0 = sum(vwgt[v] for v in range(h.n) if side[v] == 0)
    locked = [False] * h.n
    version = [0] * h.n

    # (-gain, v, version); build + heapify pops in the same order as
    # sequential pushes (keys are distinct per vertex)
    heap: List[Tuple[float, int, int]] = [
        (-g, v, 0) for v, g in enumerate(_initial_gains(h, side, c0, c1))
    ]
    heapq.heapify(heap)
    # Live entries found inadmissible, parked by (side, vertex weight):
    # admissibility depends on nothing else but w0, so a class is
    # admissible or not as a whole and its entries never go back on
    # ``heap``.  An entry goes stale in place when its vertex moves or
    # gets a fresh gain, and is dropped when it reaches its class's top.
    parked: Dict[Tuple[int, float], List[Tuple[float, int, int]]] = {}

    moves: List[int] = []
    cum = 0.0
    imbalance = abs(w0 - target0)

    # Best prefix is chosen by (feasibility, cumulative gain): a pass
    # starting from an unbalanced assignment must keep the moves that
    # restore balance even when their cut gain is negative.
    start_key = (imbalance <= tolerance, 0.0)
    best_key = start_key
    best_len = 0

    while True:
        # A move is admissible if it keeps side 0 within tolerance or
        # strictly reduces the imbalance.  The move made is the least
        # (-gain, v) over unlocked admissible vertices: the least live
        # top of the admissible parked classes, unless the heap holds a
        # smaller live admissible entry.
        best: Optional[Tuple[float, int, int]] = None
        best_class: Optional[Tuple[int, float]] = None
        for cls in list(parked):
            ph = parked[cls]
            while ph and (locked[ph[0][1]] or version[ph[0][1]] != ph[0][2]):
                heappop(ph)
            if not ph:
                del parked[cls]
                continue
            s, wt = cls
            d = abs((w0 - wt if s == 0 else w0 + wt) - target0)
            if (d <= tolerance or d < imbalance) and (
                best is None or ph[0] < best
            ):
                best, best_class = ph[0], cls
        chosen: Optional[Tuple[float, int, int]] = None
        while heap and (best is None or heap[0] < best):
            item = heappop(heap)
            u = item[1]
            if locked[u] or version[u] != item[2]:
                continue
            s, wt = side[u], vwgt[u]
            d = abs((w0 - wt if s == 0 else w0 + wt) - target0)
            if d <= tolerance or d < imbalance:
                chosen = item
                break
            heappush(parked.setdefault((s, wt), []), item)
        if chosen is None:
            if best_class is None:
                break
            chosen = heappop(parked[best_class])
        neg_g, v, _ = chosen
        # apply the move
        g = -neg_g
        s = side[v]
        side[v] = 1 - s
        w0 += -vwgt[v] if s == 0 else vwgt[v]
        locked[v] = True
        imbalance = abs(w0 - target0)
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
        key = (imbalance <= tolerance, cum)
        if key > (best_key[0], best_key[1] + 1e-12):
            best_key = key
            best_len = len(moves)
        for u in affected:
            version[u] += 1
            heappush(
                heap, (-_gain(h, side, c0, c1, u), u, version[u])
            )

    # roll back to the best prefix
    for v in moves[best_len:]:
        side[v] = 1 - side[v]
    improved = best_key[0] > start_key[0] or best_key[1] > 1e-12
    return improved, side
