"""Fiduccia–Mattheyses bisection refinement with float net weights.

Classic FM keeps one integer gain-bucket array per side; the placer's net
weights are real numbers (thermal net weights, Eq. 8 of the paper), so
this implementation keeps the move candidates in lazy-deletion binary
heaps instead.  Gains are maintained incrementally with the standard FM
critical-net update rules, so each move costs O(pins on critical nets),
not O(neighbourhood size).

Each pass moves vertices one at a time (always the best *legal* move
over both sides), locks them, and finally rolls back to the best prefix
seen — the FM schedule, with a balance window
``[target - tol, target + tol]`` on part 0's share of the free vertex
weight.

**Weight classes.**  Coarse graphs mix vertex weights, so whether a move
is legal depends on the vertex.  Each side's candidates are split over
up to :data:`WEIGHT_CLASSES` heaps by vertex weight: the distinct free
weights, sorted, are cut into quantile runs, and each class keeps its
lightest and heaviest weight.  Those two bound every move's effect on
the balance, so a class none of whose moves could be legal is skipped
whole, without touching its heap.  The heads of the other classes are
merged in the total order of the heap entries, and a class is not
scanned past a head already worse than the best legal head found, so
the move applied is exactly the one a single heap would give.  Inside a
reachable class, an entry that is still illegal is set aside and
re-queued after the next applied move.

**Early exit.**  Most tentative moves of a pass are rolled back, and
most of those come long after the best prefix.  A pass therefore stops
after :data:`EXIT_AFTER` consecutive moves that do not improve its best
prefix, as hMetis's FM does.  Only a pass whose best prefix would have
improved later than that ends differently; the random tie-break draw is
made at the start of every pass, so the generator stream is unchanged.

The move loop deliberately uses plain Python lists: the hypergraphs have
tiny nets, where list indexing beats NumPy scalar access several-fold,
and this loop dominates total placement runtime.  The *setup* of each
pass — per-net side counts, initial gains, the starting balance — is
different: it touches every pin exactly once, so on graphs above a small
size threshold it runs as array reductions over the hypergraph's flat
CSR pin structure (:meth:`Hypergraph.net_csr`); tiny coarsened graphs
keep the scalar path, where per-array overhead would dominate.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis import IntArray, contract
from repro.obs import get_recorder
from repro.partition.hypergraph import FREE, Hypergraph

#: A heap entry: ``(-gain, noise, vertex, stamp)``.  A total order (no
#: two entries share vertex and stamp), so the move sequence does not
#: depend on how the entries are spread over heaps.
Entry = Tuple[float, float, int, int]

#: Heaps per side: free vertices are grouped by weight into this many
#: classes (quantiles of the distinct free weights), so a move the
#: balance window forbids is skipped by class instead of popped.
WEIGHT_CLASSES = 4

#: A pass stops after this many consecutive tentative moves that do
#: not improve its best prefix (the classic FM early exit); the moves
#: after the best prefix are rolled back as before.
EXIT_AFTER = 200

#: Below this many total pins the scalar setup path is used: NumPy's
#: per-call overhead beats the loop only once there is real data.
VECTOR_MIN_PINS = 256


def _side_counts(graph: Hypergraph, side: IntArray
                 ) -> Tuple[IntArray, IntArray]:
    """Pins of each net on side 0 / side 1, via CSR reductions."""
    ptr, pins, pin_net = graph.net_csr()
    c1 = np.zeros(graph.num_nets, dtype=np.int64)
    np.add.at(c1, pin_net, side[pins])
    c0 = np.diff(ptr) - c1
    return c0, c1


def cut_cost(graph: Hypergraph,
             parts: Union[Sequence[int], IntArray]) -> float:
    """Weighted cut of a bisection: sum of weights of nets with pins on
    both sides."""
    total_pins = sum(len(p) for p in graph.nets)
    if total_pins >= VECTOR_MIN_PINS:
        side_arr = np.asarray(parts, dtype=np.int64)
        c0, c1 = _side_counts(graph, side_arr)
        w = np.asarray(graph.net_weights, dtype=np.float64)
        return float(w[(c0 > 0) & (c1 > 0)].sum())
    side = [int(p) for p in parts]
    total = 0.0
    for pins, w in zip(graph.nets, graph.net_weights):
        if not pins:
            continue
        first = side[pins[0]]
        for p in pins:
            if side[p] != first:
                total += w
                break
    return total


class FMRefiner:
    """One FM refinement engine bound to a hypergraph.

    Args:
        graph: the hypergraph to refine.
        target: desired fraction of *free* vertex weight in part 0.
        tolerance: allowed deviation of that fraction (absolute).
        rng: random generator for tie-breaking order.
    """

    def __init__(self, graph: Hypergraph, target: float = 0.5,
                 tolerance: float = 0.05,
                 rng: Optional[np.random.Generator] = None) -> None:
        if not 0.0 < target < 1.0:
            raise ValueError("target must be in (0, 1)")
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        self.graph = graph
        self.target = target
        self.tolerance = tolerance
        self.rng = rng if rng is not None else np.random.default_rng(0)
        free_w = graph.free_weight
        half = tolerance * free_w
        movable = graph.fixed == FREE
        # weight classes: the distinct free weights, sorted, cut into up
        # to WEIGHT_CLASSES quantile runs; a class's lightest and
        # heaviest weight bound its moves' balance shift.  (Most
        # refiners serve small coarse graphs, where a set beats
        # np.unique.)  Only free vertices' classes are read.
        distinct = sorted(set(graph.vertex_weights[movable].tolist()))
        k = min(WEIGHT_CLASSES, len(distinct))
        cuts = [c * len(distinct) // k for c in range(k + 1)] if k else []
        self._bounds: List[Tuple[float, float]] = [
            (distinct[a], distinct[b - 1]) for a, b in zip(cuts, cuts[1:])]
        self._cls: List[int] = np.searchsorted(
            np.array([distinct[a] for a in cuts[1:-1]], dtype=np.float64),
            graph.vertex_weights, side="right").tolist()
        # plain-list mirrors of the per-vertex arrays: the pass loop
        # indexes them millions of times, where list access beats NumPy
        # scalar access several-fold
        self._vw: List[float] = graph.vertex_weights.tolist()
        self._free: List[bool] = movable.tolist()
        # The window must leave room to move the heaviest free vertex out
        # of a perfectly balanced state, or FM deadlocks immediately.
        if distinct:
            half = max(half, distinct[-1])
        self.lo = target * free_w - half
        self.hi = target * free_w + half

    # ------------------------------------------------------------------
    @contract(shapes={"parts": ("v",)}, dtypes={"parts": np.integer})
    def refine(self, parts: IntArray, max_passes: int = 8) -> float:
        """Run FM passes in place until no pass improves the cut.

        Args:
            parts: 0/1 side of each vertex; modified in place.  Fixed
                vertices must already sit on their pinned side.
            max_passes: upper bound on passes.

        Returns:
            The final weighted cut cost.
        """
        g = self.graph
        for v in range(g.num_vertices):
            if g.fixed[v] != FREE and parts[v] != g.fixed[v]:
                raise ValueError(
                    f"vertex {v} is fixed to side {g.fixed[v]} "
                    f"but assigned to {parts[v]}")
        cost = cut_cost(g, parts)
        side = [int(p) for p in parts]
        rec = get_recorder()
        for _ in range(max_passes):
            improvement, kept_moves, rolled_back = self._pass(side)
            cost -= improvement
            if rec.enabled:
                rec.count("fm/passes")
                rec.count("fm/gain", improvement)
                rec.count("fm/kept_moves", float(kept_moves))
                rec.count("fm/rolled_back_moves", float(rolled_back))
            # A pass that kept moves without improving the cut was a
            # balance repair; give the next pass a chance to optimize
            # from the now-feasible state.
            if improvement <= 1e-15 and kept_moves == 0:
                break
        parts[:] = side
        return cost

    # ------------------------------------------------------------------
    def _pass(self, side: List[int]) -> Tuple[float, int, int]:
        """One FM pass over ``side`` (mutated in place).

        Returns:
            ``(improvement, kept_moves, rolled_back)`` — the cut
            improvement of the kept prefix (may be negative if the
            prefix was kept to repair an out-of-window balance), its
            length, and the number of tentative moves undone.
        """
        g = self.graph
        n = g.num_vertices
        nets = g.nets
        net_w = g.net_weights
        vnets = g.vertex_nets_all()
        vw = self._vw
        free = self._free
        num_classes = len(self._bounds)

        counts, gains, weight0 = self._pass_setup(side, free, vw)

        locked = [False] * n
        stamp = [0] * n
        noise = self.rng.random(n).tolist()
        # one heap per (side, weight class): an entry stays in the heap
        # it started the pass in, since a vertex is locked as soon as it
        # moves and its weight never changes
        heaps: List[List[Entry]] = [[] for _ in range(2 * num_classes)]
        home = [0] * n
        cls = self._cls
        for v in range(n):
            if free[v]:
                home[v] = h = side[v] * num_classes + cls[v]
                heaps[h].append((-gains[v], noise[v], v, 0))
        for h in heaps:
            heapq.heapify(h)
        classes = [(heaps[s * num_classes + c], s, cmin, cmax)
                   for s in (0, 1) for c, (cmin, cmax)
                   in enumerate(self._bounds)]
        heappop = heapq.heappop
        heappush = heapq.heappush

        moves: List[int] = []
        cum_gain = 0.0
        lo, hi = self.lo, self.hi

        # Best prefix: feasibility (smallest balance violation) first,
        # then cut gain — otherwise moves that only repair an
        # out-of-window start would always be rolled back.
        viol0 = lo - weight0 if weight0 < lo else (
            weight0 - hi if weight0 > hi else 0.0)
        best_key = (viol0, 0.0)
        best_gain = 0.0
        best_prefix = 0
        exit_after = EXIT_AFTER
        deferred: List[Entry] = []

        while True:
            # The move applied is the minimum-key legal entry over all
            # heaps.  A move is legal if it lands in the balance window,
            # or at least reduces an existing violation.  Rounding is
            # monotone, so a class's lightest and heaviest weights bound
            # every reachable ``new_w0`` of its moves: a class none of
            # whose moves can be legal is skipped without popping
            # anything, and a class whose head is already worse than the
            # best legal head found is not scanned further.
            item: Optional[Entry] = None
            item_heap: List[Entry] = []
            for h, s, cmin, cmax in classes:
                if not h or (item is not None and h[0] > item):
                    continue
                if s == 0:
                    n_lo, n_hi = weight0 - cmax, weight0 - cmin
                else:
                    n_lo, n_hi = weight0 + cmin, weight0 + cmax
                if not ((n_hi >= lo and n_lo <= hi)
                        or (weight0 < lo and n_hi > weight0)
                        or (weight0 > hi and n_lo < weight0)):
                    continue
                while h:
                    top = h[0]
                    if item is not None and top > item:
                        break
                    v = top[2]
                    if locked[v] or top[3] != stamp[v]:
                        heappop(h)
                        continue
                    new_w0 = weight0 - vw[v] if s == 0 else weight0 + vw[v]
                    if (lo <= new_w0 <= hi
                            or (weight0 < lo and new_w0 > weight0)
                            or (weight0 > hi and new_w0 < weight0)):
                        item = top
                        item_heap = h
                        break
                    # Set aside until the balance changes (the next
                    # applied move re-queues it).  Every pop consumes a
                    # heap entry, so the pass terminates.
                    deferred.append(heappop(h))
            if item is None:
                break
            neg_gain, _, v, _ = item
            frm = side[v]
            heappop(item_heap)
            # deferred entries were checked fresh and unlocked this step
            for it in deferred:
                heappush(heaps[home[it[2]]], it)
            deferred.clear()

            # ---- apply the move with FM critical-net gain updates ----
            to = 1 - frm
            delta: Dict[int, float] = {}
            dget = delta.get
            for e in vnets[v]:
                pins = nets[e]
                we = net_w[e]
                c = counts[e]
                t_before = c[to]
                if t_before == 0:
                    for u in pins:
                        if u != v and free[u] and not locked[u]:
                            delta[u] = dget(u, 0.0) + we
                elif t_before == 1:
                    for u in pins:
                        if side[u] == to:
                            if free[u] and not locked[u]:
                                delta[u] = dget(u, 0.0) - we
                            break
                c[frm] -= 1
                c[to] += 1
                f_after = c[frm]
                if f_after == 0:
                    for u in pins:
                        if u != v and free[u] and not locked[u]:
                            delta[u] = dget(u, 0.0) - we
                elif f_after == 1:
                    for u in pins:
                        if u != v and side[u] == frm:
                            if free[u] and not locked[u]:
                                delta[u] = dget(u, 0.0) + we
                            break
            side[v] = to
            weight0 = weight0 - vw[v] if frm == 0 else weight0 + vw[v]
            locked[v] = True
            moves.append(v)
            cum_gain += -neg_gain
            viol = lo - weight0 if weight0 < lo else (
                weight0 - hi if weight0 > hi else 0.0)
            if (viol < best_key[0] - 1e-15
                    or (abs(viol - best_key[0]) <= 1e-15
                        and -cum_gain < best_key[1] - 1e-15)):
                best_key = (viol, -cum_gain)
                best_gain = cum_gain
                best_prefix = len(moves)
            elif len(moves) - best_prefix >= exit_after:
                break

            for u, d in delta.items():
                if d:
                    gains[u] += d
                    stamp[u] += 1
                    heappush(heaps[home[u]],
                             (-gains[u], noise[u], u, stamp[u]))

        # roll back to the best prefix
        for v in moves[best_prefix:]:
            side[v] = 1 - side[v]
        return best_gain, best_prefix, len(moves) - best_prefix

    # ------------------------------------------------------------------
    def _pass_setup(self, side: List[int], free: List[bool],
                    vw: List[float]
                    ) -> Tuple[List[List[int]], List[float], float]:
        """Per-net side counts, initial FM gains, and part-0 weight.

        One touch per pin; vectorized over the CSR pin structure on
        graphs large enough for the array path to pay for itself.  The
        gain rules are the classic FM patterns: uncut nets penalize
        every pin by the net weight, critical nets (one pin alone on a
        side) reward that lone pin.
        """
        g = self.graph
        n = g.num_vertices
        nets = g.nets
        net_w = g.net_weights
        ptr, pins_arr, pin_net = g.net_csr()
        if len(pins_arr) >= VECTOR_MIN_PINS:
            side_arr = np.asarray(side, dtype=np.int64)
            c0, c1 = _side_counts(g, side_arr)
            w = np.asarray(net_w, dtype=np.float64)
            uncut = (c0 == 0) | (c1 == 0)
            gains_arr = np.zeros(n, dtype=np.float64)
            pin_w = w[pin_net]
            pin_side = side_arr[pins_arr]
            m_uncut = uncut[pin_net]
            np.add.at(gains_arr, pins_arr[m_uncut], -pin_w[m_uncut])
            crit = ~uncut
            m_c0 = (crit & (c0 == 1))[pin_net] & (pin_side == 0)
            m_c1 = (crit & (c1 == 1))[pin_net] & (pin_side == 1)
            np.add.at(gains_arr, pins_arr[m_c0], pin_w[m_c0])
            np.add.at(gains_arr, pins_arr[m_c1], pin_w[m_c1])
            counts = np.stack((c0, c1), axis=1).tolist()
            gains = gains_arr.tolist()
            free_arr = g.fixed == FREE
            weight0 = float(g.vertex_weights[
                free_arr & (side_arr == 0)].sum())
            return counts, gains, weight0

        counts_l: List[List[int]] = []
        for pins in nets:
            on1 = 0
            for p in pins:
                on1 += side[p]
            counts_l.append([len(pins) - on1, on1])
        gains_l = [0.0] * n
        for e, pins in enumerate(nets):
            we = net_w[e]
            n0, n1 = counts_l[e]
            if n0 == 0 or n1 == 0:
                for p in pins:
                    gains_l[p] -= we
            else:
                if n0 == 1:
                    for p in pins:
                        if side[p] == 0:
                            gains_l[p] += we
                            break
                if n1 == 1:
                    for p in pins:
                        if side[p] == 1:
                            gains_l[p] += we
                            break
        weight0 = 0.0
        for v in range(n):
            if free[v] and side[v] == 0:
                weight0 += vw[v]
        return counts_l, gains_l, weight0
