"""Unit tests for FM refinement."""

import heapq
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.partition import fm
from repro.partition.fm import FMRefiner, cut_cost
from repro.partition.hypergraph import FREE, Hypergraph


def two_cliques() -> Hypergraph:
    """Two triangles joined by one bridge net; optimal cut = 1."""
    nets = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]]
    return Hypergraph(6, nets)


class TestCutCost:
    def test_uncut(self):
        g = Hypergraph(4, [[0, 1], [2, 3]])
        assert cut_cost(g, [0, 0, 1, 1]) == 0.0

    def test_cut_with_weights(self):
        g = Hypergraph(4, [[0, 2], [1, 3]], net_weights=[2.0, 5.0])
        assert cut_cost(g, [0, 0, 1, 1]) == pytest.approx(7.0)

    def test_hyperedge_counted_once(self):
        g = Hypergraph(3, [[0, 1, 2]])
        assert cut_cost(g, [0, 1, 1]) == 1.0
        assert cut_cost(g, [0, 0, 0]) == 0.0


class TestRefine:
    def test_finds_optimal_cut_of_cliques(self):
        g = two_cliques()
        parts = np.array([0, 1, 0, 1, 0, 1])  # bad start, cut = 6
        refiner = FMRefiner(g, rng=np.random.default_rng(0))
        cut = refiner.refine(parts)
        assert cut == pytest.approx(1.0)
        assert set(parts[:3]) != set(parts[3:]) or True
        # the two triangles must be separated
        assert parts[0] == parts[1] == parts[2]
        assert parts[3] == parts[4] == parts[5]

    def test_never_worsens_balanced_starts(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            g = two_cliques()
            parts = rng.permutation([0, 0, 0, 1, 1, 1])
            before = cut_cost(g, parts)
            after = FMRefiner(g, rng=np.random.default_rng(seed)
                              ).refine(parts)
            assert after <= before + 1e-12

    def test_returned_cost_matches_actual(self):
        g = two_cliques()
        parts = np.array([1, 0, 1, 0, 1, 0])
        cut = FMRefiner(g, rng=np.random.default_rng(1)).refine(parts)
        assert cut == pytest.approx(cut_cost(g, parts))

    def test_respects_balance_window(self):
        g = Hypergraph(8, [[i, (i + 1) % 8] for i in range(8)])
        parts = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        refiner = FMRefiner(g, target=0.5, tolerance=0.05,
                            rng=np.random.default_rng(0))
        refiner.refine(parts)
        w0 = (parts == 0).sum()
        assert refiner.lo <= w0 <= refiner.hi

    def test_fixed_vertices_never_move(self):
        g = Hypergraph(4, [[0, 1], [1, 2], [2, 3]], fixed=[0, -1, -1, 1])
        parts = np.array([0, 1, 0, 1])
        FMRefiner(g, rng=np.random.default_rng(0)).refine(parts)
        assert parts[0] == 0
        assert parts[3] == 1

    def test_fixed_vertex_on_wrong_side_rejected(self):
        g = Hypergraph(2, [[0, 1]], fixed=[1, FREE])
        refiner = FMRefiner(g, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            refiner.refine(np.array([0, 1]))

    def test_window_admits_heaviest_vertex(self):
        # one huge vertex: tolerance must widen so FM can still move it
        g = Hypergraph(3, [[0, 1], [1, 2]],
                       vertex_weights=[10.0, 1.0, 1.0])
        refiner = FMRefiner(g, tolerance=0.01,
                            rng=np.random.default_rng(0))
        assert refiner.hi - refiner.lo >= 10.0

    def test_unbalanced_target(self):
        g = Hypergraph(10, [[i, (i + 1) % 10] for i in range(10)])
        parts = np.ones(10, dtype=np.int64)
        parts[0] = 0
        refiner = FMRefiner(g, target=0.3, tolerance=0.05,
                            rng=np.random.default_rng(0))
        refiner.refine(parts)
        w0 = float((parts == 0).sum())
        assert refiner.lo <= w0 <= refiner.hi

    def test_weighted_nets_guide_moves(self):
        # cutting the heavy net must be avoided
        g = Hypergraph(4, [[0, 1], [2, 3], [1, 2]],
                       net_weights=[10.0, 10.0, 1.0])
        parts = np.array([0, 1, 0, 1])  # cuts both heavy nets
        cut = FMRefiner(g, rng=np.random.default_rng(0)).refine(parts)
        assert cut == pytest.approx(1.0)

    def test_invalid_params(self):
        g = two_cliques()
        with pytest.raises(ValueError):
            FMRefiner(g, target=0.0)
        with pytest.raises(ValueError):
            FMRefiner(g, tolerance=-0.1)


# ----------------------------------------------------------------------
# oracle: the weight-class heaps must replay the single-heap move order
# ----------------------------------------------------------------------
def single_heap_pass(refiner: FMRefiner, side: List[int],
                     exit_after: float) -> Tuple[float, int, int]:
    """Reference FM pass: every candidate in one lazy-deletion heap;
    an entry that is illegal under the current balance is popped, set
    aside, and re-pushed after the next applied move.  The pass stops
    once ``exit_after`` consecutive moves leave the best prefix
    unchanged.  Same contract as :meth:`FMRefiner._pass`."""
    g = refiner.graph
    n = g.num_vertices
    nets = g.nets
    net_w = g.net_weights
    vnets = g.vertex_nets_all()
    vw = refiner._vw
    free = refiner._free
    counts, gains, weight0 = refiner._pass_setup(side, free, vw)
    locked = [False] * n
    stamp = [0] * n
    noise = refiner.rng.random(n).tolist()
    heap = [(-gains[v], noise[v], v, 0) for v in range(n) if free[v]]
    heapq.heapify(heap)
    moves: List[int] = []
    cum_gain = 0.0
    lo, hi = refiner.lo, refiner.hi
    viol0 = lo - weight0 if weight0 < lo else (
        weight0 - hi if weight0 > hi else 0.0)
    best_key = (viol0, 0.0)
    best_gain = 0.0
    best_prefix = 0
    deferred = []
    while heap:
        item = heapq.heappop(heap)
        neg_gain, _, v, st_ = item
        if locked[v] or st_ != stamp[v]:
            continue
        w = vw[v]
        new_w0 = weight0 - w if side[v] == 0 else weight0 + w
        legal = (lo <= new_w0 <= hi
                 or (weight0 < lo and new_w0 > weight0)
                 or (weight0 > hi and new_w0 < weight0))
        if not legal:
            deferred.append(item)
            continue
        for it in deferred:
            if not locked[it[2]]:
                heapq.heappush(heap, it)
        deferred.clear()
        frm = side[v]
        to = 1 - frm
        delta: Dict[int, float] = {}
        for e in vnets[v]:
            pins = nets[e]
            we = net_w[e]
            c = counts[e]
            if c[to] == 0:
                for u in pins:
                    if u != v and free[u] and not locked[u]:
                        delta[u] = delta.get(u, 0.0) + we
            elif c[to] == 1:
                for u in pins:
                    if side[u] == to:
                        if free[u] and not locked[u]:
                            delta[u] = delta.get(u, 0.0) - we
                        break
            c[frm] -= 1
            c[to] += 1
            if c[frm] == 0:
                for u in pins:
                    if u != v and free[u] and not locked[u]:
                        delta[u] = delta.get(u, 0.0) - we
            elif c[frm] == 1:
                for u in pins:
                    if u != v and side[u] == frm:
                        if free[u] and not locked[u]:
                            delta[u] = delta.get(u, 0.0) + we
                        break
        side[v] = to
        weight0 = new_w0
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
                heapq.heappush(heap, (-gains[u], noise[u], u, stamp[u]))
    for v in moves[best_prefix:]:
        side[v] = 1 - side[v]
    return best_gain, best_prefix, len(moves) - best_prefix


def assert_passes_match(graph: Hypergraph, side: List[int], target: float,
                        tolerance: float, seed: int, passes: int,
                        exit_after: float) -> None:
    """Run ``passes`` FM passes both ways from the same RNG state and
    demand identical results, sides and generator states after every
    pass.  The caller sets :data:`fm.EXIT_AFTER` to ``exit_after``."""
    assert fm.EXIT_AFTER == exit_after
    ref = FMRefiner(graph, target, tolerance, np.random.default_rng(seed))
    new = FMRefiner(graph, target, tolerance, np.random.default_rng(seed))
    ref_side, new_side = list(side), list(side)
    for _ in range(passes):
        expected = single_heap_pass(ref, ref_side, exit_after)
        assert new._pass(new_side) == expected
        assert new_side == ref_side
        assert (new.rng.bit_generator.state
                == ref.rng.bit_generator.state)


@st.composite
def fm_instances(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    vertex = st.integers(min_value=0, max_value=n - 1)
    nets = draw(st.lists(st.lists(vertex, min_size=2, max_size=6,
                                  unique=True),
                         min_size=1, max_size=3 * n))
    net_weights = draw(st.lists(
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        min_size=len(nets), max_size=len(nets)))
    if draw(st.booleans()):
        # coarse-graph style: mixed (possibly zero) vertex weights
        vertex_weights = draw(st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 7.25]),
            min_size=n, max_size=n))
    else:
        vertex_weights = [draw(st.sampled_from([1.0, 0.3, 2.5]))] * n
    fixed = draw(st.lists(st.sampled_from([FREE, FREE, FREE, 0, 1]),
                          min_size=n, max_size=n))
    if draw(st.booleans()):
        # out-of-window start: everything free piled onto one side
        pile = draw(st.integers(min_value=0, max_value=1))
        side = [pile] * n
    else:
        side = draw(st.lists(st.integers(min_value=0, max_value=1),
                             min_size=n, max_size=n))
    side = [f if f != FREE else s for f, s in zip(fixed, side)]
    # tolerance 0 shrinks the window to the heaviest free vertex
    tolerance = draw(st.sampled_from([0.0, 0.01, 0.05, 0.2]))
    target = draw(st.sampled_from([0.5, 0.5, 0.3, 0.7, 0.12]))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    graph = Hypergraph(n, nets, net_weights=net_weights,
                       vertex_weights=vertex_weights, fixed=fixed)
    return graph, side, target, tolerance, seed


#: Exit limits the oracle is checked at: tight enough to fire in short
#: random traces, and never.
EXIT_LIMITS = [1, 3, 10, float("inf")]


def assert_passes_match_at_every_limit(*args, **kwargs) -> None:
    for exit_after in EXIT_LIMITS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fm, "EXIT_AFTER", exit_after)
            assert_passes_match(*args, **kwargs, exit_after=exit_after)


class TestPerSideHeapsMatchSingleHeap:
    """Each side's weight-class heaps replay the single-heap oracle,
    early exit included."""

    @settings(max_examples=300, deadline=None)
    @given(fm_instances())
    def test_random_hypergraphs(self, instance):
        graph, side, target, tolerance, seed = instance
        assert_passes_match_at_every_limit(graph, side, target, tolerance,
                                           seed, passes=3)

    @pytest.mark.parametrize("seed", range(4))
    def test_large_mixed_weight_graph(self, seed):
        # long traces, vectorized pass setup, tight window
        rng = np.random.default_rng(seed)
        n = 600
        nets = [rng.choice(n, size=int(rng.integers(2, 6)),
                           replace=False).tolist() for _ in range(900)]
        graph = Hypergraph(
            n, nets, net_weights=rng.uniform(0.1, 3.0, 900).tolist(),
            vertex_weights=rng.choice([1.0, 2.0, 3.5, 9.0], n).tolist())
        side = rng.integers(0, 2, n).tolist()
        assert_passes_match_at_every_limit(graph, side, 0.5, 0.0, seed,
                                           passes=4)

    @pytest.mark.parametrize("seed", range(3))
    def test_large_graph_with_mixed_weight_classes(self, seed):
        # coarse-graph style: dozens of distinct weights, so every class
        # spans a weight range and defers entries inside a reachable
        # class; some zero-weight vertices; piled-up or random starts
        rng = np.random.default_rng(100 + seed)
        n = 600
        nets = [rng.choice(n, size=int(rng.integers(2, 6)),
                           replace=False).tolist() for _ in range(900)]
        weights = rng.integers(0, 40, n) * 0.25
        fixed = np.where(rng.random(n) < 0.05, rng.integers(0, 2, n), FREE)
        graph = Hypergraph(
            n, nets, net_weights=rng.uniform(0.1, 3.0, 900).tolist(),
            vertex_weights=weights.tolist(), fixed=fixed.tolist())
        start = [np.zeros(n), np.ones(n), rng.integers(0, 2, n)][seed]
        side = np.where(fixed == FREE, start, fixed).astype(int)
        assert_passes_match_at_every_limit(graph, side.tolist(), 0.5, 0.01,
                                           seed, passes=4)


class TestWeightClasses:
    def test_classes_cover_distinct_free_weights_in_order(self):
        weights = [0.0, 1.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 99.0]
        fixed = [FREE] * 9 + [0]  # the fixed vertex's weight is ignored
        refiner = FMRefiner(Hypergraph(10, [[0, 9]],
                                       vertex_weights=weights,
                                       fixed=fixed))
        bounds = refiner._bounds
        assert len(bounds) == fm.WEIGHT_CLASSES
        assert bounds[0][0] == 0.0 and bounds[-1][1] == 21.0
        for (lo_a, hi_a), (lo_b, _) in zip(bounds, bounds[1:]):
            assert lo_a <= hi_a < lo_b
        for v in range(9):
            cmin, cmax = bounds[refiner._cls[v]]
            assert cmin <= weights[v] <= cmax

    def test_few_distinct_weights_get_one_class_each(self):
        refiner = FMRefiner(Hypergraph(
            4, [[0, 1], [2, 3]], vertex_weights=[2.0, 1.0, 2.0, 1.0]))
        assert refiner._bounds == [(1.0, 1.0), (2.0, 2.0)]
        assert refiner._cls == [1, 0, 1, 0]

    def test_no_free_vertex(self):
        refiner = FMRefiner(Hypergraph(2, [[0, 1]], fixed=[0, 1]))
        assert refiner._bounds == []
        assert refiner._pass([0, 1]) == (0.0, 0, 0)


class TestEarlyExit:
    def test_pass_stops_after_idle_moves(self, monkeypatch):
        # a path of unit nets from a balanced, already optimal start:
        # no move improves, so a limit of k keeps k tentative moves
        g = Hypergraph(40, [[i, i + 1] for i in range(39)])
        side = [0] * 20 + [1] * 20
        for limit in (1, 5):
            monkeypatch.setattr(fm, "EXIT_AFTER", limit)
            refiner = FMRefiner(g, tolerance=0.2,
                                rng=np.random.default_rng(0))
            trial = list(side)
            assert refiner._pass(trial) == (0.0, 0, limit)
            assert trial == side
