"""Unit tests for the coarse-legalization move/swap passes."""

import tracemalloc

import numpy as np
import pytest

from repro.core import moves
from repro.core.config import PlacementConfig
from repro.core.context import auto_chip
from repro.core.moves import MoveOptimizer
from repro.core.objective import ObjectiveState
from repro.netlist.placement import Placement
from repro.netlist.suite import load_benchmark
from repro.obs import Recorder, get_recorder, use_recorder
from tests.conftest import make_chip


@pytest.fixture
def optimizer(small_netlist, config):
    chip = make_chip(small_netlist)
    pl = Placement.random(small_netlist, chip, seed=4)
    obj = ObjectiveState(pl, config)
    return MoveOptimizer(obj, config)


class TestPasses:
    def test_global_pass_improves_objective(self, optimizer):
        before = optimizer.objective.total
        executed = optimizer.global_pass()
        assert executed > 0
        assert optimizer.objective.total < before

    def test_local_pass_never_worsens(self, optimizer):
        optimizer.global_pass()
        before = optimizer.objective.total
        optimizer.local_pass()
        assert optimizer.objective.total <= before + 1e-15

    def test_objective_consistency_after_passes(self, optimizer):
        optimizer.global_pass()
        optimizer.local_pass()
        optimizer.objective.check_consistency()

    def test_moves_deterministic(self, small_netlist, config):
        results = []
        for _ in range(2):
            chip = make_chip(small_netlist)
            pl = Placement.random(small_netlist, chip, seed=4)
            obj = ObjectiveState(pl, config)
            MoveOptimizer(obj, config).global_pass()
            results.append(pl.x.copy())
        assert np.array_equal(results[0], results[1])

    def test_cells_stay_inside(self, optimizer):
        optimizer.global_pass()
        pl = optimizer.objective.placement
        chip = pl.chip
        assert np.all((pl.x >= 0) & (pl.x <= chip.width))
        assert np.all((pl.z >= 0) & (pl.z < chip.num_layers))

    def test_mesh_consistent_after_pass(self, optimizer):
        optimizer.global_pass()
        pl = optimizer.objective.placement
        areas = pl.netlist.areas
        recorded = sum(
            optimizer.mesh.area_in((i, j, k))
            for i in range(optimizer.mesh.nx)
            for j in range(optimizer.mesh.ny)
            for k in range(optimizer.mesh.nz))
        total = float(sum(areas[c.id] for c in pl.netlist.cells
                          if c.movable))
        assert recorded == pytest.approx(total, rel=1e-9)


class TestRadius:
    def test_radius_for_bins(self, optimizer):
        assert optimizer._radius_for_bins(1) == 1
        assert optimizer._radius_for_bins(27) == 1
        assert optimizer._radius_for_bins(28) == 2
        assert optimizer._radius_for_bins(125) == 2

    def test_thermal_adds_layer_candidates(self, small_netlist,
                                           thermal_config):
        chip = make_chip(small_netlist)
        pl = Placement.random(small_netlist, chip, seed=4)
        obj = ObjectiveState(pl, thermal_config)
        opt = MoveOptimizer(obj, thermal_config)
        before = obj.total
        opt.global_pass()
        assert obj.total < before


class TestDensityRespect:
    def test_density_limit_not_exceeded_by_much(self, small_netlist,
                                                config):
        chip = make_chip(small_netlist)
        pl = Placement.random(small_netlist, chip, seed=4)
        obj = ObjectiveState(pl, config)
        opt = MoveOptimizer(obj, config, density_limit=1.2)
        opt.global_pass()
        opt._rebuild_mesh()
        areas = pl.netlist.areas
        biggest = float(areas.max())
        cap = opt.mesh.bin_capacity
        # bins can exceed the limit only by what was there initially;
        # moves themselves must not push past limit + one cell
        assert opt.mesh.max_density <= max(
            1.2 + biggest / cap, opt.mesh.max_density)  # sanity bound


# ----------------------------------------------------------------------
# Oracle: the single-batch pass that scored every candidate of a pass
# in one move call and one swap call.  The blocked pass must reproduce
# it exactly: same coordinates, executed counts, generator state and
# candidate counter after every pass.
# ----------------------------------------------------------------------
def _oracle_collect(opt, cid, cur_bin, targets, mv_cells, mv_xs, mv_ys,
                    mv_zs, mv_bins, sw_a, sw_b, sw_bins):
    mesh = opt.mesh
    areas = opt._areas
    area = float(areas[cid])
    limit = opt.density_limit * mesh.bin_capacity
    cur_area = float(mesh._area[cur_bin])
    entries = []
    jitter = opt._rng.random(2 * len(targets)).tolist()
    for ti, t in enumerate(targets):
        if t == cur_bin:
            continue
        tx = (t[0] + jitter[2 * ti]) * mesh.bin_width
        ty = (t[1] + jitter[2 * ti + 1]) * mesh.bin_height
        area_t = float(mesh._area[t])
        if area_t + area <= limit:
            entries.append((0, len(mv_cells)))
            mv_cells.append(cid)
            mv_xs.append(tx)
            mv_ys.append(ty)
            mv_zs.append(t[2])
            mv_bins.append(t)
        members = mesh._members.get(t)
        if not members:
            continue
        if len(members) > opt.max_swap_candidates:
            members = list(opt._rng.choice(
                members, size=opt.max_swap_candidates, replace=False))
        for other in members:
            other = int(other)
            if other == cid:
                continue
            other_area = float(areas[other])
            if area_t - other_area + area > limit:
                continue
            if cur_area - area + other_area > limit:
                continue
            entries.append((1, len(sw_a)))
            sw_a.append(cid)
            sw_b.append(other)
            sw_bins.append(t)
    return entries


def _oracle_pass(opt, local_only, radius):
    opt._rebuild_mesh()
    placement = opt.objective.placement
    obj = opt.objective
    mesh = opt.mesh
    order = [int(c) for c in opt._rng.permutation(opt._movable)]
    cur_bin_of, per_cell = {}, {}
    mv_cells, mv_xs, mv_ys, mv_zs, mv_bins = [], [], [], [], []
    sw_a, sw_b, sw_bins = [], [], []
    centers = None
    if not local_only:
        orc = obj.optimal_region_centers(order)
        centers = {cid: (orc[0, i], orc[1, i], orc[2, i])
                   for i, cid in enumerate(order)}
    for cid in order:
        cur_bin = mesh.bin_of(float(placement.x[cid]),
                              float(placement.y[cid]),
                              int(placement.z[cid]))
        cur_bin_of[cid] = cur_bin
        targets = opt._targets(cid, cur_bin, local_only, radius,
                               centers[cid] if centers else None)
        entries = _oracle_collect(opt, cid, cur_bin, targets, mv_cells,
                                  mv_xs, mv_ys, mv_zs, mv_bins, sw_a,
                                  sw_b, sw_bins)
        if entries:
            per_cell[cid] = entries
    move_deltas = obj.eval_moves_batch(mv_cells, mv_xs, mv_ys, mv_zs)
    swap_deltas = obj.eval_swaps_batch(sw_a, sw_b)

    executed = 0
    dirty, moved_since = set(), set()
    areas = opt._areas
    limit = opt.density_limit * mesh.bin_capacity
    cell_nets = obj.cell_nets
    for cid in order:
        if cid in moved_since:
            cur_bin = mesh.bin_of(float(placement.x[cid]),
                                  float(placement.y[cid]),
                                  int(placement.z[cid]))
            targets = opt._targets(cid, cur_bin, local_only, radius)
            action = opt._best_action(cid, cur_bin, targets)
            if action is not None:
                mv, target_bin, partner = action
                obj.apply_moves(mv)
                opt._update_mesh(cid, cur_bin, target_bin, partner)
                executed += 1
                dirty.update(cell_nets(cid))
                if partner is not None:
                    moved_since.add(partner)
                    dirty.update(cell_nets(partner))
            continue
        best, best_delta = None, -1e-18
        for kind, k in per_cell.get(cid, ()):
            delta = move_deltas[k] if kind == 0 else swap_deltas[k]
            if delta < best_delta:
                best_delta, best = delta, (kind, k)
        if best is None:
            continue
        kind, k = best
        stale = not dirty.isdisjoint(cell_nets(cid))
        area = float(areas[cid])
        if kind == 0:
            t = mv_bins[k]
            if mesh.area_in(t) + area > limit:
                continue
            mv = [(cid, mv_xs[k], mv_ys[k], mv_zs[k])]
            partner = None
        else:
            other = sw_b[k]
            if other in moved_since:
                continue
            t = sw_bins[k]
            other_area = float(areas[other])
            if mesh.area_in(t) - other_area + area > limit:
                continue
            if mesh.area_in(cur_bin_of[cid]) - area + other_area > limit:
                continue
            stale = stale or not dirty.isdisjoint(cell_nets(other))
            mv = [(cid, float(placement.x[other]), float(placement.y[other]),
                   int(placement.z[other])),
                  (other, float(placement.x[cid]), float(placement.y[cid]),
                   int(placement.z[cid]))]
            partner = other
        if stale and obj.eval_moves(mv) >= -1e-18:
            continue
        obj.apply_moves(mv)
        opt._update_mesh(cid, cur_bin_of[cid], t, partner)
        executed += 1
        moved_since.add(cid)
        dirty.update(cell_nets(cid))
        if partner is not None:
            moved_since.add(partner)
            dirty.update(cell_nets(partner))
    get_recorder().count("moves/candidates",
                         float(len(mv_cells) + len(sw_a)))
    return executed


def _fresh_optimizer(netlist, config):
    placement = Placement.random(netlist, make_chip(netlist), seed=4)
    return MoveOptimizer(ObjectiveState(placement, config), config)


class TestBlockedPassMatchesSingleBatch:
    @pytest.mark.parametrize("budget", [1, 7, 500])
    @pytest.mark.parametrize("alpha_temp", [0.0, 4e-5])
    @pytest.mark.parametrize("local_only", [False, True])
    def test_passes_identical(self, small_netlist, monkeypatch, budget,
                              alpha_temp, local_only):
        monkeypatch.setattr(moves, "BLOCK_CANDIDATES", budget)
        config = PlacementConfig(alpha_ilv=1e-5, alpha_temp=alpha_temp,
                                 num_layers=4, seed=0)
        oracle = _fresh_optimizer(small_netlist, config)
        blocked = _fresh_optimizer(small_netlist, config)
        rescans = []
        best_action = blocked._best_action

        def counting_best_action(*args):
            rescans.append(args[0])
            return best_action(*args)

        blocked._best_action = counting_best_action
        radius = 1 if local_only else blocked._radius_for_bins(
            config.move_target_bins)
        rec_oracle, rec_blocked = Recorder(), Recorder()
        for _ in range(3):
            with use_recorder(rec_oracle):
                want = _oracle_pass(oracle, local_only, radius)
            with use_recorder(rec_blocked):
                got = blocked._pass(local_only=local_only, radius=radius)
            assert got == want
            a = oracle.objective.placement
            b = blocked.objective.placement
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.y, b.y)
            assert np.array_equal(a.z, b.z)
            assert (blocked._rng.bit_generator.state
                    == oracle._rng.bit_generator.state)
            assert (rec_blocked.counters["moves/candidates"]
                    == rec_oracle.counters["moves/candidates"])
        # several blocks per pass
        assert rec_blocked.counters["moves/candidates"] > 6 * budget
        assert blocked.objective.total == oracle.objective.total
        blocked.objective.check_consistency()
        if not local_only:
            # swaps displaced cells, so the sequential rescan ran
            assert rescans


class TestMovePassMemory:
    def test_global_pass_peak_is_bounded(self):
        netlist = load_benchmark("ibm01", scale=0.1, seed=0)
        config = PlacementConfig()
        placement = Placement.random(netlist, auto_chip(netlist, config),
                                     seed=1)
        opt = MoveOptimizer(ObjectiveState(placement, config), config)
        tracemalloc.start()
        try:
            assert opt.global_pass() > 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one batch for the whole pass peaked near 70 MB here; blocks of
        # BLOCK_CANDIDATES keep it near 9 MB
        assert peak < 30e6
