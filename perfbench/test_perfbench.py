"""Tests of the benchmark's own arithmetic and plumbing.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from layers import derive_layers  # noqa: E402
from run import tally  # noqa: E402
from session import Job, check_and_score  # noqa: E402
from stats import interval_union, tail_percentile  # noqa: E402
from tracing import Span, Tracer, install, self_seconds  # noqa: E402
from workloads import WORKLOAD_CLASSES, make_workload  # noqa: E402


# -- tail percentile ----------------------------------------------------------

@pytest.mark.parametrize("n, rank, pct", [
    (100, 90, 90.0),    # the cap: exactly 10 samples beyond p90
    (200, 180, 90.0),   # capped, 20 beyond
    (40, 30, 75.0),     # 10 beyond
    (35, 25, 100 * 25 / 35),
    (20, 10, 50.0),     # the lowest count with a qualifying tail
])
def test_tail_percentile_keeps_ten_samples_beyond(n, rank, pct):
    values = [float(v) for v in range(1, n + 1)]
    value, got_pct, count = tail_percentile(values[::-1])
    assert count == n
    assert value == float(rank)
    assert got_pct == pytest.approx(pct)
    assert sum(v > value for v in values) >= 10


@pytest.mark.parametrize("n", [1, 4, 11, 19])
def test_tail_percentile_falls_back_to_the_median(n):
    values = [float(v) for v in range(n)]
    value, pct, count = tail_percentile(values)
    assert (pct, count) == (50.0, n)
    assert value == pytest.approx(np.median(values))


def test_tail_percentile_of_nothing():
    assert tail_percentile([]) == (0.0, 50.0, 0)


# -- self time ----------------------------------------------------------------

def test_self_time_subtracts_overlapping_children_once():
    spans = [Span("parent", 0.0, 10.0),
             Span("a", 1.0, 4.0, parent=0),
             Span("b", 3.0, 6.0, parent=0),      # overlaps a
             Span("c", 8.0, 12.0, parent=0),     # runs past the parent
             Span("grandchild", 1.5, 2.0, parent=1)]
    # children cover [1, 6] and [8, 10]: 7 s of the parent's 10 s
    assert self_seconds(spans, 0) == pytest.approx(3.0)
    assert self_seconds(spans, 1) == pytest.approx(2.5)


def test_interval_union_ignores_empty_and_nested():
    assert interval_union([(2, 3), (0, 5), (4, 4)], 0, 10) == 5
    assert interval_union([], 0, 10) == 0


def test_tracer_nests_spans_under_the_open_one():
    tracer = Tracer()
    tracer.job = "j"
    tracer.call("outer", tracer.call, "inner", lambda: None)
    outer, inner = tracer.spans
    assert (outer.name, outer.parent) == ("outer", -1)
    assert (inner.name, inner.parent) == ("inner", 0)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert all(s.job == "j" for s in tracer.spans)


# -- seed plumbing ------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOAD_CLASSES))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    def inputs(seed):
        wl = make_workload(name, seed, str(tmp_path / f"{name}-{seed}"))
        return [wl.describe(i) for i in range(30)]
    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_jobs_mix_and_published_designs(tmp_path):
    wl = make_workload("jobs", 5, str(tmp_path))
    kinds = [wl.describe(i)[0] for i in range(40)]
    assert kinds.count("hit") == 10
    assert all(wl.design(i) in wl.published for i in range(3, 40, 4))
    cold = [wl.design(i) for i in range(40) if not wl.is_hit(i)]
    assert sorted(map(str, cold[:12])) == sorted(map(str, wl.pool))
    assert len(wl.pool) == 12


# -- error accounting ---------------------------------------------------------

def _global_output(shift: float):
    from repro.core.config import PlacementConfig
    from repro.core.context import auto_chip
    from repro.netlist.placement import Placement
    from repro.netlist.suite import load_benchmark
    netlist = load_benchmark("ibm01", scale=0.01, seed=1)
    chip = auto_chip(netlist, PlacementConfig())
    n = netlist.num_cells
    placement = Placement(netlist, chip, np.full(n, chip.width / 2 + shift),
                          np.full(n, chip.height / 2), np.zeros(n))
    return SimpleNamespace(placement=placement, objective=1.0,
                           wirelength=0.0, ilv=0)


def test_bad_output_counts_against_error_rate(tmp_path):
    wl = make_workload("global-large", 1, str(tmp_path))
    wl.score = lambda index, tag, output: {
        "objective": 1.0, "hpwl_m": 1.0, "ilv": 0.0, "peak_temp_k": 1.0}
    jobs = [Job(i, "timed") for i in range(3)]
    jobs[0].output = _global_output(0.0)
    jobs[1].output = _global_output(1.0)      # every cell off the die
    jobs[2].output = _global_output(0.0)
    jobs[2].output.objective = float("nan")   # a non-finite objective
    check_and_score(wl, jobs)
    assert jobs[0].error == "" and jobs[0].quality
    assert "outside the chip volume" in jobs[1].error
    assert "not finite" in jobs[2].error
    attempted, failed = tally([j.to_json() for j in jobs])
    assert (attempted, failed) == (3, 2)


def test_raised_job_counts_and_the_loop_continues(tmp_path):
    from session import run_one

    class Broken:
        def run_job(self, index, tag, recorder=None, workers=None):
            if index == 1:
                raise RuntimeError("boom")
            return index

    jobs = [run_one(Broken(), Job(i, "timed")) for i in range(3)]
    assert [bool(j.error) for j in jobs] == [False, True, False]
    assert tally([j.to_json() for j in jobs]) == (3, 1)


# -- tracing ------------------------------------------------------------------

def test_install_wraps_where_callers_look_and_uninstall_restores():
    import repro.core.globalplace as globalplace
    import repro.partition.subproblem as subproblem
    from repro.core.objective import ObjectiveState
    from repro.core.stages import get_stage
    before = (globalplace.compute_net_weights, subproblem.bisect,
              ObjectiveState.__init__, get_stage("moves").run)
    inst = install(Tracer())
    during = (globalplace.compute_net_weights, subproblem.bisect,
              ObjectiveState.__init__, get_stage("moves").run)
    inst.uninstall()
    after = (globalplace.compute_net_weights, subproblem.bisect,
             ObjectiveState.__init__, get_stage("moves").run)
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))


def test_bypassed_layers_read_zero():
    spans = [Span("job", 0.0, 4.0, job="traced-0"),
             Span("stage.global", 0.5, 3.0, parent=0, job="traced-0",
                  extra={"peak_rss_mb": 50.0})]
    layers = derive_layers(spans, attributed=["traced-0"],
                           counters=[{"fm/kept_moves": 1.0,
                                      "fm/rolled_back_moves": 3.0}],
                           parallel_jobs=[], parallel_counters=[], kinds={},
                           netlist_cache={})
    assert layers["global.s"]["value"] == pytest.approx(2.5)
    assert layers["global.peak_rss_mb"]["value"] == 50.0
    assert layers["fm.kept_ratio"]["value"] == pytest.approx(0.25)
    assert "1 / 4" in layers["fm.kept_ratio"]["base"]
    assert layers["unattributed_s"]["value"] == pytest.approx(1.5)
    for name in ("thermal.solve_s", "moves.s", "service.cold_s_p50",
                 "parallel.speedup"):
        assert layers[name]["value"] == 0.0
        assert layers[name]["base"] == ""
