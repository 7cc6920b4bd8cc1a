"""Scaling benchmark for the vectorized placement kernels.

Unlike the figure/table reproductions, this benchmark gates the
*implementation*, not the science: it times the full placement pipeline
per stage across a ladder of instance sizes, plus the two kernel
micro-benchmarks the vectorization targeted —

- ``ObjectiveState.rebuild``: the CSR ``reduceat`` full recompute of
  every net's extremes, wirelength, and via counts;
- ``ThermalSolver.solve_powers``: repeated solves on a fixed geometry,
  which hit the cached sparse-LU factorization after the first call
  (the seed implementation ran a full ``spsolve`` per call).

It also gates the observability layer: each scale runs ``repeats``
back-to-back pairs — the default (no-op ambient) recorder immediately
followed by a live ``repro.obs.Recorder`` — and
``telemetry_overhead_pct`` is the *median of per-pair ratios*.
Minima are kept for the wall-clock speedup series, but the overhead
gate uses paired ratios: the difference of two best-of-N minima
estimates the noise floor, not the overhead (how the historical
numbers went negative), and pairing cancels machine drift that
block-sequential medians still pick up.  Negative readings clamp to
zero *at the emission point* — the headline JSON never claims
telemetry made runs faster; the raw median and the per-pair noise
band are kept alongside for forensics.  ``--check-overhead`` turns
the budget into an exit code.

``thermal_fidelity`` compares the exact finite-volume solve against
the calibrated closed-form surrogate in the move-loop path
(``SurrogateThermalModel.move_delta``) at scale 0.1, reports the
calibrated relative error, and places the same netlist under
``exact`` and ``adaptive`` fidelity to confirm the final objectives
are identical (the policy's trajectory-neutrality contract).

``service_cache`` times a cold placement against a cached
resubmission of the same job through ``repro.service``'s
content-addressed result cache (the dedup path of sweeps and repeated
``repro job submit``): its cold/hit latencies feed the perf ledger.

``--workers`` adds an execution-backend scaling row: the full pipeline
at workers 1/2/4 (scale 0.1) with a bit-identity check against the
serial run, plus the machine's ``available_cpus`` — the honest upper
bound on any measured speedup.  The rows carry the zero-copy dispatch
instrumentation (payload bytes per task vs the dense pickled-task
baseline) and gate the >= 10x reduction.

``--synthetic-ladder`` adds the bisection scaling row: the global
stage alone, serially, on ``synthetic`` 2.5k, 5k, 10k and 20k cells,
each in a fresh interpreter, with the fitted exponent of global
seconds against cells and the machine's ``available_cpus``.

``--large`` adds the true-scale section: ibm01 at scale 0.25, 0.5
and 1.0 through the default pipeline and a 50k-cell synthetic
instance through the global (dispatch-heavy) stage, each recording
wall seconds, peak RSS, and dispatch bytes for the perf ledger; plus
a subprocess probe comparing the streaming and buffered Bookshelf
readers' parse-time RSS on full-size ibm01.

Every ``peak_rss_bytes`` row (each ladder scale and each large row) is
measured by placing the instance in a fresh interpreter: a process's
high-water mark never falls, so in-process readings carry the largest
earlier row into every later one.

Results are written as machine-readable JSON so before/after runs can
be compared; ``--baseline`` merges a previous run into a single
``{"before": ..., "after": ..., "speedup": ...}`` document (the
repo-root ``BENCH_scaling.json`` is such a merged document).

Usage::

    PYTHONPATH=src python benchmarks/bench_scaling.py --json after.json
    # ... check out the baseline tree, run again into before.json ...
    PYTHONPATH=src python benchmarks/bench_scaling.py \
        --json BENCH_scaling.json --baseline before.json

Under pytest-benchmark it runs the default ladder and asserts nothing
beyond completion, like the other benchmarks here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from common import SeriesWriter
from repro import Placer3D, PlacementConfig, load_benchmark
from repro.obs import Recorder, SamplingProfiler, Stopwatch

#: instance-size ladder (fractions of published ibm01 cell count)
SCALES = [0.025, 0.05, 0.1]
CIRCUIT = "ibm01"


def _best_of(fn, repeats: int = 5) -> float:
    """Minimum wall-clock of several calls (noise-robust statistic)."""
    best = float("inf")
    watch = Stopwatch()
    for _ in range(repeats):
        watch.restart()
        fn()
        best = min(best, watch.elapsed())
    return best


def bench_full_placement(scales: List[float],
                         repeats: int = 5) -> Dict[str, dict]:
    """Wall-clock and per-stage seconds of Placer3D per scale.

    Each scale runs ``repeats`` back-to-back *pairs*: the default path
    (private recorder, no ambient instrumentation) immediately
    followed by a fully instrumented run with a live ``Recorder``
    installed.  The minimum plain wall is kept as ``wall_seconds``
    (the noise-robust statistic the before/after speedup series
    compares), and the telemetry overhead is the *median of per-pair
    ratios*: pairing cancels slow machine drift that made
    block-sequential measurements (all plain runs, then all telemetry
    runs) read impossible negative overheads on shared machines, and
    the median discards pairs a scheduler hiccup landed in.  The
    netlist is regenerated between runs because placement mutates it
    (TRR nets).
    """
    out: Dict[str, dict] = {}
    watch = Stopwatch()
    for scale in scales:
        walls: List[float] = []
        telemetry_walls: List[float] = []
        profile_walls: List[float] = []
        result = None
        wall = float("inf")
        for _ in range(repeats):
            netlist = load_benchmark(CIRCUIT, scale=scale, seed=0)
            watch.restart()
            attempt = Placer3D(netlist, PlacementConfig()).run()
            elapsed = watch.elapsed()
            walls.append(elapsed)
            if elapsed < wall:
                wall, result = elapsed, attempt
            netlist = load_benchmark(CIRCUIT, scale=scale, seed=0)
            watch.restart()
            Placer3D(netlist, PlacementConfig(),
                     recorder=Recorder()).run()
            telemetry_walls.append(watch.elapsed())
            # third leg of the pair: full deep-observability stack
            # (resource tracking + sampling profiler at the default
            # rate), gated by --check-profile-overhead
            netlist = load_benchmark(CIRCUIT, scale=scale, seed=0)
            watch.restart()
            recorder = Recorder(track_resources=True)
            with SamplingProfiler(tracer=recorder.tracer):
                Placer3D(netlist, PlacementConfig(),
                         recorder=recorder).run()
            recorder.finish_resources()
            profile_walls.append(watch.elapsed())
        assert result is not None
        overhead = float(np.median(
            [t / p - 1.0 for p, t in zip(walls, telemetry_walls)]))
        profile_overhead = float(np.median(
            [t / p - 1.0 for p, t in zip(walls, profile_walls)]))
        # the paired-ratio noise band: half the spread of per-pair
        # ratios, the honest uncertainty on the overhead estimate
        ratios = [t / p - 1.0 for p, t in zip(walls, telemetry_walls)]
        noise_band = 100.0 * (max(ratios) - min(ratios)) / 2.0
        out[str(scale)] = {
            "num_cells": len(netlist.cells),
            "repeats": repeats,
            "wall_seconds": wall,
            "wall_seconds_median": float(np.median(walls)),
            "stage_seconds": dict(result.stage_seconds),
            "round_seconds": [dict(r) for r in result.round_seconds],
            "telemetry_wall_seconds": min(telemetry_walls),
            "telemetry_wall_seconds_median":
                float(np.median(telemetry_walls)),
            # clamped at the emission point: a negative median ratio
            # means the overhead is below this machine's noise floor,
            # and a negative number in the headline JSON reads as a
            # measured speedup, which it is not.  The raw median and
            # the per-pair noise band ride along for forensics.
            "telemetry_overhead_pct": max(0.0, 100.0 * overhead),
            "telemetry_overhead_pct_raw": 100.0 * overhead,
            "telemetry_overhead_noise_band_pct": noise_band,
            "profile_overhead_pct": max(0.0, 100.0 * profile_overhead),
            "profile_overhead_pct_raw": 100.0 * profile_overhead,
            # one more placement in a fresh interpreter: its peak RSS
            # is this scale's own, not this process's high-water mark
            "peak_rss_bytes": _place_in_subprocess(
                CIRCUIT, scale)["peak_rss_bytes"],
        }
    return out


def bench_workers(scale: float = 0.1,
                  counts: Optional[List[int]] = None) -> dict:
    """Full-pipeline wall time per execution-backend worker count.

    Runs the same placement at each worker count, checks the results
    are bit-identical to the serial run (the :mod:`repro.parallel`
    contract), and reports the global-stage and total wall seconds.
    ``available_cpus`` is recorded alongside because the achievable
    speedup is bounded by the machine, not the implementation — on a
    single-core container every count measures pool overhead only.

    Each run carries a live :class:`~repro.obs.Recorder`, so the rows
    also report the zero-copy dispatch instrumentation: tasks
    dispatched, actual payload bytes per task (shared-memory segment
    handles), and the dense pickled-task bytes the pre-shared-memory
    implementation would have serialized — the
    ``dispatch_reduction_vs_pickled`` ratio is the headline win and is
    gated at >= 10x by ``meets_10x_dispatch_reduction``.
    """
    counts = counts or [1, 2, 4]
    entries: Dict[str, dict] = {}
    reference = None
    reduction = None
    watch = Stopwatch()
    for workers in counts:
        netlist = load_benchmark(CIRCUIT, scale=scale, seed=0)
        config = PlacementConfig(num_workers=workers)
        recorder = Recorder()
        watch.restart()
        result = Placer3D(netlist, config, recorder=recorder).run()
        wall = watch.elapsed()
        coords = (result.placement.x.tobytes(),
                  result.placement.y.tobytes(),
                  result.placement.z.tobytes())
        if reference is None:
            reference = coords
        entry = {
            "wall_seconds": wall,
            "global_seconds": result.stage_seconds.get("global", 0.0),
            "bit_identical_to_serial": coords == reference,
        }
        # dispatch payload instrumentation (worker counts > 1 only:
        # the serial path ships no payloads).  ``dispatch_bytes`` is
        # what actually crossed the process boundary per task — a
        # ~100-byte shared-memory segment handle — against the dense
        # pickled-task bytes the pre-shm implementation serialized.
        tasks = recorder.counters.get("parallel/tasks", 0.0)
        if tasks > 0:
            dispatch = recorder.counters["parallel/dispatch_bytes"]
            dense = recorder.counters["parallel/dense_task_bytes"]
            entry["tasks"] = int(tasks)
            entry["dispatch_bytes"] = dispatch
            entry["dense_task_bytes"] = dense
            entry["dispatch_bytes_per_task"] = dispatch / tasks
            entry["dense_bytes_per_task"] = dense / tasks
            if dispatch > 0:
                reduction = dense / dispatch
                entry["dispatch_reduction_vs_pickled"] = reduction
        entries[str(workers)] = entry
    first, last = str(counts[0]), str(counts[-1])
    return {
        "circuit": CIRCUIT,
        "scale": scale,
        "available_cpus": os.cpu_count(),
        "workers": entries,
        "global_speedup_max_vs_1":
            entries[first]["global_seconds"]
            / entries[last]["global_seconds"],
        "dispatch_reduction_vs_pickled": reduction,
        "meets_10x_dispatch_reduction":
            bool(reduction is not None and reduction >= 10.0),
    }


#: full-size instance ladder: (circuit, scale, reduced-pipeline?).
#: The synthetic row runs the global stage only — recursive bisection
#: is the parallel, dispatch-heavy stage, and a full legalization flow
#: at 50k cells would dominate the bench's wall budget for no extra
#: signal.
LARGE_ROWS = [("ibm01", 0.25, False), ("ibm01", 0.5, False),
              ("ibm01", 1.0, False), ("synthetic50k", 1.0, True)]

#: subprocess probe: place one instance in a *fresh* interpreter so its
#: peak RSS is that placement's own footprint, not the accumulated
#: high-water mark of this process.  Prints one JSON line.
_PLACE_PROBE = """
import json, sys
from repro import Placer3D, PlacementConfig, load_benchmark
from repro.core.pipeline import PipelineSpec, StageEntry
from repro.obs import Recorder, Stopwatch, peak_rss_bytes
circuit, scale, workers, reduced = sys.argv[1:]
netlist = load_benchmark(circuit, scale=float(scale), seed=0)
config = PlacementConfig(num_workers=int(workers))
spec = (PipelineSpec(entries=(StageEntry("global"),))
        if reduced == "1" else None)
recorder = Recorder()
watch = Stopwatch()
result = Placer3D(netlist, config, recorder=recorder, spec=spec).run()
wall = watch.elapsed()
counters = recorder.counters
print(json.dumps({
    "num_cells": netlist.num_cells,
    "wall_seconds": wall,
    "global_seconds": result.stage_seconds.get("global", 0.0),
    "objective": float(result.objective),
    "peak_rss_bytes": peak_rss_bytes(),
    "tasks": counters.get("parallel/tasks", 0.0),
    "dispatch_bytes": counters.get("parallel/dispatch_bytes", 0.0),
    "dense_task_bytes": counters.get("parallel/dense_task_bytes", 0.0),
}))
"""


def _place_in_subprocess(circuit: str, scale: float, workers: int = 0,
                         reduced: bool = False) -> dict:
    """Run :data:`_PLACE_PROBE` in a child interpreter; its JSON line."""
    import subprocess

    proc = subprocess.run(
        [sys.executable, "-c", _PLACE_PROBE, circuit, repr(scale),
         str(workers), "1" if reduced else "0"],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)

#: serial global-only synthetic ladder, in cells: the FM bisection
#: scaling row (the global stage is almost all of such a run)
SYNTHETIC_LADDER = [2500, 5000, 10000, 20000]


def bench_synthetic_ladder() -> dict:
    """Serial global-only seconds per :data:`SYNTHETIC_LADDER` rung,
    plus the fitted scaling exponent.

    Each rung places in its own child interpreter at one worker, so the
    row times the bisection engine alone, with no dispatch.
    ``fitted_exponent`` is the least-squares slope of log global
    seconds on log cells over all rungs; ``local_exponents`` give the
    slope between neighbouring rungs.
    """
    rows: Dict[str, dict] = {}
    for cells in SYNTHETIC_LADDER:
        row = _place_in_subprocess(f"synthetic{cells}", 1.0, workers=1,
                                   reduced=True)
        rows[str(cells)] = {key: row[key] for key in (
            "num_cells", "wall_seconds", "global_seconds", "objective",
            "peak_rss_bytes")}
    counts = [row["num_cells"] for row in rows.values()]
    seconds = [row["global_seconds"] for row in rows.values()]
    local = {}
    for i in range(1, len(counts)):
        local[f"{counts[i - 1]}-{counts[i]}"] = float(
            np.log(seconds[i] / seconds[i - 1])
            / np.log(counts[i] / counts[i - 1]))
    fitted = float(np.polyfit(np.log(counts), np.log(seconds), 1)[0])
    return {"workers": 1, "available_cpus": os.cpu_count(),
            "pipeline": "global-only", "rows": rows,
            "fitted_exponent": fitted, "local_exponents": local}


#: subprocess probe: parse a Bookshelf circuit in a *fresh*
#: interpreter so its peak RSS is the parse's own footprint, not this
#: process's accumulated high-water.  Prints one JSON line.
_PARSE_PROBE = """
import json, sys, time
prefix, mode = sys.argv[1], sys.argv[2]
from repro.netlist import bookshelf
from repro.obs import peak_rss_bytes
start = time.perf_counter()
reader = (bookshelf.read_bookshelf_streaming if mode == "streaming"
          else bookshelf.read_bookshelf)
netlist = reader(prefix)
elapsed = time.perf_counter() - start
print(json.dumps({
    "parse_seconds": elapsed,
    "peak_rss_bytes": peak_rss_bytes(),
    "num_cells": netlist.num_cells,
    "num_nets": netlist.num_nets,
}))
"""


def bench_bookshelf_streaming(scale: float = 1.0) -> dict:
    """Streaming vs buffered Bookshelf parse of full-size ibm01.

    Writes the circuit to a temporary Bookshelf triple, then parses it
    with each reader in its own subprocess: a child interpreter's peak
    RSS *is* the parse footprint (the bench process's high-water mark
    is monotone and already inflated by earlier sections).
    ``rss_ratio_streaming_vs_buffered`` is the bounded-memory claim in
    one number; ``csr_nbytes`` (the netlist's signal-CSR array
    footprint) anchors the constant-factor comparison.
    """
    import shutil
    import subprocess
    import tempfile

    from repro.netlist import bookshelf
    from repro.netlist.csr import build_signal_csr

    out_dir = tempfile.mkdtemp(prefix="repro-bench-bookshelf-")
    prefix = os.path.join(out_dir, CIRCUIT)
    try:
        netlist = load_benchmark(CIRCUIT, scale=scale, seed=0)
        bookshelf.write_bookshelf(prefix, netlist)
        csr_nbytes = build_signal_csr(netlist).nbytes
        modes: Dict[str, dict] = {}
        for mode in ("streaming", "buffered"):
            proc = subprocess.run(
                [sys.executable, "-c", _PARSE_PROBE, prefix, mode],
                capture_output=True, text=True, check=True)
            modes[mode] = json.loads(proc.stdout)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "circuit": CIRCUIT,
        "scale": scale,
        "csr_nbytes": csr_nbytes,
        "streaming": modes["streaming"],
        "buffered": modes["buffered"],
        "rss_ratio_streaming_vs_buffered":
            modes["streaming"]["peak_rss_bytes"]
            / modes["buffered"]["peak_rss_bytes"],
    }


def bench_large_instances(workers: int = 2) -> dict:
    """Full-size instance rows: wall, peak RSS, dispatch bytes.

    Each row places one :data:`LARGE_ROWS` instance at ``workers``
    execution-backend workers with a live recorder, in its own child
    interpreter, so the row gates the three axes that matter at true
    scale — wall seconds, that placement's own peak RSS, and the
    zero-copy dispatch payload bytes.  The reduced (global-only)
    synthetic row exercises the same parallel dispatch path at 4x
    ibm01's size.
    """
    rows: Dict[str, dict] = {}
    for circuit, scale, reduced in LARGE_ROWS:
        row = _place_in_subprocess(circuit, scale, workers, reduced)
        tasks = row["tasks"]
        dispatch = row["dispatch_bytes"]
        label = (circuit if abs(scale - 1.0) < 1e-12
                 else f"{circuit}@{scale:g}")
        rows[label] = dict(
            row, circuit=circuit, scale=scale,
            pipeline="global-only" if reduced else "default",
            tasks=int(tasks),
            dispatch_bytes_per_task=dispatch / tasks if tasks else None,
            dispatch_reduction_vs_pickled=(
                row["dense_task_bytes"] / dispatch if dispatch
                else None))
    return {
        "workers": workers,
        "available_cpus": os.cpu_count(),
        "rows": rows,
        "bookshelf_streaming": bench_bookshelf_streaming(),
    }


def bench_rebuild(scale: float = 0.05, repeats: int = 30) -> dict:
    """Best-of-N time of one full ``ObjectiveState.rebuild``."""
    from repro.core.objective import ObjectiveState
    from repro.geometry.chip import ChipGeometry
    from repro.netlist.placement import Placement

    netlist = load_benchmark(CIRCUIT, scale=scale, seed=0)
    config = PlacementConfig()
    chip = ChipGeometry.for_cell_area(
        netlist.total_cell_area * 1.2, config.num_layers,
        netlist.average_cell_height)
    placement = Placement.random(netlist, chip, seed=1)
    objective = ObjectiveState(placement, config)
    seconds = _best_of(objective.rebuild, repeats)
    return {"num_nets": len(netlist.nets), "seconds": seconds}


def bench_solve_powers(repeats: int = 10) -> dict:
    """First vs repeated ``solve_powers`` on one geometry.

    The first call pays matrix assembly plus factorization; repeats are
    two triangular back-substitutions against the cached LU.  On the
    seed implementation (fresh ``spsolve`` per call) first and repeat
    cost the same, so the repeat/first ratio measures the caching win.
    """
    from repro.geometry.chip import ChipGeometry
    from repro.thermal.solver import ThermalSolver

    chip = ChipGeometry.for_cell_area(1e-4, 4, 1e-5)
    solver = ThermalSolver(chip, nx=16, ny=16)
    rng = np.random.default_rng(0)
    power = rng.random((16, 16, 4)) * 1e6
    watch = Stopwatch()
    solver.solve_powers(power)
    first = watch.elapsed()
    repeat = _best_of(lambda: solver.solve_powers(power), repeats)
    return {"first_seconds": first, "repeat_seconds": repeat}


def bench_thermal_fidelity(scale: float = 0.1,
                           repeats: int = 200) -> dict:
    """Exact vs surrogate thermal evaluation in the move-loop path.

    Three measurements on one netlist/chip at ``scale``:

    - timing: a warm exact ``solve_powers`` (cached LU, the cost of
      re-evaluating the field after a move) against one surrogate
      ``move_delta`` (the precomputed-column update the inner loop
      actually needs) and one surrogate full-field solve;
    - accuracy: the calibrated surrogate's relative L2 error against
      the exact solver on the live placement's power map;
    - trajectory-neutrality: the same placement under ``exact`` and
      ``adaptive`` fidelity, whose final objectives must be identical.
    """
    from repro.core.context import auto_chip
    from repro.metrics.wirelength import compute_net_metrics
    from repro.netlist.placement import Placement
    from repro.thermal import (PowerModel, SurrogateThermalModel,
                               ThermalSolver)
    from repro.thermal.surrogate import power_map_of, relative_error

    config = PlacementConfig(alpha_temp=1e-5)
    netlist = load_benchmark(CIRCUIT, scale=scale, seed=0)
    chip = auto_chip(netlist, config)
    solver = ThermalSolver(chip, config.tech)
    surrogate = SurrogateThermalModel(chip, config.tech)
    placement = Placement.random(netlist, chip, seed=3)
    powers = PowerModel(netlist, config.tech).cell_powers(
        compute_net_metrics(placement))
    pmap = power_map_of(placement, powers, surrogate.nx, surrogate.ny)

    watch = Stopwatch()
    coeffs = surrogate.calibrate(solver, extra_power_maps=[pmap])
    calibration_seconds = watch.elapsed()
    error = relative_error(surrogate.solve_powers(pmap),
                           solver.solve_powers(pmap))

    solver.solve_powers(pmap)  # warm the LU before timing
    exact_eval = _best_of(lambda: solver.solve_powers(pmap), repeats)
    surrogate_eval = _best_of(lambda: surrogate.solve_powers(pmap),
                              repeats)
    n_tiles = surrogate.nx * surrogate.ny
    delta_eval = _best_of(
        lambda: surrogate.move_delta(0, 0, n_tiles - 1,
                                     chip.num_layers - 1, 1e-4),
        repeats)

    objectives = {}
    for mode in ("exact", "adaptive"):
        netlist = load_benchmark(CIRCUIT, scale=scale, seed=0)
        mode_config = PlacementConfig(alpha_temp=1e-5,
                                      thermal_fidelity=mode)
        objectives[mode] = Placer3D(netlist, mode_config).run().objective

    return {
        "circuit": CIRCUIT,
        "scale": scale,
        "calibration_seconds": calibration_seconds,
        "calibration_residual": float(coeffs.residual),
        "calibrated_relative_error": error,
        "exact_eval_seconds": exact_eval,
        "surrogate_eval_seconds": surrogate_eval,
        "surrogate_delta_seconds": delta_eval,
        "move_loop_speedup": exact_eval / delta_eval,
        "full_solve_speedup": exact_eval / surrogate_eval,
        "exact_objective": float(objectives["exact"]),
        "adaptive_objective": float(objectives["adaptive"]),
        "objective_match":
            bool(objectives["exact"] == objectives["adaptive"]),
    }


def bench_service_cache(scale: float = 0.05) -> dict:
    """Cache-hit latency vs cold placement through the service engine.

    Submits the same request twice to a fresh
    :class:`~repro.service.PlacementEngine`: the first submission runs
    the placement cold (and publishes it to the content-addressed
    result cache), the second short-circuits straight to ``done`` from
    the cache.  ``speedup`` is the cold/hit wall-clock ratio — the
    latency a deduplicated sweep point (or a resubmitted job) saves;
    the two latencies feed the perf ledger as
    ``service_cache/cold_seconds`` and ``service_cache/hit_seconds``.
    """
    import shutil
    import tempfile

    from repro.service import JobRequest, PlacementEngine

    jobs_dir = tempfile.mkdtemp(prefix="repro-bench-jobs-")
    watch = Stopwatch()
    try:
        with PlacementEngine(jobs_dir, workers=1) as engine:
            request = JobRequest(config=PlacementConfig().to_dict(),
                                 circuit=CIRCUIT, scale=scale)
            watch.restart()
            (cold,) = engine.wait([engine.submit(request)])
            cold_seconds = watch.elapsed()
            watch.restart()
            (hit,) = engine.wait([engine.submit(request)])
            hit_seconds = watch.elapsed()
            assert cold["state"] == "done" and cold["cache"] == "miss"
            assert hit["state"] == "done" and hit["cache"] == "hit"
            counters = engine.counters()
    finally:
        shutil.rmtree(jobs_dir, ignore_errors=True)
    return {
        "circuit": CIRCUIT,
        "scale": scale,
        "cold_seconds": cold_seconds,
        "hit_seconds": hit_seconds,
        "speedup": cold_seconds / hit_seconds,
        "cache_hits": counters.get("cache/hit", 0.0),
        "cache_misses": counters.get("cache/miss", 0.0),
    }


def run_bench(scales: Optional[List[float]] = None,
              workers: bool = False, large: bool = False,
              synthetic_ladder: bool = False) -> dict:
    writer = SeriesWriter("bench_scaling")
    measurement = {
        "circuit": CIRCUIT,
        "placement": bench_full_placement(scales or SCALES),
        "rebuild": bench_rebuild(),
        "solve_powers": bench_solve_powers(),
        "thermal_fidelity": bench_thermal_fidelity(),
        "service_cache": bench_service_cache(),
    }
    if workers:
        measurement["workers_scaling"] = bench_workers()
    if large:
        measurement["large_instances"] = bench_large_instances()
    if synthetic_ladder:
        measurement["synthetic_ladder"] = bench_synthetic_ladder()
    writer.row(f"{'scale':>7} {'cells':>7} {'wall (s)':>9} "
               f"{'tele %':>7} {'prof %':>7}  stages")
    for scale, entry in measurement["placement"].items():
        stages = " ".join(f"{k}={v:.3f}"
                          for k, v in entry["stage_seconds"].items())
        writer.row(f"{scale:>7} {entry['num_cells']:>7} "
                   f"{entry['wall_seconds']:>9.3f} "
                   f"{entry['telemetry_overhead_pct']:>+6.1f}% "
                   f"{entry['profile_overhead_pct']:>+6.1f}%  {stages}")
    rb = measurement["rebuild"]
    sp = measurement["solve_powers"]
    writer.row(f"rebuild ({rb['num_nets']} nets): "
               f"{rb['seconds'] * 1e3:.3f} ms")
    writer.row(f"solve_powers: first {sp['first_seconds'] * 1e3:.2f} ms, "
               f"repeat {sp['repeat_seconds'] * 1e3:.3f} ms")
    tf = measurement["thermal_fidelity"]
    writer.row(f"thermal_fidelity (scale {tf['scale']}): exact "
               f"{tf['exact_eval_seconds'] * 1e6:.0f} us, surrogate "
               f"{tf['surrogate_eval_seconds'] * 1e6:.0f} us, "
               f"move_delta {tf['surrogate_delta_seconds'] * 1e6:.1f} "
               f"us ({tf['move_loop_speedup']:.0f}x), rel_err "
               f"{tf['calibrated_relative_error']:.4f}, adaptive=="
               f"exact: {tf['objective_match']}")
    sc = measurement["service_cache"]
    writer.row(f"service_cache (scale {sc['scale']}): cold "
               f"{sc['cold_seconds']:.3f} s, hit "
               f"{sc['hit_seconds'] * 1e3:.1f} ms "
               f"({sc['speedup']:.0f}x)")
    if workers:
        ws = measurement["workers_scaling"]
        for count, entry in ws["workers"].items():
            extra = ""
            if "dispatch_bytes_per_task" in entry:
                extra = (f", {entry['dispatch_bytes_per_task']:.0f} "
                         f"B/task dispatched "
                         f"(dense {entry['dense_bytes_per_task']:.0f})")
            writer.row(
                f"workers={count}: wall {entry['wall_seconds']:.3f} s, "
                f"global {entry['global_seconds']:.3f} s, "
                f"identical={entry['bit_identical_to_serial']}{extra}")
        writer.row(f"global speedup (max vs 1 worker): "
                   f"{ws['global_speedup_max_vs_1']:.2f}x on "
                   f"{ws['available_cpus']} available cpu(s)")
        if ws["dispatch_reduction_vs_pickled"] is not None:
            writer.row(
                f"dispatch payload reduction vs pickled tasks: "
                f"{ws['dispatch_reduction_vs_pickled']:.1f}x "
                f"(>=10x: {ws['meets_10x_dispatch_reduction']})")
    if large:
        li = measurement["large_instances"]
        for label, row in li["rows"].items():
            writer.row(
                f"large {label} ({row['num_cells']} cells, "
                f"{row['pipeline']}): wall {row['wall_seconds']:.1f} s, "
                f"rss {row['peak_rss_bytes'] / 1e6:.0f} MB, "
                f"dispatch {row['dispatch_bytes'] / 1e3:.1f} kB "
                f"over {row['tasks']} tasks")
        bs = li["bookshelf_streaming"]
        writer.row(
            f"bookshelf parse ({bs['circuit']}@{bs['scale']:g}): "
            f"streaming {bs['streaming']['parse_seconds']:.3f} s / "
            f"{bs['streaming']['peak_rss_bytes'] / 1e6:.0f} MB rss, "
            f"buffered {bs['buffered']['parse_seconds']:.3f} s / "
            f"{bs['buffered']['peak_rss_bytes'] / 1e6:.0f} MB rss")
    if synthetic_ladder:
        sl = measurement["synthetic_ladder"]
        for label, row in sl["rows"].items():
            writer.row(f"synthetic{label} (global-only, 1 worker): "
                       f"global {row['global_seconds']:.2f} s")
        local = ", ".join(f"{k} {v:.2f}"
                          for k, v in sl["local_exponents"].items())
        writer.row(f"fitted exponent {sl['fitted_exponent']:.2f} "
                   f"(local: {local}) on {sl['available_cpus']} "
                   f"available cpu(s)")
    writer.save()
    return measurement


def merge(before: dict, after: dict) -> dict:
    """Combine two measurements into a before/after/speedup document."""
    speedup: Dict[str, object] = {}
    walls = {}
    for scale in after["placement"]:
        if scale in before.get("placement", {}):
            walls[scale] = (before["placement"][scale]["wall_seconds"]
                            / after["placement"][scale]["wall_seconds"])
    speedup["wall_clock"] = walls
    if "rebuild" in before:
        speedup["rebuild"] = (before["rebuild"]["seconds"]
                              / after["rebuild"]["seconds"])
    if "solve_powers" in before:
        # the caching criterion: a warm solve vs the seed's per-call cost
        speedup["solve_powers_repeat"] = (
            before["solve_powers"]["repeat_seconds"]
            / after["solve_powers"]["repeat_seconds"])
    before_rows = before.get("large_instances", {}).get("rows", {})
    after_rows = after.get("large_instances", {}).get("rows", {})
    rss = {label: before_rows[label]["peak_rss_bytes"]
           / after_rows[label]["peak_rss_bytes"]
           for label in after_rows if label in before_rows}
    if rss:
        speedup["large_peak_rss"] = rss
    before_ladder = before.get("synthetic_ladder", {}).get("rows", {})
    after_ladder = after.get("synthetic_ladder", {}).get("rows", {})
    ladder = {label: before_ladder[label]["global_seconds"]
              / after_ladder[label]["global_seconds"]
              for label in after_ladder if label in before_ladder}
    if ladder:
        speedup["synthetic_ladder_global"] = ladder
    if "service_cache" in after:
        # self-contained comparison: resubmitting an already-placed
        # job through the service vs placing it cold
        speedup["service_cache_hit"] = after["service_cache"]["speedup"]
    if "thermal_fidelity" in after:
        # self-contained comparison (exact vs surrogate within one
        # tree), surfaced here so the headline document carries it
        tf = after["thermal_fidelity"]
        speedup["thermal_fidelity"] = {
            "move_loop": tf["move_loop_speedup"],
            "full_solve": tf["full_solve_speedup"],
            "calibrated_relative_error":
                tf["calibrated_relative_error"],
            "adaptive_matches_exact": tf["objective_match"],
        }
    return {"before": before, "after": after, "speedup": speedup}


def check_overhead(measurement: dict, budget_pct: float,
                   profile_budget_pct: Optional[float] = None,
                   ) -> List[str]:
    """CI gate: telemetry (and profiling) overhead within budget.

    Clamped at zero — only *positive* regressions flag.  A negative
    reading (telemetry run faster than the plain run) is scheduler
    noise and historically produced spurious gate states in both
    directions.  ``profile_budget_pct`` additionally gates the third
    pair leg (resource tracking + sampling profiler at the default
    rate) against its own, larger budget.
    """
    failures = []
    for scale, entry in measurement.get("placement", {}).items():
        overhead = max(0.0, entry["telemetry_overhead_pct"])
        if overhead > budget_pct:
            failures.append(
                f"scale {scale}: telemetry overhead "
                f"{overhead:.2f}% exceeds budget {budget_pct:.2f}%")
        if profile_budget_pct is not None \
                and "profile_overhead_pct" in entry:
            profiled = max(0.0, entry["profile_overhead_pct"])
            if profiled > profile_budget_pct:
                failures.append(
                    f"scale {scale}: profiling overhead "
                    f"{profiled:.2f}% exceeds budget "
                    f"{profile_budget_pct:.2f}%")
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", help="write measurement JSON here")
    parser.add_argument("--baseline",
                        help="previous measurement JSON to merge as "
                             "'before'")
    parser.add_argument("--scales", type=float, nargs="*",
                        help=f"instance-size ladder (default {SCALES})")
    parser.add_argument("--workers", action="store_true",
                        help="also measure execution-backend scaling "
                             "(workers 1/2/4 at scale 0.1, with a "
                             "bit-identity check and dispatch-payload "
                             "instrumentation)")
    parser.add_argument("--large", action="store_true",
                        help="also run the full-size instance rows "
                             "(ibm01 at scale 0.5/1.0, synthetic50k "
                             "global-only) and the streaming-parse "
                             "RSS probe; takes several minutes")
    parser.add_argument("--synthetic-ladder", action="store_true",
                        help="also time the global stage alone, "
                             "serially, on synthetic 2.5k/5k/10k/20k "
                             "and fit its scaling exponent; takes a "
                             "few minutes")
    parser.add_argument("--check-overhead", type=float, metavar="PCT",
                        help="exit nonzero when telemetry overhead at "
                             "any scale exceeds this budget (negative "
                             "readings clamp to zero and never flag)")
    parser.add_argument("--check-profile-overhead", type=float,
                        metavar="PCT",
                        help="also gate the profiled-run overhead "
                             "(sampling profiler + resource tracking "
                             "at the default rate) against this "
                             "budget")
    args = parser.parse_args()
    baseline = None
    if args.baseline:
        # read up front so a bad path fails before the slow measurement
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    measurement = run_bench(args.scales, workers=args.workers,
                            large=args.large,
                            synthetic_ladder=args.synthetic_ladder)
    document = measurement
    if baseline is not None:
        document = merge(baseline, measurement)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.check_overhead is not None \
            or args.check_profile_overhead is not None:
        budget = (args.check_overhead
                  if args.check_overhead is not None else 100.0)
        failures = check_overhead(
            measurement, budget,
            profile_budget_pct=args.check_profile_overhead)
        for line in failures:
            print(f"OVERHEAD GATE: {line}", file=sys.stderr)
        if failures:
            raise SystemExit(1)
        print(f"overhead gate passed (budget {budget:.2f}%"
              + (f", profiled {args.check_profile_overhead:.2f}%"
                 if args.check_profile_overhead is not None else "")
              + ")")


def test_bench_scaling(benchmark):
    assert benchmark.pedantic(
        lambda: bool(run_bench([0.025])), rounds=1, iterations=1)


if __name__ == "__main__":
    main()
