"""The four seeded workloads: inputs, the timed job, output checks and
quality scores.

Each workload turns the benchmark seed into its inputs (designs,
placement seeds, request order); the program sees only those inputs.
``run_job`` is the only call inside the timed region.  ``check`` and
``score`` run afterwards: a failed check raises ``CheckFailed``, which
the session counts against ``error_rate`` before moving on.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro.cli
from repro.core.config import PlacementConfig
from repro.core.context import auto_chip
from repro.core.detailed import check_legal
from repro.core.objective import ObjectiveState
from repro.core.pipeline import PipelineSpec, StageEntry
from repro.core.placer import Placer3D
from repro.metrics.report import evaluate_placement
from repro.netlist import suite
from repro.netlist.bookshelf import read_pl
from repro.netlist.netlist import Netlist
from repro.netlist.placement import Placement
from repro.obs import Recorder, use_recorder

class CheckFailed(Exception):
    """A job's output failed the benchmark's correctness check."""


def derived_seed(seed: int, *labels: Any) -> int:
    """A 31-bit seed derived from the benchmark seed and labels."""
    return random.Random(f"{seed}:" + ":".join(map(str, labels))
                         ).randrange(1, 2 ** 31)


def _check_objective(value: float) -> None:
    if not math.isfinite(value):
        raise CheckFailed(f"objective is not finite: {value}")


class Workload:
    """Base: ``Placer3D`` jobs cycling over ``DESIGNS`` seeded instances
    of one circuit, each job with a fresh placement seed.  Cycling
    averages the instance-to-instance differences within every run, so
    two seeds see the same kind of input."""

    name = ""
    parallel = False
    circuit = "ibm01"
    scale = 1.0
    warm_scale = 0.01
    DESIGNS = 4

    def __init__(self, seed: int, scratch: str, workers: int) -> None:
        self.seed = seed
        self.scratch = scratch
        self.workers = workers
        self.netlists: List[Netlist] = []

    # -- inputs ---------------------------------------------------------------
    def design_seed(self, index: int) -> int:
        return derived_seed(self.seed, self.name, "design",
                            index % self.DESIGNS)

    def placement_seed(self, index: int) -> int:
        return derived_seed(self.seed, self.name, "job", index)

    def config(self, seed: int, workers: Optional[int] = None
               ) -> PlacementConfig:
        return PlacementConfig(alpha_ilv=1e-5, seed=seed,
                               num_workers=workers or self.workers)

    def spec(self) -> Optional[PipelineSpec]:
        return None

    def describe(self, index: int) -> Tuple[str, ...]:
        """What job ``index`` places (for the seed-plumbing tests)."""
        return (self.circuit, f"{self.scale:g}",
                str(self.design_seed(index)), str(self.placement_seed(index)))

    # -- set-up ---------------------------------------------------------------
    def setup(self) -> None:
        """Build the designs and run one tiny warm-up job, so lazy imports
        and first-call costs land in set-up, not in the first job."""
        warm = suite.load_benchmark(self.circuit, scale=self.warm_scale,
                                    seed=self.seed)
        self._place(warm, self.config(0), None)
        self.netlists = [suite.load_benchmark(self.circuit, scale=self.scale,
                                              seed=self.design_seed(k))
                         for k in range(self.DESIGNS)]

    # -- the timed call -------------------------------------------------------
    def _place(self, netlist: Netlist, config: PlacementConfig,
               recorder: Optional[Recorder]) -> Any:
        placer = Placer3D(netlist, config, recorder=recorder,
                          spec=self.spec())
        return placer.run(check=self.spec() is None)

    def run_job(self, index: int, tag: str,
                recorder: Optional[Recorder] = None,
                workers: Optional[int] = None) -> Any:
        """Job ``index``; ``tag`` names this attempt (a job may run in
        several phases of one session)."""
        return self._place(self.netlists[index % self.DESIGNS],
                           self.config(self.placement_seed(index), workers),
                           recorder)

    # -- after the timed region -----------------------------------------------
    def cells(self, index: int, tag: str, output: Any) -> int:
        return output.placement.netlist.num_cells

    def check(self, index: int, tag: str, output: Any) -> None:
        try:
            check_legal(output.placement)
        except AssertionError as exc:
            raise CheckFailed(f"illegal placement: {exc}") from exc
        _check_objective(output.objective)

    def score(self, index: int, tag: str, output: Any) -> Dict[str, float]:
        config = self.config(self.placement_seed(index))
        return {"objective": output.objective,
                "hpwl_m": output.wirelength,
                "ilv": float(output.ilv),
                "peak_temp_k": evaluate_placement(
                    output.placement, config.tech).max_temperature}


class FlowWorkload(Workload):
    """ibm01 at scale 0.25, the default pipeline, thermal off."""

    name = "flow"
    scale = 0.25


class ThermalWorkload(Workload):
    """ibm01 at scale 0.1 with the thermal objective, net weights and
    TRR nets on, default thermal fidelity."""

    name = "thermal"
    scale = 0.1

    def config(self, seed: int, workers: Optional[int] = None
               ) -> PlacementConfig:
        return PlacementConfig(alpha_ilv=1e-5, alpha_temp=4e-5,
                               use_thermal_net_weights=True,
                               use_trr_nets=True, seed=seed,
                               num_workers=workers or self.workers)


class GlobalLargeWorkload(Workload):
    """synthetic5000 at full size, global placement only, parallel."""

    name = "global-large"
    parallel = True
    circuit = "synthetic5000"
    scale = 1.0
    warm_scale = 0.04

    def spec(self) -> PipelineSpec:
        return PipelineSpec(entries=(StageEntry("global"),))

    def check(self, index: int, tag: str, output: Any) -> None:
        p = output.placement
        chip = p.chip
        inside = ((p.x >= 0) & (p.x <= chip.width) & (p.y >= 0)
                  & (p.y <= chip.height) & (p.z >= 0)
                  & (p.z < chip.num_layers))
        if not bool(np.all(inside)):
            raise CheckFailed(f"{int(np.sum(~inside))} cells outside the "
                              f"chip volume")
        _check_objective(output.objective)


@dataclass(frozen=True)
class Design:
    """One entry of the ``jobs`` design pool (a ``repro place`` input)."""

    circuit: str
    scale: float
    seed: int

    def argv(self) -> List[str]:
        return ["place", "--circuit", self.circuit,
                "--scale", f"{self.scale:g}", "--seed", str(self.seed)]


class JobsWorkload(Workload):
    """One closed-loop client calling ``repro.cli.main(["place", ...])``
    in-process: three cold one-shot runs, then one re-submission of a
    design set-up published to a persistent result cache.

    The pool is ibm01-ibm03, four seeded instances each, every circuit
    scaled to 430-444 cells so that cold runs cost about the same and
    the median job does not jump between per-circuit clusters.
    """

    name = "jobs"
    scales = {"ibm01": 0.035, "ibm02": 0.0225, "ibm03": 0.02}
    published_count = 2

    def __init__(self, seed: int, scratch: str, workers: int) -> None:
        super().__init__(seed, scratch, workers)
        self.pool = [Design(c, s, derived_seed(seed, "jobs", c, k))
                     for c, s in self.scales.items()
                     for k in range(self.DESIGNS)]
        rng = random.Random(derived_seed(seed, "jobs", "order"))
        self.published = rng.sample(self.pool, self.published_count)
        self._order_rng = rng
        self._cold_order: List[Design] = []
        self.cache_dir = os.path.join(scratch, "cache")
        self.out_dir = os.path.join(scratch, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        self._netlists: Dict[Design, Netlist] = {}
        self._placements: Dict[str, Tuple[Placement, PlacementConfig]] = {}

    # -- inputs ---------------------------------------------------------------
    def is_hit(self, index: int) -> bool:
        return index % 4 == 3

    def design(self, index: int) -> Design:
        """Cold requests walk seeded permutations of the whole pool, so
        every run sees the same mix; every fourth request re-submits a
        published design."""
        if self.is_hit(index):
            return self.published[(index // 4) % len(self.published)]
        cold = index - index // 4
        while len(self._cold_order) <= cold:
            block = list(self.pool)
            self._order_rng.shuffle(block)
            self._cold_order.extend(block)
        return self._cold_order[cold]

    def describe(self, index: int) -> Tuple[str, ...]:
        d = self.design(index)
        return ("hit" if self.is_hit(index) else "cold", d.circuit,
                f"{d.scale:g}", str(d.seed))

    def _out(self, tag: str) -> str:
        return os.path.join(self.out_dir, tag)

    def _cli(self, argv: List[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return int(repro.cli.main(argv))

    # -- set-up ---------------------------------------------------------------
    def setup(self) -> None:
        """Warm up, then publish the designs the hit requests re-submit."""
        warm = Design("ibm01", self.warm_scale, self.seed)
        self._cli(warm.argv() + ["--out", self._out("warm")])
        for k, design in enumerate(self.published):
            code = self._cli(design.argv() + [
                "--cache-dir", self.cache_dir,
                "--out", self._out(f"published-{k}")])
            if code != 0:
                raise RuntimeError(f"publishing {design} exited {code}")

    # -- the timed call -------------------------------------------------------
    def run_job(self, index: int, tag: str,
                recorder: Optional[Recorder] = None,
                workers: Optional[int] = None) -> Any:
        argv = self.design(index).argv() + ["--out", self._out(tag)]
        if self.is_hit(index):
            argv += ["--cache-dir", self.cache_dir]
        if recorder is None:
            return self._cli(argv)
        with use_recorder(recorder):
            return self._cli(argv)

    # -- after the timed region -----------------------------------------------
    def _netlist(self, design: Design) -> Netlist:
        if design not in self._netlists:
            self._netlists[design] = suite.load_benchmark(
                design.circuit, scale=design.scale, seed=design.seed)
        return self._netlists[design]

    def _placement(self, index: int, tag: str
                   ) -> Tuple[Placement, PlacementConfig]:
        if tag in self._placements:
            return self._placements[tag]
        design = self.design(index)
        netlist = self._netlist(design)
        config = PlacementConfig(alpha_ilv=1e-5, seed=design.seed)
        positions = read_pl(self._out(tag) + ".pl", netlist)
        x = np.zeros(netlist.num_cells)
        y = np.zeros(netlist.num_cells)
        z = np.zeros(netlist.num_cells, dtype=np.int64)
        for cell in netlist.cells:
            x[cell.id], y[cell.id], z[cell.id] = positions[cell.name]
        self._placements[tag] = (
            Placement(netlist, auto_chip(netlist, config), x, y, z), config)
        return self._placements[tag]

    def cells(self, index: int, tag: str, output: Any) -> int:
        return self._netlist(self.design(index)).num_cells

    def check(self, index: int, tag: str, output: Any) -> None:
        if output != 0:
            raise CheckFailed(f"repro place exited {output}")
        if self.is_hit(index):
            k = self.published.index(self.design(index))
            with open(self._out(f"published-{k}") + ".pl", "rb") as fh:
                published = fh.read()
            with open(self._out(tag) + ".pl", "rb") as fh:
                if fh.read() != published:
                    raise CheckFailed("cache hit returned a placement "
                                      "other than the published one")
        placement, config = self._placement(index, tag)
        try:
            check_legal(placement)
        except AssertionError as exc:
            raise CheckFailed(f"illegal placement: {exc}") from exc
        _check_objective(ObjectiveState(placement, config).total)

    def score(self, index: int, tag: str, output: Any) -> Dict[str, float]:
        placement, config = self._placement(index, tag)
        report = evaluate_placement(placement, config.tech)
        return {"objective": ObjectiveState(placement, config).total,
                "hpwl_m": report.wirelength, "ilv": float(report.ilv),
                "peak_temp_k": report.max_temperature}


WORKLOAD_CLASSES = {"flow": FlowWorkload, "thermal": ThermalWorkload,
                    "global-large": GlobalLargeWorkload,
                    "jobs": JobsWorkload}


def make_workload(name: str, seed: int, scratch: str) -> Workload:
    """The workload ``name`` for ``seed``; a parallel one gets
    ``min(2, nproc)`` workers, the rest run serially."""
    cls = WORKLOAD_CLASSES[name]
    workers = min(2, nproc()) if cls.parallel else 1
    return cls(seed, scratch, workers)


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
