"""Multilevel hypergraph bisection (our stand-in for hMetis [15]).

The paper's global placer calls hMetis for every recursive bisection.
hMetis is closed-source, so this subpackage implements the same
functionality from scratch:

- :class:`~repro.partition.hypergraph.Hypergraph` — weighted hypergraphs
  with fixed (terminal-propagated) vertices and contraction;
- :mod:`~repro.partition.fm` — Fiduccia–Mattheyses refinement with
  float net weights, balance tolerance, lazy-deletion heaps per side
  and weight class, and an early pass exit;
- :mod:`~repro.partition.multilevel` — heavy-edge coarsening, portfolio
  initial partitioning and V-cycle refinement;
- :mod:`~repro.partition.subproblem` — picklable
  :class:`~repro.partition.subproblem.BisectionTask` payloads for the
  parallel execution backend (:mod:`repro.parallel`).

The entry point is :func:`~repro.partition.multilevel.bisect`; parallel
callers serialize work as tasks and run
:func:`~repro.partition.subproblem.solve` on a backend.
"""

from repro.partition.hypergraph import Hypergraph
from repro.partition.fm import FMRefiner, cut_cost
from repro.partition.multilevel import BisectionConfig, bisect
from repro.partition.subproblem import (BisectionTask, solve,
                                        solve_recorded)

__all__ = ["Hypergraph", "FMRefiner", "cut_cost",
           "BisectionConfig", "bisect",
           "BisectionTask", "solve", "solve_recorded"]
