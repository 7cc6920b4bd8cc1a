"""One workload in a fresh interpreter (started by ``run.py``).

Modes:

* ``setup``  - import, build inputs, warm up; record when the first job
  is ready, then exit.  ``run.py`` repeats it to take a median set-up.
* ``timed``  - set up, then run jobs closed-loop until ``--seconds`` have
  passed, with tracing off.  Outputs are checked and scored afterwards.
* ``traced`` - set up and run ``--jobs`` jobs with the span wrappers
  installed and a ``Recorder`` per job; derive the per-layer metrics.
  A parallel workload runs its traced jobs at 1 worker (span
  attribution: spans do not cross processes) and again at its own
  worker count (``parallel.*``).

The result is one JSON document written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

import numpy as np
import scipy

from layers import derive_layers
from stats import median
from tracing import Installation, Tracer, install, job_scope, vm_hwm_mb
from workloads import CheckFailed, make_workload, nproc
from repro.netlist.cache import netlist_cache_stats
from repro.obs import Recorder


def fingerprint(workers: int) -> Dict[str, Any]:
    """The machine and library versions a result was measured with."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cpus = nproc()
    return {"nproc": cpus, "cpu_model": model,
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "workers": workers, "oversubscribed": workers > cpus}


class Job:
    """One attempted job: its timing, output and verdict."""

    def __init__(self, index: int, phase: str) -> None:
        self.index = index
        self.phase = phase
        self.seconds = 0.0
        self.output: Any = None
        self.error = ""
        self.cells = 0
        self.quality: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}

    @property
    def tag(self) -> str:
        return f"{self.phase}-{self.index}"

    def to_json(self) -> Dict[str, Any]:
        return {"index": self.index, "phase": self.phase,
                "seconds": self.seconds, "cells": self.cells,
                "error": self.error, "quality": self.quality}


def run_one(workload: Any, job: Job, tracer: Optional[Tracer] = None,
            workers: Optional[int] = None) -> Job:
    """Run a job; an exception is recorded as the job's failure."""
    recorder = Recorder() if tracer is not None else None
    start = time.perf_counter()
    try:
        job.output = job_scope(tracer, job.tag, workload.run_job,
                               job.index, job.tag, recorder, workers)
    except Exception:  # a failing job is counted, the run continues
        job.error = traceback.format_exc(limit=3)
    job.seconds = time.perf_counter() - start
    if recorder is not None:
        job.counters = dict(recorder.snapshot().counters)
    return job


def run_for(workload: Any, seconds: float) -> List[Job]:
    """Closed loop: start jobs until ``seconds`` have passed."""
    jobs: List[Job] = []
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < seconds:
        jobs.append(run_one(workload, Job(len(jobs), "timed")))
    return jobs


def check_and_score(workload: Any, jobs: List[Job]) -> None:
    """Outside every timed region: check each output, score quality."""
    for job in jobs:
        if job.error:
            continue
        try:
            workload.check(job.index, job.tag, job.output)
            job.cells = workload.cells(job.index, job.tag, job.output)
            job.quality = workload.score(job.index, job.tag, job.output)
        except CheckFailed as exc:
            job.error = f"check failed: {exc}"


def quality(jobs: List[Job]) -> Dict[str, float]:
    good = [j for j in jobs if not j.error]
    keys = ("objective", "hpwl_m", "ilv", "peak_temp_k")
    return {k: float(np.mean([j.quality[k] for j in good])) if good
            else 0.0 for k in keys}


def same_placement(a: Any, b: Any) -> bool:
    pa, pb = a.placement, b.placement
    return (np.array_equal(pa.x, pb.x) and np.array_equal(pa.y, pb.y)
            and np.array_equal(pa.z, pb.z))


def timed(workload: Any, seconds: float) -> Dict[str, Any]:
    start = time.perf_counter()
    jobs = run_for(workload, seconds)
    wall = time.perf_counter() - start
    peak = vm_hwm_mb()
    check_and_score(workload, jobs)
    return {"wall_s": wall, "peak_rss_mb": peak,
            "jobs": [j.to_json() for j in jobs],
            "quality": quality(jobs)}


def traced(workload: Any, count: int, tracer: Tracer, inst: Installation,
           scratch: str) -> Dict[str, Any]:
    """Jobs ``0 .. count - 1`` under the installed wrappers, which are
    removed before scoring.  A parallel workload runs the jobs at 1
    worker (attribution), then again at its own worker count
    (``parallel.*``), and the two placements must agree."""
    parallel = workload.parallel
    workers = workload.workers
    attributed = [run_one(workload, Job(i, "traced"), tracer,
                          1 if parallel else None) for i in range(count)]
    dispatched = ([run_one(workload, Job(i, "parallel"), tracer, workers)
                   for i in range(count)] if parallel else [])
    inst.uninstall()
    every = attributed + dispatched
    check_and_score(workload, every)
    for one, many in zip(attributed, dispatched):
        if not (one.error or many.error
                or same_placement(one.output, many.output)):
            many.error = (f"check failed: {workers}-worker placement "
                          f"differs from the 1-worker placement")
    layers = derive_layers(
        tracer.spans,
        attributed=[j.tag for j in attributed],
        counters=[j.counters for j in attributed],
        parallel_jobs=[j.tag for j in dispatched],
        parallel_counters=[j.counters for j in dispatched],
        kinds=({j.tag: ("hit" if workload.is_hit(j.index) else "cold")
                for j in attributed} if workload.name == "jobs" else {}),
        netlist_cache=netlist_cache_stats())
    spans_path = os.path.join(scratch, "spans.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh)
    return {"jobs": [j.to_json() for j in every], "layers": layers,
            "traced_p50": median([j.seconds
                                  for j in dispatched or attributed]),
            "spans_path": spans_path, "span_count": len(tracer.spans)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="timed mode: how long to start jobs")
    parser.add_argument("--jobs", type=int, default=1,
                        help="traced mode: how many jobs to trace")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    os.makedirs(args.scratch, exist_ok=True)
    workload = make_workload(args.workload, args.seed, args.scratch)
    tracer = Tracer()
    inst = install(tracer) if args.mode == "traced" else None
    try:
        job_scope(tracer if inst else None, "setup", workload.setup)
        ready = time.monotonic()
        doc: Dict[str, Any] = {"ready_monotonic": ready,
                               "fingerprint": fingerprint(workload.workers)}
        if args.mode == "timed":
            doc.update(timed(workload, args.seconds))
        elif args.mode == "traced":
            doc.update(traced(workload, args.jobs, tracer, inst,
                              args.scratch))
    finally:
        if inst is not None:
            inst.uninstall()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
