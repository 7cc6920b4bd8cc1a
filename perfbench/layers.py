"""Per-layer metrics from the spans and counters of a traced run.

Times are seconds per job, summed over a layer's outermost spans (a
span nested in another of the same layer is not counted twice).
Counts are per job.  Ratios carry their base.  A layer the workload
bypasses reads 0 with an empty base.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set

from stats import divide, median
from tracing import Span, self_seconds

STAGES = ("global", "moves", "cellshift", "detailed", "refine")

#: Every per-layer metric with its unit, in report order.
UNITS: Dict[str, str] = {
    "netlist.load_s": "s", "netlist.cache_hit_ratio": "ratio",
    "global.s": "s", "global.peak_rss_mb": "MB",
    "global.bisections": "count",
    "partition.bisect_s": "s", "fm.passes": "count",
    "fm.rolled_back_moves": "count", "fm.kept_ratio": "ratio",
    "parallel.tasks": "count", "parallel.bytes_per_task": "B",
    "parallel.speedup": "x",
    "objective.build_s": "s", "objective.eval_batch_s": "s",
    "objective.eval_batch_calls": "count",
    "moves.s": "s", "moves.peak_rss_mb": "MB", "moves.candidates": "count",
    "moves.executed_ratio": "ratio",
    "cellshift.s": "s", "cellshift.iterations": "count",
    "cellshift.peak_rss_mb": "MB",
    "detailed.s": "s", "detailed.peak_rss_mb": "MB",
    "refine.s": "s", "refine.accepted": "count", "refine.peak_rss_mb": "MB",
    "thermal.evaluate_s": "s", "thermal.solve_s": "s",
    "thermal.solves": "count", "thermal.calibrate_s": "s",
    "thermal.lu_hit_ratio": "ratio", "netweights.s": "s",
    "service.submit_s": "s", "service.cache_fetch_s": "s",
    "service.overhead_s": "s", "service.cache_hit_ratio": "ratio",
    "service.cold_s_p50": "s", "service.hit_s_p50": "s",
    "cli.import_s": "s",
    "obs.trace_overhead_pct": "%", "unattributed_s": "s",
}


def _counter_sum(counters: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    total: Dict[str, float] = defaultdict(float)
    for one in counters:
        for key, value in one.items():
            total[key] += value
    return total


class SpanIndex:
    """Spans grouped for the queries below."""

    def __init__(self, spans: List[Span]) -> None:
        self.spans = spans

    def outermost(self, names: Set[str], jobs: Optional[Set[str]] = None
                  ) -> List[int]:
        """Indices of spans named in ``names`` (of ``jobs``, if given)
        with no ancestor also named in ``names``."""
        found = []
        for i, span in enumerate(self.spans):
            if span.name not in names or (jobs is not None
                                          and span.job not in jobs):
                continue
            parent = span.parent
            while parent >= 0 and self.spans[parent].name not in names:
                parent = self.spans[parent].parent
            if parent < 0:
                found.append(i)
        return found

    def seconds(self, names: Set[str], jobs: Set[str]) -> float:
        return sum(self.spans[i].seconds for i in self.outermost(names, jobs))

    def within(self, root: int, names: Set[str]) -> List[int]:
        """Descendants of span ``root`` named in ``names``."""
        found = []
        for i in range(root + 1, len(self.spans)):
            span = self.spans[i]
            if span.start > self.spans[root].end:
                break
            parent = span.parent
            while parent > root:
                parent = self.spans[parent].parent
            if parent == root and span.name in names:
                found.append(i)
        return found


def derive_layers(spans: List[Span], *, attributed: List[str],
                  counters: List[Mapping[str, float]],
                  parallel_jobs: List[str],
                  parallel_counters: List[Mapping[str, float]],
                  kinds: Mapping[str, str],
                  netlist_cache: Mapping[str, int]) -> Dict[str, Any]:
    """Every per-layer metric except ``cli.import_s`` and
    ``obs.trace_overhead_pct``, which need other processes or phases.

    Args:
        spans: every span of the traced session.
        attributed: tags of the jobs traced in-process (1 worker for a
            parallel workload), which all attribution comes from.
        counters: the ``Recorder`` counters of each attributed job.
        parallel_jobs / parallel_counters: the same jobs traced at the
            workload's worker count (empty for a serial workload).
        kinds: ``cold`` / ``hit`` per attributed job (``jobs``).
        netlist_cache: the session's ``NetlistCache`` stats.
    """
    idx = SpanIndex(spans)
    jobs = set(attributed)
    n = len(attributed)
    c = _counter_sum(counters)
    out: Dict[str, Any] = {}

    def put(name: str, value: float, base: str = "") -> None:
        out[name] = {"value": float(value), "unit": UNITS[name],
                     "base": base or (f"per job, {n} jobs" if value else "")}

    def put_ratio(name: str, num: float, den: float, what: str) -> None:
        put(name, divide(num, den),
            f"{what} {num:g} / {den:g}" if den else "")

    def per_job_s(*names: str) -> float:
        return divide(idx.seconds(set(names), jobs), n)

    def put_peak(stage: str) -> None:
        runs = idx.outermost({f"stage.{stage}"}, jobs)
        reset = all(spans[i].extra.get("hwm_reset") for i in runs)
        put(f"{stage}.peak_rss_mb",
            max((spans[i].extra["peak_rss_mb"] for i in runs), default=0.0),
            f"max over {len(runs)} stage runs, VmHWM reset at entry "
            f"{'worked' if reset else 'FAILED: process peak'}"
            if runs else "")

    loads = idx.outermost({"netlist.load", "netlist.cached"})
    put("netlist.load_s",
        divide(sum(spans[i].seconds for i in loads), len(loads)),
        f"mean of {len(loads)} loads" if loads else "")
    put_ratio("netlist.cache_hit_ratio", netlist_cache.get("hits", 0),
              netlist_cache.get("hits", 0) + netlist_cache.get("misses", 0),
              "hits / lookups")

    for stage in STAGES:
        put(f"{stage}.s", per_job_s(f"stage.{stage}"))
        put_peak(stage)
    put("global.bisections", divide(c["global/bisections"], n))

    put("partition.bisect_s", per_job_s("partition.bisect"))
    put("fm.passes", divide(c["fm/passes"], n))
    put("fm.rolled_back_moves", divide(c["fm/rolled_back_moves"], n))
    put_ratio("fm.kept_ratio", c["fm/kept_moves"],
              c["fm/kept_moves"] + c["fm/rolled_back_moves"],
              "kept / (kept + rolled back)")

    pc = _counter_sum(parallel_counters) if parallel_jobs else c
    pn = len(parallel_jobs) if parallel_jobs else n
    put("parallel.tasks", divide(pc["parallel/tasks"], pn))
    put_ratio("parallel.bytes_per_task", pc["parallel/dispatch_bytes"],
              pc["parallel/tasks"], "dispatch bytes / tasks")
    if parallel_jobs:
        serial = idx.seconds({"stage.global"}, jobs)
        many = idx.seconds({"stage.global"}, set(parallel_jobs))
        put_ratio("parallel.speedup", serial, many,
                  "global s at 1 worker / at the workload's workers")
    else:
        put("parallel.speedup", 0.0)

    put("objective.build_s", per_job_s("objective.build"))
    put("objective.eval_batch_s", per_job_s("objective.eval_batch"))
    put("objective.eval_batch_calls",
        divide(len(idx.outermost({"objective.eval_batch"}, jobs)), n))

    put("moves.candidates", divide(c["moves/candidates"], n))
    put_ratio("moves.executed_ratio", c["moves/executed"],
              c["moves/candidates"], "executed / candidates")
    put("cellshift.iterations", divide(c["cellshift/total_iterations"], n))
    put("refine.accepted", divide(
        c["refine/adjacent_swaps"] + c["refine/equal_width_swaps"]
        + c["refine/gap_moves"], n))

    put("thermal.evaluate_s", per_job_s("thermal.evaluate"))
    put("thermal.solve_s", per_job_s("thermal.solve"))
    put("thermal.solves",
        divide(len(idx.outermost({"thermal.solve"}, jobs)), n))
    put("thermal.calibrate_s", per_job_s("thermal.calibrate"))
    lu_hits = c["thermal/lu_hit"] + c["thermal/lu_shared_hit"]
    put_ratio("thermal.lu_hit_ratio", lu_hits, lu_hits + c["thermal/lu_miss"],
              "LU reuses / factor lookups")
    put("netweights.s", per_job_s("netweights"))

    put("service.submit_s", per_job_s("service.submit"))
    put("service.cache_fetch_s", per_job_s("service.try_cache"))
    engine: Dict[str, float] = _counter_sum(
        spans[i].extra.get("counters", {})
        for i in idx.outermost({"service.close"}, jobs))
    put_ratio("service.cache_hit_ratio", engine["cache/hit"],
              engine["cache/hit"] + engine["cache/miss"], "hits / lookups")
    cold: List[float] = []
    hit: List[float] = []
    overhead: List[float] = []
    for i in idx.outermost({"cli.main"}, jobs):
        wall = spans[i].seconds
        if kinds.get(spans[i].job) == "hit":
            hit.append(wall)
        else:
            cold.append(wall)
            placed = sum(spans[j].seconds
                         for j in idx.within(i, {"placer.run"}))
            overhead.append(wall - placed)
    put("service.overhead_s", median(overhead),
        f"median over {len(overhead)} cold jobs" if overhead else "")
    put("service.cold_s_p50", median(cold),
        f"{len(cold)} cold jobs" if cold else "")
    put("service.hit_s_p50", median(hit),
        f"{len(hit)} cache hits" if hit else "")

    unattributed = 0.0
    for root in idx.outermost({"job"}, jobs):
        unattributed += self_seconds(spans, root)
        for i in idx.within(root, {"placer.run"}):
            unattributed += self_seconds(spans, i)
    put("unattributed_s", divide(unattributed, n),
        f"self time of job and placer.run spans, per job, {n} jobs")
    return out
