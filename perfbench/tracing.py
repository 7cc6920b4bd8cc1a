"""Spans recorded from outside the program, around its public entry
points.

``install(tracer)`` wraps each entry point the per-layer metrics need,
where its callers look it up: class attributes for methods, and every
loaded ``repro.*`` module attribute bound to a function (so
``from repro.core.netweights import compute_net_weights`` in
``globalplace`` sees the wrapper too).  ``uninstall`` restores the
originals.  Nothing under ``src/`` is edited.

Spans stay in memory (``Tracer.spans``) and are written out once, when
the run ends.  Each records its name, start, end, parent index and the
job it ran under.  Stage spans also reset the kernel's peak-RSS counter
(VmHWM) on entry through ``/proc/self/clear_refs`` and read it on exit,
so each stage reports its own memory peak.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from stats import interval_union


def vm_hwm_mb() -> float:
    """This process's peak resident set (VmHWM), MB; 0.0 if unknown."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def reset_vm_hwm() -> bool:
    """Reset VmHWM to the current RSS; whether the kernel accepted it."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


@dataclass
class Span:
    """One timed call."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    job: str = ""
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.job = ""
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               job=self.job))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        assert popped == index, "spans closed out of order"

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def to_json(self) -> List[Dict[str, Any]]:
        return [asdict(s) for s in self.spans]


def self_seconds(spans: List[Span], index: int) -> float:
    """A span's duration minus the part its children cover.  Children
    may overlap one another; their union is subtracted once."""
    span = spans[index]
    children = [(s.start, s.end) for s in spans if s.parent == index]
    return span.seconds - interval_union(children, span.start, span.end)


# -- entry points -------------------------------------------------------------

def _span_wrapper(tracer: Tracer, name: str,
                  fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(name, fn, *args, **kwargs)
    return wrapper


def _stage_wrapper(tracer: Tracer, name: str,
                   fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        reset_ok = reset_vm_hwm()
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
            tracer.spans[index].extra.update(
                peak_rss_mb=vm_hwm_mb(), hwm_reset=reset_ok)
    return wrapper


def _engine_close_wrapper(tracer: Tracer, name: str,
                          fn: Callable[..., Any]) -> Callable[..., Any]:
    """``PlacementEngine.close``: keep the engine's service counters."""
    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        counters = self.counters()
        index = tracer.open(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.close(index)
            tracer.spans[index].extra["counters"] = counters
    return wrapper


def _method_points() -> List[Tuple[type, str, str]]:
    from repro.core.objective import ObjectiveState
    from repro.core.placer import Placer3D
    from repro.service.engine import PlacementEngine
    from repro.thermal.fidelity import ThermalFidelityPolicy
    from repro.thermal.solver import ThermalSolver
    from repro.thermal.surrogate import SurrogateThermalModel
    return [
        (Placer3D, "run", "placer.run"),
        (ObjectiveState, "__init__", "objective.build"),
        (ObjectiveState, "eval_moves_batch", "objective.eval_batch"),
        (ObjectiveState, "eval_swaps_batch", "objective.eval_batch"),
        (ThermalFidelityPolicy, "evaluate", "thermal.evaluate"),
        (ThermalSolver, "solve_powers", "thermal.solve"),
        (SurrogateThermalModel, "calibrate", "thermal.calibrate"),
        (PlacementEngine, "submit", "service.submit"),
        (PlacementEngine, "try_cache", "service.try_cache"),
        (PlacementEngine, "run_inline", "service.run_inline"),
        (PlacementEngine, "close", "service.close"),
    ]


def _function_points() -> List[Tuple[Callable[..., Any], str]]:
    import repro.cli
    from repro.core.netweights import compute_net_weights
    from repro.netlist.cache import cached_netlist
    from repro.netlist.suite import load_benchmark
    from repro.partition.multilevel import bisect
    return [
        (bisect, "partition.bisect"),
        (compute_net_weights, "netweights"),
        (load_benchmark, "netlist.load"),
        (cached_netlist, "netlist.cached"),
        (repro.cli.main, "cli.main"),
    ]


class Installation:
    """The wrappers one ``install`` call put in place."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every traced entry point; returns the handle to undo it."""
    from repro.core.stages import available_stages, get_stage
    inst = Installation()
    for stage_name in available_stages():
        cls = get_stage(stage_name)
        if "run" in vars(cls):
            inst.patch(cls, "run", _stage_wrapper(
                tracer, f"stage.{stage_name}", vars(cls)["run"]))
    for cls, attr, name in _method_points():
        make = (_engine_close_wrapper if name == "service.close"
                else _span_wrapper)
        inst.patch(cls, attr, make(tracer, name, vars(cls)[attr]))
    for fn, name in _function_points():
        wrapper = _span_wrapper(tracer, name, fn)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    inst.patch(module, attr, wrapper)
    return inst


def job_scope(tracer: Optional[Tracer], job: str,
              fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Run ``fn`` as job ``job``: under a root ``job`` span when
    tracing, as a plain call otherwise."""
    if tracer is None:
        return fn(*args, **kwargs)
    tracer.job = job
    try:
        return tracer.call("job", fn, *args, **kwargs)
    finally:
        tracer.job = ""
