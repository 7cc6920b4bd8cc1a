"""Domain AST lint rules for the placement-kernel invariants.

Generic tools (ruff, mypy) cannot see the repo-specific contracts the
kernel layer depends on; these single-module rules enforce them as hard
CI gates.  They run as one pass of the whole-program analyzer
(``python -m tools.analysis src/repro``), or alone as
``python -m tools.analysis.lintrules src/repro``.

Rules (each documented in DESIGN.md "Static analysis & contracts"):

======== ==============================================================
RPL001   No writes to another object's underscore attribute.  Kernel
         state (``ObjectiveState._wl`` etc.) is mutated only through
         its owner's methods, which keep the incremental caches
         coherent; ``obj._total = x`` from outside corrupts silently.
RPL002   Every NumPy array allocation in a kernel module passes an
         explicit ``dtype=`` keyword.  Default dtypes are
         platform-shaped and invisible in review; CSR index arrays
         must be int64 and coordinate arrays float64.
RPL003   No ``==``/``!=`` against float literals.  Use the
         ``repro.analysis.tolerance`` helpers, which force the writer
         to state whether the comparison is tolerance-based or
         intentionally bit-exact.
RPL004   No legacy ``np.random.*`` module-level calls.  All randomness
         flows through seeded ``np.random.default_rng`` Generators so
         placements are reproducible bit-for-bit.
RPL005   No Python ``for``/``while`` loops inside functions marked
         ``@hot_path``.  The batched kernels must stay vectorized; a
         stray scalar loop is a 10-100x regression that still passes
         every functional test.
RPL006   No bare ``except:``.  It swallows ``KeyboardInterrupt`` and
         hides kernel assertion failures.
RPL007   No mutable default argument values.
RPL008   Every ``def`` carries a return annotation (the
         ``mypy --strict`` gate needs them; this catches new code even
         when mypy is unavailable locally).
RPL009   No direct ``time.perf_counter()`` / ``perf_counter_ns()``
         calls outside ``repro.obs``.  All timing flows through the
         observability layer (``Stopwatch``, ``Tracer``, ``Recorder``)
         so spans stay coherent and clocks stay injectable in tests.
RPL010   No direct instantiation of pipeline stage classes
         (``*Stage(...)``) outside the stage registry and the pipeline
         runner.  Stages are created via ``create_stage(name, opts)``
         so specs, checkpoints and the CLI all see one catalogue; a
         hand-built instance bypasses registration and option
         validation.
RPL011   No direct ``multiprocessing`` / ``concurrent.futures``
         imports outside ``repro.parallel``.  Process management lives
         behind the execution-backend abstraction so worker counts,
         seeding and telemetry merging stay consistent; an ad-hoc pool
         silently breaks the bit-identical-results contract.
RPL012   No direct ``repro.thermal.solver`` imports from ``repro.core``
         hot paths.  Temperature-field evaluations route through the
         thermal fidelity policy (``PlacementContext.thermal_policy``)
         so the ``thermal_fidelity`` config knob governs every
         evaluation; a directly instantiated ``ThermalSolver`` in a
         stage or move loop silently bypasses the surrogate, the drift
         checks and the per-fidelity telemetry.
RPL013   No ``time.time()`` / ``datetime.now()`` / ``utcnow()`` /
         ``today()`` outside ``repro.obs``.  Timestamps belong to the
         observability layer (``repro.obs.wall_time``): a wall-clock
         read anywhere else is either telemetry that bypasses the obs
         layer or — worse — state that leaks into placement decisions
         and silently breaks bit-identical resume.
RPL014   No direct ``socket`` / ``selectors`` imports outside
         ``repro.service``.  Network transport belongs to the service
         layer's RPC module: an ad-hoc socket elsewhere bypasses the
         job store's state machine and the engine's permissioned API
         surface, and cannot be exercised by the service smoke tests.
RPL015   No ``multiprocessing.shared_memory`` imports outside
         ``repro.parallel.shared``.  Segment lifecycle (create /
         attach / resource-tracker bookkeeping / unlink) is owned by
         ``SharedArrayPool``; an ad-hoc ``SharedMemory`` elsewhere
         leaks segments on crash paths and double-unregisters with
         the fork-shared resource tracker.
======== ==============================================================

Any rule can be waived on a specific line with an inline comment
carrying a justification::

    x == 0.0  # lint: ok[RPL003] comparing a cache against itself

A waiver without a justification is itself an error (RPL000).  The
waiver may sit on the flagged line or on the line directly above it.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
import tokenize
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: Modules holding vectorized kernels, where implicit dtypes are banned
#: (matched as path suffixes, so fixtures and absolute paths both work).
KERNEL_MODULE_SUFFIXES: Tuple[str, ...] = (
    "core/objective.py",
    "core/moves.py",
    "core/cellshift.py",
    "core/detailed.py",
    "core/refine.py",
    "partition/fm.py",
    "thermal/solver.py",
    "thermal/surrogate.py",
    "geometry/density.py",
)

#: NumPy constructors that allocate a fresh array whose dtype must be
#: spelled out.  The ``*_like`` family inherits its dtype from the
#: template argument, which is already explicit, so it is exempt.
ALLOCATORS: Tuple[str, ...] = (
    "array", "asarray", "ascontiguousarray", "zeros", "empty", "ones",
    "full", "arange", "fromiter", "frombuffer", "linspace",
)

#: ``np.random`` attributes that are fine to call: the seeded-Generator
#: construction path, not the hidden global state.
RANDOM_ALLOWED: Tuple[str, ...] = ("default_rng", "Generator",
                                   "SeedSequence", "PCG64")

RULES: Dict[str, str] = {
    "RPL000": "lint waiver without a justification",
    "RPL001": "write to another object's underscore attribute",
    "RPL002": "array allocation without explicit dtype= in kernel module",
    "RPL003": "==/!= against a float literal (use repro.analysis.tolerance)",
    "RPL004": "legacy np.random.* global-state call (use default_rng)",
    "RPL005": "Python loop inside a @hot_path kernel function",
    "RPL006": "bare except:",
    "RPL007": "mutable default argument value",
    "RPL008": "def without a return annotation",
    "RPL009": "direct time.perf_counter() outside repro.obs "
              "(use repro.obs.Stopwatch / Recorder spans)",
    "RPL010": "direct stage-class instantiation outside the registry "
              "(use repro.core.stages.create_stage)",
    "RPL011": "direct multiprocessing/concurrent.futures import outside "
              "repro.parallel (use the execution-backend abstraction)",
    "RPL012": "direct repro.thermal.solver import in a repro.core hot "
              "path (route through the thermal fidelity policy)",
    "RPL013": "wall-clock read (time.time/datetime.now) outside "
              "repro.obs (use repro.obs.wall_time)",
    "RPL014": "direct socket/selectors import outside repro.service "
              "(talk to the service through ServiceClient or the "
              "engine API)",
    "RPL015": "direct multiprocessing.shared_memory import outside "
              "repro.parallel.shared (segment lifecycle is owned by "
              "SharedArrayPool)",
}

#: Top-level modules only ``repro.parallel`` may import (RPL011).
PROCESS_MODULES: Tuple[str, ...] = ("multiprocessing", "concurrent")

#: Modules allowed to import process machinery directly (RPL011): the
#: execution-backend package itself.
PARALLEL_BACKEND_SUFFIXES: Tuple[str, ...] = (
    "repro/parallel/__init__.py",
    "repro/parallel/shared.py",
)

#: The one module allowed to import ``multiprocessing.shared_memory``
#: (RPL015): the zero-copy dispatch arena that owns segment lifecycle.
SHARED_MEMORY_SUFFIXES: Tuple[str, ...] = (
    "repro/parallel/shared.py",
)

#: Top-level modules only ``repro.service`` may import (RPL014).
SOCKET_MODULES: Tuple[str, ...] = ("socket", "selectors")

#: Modules allowed to import socket machinery directly (RPL014): the
#: service package (its ``rpc.py`` owns the transport).
SERVICE_MODULE_FRAGMENT = "repro/service/"

#: Modules allowed to instantiate stage classes directly (RPL010): the
#: registry that defines them and the runner that executes specs.
STAGE_FACTORY_SUFFIXES: Tuple[str, ...] = (
    "core/stages.py",
    "core/pipeline.py",
)

_STAGE_CLASS_RE = re.compile(r"^[A-Z]\w*Stage$")

#: ``time`` attributes that only the observability layer may call
#: directly; everything else goes through ``repro.obs``.
TIMER_FUNCTIONS: Tuple[str, ...] = ("perf_counter", "perf_counter_ns")

#: ``time`` attributes that read the wall clock (RPL013).
WALLCLOCK_TIME_FUNCTIONS: Tuple[str, ...] = ("time", "time_ns")

#: ``datetime``/``date`` classmethods that read the wall clock (RPL013).
WALLCLOCK_DATETIME_METHODS: Tuple[str, ...] = ("now", "utcnow", "today")

_WAIVER_RE = re.compile(r"#\s*lint:\s*ok\[(RPL\d{3})\]\s*(.*)$")


@dataclass(frozen=True)
class Violation:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} " \
               f"{self.message}"


def _collect_waivers(source: str) -> Tuple[Dict[int, str], List[Violation]]:
    """Map line -> waived rule id; flag justification-free waivers.

    Waivers are read from the token stream (not the raw text) so string
    literals that merely *mention* the syntax do not count.
    """
    waivers: Dict[int, str] = {}
    errors: List[Violation] = []
    try:
        tokens = list(tokenize.generate_tokens(StringIO(source).readline))
    except tokenize.TokenError:
        return waivers, errors
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _WAIVER_RE.search(tok.string)
        if not match:
            continue
        rule, reason = match.group(1), match.group(2).strip()
        if not reason:
            errors.append(Violation("", tok.start[0], tok.start[1],
                                    "RPL000", RULES["RPL000"]))
            continue
        waivers[tok.start[0]] = rule
    return waivers, errors


def is_kernel_module(path: str) -> bool:
    """Whether a path belongs to the designated kernel-module set."""
    normalized = path.replace("\\", "/")
    return normalized.endswith(KERNEL_MODULE_SUFFIXES)


def is_stage_factory(path: str) -> bool:
    """Whether a path may instantiate stage classes directly (RPL010)."""
    normalized = path.replace("\\", "/")
    return normalized.endswith(STAGE_FACTORY_SUFFIXES)


def is_parallel_backend(path: str) -> bool:
    """Whether a path may import process machinery directly (RPL011)."""
    normalized = path.replace("\\", "/")
    return normalized.endswith(PARALLEL_BACKEND_SUFFIXES)


def is_shared_memory_owner(path: str) -> bool:
    """Whether a path may import shared_memory directly (RPL015)."""
    normalized = path.replace("\\", "/")
    return normalized.endswith(SHARED_MEMORY_SUFFIXES)


def is_service_module(path: str) -> bool:
    """Whether a path may import socket machinery directly (RPL014)."""
    normalized = path.replace("\\", "/")
    return SERVICE_MODULE_FRAGMENT in normalized


def is_core_hot_path(path: str) -> bool:
    """Whether a path belongs to ``repro.core`` (RPL012 scope).

    The whole engine package counts as hot-path territory: the only
    sanctioned exact-solver entry point inside it is the fidelity
    policy held by the placement context, which itself lives in
    ``repro.thermal`` and is therefore out of scope.
    """
    normalized = "/" + path.replace("\\", "/")
    return "/core/" in normalized


def is_timing_exempt(path: str) -> bool:
    """Whether a path may call ``time.perf_counter`` directly (RPL009).

    Only the observability layer itself owns raw clocks; every other
    module times work through ``repro.obs``.
    """
    normalized = path.replace("\\", "/")
    return "repro/obs/" in normalized


#: Rules applied in timing-only scope (plus waiver hygiene, RPL000).
TIMING_SCOPE_RULES = frozenset({"RPL000", "RPL009", "RPL013"})


def is_timing_only_scope(path: str) -> bool:
    """Whether a path is linted for the timing rules only.

    ``benchmarks/`` is measurement harness code, not pipeline code:
    the kernel-contract rules (vectorization, logging, stage factory
    discipline …) intentionally do not apply there, but clock
    ownership does — every wall-clock or perf-counter read must go
    through ``repro.obs`` (``Stopwatch`` / ``wall_time``) so timing
    methodology stays in one auditable place.
    """
    normalized = "/" + path.replace("\\", "/")
    return "/benchmarks/" in normalized


class _Checker(ast.NodeVisitor):
    """Single-pass AST walk emitting violations for RPL001-RPL008."""

    def __init__(self, path: str, kernel: bool,
                 numpy_aliases: Set[str],
                 timing_exempt: bool = False,
                 time_aliases: Optional[Set[str]] = None,
                 timer_names: Optional[Set[str]] = None,
                 wallclock_names: Optional[Set[str]] = None,
                 datetime_modules: Optional[Set[str]] = None,
                 datetime_classes: Optional[Set[str]] = None,
                 stage_factory: bool = False,
                 parallel_backend: bool = False,
                 shared_memory_owner: bool = False,
                 service_module: bool = False,
                 core_hot_path: bool = False) -> None:
        self.path = path
        self.kernel = kernel
        self.numpy_aliases = numpy_aliases
        self.timing_exempt = timing_exempt
        self.time_aliases = time_aliases or set()
        self.timer_names = timer_names or set()
        self.wallclock_names = wallclock_names or set()
        self.datetime_modules = datetime_modules or set()
        self.datetime_classes = datetime_classes or set()
        self.stage_factory = stage_factory
        self.parallel_backend = parallel_backend
        self.shared_memory_owner = shared_memory_owner
        self.service_module = service_module
        self.core_hot_path = core_hot_path
        self.violations: List[Violation] = []
        self._hot_depth = 0

    # -- helpers -------------------------------------------------------
    def _flag(self, node: ast.AST, rule: str,
              detail: Optional[str] = None) -> None:
        message = RULES[rule] if detail is None else detail
        self.violations.append(Violation(
            self.path, getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0), rule, message))

    def _is_numpy(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id in self.numpy_aliases

    # -- RPL001: cross-object private mutation -------------------------
    def _check_private_write(self, target: ast.expr) -> None:
        node: ast.expr = target
        while isinstance(node, (ast.Subscript, ast.Starred)):
            node = node.value
        if isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                self._check_private_write(element)
            return
        if not isinstance(node, ast.Attribute):
            return
        name = node.attr
        if not name.startswith("_") or name.startswith("__"):
            return
        receiver = node.value
        if isinstance(receiver, ast.Name) and receiver.id in ("self",
                                                              "cls"):
            return
        self._flag(node, "RPL001",
                   f"write to {name!r} of a foreign object — mutate "
                   f"kernel state through its owner's methods")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_private_write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_private_write(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_private_write(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_private_write(target)
        self.generic_visit(node)

    # -- RPL009: raw clock calls outside repro.obs ---------------------
    def _check_timer_call(self, node: ast.Call) -> None:
        if self.timing_exempt:
            return
        func = node.func
        if isinstance(func, ast.Attribute):
            if (isinstance(func.value, ast.Name)
                    and func.value.id in self.time_aliases
                    and func.attr in TIMER_FUNCTIONS):
                self._flag(node, "RPL009",
                           f"time.{func.attr}() outside repro.obs — use "
                           f"repro.obs.Stopwatch or a Recorder span")
        elif isinstance(func, ast.Name) and func.id in self.timer_names:
            self._flag(node, "RPL009",
                       f"{func.id}() outside repro.obs — use "
                       f"repro.obs.Stopwatch or a Recorder span")

    # -- RPL013: wall-clock reads outside repro.obs --------------------
    def _check_wallclock_call(self, node: ast.Call) -> None:
        if self.timing_exempt:
            return
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self.wallclock_names:
                self._flag(node, "RPL013",
                           f"{func.id}() reads the wall clock outside "
                           f"repro.obs — timestamps belong to the "
                           f"observability layer (repro.obs.wall_time)")
            return
        if not isinstance(func, ast.Attribute):
            return
        value = func.value
        if isinstance(value, ast.Name) \
                and value.id in self.time_aliases \
                and func.attr in WALLCLOCK_TIME_FUNCTIONS:
            self._flag(node, "RPL013",
                       f"time.{func.attr}() outside repro.obs — "
                       f"timestamps belong to the observability layer "
                       f"(repro.obs.wall_time)")
            return
        if func.attr not in WALLCLOCK_DATETIME_METHODS:
            return
        if isinstance(value, ast.Name) \
                and value.id in self.datetime_classes:
            self._flag(node, "RPL013",
                       f"{value.id}.{func.attr}() outside repro.obs — "
                       f"timestamps belong to the observability layer "
                       f"(repro.obs.wall_time)")
        elif isinstance(value, ast.Attribute) \
                and value.attr in ("datetime", "date") \
                and isinstance(value.value, ast.Name) \
                and value.value.id in self.datetime_modules:
            self._flag(node, "RPL013",
                       f"datetime.{value.attr}.{func.attr}() outside "
                       f"repro.obs — timestamps belong to the "
                       f"observability layer (repro.obs.wall_time)")

    # -- RPL010: stage instantiation outside the registry --------------
    def _check_stage_instantiation(self, node: ast.Call) -> None:
        if self.stage_factory:
            return
        func = node.func
        name: Optional[str] = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name is not None and _STAGE_CLASS_RE.match(name):
            self._flag(node, "RPL010",
                       f"{name}(...) instantiated outside the stage "
                       f"registry — use create_stage(<registry name>, "
                       f"options) so specs and checkpoints see one "
                       f"catalogue")

    # -- RPL011: process imports outside repro.parallel ----------------
    def _check_process_import(self, node: ast.AST,
                              module: Optional[str]) -> None:
        if self.parallel_backend or not module:
            return
        top = module.split(".", 1)[0]
        if top in PROCESS_MODULES:
            self._flag(node, "RPL011",
                       f"import of {module!r} outside repro.parallel — "
                       f"dispatch work through an ExecutionBackend so "
                       f"seeding and telemetry merging stay uniform")

    # -- RPL015: shared_memory imports outside the dispatch arena ------
    def _check_shared_memory_import(self, node: ast.AST,
                                    module: Optional[str],
                                    names: Sequence[str] = (),
                                    ) -> None:
        if self.shared_memory_owner or not module:
            return
        hit = (module == "multiprocessing.shared_memory"
               or module.startswith("multiprocessing.shared_memory.")
               or (module == "multiprocessing"
                   and "shared_memory" in names))
        if hit:
            self._flag(node, "RPL015",
                       "import of multiprocessing.shared_memory outside "
                       "repro.parallel.shared — segment create/attach/"
                       "unlink lifecycle is owned by SharedArrayPool")

    # -- RPL014: socket imports outside repro.service ------------------
    def _check_socket_import(self, node: ast.AST,
                             module: Optional[str]) -> None:
        if self.service_module or not module:
            return
        top = module.split(".", 1)[0]
        if top in SOCKET_MODULES:
            self._flag(node, "RPL014",
                       f"import of {module!r} outside repro.service — "
                       f"talk to the placement service through "
                       f"ServiceClient or the engine API so the job "
                       f"state machine stays authoritative")

    # -- RPL012: exact-solver imports in core hot paths ----------------
    def _flag_solver_import(self, node: ast.AST, module: str) -> None:
        self._flag(node, "RPL012",
                   f"import of {module!r} in a repro.core hot path — "
                   f"evaluate temperature fields through the thermal "
                   f"fidelity policy (PlacementContext.thermal_policy) "
                   f"so the thermal_fidelity knob governs them")

    def _check_solver_import(self, node: ast.AST,
                             module: Optional[str]) -> None:
        if not self.core_hot_path or not module:
            return
        if module == "repro.thermal.solver" \
                or module.startswith("repro.thermal.solver."):
            self._flag_solver_import(node, module)

    def visit_Import(self, node: ast.Import) -> None:
        for item in node.names:
            self._check_process_import(node, item.name)
            self._check_shared_memory_import(node, item.name)
            self._check_socket_import(node, item.name)
            self._check_solver_import(node, item.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0:
            self._check_process_import(node, node.module)
            self._check_shared_memory_import(
                node, node.module,
                names=[item.name for item in node.names])
            self._check_socket_import(node, node.module)
            self._check_solver_import(node, node.module)
            if self.core_hot_path and node.module == "repro.thermal":
                for item in node.names:
                    if item.name in ("ThermalSolver", "solver"):
                        self._flag_solver_import(
                            node, f"repro.thermal.{item.name}")
        self.generic_visit(node)

    # -- RPL002 / RPL004 / RPL009 / RPL010: calls ----------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._check_timer_call(node)
        self._check_wallclock_call(node)
        self._check_stage_instantiation(node)
        func = node.func
        if isinstance(func, ast.Attribute):
            # np.random.<fn>(...) — legacy global-state RNG
            value = func.value
            if (isinstance(value, ast.Attribute) and value.attr == "random"
                    and self._is_numpy(value.value)
                    and func.attr not in RANDOM_ALLOWED):
                self._flag(node, "RPL004",
                           f"np.random.{func.attr}() uses hidden global "
                           f"state — thread a seeded default_rng() "
                           f"Generator instead")
            # np.<alloc>(...) without dtype=, in kernel modules
            elif (self.kernel and func.attr in ALLOCATORS
                    and self._is_numpy(value)):
                if not any(kw.arg == "dtype" for kw in node.keywords):
                    self._flag(node, "RPL002",
                               f"np.{func.attr}(...) without an explicit "
                               f"dtype= keyword")
        self.generic_visit(node)

    # -- RPL003: float-literal equality --------------------------------
    @staticmethod
    def _is_float_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                        (ast.USub,
                                                         ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) \
            and isinstance(node.value, float)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if self._is_float_literal(left) or self._is_float_literal(right):
                self._flag(node, "RPL003")
                break
        self.generic_visit(node)

    # -- RPL005-RPL008: function bodies --------------------------------
    @staticmethod
    def _is_hot_path(node: ast.FunctionDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator
            if isinstance(target, ast.Call):
                target = target.func
            if isinstance(target, ast.Name) and target.id == "hot_path":
                return True
            if isinstance(target, ast.Attribute) \
                    and target.attr == "hot_path":
                return True
        return False

    def _visit_function(self, node: ast.FunctionDef) -> None:
        if node.returns is None:
            self._flag(node, "RPL008",
                       f"def {node.name} lacks a return annotation")
        defaults = list(node.args.defaults) + \
            [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                self._flag(default, "RPL007")
            elif isinstance(default, ast.Call) \
                    and isinstance(default.func, ast.Name) \
                    and default.func.id in ("list", "dict", "set",
                                            "bytearray"):
                self._flag(default, "RPL007")
        hot = self._is_hot_path(node)
        if hot:
            self._hot_depth += 1
        self.generic_visit(node)
        if hot:
            self._hot_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)  # type: ignore[arg-type]

    def _visit_loop(self, node: ast.stmt) -> None:
        if self._hot_depth > 0:
            self._flag(node, "RPL005",
                       "Python loop in a @hot_path kernel — vectorize, "
                       "or waive with the loop's cardinality argument")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    # -- RPL006: bare except -------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._flag(node, "RPL006")
        self.generic_visit(node)


def _numpy_aliases(tree: ast.Module) -> Set[str]:
    """Names the module binds to the numpy package (usually ``np``)."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "numpy":
                    aliases.add(item.asname or "numpy")
    return aliases


def _time_bindings(tree: ast.Module
                   ) -> Tuple[Set[str], Set[str], Set[str]]:
    """Names bound to the ``time`` module and its clock functions.

    Returns ``(module_aliases, timer_names, wallclock_names)``: module
    aliases cover ``import time [as t]``; the name sets cover
    ``from time import perf_counter [as pc]`` (RPL009) and
    ``from time import time [as now]`` (RPL013) respectively.
    """
    aliases: Set[str] = set()
    names: Set[str] = set()
    wallclock: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "time":
                    aliases.add(item.asname or "time")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for item in node.names:
                if item.name in TIMER_FUNCTIONS:
                    names.add(item.asname or item.name)
                elif item.name in WALLCLOCK_TIME_FUNCTIONS:
                    wallclock.add(item.asname or item.name)
    return aliases, names, wallclock


def _datetime_bindings(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
    """Names bound to the ``datetime`` module and its clock classes.

    Returns ``(module_aliases, class_names)``: the first covers
    ``import datetime [as dt]``, the second ``from datetime import
    datetime / date [as d]``.
    """
    modules: Set[str] = set()
    classes: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "datetime":
                    modules.add(item.asname or "datetime")
        elif isinstance(node, ast.ImportFrom) \
                and node.module == "datetime":
            for item in node.names:
                if item.name in ("datetime", "date"):
                    classes.add(item.asname or item.name)
    return modules, classes


def check_source(source: str, path: str = "<string>",
                 kernel: Optional[bool] = None) -> List[Violation]:
    """Lint one module's source text; returns its violations.

    Args:
        source: the module text.
        path: reported in violations and used to classify kernel
            modules when ``kernel`` is None.
        kernel: force kernel-module status (fixture tests use this).
    """
    if kernel is None:
        kernel = is_kernel_module(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation(path, exc.lineno or 0, exc.offset or 0,
                          "RPL000", f"syntax error: {exc.msg}")]
    waivers, waiver_errors = _collect_waivers(source)
    time_aliases, timer_names, wallclock_names = _time_bindings(tree)
    datetime_modules, datetime_classes = _datetime_bindings(tree)
    checker = _Checker(path, kernel, _numpy_aliases(tree),
                       timing_exempt=is_timing_exempt(path),
                       time_aliases=time_aliases,
                       timer_names=timer_names,
                       wallclock_names=wallclock_names,
                       datetime_modules=datetime_modules,
                       datetime_classes=datetime_classes,
                       stage_factory=is_stage_factory(path),
                       parallel_backend=is_parallel_backend(path),
                       shared_memory_owner=is_shared_memory_owner(path),
                       service_module=is_service_module(path),
                       core_hot_path=is_core_hot_path(path))
    checker.visit(tree)
    timing_only = is_timing_only_scope(path)
    kept: List[Violation] = []
    for violation in checker.violations:
        if timing_only and violation.rule not in TIMING_SCOPE_RULES:
            continue
        if waivers.get(violation.line) == violation.rule:
            continue
        if waivers.get(violation.line - 1) == violation.rule:
            continue
        kept.append(violation)
    for err in waiver_errors:
        kept.append(Violation(path, err.line, err.col, err.rule,
                              err.message))
    kept.sort(key=lambda v: (v.line, v.col, v.rule))
    return kept


def iter_python_files(roots: Sequence[str]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories."""
    for root in roots:
        path = Path(root)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(roots: Sequence[str]) -> List[Violation]:
    """Lint every Python file under the given roots."""
    violations: List[Violation] = []
    for file_path in iter_python_files(roots):
        violations.extend(check_source(file_path.read_text(),
                                       str(file_path)))
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m tools.analysis.lintrules",
        description="Kernel-contract AST linter (rules RPL001-RPL015).")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule, description in sorted(RULES.items()):
            print(f"{rule}  {description}")
        return 0
    violations = lint_paths(args.paths)
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"{len(violations)} violation(s) found", file=sys.stderr)
        return 1
    files = sum(1 for _ in iter_python_files(args.paths))
    print(f"lintrules: {files} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
