"""Pluggable analysis passes over the program call graph.

Every pass receives an :class:`AnalysisContext` (symbol table + call
graph, built once) and returns :class:`~tools.analysis.findings.Finding`
objects.  Passes register themselves in :data:`PASS_REGISTRY` at import
time; ``python -m tools.analysis`` runs them in registration order.

Rule id ranges:

======== ==============================================================
RPL0xx   Single-node rules of ``tools.analysis.lintrules`` (the ``lint``
         pass wraps the whole rule engine).
RPA1xx   Determinism closure from ``PlacementPipeline.run``.
RPA2xx   Hot-path purity closure from every ``@hot_path`` kernel.
RPA3xx   Fork-safety of ``repro.parallel`` task payloads and workers.
RPA4xx   ``@contract`` spec vs caller-side array construction.
======== ==============================================================
"""

from __future__ import annotations

import ast
import bisect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from tools.analysis.callgraph import CallGraph, build_callgraph
from tools.analysis.findings import Finding
from tools.analysis.symbols import FunctionInfo, ModuleInfo, Program
from tools.analysis import lintrules

__all__ = [
    "AnalysisContext",
    "AnalysisPass",
    "PASS_REGISTRY",
    "build_context",
    "enclosing_symbol",
    "register_pass",
]


@dataclass
class AnalysisContext:
    """Shared inputs for every pass: one parse, one graph build."""

    program: Program
    graph: CallGraph
    #: memoised per-module sorted function spans for symbol lookup
    _spans: Dict[str, List[Tuple[int, int, str]]] = field(
        default_factory=dict)

    def enclosing_symbol(self, module: str, line: int) -> str:
        """Qualname of the innermost function covering ``line``."""
        return enclosing_symbol(self, module, line)


def build_context(program: Program) -> AnalysisContext:
    return AnalysisContext(program, build_callgraph(program))


def enclosing_symbol(ctx: AnalysisContext, module: str,
                     line: int) -> str:
    """Innermost function qualname covering ``line`` (module if none)."""
    spans = ctx._spans.get(module)
    if spans is None:
        spans = []
        for fn in ctx.program.functions.values():
            if fn.module != module:
                continue
            end = getattr(fn.node, "end_lineno", fn.node.lineno)
            spans.append((fn.node.lineno, end or fn.node.lineno,
                          fn.qualname))
        spans.sort()
        ctx._spans[module] = spans
    best: Optional[str] = None
    best_width = 0
    starts = [s[0] for s in spans]
    hi = bisect.bisect_right(starts, line)
    for start, end, qual in spans[:hi]:
        if start <= line <= end:
            width = end - start
            if best is None or width <= best_width:
                best, best_width = qual, width
    return best if best is not None else module


class AnalysisPass:
    """Base class for passes.  Subclasses set ``name``/``description``
    and implement :meth:`run`."""

    name: str = ""
    description: str = ""

    def run(self, ctx: AnalysisContext) -> List[Finding]:
        raise NotImplementedError


#: name -> pass factory, in registration (execution) order.
PASS_REGISTRY: Dict[str, Callable[[], AnalysisPass]] = {}


def register_pass(factory: Callable[[], AnalysisPass]
                  ) -> Callable[[], AnalysisPass]:
    instance = factory()
    if not instance.name:
        raise ValueError(f"pass {factory!r} has no name")
    PASS_REGISTRY[instance.name] = factory
    return factory


# ----------------------------------------------------------------------
@register_pass
class LintPass(AnalysisPass):
    """The migrated RPL000-RPL013 single-node rules, one module at a
    time, with the enclosing-function symbol attached so findings get
    stable fingerprints."""

    name = "lint"
    description = ("single-node kernel-contract rules RPL000-RPL015 "
                   "(tools.analysis.lintrules)")

    def run(self, ctx: AnalysisContext) -> List[Finding]:
        findings: List[Finding] = []
        for mod in ctx.program.modules.values():
            for violation in lintrules.check_source(mod.source,
                                                    str(mod.path)):
                findings.append(Finding(
                    rule=violation.rule,
                    path=str(mod.path),
                    line=violation.line,
                    col=violation.col,
                    symbol=ctx.enclosing_symbol(mod.qualname,
                                                violation.line),
                    message=violation.message,
                    level="error",
                    pass_name=self.name,
                ))
        return findings


def iter_own_nodes(root: ast.AST):
    """Walk ``root`` without descending into nested function/class
    bodies (those are separate symbols scanned on their own)."""
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                continue
            stack.append(child)


def finding_at(ctx: AnalysisContext, fn: FunctionInfo, node: ast.AST,
               rule: str, message: str, level: str,
               pass_name: str) -> Finding:
    """Build a finding anchored at ``node`` inside ``fn``."""
    return Finding(
        rule=rule,
        path=str(fn.path),
        line=getattr(node, "lineno", fn.node.lineno),
        col=getattr(node, "col_offset", 0),
        symbol=fn.qualname,
        message=message,
        level=level,
        pass_name=pass_name,
    )


# Import the interprocedural passes so they self-register.  Order
# matters: lint first (registered above), then the closures.
from tools.analysis.passes import determinism  # noqa: E402,F401
from tools.analysis.passes import purity  # noqa: E402,F401
from tools.analysis.passes import forksafety  # noqa: E402,F401
from tools.analysis.passes import contracts  # noqa: E402,F401
