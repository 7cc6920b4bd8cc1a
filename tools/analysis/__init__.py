"""Whole-program static analysis for the placement pipeline.

``python -m tools.analysis src/repro`` builds a symbol table and a
module-resolved call graph over the package trees given on the command
line, then runs every registered pass:

* ``lint`` — the single-node RPL000-RPL015 rules of
  :mod:`tools.analysis.lintrules`;
* ``determinism`` — RNG/entropy/unordered-iteration closure from
  ``PlacementPipeline.run`` (RPA1xx);
* ``purity`` — logging/IO/exact-solve/allocation closure from every
  ``@hot_path`` kernel (RPA2xx);
* ``fork-safety`` — payload picklability and worker-closure
  module-state writes for ``repro.parallel`` dispatch (RPA3xx);
* ``contracts`` — ``@contract`` specs vs caller-side array
  construction (RPA4xx).

Gating findings (error/warning) fail the run unless their fingerprint
appears in the committed baseline (``tools/analysis/baseline.json``)
with a justification.  ``--sarif`` writes a SARIF 2.1.0 log for CI
artifact upload; ``--write-baseline`` snapshots the current findings.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from tools.analysis.baseline import (Baseline, BaselineError,
                                     apply_baseline)
from tools.analysis.callgraph import (CallGraph, CallSite,
                                      build_callgraph)
from tools.analysis.findings import Finding
from tools.analysis.symbols import Program, load_program

__all__ = [
    "Baseline",
    "CallGraph",
    "CallSite",
    "Finding",
    "Program",
    "analyze",
    "build_callgraph",
    "load_program",
    "main",
]

#: Default committed baseline, next to this package.
DEFAULT_BASELINE = Path(__file__).parent / "baseline.json"

ANALYZER_VERSION = "1.0.0"


def _rule_docs() -> Dict[str, str]:
    from tools.analysis import lintrules, passes  # noqa: F401
    docs: Dict[str, str] = dict(lintrules.RULES)
    docs.update({
        "RPA101": "unseeded / global-state RNG on a pipeline path",
        "RPA102": "entropy or wall-clock source on a pipeline path",
        "RPA103": "set iteration on a pipeline path (arbitrary order)",
        "RPA104": "dict.keys() ordering dependence on a pipeline path",
        "RPA201": "logging in the @hot_path closure",
        "RPA202": "file I/O in the @hot_path closure",
        "RPA203": "exact thermal factorization in the @hot_path "
                  "closure",
        "RPA204": "allocation-heavy numpy call in a loop in the "
                  "@hot_path closure",
        "RPA301": "unpicklable task-payload field type",
        "RPA302": "task-payload field not provably picklable",
        "RPA303": "module-level mutable state written in a worker "
                  "closure",
        "RPA401": "caller array rank contradicts the @contract shape "
                  "spec",
        "RPA402": "caller array dtype contradicts the @contract dtype "
                  "spec",
    })
    return docs


def analyze(roots: Sequence[str],
            pass_names: Optional[Sequence[str]] = None
            ) -> List[Finding]:
    """Run the registered passes over the package trees in ``roots``."""
    from tools.analysis import passes

    program = load_program(roots)
    ctx = passes.build_context(program)
    selected = list(pass_names) if pass_names \
        else list(passes.PASS_REGISTRY)
    findings: List[Finding] = []
    for name in selected:
        factory = passes.PASS_REGISTRY.get(name)
        if factory is None:
            raise ValueError(f"unknown pass {name!r} (have: "
                             f"{', '.join(passes.PASS_REGISTRY)})")
        findings.extend(factory().run(ctx))
    findings.sort(key=lambda f: f.sort_key())
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    from tools.analysis import passes
    from tools.analysis import sarif as sarif_mod

    parser = argparse.ArgumentParser(
        prog="python -m tools.analysis",
        description="Interprocedural invariant analyzer "
                    "(RPL and RPA rule families).")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="package roots to analyze "
                             "(default: src/repro)")
    parser.add_argument("--pass", dest="passes", action="append",
                        metavar="NAME",
                        help="run only the named pass (repeatable)")
    parser.add_argument("--list-passes", action="store_true",
                        help="print the pass table and exit")
    parser.add_argument("--baseline", type=Path,
                        default=DEFAULT_BASELINE, metavar="FILE",
                        help="baseline file (default: the committed "
                             "tools/analysis/baseline.json)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline (report everything)")
    parser.add_argument("--write-baseline", metavar="REASON",
                        help="snapshot current gating findings into "
                             "the baseline file with this "
                             "justification, then exit 0")
    parser.add_argument("--sarif", type=Path, metavar="FILE",
                        help="write a SARIF 2.1.0 log to FILE")
    parser.add_argument("--max-seconds", type=float, default=None,
                        help="fail if the analysis takes longer "
                             "(CI bench guard)")
    args = parser.parse_args(argv)

    if args.list_passes:
        for name, factory in passes.PASS_REGISTRY.items():
            instance = factory()
            print(f"{name:14s} {instance.description}")
        return 0

    start = time.perf_counter()
    try:
        findings = analyze(args.paths, args.passes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start

    if args.write_baseline is not None:
        reason = args.write_baseline.strip()
        if not reason:
            print("error: --write-baseline needs a non-empty "
                  "justification", file=sys.stderr)
            return 2
        Baseline.from_findings(findings, reason).dump(args.baseline)
        gating = sum(1 for f in findings if f.gating)
        print(f"baseline: wrote {gating} gating finding(s) to "
              f"{args.baseline}")
        return 0

    baseline = Baseline(entries={})
    if not args.no_baseline and args.baseline.exists():
        try:
            baseline = Baseline.load(args.baseline)
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    active, suppressed, stale = apply_baseline(findings, baseline)

    gating = [f for f in active if f.gating]
    notes = [f for f in active if not f.gating]
    for finding in gating + notes:
        print(finding.render())
    if suppressed:
        print(f"analysis: {len(suppressed)} finding(s) suppressed by "
              f"{args.baseline.name}", file=sys.stderr)
    for fingerprint in stale:
        print(f"analysis: stale baseline entry {fingerprint} "
              f"(no longer produced — remove it)", file=sys.stderr)

    if args.sarif is not None:
        log = sarif_mod.to_sarif(active, suppressed,
                                 rule_docs=_rule_docs(),
                                 tool_version=ANALYZER_VERSION)
        args.sarif.parent.mkdir(parents=True, exist_ok=True)
        args.sarif.write_text(sarif_mod.dumps(log))

    print(f"analysis: {len(gating)} gating, {len(notes)} note, "
          f"{len(suppressed)} suppressed finding(s) in "
          f"{elapsed:.2f}s", file=sys.stderr)
    if args.max_seconds is not None and elapsed > args.max_seconds:
        print(f"analysis: wall time {elapsed:.2f}s exceeds the "
              f"--max-seconds {args.max_seconds:.2f}s bench guard",
              file=sys.stderr)
        return 1
    return 1 if gating else 0
