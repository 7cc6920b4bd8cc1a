"""Correctness tooling for the kernel layer.

Static side: precise dtype-carrying array aliases (:data:`FloatArray`,
:data:`IntArray`, :data:`BoolArray`) used by annotations across
``src/repro``, and the :func:`hot_path` marker the
``tools.analysis.lintrules`` AST linter keys on.  Dynamic side: the
:func:`contract` decorator and :func:`validate_arrays` probe, which
turn into hard shape/dtype preconditions when ``REPRO_CONTRACTS=1``.  See DESIGN.md
"Static analysis & contracts".
"""

from repro.analysis.contracts import (BoolArray, ContractViolation,
                                      FloatArray, IntArray, contract,
                                      contracts_enabled, expect,
                                      hot_path, set_contracts,
                                      validate_arrays)
from repro.analysis.tolerance import (DEFAULT_TOL, exact_eq,
                                      exact_nonzero, exact_zero,
                                      is_zero, near)

__all__ = [
    "BoolArray", "ContractViolation", "FloatArray", "IntArray",
    "contract", "contracts_enabled", "expect", "hot_path",
    "set_contracts", "validate_arrays",
    "DEFAULT_TOL", "exact_eq", "exact_nonzero", "exact_zero",
    "is_zero", "near",
]
