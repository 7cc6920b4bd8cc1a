"""Sanctioned floating-point comparison helpers.

The lint rule RPL003 (``tools.analysis.lintrules``) forbids raw
``==``/``!=`` against float literals anywhere in ``src/repro``: half
of those comparisons *should* be tolerance-based (geometry, objective
deltas accumulated through long incremental chains), and the other
half are *intentionally exact* (cache-coherence shortcuts comparing a
value against a cached copy of itself), which is impossible to tell
apart at review time.  This module is the one place each intent is spelled out:

- :func:`near` / :func:`is_zero` — tolerance comparisons for quantities
  carrying accumulated rounding error.
- :func:`exact_eq` / :func:`exact_zero` / :func:`exact_nonzero` —
  documented bit-exact comparisons.  Use these only when the two sides
  derive from the *same* floating-point computation (e.g. "did this
  cached delta change at all"), where a tolerance would be a bug: it
  would skip small-but-real updates and let incremental caches drift.
"""

from __future__ import annotations

from typing import Union

import numpy as np
from numpy.typing import NDArray

Number = Union[float, int]
ArrayOrFloat = Union[float, NDArray[np.float64]]

#: Default relative/absolute tolerance for coordinate-scale quantities.
#: Coordinates are metres at ~1e-5 scale; 1e-9 relative keeps ~6 digits
#: of slack above float64 rounding while catching any genuine mismatch.
DEFAULT_TOL = 1e-9


def near(a: float, b: float, tol: float = DEFAULT_TOL) -> bool:
    """Whether two scalars agree within a mixed abs/rel tolerance."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def is_zero(x: float, tol: float = DEFAULT_TOL) -> bool:
    """Whether a scalar is zero within an absolute tolerance."""
    return abs(x) <= tol


def exact_eq(a: ArrayOrFloat, b: ArrayOrFloat
             ) -> Union[bool, NDArray[np.bool_]]:
    """Bit-exact equality, for values sharing a computational origin."""
    return a == b


def exact_zero(x: float) -> bool:
    """Bit-exact zero test (e.g. "this cached delta did not change")."""
    return x == 0.0  # lint: ok[RPL003] this helper is the sanctioned home of the exact comparison


def exact_nonzero(x: float) -> bool:
    """Bit-exact non-zero test; see :func:`exact_zero`."""
    return x != 0.0  # lint: ok[RPL003] this helper is the sanctioned home of the exact comparison
