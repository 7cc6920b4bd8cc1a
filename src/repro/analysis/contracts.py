"""Opt-in runtime shape/dtype contracts for kernel entry points.

The placement kernels (DESIGN.md "kernel layer") keep their state in
flat NumPy arrays whose dtypes and shapes are load-bearing: an int32
pointer array silently truncates on huge designs, a float32 coordinate
array silently loses the resolution the tolerance helpers assume, and a
mis-shaped power map produces wrong—not crashing—objective values.

:func:`contract` attaches a declarative shape/dtype specification to a
function.  Checking is **off by default** (the wrapper costs one boolean
test per call); setting ``REPRO_CONTRACTS=1`` in the environment (or
calling :func:`set_contracts`) turns every contract into a hard
precondition that raises :class:`ContractViolation` with the offending
argument named.  Tier-1 CI runs the whole test suite with contracts
enabled, so every kernel entry point is exercised under validation.

Shape specifications are tuples of dimension entries.  Integers pin a
dimension exactly; strings are symbols unified *within one call* across
all declared arguments, so ``shapes={"xs": ("n",), "ys": ("n",)}``
asserts the two arguments have equal length without fixing it.

dtype specifications accept NumPy abstract scalar types
(``np.floating``, ``np.integer``, ``np.bool_``) or concrete dtypes;
abstract types match via :func:`numpy.issubdtype`.  Plain Python
sequences are only length-checked (first dimension), never converted —
contracts must not copy kernel inputs.
"""

from __future__ import annotations

import functools
import inspect
import os
from typing import (Any, Callable, Dict, Mapping, Optional, Sequence,
                    Tuple, TypeVar, Union)

import numpy as np
from numpy.typing import NDArray

#: Precise aliases for the kernel array dtypes (see DESIGN.md).
FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int64]
BoolArray = NDArray[np.bool_]

DimSpec = Union[int, str]
ShapeSpec = Tuple[DimSpec, ...]
DTypeSpec = Any  # np.floating / np.integer / concrete dtype-like
F = TypeVar("F", bound=Callable[..., Any])


class ContractViolation(AssertionError):
    """A kernel entry point was called with a mis-shaped or mis-typed
    argument while ``REPRO_CONTRACTS`` checking was enabled."""


def _env_enabled() -> bool:
    return os.environ.get("REPRO_CONTRACTS", "0").strip().lower() \
        not in ("", "0", "false", "no")


_enabled: bool = _env_enabled()


def contracts_enabled() -> bool:
    """Whether runtime contract checking is currently active."""
    return _enabled


def set_contracts(enabled: bool) -> bool:
    """Enable/disable contract checking; returns the previous setting.

    Tests use this to exercise both modes in one process; production
    code should rely on the ``REPRO_CONTRACTS`` environment variable.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


# ----------------------------------------------------------------------
# validation primitives
# ----------------------------------------------------------------------
def _dtype_matches(dtype: np.dtype, spec: DTypeSpec) -> bool:
    if isinstance(spec, type) and issubclass(spec, np.generic):
        return bool(np.issubdtype(dtype, spec))
    return dtype == np.dtype(spec)


def expect(name: str, value: Any, dtype: Optional[DTypeSpec] = None,
           shape: Optional[ShapeSpec] = None,
           bindings: Optional[Dict[str, int]] = None) -> None:
    """Validate one value against a dtype/shape spec.

    Args:
        name: argument name used in error messages.
        value: an ``np.ndarray`` (fully checked) or a plain sequence
            (length-checked against 1-D shape specs only).
        dtype: required dtype (abstract scalar types match by kind).
        shape: required shape; string entries unify via ``bindings``.
        bindings: symbol table shared across one call's arguments.

    Raises:
        ContractViolation: on any mismatch.
    """
    is_array = isinstance(value, np.ndarray)
    if dtype is not None and is_array:
        if not _dtype_matches(value.dtype, dtype):
            want = getattr(dtype, "__name__", str(dtype))
            raise ContractViolation(
                f"{name}: dtype {value.dtype} does not satisfy {want}")
    if shape is None:
        return
    if is_array:
        actual: Tuple[int, ...] = value.shape
    elif hasattr(value, "__len__"):
        if len(shape) != 1:
            return  # cannot see nested structure without converting
        actual = (len(value),)
    else:
        raise ContractViolation(
            f"{name}: expected an array-like, got {type(value).__name__}")
    if len(actual) != len(shape):
        raise ContractViolation(
            f"{name}: expected {len(shape)}-D (spec {shape}), "
            f"got shape {actual}")
    table = bindings if bindings is not None else {}
    for axis, (want, got) in enumerate(zip(shape, actual)):
        if isinstance(want, str):
            bound = table.setdefault(want, got)
            if bound != got:
                raise ContractViolation(
                    f"{name}: axis {axis} is {got} but symbol "
                    f"{want!r} was already bound to {bound}")
        elif want != got:
            raise ContractViolation(
                f"{name}: axis {axis} is {got}, expected {want}")


# ----------------------------------------------------------------------
# the decorator
# ----------------------------------------------------------------------
def contract(shapes: Optional[Mapping[str, ShapeSpec]] = None,
             dtypes: Optional[Mapping[str, DTypeSpec]] = None
             ) -> Callable[[F], F]:
    """Declare shape/dtype preconditions on a kernel entry point.

    The declaration is stored on the function as ``__repro_contract__``
    whether or not checking is active, so tooling can introspect it.
    """
    shape_spec = dict(shapes or {})
    dtype_spec = dict(dtypes or {})
    names = sorted(set(shape_spec) | set(dtype_spec))

    def decorate(func: F) -> F:
        signature = inspect.signature(func)
        for arg in names:
            if arg not in signature.parameters:
                raise TypeError(
                    f"contract on {func.__qualname__} names unknown "
                    f"parameter {arg!r}")

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _enabled:
                return func(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bindings: Dict[str, int] = {}
            for arg in names:
                if arg not in bound.arguments:
                    continue  # defaulted: nothing was passed to check
                value = bound.arguments[arg]
                if value is None:
                    continue
                try:
                    expect(arg, value, dtype=dtype_spec.get(arg),
                           shape=shape_spec.get(arg), bindings=bindings)
                except ContractViolation as exc:
                    raise ContractViolation(
                        f"{func.__qualname__}: {exc}") from None
            return func(*args, **kwargs)

        wrapper.__repro_contract__ = {  # type: ignore[attr-defined]
            "shapes": shape_spec, "dtypes": dtype_spec}
        return wrapper  # type: ignore[return-value]

    return decorate


def hot_path(func: F) -> F:
    """Mark a function as a designated vectorized kernel hot path.

    Purely declarative at runtime (the function is returned unchanged);
    the ``tools.analysis.lintrules`` rule RPL005 forbids Python
    ``for``/``while`` loops inside functions carrying this marker, so
    accidental scalar fallbacks in the batched kernels fail CI instead
    of silently costing 10-100x.
    """
    func.__repro_hot_path__ = True  # type: ignore[attr-defined]
    return func


def validate_arrays(owner: str, **named: Tuple[Any, Optional[DTypeSpec],
                                               Optional[ShapeSpec]]
                    ) -> None:
    """Validate a bag of internal arrays in one shared symbol table.

    Used by ``check_consistency`` probes to assert that a kernel
    object's *internal* state arrays still have the dtypes and mutually
    consistent shapes the vectorized paths assume.  Each keyword maps a
    field name to ``(value, dtype_spec, shape_spec)``.
    """
    if not _enabled:
        return
    bindings: Dict[str, int] = {}
    for name, (value, dtype, shape) in named.items():
        expect(f"{owner}.{name}", value, dtype=dtype, shape=shape,
               bindings=bindings)
