"""Expression-to-numpy compilation for the columnar backend.

:func:`compile_expression` turns a typechecked query-language expression
into a closure over a :class:`~repro.dbms.columnar.ColumnBatch` that
returns one numpy array — a chain of ufunc applications instead of a
per-row ``evaluate`` walk.  Vectorizability is decided by the *same* type
judgment the static checker makes: the expression is re-checked through
:func:`repro.analyze.exprcheck.analyze_expression`, so the compiler can
never disagree with the checker about what typechecks, and anything the
checker rejects stays on the row backend.

Exactness contract — the columnar backend must produce bit-identical rows:

* Only operations whose numpy implementation provably matches the serial
  Python semantics are compiled.  ``sqrt`` is IEEE correctly-rounded in
  both; ``np.round`` is banker's rounding like Python ``round``; integer
  ``%``/``floor``/``ceil`` are exact.  The transcendentals (``exp``,
  ``ln``, ``log10``, ``sin``, ``cos``) may differ from ``math.*`` by an
  ulp, so they are *not* vectorizable — expressions using them run on the
  row backend.
* Mixed int/float comparisons are exact in Python but round the int side
  to float64 in numpy; the compiled comparison guards the magnitude and
  falls back past 2**53.  Same for int/int division.
* Python ints never overflow; int64 wraps.  Integer ``+``, ``-``, ``*``,
  unary ``-`` and ``abs`` bound their operands' magnitudes in Python ints
  first and fall back when a result could leave int64.  ``floor``,
  ``ceil`` and ``round`` keep int arguments as they are and fall back on a
  float argument that is not finite or lies beyond int64.
* An ``if`` with an int and a float branch, and ``min``/``max`` over mixed
  int and float arguments, are not compiled: Python keeps the chosen int
  exact while numpy promotes it to float64.  ``min``/``max`` also fall back
  on a NaN argument, since Python's answer then depends on argument order.
* The date parts ``year``, ``month``, ``day`` and ``day_of_year`` apply the
  registered function to each distinct date of the object-dtype DATE
  column, so each element is exactly the row backend's value.
* Data-dependent hazards (a zero divisor, a negative ``sqrt`` argument)
  raise :class:`VectorFallback` instead of erroring eagerly: the serial
  backend's ``and``/``or`` short-circuit may skip the error entirely, so
  the kernel re-evaluates that batch row-at-a-time with exact serial
  semantics (and counts it in ``columnar.fallback``).
* When the abstract interpreter (:mod:`repro.analyze.absint`) has *proved*
  a hazard impossible — the divisor's value range excludes 0, the int
  operands are bounded within 2**53, the ``sqrt`` argument is provably
  non-negative — the corresponding runtime guard is elided at compile
  time (``hazards=`` parameter, counted in ``absint.guards_elided``).
  Elision never changes results: the guard being elided is exactly the
  branch the proof shows can never be taken.

TEXT and DATE columns live at ``object`` dtype where numpy applies the
Python comparison operators elementwise — correct by construction, just
not SIMD-fast.  DRAWABLES never vectorize.

The renderer reuses these kernels for computed location attributes
(``repro.render.scene.location_columns``), and adds its own conditions
before trusting a compiled column (see ``docs/COLUMNAR.md``).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.dbms import types as T
from repro.dbms.columnar import ColumnBatch, NUMPY_DTYPES
from repro.dbms.expr import (
    Binary,
    Call,
    Conditional,
    Expr,
    FieldRef,
    Literal,
    Unary,
)
from repro.dbms.tuples import Schema

__all__ = [
    "ELIDED_COUNTER",
    "VectorFallback",
    "compile_expression",
    "compile_predicate",
    "vectorizable",
]

CompiledExpr = Callable[[ColumnBatch], np.ndarray]

#: Largest integer magnitude that float64 represents exactly; int values
#: beyond it would compare/divide differently after numpy's promotion.
_EXACT_INT = 2 ** 53

#: No int64 result may reach this magnitude; int64's minimum has it, and
#: negating it or taking its ``abs`` wraps.
_INT64_LIMIT = 2 ** 63

#: Date-part functions compiled by applying their registered definition
#: to each distinct date of the DATE column.
_DATE_PARTS = frozenset({"year", "month", "day", "day_of_year"})

#: Canonical declaration for the guard-elision counter, incremented once
#: per guard site removed at compile time.  ``stats --check`` verifies
#: every declaration site uses the identical description.
ELIDED_COUNTER = (
    "absint.guards_elided",
    "runtime hazard guards elided from compiled kernels after a static "
    "proof",
)


def _elided_counter():
    from repro.obs.metrics import global_registry

    return global_registry().counter(*ELIDED_COUNTER)


class _NoProofs:
    """Null object for the ``hazards`` parameter: proves nothing."""

    __slots__ = ()

    def proves(self, node: Expr, kind: str) -> bool:
        return False


_NO_PROOFS = _NoProofs()


class VectorFallback(Exception):
    """A compiled kernel hit a data-dependent hazard in this batch.

    The caller must re-evaluate the batch row-at-a-time with the serial
    ``Expr.evaluate`` — that reproduces short-circuiting and the exact
    ``EvaluationError`` messages the row backend raises.
    """


class _NotVectorizable(Exception):
    """Compile-time verdict: this expression stays on the row backend."""


def _as_bool(arr: np.ndarray) -> np.ndarray:
    return np.asarray(arr, dtype=bool)


def _require_fixed(arr: np.ndarray) -> np.ndarray:
    """Reject object-dtype operands at runtime (overflowed int columns)."""
    if arr.dtype == object:
        raise VectorFallback("object-dtype column in a numeric kernel")
    return arr


def _is_int(arr: np.ndarray) -> bool:
    return arr.dtype.kind in "iu"


def _magnitude(arr: np.ndarray) -> int:
    """The largest ``|value|`` of an int array, as a Python int (``np.abs``
    would wrap on int64's minimum)."""
    if not arr.size:
        return 0
    return max(-int(arr.min()), int(arr.max()))


def _guard_exact_int(arr: np.ndarray) -> None:
    """Fall back when int values would lose precision as float64."""
    if _is_int(arr) and _magnitude(arr) > _EXACT_INT:
        raise VectorFallback("int magnitude beyond exact float64 range")


def _guard_int_result(bound: int) -> None:
    """Fall back when an int kernel's result bound may leave int64."""
    if bound >= _INT64_LIMIT:
        raise VectorFallback("int result may overflow int64")


# ---------------------------------------------------------------------------
# Node compilers
# ---------------------------------------------------------------------------


def _compile_literal(expr: Literal) -> CompiledExpr:
    atomic, value = expr.type, expr.value
    if atomic is T.DRAWABLES:
        raise _NotVectorizable("drawables literal")
    dtype = NUMPY_DTYPES.get(atomic)

    def constant(batch: ColumnBatch) -> np.ndarray:
        n = len(batch)
        if dtype is None:
            arr = np.empty(n, dtype=object)
            arr[:] = value
            return arr
        return np.full(n, value, dtype=dtype)

    return constant


def _compile_fieldref(expr: FieldRef, schema: Schema) -> CompiledExpr:
    if schema.type_of(expr.name) is T.DRAWABLES:
        raise _NotVectorizable("drawables column")
    name = expr.name
    return lambda batch: batch.column(name)


def _compile_unary(expr: Unary, schema: Schema, hazards: Any) -> CompiledExpr:
    inner = _compile(expr.operand, schema, hazards)
    if expr.op == "-":
        def negate(batch: ColumnBatch) -> np.ndarray:
            x = inner(batch)
            if _is_int(x):
                _guard_int_result(_magnitude(x))
            return np.negative(x)
        return negate
    return lambda batch: np.logical_not(_as_bool(inner(batch)))


_COMPARE_UFUNCS = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}
_ARITH_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply}


def _compile_binary(expr: Binary, schema: Schema, hazards: Any) -> CompiledExpr:
    left = _compile(expr.left, schema, hazards)
    right = _compile(expr.right, schema, hazards)
    op = expr.op

    if op == "and":
        return lambda b: np.logical_and(_as_bool(left(b)), _as_bool(right(b)))
    if op == "or":
        return lambda b: np.logical_or(_as_bool(left(b)), _as_bool(right(b)))

    if op == "/":
        no_zero = hazards.proves(expr, "div_zero")
        exact = hazards.proves(expr, "exact_int")
        if no_zero:
            _elided_counter().inc()
        if exact:
            _elided_counter().inc()
        if no_zero and exact:
            return lambda b: np.true_divide(left(b), right(b))

        def divide(batch: ColumnBatch) -> np.ndarray:
            l, r = left(batch), right(batch)
            if not no_zero and np.any(r == 0):
                raise VectorFallback("division by zero in batch")
            if not exact and getattr(l, "dtype", None) is not None and \
                    l.dtype.kind in "iu" and r.dtype.kind in "iu":
                # Python divides the exact integers; numpy rounds each side
                # to float64 first — identical only inside the exact range.
                _guard_exact_int(l)
                _guard_exact_int(r)
            return np.true_divide(l, r)
        return divide

    if op == "%":
        if hazards.proves(expr, "div_zero"):
            _elided_counter().inc()
            return lambda b: np.mod(left(b), right(b))

        def modulo(batch: ColumnBatch) -> np.ndarray:
            l, r = left(batch), right(batch)
            if np.any(r == 0):
                raise VectorFallback("modulo by zero in batch")
            return np.mod(l, r)    # sign-of-divisor, like Python %
        return modulo

    if op in _ARITH_UFUNCS:
        ufunc = _ARITH_UFUNCS[op]

        def arith(batch: ColumnBatch) -> np.ndarray:
            l, r = left(batch), right(batch)
            if _is_int(l) and _is_int(r):
                # |l op r| is at most this, computed in Python ints.
                a, b = _magnitude(l), _magnitude(r)
                _guard_int_result(a * b if op == "*" else a + b)
            return ufunc(l, r)
        return arith

    if op in _COMPARE_UFUNCS:
        lt, rt = expr.left.infer(schema), expr.right.infer(schema)
        mixed = {lt, rt} == {T.INT, T.FLOAT}
        if mixed and hazards.proves(expr, "exact_int"):
            _elided_counter().inc()
            mixed = False
        ufunc = _COMPARE_UFUNCS[op]

        def compare(batch: ColumnBatch) -> np.ndarray:
            l, r = left(batch), right(batch)
            if mixed:
                _guard_exact_int(l)
                _guard_exact_int(r)
            return _as_bool(ufunc(l, r))
        return compare

    # "||" — object arrays of str: np.add applies + elementwise
    return lambda b: np.add(left(b), right(b))


def _compile_conditional(
    expr: Conditional, schema: Schema, hazards: Any
) -> CompiledExpr:
    if {expr.then_branch.infer(schema), expr.else_branch.infer(schema)} \
            == {T.INT, T.FLOAT}:
        raise _NotVectorizable("if with an int and a float branch")
    condition = _compile(expr.condition, schema, hazards)
    then_branch = _compile(expr.then_branch, schema, hazards)
    else_branch = _compile(expr.else_branch, schema, hazards)

    def choose(batch: ColumnBatch) -> np.ndarray:
        keep = _as_bool(condition(batch))
        return np.where(keep, then_branch(batch), else_branch(batch))

    return choose


def _compile_call(expr: Call, schema: Schema, hazards: Any) -> CompiledExpr:
    name = expr.fn.name
    args = [_compile(arg, schema, hazards) for arg in expr.args]

    if name == "abs":
        def absolute(batch: ColumnBatch) -> np.ndarray:
            x = args[0](batch)
            if _is_int(x):
                _guard_int_result(_magnitude(x))
            return np.abs(x)
        return absolute
    if name == "sqrt":
        nonneg = hazards.proves(expr, "sqrt_nonneg")
        if nonneg:
            _elided_counter().inc()

        def sqrt(batch: ColumnBatch) -> np.ndarray:
            x = _require_fixed(np.asarray(args[0](batch)))
            if not nonneg and np.any(x < 0):
                raise VectorFallback("sqrt of negative value in batch")
            return np.sqrt(x.astype(np.float64, copy=False))
        return sqrt
    if name in ("floor", "ceil", "round"):
        # np.round is banker's rounding, like round().
        ufunc = {"floor": np.floor, "ceil": np.ceil, "round": np.round}[name]
        def to_int(batch: ColumnBatch) -> np.ndarray:
            x = _require_fixed(np.asarray(args[0](batch)))
            if _is_int(x):
                return x.astype(np.int64, copy=False)
            # Python raises on NaN and inf and returns exact ints beyond
            # int64, where the cast would wrap; NaN fails the test too.
            if not np.all(np.abs(x) < float(_INT64_LIMIT)):
                raise VectorFallback(f"{name}() argument beyond int64")
            return ufunc(x).astype(np.int64)
        return to_int
    if name in ("min", "max"):
        arg_types = {arg.infer(schema) for arg in expr.args}
        if not all(T.numeric(at) for at in arg_types):
            raise _NotVectorizable(f"{name} over non-numeric arguments")
        if len(arg_types) > 1:
            raise _NotVectorizable(f"{name} over mixed int and float")
        ufunc = np.minimum if name == "min" else np.maximum
        def fold(batch: ColumnBatch) -> np.ndarray:
            values = [compiled(batch) for compiled in args]
            if any(x.dtype.kind == "f" and np.isnan(x).any()
                   for x in values):
                raise VectorFallback(f"NaN argument to {name}()")
            out = values[0]
            for x in values[1:]:
                out = ufunc(out, x)
            return out
        return fold
    if name in _DATE_PARTS:
        apply = expr.fn.apply
        def date_part(batch: ColumnBatch) -> np.ndarray:
            dates = args[0](batch).tolist()
            # A part is a function of the date's value: apply it once per
            # distinct date.
            parts = {date: apply(date) for date in dict.fromkeys(dates)}
            return np.fromiter(map(parts.__getitem__, dates), dtype=np.int64,
                               count=len(dates))
        return date_part
    # Everything else — transcendentals (ulp-level divergence from math.*),
    # text functions, date parsing, display constructors — stays on the row
    # backend.
    raise _NotVectorizable(f"function {name}() is not vectorizable")


def _compile(expr: Expr, schema: Schema, hazards: Any) -> CompiledExpr:
    if isinstance(expr, Literal):
        return _compile_literal(expr)
    if isinstance(expr, FieldRef):
        return _compile_fieldref(expr, schema)
    if isinstance(expr, Unary):
        return _compile_unary(expr, schema, hazards)
    if isinstance(expr, Binary):
        return _compile_binary(expr, schema, hazards)
    if isinstance(expr, Conditional):
        return _compile_conditional(expr, schema, hazards)
    if isinstance(expr, Call):
        return _compile_call(expr, schema, hazards)
    raise _NotVectorizable(f"unknown expression node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _checker_accepts(expr: Expr, schema: Schema) -> bool:
    """The static checker's verdict, reused verbatim.

    The expression is rendered back to source and pushed through
    :func:`repro.analyze.exprcheck.analyze_expression` — one judgment,
    shared by the lint surface and this compiler.  (Imported lazily:
    ``repro.analyze`` sits above ``repro.dbms`` in the layer order.)
    """
    from repro.analyze.exprcheck import analyze_expression

    try:
        checked, inferred, diagnostics = analyze_expression(str(expr), schema)
    except Exception:
        return False
    return checked is not None and inferred is not None and not diagnostics


def compile_expression(
    expr: Expr, schema: Schema, *, hazards: Any = None
) -> CompiledExpr | None:
    """Compile ``expr`` to an array program, or ``None`` if not vectorizable.

    The returned callable maps a :class:`ColumnBatch` (whose schema must
    match ``schema``) to one numpy array.  It may raise
    :class:`VectorFallback` on hazardous data; see the module docstring.
    ``hazards`` is an optional proof object (duck-typed
    ``proves(node, kind) -> bool``, see
    :class:`repro.analyze.absint.HazardProofs`) whose proofs elide the
    matching runtime guards.
    """
    if not _checker_accepts(expr, schema):
        return None
    try:
        return _compile(expr, schema, hazards if hazards is not None
                        else _NO_PROOFS)
    except _NotVectorizable:
        return None


def compile_predicate(
    expr: Expr, schema: Schema, *, hazards: Any = None
) -> CompiledExpr | None:
    """Compile a boolean predicate to a mask program (or ``None``)."""
    try:
        if expr.infer(schema) is not T.BOOL:
            return None
    except Exception:
        return None
    compiled = compile_expression(expr, schema, hazards=hazards)
    if compiled is None:
        return None
    return lambda batch: _as_bool(compiled(batch))


def vectorizable(expr: Expr, schema: Schema) -> bool:
    """Would :func:`compile_expression` accept this expression?"""
    return compile_expression(expr, schema) is not None
