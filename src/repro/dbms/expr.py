"""Typed expression AST for the query language.

Attribute definitions "may be given in a general query language" (§5.3) and
Restrict/Join/Replicate take predicates in "the underlying query language"
(§4.2, §7.4).  This module is that language's core: a small, statically typed
expression AST with

* literals, field references, unary/binary operators, conditionals, and
  function calls,
* type inference against a :class:`~repro.dbms.tuples.Schema` (errors are
  reported before any data flows), and
* evaluation against a tuple.

The function table is extensible: the display layer registers drawable
constructors (``circle``, ``text_of`` …) so display attributes are ordinary
expressions of the base tuple, exactly as the paper prescribes.
"""

from __future__ import annotations

import datetime as _dt
import math
from typing import Any, Callable, Mapping, Sequence

from repro.dbms import types as T
from repro.dbms.tuples import Schema
from repro.errors import (
    DisplayError,
    EvaluationError,
    ExpressionError,
    TypeCheckError,
)

__all__ = [
    "Expr",
    "Literal",
    "FieldRef",
    "Unary",
    "Binary",
    "Conditional",
    "Call",
    "FunctionDef",
    "register_function",
    "function_names",
    "lookup_function",
]


class Expr:
    """Abstract expression node.

    Every node carries an optional ``pos`` — the character offset of its
    defining token in the source it was parsed from (``None`` for nodes
    built programmatically).  Diagnostics use it to point at the exact
    token, including inside nested conditional branches.
    """

    pos: int | None

    def infer(self, schema: Schema) -> T.AtomicType:
        """Infer this expression's type against ``schema`` or raise."""
        raise NotImplementedError

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        """Evaluate against a row supporting ``row[name]``."""
        raise NotImplementedError

    def fields_used(self) -> set[str]:
        """Names of all fields this expression references."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class Literal(Expr):
    """A constant of any atomic type."""

    __slots__ = ("value", "type", "pos")

    def __init__(self, value: Any, *, pos: int | None = None):
        self.type = T.infer_type(value)
        self.value = value
        self.pos = pos

    def infer(self, schema: Schema) -> T.AtomicType:
        del schema
        return self.type

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        del row
        return self.value

    def fields_used(self) -> set[str]:
        return set()

    def __str__(self) -> str:
        if self.type is T.TEXT:
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if self.type is T.DATE:
            return f"date('{self.value.isoformat()}')"
        return str(self.value)


class FieldRef(Expr):
    """A reference to a field of the input tuple (the paper's ``t.l``)."""

    __slots__ = ("name", "pos")

    def __init__(self, name: str, *, pos: int | None = None):
        self.name = name
        self.pos = pos

    def infer(self, schema: Schema) -> T.AtomicType:
        if self.name not in schema:
            raise TypeCheckError(
                f"unknown field {self.name!r}; schema has ({', '.join(schema.names)})"
            )
        return schema.type_of(self.name)

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        try:
            return row[self.name]
        except KeyError as exc:  # pragma: no cover - guarded by infer()
            raise EvaluationError(f"row has no field {self.name!r}") from exc

    def fields_used(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


_UNARY_OPS = {"-", "not"}


class Unary(Expr):
    """Unary negation (numeric) and logical not."""

    __slots__ = ("op", "operand", "pos")

    def __init__(self, op: str, operand: Expr, *, pos: int | None = None):
        if op not in _UNARY_OPS:
            raise ExpressionError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand
        self.pos = pos

    def infer(self, schema: Schema) -> T.AtomicType:
        inner = self.operand.infer(schema)
        if self.op == "-":
            if not T.numeric(inner):
                raise TypeCheckError(f"unary - requires a numeric operand, got {inner}")
            return inner
        if inner is not T.BOOL:
            raise TypeCheckError(f"'not' requires a bool operand, got {inner}")
        return T.BOOL

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        value = self.operand.evaluate(row)
        if self.op == "-":
            return -value
        return not value

    def fields_used(self) -> set[str]:
        return self.operand.fields_used()

    def __str__(self) -> str:
        if self.op == "not":
            return f"(not {self.operand})"
        return f"(-{self.operand})"


_ARITH = {"+", "-", "*", "/", "%"}
_COMPARE = {"=", "!=", "<", "<=", ">", ">="}
_LOGIC = {"and", "or"}
_CONCAT = {"||"}
_COMPARABLE = (T.INT, T.FLOAT, T.TEXT, T.DATE, T.BOOL)


class Binary(Expr):
    """Arithmetic, comparison, logical connectives, and text concatenation."""

    __slots__ = ("op", "left", "right", "pos")

    def __init__(
        self, op: str, left: Expr, right: Expr, *, pos: int | None = None
    ):
        if op not in _ARITH | _COMPARE | _LOGIC | _CONCAT:
            raise ExpressionError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right
        self.pos = pos

    def infer(self, schema: Schema) -> T.AtomicType:
        lt = self.left.infer(schema)
        rt = self.right.infer(schema)
        if self.op in _ARITH:
            if not (T.numeric(lt) and T.numeric(rt)):
                raise TypeCheckError(
                    f"operator {self.op!r} requires numeric operands, got {lt} and {rt}"
                )
            if self.op == "/":
                return T.FLOAT
            return T.FLOAT if T.FLOAT in (lt, rt) else T.INT
        if self.op in _COMPARE:
            compatible = lt is rt or (T.numeric(lt) and T.numeric(rt))
            if not compatible or lt not in _COMPARABLE:
                raise TypeCheckError(
                    f"cannot compare {lt} with {rt} using {self.op!r}"
                )
            return T.BOOL
        if self.op in _LOGIC:
            if lt is not T.BOOL or rt is not T.BOOL:
                raise TypeCheckError(
                    f"operator {self.op!r} requires bool operands, got {lt} and {rt}"
                )
            return T.BOOL
        # concatenation
        if lt is not T.TEXT or rt is not T.TEXT:
            raise TypeCheckError(f"'||' requires text operands, got {lt} and {rt}")
        return T.TEXT

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        op = self.op
        if op == "and":
            return bool(self.left.evaluate(row)) and bool(self.right.evaluate(row))
        if op == "or":
            return bool(self.left.evaluate(row)) or bool(self.right.evaluate(row))
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise EvaluationError(f"division by zero in {self}")
            return left / right
        if op == "%":
            if right == 0:
                raise EvaluationError(f"modulo by zero in {self}")
            return left % right
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        return left + right  # "||" on two strings

    def fields_used(self) -> set[str]:
        return self.left.fields_used() | self.right.fields_used()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


class Conditional(Expr):
    """``if cond then a else b`` with matching branch types."""

    __slots__ = ("condition", "then_branch", "else_branch", "pos")

    def __init__(
        self,
        condition: Expr,
        then_branch: Expr,
        else_branch: Expr,
        *,
        pos: int | None = None,
    ):
        self.condition = condition
        self.then_branch = then_branch
        self.else_branch = else_branch
        self.pos = pos

    def infer(self, schema: Schema) -> T.AtomicType:
        ct = self.condition.infer(schema)
        if ct is not T.BOOL:
            raise TypeCheckError(f"'if' condition must be bool, got {ct}")
        tt = self.then_branch.infer(schema)
        et = self.else_branch.infer(schema)
        if tt is et:
            return tt
        if T.numeric(tt) and T.numeric(et):
            return T.FLOAT
        raise TypeCheckError(f"'if' branches have mismatched types {tt} and {et}")

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        if self.condition.evaluate(row):
            return self.then_branch.evaluate(row)
        return self.else_branch.evaluate(row)

    def fields_used(self) -> set[str]:
        return (
            self.condition.fields_used()
            | self.then_branch.fields_used()
            | self.else_branch.fields_used()
        )

    def __str__(self) -> str:
        return f"(if {self.condition} then {self.then_branch} else {self.else_branch})"


class FunctionDef:
    """A callable registered in the expression language.

    ``infer`` receives the argument types and returns the result type (or
    raises :class:`TypeCheckError`); ``apply`` receives the argument values.
    """

    __slots__ = ("name", "infer", "apply", "doc")

    def __init__(
        self,
        name: str,
        infer: Callable[[Sequence[T.AtomicType]], T.AtomicType],
        apply: Callable[..., Any],
        doc: str = "",
    ):
        self.name = name
        self.infer = infer
        self.apply = apply
        self.doc = doc


_FUNCTIONS: dict[str, FunctionDef] = {}


def register_function(fn: FunctionDef) -> FunctionDef:
    """Register (or replace) a function available to all expressions."""
    _FUNCTIONS[fn.name] = fn
    return fn


def lookup_function(name: str) -> FunctionDef:
    try:
        return _FUNCTIONS[name]
    except KeyError as exc:
        raise ExpressionError(
            f"unknown function {name!r}; known functions: {', '.join(sorted(_FUNCTIONS))}"
        ) from exc


def function_names() -> list[str]:
    return sorted(_FUNCTIONS)


class Call(Expr):
    """A call to a registered function."""

    __slots__ = ("fn", "args", "pos")

    def __init__(
        self, name: str, args: Sequence[Expr], *, pos: int | None = None
    ):
        self.fn = lookup_function(name)
        self.args = list(args)
        self.pos = pos

    def infer(self, schema: Schema) -> T.AtomicType:
        arg_types = [arg.infer(schema) for arg in self.args]
        try:
            return self.fn.infer(arg_types)
        except TypeCheckError as exc:
            raise TypeCheckError(f"in call to {self.fn.name}(): {exc}") from exc

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        values = [arg.evaluate(row) for arg in self.args]
        try:
            return self.fn.apply(*values)
        except (EvaluationError, TypeCheckError):
            raise
        except DisplayError as exc:
            # A malformed drawable keeps its own error class (and wire code).
            raise DisplayError(f"error in {self.fn.name}(): {exc}") from exc
        except Exception as exc:
            raise EvaluationError(f"error in {self.fn.name}(): {exc}") from exc

    def fields_used(self) -> set[str]:
        used: set[str] = set()
        for arg in self.args:
            used |= arg.fields_used()
        return used

    def __str__(self) -> str:
        return f"{self.fn.name}({', '.join(map(str, self.args))})"


# ---------------------------------------------------------------------------
# Builtin functions
# ---------------------------------------------------------------------------


def _want(n: int, arg_types: Sequence[T.AtomicType], name: str) -> None:
    if len(arg_types) != n:
        raise TypeCheckError(f"{name} expects {n} argument(s), got {len(arg_types)}")


def _numeric_unary(name: str, result_float: bool = True):
    def infer(arg_types: Sequence[T.AtomicType]) -> T.AtomicType:
        _want(1, arg_types, name)
        if not T.numeric(arg_types[0]):
            raise TypeCheckError(f"argument must be numeric, got {arg_types[0]}")
        return T.FLOAT if result_float else arg_types[0]

    return infer


def _register_builtins() -> None:
    register_function(
        FunctionDef(
            "abs",
            _numeric_unary("abs", result_float=False),
            abs,
            "Absolute value.",
        )
    )
    register_function(
        FunctionDef("sqrt", _numeric_unary("sqrt"), _safe_sqrt, "Square root.")
    )
    register_function(
        FunctionDef("ln", _numeric_unary("ln"), _safe_ln, "Natural logarithm.")
    )
    register_function(
        FunctionDef("log10", _numeric_unary("log10"), _safe_log10, "Base-10 logarithm.")
    )
    register_function(FunctionDef("exp", _numeric_unary("exp"), math.exp, "e**x."))
    register_function(FunctionDef("sin", _numeric_unary("sin"), math.sin, "Sine."))
    register_function(FunctionDef("cos", _numeric_unary("cos"), math.cos, "Cosine."))

    def _floorlike(name: str, fn: Callable[[float], int]) -> None:
        def infer(arg_types: Sequence[T.AtomicType]) -> T.AtomicType:
            _want(1, arg_types, name)
            if not T.numeric(arg_types[0]):
                raise TypeCheckError(f"argument must be numeric, got {arg_types[0]}")
            return T.INT

        register_function(FunctionDef(name, infer, fn, f"{name} to integer."))

    _floorlike("floor", lambda v: int(math.floor(v)))
    _floorlike("ceil", lambda v: int(math.ceil(v)))
    _floorlike("round", lambda v: int(round(v)))

    def _minmax(name: str, fn: Callable[..., Any]) -> None:
        def infer(arg_types: Sequence[T.AtomicType]) -> T.AtomicType:
            if len(arg_types) < 2:
                raise TypeCheckError(f"{name} expects at least 2 arguments")
            if all(T.numeric(at) for at in arg_types):
                return T.FLOAT if T.FLOAT in arg_types else T.INT
            first = arg_types[0]
            if all(at is first for at in arg_types) and first in (T.TEXT, T.DATE):
                return first
            raise TypeCheckError(f"{name} arguments must be all-numeric or same type")

        register_function(FunctionDef(name, infer, fn, f"{name} of the arguments."))

    _minmax("min", min)
    _minmax("max", max)

    def _date_part(name: str, extract: Callable[[_dt.date], int]) -> None:
        def infer(arg_types: Sequence[T.AtomicType]) -> T.AtomicType:
            _want(1, arg_types, name)
            if arg_types[0] is not T.DATE:
                raise TypeCheckError(f"argument must be a date, got {arg_types[0]}")
            return T.INT

        register_function(FunctionDef(name, infer, extract, f"{name} of a date."))

    _date_part("year", lambda d: d.year)
    _date_part("month", lambda d: d.month)
    _date_part("day", lambda d: d.day)
    _date_part("day_of_year", lambda d: d.timetuple().tm_yday)

    def _date_infer(arg_types: Sequence[T.AtomicType]) -> T.AtomicType:
        _want(1, arg_types, "date")
        if arg_types[0] is not T.TEXT:
            raise TypeCheckError(f"argument must be text, got {arg_types[0]}")
        return T.DATE

    register_function(
        FunctionDef("date", _date_infer, T.DATE.parse, "Parse 'YYYY-MM-DD'.")
    )

    def _text_unary(name: str, fn: Callable[[str], Any], result: T.AtomicType) -> None:
        def infer(arg_types: Sequence[T.AtomicType]) -> T.AtomicType:
            _want(1, arg_types, name)
            if arg_types[0] is not T.TEXT:
                raise TypeCheckError(f"argument must be text, got {arg_types[0]}")
            return result

        register_function(FunctionDef(name, infer, fn, f"{name} of a string."))

    _text_unary("lower", str.lower, T.TEXT)
    _text_unary("upper", str.upper, T.TEXT)
    _text_unary("length", len, T.INT)

    def _substr_infer(arg_types: Sequence[T.AtomicType]) -> T.AtomicType:
        _want(3, arg_types, "substr")
        if arg_types[0] is not T.TEXT or arg_types[1] is not T.INT or arg_types[2] is not T.INT:
            raise TypeCheckError("substr(text, int start, int length)")
        return T.TEXT

    register_function(
        FunctionDef(
            "substr",
            _substr_infer,
            lambda s, start, length: s[start : start + length],
            "Substring by 0-based start and length.",
        )
    )

    def _str_infer(arg_types: Sequence[T.AtomicType]) -> T.AtomicType:
        _want(1, arg_types, "str")
        return T.TEXT

    register_function(
        FunctionDef(
            "str",
            _str_infer,
            lambda v: T.infer_type(v).default_display(v),
            "Render any value with its type's default display.",
        )
    )

    def _like_infer(arg_types: Sequence[T.AtomicType]) -> T.AtomicType:
        _want(2, arg_types, "like")
        if arg_types[0] is not T.TEXT or arg_types[1] is not T.TEXT:
            raise TypeCheckError("like(text, pattern) takes two text arguments")
        return T.BOOL

    register_function(
        FunctionDef(
            "like",
            _like_infer,
            _like_match,
            "SQL LIKE matching: % matches any run, _ matches one character.",
        )
    )


def _like_match(value: str, pattern: str) -> bool:
    """SQL LIKE semantics with % and _ wildcards (case-sensitive)."""
    import re

    regex = "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
        for ch in pattern
    )
    return re.fullmatch(regex, value) is not None


def _safe_sqrt(value: float) -> float:
    if value < 0:
        raise EvaluationError(f"sqrt of negative value {value}")
    return math.sqrt(value)


def _safe_ln(value: float) -> float:
    if value <= 0:
        raise EvaluationError(f"ln of non-positive value {value}")
    return math.log(value)


def _safe_log10(value: float) -> float:
    if value <= 0:
        raise EvaluationError(f"log10 of non-positive value {value}")
    return math.log10(value)


_register_builtins()
