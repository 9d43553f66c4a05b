"""Display attributes compiled to mark tables (Section 5.1).

A display attribute is an expression over the base tuple that builds
primitive drawables.  When the expression is made only of the closed
constructor set -- ``point``, ``circle``, ``filled_circle``, ``rect``,
``filled_rect``, ``line_to``, ``text_of``, ``combine``, ``offset``,
``recolor`` and ``nothing`` -- every tuple draws the same list of drawable
*slots*, one per constructor call, and only the slots' arguments vary with
the tuple.  :func:`mark_table` evaluates those arguments as columns over the
rows a viewer pass keeps: per slot, every kept row's offset, size, colour
and text.  That is the relation's *mark table*, the "mark relation" of Wu
et al. (PAPERS.md), and the renderer culls and paints it as arrays.

Exactness: element ``i`` of a slot's columns is what the per-tuple display
evaluation puts in that slot's drawable for kept row ``i``.

- Numeric and text arguments compile with
  :func:`~repro.dbms.expr_compile.compile_expression`, whose kernels match
  ``Expr.evaluate`` value for value.  An argument that reads no field is
  evaluated once, by ``evaluate`` itself.  A computed attribute an argument
  reads compiles the same way (:func:`attribute_kernels`), as computed
  locations do.
- Numbers go through ``float()`` (``astype(float64)``), offsets add up in
  the order the ``offset`` calls apply them, colours resolve through
  ``resolve_color`` and text through ``display_text`` -- once per distinct
  value, which is exact since both are functions of the value.
- A display *does not compile* when it uses anything else: a Python method,
  a ``wormhole``, a ``polygon``, an ``if`` over drawables, a stored
  drawables column, or an argument the compiler rejects.
- A display *does not evaluate* (:func:`mark_table` returns None) when a
  kernel raises ``VectorFallback``, or when a column holds a value a
  drawable constructor would reject: a negative or non-finite radius or
  size, a non-finite delta or offset, an unknown colour, or text that does
  not display.  The per-tuple loop then runs, and raises the same error at
  the same tuple as it always has.

:class:`MarkBatch` is the form in which the renderer hands the marks that
survive the cull to a surface, in paint order.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.dbms import types as T
from repro.dbms.columnar import ColumnBatch, field_column
from repro.dbms.expr import Call, Expr, FieldRef, lookup_function
from repro.dbms.expr_compile import VectorFallback, compile_expression
from repro.dbms.relation import MethodSet, RowSet, definition_key
from repro.dbms.tuples import Schema
from repro.display.displayable import SEQ_FIELD, DisplayableRelation
from repro.display.drawables import (
    Circle,
    Color,
    Drawable,
    Line,
    Point,
    Rectangle,
    Style,
    Text,
    display_text,
    resolve_color,
)

__all__ = [
    "PAINT_LINE",
    "PAINT_CIRCLE",
    "PAINT_DISC",
    "PAINT_RECT",
    "PAINT_FILL",
    "PAINT_TEXT",
    "MarkGroup",
    "MarkBatch",
    "MarkTable",
    "ColumnKernel",
    "attribute_kernels",
    "run_kernels",
    "mark_table",
    "paint_each",
]

#: Surface primitives a mark paints with: ``draw_line``, ``draw_circle``,
#: ``fill_circle``, ``draw_rect``, ``fill_rect`` (rectangles and points)
#: and ``draw_text``.
PAINT_LINE, PAINT_CIRCLE, PAINT_DISC, PAINT_RECT, PAINT_FILL, PAINT_TEXT = range(6)

_PROGRAM_MEMO_ENTRIES = 64
"""Compiled displays kept (:func:`_program`): one per set of method
definitions and stored schema recently rendered."""

_PROGRAMS: dict[tuple, "_Program | None"] = {}
_PROGRAMS_LOCK = threading.Lock()


class MarkGroup(NamedTuple):
    """The painted marks of one slot: what they paint with, where, in which
    colour, and their place in the relation's paint order.

    Mark ``i`` paints with primitive ``paint`` (a ``PAINT_*`` code) at
    ``coords[k][i]`` -- a line's endpoints, a circle's centre and radius, a
    rectangle's corners, or a text's top-left corner -- in colour
    ``palette[color[i]]``; a text mark shows ``texts[text[i]]``.  A
    coordinate, colour or text that is the same for every mark may be one
    scalar.  ``order[i]`` ranks the mark in paint order (tuple-major, slot
    minor).  Every stroke is one pixel wide, as the constructors build
    them.
    """

    paint: int
    coords: tuple
    color: Any
    text: Any
    order: np.ndarray


class MarkBatch(NamedTuple):
    """A relation's painted marks: what ``Surface.draw_marks`` takes.
    Orders are below ``bound``."""

    groups: tuple[MarkGroup, ...]
    palette: tuple[Color, ...]
    texts: tuple[str, ...]
    bound: int


def _broadcast(value: Any, count: int) -> np.ndarray:
    return np.broadcast_to(value, (count,))


def paint_each(surface: Any, marks: MarkBatch) -> None:
    """Paint ``marks`` one surface call each, in paint order: exactly the
    calls the per-tuple loop's drawables make (the SVG surface draws marks
    so)."""
    calls = []
    for group in marks.groups:
        count = len(group.order)
        columns = [_broadcast(c, count).tolist() for c in group.coords]
        colors = _broadcast(group.color, count).tolist()
        texts = _broadcast(-1 if group.text is None else group.text,
                           count).tolist()
        for i, order in enumerate(group.order.tolist()):
            calls.append((order, group.paint, [c[i] for c in columns],
                          colors[i], texts[i]))
    calls.sort(key=lambda call: call[0])
    for __, paint, coords, color, text in calls:
        color = marks.palette[color]
        if paint == PAINT_LINE:
            surface.draw_line(*coords, color, 1)
        elif paint == PAINT_CIRCLE:
            surface.draw_circle(*coords, color, 1)
        elif paint == PAINT_DISC:
            surface.fill_circle(*coords, color)
        elif paint == PAINT_RECT:
            surface.draw_rect(*coords, color, 1)
        elif paint == PAINT_FILL:
            surface.fill_rect(*coords, color)
        else:
            surface.draw_text(*coords, marks.texts[text], color)


# ---------------------------------------------------------------------------
# Computed attributes as columns
# ---------------------------------------------------------------------------


class ColumnKernel(NamedTuple):
    """One computed attribute's compiled kernel (see :func:`run_kernels`)."""

    name: str
    kernel: Callable[[ColumnBatch], np.ndarray]
    atomic: T.AtomicType
    reads: frozenset[str]


def attribute_kernels(
    methods: MethodSet, stored: Schema, names, ready=frozenset()
) -> list[ColumnKernel] | None:
    """Kernels for the computed attributes ``names`` and every computed
    attribute they read, dependencies first.

    None unless each attribute's column can equal ``method.compute``'s
    values exactly: the method is an expression (not Python); it is
    declared float, or int with an int expression; everything it reads is
    stored, in ``ready`` or compiles the same way -- an ambient field such
    as ``tioga_seq`` only when in ``ready``; and its expression compiles.
    :func:`run_kernels` makes the checks that need the data.
    """
    schema = methods.reference_schema()
    chain: list[ColumnKernel] = []
    done = set(ready)

    def visit(name: str) -> bool:
        if name in done or name in stored:
            return True
        if name not in methods:
            return False
        method = methods.get(name)
        if method.expr is None or (method.type is not T.FLOAT
                                   and method.expr.infer(schema) is not T.INT):
            return False
        if not all(visit(dep) for dep in sorted(method.depends)):
            return False
        kernel = compile_expression(method.expr, schema)
        if kernel is None:
            return False
        chain.append(ColumnKernel(name, kernel, method.type, method.depends))
        done.add(name)
        return True

    return chain if all(visit(name) for name in names) else None


def run_kernels(chain: list[ColumnKernel], schema: Schema,
                columns: dict[str, np.ndarray], count: int) -> None:
    """Add each kernel's column to ``columns``, which holds everything the
    chain reads over ``count`` rows.

    Raises ``VectorFallback`` unless every value is exactly the method's:
    the kernel raised none, and the result is numeric with, for a float,
    no NaN (float coercion rejects NaN, so the per-tuple path raises).
    """
    mask = np.ones(count, dtype=bool)
    for step in chain:
        batch = ColumnBatch(schema, {dep: columns[dep] for dep in step.reads},
                            mask=mask)
        # Python float arithmetic overflows to inf and yields NaN silently.
        with np.errstate(all="ignore"):
            values = np.asarray(step.kernel(batch))
        if step.atomic is T.FLOAT and values.dtype.kind in "iuf":
            values = values.astype(np.float64, copy=False)
            if np.isnan(values).any():
                raise VectorFallback(f"NaN in float attribute {step.name!r}")
        elif values.dtype.kind not in "iu":
            raise VectorFallback(f"attribute {step.name!r} is not an int column")
        columns[step.name] = values


# ---------------------------------------------------------------------------
# Compilation: display expression -> slots
# ---------------------------------------------------------------------------


class _NotMarks(Exception):
    """Compile-time verdict: this display keeps the per-tuple loop."""


class _Arg(NamedTuple):
    """One constructor argument: a column kernel, or (``kernel`` None) a
    constant evaluated once, which may have ``failed``."""

    index: int
    kernel: Callable[[ColumnBatch], np.ndarray] | None
    value: Any
    failed: bool


class _Slot(NamedTuple):
    """One drawable of every tuple's display list, as compiled."""

    kind: str
    filled: bool
    units: str
    size: tuple[_Arg, ...]
    colors: tuple[_Arg, ...]
    offsets: tuple[tuple[_Arg, _Arg], ...]


class _Program(NamedTuple):
    slots: tuple[_Slot, ...]
    args: tuple[_Arg, ...]
    stored: tuple[str, ...]
    seq: bool
    chain: tuple[ColumnKernel, ...]
    schema: Schema


_SHAPES = {
    "point": ("point", False, "screen", 0),
    "circle": ("circle", False, "screen", 1),
    "filled_circle": ("circle", True, "screen", 1),
    "rect": ("rectangle", False, "screen", 2),
    "filled_rect": ("rectangle", True, "screen", 2),
    "line_to": ("line", False, "world", 2),
    "text_of": ("text", False, "screen", 1),
}
"""Constructor → (drawable kind, filled, units, leading size arguments);
the optional argument after them is the colour."""

_CONSTRUCTORS = {
    lookup_function(name): name
    for name in (*_SHAPES, "combine", "offset", "recolor", "nothing")
}


class _Compiler:
    def __init__(self, methods: MethodSet, stored: Schema):
        self.methods = methods
        self.stored = stored
        self.schema = methods.reference_schema()
        self.args: list[_Arg] = []
        self.reads: set[str] = set()

    def argument(self, expr: Expr) -> _Arg:
        kernel = compile_expression(expr, self.schema)
        if kernel is None:
            raise _NotMarks(f"argument {expr} does not compile")
        index = len(self.args)
        used = expr.fields_used()
        if used:
            arg = _Arg(index, kernel, None, False)
            self.reads |= used
        else:
            try:
                arg = _Arg(index, None, expr.evaluate({}), False)
            except Exception:    # so does every tuple's evaluation
                arg = _Arg(index, None, None, True)
        self.args.append(arg)
        return arg

    def slots(self, expr: Expr, inlined: frozenset[str]) -> list[_Slot]:
        if isinstance(expr, FieldRef):
            # Another drawables attribute: its slots, inlined.
            name = expr.name
            if name in inlined or name in self.stored or name not in self.methods:
                raise _NotMarks(f"drawables field {name!r}")
            method = self.methods.get(name)
            if method.expr is None or method.type is not T.DRAWABLES:
                raise _NotMarks(f"drawables method {name!r}")
            return self.slots(method.expr, inlined | {name})
        name = _CONSTRUCTORS.get(expr.fn) if isinstance(expr, Call) else None
        if name is None:
            raise _NotMarks(f"{expr} is not a mark constructor")
        args = expr.args
        if name == "combine":
            return [slot for arg in args for slot in self.slots(arg, inlined)]
        if name == "offset":
            inner = self.slots(args[0], inlined)
            shift = (self.argument(args[1]), self.argument(args[2]))
            return [slot._replace(offsets=slot.offsets + (shift,))
                    for slot in inner]
        if name == "recolor":
            inner = self.slots(args[0], inlined)
            color = self.argument(args[1])
            return [slot._replace(colors=slot.colors + (color,))
                    for slot in inner]
        if name == "nothing":
            return []
        kind, filled, units, sizes = _SHAPES[name]
        size = tuple(self.argument(arg) for arg in args[:sizes])
        if len(args) > sizes:
            color = self.argument(args[sizes])
        else:
            color = _Arg(-1, None, "black", False)
        return [_Slot(kind, filled, units, size, (color,), ())]


def _compile(methods: MethodSet, stored: Schema) -> _Program | None:
    display = methods.get("display")
    if display.expr is None:
        return None
    compiler = _Compiler(methods, stored)
    try:
        slots = compiler.slots(display.expr, frozenset({"display"}))
    except _NotMarks:
        return None
    computed = sorted(name for name in compiler.reads
                      if name not in stored and name in methods)
    chain = attribute_kernels(methods, stored, computed, {SEQ_FIELD})
    if chain is None:
        return None
    reads = compiler.reads.union(*(step.reads for step in chain))
    return _Program(
        tuple(slots), tuple(compiler.args),
        tuple(sorted(name for name in reads if name in stored)),
        SEQ_FIELD in reads and SEQ_FIELD not in stored, tuple(chain),
        compiler.schema,
    )


def _program(relation: DisplayableRelation) -> _Program | None:
    """The relation's compiled display, or None when it keeps the per-tuple
    loop; memoized by method definitions and stored schema."""
    methods = relation.methods
    if "display" not in methods:
        return None    # the default display, or a stored drawables column
    schema = relation.rows.schema
    # A schema hashes its fields once; a join that re-fires after an update
    # builds an equal schema object, which finds the same entry.
    key = (definition_key(methods), schema)
    memo = _PROGRAMS.get(key, _PROGRAMS)
    if memo is not _PROGRAMS:
        return memo
    program = _compile(methods, schema)
    with _PROGRAMS_LOCK:    # server sessions render on several threads
        _PROGRAMS[key] = program
        while len(_PROGRAMS) > _PROGRAM_MEMO_ENTRIES:
            del _PROGRAMS[next(iter(_PROGRAMS))]
    return program


# ---------------------------------------------------------------------------
# Evaluation: slots -> columns over the kept rows
# ---------------------------------------------------------------------------


class SlotColumns(NamedTuple):
    """One slot's values over the kept rows: each an array with one element
    per row, or one Python scalar when every row has the same value."""

    kind: str
    filled: bool
    units: str
    offset_x: Any
    offset_y: Any
    size: tuple
    color: Any
    text: Any


def _at(value: Any, row: int) -> Any:
    return value[row] if isinstance(value, np.ndarray) else value


class MarkTable(NamedTuple):
    """A relation's marks over the kept rows: one :class:`SlotColumns` per
    slot; colours and texts are indices into ``palette`` and ``texts``, and
    ``lengths`` holds each text's length."""

    slots: tuple[SlotColumns, ...]
    palette: tuple[Color, ...]
    texts: tuple[str, ...]
    lengths: np.ndarray

    def drawable(self, row: int, slot: int) -> Drawable:
        """The drawable the per-tuple loop builds in ``slot`` of kept row
        ``row``: same class, attributes and values."""
        columns = self.slots[slot]
        offset = (float(_at(columns.offset_x, row)),
                  float(_at(columns.offset_y, row)))
        color = self.palette[_at(columns.color, row)]
        style = Style(filled=columns.filled)
        size = [float(_at(column, row)) for column in columns.size]
        if columns.kind == "point":
            return Point(offset, color, style)
        if columns.kind == "circle":
            return Circle(size[0], offset, color, style)
        if columns.kind == "rectangle":
            return Rectangle(size[0], size[1], offset, color, style)
        if columns.kind == "line":
            return Line((size[0], size[1]), offset, color, style, "world")
        return Text(self.texts[_at(columns.text, row)], offset, color, style)

    def geometry(self, slot: int, anchor_x: np.ndarray, anchor_y: np.ndarray,
                 scale: float) -> tuple[int, tuple, tuple]:
        """Slot ``slot``'s paint code, bounding boxes and paint coordinates
        at the kept rows' screen anchors.

        The arithmetic is ``Drawable.bbox`` and ``Drawable.paint``'s, term
        for term: offsets scale with world units and flip y, outlines grow
        by a stroke of zero (``1 // 2``: ``x - 0`` is ``x``, ``x + 0`` turns
        -0.0 into 0.0), and ``min``/``max`` keep Python's choice of operand
        when a coordinate is NaN.
        """
        columns = self.slots[slot]
        s = scale if columns.units == "world" else 1.0
        with np.errstate(all="ignore"):
            x = anchor_x + columns.offset_x * s
            y = anchor_y - columns.offset_y * s
            kind = columns.kind
            if kind == "point":
                return (PAINT_FILL, (x - 1, y - 1, x + 1, y + 1),
                        (x - 0, y - 0, x + 0, y + 0))
            if kind == "circle":
                r = columns.size[0] * s
                box = (x - r, y - r, x + r, y + r)
                if columns.filled:
                    return PAINT_DISC, box, (x, y, r)
                return (PAINT_CIRCLE, (box[0], box[1], box[2] + 0, box[3] + 0),
                        (x, y, r))
            if kind == "rectangle":
                hw = columns.size[0] * s / 2.0
                hh = columns.size[1] * s / 2.0
                box = (x - hw, y - hh, x + hw, y + hh)
                if columns.filled:
                    return PAINT_FILL, box, box
                return (PAINT_RECT, (box[0], box[1], box[2] + 0, box[3] + 0),
                        box)
            if kind == "line":
                x1 = x + columns.size[0] * s
                y1 = y - columns.size[1] * s
                box = (np.where(x1 < x, x1, x), np.where(y1 < y, y1, y),
                       np.where(x1 > x, x1, x) + 0, np.where(y1 > y, y1, y) + 0)
                return PAINT_LINE, box, (x, y, x1, y1)
            half_w = self.lengths[columns.text] * Text.CHAR_WIDTH / 2.0
            box = (x - half_w, y - Text.CHAR_HEIGHT / 2.0, x + half_w,
                   y + Text.CHAR_HEIGHT / 2.0)
            return PAINT_TEXT, box, box[:2]


def mark_table(relation: DisplayableRelation,
               kept: np.ndarray) -> MarkTable | None:
    """The relation's display as a :class:`MarkTable` over the rows at
    ``kept`` (ascending tuple indices), or None when the display must run
    tuple by tuple (see the module docstring)."""
    program = _program(relation)
    if program is None:
        return None
    if not len(kept):
        return MarkTable((), (), (), np.zeros(0, dtype=np.int64))
    try:
        return _evaluate(program, relation.rows, kept)
    except VectorFallback:
        return None


def _evaluate(program: _Program, rows: RowSet, kept: np.ndarray) -> MarkTable:
    count = len(kept)
    values: list[Any] = []
    if program.stored or program.seq or program.chain or any(
            arg.kernel is not None for arg in program.args):
        columns = {name: _stored_at(rows, name, kept)
                   for name in program.stored}
        if program.seq:
            columns[SEQ_FIELD] = kept.astype(np.int64)
        run_kernels(list(program.chain), program.schema, columns, count)
        batch = ColumnBatch(program.schema, columns,
                            mask=np.ones(count, dtype=bool))
    else:
        batch = None    # every argument is a constant
    values = [_run(arg, batch) for arg in program.args]

    def value(arg: _Arg) -> Any:
        return arg.value if arg.index < 0 else values[arg.index]

    palette: dict[Color, int] = {}
    texts: dict[str, int] = {}
    slots = []
    with np.errstate(all="ignore"):
        for slot in program.slots:
            offset_x = offset_y = 0.0
            for dx, dy in slot.offsets:
                offset_x = offset_x + _numbers(value(dx))
                offset_y = offset_y + _numbers(value(dy))
            _require(_finite(offset_x) and _finite(offset_y),
                     "non-finite offset")
            colors = [_color_ids(value(arg), palette) for arg in slot.colors]
            text = None
            size: tuple = ()
            if slot.kind == "text":
                text = _text_ids(value(slot.size[0]), count, texts)
            else:
                size = tuple(_numbers(value(arg)) for arg in slot.size)
            for column in size:
                _require(_finite(column), "non-finite size")
                if slot.kind != "line":
                    _require(_nonnegative(column), "negative size")
            slots.append(SlotColumns(slot.kind, slot.filled, slot.units,
                                     offset_x, offset_y, size, colors[-1],
                                     text))
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    return MarkTable(tuple(slots), tuple(palette), tuple(texts), lengths)


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise VectorFallback(what)


def _finite(value: Any) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    return bool(np.isfinite(value).all())


def _nonnegative(value: Any) -> bool:
    if isinstance(value, float):
        return value >= 0
    return bool((value >= 0).all())


def _stored_at(rows: RowSet, name: str, kept: np.ndarray) -> np.ndarray:
    """Stored field ``name`` of the rows at ``kept``: from the row set's
    column batch when it has one, else from those rows' tuples."""
    batch = rows.column_batch
    if batch is not None and batch.schema == rows.schema:
        return batch.column(name)[kept]
    source = rows.rows
    return field_column(rows.schema, [source[i] for i in kept.tolist()], name)


def _run(arg: _Arg, batch: ColumnBatch | None) -> Any:
    """An argument's value: its constant, or its kernel's column."""
    if arg.failed:
        raise VectorFallback("constant argument raises")
    if arg.kernel is None:
        return arg.value
    try:
        with np.errstate(all="ignore"):
            return np.asarray(arg.kernel(batch))
    except VectorFallback:
        raise
    except Exception as exc:    # e.g. an int literal beyond int64
        raise VectorFallback(str(exc)) from exc


def _numbers(value: Any) -> Any:
    """``float()`` of a constant, or of each row's value as float64."""
    try:
        if isinstance(value, np.ndarray):
            return value.astype(np.float64)
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise VectorFallback(str(exc)) from exc


def _color_ids(value: Any, palette: dict[Color, int]) -> Any:
    """A constant colour's index into ``palette`` (grown as needed), or
    each row's, resolved once per distinct colour name."""
    try:
        if not isinstance(value, np.ndarray):
            return palette.setdefault(resolve_color(value), len(palette))
        names = value.tolist()
        ids = {name: palette.setdefault(resolve_color(name), len(palette))
               for name in dict.fromkeys(names)}
    except Exception as exc:    # resolve_color's DisplayError
        raise VectorFallback(str(exc)) from exc
    return np.fromiter(map(ids.__getitem__, names), dtype=np.intp,
                       count=len(names))


def _text_ids(value: Any, count: int, texts: dict[str, int]) -> Any:
    """A constant's ``display_text`` as an index into ``texts`` (grown as
    needed), or each row's, computed once per distinct value.

    Numbers are distinct by bit pattern (-0.0 shows as "-0"), strings by
    value; other objects are shown one by one.
    """
    try:
        if not isinstance(value, np.ndarray):
            return texts.setdefault(display_text(value), len(texts))
        if value.dtype.kind in "biuf":
            keys = value.view(np.int64) if value.dtype.kind == "f" else value
            __, first, inverse = np.unique(keys, return_index=True,
                                           return_inverse=True)
            distinct = value[first].tolist()
        else:
            items = value.tolist()
            if all(type(item) is str for item in items):
                index: dict[str, int] = {}
                inverse = np.fromiter(
                    (index.setdefault(item, len(index)) for item in items),
                    dtype=np.intp, count=count)
                distinct = list(index)
            else:
                distinct, inverse = items, np.arange(count)
        ids = np.array([texts.setdefault(display_text(item), len(texts))
                        for item in distinct], dtype=np.intp)
    except Exception as exc:    # e.g. a NaN, which no type displays
        raise VectorFallback(str(exc)) from exc
    return ids[inverse]
