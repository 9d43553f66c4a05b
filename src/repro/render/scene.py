"""Tuple-wise scene construction and rendering (Sections 2 and 5).

"If R has location attributes x, y, l1, ..., l_{n-2} each tuple t of R is
rendered by drawing t.display at position <t.x, t.y, t.l1, ...> in n-space.
Because a visualization space may be much larger than the canvas, the viewer
filters tuples to the ranges specified by the sliders for dimensions l1, ...,
filters tuples to the visible real estate on the screen for dimensions x and
y, and then renders the tuples' display attribute to the screen."

:func:`render_composite` implements exactly that pipeline over a composite's
components in drawing order, recording culling statistics (benchmarked by the
Perf-3 experiment) and a display list of :class:`RenderedItem` records used
for picking (the Section-8 update path starts from a click).  Wormhole
drawables recursively render their destination canvas through a resolver.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.dbms.columnar import ColumnBatch, field_column
from repro.dbms.expr import FieldRef
from repro.dbms.expr_compile import VectorFallback, compile_expression
from repro.dbms.tuples import Tuple
from repro.dbms import types as T
from repro.display.displayable import (
    SEQ_FIELD,
    Composite,
    DisplayableRelation,
    Group,
)
from repro.display.drawables import ViewerDrawable
from repro.errors import ViewerError
from repro.obs.trace import current_tracer
from repro.render.canvas import Canvas

__all__ = [
    "ViewState",
    "RenderedItem",
    "SceneStats",
    "CullNode",
    "CanvasDef",
    "CanvasResolver",
    "render_composite",
    "render_group",
    "location_columns",
    "MAX_WORMHOLE_DEPTH",
]

MAX_WORMHOLE_DEPTH = 2
"""Nested wormhole/magnifier rendering depth limit (prevents mutual-viewer
recursion from looping forever)."""

_CULL_MARGIN_PX = 120.0
"""Tuples whose anchor lies this far outside the viewport are culled before
their drawables are even constructed."""

_LOCATION_MEMO_ENTRIES = 4
"""Location-column sets one row set keeps (:func:`location_columns`): one per
set of location definitions it was recently viewed through."""


class ViewState:
    """A viewer's position: n panning dimensions plus elevation (§2).

    ``elevation`` controls zoom: the visible world width is
    ``|elevation| * world_per_elevation``, so descending toward the canvas
    (elevation → 0) magnifies.  Negative elevations view the *underside* of
    a canvas — the rear view mirror's perspective after passing through a
    wormhole (§6.3).  Zero is illegal: at zero elevation the user is passing
    through, not viewing.  ``slider_ranges`` holds the [lo, hi] range per
    slider dimension name; relations lacking a dimension are invariant in it
    (§6.1).
    """

    def __init__(
        self,
        center: tuple[float, float] = (0.0, 0.0),
        elevation: float = 100.0,
        slider_ranges: dict[str, tuple[float, float]] | None = None,
        viewport: tuple[int, int] = (640, 480),
        world_per_elevation: float = 1.0,
    ):
        if elevation == 0:
            raise ViewerError(
                "viewer elevation cannot be zero (zero elevation passes "
                "through a wormhole); use a positive elevation above the "
                "canvas or a negative one for the underside"
            )
        if world_per_elevation <= 0:
            raise ViewerError("world_per_elevation must be positive")
        self.center = (float(center[0]), float(center[1]))
        self.elevation = float(elevation)
        self.slider_ranges = {
            dim: (float(lo), float(hi))
            for dim, (lo, hi) in (slider_ranges or {}).items()
        }
        self.viewport = (int(viewport[0]), int(viewport[1]))
        self.world_per_elevation = float(world_per_elevation)

    # -- transform --------------------------------------------------------

    @property
    def visible_world_width(self) -> float:
        return abs(self.elevation) * self.world_per_elevation

    @property
    def scale(self) -> float:
        """Pixels per world unit."""
        return self.viewport[0] / self.visible_world_width

    @property
    def visible_world_height(self) -> float:
        return self.viewport[1] / self.scale

    def to_screen(self, wx: float, wy: float) -> tuple[float, float]:
        """World → screen pixels (screen y grows downward)."""
        s = self.scale
        px = self.viewport[0] / 2.0 + (wx - self.center[0]) * s
        py = self.viewport[1] / 2.0 - (wy - self.center[1]) * s
        return px, py

    def to_world(self, px: float, py: float) -> tuple[float, float]:
        """Screen pixels → world."""
        s = self.scale
        wx = self.center[0] + (px - self.viewport[0] / 2.0) / s
        wy = self.center[1] - (py - self.viewport[1] / 2.0) / s
        return wx, wy

    def world_bounds(self) -> tuple[float, float, float, float]:
        """Visible world rectangle (x0, y0, x1, y1)."""
        half_w = self.visible_world_width / 2.0
        half_h = self.visible_world_height / 2.0
        return (
            self.center[0] - half_w,
            self.center[1] - half_h,
            self.center[0] + half_w,
            self.center[1] + half_h,
        )

    def copy(self) -> "ViewState":
        return ViewState(
            self.center,
            self.elevation,
            dict(self.slider_ranges),
            self.viewport,
            self.world_per_elevation,
        )

    def __repr__(self) -> str:
        return (
            f"ViewState(center={self.center}, elevation={self.elevation}, "
            f"sliders={self.slider_ranges})"
        )


class RenderedItem(NamedTuple):
    """One painted drawable, recorded for picking (topmost = last)."""

    bbox: tuple[float, float, float, float]
    relation_name: str
    source_table: str | None
    row: Tuple
    tuple_index: int
    drawable_kind: str
    drawable: Any


class SceneStats:
    """Culling/rendering counters (the Perf-3 experiment's measurements)."""

    def __init__(self) -> None:
        self.tuples_considered = 0
        self.tuples_rendered = 0
        self.culled_by_slider = 0
        self.culled_by_viewport = 0
        self.relations_culled_by_elevation = 0
        self.drawables_painted = 0
        #: One :class:`CullNode` per relation culled (none with
        #: ``cull=False``); EXPLAIN prints them.
        self.cull_plans: list[CullNode] = []

    def to_dict(self) -> dict[str, int]:
        """Stable machine-readable form (run summaries, ``repro stats``)."""
        return {
            "tuples_considered": self.tuples_considered,
            "tuples_rendered": self.tuples_rendered,
            "culled_by_slider": self.culled_by_slider,
            "culled_by_viewport": self.culled_by_viewport,
            "relations_culled_by_elevation": self.relations_culled_by_elevation,
            "drawables_painted": self.drawables_painted,
            "cull_plans": len(self.cull_plans),
        }

    def __repr__(self) -> str:
        return (
            f"SceneStats(considered={self.tuples_considered}, "
            f"rendered={self.tuples_rendered}, slider={self.culled_by_slider}, "
            f"viewport={self.culled_by_viewport}, "
            f"elevation={self.relations_culled_by_elevation}, "
            f"painted={self.drawables_painted})"
        )


class CullNode(NamedTuple):
    """One relation's cull as EXPLAIN reports it: the tuples considered,
    those within the slider ranges, and those also near the viewport."""

    relation: str
    rows_in: int
    in_ranges: int
    rows_out: int

    def describe(self) -> str:
        return (
            f"slider + viewport cull of {self.relation!r}  [rows_in="
            f"{self.rows_in} in_ranges={self.in_ranges} "
            f"rows_out={self.rows_out}]"
        )


class CanvasDef(NamedTuple):
    """A wormhole destination: the displayable living on a named canvas plus
    its default slider ranges and zoom factor."""

    displayable: Composite | Group | DisplayableRelation
    slider_ranges: dict[str, tuple[float, float]]
    world_per_elevation: float


CanvasResolver = Callable[[str], CanvasDef]
"""Resolves a destination canvas name for nested wormhole rendering."""


def render_composite(
    canvas: Canvas,
    composite: Composite | DisplayableRelation,
    view: ViewState,
    resolver: CanvasResolver | None = None,
    depth: int = 0,
    cull: bool = True,
    stats: SceneStats | None = None,
) -> list[RenderedItem]:
    """Render a composite through a view state onto a canvas.

    Components paint in drawing order.  Returns the display list (paint
    order; pick the *last* hit for topmost).  ``cull=False`` disables slider
    and viewport filtering — the ablation arm of the culling benchmark; the
    elevation-range rule is semantic (Set Range) and always applies.
    """
    if isinstance(composite, DisplayableRelation):
        composite = Composite([composite])
    stats = stats if stats is not None else SceneStats()
    items: list[RenderedItem] = []
    tracer = current_tracer()
    for entry in composite.entries:
        relation = entry.relation
        if not relation.elevation_range.contains(view.elevation):
            stats.relations_culled_by_elevation += 1
            if tracer.enabled:
                tracer.event("render.elevation_cull", relation=relation.name)
            continue
        if not tracer.enabled:
            items.extend(
                _render_entry(canvas, entry, view, resolver, depth, cull, stats)
            )
            continue
        considered0 = stats.tuples_considered
        rendered0 = stats.tuples_rendered
        painted0 = stats.drawables_painted
        with tracer.span(
            "render.pass", relation=relation.name, depth=depth, cull=cull
        ) as span:
            items.extend(
                _render_entry(canvas, entry, view, resolver, depth, cull, stats)
            )
            span.set(
                rows_considered=stats.tuples_considered - considered0,
                rows_rendered=stats.tuples_rendered - rendered0,
                drawables_painted=stats.drawables_painted - painted0,
            )
    return items


def _render_entry(
    canvas: Canvas,
    entry,
    view: ViewState,
    resolver: CanvasResolver | None,
    depth: int,
    cull: bool,
    stats: SceneStats,
) -> list[RenderedItem]:
    """Render one composite entry — one viewer pass over one relation.

    Culling is one boolean mask over the relation's location columns
    (:func:`location_columns`): slider ranges ∧ viewport margin, with the
    entry's offsets and ``ViewState.to_screen``'s float arithmetic term for
    term, so NaN locations cull exactly as a per-tuple comparison would.
    The mask's true positions are the kept tuples' indices, and only those
    tuples' display attributes are evaluated.  ``cull=False`` keeps every
    tuple and paints drawables whether or not they touch the canvas.
    """
    relation = entry.relation
    width, height = view.viewport
    scale = view.scale
    tracer = current_tracer()
    with tracer.span("render.cull", relation=relation.name) as cull_span:
        x, y, *levels = location_columns(relation)
        count = len(x)
        with np.errstate(all="ignore"):
            px = width / 2.0 + (
                (x + entry.offset_for("x")) - view.center[0]) * scale
            py = height / 2.0 - (
                (y + entry.offset_for("y")) - view.center[1]) * scale
            keep = np.ones(count, dtype=bool)
            if cull:
                for dim, level in zip(relation.slider_dims, levels):
                    bounds = view.slider_ranges.get(dim)
                    if bounds is None:
                        continue  # the relation is invariant in it (§6.1)
                    value = level + entry.offset_for(dim)
                    keep &= (bounds[0] <= value) & (value <= bounds[1])
                in_ranges = int(np.count_nonzero(keep))
                keep &= (
                    (-_CULL_MARGIN_PX <= px) & (px <= width + _CULL_MARGIN_PX)
                    & (-_CULL_MARGIN_PX <= py)
                    & (py <= height + _CULL_MARGIN_PX)
                )
        kept = np.flatnonzero(keep)
        cull_span.set(rows_in=count, rows_out=len(kept))
    stats.tuples_considered += count
    if cull:
        stats.culled_by_slider += count - in_ranges
        stats.culled_by_viewport += in_ranges - len(kept)
        stats.cull_plans.append(
            CullNode(relation.name, count, in_ranges, len(kept))
        )

    source = relation.rows.rows
    # A display that reads no fields draws the same list for every tuple,
    # so it is computed once; otherwise display_of runs per kept tuple.
    shared = None
    if len(kept) and "display" in relation.methods:
        display = relation.methods.get("display")
        if display.expr is not None and not display.expr.fields_used():
            shared = list(display.compute(
                relation.methods.row_view(source[kept[0]])
            ))
    items: list[RenderedItem] = []
    with tracer.span("render.draw", relation=relation.name) as draw_span:
        for index, anchor_x, anchor_y in zip(
            kept.tolist(), px[kept].tolist(), py[kept].tolist()
        ):
            row = source[index]
            drawables = shared
            if drawables is None:
                drawables = relation.display_of(
                    relation.methods.row_view(row, extra={SEQ_FIELD: index})
                )
            painted_any = False
            for drawable in drawables:
                bbox = drawable.bbox(anchor_x, anchor_y, scale)
                # One pixel of slack: rasterization rounds coordinates, so
                # a bbox ending fractionally off-canvas can still touch
                # pixels.
                if cull and (
                    bbox[2] < -1.0 or bbox[0] > width + 1.0
                    or bbox[3] < -1.0 or bbox[1] > height + 1.0
                ):
                    continue
                drawable.paint(canvas, anchor_x, anchor_y, scale)
                stats.drawables_painted += 1
                painted_any = True
                if isinstance(drawable, ViewerDrawable):
                    _render_wormhole(
                        canvas, drawable, anchor_x, anchor_y, scale,
                        resolver, depth, stats,
                    )
                items.append(
                    RenderedItem(
                        bbox,
                        relation.name,
                        relation.source_table,
                        row,
                        index,
                        drawable.kind,
                        drawable,
                    )
                )
            if painted_any:
                stats.tuples_rendered += 1
        draw_span.set(items=len(items))
    return items


def location_columns(relation: DisplayableRelation) -> tuple[np.ndarray, ...]:
    """Every tuple's location ``<x, y, l1, ...>`` (§2) as float64 columns.

    A tuple's location depends on the tuple alone, so the columns are
    memoized on the relation's row set (``RowSet.location_memo``), keyed by
    the slider dimensions and the method definitions a location may read.
    The memo keeps the ``_LOCATION_MEMO_ENTRIES`` most recent keys and dies
    with the row set.  Element ``i`` of each column equals the matching
    component of ``relation.location_of`` for tuple ``i``, whether it was
    read from a stored column, computed by a compiled kernel, or computed
    per tuple (see :func:`_evaluate_locations`); a location method that
    fails raises the per-tuple path's error here and memoizes nothing.
    """
    rows = relation.rows
    key = (relation.slider_dims, tuple(relation.methods))
    memo = rows.location_memo or {}
    columns = memo.get(key)
    if columns is not None:
        return columns
    columns = _evaluate_locations(relation)
    for column in columns:
        column.flags.writeable = False
    fresh = {**memo, key: columns}
    while len(fresh) > _LOCATION_MEMO_ENTRIES:
        del fresh[next(iter(fresh))]
    rows.location_memo = fresh  # one atomic swap: readers never see a mix
    return columns


def _evaluate_locations(relation: DisplayableRelation) -> tuple[np.ndarray, ...]:
    """Compute :func:`location_columns` from scratch.

    A location attribute that is a stored column, or a bare reference to
    one, is read from the tuples.  A computed one runs as a numpy kernel
    over the stored columns (:func:`_compiled_column`), "computing
    attribute values only where necessary" (§5.1) at array speed.  When
    any location attribute cannot be compiled, or its kernel cannot
    vouch for the exact per-tuple values, every column comes from the
    per-tuple ``location_of`` loop instead, which also raises the same
    ``EvaluationError``, at the same tuple, as it always has.
    """
    source = relation.rows.rows
    count = len(source)
    custom = relation.has_custom_location
    attrs = relation.location_attrs if custom else relation.slider_dims
    computed: dict[str, np.ndarray] = {}
    columns = []
    for attr in attrs:
        position = _stored_position(relation, attr)
        if position is not None:
            columns.append(np.fromiter(
                map(float, (row.values[position] for row in source)),
                dtype=np.float64, count=count))
            continue
        column = _compiled_column(relation, attr, computed)
        if column is None:
            return _per_tuple_locations(relation)
        columns.append(column.astype(np.float64))    # float() per value
    if not custom:
        columns = [np.zeros(count), np.arange(count, dtype=np.float64),
                   *columns]
    return tuple(columns)


def _per_tuple_locations(
    relation: DisplayableRelation,
) -> tuple[np.ndarray, ...]:
    """:func:`location_columns` by ``location_of`` over every tuple."""
    count = len(relation.rows)
    flat = np.fromiter(
        itertools.chain.from_iterable(
            map(relation.location_of, relation.views())
        ),
        dtype=np.float64,
        count=count * relation.dimension,
    )
    return tuple(flat.reshape(count, relation.dimension).T.copy())


def _compiled_column(
    relation: DisplayableRelation, name: str, known: dict[str, np.ndarray]
) -> np.ndarray | None:
    """Computed attribute ``name`` for every tuple by a compiled kernel.

    Returns None unless each element provably equals ``method.compute``'s
    value for its tuple: the method is an expression (not Python) that
    reads no ambient field such as ``tioga_seq``; it is declared float, or
    int with an int expression; every method it reads compiles the same
    way; the kernel raises no ``VectorFallback``; and the result is a
    numeric array with, for a float, no NaN (float coercion rejects NaN,
    so the per-tuple path raises there).  ``known`` holds the columns,
    stored and computed, already built for this relation.
    """
    methods = relation.methods
    if name not in methods:
        return None    # an ambient field: tioga_seq is per tuple
    method = methods.get(name)
    if method.expr is None:
        return None
    schema = methods.reference_schema()
    if method.type is not T.FLOAT and method.expr.infer(schema) is not T.INT:
        return None
    stored = relation.rows.schema
    for dep in method.depends - known.keys():
        if dep in stored:
            known[dep] = field_column(stored, relation.rows.rows, dep)
            continue
        column = _compiled_column(relation, dep, known)
        if column is None:
            return None
        known[dep] = column
    kernel = compile_expression(method.expr, schema)
    if kernel is None:
        return None
    batch = ColumnBatch(
        schema, {dep: known[dep] for dep in method.depends},
        mask=np.ones(len(relation.rows), dtype=bool),
    )
    try:
        # Python float arithmetic overflows to inf and yields NaN silently.
        with np.errstate(all="ignore"):
            values = np.asarray(kernel(batch))
    except VectorFallback:
        return None
    if method.type is T.FLOAT and values.dtype.kind in "iuf":
        values = values.astype(np.float64, copy=False)
        return None if np.isnan(values).any() else values
    return values if values.dtype.kind in "iu" else None


def _stored_position(relation: DisplayableRelation, attr: str) -> int | None:
    """Schema position of the stored column whose ``float()`` is the
    attribute's value, or None when the attribute must be computed.

    That is the column itself, or a method that is a bare reference to a
    numeric column — unless it is declared ``int`` over a ``float``
    column: its coercion rejects non-integral values, so the column's raw
    value is not the attribute's value.  Every other numeric pairing
    coerces to a value whose ``float()`` equals the column value's.
    """
    schema = relation.rows.schema
    if attr in schema:
        return schema.position(attr)
    method = relation.methods.get(attr)
    if isinstance(method.expr, FieldRef) and method.expr.name in schema:
        name = method.expr.name
        column_type = schema.type_of(name)
        if T.numeric(column_type) and method.type in (T.FLOAT, column_type):
            return schema.position(name)
    return None


def _render_wormhole(
    canvas: Canvas,
    drawable: ViewerDrawable,
    px: float,
    py: float,
    scale: float,
    resolver: CanvasResolver | None,
    depth: int,
    stats: SceneStats,
) -> None:
    """Paint the destination canvas inside a wormhole frame (§6.2)."""
    if resolver is None or depth >= MAX_WORMHOLE_DEPTH:
        return
    x0, y0, x1, y1 = drawable.frame(px, py, scale)
    inner_w = max(1, int(round(x1 - x0)) - 2)
    inner_h = max(1, int(round(y1 - y0)) - 2)
    definition = resolver(drawable.destination)
    nested_view = ViewState(
        center=drawable.dest_location,
        elevation=drawable.dest_elevation,
        slider_ranges=definition.slider_ranges,
        viewport=(inner_w, inner_h),
        world_per_elevation=definition.world_per_elevation,
    )
    sub_canvas = type(canvas)(inner_w, inner_h)
    displayable = definition.displayable
    if isinstance(displayable, Group):
        render_group(sub_canvas, displayable,
                     {name: nested_view.copy() for name, __ in displayable},
                     resolver, depth + 1, stats=stats)
    else:
        render_composite(
            sub_canvas, displayable, nested_view, resolver, depth + 1, stats=stats
        )
    canvas.blit(sub_canvas, x0 + 1, y0 + 1)


def render_group(
    canvas: Canvas,
    group: Group,
    views: dict[str, ViewState],
    resolver: CanvasResolver | None = None,
    depth: int = 0,
    cull: bool = True,
    stats: SceneStats | None = None,
) -> dict[str, list[RenderedItem]]:
    """Render a group: each member in its own layout cell with its own view.

    "The viewer has a position for each of the n displayables — the user may
    independently pan and zoom in each of the grouped visualizations." (§2)
    Returns the display list per member; item bboxes are in full-canvas
    coordinates.
    """
    stats = stats if stats is not None else SceneStats()
    rows, cols = group.grid_shape()
    cell_w = canvas.width // max(1, cols)
    cell_h = canvas.height // max(1, rows)
    results: dict[str, list[RenderedItem]] = {}
    for position, (name, composite) in enumerate(group):
        row = position // cols
        col = position % cols
        if row >= rows:
            raise ViewerError(
                f"group has more members ({len(group)}) than layout cells "
                f"({rows}x{cols})"
            )
        view = views.get(name)
        if view is None:
            raise ViewerError(f"no view state for group member {name!r}")
        member_view = view.copy()
        member_view.viewport = (max(1, cell_w - 2), max(1, cell_h - 2))
        sub_canvas = type(canvas)(*member_view.viewport)
        items = render_composite(
            sub_canvas, composite, member_view, resolver, depth, cull, stats
        )
        origin_x = col * cell_w + 1
        origin_y = row * cell_h + 1
        canvas.blit(sub_canvas, origin_x, origin_y)
        canvas.draw_rect(
            col * cell_w, row * cell_h,
            col * cell_w + cell_w - 1, row * cell_h + cell_h - 1,
            (128, 128, 128),
        )
        results[name] = [
            item._replace(
                bbox=(
                    item.bbox[0] + origin_x,
                    item.bbox[1] + origin_y,
                    item.bbox[2] + origin_x,
                    item.bbox[3] + origin_y,
                )
            )
            for item in items
        ]
    return results
