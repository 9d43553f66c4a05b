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

from typing import Any, Callable, NamedTuple

from repro.dbms.columnar import ColumnarConfig
from repro.dbms.expr import Binary, FieldRef, Literal
from repro.dbms.plan import RestrictNode, source_plan
from repro.dbms.plan_rewrite import columnarize_plan
from repro.dbms.result_cache import cache_enabled, execute_cached
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
    "CanvasDef",
    "CanvasResolver",
    "render_composite",
    "render_group",
    "MAX_WORMHOLE_DEPTH",
]

MAX_WORMHOLE_DEPTH = 2
"""Nested wormhole/magnifier rendering depth limit (prevents mutual-viewer
recursion from looping forever)."""

_CULL_MARGIN_PX = 120.0
"""Tuples whose anchor lies this far outside the viewport are culled before
their drawables are even constructed."""

_COLUMNAR_CULL_MIN_ROWS = 256
"""Sources at least this large run their cull plan on the columnar backend;
smaller ones on the row backend.  The columnar cull pays a fixed cost of
about 1 ms (plan rewrite, adapters, compiled masks); the row cull costs
about 5 us per row.  Measured per cull on a 2-core Xeon VM under Python
3.11, deep zoom over a scatter: 16 rows 0.15 ms row vs 1.26 ms columnar,
256 rows 1.30 vs 1.09 ms, 1024 rows 5.6 vs 2.2 ms."""


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
        #: Root plan node of each synthesized culling plan (one per relation
        #: that took the pushdown path); per-operator counters live in the
        #: nodes' ``stats``.
        self.cull_plans: list[Any] = []

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

    Culling runs as a synthesized plan (:func:`_try_plan_cull`) whenever the
    relation's shape allows one.  The row-at-a-time loop below handles the
    shapes a plan cannot express, and is the reference the parity tests
    compare the plan against:

    - a computed (non-``FieldRef``) x, y, or bounded slider attribute, or
      one that does not resolve to a stored numeric column;
    - the default location (no custom x/y: tuples stack by sequence number);
    - ``cull=False``.
    """
    relation = entry.relation
    width, height = view.viewport
    scale = view.scale
    if cull:
        plan_items = _try_plan_cull(
            canvas, entry, view, resolver, depth, stats
        )
        if plan_items is not None:
            return plan_items
    items: list[RenderedItem] = []
    offset_x = entry.offset_for("x")
    offset_y = entry.offset_for("y")
    for index, row_view in enumerate(relation.views()):
        stats.tuples_considered += 1
        location = relation.location_of(row_view)
        if cull and _slider_culled(relation, entry, location, view):
            stats.culled_by_slider += 1
            continue
        px, py = view.to_screen(location[0] + offset_x, location[1] + offset_y)
        if cull and not (
            -_CULL_MARGIN_PX <= px <= width + _CULL_MARGIN_PX
            and -_CULL_MARGIN_PX <= py <= height + _CULL_MARGIN_PX
        ):
            stats.culled_by_viewport += 1
            continue
        drawables = relation.display_of(row_view)
        painted_any = False
        for drawable in drawables:
            bbox = drawable.bbox(px, py, scale)
            # One pixel of slack: rasterization rounds coordinates, so a
            # bbox ending fractionally off-canvas can still touch pixels.
            if cull and (
                bbox[2] < -1.0 or bbox[0] > width + 1.0
                or bbox[3] < -1.0 or bbox[1] > height + 1.0
            ):
                continue
            drawable.paint(canvas, px, py, scale)
            stats.drawables_painted += 1
            painted_any = True
            if isinstance(drawable, ViewerDrawable):
                _render_wormhole(
                    canvas, drawable, px, py, scale, resolver, depth, stats
                )
            items.append(
                RenderedItem(
                    bbox,
                    relation.name,
                    relation.source_table,
                    row_view.base,
                    index,
                    drawable.kind,
                    drawable,
                )
            )
        if painted_any:
            stats.tuples_rendered += 1
    return items


def _stored_numeric_column(relation: DisplayableRelation, attr: str) -> str | None:
    """Resolve an attribute to a stored numeric column: either the column
    itself, or a computed method that is a bare reference to one.

    A method declared ``int`` over a ``float`` column is not resolved: its
    coercion rejects non-integral values, so the column's raw value is not
    the attribute's value.  Every other numeric pairing coerces to a value
    whose ``float()`` equals the column value's.
    """
    schema = relation.rows.schema
    if attr in schema:
        return attr if T.numeric(schema.type_of(attr)) else None
    if attr in relation.methods:
        method = relation.methods.get(attr)
        if isinstance(method.expr, FieldRef) and method.expr.name in schema:
            name = method.expr.name
            column_type = schema.type_of(name)
            if T.numeric(column_type) and method.type in (T.FLOAT, column_type):
                return name
    return None


def _execute_cull_plan(viewport_node, slider_node, columnar: bool):
    """Run a synthesized cull plan on the chosen backend, cache-aware.

    The columnar rewrite keeps row identity (columnar Restrict selects from
    the source's memoized column batch, which hands back the original Tuple
    objects), so the caller's identity walk still recovers original indices.
    With the process-wide result cache on, the result is memoized keyed by
    extent + source identity + storage epoch — a repeated pan/zoom visit of
    the same extent skips the cull entirely.  Entry meta carries the
    per-node counters so SceneStats stays exact on a hit.
    """

    def execute():
        root = viewport_node
        if columnar:
            root, __ = columnarize_plan(root, ColumnarConfig())
        return list(root.rows_iter())

    if not cache_enabled():
        return execute()
    counted = [node for node in (slider_node, viewport_node)
               if node is not None]
    rows, __ = execute_cached(viewport_node, execute, counted)
    return list(rows)


def _try_plan_cull(
    canvas: Canvas,
    entry,
    view: ViewState,
    resolver: CanvasResolver | None,
    depth: int,
    stats: SceneStats,
) -> list[RenderedItem] | None:
    """Push slider and viewport culling into a physical plan, or None.

    Applies when x, y, and every *bounded* slider dimension resolve to
    stored numeric columns; the display attribute may be arbitrary, because
    the whole point is that display functions are evaluated only for the
    tuples that survive the synthesized Restrict nodes.  The predicates
    replicate the general path's float arithmetic term for term, so the
    culling decisions — including NaN handling — are bit-identical; the
    elevation-band rule already culled whole relations upstream.  The plan
    runs on the columnar backend for sources of at least
    ``_COLUMNAR_CULL_MIN_ROWS`` rows and on the row backend otherwise.  The
    synthesized plan is recorded in ``stats.cull_plans`` with per-operator
    row counts.
    """
    relation = entry.relation
    rows = relation.rows
    if not relation.has_custom_location:
        return None
    x_col = _stored_numeric_column(relation, "x")
    y_col = _stored_numeric_column(relation, "y")
    if x_col is None or y_col is None:
        return None
    bounded: list[tuple[str, str, tuple[float, float]]] = []
    for dim in relation.slider_dims:
        bounds = view.slider_ranges.get(dim)
        if bounds is None:
            continue  # the relation is invariant in unbounded dims (§6.1)
        column = _stored_numeric_column(relation, dim)
        if column is None:
            return None
        bounded.append((dim, column, bounds))

    scale = view.scale
    width, height = view.viewport

    def shifted(column: str, offset: float) -> Binary:
        return Binary("+", FieldRef(column), Literal(float(offset)))

    # px = W/2 + ((x + off) - cx) * s ;  py = H/2 - ((y + off) - cy) * s —
    # the exact association order of location_of + to_screen.
    px = Binary(
        "+",
        Literal(width / 2.0),
        Binary(
            "*",
            Binary(
                "-",
                shifted(x_col, entry.offset_for("x")),
                Literal(view.center[0]),
            ),
            Literal(scale),
        ),
    )
    py = Binary(
        "-",
        Literal(height / 2.0),
        Binary(
            "*",
            Binary(
                "-",
                shifted(y_col, entry.offset_for("y")),
                Literal(view.center[1]),
            ),
            Literal(scale),
        ),
    )
    viewport_predicate = Binary(
        "and",
        Binary(
            "and",
            Binary(
                "and",
                Binary(">=", px, Literal(-_CULL_MARGIN_PX)),
                Binary("<=", px, Literal(width + _CULL_MARGIN_PX)),
            ),
            Binary(">=", py, Literal(-_CULL_MARGIN_PX)),
        ),
        Binary("<=", py, Literal(height + _CULL_MARGIN_PX)),
    )

    node = source_plan(rows, relation.name)
    slider_node = None
    if bounded:
        predicate = None
        for dim, column, (lo, hi) in bounded:
            value = shifted(column, entry.offset_for(dim))
            part = Binary(
                "and",
                Binary(">=", value, Literal(lo)),
                Binary("<=", value, Literal(hi)),
            )
            predicate = part if predicate is None else Binary(
                "and", predicate, part
            )
        slider_node = RestrictNode(node, predicate, alias="slider cull")
        node = slider_node
    viewport_node = RestrictNode(node, viewport_predicate, alias="viewport cull")

    source = rows.rows
    backend = ("columnar" if len(source) >= _COLUMNAR_CULL_MIN_ROWS
               else "row")
    tracer = current_tracer()
    with tracer.span("render.cull", backend=backend,
                     relation=relation.name) as cull_span:
        kept = _execute_cull_plan(viewport_node, slider_node,
                                  backend == "columnar")
        cull_span.set(rows_in=viewport_node.stats.rows_in
                      if slider_node is None else slider_node.stats.rows_in,
                      rows_out=len(kept))

    first = slider_node if slider_node is not None else viewport_node
    stats.tuples_considered += first.stats.rows_in
    if slider_node is not None:
        stats.culled_by_slider += (
            slider_node.stats.rows_in - slider_node.stats.rows_out
        )
    stats.culled_by_viewport += (
        viewport_node.stats.rows_in - viewport_node.stats.rows_out
    )
    stats.cull_plans.append(viewport_node)

    # A display that reads no fields draws the same list for every tuple,
    # so it is computed once; otherwise display_of runs per kept tuple.
    shared = None
    if kept and "display" in relation.methods:
        display = relation.methods.get("display")
        if display.expr is not None and not display.expr.fields_used():
            shared = list(display.compute(relation.methods.row_view(kept[0])))
    # location_of's x/y are float() of these stored values (see
    # _stored_numeric_column), so the anchors match the row loop's exactly.
    x_pos = rows.schema.position(x_col)
    y_pos = rows.schema.position(y_col)
    offset_x = entry.offset_for("x")
    offset_y = entry.offset_for("y")
    items: list[RenderedItem] = []
    pos = 0
    with tracer.span("render.draw", backend=backend,
                     relation=relation.name) as draw_span:
        for row in kept:
            # Restrict preserves order and object identity, so the original
            # index is recovered by a forward identity walk (exact even with
            # duplicate-valued rows).
            while source[pos] is not row:
                pos += 1
            index = pos
            pos += 1
            anchor_x, anchor_y = view.to_screen(
                float(row.values[x_pos]) + offset_x,
                float(row.values[y_pos]) + offset_y,
            )
            drawables = shared
            if drawables is None:
                drawables = relation.display_of(
                    relation.methods.row_view(row, extra={SEQ_FIELD: index})
                )
            painted_any = False
            for drawable in drawables:
                bbox = drawable.bbox(anchor_x, anchor_y, scale)
                if (bbox[2] < -1.0 or bbox[0] > width + 1.0
                        or bbox[3] < -1.0 or bbox[1] > height + 1.0):
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


def _slider_culled(
    relation: DisplayableRelation,
    entry,
    location: tuple[float, ...],
    view: ViewState,
) -> bool:
    """Filter to slider ranges; relations lacking a dimension are invariant
    in it (§6.1), so only the relation's own slider dims are checked."""
    for pos, dim in enumerate(relation.slider_dims):
        bounds = view.slider_ranges.get(dim)
        if bounds is None:
            continue
        value = location[2 + pos] + entry.offset_for(dim)
        if not bounds[0] <= value <= bounds[1]:
            return True
    return False


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
