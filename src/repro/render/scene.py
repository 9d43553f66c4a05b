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

Filtering is array work over location columns memoized on the row set:
one mask for the slider ranges, and for the viewport a range search over
the sorted x column, so a deep zoom tests only the rows near the view.  So
is painting, for every display built from the mark constructors: it compiles
to a mark table (:mod:`repro.display.marks`) whose marks are culled by
bounding box, painted with one surface call per relation, and listed as
arrays, each :class:`RenderedItem` built only when it is read.  Any other
display -- a Python method, a wormhole, a polygon -- is painted tuple by
tuple, in the same order and with the same results.
"""

from __future__ import annotations

import bisect
import itertools
import math
import threading
import weakref
from collections.abc import Sequence as SequenceABC
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.dbms.columnar import BatchRows, field_column
from repro.dbms.expr import FieldRef
from repro.dbms.expr_compile import VectorFallback
from repro.dbms.plan import LazyRowSet
from repro.dbms.relation import RowSet, definition_key
from repro.dbms.tuples import Tuple
from repro.dbms import types as T
from repro.display.displayable import (
    SEQ_FIELD,
    Composite,
    DisplayableRelation,
    Group,
)
from repro.display.drawables import ViewerDrawable
from repro.display.marks import (
    MarkBatch,
    MarkGroup,
    MarkTable,
    attribute_kernels,
    mark_table,
    run_kernels,
)
from repro.errors import ViewerError
from repro.obs.trace import current_tracer
from repro.render.canvas import Canvas

__all__ = [
    "ViewState",
    "RenderedItem",
    "DisplayList",
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

_NO_MARKS = np.zeros(0, dtype=np.intp)

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
) -> DisplayList:
    """Render a composite through a view state onto a canvas.

    Components paint in drawing order.  Returns the display list (paint
    order; pick the *last* hit for topmost).  ``cull=False`` disables slider
    and viewport filtering — the ablation arm of the culling benchmark; the
    elevation-range rule is semantic (Set Range) and always applies.
    """
    if isinstance(composite, DisplayableRelation):
        composite = Composite([composite])
    stats = stats if stats is not None else SceneStats()
    parts: list[Sequence[RenderedItem]] = []
    tracer = current_tracer()
    for entry in composite.entries:
        relation = entry.relation
        if not relation.elevation_range.contains(view.elevation):
            stats.relations_culled_by_elevation += 1
            if tracer.enabled:
                tracer.event("render.elevation_cull", relation=relation.name)
            continue
        if not tracer.enabled:
            parts.append(
                _render_entry(canvas, entry, view, resolver, depth, cull, stats)
            )
            continue
        considered0 = stats.tuples_considered
        rendered0 = stats.tuples_rendered
        painted0 = stats.drawables_painted
        with tracer.span(
            "render.pass", relation=relation.name, depth=depth, cull=cull
        ) as span:
            parts.append(
                _render_entry(canvas, entry, view, resolver, depth, cull, stats)
            )
            span.set(
                rows_considered=stats.tuples_considered - considered0,
                rows_rendered=stats.tuples_rendered - rendered0,
                drawables_painted=stats.drawables_painted - painted0,
            )
    return DisplayList(parts)


def _render_entry(
    canvas: Canvas,
    entry,
    view: ViewState,
    resolver: CanvasResolver | None,
    depth: int,
    cull: bool,
    stats: SceneStats,
) -> Sequence[RenderedItem]:
    """Render one composite entry — one viewer pass over one relation.

    Culling works on the relation's location columns
    (:func:`location_columns`).  The slider ranges are one mask over every
    tuple, so the counts culled by slider stay exact.  The viewport is a
    slab: the tuples whose x may reach the viewport margin, found by two
    binary searches over the memoized sorted-x index
    (:func:`_viewport_slab`).  Only the slab's tuples get a screen
    position, with the entry's offsets and ``ViewState.to_screen``'s float
    arithmetic term for term, and the exact margin test -- so NaN
    locations cull exactly as a per-tuple comparison would.  The kept
    tuples' indices ascend, in paint order, and only those tuples' display
    attributes are evaluated.  ``cull=False`` keeps every tuple and paints
    drawables whether or not they touch the canvas.

    A display built from the mark constructors compiles to a mark table
    over the kept rows (:func:`repro.display.marks.mark_table`), which
    :func:`_paint_marks` culls, paints and lists as arrays.  Any other
    display -- or one whose columns hold a value a drawable constructor
    rejects -- is evaluated and painted tuple by tuple
    (:func:`_paint_tuples`).  Both produce the same pixels, display list
    and statistics, and the ``render.draw`` span's ``batched`` attribute
    says which ran.
    """
    relation = entry.relation
    width, height = view.viewport
    tracer = current_tracer()
    with tracer.span("render.cull", relation=relation.name) as cull_span:
        key, located = _located(relation)
        x, y, *levels = located[0]
        count = len(x)
        with np.errstate(all="ignore"):
            in_ranges_mask = slab = None
            if cull:
                in_ranges_mask = _slider_mask(relation, entry, view, levels)
                found = _viewport_slab(relation, entry, view, key, located)
                if found is not None:
                    slab, x = found    # positions and x values, in x order
                    y = y[slab]
            px, py = _screen(x, y, entry, view)
            scanned = len(px)
            if cull:
                keep = (
                    (-_CULL_MARGIN_PX <= px) & (px <= width + _CULL_MARGIN_PX)
                    & (-_CULL_MARGIN_PX <= py)
                    & (py <= height + _CULL_MARGIN_PX)
                )
                if in_ranges_mask is None:
                    in_ranges = count
                else:
                    in_ranges = int(np.count_nonzero(in_ranges_mask))
                    keep &= (in_ranges_mask if slab is None
                             else in_ranges_mask[slab])
                hits = keep.nonzero()[0]
                if slab is not None:
                    # From x order back to tuple order: the paint order.
                    hits = hits[np.argsort(slab[hits], kind="stable")]
                px, py = px[hits], py[hits]
                kept = hits if slab is None else slab[hits]
            else:
                kept = np.arange(count)
        cull_span.set(rows_in=count, rows_scanned=scanned,
                      rows_out=len(kept))
    stats.tuples_considered += count
    if cull:
        stats.culled_by_slider += count - in_ranges
        stats.culled_by_viewport += in_ranges - len(kept)
        stats.cull_plans.append(
            CullNode(relation.name, count, in_ranges, len(kept))
        )

    with tracer.span("render.draw", relation=relation.name) as draw_span:
        marks = mark_table(relation, kept)
        draw_span.set(batched=marks is not None)
        if marks is None:
            items = _paint_tuples(canvas, relation, kept, px, py, view,
                                  resolver, depth, cull, stats)
        else:
            items = _paint_marks(canvas, relation, marks, kept, px, py, view,
                                 cull, stats)
        draw_span.set(items=len(items))
    return items


def _screen(x: np.ndarray, y: np.ndarray, entry,
            view: ViewState) -> tuple[np.ndarray, np.ndarray]:
    """Anchors' screen positions: the entry's offsets, then
    ``ViewState.to_screen``'s float arithmetic term for term (evaluated
    in place, in the same order, so bit for bit)."""
    width, height = view.viewport
    px = x + entry.offset_for("x")
    px -= view.center[0]
    px *= view.scale
    px += width / 2.0
    py = y + entry.offset_for("y")
    py -= view.center[1]
    py *= view.scale
    np.subtract(height / 2.0, py, out=py)
    return px, py


def _paint_marks(
    canvas: Canvas,
    relation: DisplayableRelation,
    marks: MarkTable,
    kept: np.ndarray,
    anchor_x: np.ndarray,
    anchor_y: np.ndarray,
    view: ViewState,
    cull: bool,
    stats: SceneStats,
) -> Sequence[RenderedItem]:
    """Paint a mark table: the per-tuple draw loop of :func:`_paint_tuples`
    over arrays.

    Each slot's marks are culled by ``Drawable.bbox``'s arithmetic with
    the loop's one pixel of slack, and the survivors of every slot go to
    the surface's ``draw_marks`` at once, ranked in the loop's paint order:
    tuple-major, slot-minor.  The display list keeps the boxes and the
    painted marks' ranks and builds each :class:`RenderedItem` when it is
    read.
    """
    width, height = view.viewport
    slots = len(marks.slots)
    groups, boxes, painting = [], [], []
    for slot in range(slots):
        paint, box, coords = marks.geometry(slot, anchor_x, anchor_y,
                                            view.scale)
        if cull:
            on = ~((box[2] < -1.0) | (box[0] > width + 1.0)
                   | (box[3] < -1.0) | (box[1] > height + 1.0))
        else:
            on = np.ones(len(kept), dtype=bool)
        rows = on.nonzero()[0]
        columns = marks.slots[slot]
        groups.append(MarkGroup(
            paint, tuple(_take(c, rows) for c in coords),
            _take(columns.color, rows), _take(columns.text, rows),
            rows * slots + slot))
        boxes.append(box)
        painting.append(on)
    canvas.draw_marks(MarkBatch(tuple(groups), marks.palette, marks.texts,
                                len(kept) * slots))
    if slots == 1:
        painted = groups[0].order
        stats.tuples_rendered += len(painted)
    elif slots:
        painting = np.stack(painting, axis=1)
        painted = painting.ravel().nonzero()[0]
        stats.tuples_rendered += int(np.count_nonzero(painting.any(axis=1)))
    else:
        painted = _NO_MARKS
    stats.drawables_painted += len(painted)
    return _MarkItems(relation, marks, kept, painted, boxes)


def _take(value: Any, rows: np.ndarray) -> Any:
    """The elements at ``rows`` of a column, or a constant as it is."""
    return value[rows] if isinstance(value, np.ndarray) else value


def _paint_tuples(
    canvas: Canvas,
    relation: DisplayableRelation,
    kept: np.ndarray,
    anchor_x: np.ndarray,
    anchor_y: np.ndarray,
    view: ViewState,
    resolver: CanvasResolver | None,
    depth: int,
    cull: bool,
    stats: SceneStats,
) -> list[RenderedItem]:
    """Evaluate and paint the kept tuples' displays one tuple at a time:
    each drawable is culled by its bounding box, painted, and recorded in
    the display list, and a wormhole renders its destination inside."""
    width, height = view.viewport
    scale = view.scale
    source = relation.rows.rows
    if isinstance(source, BatchRows):
        source.rows_at(kept.tolist())    # display_of reads every kept row
    items: list[RenderedItem] = []
    for index, px, py in zip(kept.tolist(), anchor_x.tolist(),
                             anchor_y.tolist()):
        row = source[index]
        painted_any = False
        for drawable in relation.display_of(relation.methods.row_view(
                row, extra={SEQ_FIELD: index})):
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
                _render_wormhole(canvas, drawable, px, py, scale, resolver,
                                 depth, stats)
            items.append(RenderedItem(bbox, relation.name,
                                      relation.source_table, row, index,
                                      drawable.kind, drawable))
        if painted_any:
            stats.tuples_rendered += 1
    return items


class _MarkItems(SequenceABC):
    """The display list of one mark table's painted marks.

    Holds the painted marks' ranks (``row * slots + slot``) and each
    slot's box columns; item ``i`` is built on first read -- its tuple from
    the relation's rows, its drawable from the table -- and then kept, so
    repeated reads return the same object.

    The row set is held weakly: a kept display list (a ``FrameCache``
    entry) must not pin a superseded result's whole batch.  When the row
    set dies, a finalizer keeps only the painted rows: the tuples
    themselves for a tuple-backed set, else the rows' columns, whose
    tuples are built when read -- the original tuples when the batch
    carries them, new equal ones otherwise.
    """

    def __init__(self, relation: DisplayableRelation, marks: MarkTable,
                 kept: np.ndarray, painted: np.ndarray, boxes: list[tuple]):
        self._name = relation.name
        self._source_table = relation.source_table
        self._marks = marks
        self._kept = kept
        self._painted = painted
        self._boxes = boxes
        self._built: dict[int, RenderedItem] = {}
        rows = relation.rows
        self._rows = weakref.ref(rows)
        self._orphan: tuple[dict[int, int], Sequence] | None = None
        self._orphaned = threading.Event()
        self._release = weakref.finalize(rows, _MarkItems._keep_rows,
                                         weakref.ref(self), rows.rows)
        self._release.atexit = False

    def __del__(self) -> None:
        self._release.detach()

    @staticmethod
    def _keep_rows(items_ref, source) -> None:
        items = items_ref()
        if items is None:
            return
        positions = np.unique(items._kept[items._painted
                                          // max(len(items._boxes), 1)])
        if isinstance(source, BatchRows):
            rows: Sequence = BatchRows(source.batch.take(positions))
        else:
            rows = [source[index] for index in positions.tolist()]
        items._orphan = (dict(zip(positions.tolist(), range(len(positions)))),
                         rows)
        items._orphaned.set()

    def _row(self, tuple_index: int):
        rows = self._rows()
        if rows is not None:
            return rows.rows[tuple_index]
        self._orphaned.wait()    # the finalizer is running or has run
        where, kept = self._orphan
        return kept[where[tuple_index]]

    def __len__(self) -> int:
        return len(self._painted)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("display list index out of range")
        item = self._built.get(index)
        if item is None:
            row, slot = divmod(int(self._painted[index]), len(self._boxes))
            tuple_index = int(self._kept[row])
            drawable = self._marks.drawable(row, slot)
            item = self._built[index] = RenderedItem(
                tuple(float(c[row]) for c in self._boxes[slot]), self._name,
                self._source_table, self._row(tuple_index), tuple_index,
                drawable.kind, drawable)
        return item


class DisplayList(SequenceABC):
    """A display list: :class:`RenderedItem` records in paint order (pick
    the *last* hit for topmost), concatenated from per-pass parts whose
    items may be built on first read.  Compares equal to any sequence of
    the same items; a slice is a list."""

    def __init__(self, parts: Iterable[Sequence[RenderedItem]] = ()):
        self._parts = [part for part in parts if len(part)]
        self._ends = list(itertools.accumulate(map(len, self._parts)))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("display list index out of range")
        part = bisect.bisect_right(self._ends, index)
        start = self._ends[part - 1] if part else 0
        return self._parts[part][index - start]

    def __iter__(self) -> Iterator[RenderedItem]:
        return itertools.chain.from_iterable(self._parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceABC) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"DisplayList({list(self)!r})"


def location_columns(relation: DisplayableRelation) -> tuple[np.ndarray, ...]:
    """Every tuple's location ``<x, y, l1, ...>`` (§2) as float64 columns.

    A tuple's location depends on the tuple alone, so the columns are
    memoized on the relation's row set (``RowSet.location_memo``), keyed by
    the slider dimensions and the method definitions a location may read
    (:func:`~repro.dbms.relation.definition_key`).  The memo keeps the
    ``_LOCATION_MEMO_ENTRIES`` most recent keys and dies with the row set.
    Each entry also holds the x column's sorted index (:class:`_XIndex`)
    once a culled pass has asked for it (:func:`_viewport_slab`).
    Element ``i`` of each column equals the matching component of
    ``relation.location_of`` for tuple ``i``, whether it was read from a
    stored column, computed by a compiled kernel, or computed per tuple
    (see :func:`_evaluate_locations`); a location method that fails raises
    the per-tuple path's error here and memoizes nothing.

    A row set carried across an update (``RowSet.delta``) starts from its
    predecessor's columns under the same key and recomputes only the
    changed rows (:func:`_carried_locations`); a lazy one then lets go of
    its predecessor, so the superseded result is freed.
    """
    return _located(relation)[1][0]


class _XIndex(NamedTuple):
    """A location x column in ascending order (NaN last): the row
    positions in that order and the x values at them."""

    order: np.ndarray
    values: np.ndarray


_Located = tuple[tuple[np.ndarray, ...], _XIndex | None]
"""A location memo entry: the columns and, once built, the x index."""


def _located(relation: DisplayableRelation) -> tuple[tuple, _Located]:
    """The relation's location memo key and entry, computed and published
    on first use (see :func:`location_columns`)."""
    rows = relation.rows
    key = (relation.slider_dims, definition_key(relation.methods))
    entry = (rows.location_memo or {}).get(key)
    if entry is not None:
        return key, entry
    entry = _carried_locations(relation, key)
    if entry is None:
        entry = (_evaluate_locations(relation), None)
    if isinstance(rows, LazyRowSet):
        # The predecessor was kept for this; the superseded result can go.
        rows.predecessor = None
    for column in entry[0]:
        column.flags.writeable = False
    _publish(rows, key, entry)
    return key, entry


def _publish(rows: RowSet, key: tuple, entry: _Located) -> None:
    """Set ``key``'s location memo entry, dropping the oldest keys past
    ``_LOCATION_MEMO_ENTRIES``."""
    fresh = {**(rows.location_memo or {}), key: entry}
    while len(fresh) > _LOCATION_MEMO_ENTRIES:
        del fresh[next(iter(fresh))]
    rows.location_memo = fresh  # one atomic swap: readers never see a mix


def _slider_mask(relation: DisplayableRelation, entry, view: ViewState,
                 levels: Sequence[np.ndarray]) -> np.ndarray | None:
    """Which tuples lie within every slider range the view sets for the
    relation's dimensions, or None when it sets none of them."""
    inside = None
    for dim, level in zip(relation.slider_dims, levels):
        bounds = view.slider_ranges.get(dim)
        if bounds is None:
            continue  # the relation is invariant in it (§6.1)
        value = level + entry.offset_for(dim)
        within = (bounds[0] <= value) & (value <= bounds[1])
        inside = within if inside is None else inside & within
    return inside


_SLAB_SLACK = 1e-9
"""Relative widening of the x range :func:`_viewport_slab` searches: far
above the few ulps by which ``to_screen``'s float arithmetic can move an
anchor, so the range can only take in extra rows."""


def _viewport_slab(
    relation: DisplayableRelation, entry, view: ViewState, key: tuple,
    located: _Located,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The positions and x values, in ascending x order, of the tuples
    whose x may put their anchor within the viewport margin, or None when
    every tuple may.

    ``px`` is monotone in x, so the anchors inside the margin have x in
    one range: the margin mapped back to world units through the view's
    centre and the entry's x offset, widened by ``_SLAB_SLACK`` of its
    terms.  Two binary searches over the sorted x index find the rows in
    it -- a slab that may hold a few more rows than the exact mask keeps,
    never fewer -- as two slices of the index.  NaN x sorts last and falls
    outside every range.  A non-finite bound (centre, offset or scale)
    leaves every tuple a candidate, as does a slab that holds them all.
    """
    scale = view.scale
    if not scale > 0:
        return None
    offset = entry.offset_for("x")
    reach = (view.viewport[0] / 2.0 + _CULL_MARGIN_PX) / scale
    shift = view.center[0] - offset
    slack = _SLAB_SLACK * (abs(view.center[0]) + abs(offset) + abs(reach))
    low, high = shift - reach - slack, shift + reach + slack
    if not (math.isfinite(low) and math.isfinite(high)):
        return None
    columns, index = located
    if index is None:
        index = _sorted_x(columns[0])
        _publish(relation.rows, key, (columns, index))
    start = index.values.searchsorted(low, "left")
    stop = index.values.searchsorted(high, "right")
    if stop - start == len(index.order):
        return None
    return index.order[start:stop], index.values[start:stop]


def _sorted_x(x: np.ndarray) -> _XIndex:
    """Build the :class:`_XIndex` of an x column.  Ties may come in any
    order: the cull sorts the positions it keeps."""
    order = np.argsort(x)
    index = _XIndex(order, x[order])
    for array in index:
        array.flags.writeable = False
    return index


def _carried_locations(relation: DisplayableRelation,
                       key: tuple) -> _Located | None:
    """The predecessor's location memo entry under ``key`` with the
    changed rows recomputed, or None when the row set is no successor or
    its predecessor has no such entry.

    The rows of a delta differ only at its positions, and a location
    depends on its tuple and position alone, so every other element
    stands.  A column whose changed elements come out bit-identical is
    shared with the predecessor, and so is the x index when the x column
    is; a changed x column drops it, to be rebuilt when a culled pass
    needs it.
    """
    delta = relation.rows.delta
    if delta is None:
        return None
    previous = delta[0]()
    memo = previous.location_memo if previous is not None else None
    old = memo.get(key) if memo else None
    if old is None:
        return None
    positions = delta[1]
    if not len(positions):
        return old
    old_columns, index = old
    columns = []
    for column, values in zip(old_columns,
                              _evaluate_locations(relation, positions)):
        if column[positions].tobytes() != values.tobytes():
            column = column.copy()
            column[positions] = values
        columns.append(column)
    if columns[0] is not old_columns[0]:
        index = None
    return tuple(columns), index


def _evaluate_locations(
    relation: DisplayableRelation, positions: np.ndarray | None = None,
) -> tuple[np.ndarray, ...]:
    """Compute :func:`location_columns` from scratch, for every tuple or
    for the tuples at ``positions``.

    A location attribute that is a stored column, or a bare reference to
    one, is read from the row set (:func:`_stored_column`).  A computed
    one runs as a numpy kernel over the stored columns
    (:func:`_location_plan`), "computing attribute values only where
    necessary" (§5.1) at array speed.  When any location attribute cannot
    be compiled, or its kernel cannot vouch for the exact per-tuple
    values, every column comes from the per-tuple ``location_of`` loop
    instead, which also raises the same ``EvaluationError``, at the same
    tuple, as it always has.
    """
    rows = relation.rows
    if positions is not None:
        rows = RowSet.trusted(rows.schema,
                              [rows[pos] for pos in positions.tolist()])
    count = len(rows)
    plan = _location_plan(relation)
    if plan is None:
        return _per_tuple_locations(relation, positions)
    reference, steps = plan
    computed: dict[str, np.ndarray] = {}
    columns = []
    for name, chain in steps:
        if chain is None:
            # astype calls float() on object cells, as the tuples would.
            columns.append(_stored_column(rows, name).astype(np.float64))
            continue
        for dep in set().union(*(step.reads for step in chain)) \
                - computed.keys():
            if dep in rows.schema:
                computed[dep] = _stored_column(rows, dep)
        try:
            run_kernels(chain, reference, computed, count)
        except VectorFallback:
            return _per_tuple_locations(relation, positions)
        columns.append(computed[name].astype(np.float64))  # float() per value
    if not relation.has_custom_location:
        seq = np.arange(count) if positions is None else positions
        columns = [np.zeros(count), seq.astype(np.float64), *columns]
    return tuple(columns)


_LOCATION_PLAN_ENTRIES = 64
"""Compiled location plans kept (:func:`_location_plan`)."""

_LOCATION_PLANS: dict[tuple, tuple | None] = {}
_LOCATION_PLANS_LOCK = threading.Lock()


def _location_plan(relation: DisplayableRelation) -> tuple | None:
    """How each location attribute is computed, or None when one of them
    has to go per tuple; memoized by method definitions, slider
    dimensions and stored schema, as :func:`repro.display.marks.mark_table`
    keys its compiled displays.

    A plan is ``(reference schema, steps)``, one ``(name, chain)`` step
    per location attribute evaluated: ``chain`` None reads stored column
    ``name``, otherwise ``chain`` holds the kernels of computed attribute
    ``name`` and every computed attribute it reads that no earlier step
    computed.  Compiling requires each attribute and what it reads to
    compile exactly (:func:`repro.display.marks.attribute_kernels`; an
    ambient field such as ``tioga_seq`` does not); :func:`run_kernels`
    makes the checks that need the data.
    """
    schema = relation.rows.schema
    key = (definition_key(relation.methods), relation.slider_dims, schema)
    memo = _LOCATION_PLANS.get(key, _LOCATION_PLANS)
    if memo is not _LOCATION_PLANS:
        return memo
    methods = relation.methods
    custom = relation.has_custom_location
    steps: list[tuple[str, Any]] | None = []
    ready: set[str] = set()
    for attr in (relation.location_attrs if custom else relation.slider_dims):
        position = _stored_position(relation, attr)
        if position is not None:
            steps.append((schema.names[position], None))
            continue
        chain = attribute_kernels(methods, schema, [attr], ready)
        if chain is None:
            steps = None
            break
        steps.append((attr, chain))
        ready.update(step.name for step in chain)
    plan = None if steps is None else (methods.reference_schema(),
                                       tuple(steps))
    with _LOCATION_PLANS_LOCK:    # server sessions render on several threads
        _LOCATION_PLANS[key] = plan
        while len(_LOCATION_PLANS) > _LOCATION_PLAN_ENTRIES:
            del _LOCATION_PLANS[next(iter(_LOCATION_PLANS))]
    return plan


def _per_tuple_locations(
    relation: DisplayableRelation, positions: np.ndarray | None = None,
) -> tuple[np.ndarray, ...]:
    """:func:`location_columns` by ``location_of`` over every tuple, or
    over the tuples at ``positions``."""
    if positions is None:
        count = len(relation.rows)
        views = relation.views()
    else:
        count = len(positions)
        views = map(relation.view_at, positions.tolist())
    flat = np.fromiter(
        itertools.chain.from_iterable(map(relation.location_of, views)),
        dtype=np.float64,
        count=count * relation.dimension,
    )
    return tuple(flat.reshape(count, relation.dimension).T.copy())


def _stored_column(rows: RowSet, name: str) -> np.ndarray:
    """Stored field ``name`` of every row, as an array.

    Read from the row set's column batch when it has one — a late-forced
    columnar result or a converted table snapshot — so no tuple is built
    or read; otherwise converted from the tuples (:func:`field_column`).
    """
    batch = rows.column_batch
    if batch is not None and batch.schema == rows.schema:
        return batch.column(name)
    return field_column(rows.schema, rows.rows, name)


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
