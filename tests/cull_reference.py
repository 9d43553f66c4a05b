"""The per-tuple culling loop: the semantic reference for the cull kernel.

``reference_render_entry`` is a drop-in replacement for
``repro.render.scene._render_entry`` that follows the paper's §2 pipeline
literally, one tuple at a time: compute the tuple's location, filter it to
the slider ranges, map it to the screen and filter it to the visible real
estate, then evaluate and paint its display attribute.  The viewer itself
culls with one mask over memoized location columns; the parity tests
(tests/test_fast_scatter.py) and the Perf-7 benchmark arm compare the two
by patching this function in with :func:`reference_culling`.
:func:`reference_location_columns` is the same reference for the location
columns alone (tests/test_location_kernels.py).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

import repro.render.scene as scene
from repro.display.drawables import ViewerDrawable
from repro.render.scene import RenderedItem


def reference_location_columns(relation) -> tuple[np.ndarray, ...]:
    """``relation.location_of`` for every tuple, as float64 columns: the
    reference ``scene.location_columns`` must equal element for element."""
    columns = [[] for __ in range(relation.dimension)]
    for row_view in relation.views():
        for column, value in zip(columns, relation.location_of(row_view)):
            column.append(value)
    return tuple(np.array(column, dtype=np.float64) for column in columns)


def _slider_culled(relation, entry, location, view) -> bool:
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


def reference_render_entry(canvas, entry, view, resolver, depth, cull, stats):
    """Render one composite entry tuple by tuple (same signature and
    results as ``scene._render_entry``, minus its ``cull_plans`` record)."""
    relation = entry.relation
    width, height = view.viewport
    scale = view.scale
    margin = scene._CULL_MARGIN_PX
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
            -margin <= px <= width + margin
            and -margin <= py <= height + margin
        ):
            stats.culled_by_viewport += 1
            continue
        painted_any = False
        for drawable in relation.display_of(row_view):
            bbox = drawable.bbox(px, py, scale)
            if cull and (
                bbox[2] < -1.0 or bbox[0] > width + 1.0
                or bbox[3] < -1.0 or bbox[1] > height + 1.0
            ):
                continue
            drawable.paint(canvas, px, py, scale)
            stats.drawables_painted += 1
            painted_any = True
            if isinstance(drawable, ViewerDrawable):
                scene._render_wormhole(
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


@contextmanager
def reference_culling():
    """Route every render (nested wormhole passes included) through the
    per-tuple reference loop for the duration of the block."""
    kernel = scene._render_entry
    scene._render_entry = reference_render_entry
    try:
        yield
    finally:
        scene._render_entry = kernel
