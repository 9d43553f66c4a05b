"""Viewers: the boxes that translate displayables into screen output (§2, §3).

A :class:`ViewerBox` is an ordinary dataflow sink; the :class:`Viewer`
runtime object owns the box's view state — an (n+1)-dimensional position per
group member (pan in n dimensions plus elevation) and slider ranges — and
renders the demanded displayable through :mod:`repro.render.scene`.

"If an n-dimensional relation R is the input to a viewer, then the viewer has
an n+1-dimensional position ... The user controls the position by panning in
the n viewing dimensions and by zooming, which changes the elevation."

Movement notifications feed the slaving manager (§7.1); the display list from
the last render feeds picking, which starts the Section-8 update path and
wormhole traversal (§6.2).
"""

from __future__ import annotations

import warnings
from typing import Any, Callable, Sequence

from repro.dataflow.box import Box
from repro.dataflow.ports import Port
from repro.dataflow.registry import register_box_class
from repro.display.displayable import (
    Composite,
    Displayable,
    DisplayableRelation,
    Group,
    ensure_composite,
)
from repro.display.drawables import ViewerDrawable
from repro.display.elevation import ElevationMap
from repro.errors import ViewerError
from repro.obs.metrics import global_registry
from repro.obs.trace import Tracer, current_tracer, push_tracer
from repro.render.canvas import Canvas
from repro.render.scene import (
    CanvasResolver,
    DisplayList,
    RenderedItem,
    SceneStats,
    ViewState,
    render_composite,
    render_group,
)

__all__ = ["ViewerBox", "RenderResult", "Viewer", "MAIN_MEMBER"]

MAIN_MEMBER = "main"
"""Member key used for non-group inputs (a composite has one view state)."""


class ViewerBox(Box):
    """The viewer as a box: one displayable input, no outputs (a sink).

    The input port is typed G; by the equivalences R = Composite(R) and
    C = Group(C) any displayable connects.  View positions live on the
    :class:`Viewer` runtime, not in params — panning is interaction, not
    program structure (saving a program stores the box, not the scroll
    position).
    """

    type_name = "Viewer"

    def __init__(
        self,
        name: str = "canvas",
        width: int = 640,
        height: int = 480,
        world_per_elevation: float = 1.0,
    ):
        super().__init__(
            {
                "name": name,
                "width": width,
                "height": height,
                "world_per_elevation": world_per_elevation,
            }
        )
        self.inputs = [Port("in", "G")]
        self.outputs = []

    def fire(self, inputs: dict[str, Any], context) -> dict[str, Any]:
        # A viewer never fires through the engine (no outputs); rendering is
        # driven by the Viewer runtime demanding the input.
        del inputs, context
        return {}


register_box_class(ViewerBox)


class RenderResult:
    """One rendered frame: the canvas, per-member display lists, statistics.

    ``tracer`` is set when the frame was rendered with ``render(trace=...)``
    — it holds the frame's span tree, ready for
    :func:`repro.obs.chrome_trace` / :func:`repro.obs.render_tree`.
    ``canvas`` is None on a copy that keeps only the display lists, such as
    a :class:`~repro.protocol.dispatch.FrameCache` entry.
    """

    def __init__(
        self,
        canvas: Canvas | None,
        items: dict[str, Sequence[RenderedItem]],
        stats: SceneStats,
        tracer: "Tracer | None" = None,
    ):
        self.canvas = canvas
        self.items = items
        self.stats = stats
        self.tracer = tracer

    def all_items(self) -> DisplayList:
        """Every member's display list, in paint order; items are built
        as they are read."""
        return DisplayList(self.items.values())

    def __repr__(self) -> str:
        return f"RenderResult({self.canvas!r}, {len(self.all_items())} items)"


class Viewer:
    """The runtime state and behaviour of one canvas window's viewer.

    ``source`` is a zero-argument callable returning the current input
    displayable — typically a closure over the engine and the viewer box, so
    every render sees the current program and database state (incremental
    programming, §1.2).

    Each call demands the input once: a position change, a view read or a
    render calls ``source`` one time and hands that displayable to every
    step that needs the input's shape (member names, the member's
    composite, default view states).  The internal helpers take it as an
    argument; ``render`` also accepts one a caller already demanded.
    """

    def __init__(
        self,
        name: str,
        source: Callable[[], Composite | Group | DisplayableRelation],
        width: int = 640,
        height: int = 480,
        world_per_elevation: float = 1.0,
        resolver: CanvasResolver | None = None,
    ):
        self.name = name
        self.source = source
        self.width = int(width)
        self.height = int(height)
        self.world_per_elevation = float(world_per_elevation)
        self.resolver = resolver
        self.views: dict[str, ViewState] = {}
        self.moved_callbacks: list[Callable[["Viewer", str], None]] = []
        self.last_result: RenderResult | None = None

    # ------------------------------------------------------------------
    # Input shape
    # ------------------------------------------------------------------

    def displayable(self) -> Composite | Group | DisplayableRelation:
        return self.source()

    def is_group(self) -> bool:
        return isinstance(self.displayable(), Group)

    def member_names(self) -> list[str]:
        return _member_names(self.displayable())

    def _member_composite(
        self, member: str, displayable: Displayable | None = None
    ) -> Composite:
        if displayable is None:
            displayable = self.displayable()
        if isinstance(displayable, Group):
            return displayable.member(member)
        if member != MAIN_MEMBER:
            raise ViewerError(
                f"viewer {self.name!r} has no member {member!r} (not a group)"
            )
        return ensure_composite(displayable)

    def dimension(self, member: str | None = None) -> int:
        """The dimension of (one member of) the viewed displayable."""
        return self._member_composite(member or MAIN_MEMBER).dimension

    def _sync_views(self, displayable: Displayable | None = None) -> Displayable:
        """Create default view states for new members; drop stale ones.
        Returns the input the views were synced to (demanded here unless
        given)."""
        if displayable is None:
            displayable = self.displayable()
        names = _member_names(displayable)
        for name in names:
            if name not in self.views:
                self.views[name] = self._default_view(name, displayable)
        for stale in [name for name in self.views if name not in names]:
            del self.views[stale]
        return displayable

    def _default_view(self, member: str, displayable: Displayable) -> ViewState:
        composite = self._member_composite(member, displayable)
        sliders: dict[str, tuple[float, float]] = {}
        for dim in composite.slider_dims:
            sliders[dim] = (float("-inf"), float("inf"))
        return ViewState(
            center=(0.0, 0.0),
            elevation=100.0,
            slider_ranges=sliders,
            viewport=(self.width, self.height),
            world_per_elevation=self.world_per_elevation,
        )

    def view(self, member: str | None = None) -> ViewState:
        return self._member_view(self._sync_views(), member)[1]

    def member_views(
        self, displayable: Displayable | None = None
    ) -> list[tuple[str, ViewState]]:
        """Every member's name and view state, in member order, from one
        demand (none when ``displayable`` is given)."""
        names = _member_names(self._sync_views(displayable))
        return [(name, self.views[name]) for name in names]

    def _member_view(
        self, displayable: Displayable, member: str | None
    ) -> tuple[str, ViewState]:
        """The addressed member's name and view state; ``member`` None
        means the only member.  The views must be synced to
        ``displayable``."""
        member = member or self._only_member(displayable)
        try:
            return member, self.views[member]
        except KeyError as exc:
            raise ViewerError(
                f"viewer {self.name!r} has no member {member!r}; "
                f"members: {_member_names(displayable)}"
            ) from exc

    def _only_member(self, displayable: Displayable) -> str:
        names = _member_names(displayable)
        if len(names) == 1:
            return names[0]
        raise ViewerError(
            f"viewer {self.name!r} shows a group "
            f"({', '.join(names)}); name the member to address"
        )

    # ------------------------------------------------------------------
    # Position control (§3: scroll bars, sliders, elevation control)
    # ------------------------------------------------------------------

    # Each position change returns the moved member's name and view state,
    # read after any slaved viewers followed.

    def _addressed_view(self, member: str | None) -> tuple[str, ViewState]:
        return self._member_view(self._sync_views(), member)

    def _pan(
        self, dx: float, dy: float, member: str | None = None
    ) -> tuple[str, ViewState]:
        """Pan in the two screen dimensions by world-unit deltas."""
        name, view = self._addressed_view(member)
        view.center = (view.center[0] + dx, view.center[1] + dy)
        self._notify_moved(name)
        return name, view

    def _pan_to(
        self, cx: float, cy: float, member: str | None = None
    ) -> tuple[str, ViewState]:
        name, view = self._addressed_view(member)
        view.center = (float(cx), float(cy))
        self._notify_moved(name)
        return name, view

    def _set_elevation(
        self, elevation: float, member: str | None = None
    ) -> tuple[str, ViewState]:
        """The elevation control: drag the dashed line in the elevation map."""
        if elevation <= 0:
            raise ViewerError(
                f"elevation must stay positive while viewing (got {elevation}); "
                "descending to zero passes through a wormhole — use the "
                "wormhole traversal API"
            )
        name, view = self._addressed_view(member)
        view.elevation = float(elevation)
        self._notify_moved(name)
        return name, view

    def _zoom(
        self, factor: float, member: str | None = None
    ) -> tuple[str, ViewState]:
        """Zoom in (factor > 1 descends; elevation divides by the factor)."""
        if factor <= 0:
            raise ViewerError(f"zoom factor must be positive, got {factor}")
        name, view = self._addressed_view(member)
        view.elevation = view.elevation / factor
        self._notify_moved(name)
        return name, view

    def _set_slider(
        self, dim: str, low: float, high: float, member: str | None = None
    ) -> tuple[str, ViewState]:
        """Set a slider dimension's visible range (§3)."""
        displayable = self._sync_views()
        name, view = self._member_view(displayable, member)
        composite = self._member_composite(name, displayable)
        if dim not in composite.slider_dims:
            raise ViewerError(
                f"viewer {self.name!r} has no slider dimension {dim!r}; "
                f"dimensions: {composite.slider_dims}"
            )
        if low > high:
            raise ViewerError(f"slider range [{low}, {high}] is empty")
        view.slider_ranges[dim] = (float(low), float(high))
        self._notify_moved(name)
        return name, view

    # Deprecated direct-mutation surface.  Demands now route through the
    # protocol layer (``Session.pan`` and friends build Command dataclasses
    # dispatched by CommandExecutor); these shims keep one release of
    # compatibility for code that mutated viewers directly.

    def _deprecated(self, method: str) -> None:
        warnings.warn(
            f"Viewer.{method} is deprecated and will be removed in the next "
            f"release; route the demand through Session.{method} (the "
            "repro.protocol command layer) instead",
            DeprecationWarning,
            stacklevel=3,
        )

    def pan(self, dx: float, dy: float, member: str | None = None) -> None:
        """Deprecated: use :meth:`Session.pan` (protocol command layer)."""
        self._deprecated("pan")
        self._pan(dx, dy, member)

    def pan_to(self, cx: float, cy: float, member: str | None = None) -> None:
        """Deprecated: use :meth:`Session.pan_to` (protocol command layer)."""
        self._deprecated("pan_to")
        self._pan_to(cx, cy, member)

    def set_elevation(self, elevation: float, member: str | None = None) -> None:
        """Deprecated: use :meth:`Session.set_elevation`."""
        self._deprecated("set_elevation")
        self._set_elevation(elevation, member)

    def zoom(self, factor: float, member: str | None = None) -> None:
        """Deprecated: use :meth:`Session.zoom` (protocol command layer)."""
        self._deprecated("zoom")
        self._zoom(factor, member)

    def set_slider(
        self, dim: str, low: float, high: float, member: str | None = None
    ) -> None:
        """Deprecated: use :meth:`Session.set_slider`."""
        self._deprecated("set_slider")
        self._set_slider(dim, low, high, member)

    def slider_dims(self, member: str | None = None) -> tuple[str, ...]:
        return self._addressed_composite(member).slider_dims

    def _addressed_composite(self, member: str | None) -> Composite:
        """The composite of ``member``, or of the only member."""
        displayable = self.displayable()
        return self._member_composite(
            member or self._only_member(displayable), displayable)

    def _notify_moved(self, member: str) -> None:
        for callback in list(self.moved_callbacks):
            callback(self, member)

    # ------------------------------------------------------------------
    # Rendering and picking
    # ------------------------------------------------------------------

    def render(
        self, cull: bool = True, trace: "Tracer | bool | None" = None,
        displayable: Displayable | None = None,
    ) -> RenderResult:
        """Render the current input through the current position(s).

        ``trace`` opts this render into span recording: pass ``True`` for a
        fresh tracer (returned on ``result.tracer``), or an existing
        :class:`~repro.obs.Tracer` to append to.  With ``trace=None`` the
        ambient tracer applies (enabled by ``REPRO_TRACE=1`` or
        :func:`repro.obs.push_tracer`, a no-op otherwise).

        ``displayable`` is the input as the caller already demanded it in
        this command (the dispatcher's frame key does); None demands it.
        """
        if trace is not None:
            tracer = Tracer(enabled=True) if trace is True else trace
            with push_tracer(tracer):
                result = self.render(cull=cull, displayable=displayable)
            result.tracer = tracer
            return result
        tracer = current_tracer()
        with tracer.span("viewer.render", viewer=self.name, cull=cull) as span:
            displayable = self._sync_views(displayable)
            canvas = Canvas(self.width, self.height)
            stats = SceneStats()
            if isinstance(displayable, Group):
                items = render_group(
                    canvas, displayable, self.views, self.resolver,
                    cull=cull, stats=stats,
                )
            else:
                view = self.views[MAIN_MEMBER]
                view.viewport = (self.width, self.height)
                flat = render_composite(
                    canvas,
                    ensure_composite(displayable),
                    view,
                    self.resolver,
                    cull=cull,
                    stats=stats,
                )
                items = {MAIN_MEMBER: flat}
            span.set(
                tuples_considered=stats.tuples_considered,
                tuples_rendered=stats.tuples_rendered,
                drawables_painted=stats.drawables_painted,
                draw_ops=canvas.draw_ops,
            )
        self._record_frame_metrics(stats, canvas)
        self.last_result = RenderResult(canvas, items, stats)
        return self.last_result

    def _record_frame_metrics(self, stats: SceneStats, canvas: Canvas) -> None:
        """Fold one frame's scene counters into the global metrics registry,
        attributed to this viewer (the 'viewer pass' label)."""
        registry = global_registry()
        registry.counter(
            "render.frames", "rendered frames per viewer"
        ).inc(label=self.name)
        registry.counter(
            "render.tuples_considered", "tuples examined before culling"
        ).inc(stats.tuples_considered, label=self.name)
        registry.counter(
            "render.tuples_rendered", "tuples that painted at least one drawable"
        ).inc(stats.tuples_rendered, label=self.name)
        registry.counter(
            "render.culled.slider", "tuples dropped by slider ranges"
        ).inc(stats.culled_by_slider, label=self.name)
        registry.counter(
            "render.culled.viewport", "tuples dropped outside the viewport"
        ).inc(stats.culled_by_viewport, label=self.name)
        registry.counter(
            "render.drawables_painted", "drawables painted onto canvases"
        ).inc(stats.drawables_painted, label=self.name)
        registry.counter(
            "render.draw_ops", "canvas primitive calls"
        ).inc(canvas.draw_ops, label=self.name)

    def explain_render(self, cull: bool = True) -> str:
        """Render and report the frame's work: scene counters plus one cull
        node per relation, with the tuples considered and kept.

        The signature-preserving way to see how much display-function
        evaluation culling avoided.
        """
        result = self.render(cull=cull)
        stats = result.stats
        lines = [f"viewer {self.name!r}: {stats!r}"]
        if not stats.cull_plans:
            lines.append("(no culling plans synthesized)")
        lines.extend(node.describe() for node in stats.cull_plans)
        return "\n".join(lines)

    def pick(self, px: float, py: float) -> RenderedItem | None:
        """The topmost rendered item under a screen point (§8 click)."""
        result = self.last_result or self.render()
        hit: RenderedItem | None = None
        for item in result.all_items():
            x0, y0, x1, y1 = item.bbox
            if x0 <= px <= x1 and y0 <= py <= y1:
                hit = item  # later items paint on top
        return hit

    def wormhole_at(self, px: float, py: float) -> RenderedItem | None:
        """The topmost wormhole (viewer drawable) under a screen point."""
        result = self.last_result or self.render()
        hit: RenderedItem | None = None
        for item in result.all_items():
            if item.drawable_kind != "viewer":
                continue
            x0, y0, x1, y1 = item.bbox
            if x0 <= px <= x1 and y0 <= py <= y1:
                hit = item
        return hit

    def visible_wormholes(self) -> list[RenderedItem]:
        result = self.last_result or self.render()
        return [
            item for item in result.all_items() if item.drawable_kind == "viewer"
        ]

    def elevation_map(self, member: str | None = None) -> ElevationMap:
        """The elevation map for (one member of) the viewed composite (§6.1).

        "For a group displayable, a viewer shows an elevation map for only
        one member of the group at a time" — callers cycle through members.
        """
        return self._addressed_composite(member).elevation_map()

    def __repr__(self) -> str:
        return f"Viewer({self.name!r}, {self.width}x{self.height})"


def _member_names(displayable: Displayable) -> list[str]:
    if isinstance(displayable, Group):
        return displayable.member_names()
    return [MAIN_MEMBER]
