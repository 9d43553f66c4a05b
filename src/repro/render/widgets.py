"""Canvas-window furniture: the elevation map, slider bars, and elevation
control as rendered widgets (Section 3).

"each canvas window includes a rear view mirror, zero or more slider bars,
an elevation map, and an elevation control (a dashed line through the
elevation map)."

The models live in :mod:`repro.display.elevation` and the viewer; these
functions draw them.  The elevation map is "a bar-chart display of the
maximum/minimum elevations and drawing order of all elements of a composite"
(§6.1): one horizontal bar per component, bottom of the widget = drawing
order 0, with the dashed elevation-control line marking the viewer's current
elevation.  Elevations are plotted on a square-root axis so both map-scale
and zoomed-in ranges stay readable; infinite maxima clamp to the axis top.
"""

from __future__ import annotations

import math

from repro.display.displayable import Group
from repro.display.elevation import ElevationMap
from repro.render.canvas import Canvas

__all__ = [
    "render_elevation_map",
    "render_slider_bar",
    "render_window_frame",
]

_BAR_COLOR = (90, 120, 170)
_BAR_UNDERSIDE = (170, 120, 90)
_AXIS = (60, 60, 60)
_CONTROL = (200, 40, 40)
_LABEL = (20, 20, 20)
_TRACK = (210, 210, 210)
_HANDLE = (90, 120, 170)


def _axis_position(elevation: float, max_elevation: float, height: int) -> float:
    """Map an elevation to a y pixel (0 elevation at the bottom).

    Square-root scaling; elevations clamp to [0, max_elevation].
    Undersides (negative elevations) clamp to the baseline.
    """
    clamped = min(max(elevation, 0.0), max_elevation)
    fraction = math.sqrt(clamped / max_elevation) if max_elevation > 0 else 0.0
    return (height - 1) * (1.0 - fraction)


def render_elevation_map(
    elevation_map: ElevationMap,
    current_elevation: float,
    width: int = 120,
    height: int = 160,
) -> Canvas:
    """Draw the elevation-map widget for a composite (§6.1)."""
    canvas = Canvas(width, height)
    bars = elevation_map.bars()
    label_h = 10
    plot_h = height - label_h * max(1, len(bars)) - 4
    plot_h = max(plot_h, 24)

    finite_maxima = [
        bar.range.maximum for bar in bars if math.isfinite(bar.range.maximum)
    ]
    top = max(
        [current_elevation * 2.0, 10.0]
        + [value * 1.2 for value in finite_maxima]
    )

    # Axis.
    canvas.draw_line(4, 2, 4, plot_h + 2, _AXIS)
    canvas.draw_line(4, plot_h + 2, width - 4, plot_h + 2, _AXIS)

    if bars:
        slot = (width - 16) / len(bars)
        for order, bar in enumerate(bars):
            x0 = 8 + order * slot
            x1 = x0 + max(4.0, slot - 6)
            high = bar.range.maximum if math.isfinite(bar.range.maximum) else top
            y_top = _axis_position(high, top, plot_h) + 2
            y_bottom = _axis_position(max(bar.range.minimum, 0.0), top, plot_h) + 2
            color = _BAR_COLOR if bar.range.minimum >= 0 else _BAR_UNDERSIDE
            canvas.fill_rect(x0, y_top, x1, y_bottom, color)
            # Label, one row per bar beneath the plot.
            label = bar.name[:18]
            canvas.draw_text(6, plot_h + 5 + order * label_h, label, _LABEL)

    # The elevation control: a dashed line at the current elevation.
    control_y = _axis_position(current_elevation, top, plot_h) + 2
    x = 4
    while x < width - 4:
        canvas.draw_line(x, control_y, min(x + 4, width - 4), control_y, _CONTROL)
        x += 8
    return canvas


def render_slider_bar(
    dim: str,
    bounds: tuple[float, float],
    data_range: tuple[float, float],
    width: int = 240,
    height: int = 18,
) -> Canvas:
    """Draw one slider bar: the track is the data range, the filled span the
    currently visible [lo, hi] (§3)."""
    canvas = Canvas(width, height)
    track_x0 = 60
    track_x1 = width - 8
    mid_y = height // 2
    canvas.draw_text(2, mid_y - 4, dim[:9], _LABEL)
    canvas.fill_rect(track_x0, mid_y - 2, track_x1, mid_y + 2, _TRACK)

    data_low, data_high = data_range
    span = data_high - data_low
    if span <= 0:
        span = 1.0

    def to_x(value: float) -> float:
        clamped = min(max(value, data_low), data_high)
        return track_x0 + (track_x1 - track_x0) * (clamped - data_low) / span

    low = bounds[0] if math.isfinite(bounds[0]) else data_low
    high = bounds[1] if math.isfinite(bounds[1]) else data_high
    x_low = to_x(low)
    x_high = max(to_x(high), x_low + 2)
    canvas.fill_rect(x_low, mid_y - 4, x_high, mid_y + 4, _HANDLE)
    return canvas


def render_window_frame(window, cull: bool = True) -> Canvas:
    """Assemble a full canvas-window image: the rendered canvas, the
    elevation map on the right, and slider bars beneath (§3).

    ``window`` is a :class:`repro.ui.session.CanvasWindow`.  The data range
    for each slider bar comes from the visible composite's actual values.
    The viewer's input is demanded once and shared by every part.
    """
    viewer = window.viewer
    displayable = viewer.displayable()
    content = window.render(cull=cull, displayable=displayable)
    member = None
    if isinstance(displayable, Group):
        names = displayable.member_names()
        member = names[window._elevation_map_member % len(names)]
    member, view = viewer._member_view(displayable, member)
    composite = viewer._member_composite(member, displayable)

    map_width = 130
    map_canvas = render_elevation_map(
        composite.elevation_map(), view.elevation, width=map_width,
        height=min(200, content.height)
    )

    slider_dims = composite.slider_dims
    slider_h = 20
    total_w = content.width + map_width + 8
    total_h = content.height + 4 + slider_h * len(slider_dims) + 4

    frame = Canvas(total_w, total_h)
    frame.blit(content, 0, 0)
    frame.draw_rect(0, 0, content.width - 1, content.height - 1, _AXIS)
    frame.blit(map_canvas, content.width + 6, 0)

    for pos, dim in enumerate(slider_dims):
        bounds = view.slider_ranges.get(dim, (-math.inf, math.inf))
        data_values = []
        for entry in composite.entries:
            if dim not in entry.relation.slider_dims:
                continue
            offset = entry.offset_for(dim)
            for row_view in entry.relation.views():
                location = entry.relation.location_of(row_view)
                index = 2 + entry.relation.slider_dims.index(dim)
                data_values.append(location[index] + offset)
        if data_values:
            data_range = (min(data_values), max(data_values))
        else:
            data_range = (0.0, 1.0)
        bar = render_slider_bar(dim, bounds, data_range,
                                width=content.width, height=slider_h - 2)
        frame.blit(bar, 0, content.height + 4 + pos * slider_h)
    return frame
