"""Order statistics shared by the harness, the layer split and compare.py."""

from __future__ import annotations

import statistics


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (numpy's default); 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) exactly as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
