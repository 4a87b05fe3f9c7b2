"""Axis-aligned rectangle primitives shared across the audit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Region:
    """Rectangle with half-open membership: [xmin, xmax) x [ymin, ymax).

    The enclosing audit bounding box is the one exception to the half-open
    rule: its max edges count as closed, so observations sitting exactly on
    them are never lost (see :func:`region_contains`).

    ``center_id`` optionally links a scan square back to the center that
    spawned it; partitioning cells leave it unset.
    """

    xmin: float
    ymin: float
    xmax: float
    ymax: float
    center_id: str | None = None

    def __post_init__(self) -> None:
        if not (self.xmin <= self.xmax and self.ymin <= self.ymax):
            raise ValueError(f"inverted region bounds: {self.bounds()}")

    def bounds(self) -> tuple[float, float, float, float]:
        return (self.xmin, self.ymin, self.xmax, self.ymax)

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin


def region_contains(region: Region, xs, ys, bbox: Region):
    """Point-in-region test under the shared membership semantics.

    Bounds are half-open, except that a region whose max edge reaches the
    bounding box's max edge also includes points lying exactly on that edge.
    Accepts scalars or numpy arrays and broadcasts.
    """
    return bounds_contain(region.bounds(), xs, ys, bbox)


def bounds_contain(bounds, xs, ys, bbox: Region):
    """region_contains for (xmin, ymin, xmax, ymax) bounds, which may be arrays."""
    xmin, ymin, xmax, ymax = bounds
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    in_x = (xs >= xmin) & (
        (xs < xmax) | ((xmax >= bbox.xmax) & (xs >= bbox.xmax) & (xs <= xmax))
    )
    in_y = (ys >= ymin) & (
        (ys < ymax) | ((ymax >= bbox.ymax) & (ys >= bbox.ymax) & (ys <= ymax))
    )
    return in_x & in_y


def regions_overlap(a: Region, b: Region) -> bool:
    """True when the intersection has strictly positive area.

    Regions that merely share an edge or a corner do not overlap.
    """
    return (
        min(a.xmax, b.xmax) > max(a.xmin, b.xmin)
        and min(a.ymax, b.ymax) > max(a.ymin, b.ymin)
    )


def bounding_box(xs, ys) -> Region:
    """Tight axis-aligned bounding box of a nonempty point set."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size == 0:
        raise ValueError("cannot bound an empty point set")
    return Region(
        float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())
    )
