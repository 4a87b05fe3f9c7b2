"""Axis-aligned rectangle primitives shared across the audit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Region:
    """Rectangle with half-open membership: [xmin, xmax) x [ymin, ymax).

    The one exception: a max edge at or past the audit bounding box's max
    edge is closed, so points on the box are never lost (see closed_bounds).

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


def closed_bounds(bounds, bbox: Region):
    """Bounds, which may be arrays, with each max edge at or past the box's
    moved up one float: for finite v, ``v < xmax or bbox.xmax <= v <= xmax``
    is then ``v <= xmax``, which is ``v < nextafter(xmax, inf)``."""
    xmin, ymin, xmax, ymax = bounds
    with np.errstate(over="ignore"):  # the largest float steps up to inf
        xmax = np.where(xmax >= bbox.xmax, np.nextafter(xmax, np.inf), xmax)
        ymax = np.where(ymax >= bbox.ymax, np.nextafter(ymax, np.inf), ymax)
    return xmin, ymin, xmax, ymax


def bounds_contain(bounds, xs, ys, bbox: Region):
    """Point-in-region test under the shared membership semantics.

    Bounds are half-open, except that a region whose max edge reaches the
    bounding box's max edge also includes points lying exactly on that edge.
    Accepts scalars or numpy arrays and broadcasts.
    """
    xmin, ymin, xmax, ymax = closed_bounds(bounds, bbox)
    xs, ys = np.asarray(xs), np.asarray(ys)
    return (xs >= xmin) & (xs < xmax) & (ys >= ymin) & (ys < ymax)


def bounding_box(xs, ys) -> Region:
    """Tight axis-aligned bounding box of a nonempty point set."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.size == 0:
        raise ValueError("cannot bound an empty point set")
    return Region(float(xs.min()), float(ys.min()), float(xs.max()),
                  float(ys.max()))
