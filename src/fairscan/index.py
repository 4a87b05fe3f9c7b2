"""Column bucketing of observation locations.

The bounding box is cut into gx columns of equal width. The plan in
fairscan.scanner lays the points out by (column, y) and counts a
rectangle's points inside one column as one run of that order, testing
only the points of its first and last column one by one, so counts do not
depend on the column count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .geometry import Region

MAX_RESOLUTION = 1024


@dataclass(frozen=True)
class RegionCounts:
    n: int
    p: int


class SpatialIndex:
    """Fixed locations in gx columns over the bounding box, with the
    observed labeling.

    The columns are the index's only cells: it has gy = 1 row, so
    gx * gy is its cell count.
    """

    gy = 1

    def __init__(self, lons: np.ndarray, lats: np.ndarray, labels: np.ndarray,
                 bbox: Region, gx: int):
        if bbox.xmax > bbox.xmin and (bbox.xmax - bbox.xmin) / gx == 0.0:
            raise ValueError(f"grid resolution {gx} on the x axis underflows "
                             "to zero cell extent")
        self.bbox = bbox
        self.gx = gx
        self.xs = lons
        self.ys = lats
        self.N = len(lons)
        self.labels = labels
        self.P = int(labels.sum())

    def columns(self, xs) -> np.ndarray:
        """The column of each x, clipped to 0..gx - 1; monotone in x."""
        xs = np.asarray(xs, dtype=np.float64)
        lo, hi = self.bbox.xmin, self.bbox.xmax
        if hi <= lo:
            return np.zeros(xs.shape, dtype=np.int64)
        idx = np.floor((xs - lo) * (self.gx / (hi - lo))).astype(np.int64)
        return np.clip(idx, 0, self.gx - 1)


def default_resolution(n: int) -> int:
    return min(MAX_RESOLUTION, int(np.ceil(np.sqrt(n))))


def build_index(d: Dataset, resolution: int | None = None) -> SpatialIndex:
    """Index a dataset's locations and outcomes.

    resolution is the column count gx, at most 1024**2; the default is
    ceil(sqrt(N)), capped at 1024.
    """
    gx = default_resolution(d.N) if resolution is None else resolution
    if gx < 1:
        raise ValueError(f"grid resolution must be positive, got {gx}")
    if gx > MAX_RESOLUTION ** 2:
        raise ValueError(f"grid resolution {gx} exceeds "
                         f"{MAX_RESOLUTION ** 2} columns")
    return SpatialIndex(d.lons, d.lats, d.outcomes, d.bbox, gx)
