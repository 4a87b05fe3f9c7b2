"""Column bucketing of observation locations.

The points' bounding box is cut into gx columns of equal width. The plan in
fairscan.scanner lays the points out by (column, y) and counts a
rectangle's points inside one column as one run of that order, testing
only the points of its first and last column one by one, so counts do not
depend on the column count.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset
from .geometry import bounding_box

MAX_COLUMNS = 1024


class SpatialIndex:
    """Fixed locations in gx columns over their own bounding box, with the
    observed labeling.

    The columns are the index's only cells: it has gy = 1 row, so
    gx * gy is its cell count.
    """

    gy = 1

    def __init__(self, lons: np.ndarray, lats: np.ndarray, labels: np.ndarray,
                 gx: int):
        self.xs, self.ys, self.labels, self.gx = lons, lats, labels, gx
        self.bbox = bounding_box(lons, lats)
        self.N = len(lons)
        self.P = int(labels.sum())

    def columns(self, xs) -> np.ndarray:
        """The column of each x, clipped to 0..gx - 1; monotone in x, and
        finite for an extent of a few denormals (divided before scaled)."""
        xs = np.asarray(xs, dtype=np.float64)
        lo, hi = self.bbox.xmin, self.bbox.xmax
        if hi <= lo:
            return np.zeros(xs.shape, dtype=np.int64)
        idx = np.floor((xs - lo) / (hi - lo) * self.gx).astype(np.int64)
        return np.clip(idx, 0, self.gx - 1)


def default_columns(n: int) -> int:
    return min(MAX_COLUMNS, int(np.ceil(np.sqrt(n))))


def build_index(d: Dataset, gx: int | None = None) -> SpatialIndex:
    """Index a dataset's locations and outcomes in gx columns.

    Counts do not depend on gx; the default is ceil(sqrt(N)), capped at
    1024.
    """
    gx = default_columns(d.N) if gx is None else gx
    if gx < 1:
        raise ValueError(f"column count must be positive, got {gx}")
    return SpatialIndex(d.lons, d.lats, d.outcomes, gx)
