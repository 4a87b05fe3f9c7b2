"""Grid bucketing of observation locations.

Locations are bucketed into a gx-by-gy grid over the dataset bounding box
and laid out cell by cell (CSR: the point order sorted by (column, row)
cell plus per-cell offsets), on the first read of ``order`` or ``start``:
only rectangle rows of a count plan need it. The plan in
fairscan.scanner counts a rectangle's cell-aligned interior as one run of
that order per grid column and resolves only the points of cells a query
boundary cuts, so counts do not depend on the grid resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import Dataset
from .geometry import Region

MAX_RESOLUTION = 1024


@dataclass(frozen=True)
class RegionCounts:
    n: int
    p: int


def _axis_cells(vals, lo, hi, m):
    vals = np.asarray(vals, dtype=np.float64)
    if hi <= lo:
        return np.zeros(vals.shape, dtype=np.int64)
    idx = np.floor((vals - lo) * (m / (hi - lo))).astype(np.int64)
    return np.clip(idx, 0, m - 1)


class SpatialIndex:
    """Fixed locations bucketed into a grid (on demand), with the observed
    labeling."""

    def __init__(self, lons: np.ndarray, lats: np.ndarray, labels: np.ndarray,
                 bbox: Region, gx: int, gy: int):
        for lo, hi, m, axis in ((bbox.xmin, bbox.xmax, gx, "x"),
                                (bbox.ymin, bbox.ymax, gy, "y")):
            if hi > lo and (hi - lo) / m == 0.0:
                raise ValueError(
                    f"grid resolution {m} on the {axis} axis underflows to "
                    "zero cell extent"
                )
        self.bbox = bbox
        self.gx = gx
        self.gy = gy
        self.xs = lons
        self.ys = lats
        self.N = len(lons)
        self.labels = labels
        self.P = int(labels.sum())

    @property
    def cell_id(self) -> np.ndarray:
        return self.cells_x(self.xs) * self.gy + self.cells_y(self.ys)

    @cached_property
    def order(self) -> np.ndarray:
        # Sets start too, from one cell id that is not kept (8 bytes a point).
        cell = self.cell_id
        self.start = np.concatenate(([0], np.cumsum(np.bincount(
            cell, minlength=self.gx * self.gy))))
        return np.argsort(cell, kind="stable")

    @cached_property
    def start(self) -> np.ndarray:
        self.order  # bucketing sets start
        return self.start

    def cells_x(self, vals) -> np.ndarray:
        return _axis_cells(vals, self.bbox.xmin, self.bbox.xmax, self.gx)

    def cells_y(self, vals) -> np.ndarray:
        return _axis_cells(vals, self.bbox.ymin, self.bbox.ymax, self.gy)


def default_resolution(n: int) -> int:
    return min(MAX_RESOLUTION, int(np.ceil(np.sqrt(n))))


def build_index(d: Dataset, resolution: tuple[int, int] | None = None
                ) -> SpatialIndex:
    """Index a dataset's locations and outcomes.

    resolution is (gx, gy), at most 1024**2 cells in all; the default uses
    ceil(sqrt(N)) cells per axis, capped at 1024.
    """
    if resolution is None:
        m = default_resolution(d.N)
        gx = gy = m
    else:
        gx, gy = resolution
        if gx < 1 or gy < 1:
            raise ValueError(f"grid resolution must be positive, got {gx}x{gy}")
        if gx * gy > MAX_RESOLUTION ** 2:
            raise ValueError(f"grid resolution {gx}x{gy} exceeds "
                             f"{MAX_RESOLUTION ** 2} cells")
    return SpatialIndex(d.lons, d.lats, d.outcomes, d.bbox, gx, gy)
