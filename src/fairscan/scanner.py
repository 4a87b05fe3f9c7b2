"""The counting plan behind the scan, the Monte Carlo loop and MeanVar.

Simulated worlds relabel fixed locations, so each candidate region's member
set never changes and counting positives is one fixed linear map from a
labeling to per-candidate totals. CountPlan digests the geometry once; each
new labeling then costs a few vectorized passes.

Cells of partitionings that cover the bounding box are counted from one
(N, K) cell-assignment array, one column per partitioning with the column's
cell ids offset past the earlier partitionings' cells, so a labeling costs
one bincount. Every other rectangle is counted from the index's prefix
tables at the corners of its cell-aligned interior, plus a CSR list of its
members among the points of the cells its boundary cuts.
"""

from __future__ import annotations

import numpy as np

from .geometry import Region, bounds_contain
from .index import RegionCounts, SpatialIndex
from .regions import Partitioning

# Boundary-cell points tested per batch while a plan is built; bounds the
# scratch memory of a build over many large rectangles.
_EDGE_BATCH = 1 << 16


def _prefix2d(cells: np.ndarray) -> np.ndarray:
    """Padded 2D prefix table: out[i, j] = sum of cells[:i, :j]."""
    gx, gy = cells.shape
    out = np.zeros((gx + 1, gy + 1), dtype=np.int64)
    np.cumsum(np.cumsum(cells, axis=0), axis=1, out=out[1:, 1:])
    return out


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenation of the integer ranges [lo[i], hi[i])."""
    lens = hi - lo
    return (np.arange(lens.sum(), dtype=np.int64)
            + np.repeat(lo - (np.cumsum(lens) - lens), lens))


def _covers(part: Partitioning, bbox: Region) -> bool:
    xb, yb = part.xbounds, part.ybounds
    return bool(xb[0] <= bbox.xmin and xb[-1] >= bbox.xmax
                and yb[0] <= bbox.ymin and yb[-1] >= bbox.ymax)


def _cell_of(ix: SpatialIndex, part: Partitioning) -> np.ndarray:
    """Each observation's cell index in a covering partitioning.

    searchsorted matches the half-open cell semantics: a point on an inner
    bound lands in the cell above it, and nothing can land past the last
    cell because inner bounds are interior.
    """
    ax = np.searchsorted(part.xbounds[1:-1], ix.xs, side="right")
    ay = np.searchsorted(part.ybounds[1:-1], ix.ys, side="right")
    return ay * (len(part.xbounds) - 1) + ax


class _Rectangles:
    """Counts for arbitrary rectangles through the index grid."""

    def __init__(self, ix: SpatialIndex, bounds: np.ndarray):
        self._cell_id = ix.cell_id
        self._shape = (ix.gx, ix.gy)
        xmin, ymin, xmax, ymax = bounds.T
        b = ix.bbox
        # Cell spans that could hold points of each rectangle. Monotone
        # bucketing guarantees coverage; rectangles strictly disjoint from
        # the bounding box get no span.
        hit = ~((xmax < b.xmin) | (xmin > b.xmax)
                | (ymax < b.ymin) | (ymin > b.ymax))
        cx0 = ix.cells_x(np.maximum(xmin, b.xmin))
        cx1 = ix.cells_x(np.minimum(xmax, b.xmax))
        cy0 = ix.cells_y(np.maximum(ymin, b.ymin))
        cy1 = ix.cells_y(np.minimum(ymax, b.ymax))
        # Padded prefix-table corners of the interior block, the columns
        # (cx0, cx1) by rows (cy0, cy1) exclusive. A span without interior
        # maps all four corners to 0, so the block sum vanishes.
        stride = ix.gy + 1
        empty = ~hit | (cx1 - cx0 < 2) | (cy1 - cy0 < 2)
        self._corners = np.where(empty, 0, np.stack((
            cx1 * stride + cy1,
            (cx0 + 1) * stride + cy1,
            cx1 * stride + cy0 + 1,
            (cx0 + 1) * stride + cy0 + 1,
        )))
        self._members, self._offsets = self._edge_members(
            ix, bounds, np.where(hit, cx1 - cx0 + 1, 0), cx0, cx1, cy0, cy1)

    @staticmethod
    def _edge_members(ix, bounds, ncols, cx0, cx1, cy0, cy1):
        """CSR list of each rectangle's members in its boundary cells.

        Cells are sorted by (column, row), so a column's rows cy0..cy1 are
        one contiguous run of the cell-sorted points. The span's first and
        last columns contribute that whole run, inner columns the runs of
        their first and last row only.
        """
        m = len(bounds)
        rect = np.repeat(np.arange(m), ncols)
        col = _ranges(cx0, cx0 + ncols)
        lo_cell = col * ix.gy + cy0[rect]
        hi_cell = col * ix.gy + cy1[rect]
        outer = (col == cx0[rect]) | (col == cx1[rect])
        start = ix.start
        first_lo = start[lo_cell]
        first_hi = np.where(outer, start[hi_cell + 1], start[lo_cell + 1])
        skip = outer | (hi_cell == lo_cell)
        last_lo = np.where(skip, 0, start[hi_cell])
        last_hi = np.where(skip, 0, start[hi_cell + 1])
        run_lo = np.column_stack((first_lo, last_lo)).ravel()
        run_hi = np.column_stack((first_hi, last_hi)).ravel()
        run_rect = np.repeat(rect, 2)
        per_rect = np.bincount(run_rect, weights=run_hi - run_lo,
                               minlength=m).astype(np.int64)
        run_end = np.cumsum(np.bincount(run_rect, minlength=m))
        batch = np.cumsum(per_rect) // _EDGE_BATCH
        cuts = np.concatenate(([0], np.flatnonzero(np.diff(batch)) + 1, [m]))
        members, counts = [], []
        for r0, r1 in zip(cuts[:-1], cuts[1:]):
            if r0 == r1:
                continue
            runs = slice(run_end[r0 - 1] if r0 else 0, run_end[r1 - 1])
            pos = _ranges(run_lo[runs], run_hi[runs])
            owner = np.repeat(run_rect[runs], run_hi[runs] - run_lo[runs])
            ids = ix.order[pos]
            keep = bounds_contain(bounds[owner].T, ix.xs[ids], ix.ys[ids],
                                  ix.bbox)
            members.append(ids[keep])
            counts.append(np.bincount(owner[keep] - r0, minlength=r1 - r0))
        offsets = np.zeros(m + 1, dtype=np.int64)
        if counts:
            np.cumsum(np.concatenate(counts), out=offsets[1:])
        return (np.concatenate(members) if members
                else np.zeros(0, dtype=np.int64)), offsets

    def positives(self, labels: np.ndarray) -> np.ndarray:
        pos_cells = np.bincount(self._cell_id[labels != 0],
                                minlength=self._shape[0] * self._shape[1])
        flat = _prefix2d(pos_cells.reshape(self._shape)).ravel()
        ia, ib, ic, id_ = self._corners
        block = flat[ia] - flat[ib] - flat[ic] + flat[id_]
        # Segment sums via cumsum: robust to empty segments, exact in int64.
        csum = np.zeros(len(self._members) + 1, dtype=np.int64)
        np.cumsum(labels[self._members], out=csum[1:])
        return block + csum[self._offsets[1:]] - csum[self._offsets[:-1]]


class CountPlan:
    """Per-candidate observation and positive counts under any labeling.

    Candidates keep family order. ``bounds`` is the (R, 4) array of their
    xmin, ymin, xmax, ymax, ``center_ids`` their center links (None for
    partitioning cells) and ``n`` their observation counts. Counts match a
    brute-force scan under the half-open membership predicate with closed
    bounding-box max edges.
    """

    def __init__(self, ix: SpatialIndex, family):
        bounds, center_ids, via_cells, columns = [], [], [], []
        ncells = 0
        for item in _flatten(family):
            if isinstance(item, Partitioning):
                cells = item.cell_bounds()
                bounds.append(cells)
                center_ids.extend([None] * len(cells))
                covering = _covers(item, ix.bbox)
                if covering:
                    columns.append(ncells + _cell_of(ix, item))
                    ncells += len(cells)
                via_cells.extend([covering] * len(cells))
            else:
                bounds.append(np.array([item.bounds()], dtype=np.float64))
                center_ids.append(item.center_id)
                via_cells.append(False)
        self.bounds = (np.concatenate(bounds) if bounds
                       else np.zeros((0, 4), dtype=np.float64))
        self.center_ids = center_ids
        via_cells = np.array(via_cells, dtype=bool)
        self._cell_slots = np.flatnonzero(via_cells)
        self._rect_slots = np.flatnonzero(~via_cells)
        self._ncells = ncells
        self._n_obs = ix.N
        self._assign = np.column_stack(columns) if columns else None
        del columns     # the per-partitioning copies of the assignment
        self._rects = (_Rectangles(ix, self.bounds[self._rect_slots])
                       if len(self._rect_slots) else None)
        self.n = self.positives(np.ones(ix.N, dtype=np.int8))

    def positives(self, labels: np.ndarray) -> np.ndarray:
        """Positives inside each candidate under a 0/1 labeling of the points."""
        if labels.shape != (self._n_obs,):
            raise ValueError(
                f"labels must have shape ({self._n_obs},), got {labels.shape}"
            )
        if len(labels) and (labels.min() < 0 or labels.max() > 1):
            raise ValueError("labels must be binary")
        out = np.zeros(len(self.bounds), dtype=np.int64)
        if self._assign is not None:
            rows = self._assign[np.flatnonzero(labels)]
            cells = np.bincount(rows.ravel(), minlength=self._ncells)
            if self._rects is None:
                return cells
            out[self._cell_slots] = cells
        if self._rects is not None:
            rects = self._rects.positives(labels)
            if self._assign is None:
                return rects
            out[self._rect_slots] = rects
        return out

    def region(self, i: int) -> Region:
        return Region(*self.bounds[i].tolist(), center_id=self.center_ids[i])


def _flatten(family):
    """Partitionings and Regions of a family, nested lists opened in order."""
    if isinstance(family, (Partitioning, Region)):
        yield family
        return
    for item in family:
        yield from _flatten(item)


def as_scanner(ix: SpatialIndex, family) -> CountPlan:
    """The counting plan for a region family.

    Accepts an existing plan (returned untouched), a Partitioning, a Region,
    or a sequence mixing Partitionings, Regions and sequences of Regions.
    """
    if isinstance(family, CountPlan):
        return family
    return CountPlan(ix, family)


def range_count(ix: SpatialIndex, region: Region) -> RegionCounts:
    """Count observations and positives inside one rectangle."""
    plan = CountPlan(ix, region)
    return RegionCounts(int(plan.n[0]), int(plan.positives(ix.labels)[0]))

