"""The counting plan behind the scan, the Monte Carlo loop and MeanVar.

Simulated worlds relabel fixed locations, so each candidate region's member
set never changes and counting positives is one fixed linear map from a
labeling to per-candidate totals. CountPlan digests the geometry once into
one sparse (R, N) member matrix, so a new labeling costs one sparse
product. The matrix rows run in ascending candidate size, which groups
the counts by size for the Monte Carlo loop and speeds up the product.

A row of the matrix holds, for a cell of a partitioning that covers the
bounding box, all of the cell's members. For any other rectangle it holds
only the rectangle's members among the points of the index-grid cells its
boundary cuts; its cell-aligned interior is counted from a prefix table of
per-cell positives, read at four corners.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .geometry import Region, bounds_contain
from .index import SpatialIndex
from .regions import Partitioning, Rectangles

# Boundary-cell points tested, or matrix row ids remapped, per batch while a
# plan is built; bounds the scratch memory of a build.
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
    ay *= len(part.xbounds) - 1
    ay += ax
    return ay


def _rectangle_terms(ix: SpatialIndex, bounds: np.ndarray):
    """Prefix-table corners and boundary-cell members of rectangles.

    Returns the (4, m) corner indices into the padded prefix table of the
    index grid and the CSR list (members, offsets) of each rectangle's
    members among the points of the cells its boundary cuts.
    """
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
    corners = np.where(empty, 0, np.stack((
        cx1 * stride + cy1,
        (cx0 + 1) * stride + cy1,
        cx1 * stride + cy0 + 1,
        (cx0 + 1) * stride + cy0 + 1,
    )))
    members, offsets = _edge_members(
        ix, bounds, np.where(hit, cx1 - cx0 + 1, 0), cx0, cx1, cy0, cy1)
    return corners, members, offsets


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


class CountPlan:
    """Per-candidate observation and positive counts under any labeling.

    Candidates keep family order. ``bounds`` is the (R, 4) array of their
    xmin, ymin, xmax, ymax, ``center_ids`` their center links (None for
    partitioning cells) and ``n`` their observation counts. ``order`` is the
    stable argsort of ``n``: ``count_by_size`` returns counts in that order,
    ``positives`` in family order. ``nnz`` is the member matrix's entry
    count, the labels one count reads besides the corner terms. Counts
    match a brute-force scan under the half-open membership predicate with
    closed bounding-box max edges.
    """

    def __init__(self, ix: SpatialIndex, family):
        fams = family if isinstance(family, (list, tuple)) else [family]
        bounds, center_ids = [np.zeros((0, 4))], [np.empty(0, dtype=object)]
        via_cells, covering, first = [np.zeros(0, dtype=bool)], [], 0
        for fam in fams:
            if isinstance(fam, Partitioning):
                is_covering = _covers(fam, ix.bbox)
                if is_covering:
                    covering.append((first, fam))
                bounds.append(fam.cell_bounds())
                center_ids.append(np.empty(len(fam), dtype=object))
                via_cells.append(np.full(len(fam), is_covering))
            elif isinstance(fam, Rectangles):
                bounds.append(fam.bounds)
                center_ids.append(fam.center_ids)
                via_cells.append(np.zeros(len(fam), dtype=bool))
            else:
                raise TypeError(f"{type(fam).__name__} is not a Partitioning, "
                                "a Rectangles or a list of them")
            first += len(fam)
        self.bounds = np.concatenate(bounds)
        self.center_ids = np.concatenate(center_ids)
        rect_rows = np.flatnonzero(~np.concatenate(via_cells))
        corners, members, offsets = _rectangle_terms(
            ix, self.bounds[rect_rows])
        self._corners = None
        if len(rect_rows):
            self._corners = np.zeros((4, len(self.bounds)), dtype=np.int64)
            self._corners[:, rect_rows] = corners
        self._cell_id = ix.cell_id
        self._grid = (ix.gx, ix.gy)
        # Member matrix entries as int32 (row, column) pairs, written in
        # place: every point once per covering partitioning, then the
        # rectangles' boundary-cell members.
        n_cells = len(covering) * ix.N
        rows = np.empty(n_cells + len(members), dtype=np.int32)
        cols = np.empty_like(rows)
        cell_rows = rows[:n_cells].reshape(len(covering), ix.N)
        for k, (first, part) in enumerate(covering):
            np.add(_cell_of(ix, part), first, out=cell_rows[k])
        cols[:n_cells].reshape(len(covering), ix.N)[:] = np.arange(ix.N)
        rows[n_cells:] = np.repeat(rect_rows, np.diff(offsets))
        cols[n_cells:] = members
        n_rows = len(self.bounds)
        self.n = np.bincount(rows, minlength=n_rows)
        if self._corners is not None:
            self.n += self._corner_term(np.diff(ix.start))
        # Rows are laid out in ascending size (stable), so one product gives
        # the counts already grouped by size, and the product itself runs
        # faster over runs of equal-length rows.
        self.order = np.argsort(self.n, kind="stable")
        rank = np.empty(n_rows, dtype=np.int32)
        rank[self.order] = np.arange(n_rows, dtype=np.int32)
        for lo in range(0, len(rows), _EDGE_BATCH):
            batch = rows[lo:lo + _EDGE_BATCH]
            batch[:] = rank[batch]
        if self._corners is not None:
            self._corners = self._corners[:, self.order]
        # Each row sums at most N labels, which int32 holds exactly; a
        # narrower dtype would wrap, since it sets the product's dtype.
        self._members = sparse.csr_array(
            (np.ones(len(rows), dtype=np.int32), (rows, cols)),
            shape=(n_rows, ix.N))
        self.nnz = self._members.nnz

    def _corner_term(self, cell_counts: np.ndarray) -> np.ndarray:
        """Per-candidate sums of the cell-aligned interior blocks."""
        flat = _prefix2d(cell_counts.reshape(self._grid)).ravel()
        ia, ib, ic, id_ = self._corners
        return flat[ia] - flat[ib] - flat[ic] + flat[id_]

    def count_by_size(self, labels: np.ndarray) -> np.ndarray:
        """Positives inside each candidate, in the order ``self.order``.

        That is ascending observation count; int32 when no candidate needs
        a corner term, else int64.
        """
        n_obs = self._members.shape[1]
        if labels.shape != (n_obs,):
            raise ValueError(
                f"labels must have shape ({n_obs},), got {labels.shape}"
            )
        if len(labels) and (labels.min() < 0 or labels.max() > 1):
            raise ValueError("labels must be binary")
        counts = self._members @ labels
        if self._corners is not None:
            counts = counts + self._corner_term(np.bincount(
                self._cell_id[labels != 0],
                minlength=self._grid[0] * self._grid[1]))
        return counts

    def positives(self, labels: np.ndarray) -> np.ndarray:
        """Positives inside each candidate under a 0/1 labeling of the points."""
        out = np.empty(len(self.order), dtype=np.int64)
        out[self.order] = self.count_by_size(labels)
        return out

    def region(self, i: int) -> Region:
        return Region(*self.bounds[i].tolist(), center_id=self.center_ids[i])


def as_scanner(ix: SpatialIndex, family) -> CountPlan:
    """The counting plan for a region family.

    Accepts an existing plan (returned untouched), a Partitioning, a
    Rectangles, or a flat list or tuple of them.
    """
    if isinstance(family, CountPlan):
        return family
    return CountPlan(ix, family)

