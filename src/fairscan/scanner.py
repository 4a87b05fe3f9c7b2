"""The counting plan behind the scan, the Monte Carlo loop and MeanVar.

Simulated worlds relabel fixed locations, so each candidate region's member
set never changes and counting positives is one fixed linear map from a
labeling to per-candidate totals. CountPlan digests the geometry once into
one sparse member matrix, so a block of labelings costs one sparse
product. The matrix rows run in ascending candidate size, which groups
the counts by size for the Monte Carlo loop and speeds up the product.

A row of the matrix holds all of the members of a cell of a partitioning
that covers the points' bounding box with no inner bound on its max
edges. For any other rectangle it holds its members among the points of
its first and last index column, plus its other columns as runs: the
plan sorts the points by (column, y), so inside one index column a
rectangle's points are one contiguous run of the sorted points, and its
count is the difference of two running sums of the labels taken in that
order. The product's vector is the N labels followed by those N + 1
running sums.

The matrix is written in place, in two passes: the first finds every row's
size (a covering partitioning's cells from one argsort per axis), the
second writes each entry into its slot of the final CSR arrays,
_EDGE_BATCH at a time. A plan keeps an int32 column and a value per entry,
and with interior runs the int64 (column, y) order of the points; its
build adds a uint16 cell per point and covering partitioning, a few arrays
per candidate and per point and one batch's scratch. Every count, running
sum and partial row sum lies in [-N, N], so below 2**15 points the values,
labels and counts are int16, else int32. scipy's CSR kernels, which
fairscan._kernels loads without importing scipy.sparse, run the product
on the plan's own arrays: over every row for ``positives``, and for
``extremes`` over a block of B labelings one band of max(1,
_BAND_VALUES // B) rows at a time, from the first row of positive size.
"""

from __future__ import annotations

import numpy as np

from ._kernels import sparsetools
from .geometry import Region, closed_bounds
from .index import SpatialIndex
from .regions import Partitioning, Rectangles

# Points placed, edge-column points tested, or rectangle entries placed
# per batch while a plan is built; bounds the scratch memory of a build.
_EDGE_BATCH = 1 << 16
# Counts (rows times labelings) per band of a counted block; bounds the
# band buffer beside the block's labels.
_BAND_VALUES = _EDGE_BATCH
# A block holds the largest power of two up to _BLOCK_WORLDS labelings
# whose (width, B) labels and running sums fit in _BLOCK_BYTES (2 MiB): 32
# on split10k, 16 on planted20k, 1 on clustered1m. On int16, scipy's
# multi-vector kernel (csr_matvecs) costs 2.5-4x less per labeling at 16-32
# labelings than one vector (csr_matvec).
_BLOCK_WORLDS = 32
_BLOCK_BYTES = 1 << 21
_INDEX_MAX = np.iinfo(np.int32).max  # of the CSR arrays' entries and columns


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenation of the integer ranges [lo[i], hi[i])."""
    lens = hi - lo
    return (np.arange(lens.sum(), dtype=np.int64)
            + np.repeat(lo - (np.cumsum(lens) - lens), lens))


def _covers(part: Partitioning, bbox: Region) -> bool:
    """Whether ``_cells`` gives each cell its members: the partitioning
    covers the box and no inner bound lies on the box's max edge."""
    xb, yb = part.xbounds, part.ybounds
    return bool(xb[0] <= bbox.xmin and xb[-1] >= bbox.xmax
                and yb[0] <= bbox.ymin and yb[-1] >= bbox.ymax
                and bbox.xmax not in xb[1:-1] and bbox.ymax not in yb[1:-1])


def _cells(ix: SpatialIndex, covering, n) -> np.ndarray:
    """Each observation's cell in each covering partitioning, one row per
    partitioning, uint16 when each has at most 2**16 cells; each cell's
    size goes to ``n``. A point's column is the number of inner bounds at
    or below it (half-open cells), so along one argsort of each axis it
    steps up at each bound's insertion point.
    """
    most = max((len(part) for _, part in covering), default=0)
    cells = np.empty((len(covering), ix.N),
                     np.uint16 if most <= 1 << 16 else np.int32)
    for vals, axis in ((ix.xs, 0), (ix.ys, 1)) if covering else ():
        by_value = np.argsort(vals)
        for cell, (_, part) in zip(cells, covering):
            bounds = part.ybounds if axis else part.xbounds
            cut = np.searchsorted(vals, bounds[1:-1], sorter=by_value)
            col = np.repeat((np.arange(len(bounds) - 1) * (
                len(part.xbounds) - 1 if axis else 1)).astype(cell.dtype),
                np.diff(cut, prepend=0, append=ix.N))
            if axis:
                col += cell.take(by_value)
            cell[by_value] = col
    for (first, part), cell in zip(covering, cells):
        n[first:first + len(part)] = np.bincount(cell, minlength=len(part))
    return cells


def _place(indices, data, free, total, entries):
    """Write ``total`` entries into their rows' next ``free`` slots, which
    advance in place: a stable counting placement, _EDGE_BATCH at a time.
    ``entries(at)`` gives the rows, columns and values (None for ones) of
    the entries numbered ``at``.
    """
    for lo in range(0, total, _EDGE_BATCH):
        rows, cols, values = entries(np.arange(lo, min(lo + _EDGE_BATCH,
                                                       total)))
        top = int(rows.min())  # a Python int: top + len(count) may pass 2**16
        rows = rows - top
        by_row = np.argsort(rows, kind="stable")
        count = np.bincount(rows)
        span = free[top:top + len(count)]
        # Entry j in row order: its row's free slot, plus j less the
        # batch's entries in lower rows.
        slot = (span - np.cumsum(count) + count)[rows[by_row]]
        slot += np.arange(len(rows))
        indices[slot] = cols[by_row]
        if values is not None:
            data[slot] = values[by_row]
        span += count


def _rectangle_terms(ix: SpatialIndex, bounds: np.ndarray):
    """The points in (column, y) order, and rectangles' edge members and
    interior column runs in it.

    ``order`` sorts the points by the key column * N + rank of y, so inside
    one column a rectangle's points are one run of it: those with
    ymin <= y < ymax, the bounds closed once by ``closed_bounds``.
    Returns ``order`` (None without rectangles), each rectangle's members
    among the points of the runs of its first and last column as (owner,
    member) pairs sorted by owner and then member, and the runs (rect, lo,
    hi) of its other columns: positions [lo, hi) of ``order``, ascending per
    rectangle. Runs are non-empty and runs that touch are merged, so a
    rectangle has at most one run per interior column.
    """
    m = len(bounds)
    if not m:
        empty = np.zeros(0, dtype=np.int64)
        return None, empty, empty, empty, empty, empty
    by_y = np.argsort(ix.ys)
    key = ix.columns(ix.xs) * ix.N
    key[by_y] += np.arange(ix.N)
    key.sort()
    order = by_y[key % ix.N]
    b = ix.bbox
    xmin, ymin, xmax, ymax = closed_bounds(bounds.T, b)
    # Monotone columns cover every point of a rectangle; rectangles left or
    # right of the bounding box get no column.
    cx0 = ix.columns(np.maximum(xmin, b.xmin))
    cx1 = ix.columns(np.minimum(xmax, b.xmax))
    ncols = np.where((xmax >= b.xmin) & (xmin <= b.xmax), cx1 - cx0 + 1, 0)
    y0 = np.searchsorted(ix.ys, ymin, sorter=by_y)
    y1 = np.searchsorted(ix.ys, ymax, sorter=by_y)
    del by_y
    rect = np.repeat(np.arange(m), ncols)
    col = _ranges(cx0, cx0 + ncols)
    edge = (col == cx0[rect]) | (col == cx1[rect])
    col *= ix.N
    lo = np.searchsorted(key, col + y0[rect])
    hi = np.searchsorted(key, col + y1[rect])
    del key, col
    owner, members = _edge_members(ix, order, xmin, xmax, rect[edge],
                                   lo[edge], hi[edge])
    keep = ~edge & (hi > lo)
    rect, lo, hi = rect[keep], lo[keep], hi[keep]
    # A run ending where the rectangle's next run starts joins it; their
    # +1 and -1 would otherwise meet in one matrix entry of value 0.
    first = np.ones(len(rect) + 1, dtype=bool)
    first[1:-1] = (rect[1:] != rect[:-1]) | (lo[1:] != hi[:-1])
    last = first[1:]
    first = first[:-1]
    return order, owner, members, rect[first], lo[first], hi[last]


def _edge_members(ix, order, xmin, xmax, rect, lo, hi):
    """Each rectangle's members among the points of its runs (rect, lo, hi)
    of ``order``, as (owner, member) pairs sorted by owner and then member;
    ``rect`` ascends. A run holds just the points inside the rectangle's y
    bounds, so a point is a member when xmin <= x < xmax, bounds closed."""
    m = len(xmin)
    per_rect = np.bincount(rect, weights=hi - lo,
                           minlength=m).astype(np.int64)
    run_end = np.cumsum(np.bincount(rect, minlength=m))
    batch = np.cumsum(per_rect) // _EDGE_BATCH
    cuts = np.concatenate(([0], np.flatnonzero(np.diff(batch)) + 1, [m]))
    owners, members = [], []
    for r0, r1 in zip(cuts[:-1], cuts[1:]):
        runs = slice(run_end[r0 - 1] if r0 else 0, run_end[r1 - 1])
        owner = np.repeat(rect[runs], hi[runs] - lo[runs])
        ids = order[_ranges(lo[runs], hi[runs])]
        x = ix.xs[ids]
        keep = (x >= xmin[owner]) & (x < xmax[owner])
        owner = owner[keep]  # ascends, as ``rect`` does
        key = np.sort(owner * ix.N + ids[keep])  # ascending per rectangle
        owners.append(owner)
        members.append(key - owner * ix.N)
    return np.concatenate(owners), np.concatenate(members)


class CountPlan:
    """Per-candidate observation and positive counts under any labeling.

    Candidates keep family order. ``bounds`` is the (R, 4) array of their
    xmin, ymin, xmax, ymax, ``center_ids`` their center links (None for
    partitioning cells) and ``n`` their observation counts. ``order`` is the
    stable argsort of ``n``, the order of the matrix rows, and ``sizes`` are
    the distinct positive sizes, ascending. ``positives`` counts one
    labeling, in family order; ``extremes`` gives each size's largest and
    smallest count under each labeling of a block of up to ``worlds``,
    in bands of rows that it cuts for each block.
    ``width`` is the length of the product's vector: the N labels, then
    N + 1 running sums when rectangles have interior runs. ``nnz`` is the
    member matrix's entry count: one per edge-column member and per point
    of each covering partitioning, and two per interior run, so at most two
    per interior index column of a rectangle. ``indptr``, ``indices``
    (int32) and ``data`` are its CSR arrays, rows in the order ``order``.
    ``dtype`` is the counts' and the values' type: int16 below 2**15
    points, else int32. Counts follow ``geometry.closed_bounds`` over the
    index's box, the points' own. Past 2**31 - 1 entries or columns a plan
    raises ValueError before its CSR arrays are allocated.
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
        del bounds, center_ids, via_cells  # the per-family pieces
        n_rows = len(self.bounds)
        # Pass 1: each row's size and entry count.
        self.n = np.zeros(n_rows, dtype=np.int64)
        cells = _cells(ix, covering, self.n)
        (point_order, owner, members, run_rect, run_lo,
         run_hi) = _rectangle_terms(ix, self.bounds[rect_rows])
        n_members = np.bincount(owner, minlength=len(rect_rows))
        row_nnz = self.n.copy()
        row_nnz[rect_rows] = n_members + 2 * np.bincount(
            run_rect, minlength=len(rect_rows))
        self.n[rect_rows] = n_members + np.bincount(
            run_rect, weights=run_hi - run_lo,
            minlength=len(rect_rows)).astype(np.int64)
        self.nnz = int(row_nnz.sum())
        self.width = ix.N + (ix.N + 1 if len(run_rect) else 0)
        if max(self.nnz, self.width - 1) > _INDEX_MAX:
            raise ValueError(f"count plan too large for int32: {self.nnz:,} "
                             f"entries over {self.width:,} columns")
        self._n_obs = ix.N
        self._point_order = point_order if len(run_rect) else None
        # Rows are laid out in ascending size (stable), so one product gives
        # the counts already grouped by size, and the product itself runs
        # faster over runs of equal-length rows.
        self.order = np.argsort(self.n, kind="stable")
        per_size = np.bincount(self.n, minlength=1)
        self.sizes = np.flatnonzero(per_size[1:]) + 1
        self._starts = np.cumsum(per_size)[self.sizes - 1]
        indptr = np.zeros(n_rows + 1, dtype=np.int32)
        np.cumsum(row_nnz[self.order], out=indptr[1:])
        del row_nnz
        free = np.empty(n_rows, dtype=np.int64)
        free[self.order] = indptr[:-1]
        # Pass 2: each entry straight into the CSR arrays; the values'
        # dtype is the product's. Columns ascend in a row: a cell's points,
        # or a rectangle's members, then each run's -1 at column N + lo and
        # +1 at N + hi, so a partial row sum stays in [-N, N].
        self.dtype = np.dtype(np.int16 if ix.N < 1 << 15 else np.int32)
        indices = np.empty(self.nnz, dtype=np.int32)
        data = np.ones(self.nnz, dtype=self.dtype)
        for (first, part), cell in zip(covering, cells):
            _place(indices, data, free[first:first + len(part)], ix.N,
                   lambda at: (cell[at], at, None))
        free = free[rect_rows]
        _place(indices, data, free, len(members),
               lambda at: (owner[at], members[at], None))
        _place(indices, data, free, 2 * len(run_rect), lambda at: (
            run_rect[at >> 1], ix.N + np.where(at & 1, run_hi[at >> 1],
                                               run_lo[at >> 1]),
            2 * (at & 1) - 1))
        self.indptr, self.indices, self.data = indptr, indices, data
        fit = _BLOCK_BYTES // (self.width * self.dtype.itemsize)
        self.worlds = min(_BLOCK_WORLDS, 1 << max(fit.bit_length() - 1, 0))

    def _running_sums(self, block: np.ndarray) -> None:
        """Write the running sums of the labels in rows :N of ``block``,
        taken in (column, y) order, into its rows past N."""
        if self._point_order is not None:
            n_obs = self._n_obs
            sums = block[n_obs + 1:]
            block[n_obs] = 0
            np.take(block[:n_obs], self._point_order, axis=0, out=sums,
                    mode="clip")  # a permutation; "raise" would buffer
            np.cumsum(sums, axis=0, out=sums)

    def extremes(self, block: np.ndarray, out: np.ndarray) -> None:
        """Each size's largest and smallest positive count under each
        labeling of ``block``, band by band.

        ``block`` is (width, B) of ``self.dtype``, 1 <= B <= ``worlds``:
        rows :N hold the labels, one labeling per column, and the running
        sums are written into the rows past N here. ``out`` is
        (2 * len(sizes), B) of ``self.dtype``: the largest count of each
        size, then the smallest. Other shapes or dtypes raise ValueError
        before anything is written. Bands of max(1, _BAND_VALUES // B)
        rows run from the first row of positive size; a size class cut by
        a band's end merges in ``out``.
        """
        worlds = block.shape[1] if block.ndim == 2 else 0
        if (not worlds or block.shape[0] != self.width
                or out.shape != (2 * len(self.sizes), worlds)
                or not block.dtype == out.dtype == self.dtype):
            raise ValueError(
                f"extremes takes a ({self.width}, B) block and a "
                f"({2 * len(self.sizes)}, B) out of {self.dtype}, B >= 1; got "
                f"{block.shape} {block.dtype} and {out.shape} {out.dtype}")
        self._running_sums(block)
        top, bottom = np.split(out, 2)
        top.fill(np.iinfo(self.dtype).min)
        bottom.fill(np.iinfo(self.dtype).max)
        rows, starts = len(self.n), self._starts
        step = max(1, _BAND_VALUES // worlds)
        los = np.arange(starts[0] if len(starts) else rows, rows, step)
        his = np.minimum(los + step, rows)
        # Each band's first size class, and the end of the classes in it.
        firsts = np.searchsorted(starts, los, side="right") - 1
        ends = np.searchsorted(starts, his)
        buf = np.empty(min(step, rows) * worlds, dtype=self.dtype)
        kernel, vecs = ((sparsetools.csr_matvec, ()) if worlds == 1
                        else (sparsetools.csr_matvecs, (worlds,)))
        for lo, hi, c0, c1 in zip(los.tolist(), his.tolist(),
                                  firsts.tolist(), ends.tolist()):
            counts = buf[:(hi - lo) * worlds]
            counts.fill(0)  # the kernel adds to it
            kernel(hi - lo, self.width, *vecs, self.indptr[lo:hi + 1],
                   self.indices, self.data, block, counts)
            counts = counts.reshape(hi - lo, worlds)
            cuts = starts[c0:c1] - lo
            cuts[0] = 0  # a band may start inside a size class
            part = slice(c0, c1)
            np.maximum(top[part], np.maximum.reduceat(counts, cuts),
                       out=top[part])
            np.minimum(bottom[part], np.minimum.reduceat(counts, cuts),
                       out=bottom[part])

    def positives(self, labels: np.ndarray) -> np.ndarray:
        """Positives inside each candidate under a 0/1 labeling of the
        points, in family order, as int64."""
        n_obs = self._n_obs
        if labels.shape != (n_obs,):
            raise ValueError(
                f"labels must have shape ({n_obs},), got {labels.shape}"
            )
        if not ((labels == 0) | (labels == 1)).all():
            raise ValueError("labels must be binary")
        block = np.empty(self.width, dtype=self.dtype)
        block[:n_obs] = labels
        self._running_sums(block)
        counts = np.zeros(len(self.n), dtype=self.dtype)
        sparsetools.csr_matvec(len(self.n), self.width, self.indptr,
                               self.indices, self.data, block, counts)
        out = np.empty(len(self.n), dtype=np.int64)
        out[self.order] = counts
        return out


def as_scanner(ix: SpatialIndex, family) -> CountPlan:
    """The counting plan for a region family.

    Accepts an existing plan (returned untouched), a Partitioning, a
    Rectangles, or a flat list or tuple of them.
    """
    if isinstance(family, CountPlan):
        return family
    return CountPlan(ix, family)

