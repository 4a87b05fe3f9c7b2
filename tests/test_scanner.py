from __future__ import annotations

import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy import sparse

from fairscan import build_index, scanner
from fairscan.geometry import Region
from fairscan.index import SpatialIndex
from fairscan.likelihood import scan_regions
from fairscan.montecarlo import simulate_worlds
from fairscan.regions import (
    Partitioning,
    random_partitionings,
    regular_grid,
    square_scan_set,
)
from fairscan.scanner import _EDGE_BATCH, CountPlan, as_scanner

from conftest import (
    cell_regions,
    make_dataset,
    random_dataset,
    random_region,
    rectangles,
    row_regions,
)
from oracles import (
    oracle_member_matrix,
    oracle_region_counts,
    oracle_region_counts_vec,
)


@pytest.fixture(scope="module")
def data_and_index():
    rng = np.random.default_rng(20)
    d = random_dataset(rng, 400, duplicates=True)
    return d, build_index(d, 12)


def random_labelings(n, count=4, seed=0):
    rng = np.random.default_rng(seed)
    yield np.zeros(n, dtype=np.int8)
    yield np.ones(n, dtype=np.int8)
    for _ in range(count):
        yield rng.integers(0, 2, size=n).astype(np.int8)


class TestPlannedScanner:
    """The rectangle path: interior column runs plus edge-column members."""

    def test_counts_match_range_count(self, data_and_index):
        d, ix = data_and_index
        rng = np.random.default_rng(21)
        regions = [random_region(rng, d.bbox, snap_points=(d.lons, d.lats))
                   for _ in range(60)]
        sc = CountPlan(ix, rectangles(regions))
        assert len(sc.n) == 60
        for labels in random_labelings(d.N, seed=1):
            p = sc.positives(labels)
            for i, r in enumerate(regions):
                n, want_p = oracle_region_counts(r, d.lons, d.lats, labels,
                                                 d.bbox)
                assert sc.n[i] == n
                assert p[i] == want_p

    def test_region_far_outside_bbox(self, data_and_index):
        d, ix = data_and_index
        sc = CountPlan(ix, rectangles([Region(50.0, 50.0, 60.0, 60.0)]))
        assert sc.n[0] == 0
        assert sc.positives(d.outcomes)[0] == 0

    def test_empty_region_list(self, data_and_index):
        d, ix = data_and_index
        sc = CountPlan(ix, [])
        assert len(sc.n) == 0
        assert len(sc.positives(d.outcomes)) == 0
        assert sc.bounds.shape == (0, 4)

    def test_overhanging_square(self, data_and_index):
        d, ix = data_and_index
        big = Region(d.bbox.xmin - 1, d.bbox.ymin - 1,
                     d.bbox.xmax + 1, d.bbox.ymax + 1)
        sc = CountPlan(ix, rectangles([big]))
        assert sc.n[0] == d.N
        assert sc.positives(d.outcomes)[0] == d.P

    def test_large_rectangles_span_build_batches(self, monkeypatch,
                                                 data_and_index):
        # A tiny batch forces the edge-member build through many
        # batches, including rectangles larger than one batch.
        import fairscan.scanner as scanner
        d, ix = data_and_index
        rng = np.random.default_rng(22)
        regions = [random_region(rng, d.bbox, snap_points=(d.lons, d.lats))
                   for _ in range(40)]
        whole = CountPlan(ix, rectangles(regions))
        monkeypatch.setattr(scanner, "_EDGE_BATCH", 7)
        batched = CountPlan(ix, rectangles(regions))
        assert np.array_equal(whole.n, batched.n)
        for labels in random_labelings(d.N, seed=3):
            assert np.array_equal(whole.positives(labels),
                                  batched.positives(labels))


class TestPartitionScanner:
    """Cells of partitionings covering the bbox: one full member row each."""

    def test_agrees_with_range_count_per_cell(self, data_and_index):
        d, ix = data_and_index
        parts = random_partitionings(d.bbox, 5, 2, 6, seed=77)
        sc = CountPlan(ix, parts)
        assert len(sc.n) == sum(len(p) for p in parts)
        p = sc.positives(d.outcomes)
        for i, r in enumerate(row_regions(sc)):
            assert (sc.n[i], p[i]) == oracle_region_counts(
                r, d.lons, d.lats, d.outcomes, d.bbox)

    def test_conservation_per_partitioning(self, data_and_index):
        d, ix = data_and_index
        parts = random_partitionings(d.bbox, 4, 3, 8, seed=5)
        sc = CountPlan(ix, parts)
        pos = sc.positives(d.outcomes)
        offset = 0
        for part in parts:
            cells = len(part)
            assert sc.n[offset:offset + cells].sum() == d.N
            assert pos[offset:offset + cells].sum() == d.P
            offset += cells

    def test_agrees_with_planned_scanner(self, data_and_index):
        d, ix = data_and_index
        parts = random_partitionings(d.bbox, 3, 2, 5, seed=13)
        fast = CountPlan(ix, parts)
        slow = CountPlan(ix, rectangles(
            [c for p in parts for c in cell_regions(p)]))
        assert np.array_equal(fast.n, slow.n)
        assert np.array_equal(fast.bounds, slow.bounds)
        for labels in random_labelings(d.N, seed=2):
            assert np.array_equal(fast.positives(labels),
                                  slow.positives(labels))

    def test_point_exactly_on_inner_bound(self):
        # Points sitting on the midline must land in the upper cell.
        d = make_dataset([0.0, 0.5, 1.0], [0.0, 0.0, 0.0], [1, 1, 0])
        ix = build_index(d, 4)
        part = regular_grid(d.bbox, 2, 1)
        sc = CountPlan(ix, [part])
        assert sc.n.tolist() == [1, 2]
        assert sc.positives(d.outcomes).tolist() == [1, 1]

    def test_inner_bound_on_the_box_max_edge(self):
        # The cell below x = 1, the data's max x, is closed there, as the
        # same rectangle is; the cell above holds the points on it too.
        d = make_dataset([0.25, 0.5, 1.0, 1.0], [0.5, 0.5, 0.5, 0.25],
                         [1, 0, 1, 1])
        ix = build_index(d, 2)
        part = Partitioning([0.0, 1.0, 2.0], [0.0, 2.0])
        for family in (part, rectangles(cell_regions(part))):
            plan = CountPlan(ix, family)
            assert plan.n.tolist() == [4, 2]
            assert plan.positives(d.outcomes).tolist() == [3, 2]

    @pytest.mark.parametrize("seed", range(20))
    def test_cells_count_what_rectangles_count(self, seed):
        # Bounds snapped onto the data's coordinates, its min and max often
        # among them, with repeats (zero-width cells) and bounds past the
        # box; outer bounds sometimes stop short of the box.
        rng = np.random.default_rng(seed)
        n = 300
        levels = np.linspace(0.0, 1.0, 9)
        xs, ys = np.where(rng.random((2, n)) < 0.5,
                          rng.choice(levels, (2, n)), rng.random((2, n)))

        def snapped(vals):
            lo, hi = vals.min(), vals.max()
            inner = rng.choice(np.concatenate((vals[:20], [lo, hi, hi + 0.5])),
                               rng.integers(0, 6))
            outer = (rng.choice([-np.inf, lo - 0.5, lo, vals[0]]),
                     rng.choice([hi, hi + 0.5, np.inf, vals[1]]))
            return np.sort(np.concatenate((outer, inner, inner[:1])))

        d = make_dataset(xs, ys, rng.integers(0, 2, n))
        ix = build_index(d, int(rng.integers(1, 6)))
        part = Partitioning(snapped(xs), snapped(ys))
        cells = CountPlan(ix, part)
        rects = CountPlan(ix, rectangles(cell_regions(part)))
        p = cells.positives(d.outcomes)
        assert np.array_equal(cells.n, rects.n)
        assert np.array_equal(p, rects.positives(d.outcomes))
        assert list(zip(cells.n.tolist(), p.tolist())) == [
            oracle_region_counts(r, d.lons, d.lats, d.outcomes, d.bbox)
            for r in cell_regions(part)]


class TestComposite:
    def test_concatenation_order(self, data_and_index):
        d, ix = data_and_index
        part = regular_grid(d.bbox, 2, 2)
        squares = [Region(0.1, 0.1, 0.4, 0.4), Region(0.5, 0.5, 0.9, 0.9)]
        comp = CountPlan(ix, [part, rectangles(squares)])
        regions = row_regions(comp)
        assert regions == cell_regions(part) + squares
        p = comp.positives(d.outcomes)
        assert len(p) == len(regions) == len(comp.n)
        for i, r in enumerate(regions):
            assert (comp.n[i], p[i]) == oracle_region_counts(
                r, d.lons, d.lats, d.outcomes, d.bbox)

    def test_interleaved_families_keep_order(self, data_and_index):
        d, ix = data_and_index
        grid = regular_grid(d.bbox, 3, 2)
        half = Region(d.bbox.xmin, d.bbox.ymin,
                      (d.bbox.xmin + d.bbox.xmax) / 2, d.bbox.ymax)
        uncovered = regular_grid(half, 2, 2)
        square = Region(0.2, 0.2, 0.6, 0.7, center_id="c0")
        family = [rectangles([square]), grid, rectangles([square]), uncovered,
                  grid]
        plan = CountPlan(ix, family)
        want = ([square] + cell_regions(grid) + [square]
                + cell_regions(uncovered) + cell_regions(grid))
        assert row_regions(plan) == want
        assert plan.center_ids[0] == "c0" and plan.center_ids[1] is None
        for labels in random_labelings(d.N, seed=4):
            p = plan.positives(labels)
            for i, r in enumerate(want):
                assert (plan.n[i], p[i]) == oracle_region_counts(
                    r, d.lons, d.lats, labels, d.bbox)

    def test_counts_past_narrow_integer_range(self):
        # 70,000 points in one index column: the covering cell's row and the
        # rectangle's edge-member row each sum more than 32,767 labels.
        rng = np.random.default_rng(23)
        d = random_dataset(rng, 70_000)
        ix = build_index(d, 1)
        labels = (rng.random(d.N) < 0.9).astype(np.int8)
        cell = regular_grid(d.bbox, 1, 1)
        rect = Region(0.1, 0.0, 0.9, 1.0)
        plan = CountPlan(ix, [cell, rectangles([rect])])
        p = plan.positives(labels)
        assert p.dtype == np.int64
        for i, region in enumerate(cell_regions(cell) + [rect]):
            n_i, p_i = oracle_region_counts(region, d.lons, d.lats, labels,
                                            d.bbox)
            assert p_i > 32_767
            assert (plan.n[i], p[i]) == (n_i, p_i)


class TestSizeOrder:
    """Matrix rows in ascending size; positives still in family order."""

    @pytest.fixture(scope="class")
    def mixed(self, data_and_index):
        d, ix = data_and_index
        grid = regular_grid(d.bbox, 3, 2)
        half = Region(d.bbox.xmin, d.bbox.ymin,
                      (d.bbox.xmin + d.bbox.xmax) / 2, d.bbox.ymax)
        uncovered = regular_grid(half, 2, 2)
        square = Region(0.2, 0.2, 0.6, 0.7, center_id="c0")
        empty = Region(50.0, 50.0, 60.0, 60.0)
        whole = Region(d.bbox.xmin - 1, d.bbox.ymin - 1,
                       d.bbox.xmax + 1, d.bbox.ymax + 1)
        # The repeated square and grid give tied sizes across row kinds.
        family = [rectangles([square]), grid,
                  rectangles([empty, whole, square]), uncovered, grid]
        regions = ([square] + cell_regions(grid) + [empty, whole, square]
                   + cell_regions(uncovered) + cell_regions(grid))
        return d, CountPlan(ix, family), regions

    def test_order_is_stable_argsort_of_n(self, mixed):
        d, plan, regions = mixed
        assert np.array_equal(plan.order, np.argsort(plan.n, kind="stable"))
        assert plan.n.min() == 0 and plan.n.max() == d.N
        assert len(np.unique(plan.n)) < len(regions)

    def test_positives_in_family_order(self, mixed):
        d, plan, regions = mixed
        for labels in random_labelings(d.N, seed=5):
            p = plan.positives(labels)
            assert p.dtype == np.int64
            for i, region in enumerate(regions):
                want = oracle_region_counts(region, d.lons, d.lats, labels,
                                            d.bbox)
                assert (plan.n[i], p[i]) == want

    def test_extremes_are_positives_by_size(self, mixed):
        d, plan, _ = mixed
        labelings = np.column_stack(list(random_labelings(d.N, seed=6)))
        block = np.zeros((plan.width, labelings.shape[1]), dtype=plan.dtype)
        block[:d.N] = labelings
        out = np.empty((2 * len(plan.sizes), labelings.shape[1]),
                       dtype=plan.dtype)
        plan.extremes(block, out)
        assert np.array_equal(out, extremes_of_positives(plan, labelings))

    def test_positives_check_labels(self, mixed):
        d, plan, _ = mixed
        with pytest.raises(ValueError, match="shape"):
            plan.positives(np.zeros(d.N + 1, dtype=np.int8))
        with pytest.raises(ValueError, match="binary"):
            plan.positives(np.full(d.N, 2, dtype=np.int8))


class TestAsScanner:
    def test_passthrough(self, data_and_index):
        d, ix = data_and_index
        sc = CountPlan(ix, rectangles([d.bbox]))
        assert as_scanner(ix, sc) is sc

    def test_single_partitioning(self, data_and_index):
        d, ix = data_and_index
        sc = as_scanner(ix, regular_grid(d.bbox, 3, 3))
        assert isinstance(sc, CountPlan)
        assert len(sc.n) == 9
        assert sc.n.sum() == d.N

    def test_partitioning_list(self, data_and_index):
        d, ix = data_and_index
        parts = random_partitionings(d.bbox, 2, 2, 3, seed=1)
        sc = as_scanner(ix, parts)
        assert isinstance(sc, CountPlan)
        assert len(sc.n) == sum(len(p) for p in parts)

    def test_plain_regions(self, data_and_index):
        d, ix = data_and_index
        sc = as_scanner(ix, rectangles([Region(0, 0, 0.5, 0.5)]))
        assert isinstance(sc, CountPlan)
        assert sc.n[0] == oracle_region_counts(
            Region(0, 0, 0.5, 0.5), d.lons, d.lats, d.outcomes, d.bbox)[0]

    @pytest.mark.parametrize("family", [
        [Region(0, 0, 0.5, 0.5)], Region(0, 0, 0.5, 0.5),
        [[Region(0, 0, 0.5, 0.5)]], [rectangles([]), [rectangles([])]],
    ], ids=["region-list", "region", "nested-list", "nested-rectangles"])
    def test_regions_rejected(self, data_and_index, family):
        d, ix = data_and_index
        with pytest.raises(TypeError, match="not a Partitioning, a Rectangles"):
            as_scanner(ix, family)

    def test_center_ids_array(self, data_and_index):
        d, ix = data_and_index
        sc = as_scanner(ix, [regular_grid(d.bbox, 2, 1), rectangles(
            [Region(0, 0, 0.5, 0.5, center_id="c7"), Region(0, 0, 1, 1)])])
        assert isinstance(sc.center_ids, np.ndarray)
        assert sc.center_ids.tolist() == [None, None, "c7", None]

    def test_noncovering_partitioning_falls_back(self, data_and_index):
        d, ix = data_and_index
        half = Region(d.bbox.xmin, d.bbox.ymin,
                      (d.bbox.xmin + d.bbox.xmax) / 2, d.bbox.ymax)
        bad = regular_grid(half, 2, 2)
        sc = as_scanner(ix, [bad])
        assert isinstance(sc, CountPlan)
        p = sc.positives(d.outcomes)
        for i, r in enumerate(cell_regions(bad)):
            assert (sc.n[i], p[i]) == oracle_region_counts(
                r, d.lons, d.lats, d.outcomes, d.bbox)


class TestRankSearch:
    """A rectangle's run in a column is found by y rank: ties on its y
    bounds, infinite bounds and the box's closed max edge."""

    @pytest.mark.parametrize("columns", [1, 2, None])
    def test_ties_on_y_bounds(self, columns):
        rng = np.random.default_rng(33)
        n = 600
        levels = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        xs = np.concatenate(([0.0, 1.0], rng.random(n - 2)))
        ys = np.where(rng.random(n) < 0.7, rng.choice(levels, n),
                      rng.random(n))
        d = make_dataset(xs, ys, rng.integers(0, 2, n))
        ix = build_index(d, columns)
        inf = np.inf
        regions = [Region(x0, y0, x1, y1)
                   for x0, x1 in ((0.0, 1.0), (0.1, 0.9), (0.3, 0.7),
                                  (-inf, 0.6), (0.45, inf))
                   for y0, y1 in ((0.25, 0.75), (0.25, 1.0), (0.5, 1.0),
                                  (0.0, 0.25), (-inf, 0.5), (0.75, inf),
                                  (-inf, inf), (0.5, 0.5), (1.0, 1.0))]
        plan = CountPlan(ix, rectangles(regions))
        p = plan.positives(d.outcomes)
        for i, region in enumerate(regions):
            want = oracle_region_counts(region, d.lons, d.lats, d.outcomes,
                                        d.bbox)
            assert (plan.n[i], p[i]) == want, region
        # The zero-height row on the max edge holds every point on it.
        assert plan.n[regions.index(Region(0.0, 1.0, 1.0, 1.0))] == (
            ys == 1.0).sum() > 10


class TestPlanMemory:
    def test_squares_plan_grows_linearly(self):
        # 2,000 squares as in the planted benchmark. Entries: each point of
        # a square's first and last index column inside it, plus at most
        # two per interior index column of a square.
        squares = square_scan_set(np.random.default_rng(1).random((100, 2)),
                                  np.linspace(0.02, 0.4, 20))
        peaks = []
        for n in (100_000, 200_000):
            ix = build_index(random_dataset(np.random.default_rng(0), n))
            tracemalloc.start()
            try:
                plan = CountPlan(ix, squares)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert plan.nnz <= plan.n.sum() + 2 * len(squares) * ix.gx
            # The build's int32 CSR arrays, its int64 edge members and runs,
            # and the per-point order and sort keys take under 48 bytes per
            # point and per entry.
            assert peak < 48 * (n + plan.nnz)
            peaks.append(peak)
        assert peaks[1] <= 2.05 * peaks[0]

    def test_refuses_a_plan_past_int32(self, data_and_index, monkeypatch):
        # Entries past the limit would wrap indptr's int32 running sum, and
        # columns past it indices' int32 values.
        d, ix = data_and_index
        square = rectangles([Region(0.1, 0.1, 0.6, 0.9)])
        family = [regular_grid(d.bbox, 3, 2), regular_grid(d.bbox, 2, 2),
                  square]
        nnz = CountPlan(ix, family).nnz
        width = CountPlan(ix, square).width
        assert CountPlan(ix, square).nnz < width - 1 < nnz
        monkeypatch.setattr(scanner, "_INDEX_MAX", nnz - 1)
        with pytest.raises(ValueError, match=f"int32: {nnz:,} entries"):
            CountPlan(ix, family)
        monkeypatch.setattr(scanner, "_INDEX_MAX", width - 2)
        with pytest.raises(ValueError, match=f"over {width:,} columns"):
            CountPlan(ix, square)
        monkeypatch.setattr(scanner, "_INDEX_MAX", width - 1)
        assert CountPlan(ix, square).width == width

    def test_random_partitionings_plan_grows_linearly(self):
        # 100 random partitionings, as in the split benchmark, so nearly
        # every entry is a point of a covering partitioning's cell.
        peaks = []
        for n in (100_000, 200_000):
            d = random_dataset(np.random.default_rng(0), n)
            ix = build_index(d)
            parts = random_partitionings(d.bbox, 100, 10, 40, seed=1)
            tracemalloc.start()
            try:
                plan = CountPlan(ix, parts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert plan.nnz == 100 * n
            # Kept: an int32 column and value per entry. While building:
            # each point's uint16 cell in every partitioning, a few arrays
            # per candidate and per point, and the scratch of one batch of
            # _EDGE_BATCH points.
            assert peak < (12 * plan.nnz + 64 * len(plan.n)
                           + 128 * _EDGE_BATCH)
            peaks.append(peak)
        assert peaks[1] <= 2.05 * peaks[0]


def mixed_family(bbox):
    """Every family kind: a grid, random partitionings, squares, a
    partitioning that does not cover the box, and file rectangles that
    overhang the box, miss it, have zero width or reach its max edges."""
    w, h = bbox.xmax - bbox.xmin, bbox.ymax - bbox.ymin
    half = Region(bbox.xmin, bbox.ymin, bbox.xmin + w / 2, bbox.ymax)
    centers = np.random.default_rng(24).random((12, 2)) * (w, h)
    centers += (bbox.xmin, bbox.ymin)
    file_rows = rectangles([
        Region(bbox.xmin - w, bbox.ymin + h / 4, bbox.xmin + w / 2,
               bbox.ymax + h),
        Region(bbox.xmax + 1, bbox.ymin, bbox.xmax + 2, bbox.ymax),
        Region(bbox.xmin + w / 3, bbox.ymin, bbox.xmin + w / 3, bbox.ymax),
        Region(bbox.xmin + w / 8, bbox.ymin + h / 8, bbox.xmax, bbox.ymax),
    ])
    return [regular_grid(bbox, 7, 5),
            *random_partitionings(bbox, 3, 2, 12, seed=25),
            square_scan_set(centers, [0.05 * w, 0.3 * w, 0.8 * w]),
            regular_grid(half, 2, 3), file_rows]


def member_matrix(plan):
    """The plan's member matrix as a scipy CSR array over its own arrays."""
    return sparse.csr_array((plan.data, plan.indices, plan.indptr),
                            shape=(len(plan.n), plan.width))


def assert_matches_reference(ix, family):
    plan = CountPlan(ix, family)
    want, n = oracle_member_matrix(ix, family)
    got = member_matrix(plan)
    assert np.array_equal(plan.n, n)
    assert got.shape == want.shape and plan.nnz == want.nnz
    for name in ("indptr", "indices", "data"):
        assert getattr(plan, name).dtype == getattr(want, name).dtype, name
        assert np.array_equal(getattr(plan, name), getattr(want, name)), name
    assert got.has_sorted_indices and want.has_sorted_indices
    return plan


_LATTICE = [i / 8 for i in range(9)]


@st.composite
def _plans(draw):
    """Points on a 1/8 lattice (duplicates, inner bounds, the box's max
    edges) and a mixed family, built in batches as small as 1."""
    n = draw(st.integers(2, 60))
    coord = st.sampled_from(_LATTICE) | st.floats(0.0, 1.0)
    xs = [0.0, 1.0] + draw(st.lists(coord, min_size=n - 2, max_size=n - 2))
    ys = [0.0, 1.0] + draw(st.lists(coord, min_size=n - 2, max_size=n - 2))
    file_coord = st.sampled_from([-0.5, 0.0, 0.125, 0.5, 0.875, 1.0, 1.5])
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        x0, x1 = sorted(draw(st.lists(file_coord, min_size=2, max_size=2)))
        y0, y1 = sorted(draw(st.lists(file_coord, min_size=2, max_size=2)))
        rows.append(Region(x0, y0, x1, y1))
    return dict(
        xs=xs, ys=ys,
        grid=(draw(st.sampled_from([1, 2, 4, 8])),
              draw(st.sampled_from([1, 2, 4, 8]))),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        centers=draw(st.lists(st.tuples(st.sampled_from(_LATTICE),
                                        st.sampled_from(_LATTICE)),
                              max_size=3)),
        sides=draw(st.lists(st.sampled_from([0.125, 0.3, 0.5, 2.0]),
                            min_size=1, max_size=3)),
        rows=rows,
        resolution=draw(st.sampled_from([1, 3, 8])),
        batch=draw(st.sampled_from([1, 2, 7, _EDGE_BATCH])),
    )


class TestInPlaceBuild:
    """The CSR arrays equal those of the (row, column, value) triple build."""

    def test_mixed_family(self, data_and_index):
        d, ix = data_and_index
        assert_matches_reference(ix, mixed_family(d.bbox))

    def test_across_batch_seams(self):
        # 150,000 points: each of the four covering partitionings takes
        # three batches of points, and on a coarse index the rectangles'
        # edge members take more than two batches of entries.
        d = random_dataset(np.random.default_rng(26), 150_000,
                           duplicates=True)
        ix = build_index(d, 20)
        plan = assert_matches_reference(ix, mixed_family(d.bbox))
        assert ix.N > 2 * _EDGE_BATCH
        assert plan.nnz - 4 * ix.N > 2 * _EDGE_BATCH

    @pytest.mark.parametrize("mx", [256, 257])
    def test_cell_dtype_limit(self, mx):
        # 256 x 256 cells is the most a uint16 cell holds; the point on the
        # box's max corner lands in the last one.
        rng = np.random.default_rng(31)
        xs, ys = rng.random(3_000), rng.random(3_000)
        xs[:2] = ys[:2] = (0.0, 1.0)
        d = make_dataset(xs, ys, rng.integers(0, 2, 3_000))
        assert_matches_reference(build_index(d),
                                 [regular_grid(d.bbox, mx, 256)])

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_plans())
    def test_matches_triple_build(self, case):
        d = make_dataset(case["xs"], case["ys"], [0] * len(case["xs"]))
        ix = build_index(d, case["resolution"])
        family = [regular_grid(d.bbox, *case["grid"]),
                  *random_partitionings(d.bbox, 2, 1, 3, seed=case["seed"]),
                  square_scan_set(np.array(case["centers"]).reshape(-1, 2),
                                  case["sides"]),
                  rectangles(case["rows"])]
        with mock.patch.object(scanner, "_EDGE_BATCH", case["batch"]):
            assert_matches_reference(ix, family)


class TestBandKernel:
    """extremes calls scipy's private CSR kernels on row bands of the
    plan's arrays; a change to their calling convention fails here."""

    @pytest.mark.parametrize("worlds", [1, 3, 16, 32])
    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_bands_equal_the_csr_product(self, data_and_index, monkeypatch,
                                         worlds, rows):
        d, ix = data_and_index
        monkeypatch.setattr(scanner, "_BLOCK_WORLDS", worlds)
        if rows is not None:
            monkeypatch.setattr(scanner, "_BAND_VALUES", rows * worlds)
        plan = CountPlan(ix, mixed_family(d.bbox))
        assert plan.worlds == worlds
        block = np.zeros((plan.width, worlds), dtype=plan.dtype)
        block[:d.N] = np.random.default_rng(32).integers(0, 2, (d.N, worlds))
        out = np.empty((2 * len(plan.sizes), worlds), dtype=plan.dtype)
        plan.extremes(block, out)
        # The running sums are in the block now; the rows of size 0 lead.
        want = member_matrix(plan).astype(np.int64) @ block.astype(np.int64)
        starts = np.searchsorted(plan.n[plan.order], plan.sizes)
        assert not want[:starts[0]].any()
        assert np.array_equal(out, np.concatenate([
            reduce.reduceat(want, starts) for reduce in (np.maximum,
                                                          np.minimum)]))

    def test_bands_are_cut_at_call_time(self, data_and_index, monkeypatch):
        # The band cap is read by each call, for the block it is given, so
        # a cap set after the plan is built still holds.
        d, ix = data_and_index
        plan = CountPlan(ix, mixed_family(d.bbox))
        kernels = scanner.sparsetools
        calls = []

        def spy(name):
            def kernel(n_row, *args):
                calls.append(n_row)
                getattr(kernels, name)(n_row, *args)
            return kernel

        monkeypatch.setattr(scanner, "sparsetools", SimpleNamespace(
            csr_matvec=spy("csr_matvec"), csr_matvecs=spy("csr_matvecs")))
        sizes = plan.n[plan.order]
        starts = np.searchsorted(sizes, plan.sizes)
        rng = np.random.default_rng(33)
        inside = 0
        for worlds in (1, 3, plan.worlds):
            monkeypatch.setattr(scanner, "_BAND_VALUES", 7 * worlds)
            cap = max(1, scanner._BAND_VALUES // worlds)
            block = np.zeros((plan.width, worlds), dtype=plan.dtype)
            block[:d.N] = rng.integers(0, 2, (d.N, worlds))
            out = np.empty((2 * len(plan.sizes), worlds), dtype=plan.dtype)
            calls.clear()
            plan.extremes(block, out)
            assert max(calls) <= cap and set(calls[:-1]) <= {cap}
            assert sum(calls) == len(plan.n) - starts[0]
            los = starts[0] + np.cumsum(calls[:-1])
            inside += int((sizes[los] == sizes[los - 1]).sum())
            want = member_matrix(plan).astype(np.int64) @ block.astype(
                np.int64)
            assert np.array_equal(out, np.concatenate([
                reduce.reduceat(want, starts) for reduce in (np.maximum,
                                                              np.minimum)]))
        assert inside  # some band starts inside a size class


def extremes_of_positives(plan, labelings):
    """Each size's largest positives, then each size's smallest, under the
    labelings (one per column), from ``positives``."""
    p = np.column_stack([plan.positives(labels) for labels in labelings.T])
    by_size = [p[plan.n == size] for size in plan.sizes]
    return np.array([c.max(axis=0) for c in by_size]
                    + [c.min(axis=0) for c in by_size]
                    ).reshape(-1, labelings.shape[1])


class TestExtremes:
    """extremes against each size's max and min of positives, at both count
    widths, with a one-row band cap that splits every size class of two or
    more candidates across bands."""

    FAMILIES = {
        "covering": lambda bbox: random_partitionings(bbox, 3, 2, 6,
                                                      seed=60) * 2,
        "runs": lambda bbox: [square_scan_set(
            np.random.default_rng(61).random((8, 2)), [0.2, 0.5])] * 2,
        "mixed": lambda bbox: mixed_family(bbox) * 2,
        "single": lambda bbox: [rectangles([Region(0.2, 0.3, 0.7, 0.6)])],
        "empty": lambda bbox: [rectangles([Region(2.0, 2.0, 3.0, 3.0),
                                           Region(-3.0, 0.0, -2.0, 1.0)])],
    }

    @pytest.fixture(scope="class", params=[32_767, 32_768])
    def wide(self, request):
        d = random_dataset(np.random.default_rng(62), request.param)
        return d, build_index(d)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_matches_positives(self, wide, monkeypatch, kind):
        d, ix = wide
        monkeypatch.setattr(scanner, "_BAND_VALUES", 1)
        plan = CountPlan(ix, self.FAMILIES[kind](d.bbox))
        assert plan.dtype == (np.int16 if d.N < 1 << 15 else np.int32)
        assert (plan.width == d.N) == (kind in ("covering", "empty"))
        if kind in ("covering", "runs", "mixed"):
            # Some size class spans more than one one-row band.
            assert np.bincount(plan.n)[plan.sizes].max() > 1
        else:
            assert len(plan.sizes) == (kind == "single")
        rng = np.random.default_rng(63)
        for worlds in (1, 3, plan.worlds):
            labelings = (rng.random((d.N, worlds)) < 0.5).astype(np.int8)
            labelings[:, 0] = 1  # counts and running sums up to N
            block = np.empty((plan.width, worlds), dtype=plan.dtype)
            block[:d.N] = labelings
            out = np.empty((2 * len(plan.sizes), worlds), dtype=plan.dtype)
            plan.extremes(block, out)
            assert np.array_equal(out, extremes_of_positives(plan, labelings))


class TestExtremesRefusesBadShapes:
    """extremes trusts nothing about its arguments: a block that is not
    (width, B >= 1) of the plan's dtype, or an ``out`` that is not
    (2 * len(sizes), B) of it, raises before anything is written, where
    the kernel would read past a short block."""

    # (block shape, block dtype, out shape, out dtype) from the plan's
    # width w, its 2 * len(sizes) extremes s and its dtype t.
    BAD = {
        "short": lambda w, s, t: ((10, 3), t, (s, 3), t),
        "long": lambda w, s, t: ((w + 1, 3), t, (s, 3), t),
        "flat": lambda w, s, t: ((w,), t, (s, 1), t),
        "no worlds": lambda w, s, t: ((w, 0), t, (s, 0), t),
        "block dtype": lambda w, s, t: ((w, 3), np.int64, (s, 3), t),
        "out rows": lambda w, s, t: ((w, 3), t, (s // 2, 3), t),
        "out worlds": lambda w, s, t: ((w, 3), t, (s, 4), t),
        "out dtype": lambda w, s, t: ((w, 3), t, (s, 3), np.int8),
    }

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("kind", ["covering", "runs"])
    def test_refuses(self, data_and_index, kind, bad):
        d, ix = data_and_index
        plan = CountPlan(ix, regular_grid(d.bbox, 3, 3) if kind == "covering"
                         else square_scan_set(np.array([[0.5, 0.5]]),
                                              [0.3, 0.6]))
        assert (plan.width == d.N) == (kind == "covering")
        shape, dtype, out_shape, out_dtype = self.BAD[bad](
            plan.width, 2 * len(plan.sizes), plan.dtype)
        block, out = np.ones(shape, dtype), np.zeros(out_shape, out_dtype)
        with pytest.raises(ValueError, match="extremes takes"):
            plan.extremes(block, out)
        assert (block == 1).all() and not out.any()


def per_point_arrays(ix):
    return {name for name, value in vars(ix).items()
            if isinstance(value, np.ndarray) and len(value) == ix.N}


class TestLazyBucketing:
    """Only rectangle rows order the points by column, and the plan, not
    the index, keeps that order."""

    @pytest.mark.parametrize("kind", ["grid", "random"])
    def test_partitioning_audit_does_not_bucket(self, kind):
        d = random_dataset(np.random.default_rng(27), 3_000)
        ix = build_index(d)
        family = ([regular_grid(d.bbox, 10, 5)] if kind == "grid"
                  else random_partitionings(d.bbox, 5, 2, 8, seed=28))
        plan = as_scanner(ix, family)
        scan_regions(ix, plan)
        simulate_worlds(ix, plan, d.rho, 20, seed=0)
        assert plan._point_order is None and plan.width == d.N
        assert per_point_arrays(ix) == {"xs", "ys", "labels"}

    def test_rectangles_bucket(self, data_and_index):
        d, _ = data_and_index
        ix = build_index(d, 12)
        plan = as_scanner(ix, rectangles([Region(0.1, 0.1, 0.8, 0.9)]))
        assert len(plan._point_order) == d.N
        assert per_point_arrays(ix) == {"xs", "ys", "labels"}


class TestLargeN:
    def test_sampled_candidates_on_a_million_points(self):
        # A lattice share of the points sits on grid bounds, index column
        # edges and the box's max edges; squares straddle index columns, and
        # some reach or overhang the max edges.
        rng = np.random.default_rng(29)
        n = 1_000_000
        xs, ys = rng.random(n), rng.random(n)
        snap = rng.random(n) < 0.05
        xs[snap] = rng.integers(0, 101, snap.sum()) / 100
        ys[snap] = rng.integers(0, 51, snap.sum()) / 50
        xs[:2] = ys[:2] = (0.0, 1.0)
        labels = (rng.random(n) < 0.3).astype(np.int8)
        bbox = Region(0.0, 0.0, 1.0, 1.0)
        ix = SpatialIndex(xs, ys, labels, 1000)
        centers = np.vstack((rng.random((40, 2)),
                             [[1.0, 1.0], [0.75, 0.75], [0.99, 0.4]]))
        family = [regular_grid(bbox, 100, 50),
                  *random_partitionings(bbox, 2, 10, 40, seed=30),
                  square_scan_set(centers, [0.0123, 0.05, 0.5])]
        plan = CountPlan(ix, family)
        positives = plan.positives(labels)
        sizes = [len(f) for f in family]
        ends = np.cumsum(sizes)
        picks = np.concatenate((
            rng.choice(sizes[0], 100, replace=False),
            rng.choice(np.arange(ends[0], ends[2]), 100, replace=False),
            ends[2] + rng.choice(sizes[3], 100, replace=False)))
        regions = row_regions(plan)
        for i in picks:
            want = oracle_region_counts_vec(regions[i], xs, ys, labels, bbox)
            assert (plan.n[i], positives[i]) == want
