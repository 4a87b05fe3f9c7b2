from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fairscan import build_index, scanner
from fairscan.geometry import Region
from fairscan.index import SpatialIndex
from fairscan.likelihood import scan_regions
from fairscan.montecarlo import simulate_worlds
from fairscan.regions import (
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
        for i in range(len(sc.n)):
            assert (sc.n[i], p[i]) == oracle_region_counts(
                sc.region(i), d.lons, d.lats, d.outcomes, d.bbox)

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


class TestComposite:
    def test_concatenation_order(self, data_and_index):
        d, ix = data_and_index
        part = regular_grid(d.bbox, 2, 2)
        squares = [Region(0.1, 0.1, 0.4, 0.4), Region(0.5, 0.5, 0.9, 0.9)]
        comp = CountPlan(ix, [part, rectangles(squares)])
        regions = [comp.region(i) for i in range(len(comp.n))]
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
        assert [plan.region(i) for i in range(len(plan.n))] == want
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

    def test_positives_are_count_block_in_family_order(self, mixed):
        d, plan, _ = mixed
        for labels in random_labelings(d.N, seed=6):
            block = np.zeros(plan.width, dtype=plan.dtype)
            block[:d.N] = labels
            by_size = np.zeros(len(plan.n), dtype=np.int64)
            for lo, counts in plan.count_block(block):
                by_size[lo:lo + len(counts)] = counts
            assert np.array_equal(by_size, plan.positives(labels)[plan.order])

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

    @pytest.mark.parametrize("gx", [3, 16])
    def test_points_above_the_box(self, gx):
        # An index over a box that stops short of the data's top: a
        # rectangle reaching the box's max edge holds the points up to its
        # own ymax in its interior columns too, not every point above ymin.
        rng = np.random.default_rng(34)
        n = 400
        xs = rng.random(n)
        ys = rng.choice(np.array([0.0, 0.5, 0.8, 0.9, 1.0]), n)
        labels = rng.integers(0, 2, n)
        box = Region(0.0, 0.0, 1.0, 0.8)
        ix = SpatialIndex(xs, ys, labels, box, gx)
        regions = [Region(x0, y0, x1, y1)
                   for x0, x1 in ((0.0, 1.0), (0.2, 0.7))
                   for y0, y1 in ((0.5, 0.8), (0.5, 0.9), (0.0, 1.0),
                                  (0.8, 0.8), (0.9, np.inf))]
        plan = CountPlan(ix, rectangles(regions))
        p = plan.positives(labels)
        for i, region in enumerate(regions):
            want = oracle_region_counts(region, xs, ys, labels, box)
            assert (plan.n[i], p[i]) == want, region


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


def assert_matches_reference(ix, family):
    plan = CountPlan(ix, family)
    want, n = oracle_member_matrix(ix, family)
    got = plan._members
    assert np.array_equal(plan.n, n)
    assert got.shape == want.shape and plan.nnz == want.nnz
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
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
    """count_block calls scipy's private CSR kernels on row bands of the
    plan's arrays; a change to their calling convention fails here."""

    @pytest.mark.parametrize("worlds", [1, 3, 16, 32])
    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_bands_equal_the_csr_product(self, data_and_index, monkeypatch,
                                         worlds, rows):
        d, ix = data_and_index
        plan = CountPlan(ix, mixed_family(d.bbox))
        if rows is not None:
            monkeypatch.setattr(scanner, "_BAND_VALUES", rows * worlds)
        cap = max(1, scanner._BAND_VALUES // worlds)
        shape = (plan.width,) if worlds == 1 else (plan.width, worlds)
        block = np.zeros(shape, dtype=plan.dtype)
        block[:d.N] = np.random.default_rng(32).integers(
            0, 2, (d.N,) + shape[1:])
        got = np.zeros((len(plan.n),) + shape[1:], dtype=np.int64)
        lo_next = plan.starts[0]
        for lo, counts in plan.count_block(block):
            assert counts.dtype == plan.dtype
            assert lo == lo_next and 0 < len(counts) <= cap
            got[lo:lo + len(counts)] = counts
            lo_next = lo + len(counts)
        assert lo_next == len(plan.n)
        # The running sums are in the block now; the rows of size 0 lead.
        want = plan._members.astype(np.int64) @ block.astype(np.int64)
        assert np.array_equal(got, want)
        assert not got[:plan.starts[0]].any()
        # A band ends inside a size class only where the class is longer
        # than the cap.
        ends = np.array([lo for lo, _ in plan.bands(worlds)[1:]], dtype=int)
        sizes = plan.n[plan.order]
        inside = ends[sizes[ends] == sizes[ends - 1]]
        runs = np.diff([*plan.starts, len(plan.n)])
        longest = runs[np.searchsorted(plan.starts, inside, side="right") - 1]
        assert (longest > cap).all()


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
        ix = SpatialIndex(xs, ys, labels, bbox, 1000)
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
        for i in picks:
            want = oracle_region_counts_vec(plan.region(i), xs, ys, labels,
                                            bbox)
            assert (plan.n[i], positives[i]) == want
