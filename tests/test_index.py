from __future__ import annotations

import numpy as np
import pytest

from fairscan import CountPlan, build_index
from fairscan.geometry import Region
from fairscan.index import default_resolution
from fairscan.regions import regular_grid

from conftest import (
    cell_regions,
    make_dataset,
    plan_counts,
    random_dataset,
    random_region,
    rectangles,
)
from oracles import oracle_region_counts


def assert_matches_bruteforce(ix, d, region):
    got = plan_counts(ix, region)
    want = oracle_region_counts(region, d.lons, d.lats, d.outcomes, d.bbox)
    assert got == want, f"mismatch on {region.bounds()}"


class TestBuild:
    def test_single_cell_grid(self):
        d = make_dataset(np.arange(10) / 10.0, np.zeros(10), np.ones(10))
        ix = build_index(d, (1, 1))
        assert (ix.gx, ix.gy) == (1, 1)
        assert ix.start.tolist() == [0, 10]

    def test_cell_conservation(self):
        rng = np.random.default_rng(0)
        d = random_dataset(rng, 500, duplicates=True)
        ix = build_index(d, (16, 16))
        assert ((ix.cell_id >= 0) & (ix.cell_id < 16 * 16)).all()
        assert np.diff(ix.start).sum() == d.N
        assert np.bincount(ix.cell_id[d.outcomes != 0],
                           minlength=16 * 16).sum() == d.P
        assert (np.diff(ix.cell_id[ix.order]) >= 0).all()

    def test_default_resolution(self):
        assert default_resolution(100) == 10
        assert default_resolution(101) == 11
        assert default_resolution(10**9) == 1024

    def test_bad_resolution(self):
        d = make_dataset([0.0, 1.0], [0.0, 1.0], [0, 1])
        with pytest.raises(ValueError):
            build_index(d, (0, 4))

    def test_too_many_cells_rejected(self):
        # Memory follows gx*gy, so the cell count is capped at 1024**2.
        d = make_dataset([0.0, 1.0], [0.0, 1.0], [0, 1])
        with pytest.raises(ValueError, match="exceeds 1048576 cells"):
            build_index(d, (2048, 2048))
        assert build_index(d, (2**20, 1)).start.shape == (2**20 + 1,)

    def test_underflow_resolution_rejected(self):
        # Cell extent rounds to zero: the index cannot bucket such a grid.
        d = make_dataset([0.0, 1e-320], [0.0, 1.0], [0, 1])
        with pytest.raises(ValueError, match="underflow"):
            build_index(d, (10**6, 1))

    def test_zero_extent_axis_ok(self):
        d = make_dataset([2.0, 2.0, 2.0], [0.0, 0.5, 1.0], [1, 0, 1])
        ix = build_index(d, (8, 8))
        assert plan_counts(ix, d.bbox) == (3, 2)


class TestRangeCount:
    def test_whole_bbox(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            d = random_dataset(rng, 200, duplicates=trial % 2 == 0)
            ix = build_index(d)
            assert plan_counts(ix, d.bbox) == (d.N, d.P)

    def test_disjoint_region(self):
        rng = np.random.default_rng(2)
        d = random_dataset(rng, 50)
        ix = build_index(d)
        assert plan_counts(ix, Region(10.0, 10.0, 11.0, 11.0)) == (0, 0)

    def test_matches_bruteforce_random_queries(self):
        rng = np.random.default_rng(3)
        for trial in range(4):
            d = random_dataset(rng, 300, duplicates=trial >= 2)
            ix = build_index(d, (13, 7))
            snap = (d.lons, d.lats)
            for _ in range(100):
                assert_matches_bruteforce(
                    ix, d, random_region(rng, d.bbox, snap_points=snap))

    def test_degenerate_query_rectangles(self):
        rng = np.random.default_rng(4)
        d = random_dataset(rng, 120)
        ix = build_index(d, (6, 6))
        x = float(d.lons[5])
        y = float(d.lats[5])
        for region in [
            Region(x, d.bbox.ymin, x, d.bbox.ymax),       # zero width
            Region(d.bbox.xmin, y, d.bbox.xmax, y),       # zero height
            Region(x, y, x, y),                            # single point
        ]:
            assert_matches_bruteforce(ix, d, region)

    def test_resolution_independence(self):
        rng = np.random.default_rng(5)
        d = random_dataset(rng, 400, duplicates=True)
        coarse = build_index(d, (1, 1))
        mid = build_index(d, (16, 16))
        fine = build_index(d, (256, 256))
        for _ in range(120):
            r = random_region(rng, d.bbox, snap_points=(d.lons, d.lats))
            a, b, c = (plan_counts(ix, r) for ix in (coarse, mid, fine))
            assert a == b == c

    def test_partitioning_additivity(self):
        rng = np.random.default_rng(6)
        d = random_dataset(rng, 250, duplicates=True)
        ix = build_index(d, (9, 9))
        part = regular_grid(d.bbox, 7, 5)
        counts = [plan_counts(ix, cell) for cell in cell_regions(part)]
        assert sum(n for n, _ in counts) == d.N
        assert sum(p for _, p in counts) == d.P


class TestWithLabels:
    """Counting the same regions under labelings other than the observed one."""

    def test_identity_relabel(self):
        rng = np.random.default_rng(7)
        d = random_dataset(rng, 150)
        ix = build_index(d, (8, 8))
        regions = [random_region(rng, d.bbox) for _ in range(40)]
        plan = CountPlan(ix, rectangles(regions))
        p = plan.positives(d.outcomes.copy())
        for i, r in enumerate(regions):
            assert (plan.n[i], p[i]) == plan_counts(ix, r)

    def test_zero_relabel(self):
        rng = np.random.default_rng(8)
        d = random_dataset(rng, 150)
        ix = build_index(d, (8, 8))
        regions = [random_region(rng, d.bbox) for _ in range(40)]
        plan = CountPlan(ix, rectangles(regions))
        zeroed = plan.positives(np.zeros(d.N, dtype=np.int8))
        for i, r in enumerate(regions):
            assert plan.n[i] == plan_counts(ix, r)[0] and zeroed[i] == 0

    def test_random_relabel_matches_bruteforce(self):
        rng = np.random.default_rng(9)
        d = random_dataset(rng, 200, duplicates=True)
        ix = build_index(d, (11, 4))
        labels = rng.integers(0, 2, size=d.N)
        regions = [random_region(rng, d.bbox, snap_points=(d.lons, d.lats))
                   for _ in range(100)]
        plan = CountPlan(ix, rectangles(regions))
        p = plan.positives(labels)
        for i, r in enumerate(regions):
            n, want_p = oracle_region_counts(r, d.lons, d.lats, labels,
                                             d.bbox)
            assert (plan.n[i], p[i]) == (n, want_p)

    def test_original_index_unchanged(self):
        rng = np.random.default_rng(10)
        d = random_dataset(rng, 80)
        ix = build_index(d)
        p_before, labels_before = ix.P, ix.labels.copy()
        CountPlan(ix, rectangles([d.bbox])).positives(np.zeros(d.N, dtype=np.int8))
        assert ix.P == p_before
        assert np.array_equal(ix.labels, labels_before)

    def test_length_mismatch(self):
        rng = np.random.default_rng(11)
        d = random_dataset(rng, 30)
        ix = build_index(d)
        with pytest.raises(ValueError, match="shape"):
            CountPlan(ix, rectangles([d.bbox])).positives(np.zeros(29, dtype=np.int8))

    def test_non_binary_rejected(self):
        rng = np.random.default_rng(12)
        d = random_dataset(rng, 30)
        ix = build_index(d)
        with pytest.raises(ValueError, match="binary"):
            CountPlan(ix, rectangles([d.bbox])).positives(np.full(30, 2))
