from __future__ import annotations

import warnings

import numpy as np
import pytest

from fairscan import CountPlan, build_index, scanner
from fairscan.geometry import Region
from fairscan.index import default_columns
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


def column_order(ix):
    """The points in (column, y) order, which a rectangle plan keeps for
    its running sums (any one rectangle makes the plan sort them); checked
    to be a permutation sorted by (column, y), with columns in 0..gx - 1."""
    order = scanner._rectangle_terms(ix, np.zeros((1, 4)))[0]
    assert np.array_equal(np.sort(order), np.arange(ix.N))
    col, y = ix.columns(ix.xs)[order], ix.ys[order]
    assert ((col >= 0) & (col < ix.gx)).all()
    step = np.diff(col)
    assert ((step > 0) | ((step == 0) & (np.diff(y) >= 0))).all()
    return order


class TestBuild:
    def test_single_cell_grid(self):
        d = make_dataset(np.arange(10) / 10.0, np.zeros(10), np.ones(10))
        ix = build_index(d, 1)
        assert ix.gx == 1
        assert (ix.columns(ix.xs) == 0).all()
        assert len(column_order(ix)) == 10

    def test_cell_conservation(self):
        rng = np.random.default_rng(0)
        d = random_dataset(rng, 500, duplicates=True)
        ix = build_index(d, 16)
        order = column_order(ix)
        plan = CountPlan(ix, rectangles([d.bbox]))
        assert np.array_equal(plan._point_order, order)
        assert ix.outcomes[order].sum() == d.P
        assert plan_counts(ix, d.bbox) == (d.N, d.P)

    def test_default_columns(self):
        assert default_columns(100) == 10
        assert default_columns(101) == 11
        assert default_columns(10**9) == 1024

    def test_bad_resolution(self):
        d = make_dataset([0.0, 1.0], [0.0, 1.0], [0, 1])
        with pytest.raises(ValueError):
            build_index(d, 0)

    def test_denormal_extent_gets_columns(self):
        # A column width that rounds to zero (1e-320 / 10**6) still gives
        # every point a column in 0..gx - 1, monotone in x, without a
        # warning; counts do not depend on the columns.
        rng = np.random.default_rng(5)
        xs = np.sort(rng.integers(0, 2025, 40)) * 5e-324
        xs[[0, -1]] = 0.0, 1e-320
        d = make_dataset(xs, rng.random(40), rng.integers(0, 2, 40))
        for gx in (1, 2, 7, 10**6):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ix = build_index(d, gx)
                cols = ix.columns(ix.xs)
                assert cols[0] == 0 and cols[-1] == gx - 1
                assert (np.diff(cols) >= 0).all()
                column_order(ix)
                for _ in range(20):
                    assert_matches_bruteforce(ix, d, random_region(
                        rng, d.bbox, snap_points=(d.lons, d.lats)))

    def test_zero_extent_axis_ok(self):
        d = make_dataset([2.0, 2.0, 2.0], [0.0, 0.5, 1.0], [1, 0, 1])
        ix = build_index(d, 8)
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
            ix = build_index(d, 13)
            snap = (d.lons, d.lats)
            for _ in range(100):
                assert_matches_bruteforce(
                    ix, d, random_region(rng, d.bbox, snap_points=snap))

    def test_degenerate_query_rectangles(self):
        rng = np.random.default_rng(4)
        d = random_dataset(rng, 120)
        ix = build_index(d, 6)
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
        coarse = build_index(d, 1)
        mid = build_index(d, 16)
        fine = build_index(d, 256)
        for _ in range(120):
            r = random_region(rng, d.bbox, snap_points=(d.lons, d.lats))
            a, b, c = (plan_counts(ix, r) for ix in (coarse, mid, fine))
            assert a == b == c

    def test_partitioning_additivity(self):
        rng = np.random.default_rng(6)
        d = random_dataset(rng, 250, duplicates=True)
        ix = build_index(d, 9)
        part = regular_grid(d.bbox, 7, 5)
        counts = [plan_counts(ix, cell) for cell in cell_regions(part)]
        assert sum(n for n, _ in counts) == d.N
        assert sum(p for _, p in counts) == d.P


class TestWithLabels:
    """Counting the same regions under labelings other than the observed one."""

    def test_identity_relabel(self):
        rng = np.random.default_rng(7)
        d = random_dataset(rng, 150)
        ix = build_index(d, 8)
        regions = [random_region(rng, d.bbox) for _ in range(40)]
        plan = CountPlan(ix, rectangles(regions))
        p = plan.positives(d.outcomes.copy())
        for i, r in enumerate(regions):
            assert (plan.n[i], p[i]) == plan_counts(ix, r)

    def test_zero_relabel(self):
        rng = np.random.default_rng(8)
        d = random_dataset(rng, 150)
        ix = build_index(d, 8)
        regions = [random_region(rng, d.bbox) for _ in range(40)]
        plan = CountPlan(ix, rectangles(regions))
        zeroed = plan.positives(np.zeros(d.N, dtype=np.int8))
        for i, r in enumerate(regions):
            assert plan.n[i] == plan_counts(ix, r)[0] and zeroed[i] == 0

    def test_random_relabel_matches_bruteforce(self):
        rng = np.random.default_rng(9)
        d = random_dataset(rng, 200, duplicates=True)
        ix = build_index(d, 11)
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
        p_before, labels_before = ix.P, ix.outcomes.copy()
        CountPlan(ix, rectangles([d.bbox])).positives(np.zeros(d.N, dtype=np.int8))
        assert ix.P == p_before
        assert np.array_equal(ix.outcomes, labels_before)

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
