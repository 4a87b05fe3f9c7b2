from __future__ import annotations

import numpy as np
import pytest

from fairscan import build_index, range_count
from fairscan.geometry import Region
from fairscan.regions import random_partitionings, regular_grid
from fairscan.scanner import CountPlan, as_scanner

from conftest import cell_regions, make_dataset, random_dataset, random_region


@pytest.fixture(scope="module")
def data_and_index():
    rng = np.random.default_rng(20)
    d = random_dataset(rng, 400, duplicates=True)
    return d, build_index(d, (12, 9))


def random_labelings(n, count=4, seed=0):
    rng = np.random.default_rng(seed)
    yield np.zeros(n, dtype=np.int8)
    yield np.ones(n, dtype=np.int8)
    for _ in range(count):
        yield rng.integers(0, 2, size=n).astype(np.int8)


class TestPlannedScanner:
    """The rectangle path: prefix-table corners plus boundary-cell members."""

    def test_counts_match_range_count(self, data_and_index):
        d, ix = data_and_index
        rng = np.random.default_rng(21)
        regions = [random_region(rng, d.bbox, snap_points=(d.lons, d.lats))
                   for _ in range(60)]
        sc = CountPlan(ix, regions)
        assert len(sc.n) == 60
        for labels in random_labelings(d.N, seed=1):
            view = build_index(make_dataset(d.lons, d.lats, labels), (12, 9))
            p = sc.positives(labels)
            for i, r in enumerate(regions):
                rc = range_count(view, r)
                assert sc.n[i] == rc.n
                assert p[i] == rc.p

    def test_region_far_outside_bbox(self, data_and_index):
        d, ix = data_and_index
        sc = CountPlan(ix, [Region(50.0, 50.0, 60.0, 60.0)])
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
        sc = CountPlan(ix, [big])
        assert sc.n[0] == d.N
        assert sc.positives(d.outcomes)[0] == d.P

    def test_large_rectangles_span_build_batches(self, monkeypatch,
                                                 data_and_index):
        # A tiny batch forces the boundary-member build through many
        # batches, including rectangles larger than one batch.
        import fairscan.scanner as scanner
        d, ix = data_and_index
        rng = np.random.default_rng(22)
        regions = [random_region(rng, d.bbox, snap_points=(d.lons, d.lats))
                   for _ in range(40)]
        whole = CountPlan(ix, regions)
        monkeypatch.setattr(scanner, "_EDGE_BATCH", 7)
        batched = CountPlan(ix, regions)
        assert np.array_equal(whole.n, batched.n)
        for labels in random_labelings(d.N, seed=3):
            assert np.array_equal(whole.positives(labels),
                                  batched.positives(labels))


class TestPartitionScanner:
    """The cell-assignment path for partitionings covering the bbox."""

    def test_agrees_with_range_count_per_cell(self, data_and_index):
        d, ix = data_and_index
        parts = random_partitionings(d.bbox, 5, 2, 6, seed=77)
        sc = CountPlan(ix, parts)
        assert len(sc.n) == sum(len(p) for p in parts)
        p = sc.positives(d.outcomes)
        for i in range(len(sc.n)):
            rc = range_count(ix, sc.region(i))
            assert (sc.n[i], p[i]) == (rc.n, rc.p)

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
        slow = CountPlan(ix, [c for p in parts for c in cell_regions(p)])
        assert np.array_equal(fast.n, slow.n)
        assert np.array_equal(fast.bounds, slow.bounds)
        for labels in random_labelings(d.N, seed=2):
            assert np.array_equal(fast.positives(labels),
                                  slow.positives(labels))

    def test_point_exactly_on_inner_bound(self):
        # Points sitting on the midline must land in the upper cell.
        d = make_dataset([0.0, 0.5, 1.0], [0.0, 0.0, 0.0], [1, 1, 0])
        ix = build_index(d, (4, 1))
        part = regular_grid(d.bbox, 2, 1)
        sc = CountPlan(ix, [part])
        assert sc.n.tolist() == [1, 2]
        assert sc.positives(d.outcomes).tolist() == [1, 1]


class TestComposite:
    def test_concatenation_order(self, data_and_index):
        d, ix = data_and_index
        part = regular_grid(d.bbox, 2, 2)
        squares = [Region(0.1, 0.1, 0.4, 0.4), Region(0.5, 0.5, 0.9, 0.9)]
        comp = CountPlan(ix, [part, squares])
        regions = [comp.region(i) for i in range(len(comp.n))]
        assert regions == cell_regions(part) + squares
        p = comp.positives(d.outcomes)
        assert len(p) == len(regions) == len(comp.n)
        for i, r in enumerate(regions):
            rc = range_count(ix, r)
            assert (comp.n[i], p[i]) == (rc.n, rc.p)

    def test_interleaved_families_keep_order(self, data_and_index):
        d, ix = data_and_index
        grid = regular_grid(d.bbox, 3, 2)
        half = Region(d.bbox.xmin, d.bbox.ymin,
                      (d.bbox.xmin + d.bbox.xmax) / 2, d.bbox.ymax)
        uncovered = regular_grid(half, 2, 2)
        square = Region(0.2, 0.2, 0.6, 0.7, center_id="c0")
        family = [square, grid, [square], uncovered, grid]
        plan = CountPlan(ix, family)
        want = ([square] + cell_regions(grid) + [square]
                + cell_regions(uncovered) + cell_regions(grid))
        assert [plan.region(i) for i in range(len(plan.n))] == want
        assert plan.center_ids[0] == "c0" and plan.center_ids[1] is None
        for labels in random_labelings(d.N, seed=4):
            view = build_index(make_dataset(d.lons, d.lats, labels), (12, 9))
            p = plan.positives(labels)
            for i, r in enumerate(want):
                rc = range_count(view, r)
                assert (plan.n[i], p[i]) == (rc.n, rc.p)


class TestAsScanner:
    def test_passthrough(self, data_and_index):
        d, ix = data_and_index
        sc = CountPlan(ix, [d.bbox])
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
        sc = as_scanner(ix, [Region(0, 0, 0.5, 0.5)])
        assert isinstance(sc, CountPlan)
        assert sc.n[0] == range_count(ix, Region(0, 0, 0.5, 0.5)).n

    def test_noncovering_partitioning_falls_back(self, data_and_index):
        d, ix = data_and_index
        half = Region(d.bbox.xmin, d.bbox.ymin,
                      (d.bbox.xmin + d.bbox.xmax) / 2, d.bbox.ymax)
        bad = regular_grid(half, 2, 2)
        sc = as_scanner(ix, [bad])
        assert isinstance(sc, CountPlan)
        p = sc.positives(d.outcomes)
        for i, r in enumerate(cell_regions(bad)):
            rc = range_count(ix, r)
            assert (sc.n[i], p[i]) == (rc.n, rc.p)
