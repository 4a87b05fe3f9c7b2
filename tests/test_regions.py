from __future__ import annotations

import json

import numpy as np
import pytest

from fairscan import build_index
from fairscan.geometry import Region, regions_overlap
from fairscan.regions import (
    DEFAULT_SIDE_LENGTHS,
    Partitioning,
    kmeans_centers,
    load_region_families,
    random_partitionings,
    regular_grid,
    save_region_families,
    square_scan_set,
)

from conftest import cell_regions, random_dataset

UNIT = Region(0.0, 0.0, 1.0, 1.0)


class TestRegularGrid:
    def test_2x2_unit(self):
        part = regular_grid(UNIT, 2, 2)
        assert len(part) == 4
        assert part.xbounds.tolist() == [0.0, 0.5, 1.0]
        assert part.ybounds.tolist() == [0.0, 0.5, 1.0]
        # Row-major: iy * ncols + ix.
        cells = cell_regions(part)
        assert cells[0] == Region(0.0, 0.0, 0.5, 0.5)
        assert cells[1] == Region(0.5, 0.0, 1.0, 0.5)
        assert cells[2] == Region(0.0, 0.5, 0.5, 1.0)
        assert cells[3] == Region(0.5, 0.5, 1.0, 1.0)

    def test_large_grid_count(self):
        assert len(regular_grid(UNIT, 100, 50)) == 5000

    def test_1x1_is_bbox(self):
        part = regular_grid(UNIT, 1, 1)
        assert cell_regions(part) == [UNIT]

    def test_cells_tile_without_overlap(self):
        part = regular_grid(UNIT, 3, 4)
        cells = cell_regions(part)
        assert len(cells) == len(part) == 12
        assert abs(sum(c.area for c in cells) - UNIT.area) < 1e-12
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                assert not regions_overlap(cells[i], cells[j])

    def test_zero_extent_axis_rejected(self):
        with pytest.raises(ValueError):
            regular_grid(Region(0, 0, 0, 1), 2, 2)

    def test_bad_cell_counts(self):
        with pytest.raises(ValueError):
            regular_grid(UNIT, 0, 3)
        with pytest.raises(ValueError):
            regular_grid(UNIT, 3, -1)

    def test_zero_extent_single_cell_ok(self):
        part = regular_grid(Region(0, 0, 0, 1), 1, 1)
        assert len(part) == 1


class TestPartitioningCounts:
    def test_counts_cover_dataset(self):
        rng = np.random.default_rng(3)
        d = random_dataset(rng, 300, duplicates=True)
        ix = build_index(d, (8, 8))
        for part in random_partitionings(d.bbox, 6, 2, 7, seed=42):
            total_n = 0
            total_p = 0
            from fairscan import range_count
            for cell in cell_regions(part):
                rc = range_count(ix, cell)
                total_n += rc.n
                total_p += rc.p
            assert total_n == d.N
            assert total_p == d.P


class TestRandomPartitionings:
    def test_count_and_determinism(self):
        a = random_partitionings(UNIT, 7, 10, 40, seed=9)
        b = random_partitionings(UNIT, 7, 10, 40, seed=9)
        assert len(a) == 7
        for pa, pb in zip(a, b):
            assert pa.xbounds.tolist() == pb.xbounds.tolist()
            assert pa.ybounds.tolist() == pb.ybounds.tolist()

    def test_different_seeds_differ(self):
        a = random_partitionings(UNIT, 1, 10, 40, seed=0)[0]
        b = random_partitionings(UNIT, 1, 10, 40, seed=1)[0]
        assert (not np.array_equal(a.xbounds, b.xbounds)
                or not np.array_equal(a.ybounds, b.ybounds))

    def test_cell_count_range(self):
        # min 10 splits per axis means 11 columns and 11 rows at least.
        for part in random_partitionings(UNIT, 30, 10, 40, seed=2):
            ncols = len(part.xbounds) - 1
            nrows = len(part.ybounds) - 1
            assert 11 <= ncols <= 41
            assert 11 <= nrows <= 41
            assert len(part) == ncols * nrows

    def test_bounds_are_sorted_and_span_bbox(self):
        for part in random_partitionings(UNIT, 5, 3, 5, seed=8):
            xb = np.asarray(part.xbounds)
            yb = np.asarray(part.ybounds)
            assert xb[0] == UNIT.xmin and xb[-1] == UNIT.xmax
            assert yb[0] == UNIT.ymin and yb[-1] == UNIT.ymax
            assert np.all(np.diff(xb) >= 0)
            assert np.all(np.diff(yb) >= 0)

    def test_degenerate_single_split(self):
        part = random_partitionings(UNIT, 1, 1, 1, seed=4)[0]
        assert len(part) == 4

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            random_partitionings(UNIT, -1, 10, 40, seed=0)
        with pytest.raises(ValueError):
            random_partitionings(UNIT, 3, 0, 40, seed=0)
        with pytest.raises(ValueError):
            random_partitionings(UNIT, 3, 12, 10, seed=0)

    def test_provenance(self):
        parts = random_partitionings(UNIT, 3, 2, 4, seed=6)
        for i, part in enumerate(parts):
            assert part.provenance["kind"] == "random"
            assert part.provenance["seed"] == 6
            assert part.provenance["index"] == i


class TestKMeans:
    def test_single_center_is_centroid(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
        c = kmeans_centers(pts, 1, seed=0)
        assert np.allclose(c, [[1.0, 1.0]])

    def test_k_equals_distinct_points(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
        c = kmeans_centers(pts, 4, seed=1)
        got = {tuple(row) for row in np.round(c, 9)}
        want = {tuple(row) for row in pts}
        assert got == want

    def test_k_above_distinct_raises(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            kmeans_centers(pts, 3, seed=0)

    def test_determinism(self):
        rng = np.random.default_rng(10)
        pts = rng.random((500, 2))
        a = kmeans_centers(pts, 12, seed=3)
        b = kmeans_centers(pts, 12, seed=3)
        assert np.array_equal(a, b)

    def test_inertia_non_increasing(self):
        rng = np.random.default_rng(11)
        pts = rng.random((400, 2))
        _, trace = kmeans_centers(pts, 8, seed=5, return_inertia=True)
        trace = np.asarray(trace)
        assert len(trace) >= 1
        assert np.all(np.diff(trace) <= 1e-9)

    def test_duplicates_act_as_weights(self):
        pts = np.array([[0.0, 0.0]] * 9 + [[10.0, 10.0]])
        c = kmeans_centers(pts, 1, seed=0)
        assert np.allclose(c, [[1.0, 1.0]])

    def test_centers_within_data_hull_bounds(self):
        rng = np.random.default_rng(12)
        pts = rng.random((300, 2)) * 4.0
        c = kmeans_centers(pts, 10, seed=7)
        assert c.shape == (10, 2)
        assert np.all(c >= pts.min(axis=0) - 1e-12)
        assert np.all(c <= pts.max(axis=0) + 1e-12)


class TestSquareScanSet:
    def test_count_and_geometry(self):
        centers = np.array([[1.0, 2.0], [5.0, 5.0]])
        squares = square_scan_set(centers, side_lengths=(0.5, 2.0))
        assert len(squares) == 4
        # Centers outer loop, side lengths inner loop.
        assert squares[0] == Region(0.75, 1.75, 1.25, 2.25,
                                    center_id="c0")
        assert squares[1] == Region(0.0, 1.0, 2.0, 3.0, center_id="c0")
        assert squares[2].center_id == "c1"
        assert squares[3].bounds() == (4.0, 4.0, 6.0, 6.0)

    def test_default_side_lengths(self):
        assert len(DEFAULT_SIDE_LENGTHS) == 20
        assert DEFAULT_SIDE_LENGTHS[0] == pytest.approx(0.1)
        assert DEFAULT_SIDE_LENGTHS[-1] == pytest.approx(2.0)
        squares = square_scan_set(np.array([[0.0, 0.0]]))
        assert len(squares) == 20

    def test_no_clipping(self):
        squares = square_scan_set(np.array([[0.0, 0.0]]), side_lengths=(4.0,))
        assert squares[0].bounds() == (-2.0, -2.0, 2.0, 2.0)

    def test_duplicate_centers_kept(self):
        centers = np.array([[1.0, 1.0], [1.0, 1.0]])
        squares = square_scan_set(centers, side_lengths=(1.0,))
        assert len(squares) == 2
        assert squares[0].center_id == "c0"
        assert squares[1].center_id == "c1"

    def test_invalid_sides(self):
        with pytest.raises(ValueError):
            square_scan_set(np.array([[0.0, 0.0]]), side_lengths=(0.0,))
        with pytest.raises(ValueError):
            square_scan_set(np.array([[0.0, 0.0]]), side_lengths=(-1.0,))


class TestPartitioningBounds:
    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Partitioning([0.0, 1.0, 0.5], [0.0, 1.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            Partitioning([0.0, 1.0], [0.0, float("nan"), 1.0])

    def test_fewer_than_two_bounds_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            Partitioning([0.0], [0.0, 1.0])

    def test_cell_bounds_row_major(self):
        part = Partitioning([0.0, 1.0, 3.0], [0.0, 2.0, 5.0])
        assert part.cell_bounds().tolist() == [
            [0.0, 0.0, 1.0, 2.0], [1.0, 0.0, 3.0, 2.0],
            [0.0, 2.0, 1.0, 5.0], [1.0, 2.0, 3.0, 5.0],
        ]


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        parts = random_partitionings(UNIT, 3, 2, 5, seed=14)
        squares = square_scan_set(np.array([[0.3, 0.4]]), side_lengths=(0.2, 0.6))
        path = tmp_path / "families.json"
        save_region_families(path, [*parts, squares])
        loaded = load_region_families(path)
        assert len(loaded) == 4
        for orig, back in zip(parts, loaded[:3]):
            assert isinstance(back, Partitioning)
            assert back.xbounds.tolist() == orig.xbounds.tolist()
            assert back.ybounds.tolist() == orig.ybounds.tolist()
            assert np.array_equal(back.cell_bounds(), orig.cell_bounds())
        assert list(loaded[3]) == list(squares)
        assert loaded[3][0].center_id == "c0"

    def test_schema_field(self, tmp_path):
        path = tmp_path / "f.json"
        save_region_families(path, [square_scan_set(
            np.array([[0.0, 0.0]]), side_lengths=(1.0,))])
        doc = json.loads(path.read_text())
        assert doc["schema"] == 1
        assert doc["families"][0]["kind"] == "regions"

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "families": []}))
        with pytest.raises(ValueError):
            load_region_families(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({
            "schema": 1,
            "families": [{"kind": "hexagons"}],
        }))
        with pytest.raises(ValueError):
            load_region_families(path)
