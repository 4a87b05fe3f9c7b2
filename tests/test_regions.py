from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairscan.geometry import Region
from fairscan import regions as regions_module
from fairscan.regions import (
    DEFAULT_SIDE_LENGTHS,
    Partitioning,
    Rectangles,
    kmeans_centers,
    load_region_families,
    random_partitionings,
    regular_grid,
    save_region_families,
    square_scan_set,
)

from conftest import cell_regions, random_dataset
from oracles import (
    area,
    oracle_kmeans,
    oracle_region_counts,
    oracle_squares,
    regions_overlap,
)

UNIT = Region(0.0, 0.0, 1.0, 1.0)
# From these 34 points k-means++ (seed 0) leaves one of its 4 starting
# centers without points after the first assignment step.
_RESEED_GROUPS = [((2, 3), 10), ((0, 2), 5), ((3, 4), 3), ((4, 3), 2),
                  ((2, 0), 4), ((3, 0), 4), ((1, 3), 2), ((0, 3), 2),
                  ((1, 2), 2)]
RESEED_POINTS = np.array([xy for xy, count in _RESEED_GROUPS
                          for _ in range(count)], dtype=np.float64)


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
        assert abs(sum(area(c) for c in cells) - area(UNIT)) < 1e-12
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
        for part in random_partitionings(d.bbox, 6, 2, 7, seed=42):
            total_n = 0
            total_p = 0
            for cell in cell_regions(part):
                n, p = oracle_region_counts(cell, d.lons, d.lats, d.outcomes,
                                            d.bbox)
                total_n += n
                total_p += p
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

    def test_empty_cluster_is_reseeded(self):
        # The re-seed branch runs once on these points.
        c, trace = kmeans_centers(RESEED_POINTS, 4, seed=0,
                                  return_inertia=True)
        assert np.allclose(c, [[4 / 11, 26 / 11], [4.0, 3.0],
                               [29 / 13, 42 / 13], [2.5, 0.0]],
                           rtol=0, atol=1e-12)
        assert np.allclose(trace, [82.0, 3434 / 81, 20.07315761161915,
                                   12.442020202020203, 1674 / 143],
                           rtol=1e-12, atol=0)

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


@st.composite
def _kmeans_inputs(draw):
    """Point sets full of exact ties, and scales where rounding bites."""
    kind = draw(st.sampled_from(["lattice", "collinear", "offset", "scale",
                                 "overflow", "reseed"]))
    if kind == "reseed":
        return RESEED_POINTS, 4, 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 150))
    if kind == "lattice":  # integer grid: equidistant centers, duplicates
        pts = rng.integers(0, rng.integers(1, 9), (n, 2)).astype(np.float64)
    elif kind == "collinear":
        t = rng.integers(0, 12, n).astype(np.float64)
        pts = np.column_stack((t, rng.choice([0.0, 1.0, 2.0, -0.5]) * t))
        if rng.random() < 0.5:
            pts = pts[:, ::-1].copy()  # on a vertical line
    elif kind == "offset":  # a tiny span at a large offset
        span = 10.0 ** rng.integers(-8, 1)
        offset = 10.0 ** rng.integers(3, 13)
        pts = rng.random((n, 2))
        if rng.random() < 0.5:
            pts = np.round(pts * 4) / 4
        pts = offset + span * pts
    elif kind == "scale":  # magnitudes inside and outside [1e-100, 1e100]
        exponent = rng.choice([rng.integers(-110, -90), rng.integers(-90, 90),
                               rng.integers(90, 111)])
        pts = rng.normal(size=(n, 2)) * 10.0 ** exponent
    else:  # two points so far apart that their squared distance is inf
        pts = rng.normal(size=(n + 2, 2)) * 1e150
        pts[:2] = [[-0.9e154, 0.0], [0.9e154, 0.0]]
    distinct = len(np.unique(pts, axis=0))
    k = rng.choice([1, distinct, rng.integers(1, distinct + 1),
                    rng.integers(1, distinct + 1)])
    return pts, int(k), int(rng.integers(2**32))


def _result(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError:  # e.g. k-means++ weights overflowing to inf
        return "ValueError"


class TestKMeansMatchesFullMatrix:
    """kmeans_centers skips points by bounds; the result must not move."""

    @staticmethod
    def assert_identical(pts, k, seed):
        want = _result(oracle_kmeans, pts, k, seed=seed)
        got = _result(kmeans_centers, pts, k, seed=seed, return_inertia=True)
        if isinstance(want, str):
            assert got == want
            return
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_kmeans_inputs())
    def test_bit_identical_centers_and_inertia(self, case):
        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_identical(*case)

    @pytest.mark.parametrize("block", [1, 7, 1024])
    def test_empty_cluster_reseed(self, monkeypatch, block):
        monkeypatch.setattr(regions_module, "_KMEANS_BLOCK", block)
        self.assert_identical(RESEED_POINTS, 4, 0)

    def test_planted20k_shape(self):
        rng = np.random.default_rng(20)
        self.assert_identical(rng.uniform(0.0, 10.0, (20_000, 2)), 100, 7)


class TestKMeansMemory:
    # Scratch memory is two (block, k) float64 buffers plus a few arrays
    # of N entries: np.unique's sorted copy, the k-means++ weights, each
    # point's center, distance and bound, all well under this per point.
    BYTES_PER_POINT = 128

    @staticmethod
    def traced_peak(pts, k):
        tracemalloc.start()
        try:
            kmeans_centers(pts, k, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_linear_in_n(self):
        k, peaks = 100, []
        for n in (20_000, 40_000):
            pts = np.random.default_rng(0).uniform(0.0, 10.0, (n, 2))
            peak = self.traced_peak(pts, k)
            block = regions_module._KMEANS_BLOCK
            assert peak < self.BYTES_PER_POINT * n + 16 * block * k
            peaks.append(peak)
        assert peaks[1] <= 2.05 * peaks[0]


class TestSquareScanSet:
    def test_count_and_geometry(self):
        centers = np.array([[1.0, 2.0], [5.0, 5.0]])
        squares = square_scan_set(centers, side_lengths=(0.5, 2.0))
        assert len(squares) == 4
        # Centers outer loop, side lengths inner loop.
        assert squares.bounds.dtype == np.float64
        assert squares.bounds[0].tolist() == [0.75, 1.75, 1.25, 2.25]
        assert squares.bounds[1].tolist() == [0.0, 1.0, 2.0, 3.0]
        assert squares.center_ids[:2].tolist() == ["c0", "c0"]
        assert squares.center_ids[2] == "c1"
        assert squares.bounds[3].tolist() == [4.0, 4.0, 6.0, 6.0]

    def test_default_side_lengths(self):
        assert len(DEFAULT_SIDE_LENGTHS) == 20
        assert DEFAULT_SIDE_LENGTHS[0] == pytest.approx(0.1)
        assert DEFAULT_SIDE_LENGTHS[-1] == pytest.approx(2.0)
        squares = square_scan_set(np.array([[0.0, 0.0]]))
        assert len(squares) == 20

    def test_no_clipping(self):
        squares = square_scan_set(np.array([[0.0, 0.0]]), side_lengths=(4.0,))
        assert squares.bounds[0].tolist() == [-2.0, -2.0, 2.0, 2.0]

    def test_duplicate_centers_kept(self):
        centers = np.array([[1.0, 1.0], [1.0, 1.0]])
        squares = square_scan_set(centers, side_lengths=(1.0,))
        assert len(squares) == 2
        assert squares.center_ids.tolist() == ["c0", "c1"]

    def test_matches_oracle_bit_for_bit(self):
        # Negative centers and magnitudes from 1e-3 to 1e6, 1 to 25 sides:
        # the broadcast must round exactly as the one-square-at-a-time loop.
        rng = np.random.default_rng(40)
        for _ in range(200):
            k, m = int(rng.integers(0, 6)), int(rng.integers(1, 26))
            centers = (rng.choice([-1.0, 1.0], size=(k, 2))
                       * 10.0 ** rng.uniform(-3, 6, size=(k, 2)))
            sides = 10.0 ** rng.uniform(-3, 6, size=m)
            got = square_scan_set(centers, side_lengths=sides)
            want = oracle_squares(centers, sides)
            bounds = np.array([w[:4] for w in want],
                              dtype=np.float64).reshape(-1, 4)
            assert got.bounds.shape == (k * m, 4)
            assert np.array_equal(got.bounds.view(np.uint64),
                                  bounds.view(np.uint64))
            assert got.center_ids.tolist() == [w[4] for w in want]

    def test_one_id_string_per_center(self):
        squares = square_scan_set(np.array([[0.0, 0.0], [1.0, 1.0]]),
                                  side_lengths=(0.5, 1.0, 2.0))
        assert squares.center_ids.dtype == object
        ids = squares.center_ids
        assert ids[0] is ids[1] is ids[2] and ids[3] is ids[5]

    def test_invalid_sides(self):
        with pytest.raises(ValueError):
            square_scan_set(np.array([[0.0, 0.0]]), side_lengths=(0.0,))
        with pytest.raises(ValueError):
            square_scan_set(np.array([[0.0, 0.0]]), side_lengths=(-1.0,))
        for side in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                square_scan_set(np.array([[0.0, 0.0]]), side_lengths=(side,))


class TestRectangles:
    @pytest.mark.parametrize("rows, message", [
        ([[0.8, 0.1, 0.2, 0.9]],
         "region 0: inverted region bounds: (0.8, 0.1, 0.2, 0.9)"),
        ([[0.0, 0.0, 1.0, 1.0], [0.1, 0.5, 0.2, 0.4]],
         "region 1: inverted region bounds: (0.1, 0.5, 0.2, 0.4)"),
        ([[0.0, 0.0, 1.0, 1.0], [0.1, float("nan"), 0.2, 0.9]],
         "region 1: inverted region bounds: (0.1, nan, 0.2, 0.9)"),
    ], ids=["inverted-x", "inverted-y", "nan"])
    def test_bad_row_refused_when_built(self, rows, message):
        bounds = np.array(rows)
        with pytest.raises(ValueError) as err:
            Rectangles(bounds, np.full(len(bounds), None, dtype=object))
        assert str(err.value) == message

    def test_zero_width_and_empty_allowed(self):
        rects = Rectangles(np.array([[0.5, 0.0, 0.5, 1.0]]),
                           np.array([None], dtype=object))
        assert len(rects) == 1
        assert len(Rectangles(np.zeros((0, 4)),
                              np.empty(0, dtype=object))) == 0


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
        assert isinstance(loaded[3], Rectangles)
        assert np.array_equal(loaded[3].bounds, squares.bounds)
        assert loaded[3].center_ids.tolist() == squares.center_ids.tolist()
        assert loaded[3].center_ids[0] == "c0"

    def test_partitioning_entries_hold_bounds_only(self, tmp_path):
        # A partitioning's cells follow from its bounds, so the file holds
        # no per-cell list: 100 random partitionings stay small.
        parts = random_partitionings(UNIT, 100, seed=15)
        path = tmp_path / "parts.json"
        save_region_families(path, parts)
        assert path.stat().st_size < 500_000
        doc = json.loads(path.read_text())
        for fam in doc["families"]:
            assert sorted(fam) == ["kind", "provenance", "xbounds", "ybounds"]

    def test_old_layout_loads_the_same(self, tmp_path):
        # Files that still carry each partitioning's per-cell "regions" list
        # load as before: the loader reads bounds and provenance only.
        parts = random_partitionings(UNIT, 3, 2, 5, seed=16)
        path = tmp_path / "new.json"
        save_region_families(path, parts)
        doc = json.loads(path.read_text())
        for fam, part in zip(doc["families"], parts):
            fam["regions"] = part.cell_bounds().tolist()
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        for a, b in zip(load_region_families(path), load_region_families(old)):
            assert np.array_equal(a.xbounds, b.xbounds)
            assert np.array_equal(a.ybounds, b.ybounds)
            assert a.provenance == b.provenance

    def test_inverted_rectangle_message(self, tmp_path):
        path = tmp_path / "inverted.json"
        path.write_text(json.dumps({"schema": 1, "families": [
            {"kind": "regions", "regions": [
                {"xmin": 0, "ymin": 0, "xmax": 1, "ymax": 1},
                {"xmin": 1, "ymin": 0, "xmax": 0.5, "ymax": 1}]}]}))
        with pytest.raises(ValueError) as err:
            load_region_families(path)
        assert str(err.value) == ("region family 0 region 1: inverted region "
                                  "bounds: (1.0, 0.0, 0.5, 1.0)")

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
