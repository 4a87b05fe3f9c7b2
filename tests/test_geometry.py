from __future__ import annotations

import itertools
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairscan.geometry import Region, bounding_box, closed_bounds
from fairscan.pipeline import select_non_overlapping

from conftest import Candidate, scan_rows
from oracles import (area, bounds_contain, intersection_area, jaccard,
                     oracle_contains)

UNIT = Region(0.0, 0.0, 1.0, 1.0)


class TestRegion:
    def test_bounds_accessors(self):
        r = Region(1.0, 2.0, 4.0, 7.0)
        assert r.bounds() == (1.0, 2.0, 4.0, 7.0)
        assert r.width == 3.0
        assert r.height == 5.0
        assert area(r) == 15.0

    def test_degenerate_region_allowed(self):
        r = Region(1.0, 1.0, 1.0, 1.0)
        assert area(r) == 0.0

    @pytest.mark.parametrize("bounds", [(2, 0, 1, 1), (0, 2, 1, 1)])
    def test_inverted_bounds_rejected(self, bounds):
        with pytest.raises(ValueError):
            Region(*bounds)

    def test_center_id_default(self):
        # A region is its four bounds; the center link lives in the tests'
        # Candidate, as Rectangles keeps it in its center_ids column.
        assert [f.name for f in fields(Region)] == ["xmin", "ymin", "xmax",
                                                    "ymax"]
        assert Candidate(0, 0, 1, 1).center_id is None
        assert Candidate(0, 0, 1, 1, center_id="c3").center_id == "c3"


class TestContains:
    def test_half_open_interior_edges(self):
        r = Region(0.2, 0.2, 0.6, 0.6)
        assert bounds_contain(r.bounds(), 0.2, 0.2, UNIT)
        assert not bounds_contain(r.bounds(), 0.6, 0.4, UNIT)
        assert not bounds_contain(r.bounds(), 0.4, 0.6, UNIT)
        assert bounds_contain(r.bounds(), 0.59, 0.59, UNIT)

    def test_bbox_max_edges_closed(self):
        # A region reaching the bounding box keeps boundary observations.
        assert bounds_contain(UNIT.bounds(), 1.0, 0.5, UNIT)
        assert bounds_contain(UNIT.bounds(), 0.5, 1.0, UNIT)
        assert bounds_contain(UNIT.bounds(), 1.0, 1.0, UNIT)

    def test_interior_region_stays_half_open_at_its_own_edge(self):
        r = Region(0.0, 0.0, 0.5, 1.0)
        assert not bounds_contain(r.bounds(), 0.5, 0.5, UNIT)

    def test_region_overhanging_bbox_keeps_boundary_points(self):
        r = Region(0.5, 0.5, 2.0, 2.0)
        assert bounds_contain(r.bounds(), 1.0, 1.0, UNIT)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-0.5, 1.5, size=200)
        ys = rng.uniform(-0.5, 1.5, size=200)
        r = Region(0.25, 0.0, 1.0, 0.75)
        got = bounds_contain(r.bounds(), xs, ys, UNIT)
        want = [oracle_contains(x, y, r, UNIT) for x, y in zip(xs, ys)]
        assert got.tolist() == want

    @given(
        x=st.floats(-2, 2),
        y=st.floats(-2, 2),
        ax=st.floats(-1, 1.5),
        bx=st.floats(-1, 1.5),
        ay=st.floats(-1, 1.5),
        by=st.floats(-1, 1.5),
    )
    def test_matches_oracle(self, x, y, ax, bx, ay, by):
        r = Region(min(ax, bx), min(ay, by), max(ax, bx), max(ay, by))
        assert bool(bounds_contain(r.bounds(), x, y, UNIT)) == (
            oracle_contains(x, y, r, UNIT))

    def test_closed_bounds_moves_max_edges_on_the_box(self):
        xmax = np.array([0.5, 1.0, 2.0, np.inf])
        got = closed_bounds((0.0, 0.0, xmax, 1.0), UNIT)
        assert got[:2] == (0.0, 0.0)
        assert got[2].tolist() == [0.5, np.nextafter(1.0, 2.0),
                                   np.nextafter(2.0, 3.0), np.inf]
        assert got[3] == np.nextafter(1.0, 2.0)

    def test_float_edges_match_oracle(self):
        # Signed zeros, denormals, the largest float and infinite bounds,
        # on boxes whose max edge is each finite value; the points include
        # every box's max edge and its neighbours.
        big = np.finfo(float).max
        finite = [-big, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1e-310, 1.0,
                  np.nextafter(big, 0.0), big]
        xs, ys = np.array(list(itertools.product(finite, repeat=2))).T
        for top in finite:
            box = Region(-big, -big, top, top)
            for lo, hi in itertools.combinations_with_replacement(
                    [-np.inf, *finite, np.inf], 2):
                r = Region(lo, lo, hi, hi)
                got = bounds_contain(r.bounds(), xs, ys, box)
                want = [oracle_contains(x, y, r, box) for x, y in zip(xs, ys)]
                assert got.tolist() == want, (r, box)


def regions_overlap(a: Region, b: Region) -> bool:
    """Whether the non-overlap pick drops b, scored below a, for a."""
    return len(select_non_overlapping(scan_rows([a, b], [2.0, 1.0]))) == 1


class TestOverlap:
    def test_shared_edge_is_not_overlap(self):
        a = Region(0, 0, 1, 1)
        b = Region(1, 0, 2, 1)
        assert not regions_overlap(a, b)
        assert intersection_area(a, b) == 0.0

    def test_shared_corner_is_not_overlap(self):
        assert not regions_overlap(Region(0, 0, 1, 1), Region(1, 1, 2, 2))

    def test_containment_overlaps(self):
        outer = Region(0, 0, 4, 4)
        inner = Region(1, 1, 2, 2)
        assert regions_overlap(outer, inner)
        assert regions_overlap(inner, outer)
        assert intersection_area(outer, inner) == area(inner)

    def test_partial_overlap_area(self):
        a = Region(0, 0, 2, 1)
        b = Region(1, 0, 3, 1)
        assert intersection_area(a, b) == pytest.approx(1.0)
        assert jaccard(a, b) == pytest.approx(1.0 / 3.0)

    def test_jaccard_identical_and_disjoint(self):
        a = Region(0, 0, 2, 2)
        assert jaccard(a, a) == 1.0
        assert jaccard(a, Region(5, 5, 6, 6)) == 0.0

    def test_jaccard_degenerate(self):
        z = Region(1, 1, 1, 1)
        assert jaccard(z, z) == 0.0


class TestBoundingBox:
    def test_tightness(self):
        rng = np.random.default_rng(17)
        xs = rng.uniform(-3, 3, size=50)
        ys = rng.uniform(-3, 3, size=50)
        box = bounding_box(xs, ys)
        assert box.xmin == xs.min() and box.xmax == xs.max()
        assert box.ymin == ys.min() and box.ymax == ys.max()
        # Shrinking any side must exclude at least one point.
        eps = 1e-9
        assert (xs < box.xmin + eps).any() and (xs > box.xmax - eps).any()
        assert (ys < box.ymin + eps).any() and (ys > box.ymax - eps).any()

    def test_single_point(self):
        box = bounding_box([2.0], [3.0])
        assert box.bounds() == (2.0, 3.0, 2.0, 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bounding_box([], [])
