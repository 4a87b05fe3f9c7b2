from __future__ import annotations

import numpy as np
import pytest

from fairscan.geometry import Region
from fairscan.synth import (
    DEFAULT_RECT,
    gen_fair_bernoulli,
    gen_planted,
    gen_uniform_split,
)

from oracles import bounds_contain, gen_clustered_locations


class TestUniformSplit:
    def test_exact_totals(self):
        d = gen_uniform_split(10000, seed=1)
        assert d.N == 10000
        assert d.P == 5000
        assert d.rho == 0.5

    def test_halves_and_rates(self):
        d = gen_uniform_split(10000, seed=2)
        xmid = 0.5
        left = d.lons < xmid
        assert left.sum() == 5000
        # floor(2*5000/3) = 3333 positives on the left, 1667 on the right.
        assert d.outcomes[left].sum() == 3333
        assert d.outcomes[~left].sum() == 1667

    def test_strict_side_assignment(self):
        # Left xs live in [xmin, xmid), right xs in [xmid, xmax).
        d = gen_uniform_split(2000, seed=3)
        assert d.lons[:1000].max() < 0.5
        assert d.lons[1000:].min() >= 0.5

    def test_small_n(self):
        d = gen_uniform_split(6, seed=4)
        assert d.P == 3
        left = d.outcomes[:3].sum()
        assert (left, d.outcomes[3:].sum()) == (2, 1)

    def test_custom_rect(self):
        rect = Region(-3.0, 5.0, 7.0, 6.0)
        d = gen_uniform_split(500, rect=rect, seed=5)
        assert d.lons.min() >= rect.xmin and d.lons.max() <= rect.xmax
        assert d.lats.min() >= rect.ymin and d.lats.max() <= rect.ymax
        xmid = (rect.xmin + rect.xmax) / 2
        assert (d.lons < xmid).sum() == 250

    def test_determinism(self):
        a = gen_uniform_split(100, seed=6)
        b = gen_uniform_split(100, seed=6)
        assert np.array_equal(a.lons, b.lons)
        assert np.array_equal(a.outcomes, b.outcomes)
        c = gen_uniform_split(100, seed=7)
        assert not np.array_equal(a.lons, c.lons)

    def test_bad_n(self):
        for n in (0, 1, 3, 999, -2):
            with pytest.raises(ValueError):
                gen_uniform_split(n)


class TestFairBernoulli:
    def test_locations_unchanged(self):
        rng = np.random.default_rng(10)
        pts = rng.random((300, 2))
        d = gen_fair_bernoulli(pts, 0.4, seed=11)
        assert np.array_equal(d.lons, pts[:, 0])
        assert np.array_equal(d.lats, pts[:, 1])

    def test_degenerate_rates(self):
        pts = np.random.default_rng(12).random((50, 2))
        assert gen_fair_bernoulli(pts, 0.0, seed=0).P == 0
        assert gen_fair_bernoulli(pts, 1.0, seed=0).P == 50

    def test_rate_concentrates(self):
        pts = np.random.default_rng(13).random((20000, 2))
        d = gen_fair_bernoulli(pts, 0.3, seed=14)
        assert abs(d.rho - 0.3) < 0.02

    def test_determinism(self):
        pts = np.random.default_rng(15).random((100, 2))
        a = gen_fair_bernoulli(pts, 0.5, seed=16)
        b = gen_fair_bernoulli(pts, 0.5, seed=16)
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_invalid_args(self):
        pts = np.zeros((5, 2))
        with pytest.raises(ValueError):
            gen_fair_bernoulli(pts, 1.5)
        with pytest.raises(ValueError):
            gen_fair_bernoulli(np.zeros((0, 2)), 0.5)
        with pytest.raises(ValueError):
            gen_fair_bernoulli(np.zeros((5, 3)), 0.5)


class TestPlanted:
    RECT = Region(0.0, 0.0, 10.0, 10.0)
    PLANT = Region(3.0, 3.0, 5.0, 5.0)

    def test_empirical_rates(self):
        d = gen_planted(40000, self.RECT, self.PLANT, 0.5, 0.9, seed=20)
        inside = bounds_contain(self.PLANT.bounds(), d.lons, d.lats, self.RECT)
        # The plant covers 4% of the area, about 1600 points.
        assert inside.sum() > 1000
        rate_in = d.outcomes[inside].mean()
        rate_out = d.outcomes[~inside].mean()
        assert abs(rate_in - 0.9) < 0.03
        assert abs(rate_out - 0.5) < 0.02

    def test_lowered_inside_rate(self):
        d = gen_planted(40000, self.RECT, self.PLANT, 0.5, 0.1, seed=21)
        inside = bounds_contain(self.PLANT.bounds(), d.lons, d.lats, self.RECT)
        assert d.outcomes[inside].mean() < 0.2

    def test_equal_rates_match_fair(self):
        d = gen_planted(5000, self.RECT, self.PLANT, 0.5, 0.5, seed=22)
        assert abs(d.rho - 0.5) < 0.03

    def test_plant_outside_rect_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            gen_planted(100, self.RECT, Region(8.0, 8.0, 12.0, 12.0),
                        0.5, 0.9)

    def test_nonpositive_n_rejected(self):
        with pytest.raises(ValueError) as err:
            gen_planted(0, self.RECT, self.PLANT, 0.5, 0.9)
        assert str(err.value) == "n must be positive, got 0"

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            gen_planted(100, self.RECT, self.PLANT, -0.1, 0.5)
        with pytest.raises(ValueError):
            gen_planted(100, self.RECT, self.PLANT, 0.5, 1.1)

    def test_determinism(self):
        a = gen_planted(200, self.RECT, self.PLANT, 0.4, 0.8, seed=23)
        b = gen_planted(200, self.RECT, self.PLANT, 0.4, 0.8, seed=23)
        assert np.array_equal(a.lons, b.lons)
        assert np.array_equal(a.outcomes, b.outcomes)


class TestClusteredLocations:
    def test_shape_and_bounds(self):
        rect = Region(2.0, -1.0, 6.0, 3.0)
        pts = gen_clustered_locations(3000, rect, seed=30)
        assert pts.shape == (3000, 2)
        assert pts[:, 0].min() >= rect.xmin and pts[:, 0].max() <= rect.xmax
        assert pts[:, 1].min() >= rect.ymin and pts[:, 1].max() <= rect.ymax

    def test_determinism(self):
        rect = DEFAULT_RECT
        a = gen_clustered_locations(500, rect, seed=31)
        b = gen_clustered_locations(500, rect, seed=31)
        assert np.array_equal(a, b)

    def test_clustering_is_visible(self):
        # With tight blobs, cell occupancy is far more skewed than uniform:
        # compare the max cell count against the uniform expectation.
        rect = DEFAULT_RECT
        pts = gen_clustered_locations(5000, rect, clusters=10,
                                      spread=0.005, background=0.1, seed=32)
        H, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=20,
                                 range=[[0, 1], [0, 1]])
        assert H.max() > 5 * (5000 / 400)

    def test_background_fraction(self):
        rect = DEFAULT_RECT
        pts = gen_clustered_locations(2000, rect, clusters=5, spread=0.001,
                                      background=0.5, seed=33)
        # Half the points are uniform; blob points sit within ~4 sigma of
        # 5 centers, covering a tiny area, so spread-out points are many.
        H, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=10,
                                 range=[[0, 1], [0, 1]])
        assert (H > 0).sum() > 50

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gen_clustered_locations(0, DEFAULT_RECT)
        with pytest.raises(ValueError):
            gen_clustered_locations(100, DEFAULT_RECT, clusters=0)


class TestFairDataStillShowsLocalExtremes:
    def test_small_samples_contain_all_negative_pockets(self):
        # Even genuinely fair data has small regions that look alarming
        # in isolation; this is why calibration against simulated worlds
        # matters. Count seeds whose worst 0.2-wide cell holds at least
        # five points and zero positives.
        hits = 0
        for t in range(10):
            pts = np.random.default_rng(800 + t).random((1000, 2))
            d = gen_fair_bernoulli(pts, 0.5, seed=900 + t)
            H_n, xe, ye = np.histogram2d(d.lons, d.lats, bins=5,
                                         range=[[0, 1], [0, 1]])
            H_p, _, _ = np.histogram2d(d.lons[d.outcomes == 1],
                                       d.lats[d.outcomes == 1], bins=5,
                                       range=[[0, 1], [0, 1]])
            rate = np.where(H_n > 0, H_p / np.maximum(H_n, 1), 0.5)
            extreme = (np.abs(rate - 0.5) > 0.15) & (H_n >= 5)
            hits += bool(extreme.any())
        assert hits >= 8
