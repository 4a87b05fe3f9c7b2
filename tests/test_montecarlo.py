from __future__ import annotations

import numpy as np
import pytest

from fairscan import build_index
from fairscan.geometry import Region
from fairscan.likelihood import Direction, ScanResult
from fairscan.montecarlo import (
    MaxStatDistribution,
    critical_value,
    global_p_value,
    significant_regions,
    simulate_worlds,
)
from fairscan.regions import random_partitionings, regular_grid
from fairscan.synth import gen_fair_bernoulli, gen_uniform_split

from conftest import random_dataset


@pytest.fixture(scope="module")
def small_world():
    rng = np.random.default_rng(30)
    d = random_dataset(rng, 200)
    ix = build_index(d)
    parts = random_partitionings(d.bbox, 4, 2, 5, seed=7)
    return d, ix, parts


class TestSimulateWorlds:
    def test_whole_space_region_scores_zero(self, small_world):
        d, ix, _ = small_world
        dist = simulate_worlds(ix, [d.bbox], 0.5, 50, seed=1)
        assert np.all(dist.values == 0.0)

    def test_shape_and_sorting(self, small_world):
        d, ix, parts = small_world
        dist = simulate_worlds(ix, parts, d.rho, 40, seed=2)
        assert dist.w == 41
        assert len(dist.values) == 40
        assert np.all(np.diff(dist.values) <= 0)
        assert np.all(dist.values >= 0.0)

    def test_determinism(self, small_world):
        d, ix, parts = small_world
        a = simulate_worlds(ix, parts, 0.5, 30, seed=3)
        b = simulate_worlds(ix, parts, 0.5, 30, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_values(self, small_world):
        d, ix, parts = small_world
        a = simulate_worlds(ix, parts, 0.5, 30, seed=3)
        b = simulate_worlds(ix, parts, 0.5, 30, seed=4)
        assert not np.array_equal(a.values, b.values)

    def test_thread_count_does_not_change_output(self, small_world):
        d, ix, parts = small_world
        one = simulate_worlds(ix, parts, 0.5, 25, seed=5, threads=1)
        two = simulate_worlds(ix, parts, 0.5, 25, seed=5, threads=2)
        auto = simulate_worlds(ix, parts, 0.5, 25, seed=5, threads=None)
        assert np.array_equal(one.values, two.values)
        assert np.array_equal(one.values, auto.values)

    def test_direction_recorded(self, small_world):
        d, ix, parts = small_world
        dist = simulate_worlds(ix, parts, 0.5, 10, seed=6,
                               direction=Direction.HIGHER_INSIDE)
        assert dist.direction is Direction.HIGHER_INSIDE

    def test_degenerate_rho_rejected(self, small_world):
        d, ix, parts = small_world
        for rho in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                simulate_worlds(ix, parts, rho, 10, seed=0)

    def test_bad_world_and_thread_counts(self, small_world):
        d, ix, parts = small_world
        with pytest.raises(ValueError):
            simulate_worlds(ix, parts, 0.5, 0, seed=0)
        with pytest.raises(ValueError):
            simulate_worlds(ix, parts, 0.5, 10, seed=0, threads=0)

    def test_fair_data_rarely_beats_simulated_max(self):
        # The real tau of a fair world should look typical under the
        # simulated distribution, i.e. land well inside its support.
        d = gen_uniform_split(2000, seed=40)
        fair = gen_fair_bernoulli(d.points, 0.5, seed=41)
        ix = build_index(fair)
        parts = random_partitionings(fair.bbox, 20, 2, 8, seed=42)
        from fairscan.likelihood import scan_regions
        _, tau = scan_regions(ix, parts)
        dist = simulate_worlds(ix, parts, fair.rho, 99, seed=43)
        p = global_p_value(tau, dist)
        assert p > 0.05


class TestGlobalPValue:
    def dist(self, values, w):
        return MaxStatDistribution(
            values=np.asarray(sorted(values, reverse=True), dtype=np.float64),
            w=w, seed=0, direction=Direction.TWO_SIDED)

    def test_rank_one(self):
        d = self.dist(np.linspace(0.0, 5.0, 199), 200)
        assert global_p_value(6.0, d) == pytest.approx(1 / 200)

    def test_rank_ten(self):
        values = np.arange(999, dtype=np.float64)
        d = self.dist(values, 1000)
        # Nine simulated maxima (990..998) sit at or above 990.
        assert global_p_value(990.0, d) == pytest.approx(10 / 1000)

    def test_tau_zero_is_one(self):
        d = self.dist(np.zeros(99), 100)
        assert global_p_value(0.0, d) == 1.0

    def test_ties_count_against_real_world(self):
        d = self.dist([1.0, 2.0, 2.0, 3.0], 5)
        assert global_p_value(2.0, d) == pytest.approx(4 / 5)

    def test_range_and_monotonicity(self):
        rng = np.random.default_rng(50)
        d = self.dist(rng.exponential(size=499), 500)
        taus = np.linspace(0.0, 10.0, 57)
        ps = [global_p_value(t, d) for t in taus]
        assert all(1 / 500 <= p <= 1.0 for p in ps)
        assert all(a >= b for a, b in zip(ps, ps[1:]))


class TestCriticalValue:
    def dist(self, values, w):
        return MaxStatDistribution(
            values=np.asarray(sorted(values, reverse=True), dtype=np.float64),
            w=w, seed=0, direction=Direction.TWO_SIDED)

    def test_fifth_largest(self):
        values = np.arange(999, dtype=np.float64)
        d = self.dist(values, 1000)
        # floor(0.005 * 1000) = 5, so the 5th largest of 0..998.
        assert critical_value(d, 0.005) == 994.0

    def test_largest_when_alpha_w_is_one(self):
        values = np.arange(199, dtype=np.float64)
        d = self.dist(values, 200)
        assert critical_value(d, 0.005) == 198.0

    def test_too_few_worlds(self):
        d = self.dist(np.arange(99, dtype=np.float64), 100)
        with pytest.raises(ValueError, match="too few worlds"):
            critical_value(d, 0.005)

    def test_crossing_tau_flips_significance(self):
        # tau above the cutoff must imply p <= alpha and vice versa.
        rng = np.random.default_rng(51)
        values = rng.normal(size=999)
        d = self.dist(values, 1000)
        for alpha in (0.005, 0.01, 0.05):
            cut = critical_value(d, alpha)
            assert global_p_value(cut + 1e-9, d) <= alpha
            assert global_p_value(cut - 1e-9, d) > alpha


def scored(*items):
    """A ScanResult of (llr, n, p, cx) candidates, unit squares at x=cx."""
    llr, n, p, cx = (np.array(col) for col in zip(*items))
    bounds = np.column_stack((cx, np.zeros(len(cx)), cx + 1.0,
                              np.ones(len(cx)))).astype(np.float64)
    return ScanResult(bounds, [None] * len(cx), n, p,
                      llr.astype(np.float64))


def item(llr, n=10, p=5, cx=0.0):
    return (llr, n, p, cx)


class TestSignificantRegions:
    def test_strictly_above_cutoff(self):
        items = scored(item(1.0), item(2.0), item(3.0))
        out = significant_regions(items, 2.0)
        assert [s.llr for s in out] == [3.0]

    def test_sorted_descending(self):
        items = scored(item(1.5, cx=0), item(4.0, cx=2), item(2.5, cx=4))
        out = significant_regions(items, 1.0)
        assert [s.llr for s in out] == [4.0, 2.5, 1.5]

    def test_empty_regions_excluded(self):
        items = scored(item(5.0, n=0, p=0), item(3.0))
        out = significant_regions(items, 1.0)
        assert [s.llr for s in out] == [3.0]

    def test_stable_tie_order(self):
        out = significant_regions(
            scored(item(2.0, cx=0.0), item(2.0, cx=5.0)), 1.0)
        assert out[0].region.xmin == 0.0
        assert out[1].region.xmin == 5.0

    def test_p_value_annotation(self):
        values = np.asarray([5.0, 4.0, 3.0, 2.0], dtype=np.float64)
        dist = MaxStatDistribution(values=values, w=5, seed=0,
                                   direction=Direction.TWO_SIDED)
        out = significant_regions(scored(item(4.5)), 0.0, dist)
        assert out[0].p_value == pytest.approx(2 / 5)

    def test_no_annotation_without_dist(self):
        out = significant_regions(scored(item(4.5)), 0.0)
        assert out[0].p_value is None

    def test_negative_cutoff_keeps_all_nonempty(self):
        items = scored(item(0.0), item(1.0), item(2.0, n=0, p=0))
        out = significant_regions(items, -1.0)
        assert len(out) == 2

    def test_evidence_fields(self):
        out = significant_regions(scored(item(3.0, n=8, p=6, cx=2.0)), 0.0)
        assert out[0].region == Region(2.0, 0.0, 3.0, 1.0)
        assert (out[0].counts.n, out[0].counts.p) == (8, 6)
        assert out[0].local_rate == 0.75


class TestDistributionSerialization:
    def test_json_round_trip(self):
        dist = MaxStatDistribution(
            values=np.asarray([3.5, 2.0, 0.0]), w=4, seed=17,
            direction=Direction.LOWER_INSIDE)
        doc = dist.to_json_dict()
        assert doc["schema"] == 1
        back = MaxStatDistribution.from_json_dict(doc)
        assert np.array_equal(back.values, dist.values)
        assert back.w == 4
        assert back.seed == 17
        assert back.direction is Direction.LOWER_INSIDE
