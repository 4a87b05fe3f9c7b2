from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from fairscan import build_index, montecarlo
from fairscan.geometry import Region
from fairscan.likelihood import Direction, ScanResult, llr_vector
from fairscan.montecarlo import (
    MaxStatDistribution,
    critical_value,
    global_p_value,
    significant_regions,
    simulate_worlds,
)
from fairscan.regions import random_partitionings, regular_grid
from fairscan.scanner import as_scanner
from fairscan.synth import gen_fair_bernoulli, gen_uniform_split

from conftest import random_dataset, rectangles


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
        dist = simulate_worlds(ix, rectangles([d.bbox]), 0.5, 50, seed=1)
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

    @pytest.mark.parametrize("direction", list(Direction))
    def test_max_matches_scoring_every_candidate(self, small_world, direction):
        # simulate_worlds scores only each size's extreme counts; its maxima
        # must equal, bit for bit, the max over every candidate's score.
        d, ix, parts = small_world
        family = [regular_grid(d.bbox, 8, 8), *parts,
                  rectangles([Region(5.0, 5.0, 6.0, 6.0), d.bbox]),
                  rectangles([Region(x, y, x + 0.3, y + 0.3)
                              for x in np.linspace(0.0, 0.7, 8)
                              for y in np.linspace(0.0, 0.7, 8)])]
        plan = as_scanner(ix, family)
        assert (plan.n == 0).any() and (plan.n == d.N).any()
        assert len(np.unique(plan.n)) < len(plan.n) // 4
        dist = simulate_worlds(ix, plan, 0.3, 80, seed=11, direction=direction)
        want = []
        for world in np.random.SeedSequence(11).spawn(80):
            labels = (np.random.default_rng(world).random(d.N)
                      < 0.3).astype(np.int8)
            want.append(llr_vector(plan.n, plan.positives(labels), d.N,
                                   int(labels.sum()), direction).max())
        assert np.array_equal(dist.values, np.sort(want)[::-1])

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

    def test_bad_world_count(self, small_world):
        d, ix, parts = small_world
        with pytest.raises(ValueError):
            simulate_worlds(ix, parts, 0.5, 0, seed=0)

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


@pytest.fixture
def pool(monkeypatch):
    """Set the worker count, with the work-per-world gate forced open."""
    def set_workers(k: int) -> None:
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: k)
        monkeypatch.setattr(montecarlo, "_PARALLEL_WORK", 0)
    return set_workers


class TestWorkerPool:
    @pytest.mark.parametrize("num_worlds", [1, 2, 37])
    def test_values_independent_of_worker_count(self, small_world, pool,
                                                monkeypatch, num_worlds):
        d, ix, parts = small_world
        plan = as_scanner(ix, parts)
        count_by_size = plan.count_by_size
        threads = set()
        barrier = []

        def concurrent_count(labels):
            # Each worker's first world waits until every worker holds one.
            if threading.get_ident() not in threads:
                threads.add(threading.get_ident())
                barrier[0].wait(timeout=10)
            return count_by_size(labels)

        monkeypatch.setattr(plan, "count_by_size", concurrent_count)
        runs = []
        # More workers than CPUs and a short switch interval: a lost or
        # repeated world ticket would change the maxima.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                pool(workers)
                threads.clear()
                barrier[:] = [threading.Barrier(min(workers, num_worlds))]
                runs.append(simulate_worlds(ix, plan, 0.4, num_worlds, seed=9))
                assert len(threads) == min(workers, num_worlds)
        finally:
            sys.setswitchinterval(interval)
        for dist in runs[1:]:
            assert np.array_equal(dist.values, runs[0].values)

    def test_gate_keeps_small_worlds_serial(self, small_world, monkeypatch):
        d, ix, parts = small_world
        plan = as_scanner(ix, parts)
        assert d.N + plan.nnz < montecarlo._PARALLEL_WORK
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 4)
        count_by_size = plan.count_by_size
        threads = set()

        def record(labels):
            threads.add(threading.get_ident())
            return count_by_size(labels)

        monkeypatch.setattr(plan, "count_by_size", record)
        simulate_worlds(ix, plan, 0.4, 20, seed=9)
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("n, piece", [(100, 7), (7, 7), (5, 7), (0, 7),
                                          (70_001, 65_536)])
    def test_chunked_draw_matches_one_draw(self, n, piece):
        want = np.random.default_rng(5).random(n) < 0.3
        labels = np.full(n, 7, dtype=np.int8)
        montecarlo._draw_labels(np.random.default_rng(5), 0.3,
                                np.empty(piece), labels)
        assert labels.dtype == np.int8
        assert np.array_equal(labels, want.astype(np.int8))

    @pytest.mark.parametrize("exc", [MemoryError, KeyboardInterrupt])
    def test_failure_stops_the_other_worker(self, small_world, pool,
                                            monkeypatch, exc):
        d, ix, parts = small_world
        plan = as_scanner(ix, parts)
        rho, seed = 0.4, 12
        world5 = (np.random.default_rng(np.random.SeedSequence(seed).spawn(
            6)[5]).random(d.N) < rho).astype(np.int8)
        count_by_size = plan.count_by_size
        failed = threading.Event()
        after = []

        def failing(labels):
            if failed.is_set():
                after.append(threading.get_ident())
            if np.array_equal(labels, world5):
                failed.set()
                raise exc("world 5")
            time.sleep(0.002)
            return count_by_size(labels)

        monkeypatch.setattr(plan, "count_by_size", failing)
        pool(2)
        running = threading.active_count()
        with pytest.raises(exc, match="world 5"):
            simulate_worlds(ix, plan, rho, 200, seed=seed)
        assert failed.is_set()
        assert len(after) <= 1
        assert threading.active_count() == running


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
