from __future__ import annotations

import itertools
import json
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fairscan import build_index, likelihood, montecarlo, scanner
from fairscan.geometry import Region
from fairscan.likelihood import (
    Direction,
    ScanResult,
    llr_vector,
    scan_regions,
)
from fairscan.montecarlo import (
    MaxStatDistribution,
    critical_value,
    global_p_value,
    significant_regions,
    simulate_worlds,
)
from fairscan.pipeline import _evidence_json
from fairscan.regions import (
    Rectangles,
    random_partitionings,
    regular_grid,
    square_scan_set,
)
from fairscan.scanner import as_scanner
from fairscan.synth import gen_fair_bernoulli, gen_uniform_split

from conftest import (make_dataset, random_dataset, rectangles, row_regions,
                      written_json)
from oracles import (distribution_from_json, oracle_audit, oracle_llr,
                     oracle_region_counts)


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
        # The same maxima world by world from the three calls, on blocks of
        # up to the plan's worlds with a short last block.
        got = []
        for first in range(0, 80, plan.worlds):
            worlds = min(plan.worlds, 80 - first)
            block = np.empty((plan.width, worlds), dtype=plan.dtype)
            extremes = np.empty((2 * len(plan.sizes), worlds), plan.dtype)
            positives = montecarlo.draw_block(0.3, 11, first, block[:d.N],
                                              np.empty(d.N))
            plan.extremes(block, extremes)
            got.extend(montecarlo.score_block(plan.sizes, extremes, d.N,
                                              positives, direction))
        assert plan.worlds < 80 and 80 % plan.worlds
        assert np.array_equal(got, want)

    def test_direction_recorded(self, small_world):
        d, ix, parts = small_world
        dist = simulate_worlds(ix, parts, 0.5, 10, seed=6,
                               direction=Direction.HIGHER_INSIDE)
        assert dist.direction is Direction.HIGHER_INSIDE

    @pytest.mark.parametrize("rho", [0.0, 1.0])
    def test_degenerate_rho_gives_zero_maxima(self, small_world, rho):
        # Every world at rate 0 or 1 is the data itself: each max is 0.
        d, ix, parts = small_world
        dist = simulate_worlds(ix, parts, rho, 10, seed=7,
                               direction=Direction.LOWER_INSIDE)
        assert dist.values.tolist() == [0.0] * 10
        assert dist.seed == 7
        assert dist.direction is Direction.LOWER_INSIDE

    def test_rho_outside_unit_interval_rejected(self, small_world):
        d, ix, parts = small_world
        for rho in (-0.1, 1.5, float("nan")):
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
        fair = gen_fair_bernoulli(np.column_stack((d.lons, d.lats)), 0.5,
                                  seed=41)
        ix = build_index(fair)
        parts = random_partitionings(fair.bbox, 20, 2, 8, seed=42)
        from fairscan.likelihood import scan_regions
        _, tau = scan_regions(ix, parts)
        dist = simulate_worlds(ix, parts, fair.rho, 99, seed=43)
        p = global_p_value(tau, dist)
        assert p > 0.05


@pytest.fixture
def pool(monkeypatch):
    """Set the worker count, the block size and the band cap in rows (None
    for the default), with the gates forced open: helpers start after any
    first block. Plans built afterwards use the block size; every later
    count uses the band cap."""
    band_values = scanner._BAND_VALUES

    def set_pool(workers: int, block: int = 1, band: int | None = None
                 ) -> None:
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: workers)
        monkeypatch.setattr(montecarlo, "_HELPER_BLOCK_S", 0.0)
        monkeypatch.setattr(scanner, "_BLOCK_WORLDS", block)
        monkeypatch.setattr(scanner, "_BLOCK_BYTES", sys.maxsize)
        monkeypatch.setattr(scanner, "_BAND_VALUES",
                            band_values if band is None else band * block)
    return set_pool


class TestWorkerPool:
    @pytest.mark.parametrize("num_worlds", [1, 2, 37])
    def test_values_independent_of_worker_count(self, small_world, pool,
                                                monkeypatch, num_worlds):
        d, ix, parts = small_world
        calls = {}
        barrier = []
        runs = []
        main = threading.get_ident()
        # More workers than CPUs and a short switch interval: a lost or
        # repeated block ticket would change the maxima.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                pool(workers)
                plan = as_scanner(ix, parts)
                extremes = plan.extremes

                def concurrent_extremes(block, out, extremes=extremes):
                    # This thread's second block and each helper's first
                    # wait until every worker holds one.
                    me = threading.get_ident()
                    calls[me] = calls.get(me, 0) + 1
                    if calls[me] == 1 + (me == main):
                        barrier[0].wait(timeout=10)
                    extremes(block, out)

                monkeypatch.setattr(plan, "extremes", concurrent_extremes)
                calls.clear()
                # Helpers start after this thread's first block, so a
                # two-block run may end before a helper takes a ticket.
                parties = max(1, min(workers, num_worlds - 1))
                barrier[:] = [threading.Barrier(parties)]
                runs.append(simulate_worlds(ix, plan, 0.4, num_worlds, seed=9))
                assert sum(calls.values()) == num_worlds
                if num_worlds == 2:
                    assert len(calls) in {1, 2} and main in calls
                else:
                    assert len(calls) == min(workers, num_worlds)
        finally:
            sys.setswitchinterval(interval)
        for dist in runs[1:]:
            assert np.array_equal(dist.values, runs[0].values)

    @pytest.mark.parametrize("num_worlds", [1, 2, 37])
    def test_values_independent_of_block_size(self, small_world, pool,
                                              monkeypatch, num_worlds):
        # Squares with interior runs, so every block also fills the
        # running-sum rows; a short last block must score only its worlds.
        d, ix, parts = small_world
        family = [*parts, rectangles(
            [Region(x, y, x + 0.45, y + 0.45)
             for x in (0.05, 0.3, 0.5) for y in (0.1, 0.4)])]
        scored = []

        def planned():
            plan = as_scanner(ix, family)
            extremes = plan.extremes

            def record(block, out):
                scored.append(block.shape[1])
                extremes(block, out)

            monkeypatch.setattr(plan, "extremes", record)
            return plan

        pool(1, 1)
        want = simulate_worlds(ix, planned(), 0.4, num_worlds, seed=9).values
        # Bands of 1 and 7 rows split size classes across bands.
        for block, workers, band in itertools.product(
                (1, 2, 3, 8, 32), (1, 2), (1, 7, None)):
            pool(workers, block, band)
            plan = planned()
            assert plan.width == 2 * d.N + 1 and plan.worlds == block
            scored.clear()
            got = simulate_worlds(ix, plan, 0.4, num_worlds, seed=9)
            assert np.array_equal(got.values, want)
            assert sum(scored) == num_worlds
            assert max(scored) == min(block, num_worlds)

    def test_gate_keeps_small_worlds_serial(self, small_world, pool,
                                            monkeypatch):
        # Helpers start only after a first block that took the threshold.
        d, ix, parts = small_world
        pool(4)
        for threshold, helpers in ((np.inf, False), (0.0, True)):
            monkeypatch.setattr(montecarlo, "_HELPER_BLOCK_S", threshold)
            plan = as_scanner(ix, parts)
            extremes = plan.extremes
            threads = set()

            def record(block, out, extremes=extremes, threads=threads):
                threads.add(threading.get_ident())
                time.sleep(0.001)
                extremes(block, out)

            monkeypatch.setattr(plan, "extremes", record)
            simulate_worlds(ix, plan, 0.4, 20, seed=9)
            assert threading.get_ident() in threads
            assert (len(threads) > 1) == helpers

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block", [1, 3, 32])
    def test_three_calls_per_block(self, small_world, pool, monkeypatch,
                                   block, workers):
        # Each block is one draw_block, one CountPlan.extremes and one
        # score_block call, each over all of the block's worlds; wrapping
        # them changes no value.
        d, ix, parts = small_world
        pool(workers, block)
        want = simulate_worlds(ix, parts, 0.4, 37, seed=9).values
        calls = {"draw": [], "count": [], "score": []}

        def counted(name, fn, worlds):
            def wrapper(*args):
                calls[name].append(worlds(*args))
                return fn(*args)
            return wrapper

        monkeypatch.setattr(montecarlo, "draw_block", counted(
            "draw", montecarlo.draw_block, lambda *a: a[3].shape[1]))
        monkeypatch.setattr(scanner.CountPlan, "extremes", counted(
            "count", scanner.CountPlan.extremes, lambda *a: a[1].shape[1]))
        monkeypatch.setattr(montecarlo, "score_block", counted(
            "score", montecarlo.score_block, lambda *a: len(a[3])))
        got = simulate_worlds(ix, parts, 0.4, 37, seed=9).values
        assert np.array_equal(got, want)
        blocks = [block] * (37 // block) + [37 % block] * bool(37 % block)
        for worlds in calls.values():
            assert sorted(worlds, reverse=True) == blocks

    @pytest.mark.parametrize("n, piece", [(100, 7), (7, 7), (5, 7), (0, 7),
                                          (70_001, 65_536)])
    def test_chunked_draw_matches_one_draw(self, n, piece):
        # World first + b lands in column b of the block's label rows, as
        # one full draw from its own stream, and nowhere else.
        for worlds, first in itertools.product((1, 3, 32), (0, 5)):
            block = np.full((n + 2, worlds + 2), 7, dtype=np.int32)
            positives = montecarlo.draw_block(0.3, 5, first,
                                              block[:n, 1:worlds + 1],
                                              np.empty(piece))
            want = np.column_stack([
                np.random.default_rng(np.random.SeedSequence(
                    5, spawn_key=(first + b,))).random(n) < 0.3
                for b in range(worlds)]).reshape(n, worlds)
            assert block.dtype == np.int32 and positives.dtype == np.int64
            assert np.array_equal(block[:n, 1:worlds + 1],
                                  want.astype(np.int32))
            assert positives.tolist() == want.sum(axis=0).tolist()
            block[:n, 1:worlds + 1] = 7
            assert (block == 7).all()

    @pytest.mark.parametrize("exc, side", [
        (MemoryError, "caller"), (KeyboardInterrupt, "caller"),
        (MemoryError, "helper"), (KeyboardInterrupt, "helper")],
        ids=["MemoryError", "KeyboardInterrupt", "MemoryError-helper",
             "KeyboardInterrupt-helper"])
    def test_failure_stops_the_other_worker(self, small_world, pool,
                                            monkeypatch, exc, side):
        # The calling thread fails on its second block, once the helper
        # runs, or the helper fails on the first block it takes.
        _, ix, parts = small_world
        pool(2, 2)
        plan = as_scanner(ix, parts)
        extremes = plan.extremes
        main = threading.get_ident()
        failed = threading.Event()
        calls, raised, after = [], [], []

        def failing(block, out):
            me = threading.get_ident()
            if failed.is_set():
                after.append(me)
            calls.append(me)
            if ((side == "caller" and calls.count(main) == 2 and me == main)
                    or (side == "helper" and me != main)):
                raised.append(me)
                failed.set()
                raise exc(f"{side} failed")
            time.sleep(0.002)
            extremes(block, out)

        monkeypatch.setattr(plan, "extremes", failing)
        running = threading.active_count()
        with pytest.raises(exc, match=f"{side} failed"):
            simulate_worlds(ix, plan, 0.4, 200, seed=12)
        assert failed.is_set()
        assert len(raised) == 1
        assert (raised[0] == main) == (side == "caller")
        assert len(after) <= 1
        assert threading.active_count() == running


class TestBlockMemory:
    def test_one_block_grows_linearly(self):
        # One block of _BLOCK_WORLDS over squares with interior runs, on one
        # thread: the block's labels and running sums, one band of counts,
        # the float64 scores of its size extremes and the scoring scratch of
        # one slice of _LLR_LANES lanes, about 16 float64 values a lane.
        squares = square_scan_set(np.random.default_rng(1).random((100, 2)),
                                  np.linspace(0.02, 0.4, 20))
        peaks = []
        for n in (100_000, 200_000):
            ix = build_index(random_dataset(np.random.default_rng(0), n))
            with mock.patch.object(scanner, "_BLOCK_BYTES", sys.maxsize):
                plan = as_scanner(ix, squares)
            item, worlds = plan.dtype.itemsize, plan.worlds
            assert worlds == scanner._BLOCK_WORLDS
            scratch = (item * worlds * plan.width
                       + item * scanner._BAND_VALUES
                       + 8 * worlds * 2 * len(plan.sizes)
                       + 16 * 8 * likelihood._LLR_LANES)
            with mock.patch.object(montecarlo, "_cpu_count", lambda: 1):
                tracemalloc.start()
                try:
                    simulate_worlds(ix, plan, 0.4, worlds, seed=1)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak < scratch + (1 << 20)
            peaks.append(peak)
        assert peaks[1] <= 2.05 * peaks[0]


class TestCountWidth:
    """Plans count in int16 up to 32,767 points and in int32 beyond."""

    @pytest.mark.parametrize("n, dtype", [(32_767, np.int16),
                                          (32_768, np.int32)])
    def test_matches_oracles_at_the_switch(self, n, dtype):
        # Squares that overhang the box and one that nearly fills it: their
        # interior runs read running sums up to N.
        rng = np.random.default_rng(62)
        xs, ys = rng.random(n), rng.random(n)
        xs[:2] = ys[:2] = (0.0, 1.0)
        d = make_dataset(xs, ys, (rng.random(n) < 0.9).astype(np.int8))
        ix = build_index(d)
        plan = as_scanner(ix, square_scan_set(np.array([[0.5, 0.5]]),
                                              [0.98, 1.5, 3.0]))
        regions = row_regions(plan)
        assert plan.dtype == dtype
        ones = np.ones(n, dtype=np.int8)
        block = np.zeros((plan.width, 1), dtype=plan.dtype)
        block[:n, 0] = ones
        plan.extremes(block, np.empty((2 * len(plan.sizes), 1), plan.dtype))
        assert block[-1, 0] == n
        assert [(int(c), int(p)) for c, p in zip(plan.n, plan.positives(
            ones))] == [oracle_region_counts(r, xs, ys, ones, d.bbox)
                        for r in regions]
        count, positives, tau, maxima = oracle_audit(
            regions, xs, ys, d.outcomes, d.bbox, 0.9, 2, 5)
        scored, got_tau = scan_regions(ix, plan)
        assert scored.n.tolist() == count
        assert scored.p.tolist() == positives
        assert abs(got_tau - tau) <= 1e-9
        dist = simulate_worlds(ix, plan, 0.9, 2, seed=5)
        assert np.abs(dist.values - maxima).max() <= 1e-9


class TestGlobalPValue:
    def dist(self, values, w):
        d = MaxStatDistribution(
            values=np.asarray(sorted(values, reverse=True), dtype=np.float64),
            seed=0, direction=Direction.TWO_SIDED)
        assert d.w == w
        return d

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

    def test_array_of_scores(self):
        # Ties with the simulated maxima, scores past both ends, and the
        # values of the count over w, bit for bit.
        d = self.dist([1.0, 2.0, 2.0, 3.0, 0.0, 0.0], 7)
        taus = [-1.0, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 4.0]
        ps = global_p_value(np.array(taus), d)
        assert ps.dtype == np.float64
        assert ps.tolist() == [global_p_value(t, d) for t in taus]
        assert ps.tolist() == [(1 + int((d.values >= t).sum())) / 7
                               for t in taus]
        assert type(global_p_value(2.0, d)) is float


class TestCriticalValue:
    def dist(self, values, w):
        d = MaxStatDistribution(
            values=np.asarray(sorted(values, reverse=True), dtype=np.float64),
            seed=0, direction=Direction.TWO_SIDED)
        assert d.w == w
        return d

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
    return ScanResult(bounds, np.full(len(cx), None, dtype=object), n, p,
                      llr.astype(np.float64))


def item(llr, n=10, p=5, cx=0.0):
    return (llr, n, p, cx)


# w = 5: a score s earns (1 + #{values >= s}) / 5.
DIST = MaxStatDistribution(values=np.asarray([5.0, 4.0, 3.0, 2.0]), seed=0,
                           direction=Direction.TWO_SIDED)


class TestSignificantRegions:
    def test_strictly_above_cutoff(self):
        items = scored(item(1.0), item(2.0), item(3.0))
        out = significant_regions(items, 2.0, DIST)
        assert out.llr.tolist() == [3.0]

    def test_sorted_descending(self):
        items = scored(item(1.5, cx=0), item(4.0, cx=2), item(2.5, cx=4))
        out = significant_regions(items, 1.0, DIST)
        assert out.llr.tolist() == [4.0, 2.5, 1.5]

    def test_empty_regions_excluded(self):
        items = scored(item(5.0, n=0, p=0), item(3.0))
        out = significant_regions(items, 1.0, DIST)
        assert out.llr.tolist() == [3.0]

    def test_stable_tie_order(self):
        out = significant_regions(
            scored(item(2.0, cx=0.0), item(2.0, cx=5.0)), 1.0, DIST)
        assert out.bounds[:, 0].tolist() == [0.0, 5.0]

    def test_p_value_annotation(self):
        assert DIST.w == 5
        out = significant_regions(scored(item(4.5)), 0.0, DIST)
        assert out.p_value.tolist() == [2 / 5]

    def test_no_rows_write_no_json(self, tmp_path):
        # A fair verdict's cutoff keeps nothing; a plain empty list, which
        # the benchmark passes for a fair verdict, writes the same.
        out = significant_regions(scored(item(4.5)), np.inf, DIST)
        assert len(out) == 0 and out.p_value.tolist() == []
        path = tmp_path / "rows.json"
        assert written_json(path, {"rows": _evidence_json(out)}) == \
            written_json(path, {"rows": _evidence_json([])}) == \
            '{\n  "rows": []\n}\n'

    def test_negative_cutoff_keeps_all_nonempty(self):
        items = scored(item(0.0), item(1.0), item(2.0, n=0, p=0))
        out = significant_regions(items, -1.0, DIST)
        assert len(out) == 2

    def test_evidence_fields(self, tmp_path):
        out = significant_regions(scored(item(3.0, n=8, p=6, cx=2.0)), 0.0,
                                  DIST)
        assert row_regions(out) == [Region(2.0, 0.0, 3.0, 1.0)]
        assert (out.n.tolist(), out.p.tolist()) == ([8], [6])
        row = json.loads(written_json(tmp_path / "rows.json", {
            "rows": _evidence_json(out)}))["rows"][0]
        assert (row["n"], row["p"], row["rho"]) == (8, 6, 0.75)
        assert row["p_value"] == 4 / 5


class TestDistributionSerialization:
    def test_json_round_trip(self):
        dist = MaxStatDistribution(
            values=np.asarray([3.5, 2.0, 0.0]), seed=17,
            direction=Direction.LOWER_INSIDE)
        doc = dist.to_json_dict()
        assert doc["schema"] == 1
        back = distribution_from_json(doc)
        assert np.array_equal(back.values, dist.values)
        assert back.w == 4
        assert back.seed == 17
        assert back.direction is Direction.LOWER_INSIDE


# Coordinates on a 1/8 lattice land on the inner bounds of grids with 1, 2,
# 4 or 8 cells per axis, on index-cell bounds, and on the box's max edges,
# and repeat, giving duplicate locations.
_LATTICE = [i / 8 for i in range(9)]
_coord = st.one_of(st.sampled_from(_LATTICE),
                   st.floats(0.0, 1.0, allow_nan=False))
# Region-file bounds: the lattice plus values that overhang the unit box or
# lie wholly outside it.
_file_coord = st.sampled_from(_LATTICE + [-0.5, -0.125, 1.125, 1.5, 3.0])


@st.composite
def _file_rectangles(draw):
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        x0, x1 = sorted(draw(st.lists(_file_coord, min_size=2, max_size=2)))
        y0, y1 = sorted(draw(st.lists(_file_coord, min_size=2, max_size=2)))
        if draw(st.booleans()):
            x1 = x0          # zero width
        rows.append((x0, y0, x1, y1))
    return rows


@st.composite
def _audits(draw):
    n = draw(st.integers(2, 60))
    xs = [0.0, 1.0] + draw(st.lists(_coord, min_size=n - 2, max_size=n - 2))
    ys = [0.0, 1.0] + draw(st.lists(_coord, min_size=n - 2, max_size=n - 2))
    outcomes = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    kinds = draw(st.lists(st.sampled_from(["grid", "random", "squares",
                                           "file"]), min_size=1, max_size=3))
    specs = []
    for kind in kinds:
        if kind == "grid":
            specs.append((kind, draw(st.sampled_from([1, 2, 4, 8])),
                          draw(st.sampled_from([1, 2, 4, 8]))))
        elif kind == "random":
            specs.append((kind, draw(st.integers(0, 2 ** 32 - 1))))
        elif kind == "squares":
            centers = draw(st.lists(st.tuples(_coord, _coord), min_size=1,
                                    max_size=3))
            sides = draw(st.lists(st.sampled_from([0.125, 0.3, 0.5, 0.75,
                                                   2.0]),
                                  min_size=1, max_size=3))
            specs.append((kind, centers, sides))
        else:
            specs.append((kind, draw(_file_rectangles())))
    return dict(
        xs=xs, ys=ys, outcomes=outcomes, specs=specs,
        resolution=draw(st.sampled_from([8, 5, 3, 1])),
        rho=draw(st.sampled_from([0.1, 0.3, 0.5, 0.8])),
        worlds=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        direction=draw(st.sampled_from(list(Direction))),
        workers=draw(st.sampled_from([1, 2])),
        block=draw(st.sampled_from([1, 3])),
        band=draw(st.sampled_from([1, 7, None])),
    )


def _family(spec, bbox):
    kind = spec[0]
    if kind == "grid":
        return [regular_grid(bbox, spec[1], spec[2])]
    if kind == "random":
        return random_partitionings(bbox, 2, 1, 3, seed=spec[1])
    if kind == "squares":
        return [square_scan_set(np.array(spec[1]), spec[2])]
    return [Rectangles(np.array(spec[1]).reshape(-1, 4),
                       np.full(len(spec[1]), None, dtype=object))]


_rng = np.random.default_rng(61)
# Every family kind at once on many index columns: many interior runs, scored
# in blocks of 3 on two workers with a short last block.
_RUNS_CASE = dict(
    xs=[0.0, 1.0] + _rng.choice(_LATTICE, 58).tolist(),
    ys=[0.0, 1.0] + _rng.random(58).tolist(),
    outcomes=_rng.integers(0, 2, 60).tolist(),
    specs=[("grid", 4, 2), ("random", 5),
           ("squares", [(0.5, 0.5), (0.25, 0.75)], [0.3, 0.5, 0.75]),
           ("file", [(-0.5, 0.125, 0.875, 1.5), (0.25, 0.25, 0.25, 0.75),
                     (1.125, 0.0, 3.0, 1.0), (0.125, 0.125, 0.875, 0.875)])],
    resolution=8, rho=0.3, worlds=40, seed=7,
    direction=Direction.TWO_SIDED, workers=2, block=3, band=7)


class TestOracleAudit:
    """The real scan, the simulated maxima and the evidence against a
    brute-force audit."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_audits())
    @example(case=_RUNS_CASE)
    def test_matches_brute_force(self, case):
        d = make_dataset(case["xs"], case["ys"], case["outcomes"])
        ix = build_index(d, case["resolution"])
        family = [f for spec in case["specs"] for f in _family(spec, d.bbox)]
        with mock.patch.multiple(scanner, _BLOCK_WORLDS=case["block"],
                                 _BLOCK_BYTES=sys.maxsize):
            plan = as_scanner(ix, family)
        regions = row_regions(plan)
        if case is _RUNS_CASE:
            assert plan.width == 2 * d.N + 1
        n, p, tau, maxima = oracle_audit(
            regions, d.lons, d.lats, d.outcomes, d.bbox, case["rho"],
            case["worlds"], case["seed"], case["direction"].value)
        scored, got_tau = scan_regions(ix, plan, case["direction"])
        assert scored.n.tolist() == n
        assert scored.p.tolist() == p
        assert abs(got_tau - tau) <= 1e-9
        band = case["band"]
        with (mock.patch.multiple(montecarlo, _HELPER_BLOCK_S=0.0,
                                  _cpu_count=lambda: case["workers"]),
              mock.patch.object(scanner, "_BAND_VALUES",
                                band * case["block"] if band
                                else scanner._BAND_VALUES)):
            dist = simulate_worlds(ix, plan, case["rho"], case["worlds"],
                                   case["seed"], case["direction"])
        assert np.abs(dist.values - maxima).max() <= 1e-9
        # A simulated max within 1e-9 of tau may rank either side of it.
        maxima = np.array(maxima)
        near = np.abs(maxima - tau) <= 1e-9
        k = round(global_p_value(got_tau, dist) * dist.w) - 1
        assert (maxima[~near] >= tau).sum() <= k
        assert k <= (maxima >= tau - 1e-9).sum()

        def score(a, b):
            return oracle_llr(a, b, d.N, d.P, case["direction"].value)

        for cutoff in (critical_value(dist, 0.5), 0.0):
            _check_evidence(significant_regions(scored, cutoff, dist),
                            regions, n, p, score, cutoff, maxima, dist.w)


def _check_evidence(ev, regions, n, p, score, cutoff, maxima, w):
    """Evidence against the oracle: the rows with n > 0 and an oracle score
    above the cutoff, in score order, each with its own p-value.

    A score within 1e-9 of the cutoff, or of a simulated max, may fall on
    either side of it. Zero is exact in both (their gates compare rates
    exactly), so a zero score is never above a zero cutoff.
    """
    def near(llr):
        return abs(llr - cutoff) <= 1e-9 and not llr == cutoff == 0.0

    want = sorted((r.bounds(), r.center_id or "", a, b)
                  for r, a, b in zip(regions, n, p)
                  if a > 0 and score(a, b) > cutoff and not near(score(a, b)))
    got = [(r.bounds(), r.center_id or "", a, b) for r, a, b in
           zip(row_regions(ev), ev.n.tolist(), ev.p.tolist())]
    llrs = [score(a, b) for *_, a, b in got]
    assert sorted(row for row, llr in zip(got, llrs) if not near(llr)) == want
    assert all(a >= b - 1e-9 for a, b in zip(llrs, llrs[1:]))
    for llr, p_value in zip(llrs, ev.p_value.tolist()):
        k = round(p_value * w)
        assert p_value == k / w
        assert 1 + (maxima[np.abs(maxima - llr) > 1e-9] >= llr).sum() <= k
        assert k <= 1 + (maxima >= llr - 1e-9).sum()
