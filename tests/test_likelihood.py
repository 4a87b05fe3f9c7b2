from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairscan import build_index, likelihood, scan_regions
from fairscan.likelihood import _LLR_LANES, Direction, llr_vector
from fairscan.montecarlo import draw_block, score_block
from fairscan.geometry import Region
from fairscan.regions import regular_grid
from fairscan.scanner import as_scanner
from fairscan import synth

from conftest import random_dataset, rectangles, row_regions
from oracles import (
    llr_from_counts,
    log_lik_null_max,
    oracle_llr,
    oracle_null,
    oracle_region_counts,
    random_valid_tuple,
)


@st.composite
def count_tuples(draw, max_n=500):
    N = draw(st.integers(1, max_n))
    P = draw(st.integers(0, N))
    n = draw(st.integers(0, N))
    lo = max(0, P - (N - n))
    hi = min(n, P)
    p = draw(st.integers(lo, hi))
    return n, p, N, P


class TestNullMax:
    def test_balanced(self):
        assert log_lik_null_max(10, 5) == pytest.approx(10 * math.log(0.5))

    @pytest.mark.parametrize("P", [0, 10])
    def test_degenerate_rates_are_zero(self, P):
        assert log_lik_null_max(10, P) == 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            N = int(rng.integers(1, 5000))
            P = int(rng.integers(0, N + 1))
            assert log_lik_null_max(N, P) == pytest.approx(
                oracle_null(N, P), abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            log_lik_null_max(0, 0)
        with pytest.raises(ValueError):
            log_lik_null_max(5, 6)


class TestLlrFromCounts:
    def test_proportional_split_scores_zero(self):
        assert llr_from_counts(4, 2, 10, 5) == 0.0

    def test_hand_derived_value(self):
        # n=4, p=4, N=10, P=5: inside rate 1, outside 1/6.
        want = math.log(1 / 6) + 5 * math.log(5 / 6) - 10 * math.log(0.5)
        assert llr_from_counts(4, 4, 10, 5) == pytest.approx(want, abs=1e-12)

    def test_direction_gate(self):
        assert llr_from_counts(4, 4, 10, 5, Direction.LOWER_INSIDE) == 0.0
        assert llr_from_counts(4, 4, 10, 5, Direction.HIGHER_INSIDE) == \
            llr_from_counts(4, 4, 10, 5, Direction.TWO_SIDED)
        assert llr_from_counts(4, 0, 10, 5, Direction.HIGHER_INSIDE) == 0.0
        assert llr_from_counts(4, 0, 10, 5, Direction.LOWER_INSIDE) > 0.0

    def test_empty_and_whole_space(self):
        assert llr_from_counts(0, 0, 10, 5) == 0.0
        assert llr_from_counts(10, 5, 10, 5) == 0.0

    def test_degenerate_global_rates(self):
        assert llr_from_counts(4, 4, 10, 10) == 0.0
        assert llr_from_counts(4, 0, 10, 0) == 0.0

    @pytest.mark.parametrize("args", [
        (5, 6, 10, 7),     # p > n
        (11, 2, 10, 5),    # n > N
        (4, 4, 10, 3),     # p > P
        (9, 0, 10, 5),     # n - p > N - P
        (-1, 0, 10, 5),
        (0, 0, 0, 0),
    ])
    def test_validation(self, args):
        with pytest.raises(ValueError):
            llr_from_counts(*args)

    def test_direction_accepts_string(self):
        assert llr_from_counts(4, 4, 10, 5, "two_sided") > 0


class TestOracleEquivalence:
    def test_seeded_random_tuples(self):
        rng = np.random.default_rng(42)
        for _ in range(400):
            n, p, N, P = random_valid_tuple(rng, max_n=2000)
            for direction in Direction:
                got = llr_from_counts(n, p, N, P, direction)
                want = oracle_llr(n, p, N, P, direction.value)
                assert got == pytest.approx(want, abs=1e-9), (n, p, N, P)

    @given(count_tuples())
    @settings(max_examples=300)
    def test_hypothesis_tuples(self, tup):
        n, p, N, P = tup
        got = llr_from_counts(n, p, N, P)
        assert got == pytest.approx(oracle_llr(n, p, N, P), abs=1e-9)


class TestInvariants:
    @given(count_tuples())
    @settings(max_examples=300)
    def test_non_negative(self, tup):
        n, p, N, P = tup
        for direction in Direction:
            assert llr_from_counts(n, p, N, P, direction) >= 0.0

    @given(count_tuples())
    @settings(max_examples=300)
    def test_region_complement_symmetry_exact(self, tup):
        # Swapping inside and outside leaves the two-sided score unchanged,
        # bit for bit.
        n, p, N, P = tup
        assert llr_from_counts(n, p, N, P) == llr_from_counts(
            N - n, P - p, N, P)

    @given(count_tuples())
    @settings(max_examples=300)
    def test_label_complement_symmetry_exact(self, tup):
        # Flipping every label (p -> n-p, P -> N-P) preserves the two-sided
        # score exactly and swaps the one-sided directions.
        n, p, N, P = tup
        assert llr_from_counts(n, p, N, P) == llr_from_counts(
            n, n - p, N, N - P)
        assert llr_from_counts(n, p, N, P, Direction.HIGHER_INSIDE) == \
            llr_from_counts(n, n - p, N, N - P, Direction.LOWER_INSIDE)

    @given(st.integers(1, 40), st.integers(2, 12))
    def test_zero_at_proportionality(self, n_base, mult):
        # (n, p, n*m, p*m) always splits the positives proportionally.
        n = n_base
        for p in range(n + 1):
            assert llr_from_counts(n, p, n * mult, p * mult) == 0.0

    @given(count_tuples())
    @settings(max_examples=300)
    def test_direction_decomposition(self, tup):
        n, p, N, P = tup
        two = llr_from_counts(n, p, N, P, Direction.TWO_SIDED)
        hi = llr_from_counts(n, p, N, P, Direction.HIGHER_INSIDE)
        lo = llr_from_counts(n, p, N, P, Direction.LOWER_INSIDE)
        assert two == max(hi, lo)
        assert min(hi, lo) == 0.0

    def test_unimodal_in_p_small_exhaustive(self):
        # Moving p away from the proportional value never lowers the score.
        for N in range(1, 13):
            for P in range(N + 1):
                for n in range(1, N):
                    lo = max(0, P - (N - n))
                    hi = min(n, P)
                    ps = np.arange(lo, hi + 1)
                    if len(ps) < 2:
                        continue
                    vals = llr_vector(np.full(len(ps), n), ps, N, P)
                    cross = ps * N - n * P
                    for j in range(len(ps) - 1):
                        if cross[j] >= 0:   # at or above proportionality
                            assert vals[j + 1] >= vals[j] - 1e-12
                        if cross[j + 1] <= 0:  # below proportionality
                            assert vals[j] >= vals[j + 1] - 1e-12


class TestLlrVector:
    def test_matches_scalar(self):
        rng = np.random.default_rng(7)
        tuples = [random_valid_tuple(rng, max_n=300) for _ in range(50)]
        for direction in Direction:
            for n, p, N, P in tuples:
                vec = llr_vector(np.array([n]), np.array([p]), N, P, direction)
                assert vec[0] == llr_from_counts(n, p, N, P, direction)

    def test_vectorized_batch(self):
        N, P = 100, 40
        n = np.array([0, 100, 10, 10, 50])
        p = np.array([0, 40, 4, 10, 0])
        out = llr_vector(n, p, N, P)
        assert out[0] == 0.0        # empty region
        assert out[1] == 0.0        # whole space
        assert out[2] == 0.0        # proportional: 4/10 == 36/90
        assert out[3] > 0.0
        assert out[4] > 0.0
        assert out.dtype == np.float64

    @pytest.mark.parametrize("direction", list(Direction))
    def test_slices_change_no_bit(self, monkeypatch, direction):
        # The scan's (R,) counts, a block's (2 * sizes, B) extremes and
        # score_block's maxima, in slices of 1, 7, 40 and _LLR_LANES lanes,
        # against one scalar call per lane.
        d = random_dataset(np.random.default_rng(9), 2000)
        ix = build_index(d)
        plan = as_scanner(ix, regular_grid(d.bbox, 10, 10))
        labels = np.zeros((plan.width, 16), dtype=plan.dtype)
        positives = draw_block(0.3, 4, 0, labels[:d.N], np.empty(d.N))
        extremes = np.empty((2 * len(plan.sizes), 16), dtype=plan.dtype)
        plan.extremes(labels, extremes)
        sizes = np.tile(plan.sizes, 2)[:, None]

        def one_lane(n, p, P):
            out = llr_vector(int(n), int(p), d.N, int(P), direction)
            assert np.ndim(out) == 0 and out.dtype == np.float64
            return out

        scan = [one_lane(n, p, d.P) for n, p in zip(
            plan.n, plan.positives(ix.labels))]
        block = [[one_lane(s, c, P) for c, P in zip(row, positives)]
                 for s, row in zip(sizes[:, 0], extremes)]
        for lanes in (1, 7, 40, _LLR_LANES):
            monkeypatch.setattr(likelihood, "_LLR_LANES", lanes)
            assert scan_regions(ix, plan, direction)[0].llr.tolist() == scan
            got = llr_vector(sizes, extremes, d.N, positives, direction)
            assert got.tolist() == block
            assert score_block(plan.sizes, extremes, d.N, positives,
                               direction).tolist() == np.max(
                                   block, axis=0, initial=0.0).tolist()


class TestScanRegions:
    def test_whole_space_scores_zero(self, split400, split400_index):
        scored, tau = scan_regions(split400_index,
                                   rectangles([split400.bbox]))
        assert len(scored) == 1
        assert scored.llr[0] == 0.0
        assert tau == 0.0

    def test_split_partitioning_finds_left_half(self):
        d = synth.gen_uniform_split(10000, seed=1)
        ix = build_index(d)
        part = regular_grid(d.bbox, 2, 1)
        scored, tau = scan_regions(ix, [part])
        assert scored.n[0] == 5000
        assert scored.p[0] == 3333
        want = llr_from_counts(5000, 3333, 10000, 5000)
        assert scored.llr[0] == pytest.approx(want)
        assert scored.llr[0] > 0
        assert tau == scored.llr.max()

    def test_order_preserved_and_counts_match_range_count(self, split400,
                                                          split400_index):
        rng = np.random.default_rng(3)
        regions = []
        for _ in range(25):
            x1, x2 = np.sort(rng.uniform(0, 1, 2))
            y1, y2 = np.sort(rng.uniform(0, 1, 2))
            regions.append(Region(x1, y1, x2, y2))
        scored, tau = scan_regions(split400_index, rectangles(regions))
        assert row_regions(scored) == regions
        assert scored.p_value is None
        for r, n, p in zip(regions, scored.n.tolist(), scored.p.tolist()):
            assert (n, p) == oracle_region_counts(
                r, split400.lons, split400.lats, split400.outcomes,
                split400.bbox)
        assert tau == scored.llr.max()

    def test_empty_candidate_list(self, split400_index):
        scored, tau = scan_regions(split400_index, [])
        assert len(scored) == 0 and tau == 0.0

    def test_slices_of_lanes_bound_the_scratch(self):
        # 400,000 grid cells: 48 full slices of lanes and a short one.
        d = random_dataset(np.random.default_rng(4), 20_000)
        ix = build_index(d)
        plan = as_scanner(ix, regular_grid(d.bbox, 800, 500))
        tracemalloc.start()
        try:
            scored, tau = scan_regions(ix, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(scored.llr,
                              llr_vector(plan.n, scored.p, d.N, d.P))
        assert tau == scored.llr.max() > 0
        # Kept: int64 positives and float64 scores; passing through: the
        # counts by size (int16 here). 20 bytes a lane, and the scoring
        # scratch of one slice of lanes, about 8 * _LLR_LANES float64
        # values.
        assert peak < 20 * len(plan.n) + 128 * _LLR_LANES
