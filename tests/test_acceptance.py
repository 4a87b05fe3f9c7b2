"""Acceptance gate: one test per criterion, run with -v for the checklist."""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np
import pytest

from fairscan import (
    AuditConfig,
    Direction,
    Region,
    build_index,
    llr_vector,
    run_audit,
    run_meanvar,
)
from fairscan.montecarlo import MaxStatDistribution, global_p_value
from fairscan.pipeline import export_report
from fairscan.regions import random_partitionings
from fairscan.synth import (
    DEFAULT_RECT,
    gen_fair_bernoulli,
    gen_planted,
    gen_uniform_split,
)

from conftest import (cell_regions, make_dataset, plan_counts, random_dataset,
                      row_regions)
from oracles import (
    gen_clustered_locations,
    jaccard,
    llr_from_counts,
    oracle_llr,
    oracle_region_counts,
    random_valid_tuple,
)


def test_criterion_1_llr_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n, p, N, P = random_valid_tuple(rng, max_n=10000)
        got = llr_from_counts(n, p, N, P)
        want = oracle_llr(n, p, N, P)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_hand_derived_value():
    got = llr_from_counts(4, 4, 10, 5, Direction.TWO_SIDED)
    want = math.log((1 / 6) * (5 / 6) ** 5) - 10 * math.log(1 / 2)
    assert abs(got - want) <= 1e-6
    # The closed form evaluates to 4.22810455...; quoting it to four
    # decimals is display-level only.
    assert got == pytest.approx(4.2281, abs=1e-4)


def test_criterion_3_split_unfair_fair_verdicts():
    unfair_hits = 0
    fair_hits = 0
    for s in range(10):
        d = gen_uniform_split(10000, seed=100 + s)
        cfg = AuditConfig(random_parts=100, splits=(10, 40),
                          num_worlds=1000, alpha=0.005, seed=s)
        t0 = time.perf_counter()
        report = run_audit(d, cfg)
        assert time.perf_counter() - t0 < 120.0
        unfair_hits += int(not report.verdict.fair)

        fair_d = gen_fair_bernoulli(d.points, 0.5, seed=500 + s)
        fair_cfg = AuditConfig(random_parts=100, splits=(10, 40),
                               num_worlds=1000, alpha=0.005, seed=s)
        fair_hits += int(run_audit(fair_d, fair_cfg).verdict.fair)
    assert unfair_hits == 10
    assert fair_hits >= 9


def test_criterion_4_meanvar_ordering():
    wins = 0
    for s in range(10):
        locs = gen_clustered_locations(10000, DEFAULT_RECT, seed=300 + s)
        outcomes = np.zeros(10000, dtype=np.int8)
        picks = np.random.default_rng(400 + s).choice(10000, size=5000,
                                                      replace=False)
        outcomes[picks] = 1  # exactly P = 5000, independent of location
        fair_clustered = make_dataset(locs[:, 0], locs[:, 1], outcomes)
        unfair_uniform = gen_uniform_split(10000, DEFAULT_RECT,
                                           seed=500 + s)
        assert unfair_uniform.P == 5000
        cfg = AuditConfig(random_parts=100, splits=(10, 40), seed=s)
        mv_fair = run_meanvar(fair_clustered, cfg).mean_var
        mv_unfair = run_meanvar(unfair_uniform, cfg).mean_var
        wins += int(mv_fair > mv_unfair)
    assert wins >= 8


def test_criterion_5_planted_region_recovery():
    rect = Region(0.0, 0.0, 10.0, 10.0)
    plant = Region(3.7, 2.9, 5.3, 4.5)  # 1.6 sides, ~512 expected points
    hits = 0
    for s in range(10):
        d = gen_planted(20000, rect, plant, 0.5, 0.8, seed=700 + s)
        cfg = AuditConfig(squares_centers=100, num_worlds=1000,
                          alpha=0.005, seed=s)
        report = run_audit(d, cfg)
        if report.verdict.fair or not report.non_overlapping:
            continue
        top = row_regions(report.non_overlapping)[0]
        hits += int(jaccard(top, plant) >= 0.3)
    assert hits >= 9


def test_criterion_6_calibration():
    start = time.perf_counter()
    rejections = 0
    trials = 200
    for t in range(trials):
        locs = np.random.default_rng(9000 + t).random((500, 2))
        d = gen_fair_bernoulli(locs, 0.5, seed=100 + t)
        cfg = AuditConfig(random_parts=10, splits=(10, 40),
                          num_worlds=200, alpha=0.05, seed=t)
        rejections += int(not run_audit(d, cfg).verdict.fair)
    rate = rejections / trials
    assert 0.01 <= rate <= 0.10
    assert time.perf_counter() - start < 600.0


def test_criterion_7_p_value_formula():
    def dist(w):
        return MaxStatDistribution(
            values=np.arange(w - 1, dtype=np.float64)[::-1],
            w=w, seed=0, direction=Direction.TWO_SIDED)

    # Rank 1 of w=200: tau beats all 199 simulated maxima.
    assert global_p_value(1000.0, dist(200)) == 0.005
    # Rank 10 of w=1000: exactly 9 simulated maxima at or above tau.
    assert global_p_value(989.5, dist(1000)) == 0.01


def test_criterion_8_invariant_suites(tmp_path):
    rng = np.random.default_rng(88)

    # Scan-statistic invariants on random valid count tuples.
    for _ in range(2000):
        n, p, N, P = random_valid_tuple(rng, max_n=2000)
        two = llr_from_counts(n, p, N, P, Direction.TWO_SIDED)
        hi = llr_from_counts(n, p, N, P, Direction.HIGHER_INSIDE)
        lo = llr_from_counts(n, p, N, P, Direction.LOWER_INSIDE)
        assert two >= 0.0
        assert two == max(hi, lo)
        assert min(hi, lo) == 0.0
        # Region complement and label complement, both exact.
        assert two == llr_from_counts(N - n, P - p, N, P)
        assert two == llr_from_counts(n, n - p, N, N - P)
        assert hi == llr_from_counts(n, n - p, N, N - P,
                                     Direction.LOWER_INSIDE)

    # Zero at exact proportionality.
    for scale in (1, 2, 7):
        assert llr_from_counts(3 * scale, 2 * scale, 30 * scale,
                               20 * scale) == 0.0

    # Unimodality in p by exhaustive enumeration for N <= 30: two-sided
    # llr is non-increasing up to the proportional count, non-decreasing
    # after it.
    for N in range(1, 31):
        for P in range(N + 1):
            for n in range(N + 1):
                lo_p = max(0, P - (N - n))
                hi_p = min(n, P)
                ps = np.arange(lo_p, hi_p + 1)
                vals = llr_vector(np.full(len(ps), n), ps, N, P)
                star = n * P / N
                left = vals[ps <= math.floor(star)]
                right = vals[ps >= math.ceil(star)]
                assert np.all(np.diff(left) <= 1e-12)
                assert np.all(np.diff(right) >= -1e-12)

    # Range counting vs brute force on 1,000 random queries.
    d = random_dataset(rng, 500, duplicates=True)
    ix = build_index(d, 13)
    snap = (d.lons, d.lats)
    from conftest import random_region
    for _ in range(1000):
        r = random_region(rng, d.bbox, snap_points=snap)
        want = oracle_region_counts(r, d.lons, d.lats, d.outcomes, d.bbox)
        assert plan_counts(ix, r) == want

    # Partitioning disjoint-cover conservation.
    for part in random_partitionings(d.bbox, 10, 2, 9, seed=99):
        counts = [plan_counts(ix, c) for c in cell_regions(part)]
        total_n = sum(n for n, _ in counts)
        total_p = sum(p for _, p in counts)
        assert (total_n, total_p) == (d.N, d.P)

    # End-to-end seeded determinism: byte-identical exports, and
    # byte-identical reports once the timings are stripped.
    full = gen_uniform_split(2000, seed=77)
    cfg_kw = dict(random_parts=20, splits=(2, 8), num_worlds=200,
                  alpha=0.05, seed=5)
    paths = []
    docs = []
    for run in ("a", "b"):
        report = run_audit(full, AuditConfig(**cfg_kw))
        paths.append(export_report(report, str(tmp_path / run)))
        doc = report.to_json_dict()
        doc["timings"] = {}
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]
    for key in ("regions", "nulldist"):
        assert open(paths[0][key], "rb").read() == \
            open(paths[1][key], "rb").read()


LAR_PATH = os.environ.get("FAIRSCAN_LAR_CSV", "")


@pytest.mark.skipif(not (LAR_PATH and os.path.exists(LAR_PATH)),
                    reason="real mortgage dataset not available; set "
                           "FAIRSCAN_LAR_CSV to run")
def test_criterion_9_mortgage_grid_audit():
    from fairscan.dataset import load_dataset
    from fairscan.montecarlo import significant_regions

    d = load_dataset(LAR_PATH)
    cfg = AuditConfig(grid=(100, 50), num_worlds=1000, alpha=0.005, seed=0)
    report = run_audit(d, cfg)
    assert not report.verdict.fair
    assert 7.0 <= report.verdict.critical_llr <= 13.0
    assert len(report.evidence) > 0
    assert report.evidence.p[0] / report.evidence.n[0] > d.rho
