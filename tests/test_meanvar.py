from __future__ import annotations

import json
import statistics

import numpy as np
import pytest

from fairscan import build_index
from fairscan.geometry import Region
from fairscan.meanvar import mean_var
from fairscan.regions import (Partitioning, random_partitionings,
                              regular_grid)

from conftest import cell_regions, make_dataset, random_dataset, written_json
from oracles import oracle_region_counts


def partitioning_variance(ix, part):
    """One partitioning's variance, as mean_var reports it."""
    return mean_var(ix, [part]).per_partitioning[0][1]


def top_contributions(ix, part, k):
    """One partitioning's k strongest cells, as mean_var ranks them: its
    columns bounds, n, p, rho and contribution."""
    return mean_var(ix, [part], top_k=k).top_contributors


def split_dataset(n_left, p_left, n_right, p_right):
    """Points in [0,1) x [0,1) on the left, [1,2] x [0,1) on the right."""
    rng = np.random.default_rng(60)
    lons = np.concatenate([rng.uniform(0.0, 1.0, n_left),
                           rng.uniform(1.0, 2.0, n_right)])
    lats = rng.uniform(0.0, 1.0, n_left + n_right)
    lons[0], lons[n_left] = 0.0, 2.0  # pin the bbox
    outcomes = np.concatenate([
        np.r_[np.ones(p_left), np.zeros(n_left - p_left)],
        np.r_[np.ones(p_right), np.zeros(n_right - p_right)],
    ])
    return make_dataset(lons, lats, outcomes)


class TestPartitioningVariance:
    def test_two_cell_hand_value(self):
        # Rates 2/3 and 1/3: population variance of {2/3, 1/3}.
        d = split_dataset(100, 67, 100, 33)
        ix = build_index(d)
        part = regular_grid(d.bbox, 2, 1)
        got = partitioning_variance(ix, part)
        want = statistics.pvariance([0.67, 0.33])
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.0289, abs=1e-12)

    def test_identical_rates_give_zero(self):
        d = split_dataset(100, 50, 100, 50)
        ix = build_index(d)
        assert partitioning_variance(
            ix, regular_grid(d.bbox, 2, 1)) == 0.0

    def test_single_cell_is_zero(self):
        rng = np.random.default_rng(61)
        d = random_dataset(rng, 150)
        ix = build_index(d)
        assert partitioning_variance(
            ix, regular_grid(d.bbox, 1, 1)) == 0.0

    def test_empty_cells_excluded(self):
        # All mass in two corner cells of a 3x1 grid; the middle cell is
        # empty and must not drag the variance toward zero.
        d = split_dataset(50, 40, 50, 10)
        ix = build_index(d)
        part = regular_grid(d.bbox, 4, 1)
        # Columns [0,0.5) and [1.5,2] hold the points.
        got = partitioning_variance(ix, part)
        rates = []
        for cell in cell_regions(part):
            n, p = oracle_region_counts(cell, d.lons, d.lats, d.outcomes,
                                        d.bbox)
            if n:
                rates.append(p / n)
        assert got == pytest.approx(statistics.pvariance(rates)
                                    if len(rates) > 1 else 0.0, abs=1e-12)

    def test_matches_pvariance_on_random_data(self):
        rng = np.random.default_rng(62)
        d = random_dataset(rng, 400, duplicates=True)
        ix = build_index(d)
        for part in random_partitionings(d.bbox, 5, 2, 6, seed=63):
            rates = []
            for cell in cell_regions(part):
                n, p = oracle_region_counts(cell, d.lons, d.lats,
                                            d.outcomes, d.bbox)
                if n:
                    rates.append(p / n)
            want = statistics.pvariance(rates) if len(rates) > 1 else 0.0
            assert partitioning_variance(ix, part) == pytest.approx(
                want, abs=1e-12)

    def test_relabeling_within_cells_is_invariant(self):
        # The statistic only sees per-cell counts, so shuffling which
        # point inside a cell carries the positive label cannot change it.
        rng = np.random.default_rng(64)
        d = random_dataset(rng, 300)
        ix = build_index(d)
        part = regular_grid(d.bbox, 4, 4)
        base = partitioning_variance(ix, part)

        # Shuffle labels inside each cell.
        xs, ys = d.lons, d.lats
        xb = np.asarray(part.xbounds)
        labels = d.outcomes.copy()
        cell_of = np.searchsorted(xb[1:-1], xs, side="right")
        yb = np.asarray(part.ybounds)
        cell_of = cell_of + 4 * np.searchsorted(yb[1:-1], ys, side="right")
        for c in np.unique(cell_of):
            mask = np.flatnonzero(cell_of == c)
            labels[mask] = labels[rng.permutation(mask)]
        view = build_index(make_dataset(xs, ys, labels))
        assert partitioning_variance(view, part) == base


class TestTopContributions:
    def test_extreme_cell_ranks_first(self):
        d = split_dataset(100, 95, 100, 50)
        ix = build_index(d)
        part = regular_grid(d.bbox, 2, 1)
        top = top_contributions(ix, part, 2)["contribution"]
        assert len(top) == 2
        assert top[0] >= top[1]
        # Rates 0.95 and 0.50 deviate equally from their mean 0.725,
        # so use a 3-cell layout for a strict ordering instead.
        d2 = split_dataset(100, 90, 100, 40)
        ix2 = build_index(d2)
        part2 = regular_grid(d2.bbox, 4, 1)
        top2 = top_contributions(ix2, part2, 10)["contribution"]
        assert top2[0] == top2.max()

    def test_contributions_non_negative_and_sum(self):
        rng = np.random.default_rng(65)
        d = random_dataset(rng, 250)
        ix = build_index(d)
        part = regular_grid(d.bbox, 3, 3)
        top = top_contributions(ix, part, 100)["contribution"]
        assert (top >= 0).all()
        # Mean of all contributions equals the variance.
        assert np.mean(top) == pytest.approx(
            partitioning_variance(ix, part), abs=1e-12)

    def test_k_larger_than_cells(self):
        d = split_dataset(10, 5, 10, 5)
        ix = build_index(d)
        top = top_contributions(ix, regular_grid(d.bbox, 2, 1), 99)
        assert all(len(col) == 2 for col in top.values())

    def test_counts_and_rate_consistent(self):
        rng = np.random.default_rng(66)
        d = random_dataset(rng, 200)
        ix = build_index(d)
        part = regular_grid(d.bbox, 3, 2)
        top = top_contributions(ix, part, 6)
        assert (top["n"] > 0).all()
        assert top["rho"].tolist() == pytest.approx(
            (top["p"] / top["n"]).tolist())
        # Each row's bounds are its cell's, and its counts the cell's own.
        cells = cell_regions(part)
        for b, n, p in zip(top["bounds"].tolist(), top["n"].tolist(),
                           top["p"].tolist()):
            cell = Region(*b)
            assert cell in cells
            assert (n, p) == oracle_region_counts(cell, d.lons, d.lats,
                                                  d.outcomes, d.bbox)


class TestMeanVar:
    def test_mean_of_variances(self):
        rng = np.random.default_rng(67)
        d = random_dataset(rng, 350, duplicates=True)
        ix = build_index(d)
        parts = random_partitionings(d.bbox, 6, 2, 5, seed=68)
        report = mean_var(ix, parts)
        singles = [partitioning_variance(ix, p) for p in parts]
        assert report.mean_var == pytest.approx(np.mean(singles), abs=1e-12)
        assert len(report.per_partitioning) == 6
        for (prov, var), want in zip(report.per_partitioning, singles):
            assert var == pytest.approx(want, abs=1e-12)
            assert prov["kind"] == "random"

    def test_top_contributors_merged_and_sorted(self):
        rng = np.random.default_rng(69)
        d = random_dataset(rng, 300)
        ix = build_index(d)
        parts = random_partitionings(d.bbox, 3, 2, 4, seed=70)
        report = mean_var(ix, parts, top_k=7)
        contribs = report.top_contributors["contribution"].tolist()
        assert len(contribs) == 7
        assert contribs == sorted(contribs, reverse=True)
        # The global best must match the best over each partitioning.
        best_each = max(top_contributions(ix, p, 1)["contribution"][0]
                        for p in parts)
        assert contribs[0] == pytest.approx(best_each, abs=0.0)

    def test_single_grid_1x1_gives_zero(self):
        rng = np.random.default_rng(71)
        d = random_dataset(rng, 100)
        ix = build_index(d)
        report = mean_var(ix, [regular_grid(d.bbox, 1, 1)])
        assert report.mean_var == 0.0

    def test_empty_partitioning_list_rejected(self):
        rng = np.random.default_rng(72)
        d = random_dataset(rng, 50)
        ix = build_index(d)
        with pytest.raises(ValueError):
            mean_var(ix, [])

    def test_partitioning_without_points_rejected(self):
        # The one cell lies beside every point.
        d = make_dataset([0.0, 1.0], [0.0, 1.0], [1, 0])
        with pytest.raises(ValueError) as err:
            mean_var(build_index(d), [Partitioning([5.0, 6.0], [5.0, 6.0])])
        assert str(err.value) == "partitioning has no occupied cells"

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_nonpositive_top_k_rejected(self, top_k):
        d = random_dataset(np.random.default_rng(75), 50)
        with pytest.raises(ValueError, match="top_k must be positive"):
            mean_var(build_index(d), [regular_grid(d.bbox, 2, 2)], top_k=top_k)

    def test_json_report_ranks(self, tmp_path):
        rng = np.random.default_rng(73)
        d = random_dataset(rng, 220)
        ix = build_index(d)
        parts = random_partitionings(d.bbox, 2, 2, 4, seed=74)
        doc = json.loads(written_json(
            tmp_path / "meanvar.json",
            mean_var(ix, parts, top_k=5).to_json_dict()))
        assert doc["schema"] == 1
        assert [c["rank"] for c in doc["top_contributors"]] == [1, 2, 3, 4, 5]
        for c in doc["top_contributors"]:
            assert c["n"] > 0
            assert c["rho"] == pytest.approx(c["p"] / c["n"])
