from __future__ import annotations

import json

import numpy as np
import pytest

from fairscan.geometry import Region, regions_overlap
from fairscan.index import RegionCounts
from fairscan.likelihood import Direction, ScoredRegion
from fairscan.montecarlo import (
    MaxStatDistribution,
    critical_value,
    global_p_value,
)
from fairscan.pipeline import (
    AuditConfig,
    audit,
    build_family,
    export_meanvar,
    export_report,
    run_audit,
    run_meanvar,
    select_non_overlapping,
)
from fairscan.regions import save_region_families, square_scan_set
from fairscan.synth import gen_fair_bernoulli, gen_uniform_split

from conftest import make_dataset


def fast_cfg(**kw):
    base = dict(random_parts=10, splits=(2, 6), num_worlds=100,
                alpha=0.05, seed=0)
    base.update(kw)
    return AuditConfig(**base)


@pytest.fixture(scope="module")
def unfair_report():
    d = gen_uniform_split(2000, seed=80)
    return d, run_audit(d, fast_cfg(random_parts=20, seed=81))


@pytest.fixture(scope="module")
def fair_report():
    pts = np.random.default_rng(82).random((500, 2))
    d = gen_fair_bernoulli(pts, 0.5, seed=83)
    return d, run_audit(d, fast_cfg(seed=84))


class TestAuditConfig:
    def test_no_family_rejected(self):
        with pytest.raises(ValueError, match="exactly one"):
            AuditConfig().validate()

    def test_two_families_rejected(self):
        with pytest.raises(ValueError, match="exactly one"):
            AuditConfig(grid=(4, 4), random_parts=5).validate()

    def test_bad_alpha(self):
        for alpha in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError):
                AuditConfig(grid=(2, 2), alpha=alpha,
                            num_worlds=1000).validate()

    def test_too_few_worlds_for_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            AuditConfig(grid=(2, 2), alpha=0.005, num_worlds=100).validate()

    def test_worlds_minimum(self):
        with pytest.raises(ValueError, match="num_worlds"):
            AuditConfig(grid=(2, 2), alpha=0.9, num_worlds=1).validate()

    def test_bad_splits(self):
        with pytest.raises(ValueError, match="splits"):
            AuditConfig(random_parts=3, splits=(5, 2), alpha=0.05,
                        num_worlds=100).validate()

    def test_bad_top_k(self):
        with pytest.raises(ValueError, match="top_k"):
            AuditConfig(grid=(2, 2), alpha=0.05, num_worlds=100,
                        top_k=0).validate()

    def test_defaults_validate_with_a_family(self):
        AuditConfig(random_parts=100).validate()

    def test_echo_shape(self):
        cfg = fast_cfg()
        doc = cfg.echo()
        assert set(doc) == {"data", "mode", "direction", "family", "alpha",
                            "num_worlds", "seed", "resolution", "top_k"}
        assert doc["mode"] == "statistical_parity"
        assert doc["direction"] == "two_sided"
        assert doc["family"]["kind"] == "random_partitionings"
        assert "threads" not in doc


class TestRunAudit:
    def test_unfair_detected(self, unfair_report):
        d, report = unfair_report
        v = report.verdict
        assert not v.fair
        assert v.p_value <= v.alpha
        assert v.tau_log > v.critical_llr
        assert report.evidence

    def test_fair_data_passes(self, fair_report):
        d, report = fair_report
        v = report.verdict
        assert v.fair
        assert v.p_value > v.alpha
        assert report.evidence == []
        assert report.non_overlapping == []

    def test_verdict_consistency(self, unfair_report):
        d, report = unfair_report
        v = report.verdict
        assert v.fair == (v.p_value > v.alpha)
        assert v.p_value == global_p_value(v.tau_log, report.dist)
        assert v.critical_llr == critical_value(report.dist, v.alpha)

    def test_evidence_sorted_and_significant(self, unfair_report):
        d, report = unfair_report
        llrs = [s.llr for s in report.evidence]
        assert llrs == sorted(llrs, reverse=True)
        for s in report.evidence:
            assert s.llr > report.verdict.critical_llr
            assert s.counts.n > 0
            assert s.p_value is not None
            assert s.p_value >= 1 / report.dist.w

    def test_non_overlapping_is_disjoint_subset(self, unfair_report):
        d, report = unfair_report
        keys = {(s.region.bounds(), s.llr) for s in report.evidence}
        for s in report.non_overlapping:
            assert (s.region.bounds(), s.llr) in keys
        for i, a in enumerate(report.non_overlapping):
            for b in report.non_overlapping[i + 1:]:
                assert not regions_overlap(a.region, b.region)

    def test_dataset_summary(self, unfair_report):
        d, report = unfair_report
        summary = report.dataset_summary
        assert summary["N"] == d.N
        assert summary["P"] == d.P
        assert summary["rho"] == d.rho
        assert summary["bbox"] == list(d.bbox.bounds())

    def test_timings_present(self, unfair_report):
        d, report = unfair_report
        for key in ("index_s", "regions_s", "scan_s", "simulate_s",
                    "total_s"):
            assert report.timings[key] >= 0.0

    def test_whole_space_region_is_fair(self, tmp_path):
        d = gen_uniform_split(1000, seed=85)
        path = str(tmp_path / "whole.json")
        save_region_families(path, [[d.bbox]])
        report = run_audit(d, AuditConfig(regions_file=path, alpha=0.05,
                                          num_worlds=100, seed=1))
        assert report.verdict.tau_log == 0.0
        assert report.verdict.p_value == 1.0
        assert report.verdict.fair

    def test_degenerate_all_positive(self):
        d = make_dataset([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0],
                         [1, 1, 1, 1])
        report = run_audit(d, fast_cfg(seed=2))
        assert report.verdict.fair
        assert report.verdict.p_value == 1.0
        assert report.verdict.tau_log == 0.0
        assert np.all(report.dist.values == 0.0)
        assert len(report.dist.values) == 99

    def test_determinism_and_thread_invariance(self):
        d = gen_uniform_split(1000, seed=86)
        cfg = fast_cfg(seed=3)
        a = run_audit(d, cfg).to_json_dict()
        b = run_audit(d, fast_cfg(seed=3)).to_json_dict()
        c = run_audit(d, fast_cfg(seed=3), threads=2).to_json_dict()
        for doc in (a, b, c):
            doc.pop("timings")
        assert a == b == c

    def test_seed_changes_simulation(self):
        d = gen_uniform_split(1000, seed=87)
        a = run_audit(d, fast_cfg(seed=4))
        b = run_audit(d, fast_cfg(seed=5))
        assert not np.array_equal(a.dist.values, b.dist.values)

    def test_top_k_truncates_evidence(self, unfair_report):
        d, full = unfair_report
        assert len(full.evidence) > 3
        report = run_audit(d, fast_cfg(random_parts=20, seed=81, top_k=3))
        assert len(report.evidence) == 3
        assert [s.llr for s in report.evidence] == \
            [s.llr for s in full.evidence[:3]]

    def test_region_order_does_not_matter(self, tmp_path):
        d = gen_uniform_split(800, seed=88)
        centers = np.asarray([[0.25, 0.5], [0.75, 0.5], [0.5, 0.5]])
        squares = square_scan_set(centers, side_lengths=(0.2, 0.5, 0.9))
        fwd = str(tmp_path / "fwd.json")
        rev = str(tmp_path / "rev.json")
        save_region_families(fwd, [squares])
        save_region_families(rev, [list(reversed(squares))])
        ra = run_audit(d, AuditConfig(regions_file=fwd, alpha=0.05,
                                      num_worlds=100, seed=6))
        rb = run_audit(d, AuditConfig(regions_file=rev, alpha=0.05,
                                      num_worlds=100, seed=6))
        assert ra.verdict.tau_log == rb.verdict.tau_log
        assert ra.verdict.p_value == rb.verdict.p_value
        assert np.array_equal(ra.dist.values, rb.dist.values)
        ea = {(s.region.bounds(), s.llr) for s in ra.evidence}
        eb = {(s.region.bounds(), s.llr) for s in rb.evidence}
        assert ea == eb

    def test_label_complement_same_tau(self):
        d = gen_uniform_split(1000, seed=89)
        flipped = make_dataset(d.lons, d.lats, 1 - d.outcomes)
        cfg = fast_cfg(seed=7)
        a = run_audit(d, cfg)
        b = run_audit(flipped, fast_cfg(seed=7))
        assert a.verdict.tau_log == b.verdict.tau_log
        # rho is exactly 1/2 for both, so the simulated worlds coincide
        # and the p-value matches exactly as well.
        assert a.verdict.p_value == b.verdict.p_value


def sr(llr, region):
    return ScoredRegion(region=region, counts=RegionCounts(10, 5),
                        local_rate=0.5, llr=llr)


class TestSelectNonOverlapping:
    def test_best_per_center(self):
        big = Region(0.0, 0.0, 2.0, 2.0, center_id="c0")
        small = Region(0.5, 0.5, 1.5, 1.5, center_id="c0")
        out = select_non_overlapping([sr(3.0, small), sr(5.0, big)])
        assert len(out) == 1
        assert out[0].llr == 5.0

    def test_disjoint_centers_both_kept(self):
        a = Region(0.0, 0.0, 1.0, 1.0, center_id="c0")
        b = Region(2.0, 0.0, 3.0, 1.0, center_id="c1")
        out = select_non_overlapping([sr(2.0, a), sr(4.0, b)])
        assert [s.llr for s in out] == [4.0, 2.0]

    def test_greedy_drops_overlapping_weaker(self):
        a = Region(0.0, 0.0, 2.0, 2.0, center_id="c0")
        b = Region(1.0, 1.0, 3.0, 3.0, center_id="c1")
        out = select_non_overlapping([sr(4.0, a), sr(3.0, b)])
        assert [s.llr for s in out] == [4.0]

    def test_edge_touching_is_not_overlap(self):
        a = Region(0.0, 0.0, 1.0, 1.0, center_id="c0")
        b = Region(1.0, 0.0, 2.0, 1.0, center_id="c1")
        out = select_non_overlapping([sr(4.0, a), sr(3.0, b)])
        assert len(out) == 2

    def test_no_center_id_regions_compete_individually(self):
        a = Region(0.0, 0.0, 2.0, 2.0)
        b = Region(1.0, 1.0, 3.0, 3.0)
        c = Region(5.0, 5.0, 6.0, 6.0)
        out = select_non_overlapping([sr(3.0, a), sr(4.0, b), sr(1.0, c)])
        assert [s.llr for s in out] == [4.0, 1.0]

    def test_empty(self):
        assert select_non_overlapping([]) == []


class TestExports:
    def test_files_written(self, unfair_report, tmp_path):
        d, report = unfair_report
        paths = export_report(report, str(tmp_path / "out"))
        doc = json.loads(open(paths["report"]).read())
        assert doc["schema"] == 1
        assert doc["verdict"]["fair"] is False
        assert doc["verdict"]["num_worlds"] == report.dist.w
        assert len(doc["evidence"]) == len(report.evidence)
        assert [e["rank"] for e in doc["evidence"]] == \
            list(range(1, len(report.evidence) + 1))
        geo = json.loads(open(paths["regions"]).read())
        assert geo["type"] == "FeatureCollection"
        assert len(geo["features"]) == len(report.evidence)
        f0 = geo["features"][0]
        assert f0["geometry"]["type"] == "Polygon"
        ring = f0["geometry"]["coordinates"][0]
        assert len(ring) == 5 and ring[0] == ring[-1]
        assert f0["properties"]["llr"] == report.evidence[0].llr

    def test_fair_report_has_empty_features(self, fair_report, tmp_path):
        d, report = fair_report
        paths = export_report(report, str(tmp_path / "out"))
        geo = json.loads(open(paths["regions"]).read())
        assert geo["features"] == []
        doc = json.loads(open(paths["report"]).read())
        assert doc["verdict"]["fair"] is True
        assert doc["evidence"] == []

    def test_nulldist_rederives_verdict(self, unfair_report, tmp_path):
        d, report = unfair_report
        paths = export_report(report, str(tmp_path / "out"))
        dist = MaxStatDistribution.from_json_dict(
            json.loads(open(paths["nulldist"]).read()))
        v = report.verdict
        assert global_p_value(v.tau_log, dist) == v.p_value
        assert critical_value(dist, v.alpha) == v.critical_llr

    def test_export_is_deterministic(self, tmp_path):
        d = gen_uniform_split(600, seed=90)
        out = []
        for run in ("a", "b"):
            report = run_audit(d, fast_cfg(seed=8))
            out.append(export_report(report, str(tmp_path / run)))
        for key in ("regions", "nulldist"):
            assert open(out[0][key], "rb").read() == \
                open(out[1][key], "rb").read()
        docs = [json.loads(open(p["report"]).read()) for p in out]
        for doc in docs:
            doc.pop("timings")
        assert docs[0] == docs[1]


class TestEmptyCandidateSet:
    @pytest.mark.parametrize("families", [[], [[]]])
    def test_empty_regions_file(self, tmp_path, families):
        path = str(tmp_path / "regions.json")
        save_region_families(path, families)
        d = gen_uniform_split(200, seed=96)
        cfg = AuditConfig(regions_file=path, num_worlds=100, alpha=0.05)
        with pytest.raises(ValueError, match="no candidate regions"):
            run_audit(d, cfg)

    def test_squares_without_sides(self):
        d = gen_uniform_split(200, seed=97)
        cfg = AuditConfig(squares_centers=3, sides=(), num_worlds=100,
                          alpha=0.05)
        with pytest.raises(ValueError, match="no candidate regions"):
            run_audit(d, cfg)


class TestMeanVarPipeline:
    def test_partitionings_match_family(self):
        d = gen_uniform_split(400, seed=91)
        parts = build_family(d, fast_cfg(seed=9))
        assert len(parts) == 10

    def test_run_meanvar_grid(self):
        d = gen_uniform_split(400, seed=92)
        report = run_meanvar(d, AuditConfig(grid=(1, 1)))
        assert report.mean_var == 0.0

    def test_squares_family_rejected(self):
        d = gen_uniform_split(400, seed=93)
        with pytest.raises(ValueError, match="partitioning"):
            run_meanvar(d, AuditConfig(squares_centers=10))

    def test_export_meanvar(self, tmp_path):
        d = gen_uniform_split(400, seed=94)
        cfg = fast_cfg(seed=10)
        report = run_meanvar(d, cfg, top_k=4)
        path = export_meanvar(report, cfg.echo(), str(tmp_path))
        doc = json.loads(open(path).read())
        assert doc["mean_var"] == report.mean_var
        assert doc["config"]["seed"] == 10
        assert len(doc["top_contributors"]) == 4


class TestAuditWrapper:
    def test_loads_csv(self, tmp_path):
        from fairscan.dataset import write_csv
        d = gen_uniform_split(600, seed=95)
        path = str(tmp_path / "d.csv")
        write_csv(d, path)
        report = audit(fast_cfg(data=path, seed=11))
        assert report.dataset_summary["N"] == 600
        assert "load_s" in report.timings

    def test_missing_path_rejected(self):
        with pytest.raises(ValueError, match="dataset path"):
            audit(fast_cfg(seed=12))
