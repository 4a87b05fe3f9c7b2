from __future__ import annotations

import json
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fairscan import pipeline
from fairscan.geometry import Region
from fairscan.index import build_index
from fairscan.likelihood import Direction, scan_regions
from fairscan.montecarlo import critical_value, global_p_value
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
from fairscan.regions import (
    Rectangles,
    random_partitionings,
    regular_grid,
    save_region_families,
    square_scan_set,
)
from fairscan.scanner import as_scanner
from fairscan.synth import gen_fair_bernoulli, gen_uniform_split

from conftest import (Candidate, cell_regions, make_dataset, rectangles,
                      row_regions, scan_rows)
from oracles import (distribution_from_json, oracle_non_overlapping,
                     regions_overlap)


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
                            "num_worlds", "seed", "top_k"}
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
        assert len(report.evidence)

    def test_fair_data_passes(self, fair_report):
        d, report = fair_report
        v = report.verdict
        assert v.fair
        assert v.p_value > v.alpha
        assert len(report.evidence) == 0
        assert len(report.non_overlapping) == 0

    def test_verdict_consistency(self, unfair_report):
        d, report = unfair_report
        v = report.verdict
        assert v.fair == (v.p_value > v.alpha)
        assert v.p_value == global_p_value(v.tau_log, report.dist)
        assert v.critical_llr == critical_value(report.dist, v.alpha)

    def test_evidence_sorted_and_significant(self, unfair_report):
        d, report = unfair_report
        ev = report.evidence
        llrs = ev.llr.tolist()
        assert llrs == sorted(llrs, reverse=True)
        assert (ev.llr > report.verdict.critical_llr).all()
        assert (ev.n > 0).all()
        assert ev.p_value is not None
        assert (ev.p_value >= 1 / report.dist.w).all()

    def test_non_overlapping_is_disjoint_subset(self, unfair_report):
        d, report = unfair_report
        keys = set(zip(map(tuple, report.evidence.bounds.tolist()),
                       report.evidence.llr.tolist()))
        chosen = report.non_overlapping
        for b, llr in zip(chosen.bounds.tolist(), chosen.llr.tolist()):
            assert (tuple(b), llr) in keys
        regions = row_regions(chosen)
        for i, a in enumerate(regions):
            for b in regions[i + 1:]:
                assert not regions_overlap(a, b)

    def test_dataset_summary(self, unfair_report):
        d, report = unfair_report
        summary = report.dataset_summary
        assert summary["N"] == d.N
        assert summary["P"] == d.P
        assert summary["rho"] == d.rho
        assert summary["bbox"] == list(d.bbox.bounds())

    def test_timings_present(self, unfair_report):
        d, report = unfair_report
        for key in ("index_s", "regions_s", "plan_s", "scan_s",
                    "simulate_s", "pick_s", "total_s"):
            assert report.timings[key] >= 0.0
        assert report.timings["pick_s"] <= report.timings["total_s"]

    def test_whole_space_region_is_fair(self, tmp_path):
        d = gen_uniform_split(1000, seed=85)
        path = str(tmp_path / "whole.json")
        save_region_families(path, [rectangles([d.bbox])])
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

    def test_determinism(self):
        d = gen_uniform_split(1000, seed=86)
        cfg = fast_cfg(seed=3)
        a = run_audit(d, cfg).to_json_dict()
        b = run_audit(d, fast_cfg(seed=3)).to_json_dict()
        for doc in (a, b):
            doc.pop("timings")
        assert a == b

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
        assert report.evidence.llr.tolist() == full.evidence.llr[:3].tolist()

    def test_region_order_does_not_matter(self, tmp_path):
        d = gen_uniform_split(800, seed=88)
        centers = np.asarray([[0.25, 0.5], [0.75, 0.5], [0.5, 0.5]])
        squares = square_scan_set(centers, side_lengths=(0.2, 0.5, 0.9))
        fwd = str(tmp_path / "fwd.json")
        rev = str(tmp_path / "rev.json")
        save_region_families(fwd, [squares])
        save_region_families(rev, [Rectangles(squares.bounds[::-1],
                                               squares.center_ids[::-1])])
        ra = run_audit(d, AuditConfig(regions_file=fwd, alpha=0.05,
                                      num_worlds=100, seed=6))
        rb = run_audit(d, AuditConfig(regions_file=rev, alpha=0.05,
                                      num_worlds=100, seed=6))
        assert ra.verdict.tau_log == rb.verdict.tau_log
        assert ra.verdict.p_value == rb.verdict.p_value
        assert np.array_equal(ra.dist.values, rb.dist.values)
        ea = set(zip(map(tuple, ra.evidence.bounds.tolist()),
                     ra.evidence.llr.tolist()))
        eb = set(zip(map(tuple, rb.evidence.bounds.tolist()),
                     rb.evidence.llr.tolist()))
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


def sr(*rows):
    """A ScanResult of (llr, region) rows, in order."""
    return scan_rows([r for _, r in rows], [llr for llr, _ in rows])


# Bounds that share edges and corners, overhang to +-inf or +-1e300, nest,
# and give zero-width rows; scores with ties; repeated and missing center
# ids. Many rows spread over many buckets of the pick's grid.
_edge = st.sampled_from([-np.inf, -1e300, 0.0, 0.5, 1.0, 1.5, 2.0, 1e300,
                         np.inf])
_lattice = st.sampled_from([-np.inf, *np.linspace(0.0, 2.0, 17), np.inf])


@st.composite
def _evidence_rows(draw, edge=_edge, max_rows=12):
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        x0, x1 = sorted(draw(st.lists(edge, min_size=2, max_size=2)))
        y0, y1 = sorted(draw(st.lists(edge, min_size=2, max_size=2)))
        rows.append((draw(st.sampled_from([0.0, 1.0, 2.0, 2.5, 3.0])),
                     Candidate(x0, y0, x1, y1, center_id=draw(
                         st.sampled_from([None, "c0", "c1", "c2"])))))
    return rows


# Nested, huge, zero-width and infinite-bound rows between ordinary ones.
_SHAPES = [(1.0, Candidate(0.0, 0.0, 2.0, 2.0)),
           (2.0, Candidate(0.5, 0.5, 1.5, 1.5)),
           (3.0, Candidate(1.0, -np.inf, 1.0, np.inf)),
           (3.0, Candidate(-np.inf, 1.0, np.inf, 1.0)),
           (2.5, Candidate(-1e300, 1.75, 1e300, 1e300)),
           (2.5, Candidate(1.75, -np.inf, np.inf, 0.25)),
           (0.5, Candidate(-np.inf, -np.inf, np.inf, np.inf)),
           (2.0, Candidate(np.inf, 0.0, np.inf, 1.0)),
           (1.0, Candidate(0.0, 0.0, 0.5, 0.5, center_id="c0")),
           (2.0, Candidate(0.25, 0.25, 0.75, 0.75, center_id="c0")),
           (1.5, Candidate(0.0, 1.5, 0.25, 2.0))]


class TestSelectNonOverlapping:
    def test_best_per_center(self):
        big = Candidate(0.0, 0.0, 2.0, 2.0, center_id="c0")
        small = Candidate(0.5, 0.5, 1.5, 1.5, center_id="c0")
        out = select_non_overlapping(sr((3.0, small), (5.0, big)))
        assert len(out) == 1
        assert out.llr[0] == 5.0

    def test_disjoint_centers_both_kept(self):
        a = Candidate(0.0, 0.0, 1.0, 1.0, center_id="c0")
        b = Candidate(2.0, 0.0, 3.0, 1.0, center_id="c1")
        out = select_non_overlapping(sr((2.0, a), (4.0, b)))
        assert out.llr.tolist() == [4.0, 2.0]

    def test_greedy_drops_overlapping_weaker(self):
        a = Candidate(0.0, 0.0, 2.0, 2.0, center_id="c0")
        b = Candidate(1.0, 1.0, 3.0, 3.0, center_id="c1")
        out = select_non_overlapping(sr((4.0, a), (3.0, b)))
        assert out.llr.tolist() == [4.0]

    def test_edge_touching_is_not_overlap(self):
        a = Candidate(0.0, 0.0, 1.0, 1.0, center_id="c0")
        b = Candidate(1.0, 0.0, 2.0, 1.0, center_id="c1")
        out = select_non_overlapping(sr((4.0, a), (3.0, b)))
        assert len(out) == 2

    def test_no_center_id_regions_compete_individually(self):
        a = Region(0.0, 0.0, 2.0, 2.0)
        b = Region(1.0, 1.0, 3.0, 3.0)
        c = Region(5.0, 5.0, 6.0, 6.0)
        out = select_non_overlapping(sr((3.0, a), (4.0, b), (1.0, c)))
        assert out.llr.tolist() == [4.0, 1.0]

    def test_empty(self):
        out = select_non_overlapping(sr())
        assert len(out) == 0 and out.bounds.shape == (0, 4)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rows=st.one_of(_evidence_rows(),
                          _evidence_rows(_lattice, max_rows=48)))
    @example(rows=_SHAPES)
    @example(rows=_SHAPES[::-1])
    def test_matches_oracle(self, rows):
        regions = [r for _, r in rows]
        llrs = [llr for llr, _ in rows]
        want = oracle_non_overlapping(regions, llrs)
        # Every row through the bucket lists, through the array comparison,
        # and as the cap picks.
        for near in (1 << 30, 0, pipeline._NEAR_ROWS):
            with mock.patch.object(pipeline, "_NEAR_ROWS", near):
                # n numbers the rows, so the chosen n are the chosen rows.
                out = select_non_overlapping(scan_rows(
                    regions, llrs, n=np.arange(len(rows))))
            assert out.n.tolist() == want
            assert row_regions(out) == [regions[i] for i in want]

    def test_disjoint_cells_scale(self):
        # 40,000 pairwise-disjoint cells of a 200 x 200 grid, all admitted.
        # One array comparison against every admitted row per row took
        # 2.2-2.5 s on a 2-vCPU VM; testing only the rows of the buckets a
        # row meets took 0.18 s there.
        cells = cell_regions(regular_grid(Region(0.0, 0.0, 1.0, 1.0),
                                          200, 200))
        rows = scan_rows(cells, np.linspace(1.0, 2.0, len(cells)))
        t0 = time.perf_counter()
        out = select_non_overlapping(rows)
        assert time.perf_counter() - t0 < 0.5
        assert len(out) == 40_000
        assert out.llr.tolist() == rows.llr[::-1].tolist()


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
        assert f0["properties"]["llr"] == report.evidence.llr[0]

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
        dist = distribution_from_json(
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
    @pytest.mark.parametrize("families", [[], [rectangles([])]])
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


class TestCandidateArrays:
    """Candidates stay columns from generation and region files to the scan."""

    @pytest.mark.parametrize("kind", ["squares", "regions_file"])
    def test_no_region_objects(self, tmp_path, monkeypatch, kind):
        d = gen_uniform_split(800, seed=89)
        ix = build_index(d)
        cfg = AuditConfig(squares_centers=5, sides=(0.1, 0.3))
        if kind == "regions_file":
            path = tmp_path / "regions.json"
            save_region_families(path, [regular_grid(d.bbox, 3, 2),
                                        square_scan_set([[0.3, 0.4]], (0.2,))])
            cfg = AuditConfig(regions_file=str(path))
        made = []
        init = Region.__post_init__
        monkeypatch.setattr(Region, "__post_init__",
                            lambda r: (made.append(r), init(r)))
        plan = as_scanner(ix, build_family(cfg, d.bbox, d))
        scored, _ = scan_regions(ix, plan)
        assert len(scored) == len(plan.n) > 0
        assert made == []
        Region(0.0, 0.0, 1.0, 1.0)
        assert len(made) == 1

    def test_old_region_file_layout_audits_the_same(self, tmp_path):
        # Older files also list each partitioning's cells; the loader
        # ignores that list, so both layouts give the same report.
        d = gen_uniform_split(800, seed=90)
        parts = random_partitionings(d.bbox, 3, 2, 5, seed=4)
        path = tmp_path / "regions.json"
        save_region_families(path, [*parts, square_scan_set(
            [[0.25, 0.5], [0.75, 0.5]], (0.2, 0.5))])
        cfg = AuditConfig(regions_file=str(path), alpha=0.05,
                          num_worlds=100, seed=7)
        reports = [run_audit(d, cfg).to_json_dict()]
        doc = json.loads(path.read_text())
        for fam, part in zip(doc["families"], parts):
            fam["regions"] = part.cell_bounds().tolist()
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        reports.append(run_audit(d, cfg).to_json_dict())
        for report in reports:
            report.pop("timings")
        assert reports[0]["evidence"]
        assert reports[0] == reports[1]


class TestMeanVarPipeline:
    def test_partitionings_match_family(self):
        d = gen_uniform_split(400, seed=91)
        parts = build_family(fast_cfg(seed=9), d.bbox, d)
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
        cfg = fast_cfg(seed=10, top_k=4)
        report = run_meanvar(d, cfg)
        path = export_meanvar(report, cfg.echo(), str(tmp_path))
        doc = json.loads(open(path).read())
        assert doc["mean_var"] == report.mean_var
        assert doc["config"]["seed"] == 10
        assert doc["config"]["top_k"] == 4
        assert len(doc["top_contributors"]) == 4

    @pytest.mark.parametrize("top_k, ranked", [(5, 5), (None, 50)])
    def test_run_meanvar_reads_top_k(self, top_k, ranked):
        d = gen_uniform_split(400, seed=95)
        report = run_meanvar(d, AuditConfig(grid=(10, 10), top_k=top_k))
        assert len(report.top_contributors["n"]) == ranked


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
