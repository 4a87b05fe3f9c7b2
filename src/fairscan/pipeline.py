"""End-to-end audit: load, index, generate regions, scan, simulate, report.

The pipeline wires the pieces together without adding statistics of its
own. Partitioning families are flattened into one candidate list before
scanning, so the global max and the significance cutoff range over every
cell of every partitioning.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import Dataset, MeasureMode, load_dataset
from .geometry import Region, regions_overlap
from .index import build_index
from .likelihood import Direction, ScoredRegion, scan_regions
from .meanvar import MeanVarReport, mean_var
from .montecarlo import (
    AuditVerdict,
    MaxStatDistribution,
    critical_value,
    global_p_value,
    significant_regions,
    simulate_worlds,
)
from .regions import (
    DEFAULT_MAX_SPLITS,
    DEFAULT_MIN_SPLITS,
    kmeans_centers,
    load_region_families,
    random_partitionings,
    regular_grid,
    square_scan_set,
)
from .scanner import as_scanner


@dataclass
class AuditConfig:
    """Resolved audit parameters.

    Exactly one region family must be specified: grid, random_parts,
    squares_centers, or regions_file. num_worlds counts the real world,
    so the simulation draws num_worlds - 1 fair worlds.
    """

    data: str | None = None
    mode: MeasureMode = MeasureMode.STATISTICAL_PARITY
    direction: Direction = Direction.TWO_SIDED
    grid: tuple[int, int] | None = None
    random_parts: int | None = None
    splits: tuple[int, int] = (DEFAULT_MIN_SPLITS, DEFAULT_MAX_SPLITS)
    squares_centers: int | None = None
    sides: tuple[float, ...] | None = None
    regions_file: str | None = None
    alpha: float = 0.005
    num_worlds: int = 1000
    seed: int = 0
    resolution: int | None = None
    top_k: int | None = None

    def family_specs(self) -> list[dict]:
        """Every named family: grid, random partitionings, squares, file."""
        specs = []
        if self.grid is not None:
            specs.append({"kind": "grid", "mx": self.grid[0], "my": self.grid[1]})
        if self.random_parts is not None:
            specs.append({
                "kind": "random_partitionings",
                "count": self.random_parts,
                "min_splits": self.splits[0],
                "max_splits": self.splits[1],
            })
        if self.squares_centers is not None:
            specs.append({
                "kind": "squares",
                "centers": self.squares_centers,
                "sides": list(self.sides) if self.sides is not None else None,
            })
        if self.regions_file is not None:
            specs.append({"kind": "regions_file", "path": self.regions_file})
        return specs

    def family_spec(self) -> dict:
        """The one family an audit scans."""
        specs = self.family_specs()
        if len(specs) != 1:
            raise ValueError(
                f"exactly one region family must be specified, got {len(specs)}"
            )
        return specs[0]

    def check_families(self) -> None:
        """Refuse an out-of-range seed, grid, splits, centers or top_k."""
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.grid is not None and (self.grid[0] < 1 or self.grid[1] < 1):
            raise ValueError(f"grid dims must be positive, got {self.grid}")
        if self.random_parts is not None:
            lo, hi = self.splits
            if self.random_parts < 1:
                raise ValueError("random_parts must be positive")
            if not 1 <= lo <= hi:
                raise ValueError(f"bad splits range {lo}..{hi}")
        if self.squares_centers is not None and self.squares_centers < 1:
            raise ValueError("squares_centers must be positive")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError(f"top_k must be positive, got {self.top_k}")

    def validate(self) -> None:
        self.family_spec()
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.num_worlds < 2:
            raise ValueError(
                f"num_worlds must be >= 2 (real world plus at least one "
                f"simulated), got {self.num_worlds}"
            )
        if self.alpha * self.num_worlds < 1.0:
            raise ValueError(
                f"alpha*num_worlds = {self.alpha * self.num_worlds:.3f} < 1; "
                "raise num_worlds or alpha"
            )
        self.check_families()

    def echo(self) -> dict:
        """Resolved configuration embedded in every report."""
        return {
            "data": self.data,
            "mode": MeasureMode(self.mode).value,
            "direction": Direction(self.direction).value,
            "family": self.family_spec(),
            "alpha": self.alpha,
            "num_worlds": self.num_worlds,
            "seed": self.seed,
            "resolution": self.resolution,
            "top_k": self.top_k,
        }


@dataclass
class AuditReport:
    verdict: AuditVerdict
    evidence: list[ScoredRegion]
    non_overlapping: list[ScoredRegion]
    dist: MaxStatDistribution
    config: dict
    dataset_summary: dict
    timings: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "dataset": self.dataset_summary,
            "config": self.config,
            "verdict": {
                "fair": self.verdict.fair,
                "p_value": self.verdict.p_value,
                "tau_log": self.verdict.tau_log,
                "alpha": self.verdict.alpha,
                "critical_llr": self.verdict.critical_llr,
                "num_worlds": self.dist.w,
            },
            "evidence": [_scored_json(s, i + 1) for i, s in
                         enumerate(self.evidence)],
            "non_overlapping": [_scored_json(s, i + 1) for i, s in
                                enumerate(self.non_overlapping)],
            "timings": self.timings,
        }


def _scored_json(s: ScoredRegion, rank: int) -> dict:
    return {
        "rank": rank,
        "xmin": s.region.xmin, "ymin": s.region.ymin,
        "xmax": s.region.xmax, "ymax": s.region.ymax,
        "center_id": s.region.center_id,
        "n": s.counts.n, "p": s.counts.p,
        "rho": s.local_rate,
        "llr": s.llr,
        "p_value": s.p_value,
    }


def _derive_seeds(seed: int) -> tuple[int, int]:
    """Independent sub-seeds for region generation and world simulation.

    Both consumers spawn their own child streams by index, so they must not
    share a root; two words of the master sequence keep them apart.
    """
    state = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    return int(state[0]), int(state[1])


def build_family(cfg: AuditConfig, bbox: Region,
                 data: Dataset | None = None) -> list:
    """Every family the config names over bbox, in family_specs order:
    Partitionings and Rectangles. Squares need data for their k-means
    centers."""
    region_seed, _ = _derive_seeds(cfg.seed)
    family = []
    for spec in cfg.family_specs():
        kind = spec["kind"]
        if kind == "grid":
            family.append(regular_grid(bbox, spec["mx"], spec["my"]))
        elif kind == "random_partitionings":
            family.extend(random_partitionings(
                bbox, spec["count"], spec["min_splits"], spec["max_splits"],
                seed=region_seed))
        elif kind == "squares":
            if data is None:
                raise ValueError("squares need data for their k-means centers")
            centers = kmeans_centers(data, spec["centers"], seed=region_seed)
            family.append(square_scan_set(centers, spec["sides"]))
        else:
            family.extend(load_region_families(spec["path"]))
    return family


def run_audit(d: Dataset, cfg: AuditConfig) -> AuditReport:
    """Audit an in-memory dataset. ``audit`` is the file-loading wrapper."""
    cfg.validate()
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    ix = build_index(d, cfg.resolution)
    timings["index_s"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    family = build_family(cfg, d.bbox, d)
    timings["regions_s"] = time.perf_counter() - t1
    t1 = time.perf_counter()
    plan = as_scanner(ix, family)
    timings["plan_s"] = time.perf_counter() - t1
    if len(plan.n) == 0:
        raise ValueError("the region family holds no candidate regions")

    t2 = time.perf_counter()
    scored, tau_log = scan_regions(ix, plan, cfg.direction)
    timings["scan_s"] = time.perf_counter() - t2

    t3 = time.perf_counter()
    _, sim_seed = _derive_seeds(cfg.seed)
    if 0.0 < d.rho < 1.0:
        dist = simulate_worlds(
            ix, plan, d.rho, cfg.num_worlds - 1, seed=sim_seed,
            direction=cfg.direction,
        )
    else:
        # All-positive or all-negative data: every fair world reproduces the
        # data exactly, so every simulated max is 0 and simulation is skipped.
        dist = MaxStatDistribution(np.zeros(cfg.num_worlds - 1), cfg.num_worlds,
                                   sim_seed, Direction(cfg.direction))
    timings["simulate_s"] = time.perf_counter() - t3

    p_value = global_p_value(tau_log, dist)
    cutoff = critical_value(dist, cfg.alpha)
    fair = p_value > cfg.alpha
    verdict = AuditVerdict(
        tau_log=tau_log, p_value=p_value, alpha=cfg.alpha, fair=fair,
        critical_llr=cutoff,
    )
    if fair:
        evidence: list[ScoredRegion] = []
        non_overlapping: list[ScoredRegion] = []
    else:
        evidence = significant_regions(scored, cutoff, dist)
        if cfg.top_k is not None:
            evidence = evidence[:cfg.top_k]
        non_overlapping = select_non_overlapping(evidence)
    timings["total_s"] = time.perf_counter() - t0
    return AuditReport(
        verdict=verdict,
        evidence=evidence,
        non_overlapping=non_overlapping,
        dist=dist,
        config=cfg.echo(),
        dataset_summary={
            "N": d.N, "P": d.P, "rho": d.rho,
            "bbox": list(d.bbox.bounds()),
        },
        timings=timings,
    )


def audit(cfg: AuditConfig) -> AuditReport:
    """Load the configured dataset and audit it."""
    if cfg.data is None:
        raise ValueError("config has no dataset path")
    t0 = time.perf_counter()
    d = load_dataset(cfg.data, cfg.mode)
    load_s = time.perf_counter() - t0
    report = run_audit(d, cfg)
    report.timings["load_s"] = load_s
    report.timings["total_s"] += load_s
    return report


def select_non_overlapping(evidence: Sequence[ScoredRegion]
                           ) -> list[ScoredRegion]:
    """Greedy disjoint subset of the evidence, strongest first.

    First the best-scoring region per center is kept (regions without a
    center_id each count as their own center), then candidates are admitted
    in descending score order unless they overlap an admitted region with
    positive area. Ties keep input order.
    """
    best_per_center: dict[object, ScoredRegion] = {}
    for i, s in enumerate(evidence):
        key = s.region.center_id if s.region.center_id is not None else ("#", i)
        cur = best_per_center.get(key)
        if cur is None or s.llr > cur.llr:
            best_per_center[key] = s
    candidates = sorted(best_per_center.values(), key=lambda s: -s.llr)
    chosen: list[ScoredRegion] = []
    for s in candidates:
        if not any(regions_overlap(s.region, c.region) for c in chosen):
            chosen.append(s)
    return chosen


def _dump_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _geojson_feature(s: ScoredRegion, rank: int) -> dict:
    r = s.region
    ring = [
        [r.xmin, r.ymin], [r.xmax, r.ymin], [r.xmax, r.ymax],
        [r.xmin, r.ymax], [r.xmin, r.ymin],
    ]
    return {
        "type": "Feature",
        "geometry": {"type": "Polygon", "coordinates": [ring]},
        "properties": {
            "n": s.counts.n, "p": s.counts.p, "rho": s.local_rate,
            "llr": s.llr, "p_value": s.p_value, "rank": rank,
        },
    }


def export_report(report: AuditReport, out_dir: str) -> dict[str, str]:
    """Write report.json, regions.geojson, and nulldist.json into out_dir.

    Identical configs and seeds produce byte-identical files apart from the
    timings field of report.json.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "report": os.path.join(out_dir, "report.json"),
        "regions": os.path.join(out_dir, "regions.geojson"),
        "nulldist": os.path.join(out_dir, "nulldist.json"),
    }
    _dump_json(report.to_json_dict(), paths["report"])
    features = [_geojson_feature(s, i + 1)
                for i, s in enumerate(report.evidence)]
    _dump_json({"type": "FeatureCollection", "features": features},
               paths["regions"])
    _dump_json(report.dist.to_json_dict(), paths["nulldist"])
    return paths


def export_meanvar(report: MeanVarReport, config: dict, out_dir: str) -> str:
    """Write meanvar.json into out_dir and return its path."""
    os.makedirs(out_dir, exist_ok=True)
    doc = report.to_json_dict()
    doc["config"] = config
    path = os.path.join(out_dir, "meanvar.json")
    _dump_json(doc, path)
    return path


def check_meanvar(cfg: AuditConfig) -> None:
    """Refuse a MeanVar config before any data is read."""
    if cfg.family_spec()["kind"] not in ("grid", "random_partitionings"):
        raise ValueError("MeanVar needs a partitioning family "
                         "(grid or random partitionings)")
    cfg.check_families()


def run_meanvar(d: Dataset, cfg: AuditConfig, top_k: int = 50
                ) -> MeanVarReport:
    check_meanvar(cfg)
    ix = build_index(d, cfg.resolution)
    return mean_var(ix, build_family(cfg, d.bbox, d), top_k=top_k)
