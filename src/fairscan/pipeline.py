"""End-to-end audit: load, index, generate regions, scan, simulate, report.

The pipeline wires the pieces together without adding statistics of its
own. Partitioning families are flattened into one candidate list before
scanning, so the global max and the significance cutoff range over every
cell of every partitioning.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, MeasureMode, load_dataset
from .geometry import Region
from .index import build_index
from .likelihood import Direction, ScanResult, scan_regions
from .meanvar import DEFAULT_TOP_K, MeanVarReport, mean_var
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
    dump_json,
    kmeans_centers,
    load_region_families,
    random_partitionings,
    regular_grid,
    rows_json,
    square_scan_set,
)
from .scanner import as_scanner


# Admitted rows that select_non_overlapping tests a row against one pair at
# a time; beyond them, one array comparison against every admitted row. On a
# 2-vCPU VM one pair took 0.3 us and one comparison 8-9 us up to 1,000 rows.
_NEAR_ROWS = 32


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
        worlds = self.num_worlds - 1  # what --worlds and the key worlds set
        if worlds < 1:
            raise ValueError(
                f"--worlds (config key worlds) must be at least 1, got "
                f"{worlds}; num_worlds = worlds + 1 counts the real world"
            )
        if self.alpha * self.num_worlds < 1.0:
            raise ValueError(
                f"--worlds {worlds} is too few for alpha {self.alpha}: "
                f"alpha*(worlds + 1) = {self.alpha * self.num_worlds:.3f} "
                "< 1; raise --worlds (config key worlds) or alpha"
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
            "top_k": self.top_k,
        }


@dataclass
class AuditReport:
    verdict: AuditVerdict
    evidence: ScanResult
    non_overlapping: ScanResult
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
            "evidence": _rows_json(self.evidence),
            "non_overlapping": _rows_json(self.non_overlapping),
            "timings": self.timings,
        }


def _rows_json(rows: ScanResult) -> list[dict]:
    """Each evidence row as plain Python values, ranked from 1 in row order.

    Any empty sequence, such as a plain empty list, gives no rows.
    """
    if len(rows) == 0:
        return []
    return rows_json(rows.bounds, center_id=rows.center_ids, n=rows.n,
                     p=rows.p, rho=rows.p / rows.n, llr=rows.llr,
                     p_value=rows.p_value)


def derive_seeds(seed: int) -> tuple[int, int]:
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
    region_seed, _ = derive_seeds(cfg.seed)
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
    ix = build_index(d)
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
    _, sim_seed = derive_seeds(cfg.seed)
    dist = simulate_worlds(
        ix, plan, d.rho, cfg.num_worlds - 1, seed=sim_seed,
        direction=cfg.direction,
    )
    timings["simulate_s"] = time.perf_counter() - t3

    p_value = global_p_value(tau_log, dist)
    cutoff = critical_value(dist, cfg.alpha)
    fair = p_value > cfg.alpha
    verdict = AuditVerdict(
        tau_log=tau_log, p_value=p_value, alpha=cfg.alpha, fair=fair,
        critical_llr=cutoff,
    )
    # A fair verdict reports no evidence: no score is above an infinite
    # cutoff.
    evidence = significant_regions(scored, np.inf if fair else cutoff, dist)
    if cfg.top_k is not None:
        evidence = evidence.take(slice(cfg.top_k))
    t4 = time.perf_counter()
    non_overlapping = select_non_overlapping(evidence)
    timings["pick_s"] = time.perf_counter() - t4
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


def select_non_overlapping(evidence: ScanResult) -> ScanResult:
    """Greedy disjoint subset of the evidence rows, strongest first.

    First the best-scoring row per center is kept (the first of equal
    scores; rows without a center_id each count as their own center), then
    rows are admitted in descending score order, ties in the order their
    centers first appear, unless they overlap an admitted row with
    positive area. Rows that share only an edge or a corner do not overlap.
    """
    llr = evidence.llr.tolist()
    best: dict[object, int] = {}
    for i, cid in enumerate(evidence.center_ids.tolist()):
        key = ("#", i) if cid is None else cid
        j = best.setdefault(key, i)
        if llr[i] > llr[j]:
            best[key] = i
    rows = np.fromiter(best.values(), dtype=np.intp, count=len(best))
    rows = rows[np.argsort(-evidence.llr[rows], kind="stable")]
    bounds = evidence.bounds[rows]
    # Buckets of a grid whose edges on each axis are sorted finite bounds:
    # bucket i holds the coordinates with i edges at or below them. A row
    # meets at least the buckets of the points strictly inside it, so two
    # rows that overlap share the bucket of a point inside both. Every s-th
    # bound is an edge, s the median count of bounds strictly inside a row,
    # so a typical row meets one or two buckets an axis; but no axis has
    # more than about sqrt(rows) edges.
    spans = np.empty(bounds.shape, dtype=np.intp)
    for axis in (0, 1):
        lo, hi = bounds[:, axis], bounds[:, axis + 2]
        ends = np.sort(bounds[:, axis::2][np.isfinite(bounds[:, axis::2])])
        inside = np.searchsorted(ends, hi) - np.searchsorted(ends, lo, "right")
        step = max(1, len(ends) // (math.isqrt(len(rows)) + 1),
                   int(np.median(inside)) if len(rows) else 0)
        spans[:, axis] = np.searchsorted(ends[::step], lo, "right")
        spans[:, axis + 2] = np.searchsorted(ends[::step], hi)
    # A row is tested one pair at a time against the admitted rows listed
    # in the buckets it meets, unless it meets more than _NEAR_ROWS buckets
    # or they list more than _NEAR_ROWS rows: then in one array comparison
    # against every admitted row (``lines`` holds each admitted bound as
    # one contiguous line).
    buckets: dict[tuple[int, int], list] = {}
    chosen = []
    lines = np.empty((4, len(rows)))
    for r, box, (i0, j0, i1, j1) in zip(rows.tolist(), bounds.tolist(),
                                        spans.tolist()):
        x0, y0, x1, y1 = box
        met = range(i0, i1 + 1), range(j0, j1 + 1)
        near = ([buckets.get(key, ()) for key in itertools.product(*met)]
                if len(met[0]) * len(met[1]) <= _NEAR_ROWS else None)
        if near is None or sum(map(len, near)) > _NEAR_ROWS:
            a = lines[:, :len(chosen)]
            if ((np.minimum(a[2], x1) > np.maximum(a[0], x0))
                    & (np.minimum(a[3], y1) > np.maximum(a[1], y0))).any():
                continue
        elif any(min(a[2], x1) > max(a[0], x0)
                 and min(a[3], y1) > max(a[1], y0)
                 for listed in near for a in listed):
            continue
        lines[:, len(chosen)] = box
        chosen.append(r)
        for key in itertools.product(*met):
            buckets.setdefault(key, []).append(box)
    return evidence.take(np.array(chosen, dtype=np.intp))


def _geojson_feature(row: dict) -> dict:
    ring = [
        [row["xmin"], row["ymin"]], [row["xmax"], row["ymin"]],
        [row["xmax"], row["ymax"]], [row["xmin"], row["ymax"]],
        [row["xmin"], row["ymin"]],
    ]
    return {
        "type": "Feature",
        "geometry": {"type": "Polygon", "coordinates": [ring]},
        "properties": {key: row[key] for key in
                       ("n", "p", "rho", "llr", "p_value", "rank")},
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
    doc = report.to_json_dict()
    dump_json(doc, paths["report"])
    features = [_geojson_feature(row) for row in doc["evidence"]]
    dump_json({"type": "FeatureCollection", "features": features},
              paths["regions"])
    dump_json(report.dist.to_json_dict(), paths["nulldist"])
    return paths


def export_meanvar(report: MeanVarReport, config: dict, out_dir: str) -> str:
    """Write meanvar.json into out_dir and return its path."""
    os.makedirs(out_dir, exist_ok=True)
    doc = report.to_json_dict()
    doc["config"] = config
    path = os.path.join(out_dir, "meanvar.json")
    dump_json(doc, path)
    return path


def check_meanvar(cfg: AuditConfig) -> None:
    """Refuse a MeanVar config before any data is read."""
    if cfg.family_spec()["kind"] not in ("grid", "random_partitionings"):
        raise ValueError("MeanVar needs a partitioning family "
                         "(grid or random partitionings)")
    cfg.check_families()


def run_meanvar(d: Dataset, cfg: AuditConfig) -> MeanVarReport:
    """MeanVar over the config's partitionings, ranking its top_k
    contributors (DEFAULT_TOP_K when it names none)."""
    check_meanvar(cfg)
    ix = build_index(d)
    return mean_var(ix, build_family(cfg, d.bbox, d), top_k=(
        DEFAULT_TOP_K if cfg.top_k is None else cfg.top_k))
