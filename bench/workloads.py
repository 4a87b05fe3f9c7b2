"""Benchmark workloads: input generators, CLI arguments and the CSV cache.

The generators are the benchmark's own numpy code, not ``fairscan.synth``,
so that reworking the package's synthetic-data or dataset code cannot
change the inputs a baseline was measured on.

Each workload has fixed locations (drawn from GEOMETRY_SEED) and runs the
audit with a fixed ``--seed`` (AUDIT_SEED); the workload seed draws the
outcomes. Locations and the audit seed set the k-means iteration count and
the number of random-partition cells, which move the audit time by up to
±30% between seeds (55 to 100 Lloyd iterations on the planted workload).
Holding them fixed keeps run-to-run spread down to timing noise, while the
outcomes, and with them the verdict, evidence and null distribution,
change with every seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

GEOMETRY_SEED = 0
AUDIT_SEED = 0
ALPHA = 0.005
# The smallest valid --worlds/--alpha pair: alpha * (worlds + 1) >= 1.
SETUP_WORLDS, SETUP_ALPHA = 1, 0.5

CACHE_DIR = Path(__file__).resolve().parent / ".cache"
# CSVs kept per workload; older seeds are evicted so runs over many seeds
# do not fill the disk with 48 MB files.
CACHE_KEEP = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tag: int            # mixed into both seeds so workloads draw apart
    locations: Callable[[np.random.Generator], tuple[np.ndarray, np.ndarray]]
    outcomes: Callable[[np.random.Generator, np.ndarray, np.ndarray], np.ndarray]
    family: tuple       # ("random", K) | ("squares", K) | ("grid", MX, MY)
    worlds: int
    plant: tuple[float, float, float, float] | None = None

    def family_args(self) -> list[str]:
        kind = self.family[0]
        if kind == "random":
            return ["--random-partitionings", str(self.family[1])]
        if kind == "squares":
            return ["--squares", "--centers", str(self.family[1])]
        return ["--grid", f"{self.family[1]}x{self.family[2]}"]


def _split_locations(rng, n=10_000):
    half = n // 2
    xs = np.concatenate((rng.uniform(0.0, 0.5, half), rng.uniform(0.5, 1.0, half)))
    return xs, rng.uniform(0.0, 1.0, n)


def _split_outcomes(rng, xs, ys):
    """Exactly n/2 positives, 2/3 of them among the west half's points."""
    half = len(xs) // 2
    west_pos = (2 * half) // 3
    out = np.zeros(len(xs), dtype=np.int8)
    out[rng.choice(half, size=west_pos, replace=False)] = 1
    out[half + rng.choice(half, size=half - west_pos, replace=False)] = 1
    return out


PLANT = (3.7, 2.9, 5.3, 4.5)


def _planted_locations(rng, n=20_000):
    return rng.uniform(0.0, 10.0, n), rng.uniform(0.0, 10.0, n)


def _planted_outcomes(rng, xs, ys):
    """Bernoulli(0.8) inside PLANT, Bernoulli(0.5) outside."""
    x0, y0, x1, y1 = PLANT
    inside = (xs >= x0) & (xs < x1) & (ys >= y0) & (ys < y1)
    return (rng.random(len(xs)) < np.where(inside, 0.8, 0.5)).astype(np.int8)


def _clustered_locations(rng, n=1_000_000):
    """25 Gaussian blobs (sd 0.01) on the unit square plus 20% uniform noise."""
    n_bg = n // 5
    n_cl = n - n_bg
    centers = rng.uniform(0.0, 1.0, (25, 2))
    pts = centers[rng.integers(0, 25, n_cl)] + rng.normal(0.0, 0.01, (n_cl, 2))
    pts = np.vstack((pts, rng.uniform(0.0, 1.0, (n_bg, 2))))
    np.clip(pts, 0.0, 1.0, out=pts)
    return pts[:, 0], pts[:, 1]


def _fair_outcomes(rng, xs, ys):
    return (rng.random(len(xs)) < 0.5).astype(np.int8)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="split10k-random100",
        why="10k rows, 100 random partitionings (70k cells), 999 worlds: "
            "per-world counting and LLR dominate; data load is tiny",
        tag=1, locations=_split_locations, outcomes=_split_outcomes,
        family=("random", 100), worlds=999,
    ),
    Workload(
        name="planted20k-squares",
        why="20k rows, 100 k-means centers x 20 squares, 999 worlds: k-means "
            "dominates and the planted rectangle must be recovered",
        tag=2, locations=_planted_locations, outcomes=_planted_outcomes,
        family=("squares", 100), worlds=999, plant=PLANT,
    ),
    Workload(
        name="clustered1m-grid",
        why="1M clustered fair rows, 100x50 grid, 199 worlds: CSV load, "
            "memory growth with N and per-world bincount over N",
        tag=3, locations=_clustered_locations, outcomes=_fair_outcomes,
        family=("grid", 100, 50), worlds=199,
    ),
)}

# A seconds-long configuration for the benchmark's own tests; not part of
# BENCHMARK.json.
SMOKE = Workload(
    name="smoke", why="tiny split dataset for the benchmark's tests",
    tag=9, locations=lambda rng: _split_locations(rng, 2_000),
    outcomes=_split_outcomes, family=("random", 5), worlds=199,
)


def get(name: str) -> Workload:
    if name == SMOKE.name:
        return SMOKE
    return WORKLOADS[name]


def _write_csv(path: Path, xs, ys, out) -> None:
    lines = ["id,lon,lat,outcome"]
    lines.extend(f"r{i},{x!r},{y!r},{o}" for i, (x, y, o) in
                 enumerate(zip(xs.tolist(), ys.tolist(), out.tolist())))
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def dataset_path(w: Workload, seed: int, cache_dir: Path = CACHE_DIR
                 ) -> tuple[Path, dict]:
    """Path of the workload's CSV for this seed, generating it if needed.

    Returns the path and a record of its rows, bytes and positives.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{w.name}-s{seed}.csv"
    meta_path = cache_dir / f"{w.name}-s{seed}.json"
    if path.exists() and meta_path.exists():
        return path, json.loads(meta_path.read_text(encoding="utf-8"))
    geo = np.random.default_rng(np.random.SeedSequence([GEOMETRY_SEED, w.tag]))
    xs, ys = w.locations(geo)
    out = w.outcomes(np.random.default_rng(np.random.SeedSequence([seed, w.tag, 1])),
                     xs, ys)
    _write_csv(path, xs, ys, out)
    meta = {"rows": int(len(xs)), "bytes": path.stat().st_size,
            "positives": int(out.sum())}
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    _evict(w, cache_dir, keep=path)
    return path, meta


def _evict(w: Workload, cache_dir: Path, keep: Path) -> None:
    old = sorted((p for p in cache_dir.glob(f"{w.name}-s*.csv") if p != keep),
                 key=lambda p: p.stat().st_mtime, reverse=True)
    for p in old[CACHE_KEEP - 1:]:
        p.unlink(missing_ok=True)
        p.with_suffix(".json").unlink(missing_ok=True)
