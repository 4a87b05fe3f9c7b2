"""Monte Carlo reference distribution and significance decisions.

The observed world is compared against counterfactual fair worlds: each
keeps every location fixed and redraws every outcome as an independent
Bernoulli(rho) trial. The max region score of each simulated world forms
the reference distribution; the real world's rank inside it gives the
global p-value, and the distribution's upper quantile gives the per-region
significance cutoff that controls the family-wise error across candidates.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .likelihood import Direction, ScanResult, ScoredRegion, llr_vector
from .index import SpatialIndex
from .scanner import as_scanner


@dataclass(frozen=True)
class MaxStatDistribution:
    """Per-world maximum scores from the simulated fair worlds.

    values is sorted descending and has w - 1 entries, where w counts the
    simulated worlds plus the real one.
    """

    values: np.ndarray
    w: int
    seed: int
    direction: Direction

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "values": [float(v) for v in self.values],
            "w": self.w,
            "seed": self.seed,
            "direction": self.direction.value,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MaxStatDistribution":
        return cls(
            values=np.asarray(doc["values"], dtype=np.float64),
            w=int(doc["w"]),
            seed=int(doc["seed"]),
            direction=Direction(doc["direction"]),
        )


@dataclass(frozen=True)
class AuditVerdict:
    tau_log: float
    p_value: float
    alpha: float
    fair: bool
    critical_llr: float


def _world_seeds(seed: int, num_worlds: int) -> list[np.random.SeedSequence]:
    # Stream per world index: results do not depend on execution order.
    return np.random.SeedSequence(seed).spawn(num_worlds)


def simulate_worlds(ix: SpatialIndex, regions, rho: float, num_worlds: int,
                    seed: int, direction: Direction = Direction.TWO_SIDED,
                    threads: int | None = 1) -> MaxStatDistribution:
    """Draw fair worlds at the real locations and record each one's max score.

    Every world redraws all N labels as Bernoulli(rho) and is scanned over
    exactly the same candidate regions as the real world, using its own
    positive total. ``threads`` caps the worker threads (None means one per
    CPU); the output is identical for any thread count.
    """
    if num_worlds < 1:
        raise ValueError(f"num_worlds must be >= 1, got {num_worlds}")
    if not 0.0 < rho < 1.0:
        raise ValueError(
            f"rho must be strictly between 0 and 1, got {rho}; a degenerate "
            "rate makes every simulated world identical"
        )
    plan = as_scanner(ix, regions)
    n_obs = ix.N
    n_vec = plan.n
    seeds = _world_seeds(seed, num_worlds)
    values = np.zeros(num_worlds, dtype=np.float64)

    def run_range(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            rng = np.random.default_rng(seeds[i])
            labels = (rng.random(n_obs) < rho).astype(np.int8)
            p_world = int(labels.sum())
            p_vec = plan.positives(labels)
            llr = llr_vector(n_vec, p_vec, n_obs, p_world, direction)
            values[i] = llr.max() if len(llr) else 0.0

    workers = threads if threads is not None else (os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    workers = min(workers, num_worlds)
    if workers == 1:
        run_range(0, num_worlds)
    else:
        step = math.ceil(num_worlds / workers)
        bounds = [(lo, min(lo + step, num_worlds))
                  for lo in range(0, num_worlds, step)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: run_range(*b), bounds))

    order = np.argsort(-values, kind="stable")
    return MaxStatDistribution(
        values=values[order],
        w=num_worlds + 1,
        seed=seed,
        direction=Direction(direction),
    )


def global_p_value(tau_log: float, dist: MaxStatDistribution) -> float:
    """Monte Carlo p-value of the real world's max score.

    The real world ranks among the w - 1 simulated maxima; ties count
    against the real world, so p = (1 + #{simulated >= tau}) / w. The
    smallest attainable value is 1/w.
    """
    k = 1 + int((dist.values >= tau_log).sum())
    return k / dist.w


def critical_value(dist: MaxStatDistribution, alpha: float) -> float:
    """Score cutoff controlling the family-wise error at level alpha.

    Returns the floor(alpha*w)-th largest simulated max. Requires
    alpha*w >= 1; with fewer simulated worlds than 1/alpha the quantile
    does not exist.
    """
    m = math.floor(alpha * dist.w)
    if m < 1:
        raise ValueError(
            f"alpha*w = {alpha * dist.w:.3f} < 1: too few worlds to "
            f"resolve level {alpha}"
        )
    return float(dist.values[m - 1])


def significant_regions(scored: ScanResult, cutoff: float,
                        dist: MaxStatDistribution | None = None
                        ) -> list[ScoredRegion]:
    """Non-empty regions scoring strictly above the cutoff, best first.

    Ties in score keep candidate order. When the reference distribution is
    given, each surviving region is annotated with the p-value its own
    score would earn as a global max.
    """
    keep = np.flatnonzero((scored.n > 0) & (scored.llr > cutoff))
    keep = keep[np.argsort(-scored.llr[keep], kind="stable")]
    out = [scored[i] for i in keep]
    if dist is not None:
        out = [replace(s, p_value=global_p_value(s.llr, dist)) for s in out]
    return out
