"""Bernoulli likelihood-ratio scoring of candidate regions.

Under the fair null hypothesis every observation is positive with the same
probability, and the maximized null log-likelihood is

    P*ln(P/N) + (N-P)*ln(1 - P/N)        (0*ln 0 := 0).

The alternative lets the rate differ inside and outside a region. With n
points and p positives inside, the maximized alternative log-likelihood
plugs in the two sample rates p/n and (P-p)/(N-n). The region's score is
the log of the likelihood ratio, which is 0 whenever the region is empty,
is everything, or splits positives exactly proportionally; it is strictly
positive otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from collections.abc import Sequence

import numpy as np

from ._kernels import xlogy
from .geometry import Region
from .index import RegionCounts, SpatialIndex
from .scanner import as_scanner

# Scoring a lane takes about ten float64 temporaries, so slices of this many
# lanes hold the real scan's scratch near 2**16 values.
_SCAN_LANES = 1 << 13


class Direction(str, Enum):
    """Which rate deviations count as evidence.

    two_sided scores any difference between the inside and outside rates;
    higher_inside only scores regions whose inside rate exceeds the outside
    rate, lower_inside the opposite. The two one-sided scores decompose the
    two-sided one: their pointwise max equals it.
    """

    TWO_SIDED = "two_sided"
    HIGHER_INSIDE = "higher_inside"
    LOWER_INSIDE = "lower_inside"


@dataclass(frozen=True)
class ScoredRegion:
    region: Region
    counts: RegionCounts
    local_rate: float
    llr: float
    p_value: float | None = None


@dataclass(frozen=True, eq=False)
class ScanResult(Sequence):
    """Every candidate's bounds, center id, counts and score, as columns.

    Indexing builds the ScoredRegion of one candidate on demand.
    """

    bounds: np.ndarray
    center_ids: np.ndarray
    n: np.ndarray
    p: np.ndarray
    llr: np.ndarray

    def __len__(self) -> int:
        return len(self.llr)

    def __getitem__(self, i: int) -> ScoredRegion:
        n = int(self.n[i])
        return ScoredRegion(
            region=Region(*self.bounds[i].tolist(),
                          center_id=self.center_ids[i]),
            counts=RegionCounts(n, int(self.p[i])),
            local_rate=float(self.p[i] / self.n[i]) if n > 0 else 0.0,
            llr=float(self.llr[i]),
        )


def _null_max(N, P):
    return xlogy(P, P / N) + xlogy(N - P, (N - P) / N)


def llr_vector(n, p, N: int, P,
               direction: Direction = Direction.TWO_SIDED) -> np.ndarray:
    """Vectorized log-likelihood ratio for count arrays.

    ``P`` is one positive total or an array of them that broadcasts
    against ``n`` and ``p``, such as one total per column of a block of
    worlds. No precondition checking: callers guarantee 0 <= p <= n <= N,
    p <= P, n - p <= N - P and 0 <= P <= N elementwise. Counts must be
    integral.
    """
    n = np.asarray(n, dtype=np.int64)
    p = np.asarray(p, dtype=np.int64)
    P = np.asarray(P, dtype=np.int64)
    # Exact rate comparison: p/n vs (P-p)/(N-n) as an integer cross product.
    # int64 is safe: |cross| <= N*P fits comfortably for any realistic audit.
    cross = p * (N - n) - n * (P - p)
    direction = Direction(direction)
    if direction is Direction.TWO_SIDED:
        gate = cross != 0
    elif direction is Direction.HIGHER_INSIDE:
        gate = cross > 0
    else:
        gate = cross < 0
    active = gate & (n > 0) & (n < N)

    nn = np.maximum(n, 1)          # safe denominators; inactive lanes zeroed
    mm = np.maximum(N - n, 1)
    q = P - p
    # Grouping inside/outside pairs keeps label complement (p -> n-p,
    # P -> N-P) bit-exact: each pair's addends swap, and float addition
    # commutes.
    inside = xlogy(p, p / nn) + xlogy(n - p, (n - p) / nn)
    outside = xlogy(q, q / mm) + xlogy((N - n) - q, ((N - n) - q) / mm)
    llr = (inside + outside) - _null_max(N, P)
    out = np.where(active, llr, 0.0)
    # Rounding can leave a tiny negative residue on near-proportional splits.
    return np.maximum(out, 0.0)


def scan_regions(ix: SpatialIndex, regions,
                 direction: Direction = Direction.TWO_SIDED
                 ) -> tuple[ScanResult, float]:
    """Score every candidate region against the current labeling.

    ``regions`` may be any family fairscan.scanner.as_scanner accepts,
    including a prebuilt plan. Returns the scores in candidate order plus
    tau_log, the maximum score (0.0 for an empty candidate list). The
    simulation's kernel scores _SCAN_LANES at a time, bit for bit.
    """
    plan = as_scanner(ix, regions)
    p = plan.positives(ix.labels)
    llr = np.empty(len(p))
    for lo in range(0, len(p), _SCAN_LANES):
        lanes = slice(lo, lo + _SCAN_LANES)
        llr[lanes] = llr_vector(plan.n[lanes], p[lanes], ix.N, ix.P,
                                direction)
    tau_log = float(llr.max()) if len(llr) else 0.0
    return ScanResult(plan.bounds, plan.center_ids, plan.n, p, llr), tau_log
