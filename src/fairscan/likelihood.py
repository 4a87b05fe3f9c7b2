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

import numpy as np

from ._kernels import xlogy
from .index import SpatialIndex
from .scanner import as_scanner

# Scoring a lane takes about ten float64 temporaries, so llr_vector scores
# slices of this many lanes to hold its scratch near 2**16 values.
_LLR_LANES = 1 << 13


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


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Scored candidates as columns, one row per candidate.

    ``bounds`` is the (R, 4) array of xmin, ymin, xmax, ymax and
    ``center_ids`` the object array of center links (None for cells).
    The scan leaves ``p_value`` unset; evidence is a row selection of the
    scan (``take``) that carries each row's p-value.
    """

    bounds: np.ndarray
    center_ids: np.ndarray
    n: np.ndarray
    p: np.ndarray
    llr: np.ndarray
    p_value: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.llr)

    def take(self, rows) -> ScanResult:
        """The given rows (an index array or a slice), in that order."""
        return ScanResult(
            self.bounds[rows], self.center_ids[rows], self.n[rows],
            self.p[rows], self.llr[rows],
            None if self.p_value is None else self.p_value[rows])


def _null_max(N, P):
    return xlogy(P, P / N) + xlogy(N - P, (N - P) / N)


def llr_vector(n, p, N: int, P,
               direction: Direction = Direction.TWO_SIDED) -> np.ndarray:
    """Vectorized log-likelihood ratio for count arrays.

    ``P`` is one positive total or an array of them that broadcasts
    against ``n`` and ``p``, such as one total per column of a block of
    worlds. No precondition checking: callers guarantee 0 <= p <= n <= N,
    p <= P, n - p <= N - P and 0 <= P <= N elementwise. Counts must be
    integral. Each lane is scored alone, in first-axis slices of _LLR_LANES.
    """
    direction = Direction(direction)
    shape = np.broadcast(n, p, P).shape
    out = np.empty(shape or 1)   # a 0-d result is one row
    # Inputs at the result's rank; a first axis of length 1 broadcasts.
    inputs = [np.reshape(a, (1,) * (out.ndim - np.ndim(a)) + np.shape(a))
              for a in (n, p, P)]
    step = max(1, _LLR_LANES // max(1, out[:1].size))
    for lo in range(0, len(out), step):
        part = slice(lo, lo + step)
        n, p, P = (np.asarray(a if len(a) == 1 else a[part], dtype=np.int64)
                   for a in inputs)
        # Exact rate comparison, p/n vs (P-p)/(N-n) as an integer cross
        # product; int64 holds |cross| <= N*P for any realistic audit.
        cross = p * (N - n) - n * (P - p)
        if direction is Direction.TWO_SIDED:
            gate = cross != 0
        elif direction is Direction.HIGHER_INSIDE:
            gate = cross > 0
        else:
            gate = cross < 0
        active = gate & (n > 0) & (n < N)

        nn = np.maximum(n, 1)      # safe denominators; inactive lanes zeroed
        mm = np.maximum(N - n, 1)
        q = P - p
        # Grouping inside/outside pairs keeps label complement (p -> n-p,
        # P -> N-P) bit-exact: each pair's addends swap, and float addition
        # commutes.
        inside = xlogy(p, p / nn) + xlogy(n - p, (n - p) / nn)
        outside = xlogy(q, q / mm) + xlogy((N - n) - q, ((N - n) - q) / mm)
        llr = (inside + outside) - _null_max(N, P)
        # Rounding can leave a tiny negative residue near proportionality.
        out[part] = np.maximum(np.where(active, llr, 0.0), 0.0)
    return out.reshape(shape)[()]


def scan_regions(ix: SpatialIndex, regions,
                 direction: Direction = Direction.TWO_SIDED
                 ) -> tuple[ScanResult, float]:
    """Score every candidate region against the current labeling.

    ``regions`` may be any family fairscan.scanner.as_scanner accepts,
    including a prebuilt plan. Returns the scores in candidate order plus
    tau_log, the maximum score (0.0 for an empty candidate list). The
    simulation scores its worlds with the same llr_vector, bit for bit.
    """
    plan = as_scanner(ix, regions)
    p = plan.positives(ix.labels)
    llr = llr_vector(plan.n, p, ix.N, ix.P, direction)
    tau_log = float(llr.max()) if len(llr) else 0.0
    return ScanResult(plan.bounds, plan.center_ids, plan.n, p, llr), tau_log
