"""MeanVar baseline: average dispersion of local positive rates.

For one partitioning, the statistic is the population variance of the
positive rate over its non-empty cells; empty cells carry no rate and are
excluded. MeanVar is the mean of that variance over a collection of
partitionings. It is a descriptive heat measure, not a significance test:
sparse cells inflate it even under perfectly fair labelings, which is
exactly the failure mode the scan statistic avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .index import SpatialIndex
from .regions import JsonRows, Partitioning
from .scanner import as_scanner

# Contributors a report ranks when the caller names no count.
DEFAULT_TOP_K = 50


@dataclass(frozen=True)
class MeanVarReport:
    """MeanVar with each partitioning's variance and the ranked cells.

    ``top_contributors`` holds the cells as columns, best first: ``bounds``
    (k, 4), ``n``, ``p``, ``rho`` (the cell's positive rate) and
    ``contribution`` (its squared deviation from its partitioning's mean
    rate). ``to_json_dict`` hands them to the JSON writer as ranked
    ``regions.JsonRows``, as the audit hands over its evidence.
    """

    mean_var: float
    per_partitioning: tuple[tuple[Mapping[str, object], float], ...]
    top_contributors: Mapping[str, np.ndarray]

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "mean_var": self.mean_var,
            "per_partitioning": [
                {"provenance": dict(prov), "variance": var}
                for prov, var in self.per_partitioning
            ],
            "top_contributors": JsonRows.table(**self.top_contributors),
        }


def mean_var(ix: SpatialIndex, parts: Sequence[Partitioning],
             top_k: int = DEFAULT_TOP_K) -> MeanVarReport:
    """MeanVar over a collection of partitionings, with a contributor ranking.

    The report carries each partitioning's variance, their mean, and the
    top_k cells across all partitionings ranked by contribution: a cell's
    squared deviation from the unweighted mean of its partitioning's
    non-empty cell rates. Every occupied cell is ranked in one stable
    sort, so ties keep (partitioning, cell) order.
    """
    if not parts:
        raise ValueError("need at least one partitioning")
    if top_k < 1:
        raise ValueError(f"top_k must be positive, got {top_k}")
    plan = as_scanner(ix, parts)
    positives = plan.positives(ix.outcomes)
    per_part = []
    rows, rates, contribs = [], [], []
    lo = 0
    for part in parts:
        hi = lo + len(part)
        n, p = plan.n[lo:hi], positives[lo:hi]
        occupied = n > 0
        if not occupied.any():
            raise ValueError("partitioning has no occupied cells")
        rate = p[occupied] / n[occupied]
        per_part.append((dict(part.provenance), float(np.var(rate))))
        rows.append(lo + np.flatnonzero(occupied))
        rates.append(rate)
        contribs.append((rate - rate.mean()) ** 2)
        lo = hi
    contrib = np.concatenate(contribs)
    top = np.argsort(-contrib, kind="stable")[:top_k]
    rows = np.concatenate(rows)[top]
    return MeanVarReport(
        mean_var=float(np.mean([v for _, v in per_part])),
        per_partitioning=tuple(per_part),
        top_contributors={
            "bounds": plan.bounds[rows], "n": plan.n[rows],
            "p": positives[rows], "rho": np.concatenate(rates)[top],
            "contribution": contrib[top],
        },
    )
