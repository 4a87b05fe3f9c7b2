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

from .geometry import Region
from .index import RegionCounts, SpatialIndex
from .regions import Partitioning
from .scanner import as_scanner


@dataclass(frozen=True)
class Contribution:
    """One cell's squared deviation from its partitioning's mean rate."""

    region: Region
    counts: RegionCounts
    local_rate: float
    contribution: float


@dataclass(frozen=True)
class MeanVarReport:
    mean_var: float
    per_partitioning: tuple[tuple[Mapping[str, object], float], ...]
    top_contributors: tuple[Contribution, ...]

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "mean_var": self.mean_var,
            "per_partitioning": [
                {"provenance": dict(prov), "variance": var}
                for prov, var in self.per_partitioning
            ],
            "top_contributors": [
                {
                    "rank": i + 1,
                    "xmin": c.region.xmin, "ymin": c.region.ymin,
                    "xmax": c.region.xmax, "ymax": c.region.ymax,
                    "n": c.counts.n, "p": c.counts.p,
                    "rho": c.local_rate,
                    "contribution": c.contribution,
                }
                for i, c in enumerate(self.top_contributors)
            ],
        }


def mean_var(ix: SpatialIndex, parts: Sequence[Partitioning],
             top_k: int = 50) -> MeanVarReport:
    """MeanVar over a collection of partitionings, with a contributor ranking.

    The report carries each partitioning's variance, their mean, and the
    top_k cells across all partitionings ranked by contribution: a cell's
    squared deviation from the unweighted mean of its partitioning's
    non-empty cell rates. Ties keep cell order.
    """
    if not parts:
        raise ValueError("need at least one partitioning")
    plan = as_scanner(ix, parts)
    positives = plan.positives(ix.labels)
    per_part = []
    contributors: list[Contribution] = []
    lo = 0
    for part in parts:
        hi = lo + len(part)
        n, p = plan.n[lo:hi], positives[lo:hi]
        occupied = n > 0
        if not occupied.any():
            raise ValueError("partitioning has no occupied cells")
        rates = p[occupied] / n[occupied]
        per_part.append((dict(part.provenance), float(np.var(rates))))
        idx = np.flatnonzero(occupied)
        contrib = (rates - rates.mean()) ** 2
        # Only a partitioning's own top-k can reach the global top-k.
        order = np.argsort(-contrib, kind="stable")[:top_k]
        contributors.extend(
            Contribution(
                region=plan.region(lo + int(idx[j])),
                counts=RegionCounts(int(n[idx[j]]), int(p[idx[j]])),
                local_rate=float(rates[j]),
                contribution=float(contrib[j]),
            )
            for j in order
        )
        lo = hi
    contributors.sort(key=lambda c: -c.contribution)
    return MeanVarReport(
        mean_var=float(np.mean([v for _, v in per_part])),
        per_partitioning=tuple(per_part),
        top_contributors=tuple(contributors[:top_k]),
    )
