"""Spatial fairness auditing for binary classifier outcomes.

The package answers one question about a deployed binary classifier: are
its positive outcomes distributed fairly over space, or is there some
geographic region whose subjects are treated differently enough that the
disparity cannot be explained by chance?  The audit scans a family of
candidate rectangular regions with a Bernoulli likelihood-ratio statistic,
calibrates the maximum against Monte Carlo simulations of fair worlds, and
returns a verdict plus ranked evidence regions when the answer is unfair.
"""

from __future__ import annotations

from .dataset import (
    Dataset,
    DatasetError,
    MeasureMode,
    load_dataset,
    write_csv,
)
from .geometry import Region, bounding_box, regions_overlap
from .index import RegionCounts, SpatialIndex, build_index
from .likelihood import (
    Direction,
    ScanResult,
    ScoredRegion,
    llr_vector,
    scan_regions,
)
from .meanvar import MeanVarReport, mean_var
from .montecarlo import (
    AuditVerdict,
    MaxStatDistribution,
    critical_value,
    global_p_value,
    significant_regions,
    simulate_worlds,
)
from .pipeline import (
    AuditConfig,
    AuditReport,
    audit,
    export_report,
    run_audit,
    run_meanvar,
    select_non_overlapping,
)
from .regions import (
    Partitioning,
    Rectangles,
    kmeans_centers,
    load_region_families,
    random_partitionings,
    regular_grid,
    save_region_families,
    square_scan_set,
)
from .scanner import CountPlan, as_scanner

__version__ = "0.1.0"

__all__ = [
    "AuditConfig",
    "AuditReport",
    "AuditVerdict",
    "CountPlan",
    "Dataset",
    "DatasetError",
    "Direction",
    "MaxStatDistribution",
    "MeanVarReport",
    "MeasureMode",
    "Partitioning",
    "Rectangles",
    "Region",
    "RegionCounts",
    "ScanResult",
    "ScoredRegion",
    "SpatialIndex",
    "as_scanner",
    "audit",
    "bounding_box",
    "build_index",
    "critical_value",
    "export_report",
    "global_p_value",
    "kmeans_centers",
    "llr_vector",
    "load_dataset",
    "load_region_families",
    "mean_var",
    "random_partitionings",
    "regions_overlap",
    "regular_grid",
    "run_audit",
    "run_meanvar",
    "save_region_families",
    "scan_regions",
    "select_non_overlapping",
    "significant_regions",
    "simulate_worlds",
    "square_scan_set",
    "write_csv",
]
