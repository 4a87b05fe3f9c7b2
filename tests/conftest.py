from __future__ import annotations

import numpy as np
import pytest

from fairscan import CountPlan, Dataset, Rectangles, ScanResult, build_index, synth
from fairscan.geometry import Region


def make_dataset(lons, lats, outcomes, labels=None) -> Dataset:
    return Dataset.from_arrays(lons, lats, outcomes, labels)


def cell_regions(part) -> list[Region]:
    """A partitioning's cells as Regions, in cell order."""
    return [Region(*b) for b in part.cell_bounds().tolist()]


def rectangles(regions) -> Rectangles:
    """Regions as one Rectangles family, in order, center ids kept."""
    bounds = np.array([r.bounds() for r in regions], dtype=np.float64)
    return Rectangles(bounds.reshape(-1, 4),
                      np.array([r.center_id for r in regions], dtype=object))


def row_regions(rows) -> list[Region]:
    """The rows of a CountPlan or a ScanResult as Regions, center ids kept."""
    return [Region(*b, center_id=c) for b, c in
            zip(rows.bounds.tolist(), rows.center_ids.tolist())]


def scan_rows(regions, llr, n=10, p=5) -> ScanResult:
    """A ScanResult of the regions, in order, with the given scores; every
    row counts n points and p positives unless given one count each."""
    family, m = rectangles(regions), len(regions)
    return ScanResult(
        family.bounds, family.center_ids,
        np.broadcast_to(np.asarray(n, dtype=np.int64), (m,)).copy(),
        np.broadcast_to(np.asarray(p, dtype=np.int64), (m,)).copy(),
        np.asarray(llr, dtype=np.float64).reshape(m))


def plan_counts(ix, region: Region) -> tuple[int, int]:
    """(n, p) of one rectangle under the index's labels, from a one-region
    CountPlan."""
    plan = CountPlan(ix, rectangles([region]))
    return int(plan.n[0]), int(plan.positives(ix.labels)[0])


def random_dataset(rng, n: int, rect: Region | None = None,
                   duplicates: bool = False) -> Dataset:
    """Uniform points with Bernoulli(1/2) outcomes, optionally duplicated."""
    rect = rect or Region(0.0, 0.0, 1.0, 1.0)
    lons = rng.uniform(rect.xmin, rect.xmax, size=n)
    lats = rng.uniform(rect.ymin, rect.ymax, size=n)
    if duplicates and n >= 4:
        take = rng.integers(0, n, size=n // 3)
        lons[: len(take)] = lons[take]
        lats[: len(take)] = lats[take]
    outcomes = rng.integers(0, 2, size=n)
    return make_dataset(lons, lats, outcomes)


def random_region(rng, bbox: Region, snap_points=None) -> Region:
    """A random query rectangle, sometimes snapped to data coordinates.

    Snapping edges onto actual point coordinates exercises the boundary
    semantics, which is where counting bugs live.
    """
    lo, hi = -0.2, 1.2
    span_x = bbox.xmax - bbox.xmin
    span_y = bbox.ymax - bbox.ymin

    def coord(axis_lo, span, points):
        if points is not None and rng.random() < 0.5:
            return float(points[rng.integers(0, len(points))])
        return float(axis_lo + span * rng.uniform(lo, hi))

    xs_snap = ys_snap = None
    if snap_points is not None:
        xs_snap, ys_snap = snap_points
    x1 = coord(bbox.xmin, span_x, xs_snap)
    x2 = coord(bbox.xmin, span_x, xs_snap)
    y1 = coord(bbox.ymin, span_y, ys_snap)
    y2 = coord(bbox.ymin, span_y, ys_snap)
    return Region(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


@pytest.fixture(scope="session")
def split400() -> Dataset:
    return synth.gen_uniform_split(400, seed=11)


@pytest.fixture(scope="session")
def split400_index(split400):
    return build_index(split400)
