"""Candidate region families: grids, random partitionings, k-means squares."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dataset import Dataset
from .geometry import Region

DEFAULT_MIN_SPLITS = 10
DEFAULT_MAX_SPLITS = 40
# 20 side lengths, 0.1 through 2.0 degrees.
DEFAULT_SIDE_LENGTHS = tuple(np.linspace(0.1, 2.0, 20))


@dataclass(frozen=True)
class Partitioning:
    """A grid of disjoint rectangles covering a bounding box.

    xbounds/ybounds are the sorted cell boundaries including both outer
    edges. Its (len(xbounds)-1) * (len(ybounds)-1) cells are numbered in
    row-major order (y outer, x inner): cell iy*ncols + ix.
    """

    xbounds: np.ndarray
    ybounds: np.ndarray
    provenance: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for axis in ("xbounds", "ybounds"):
            b = np.asarray(getattr(self, axis), dtype=np.float64)
            if b.ndim != 1 or len(b) < 2:
                raise ValueError(f"partitioning {axis} needs at least 2 bounds")
            if not (b[:-1] <= b[1:]).all():
                raise ValueError(
                    f"partitioning {axis} must be sorted ascending, without NaN"
                )
            object.__setattr__(self, axis, b)
        object.__setattr__(self, "provenance", dict(self.provenance))

    def __len__(self) -> int:
        return (len(self.xbounds) - 1) * (len(self.ybounds) - 1)

    def cell_bounds(self) -> np.ndarray:
        """(cells, 4) array of each cell's xmin, ymin, xmax, ymax."""
        xb, yb = self.xbounds, self.ybounds
        out = np.empty((len(yb) - 1, len(xb) - 1, 4), dtype=np.float64)
        out[..., 0] = xb[:-1]
        out[..., 1] = yb[:-1, None]
        out[..., 2] = xb[1:]
        out[..., 3] = yb[1:, None]
        return out.reshape(-1, 4)


def regular_grid(bbox: Region, mx: int, my: int) -> Partitioning:
    """Partition bbox into mx-by-my equal-extent cells."""
    if mx < 1 or my < 1:
        raise ValueError(f"grid dimensions must be positive, got {mx}x{my}")
    if bbox.width == 0.0 and mx > 1:
        raise ValueError("bbox has zero width; a grid with mx > 1 is degenerate")
    if bbox.height == 0.0 and my > 1:
        raise ValueError("bbox has zero height; a grid with my > 1 is degenerate")
    xb = np.linspace(bbox.xmin, bbox.xmax, mx + 1)
    yb = np.linspace(bbox.ymin, bbox.ymax, my + 1)
    return Partitioning(xb, yb, {"kind": "regular", "mx": mx, "my": my})


def random_partitionings(bbox: Region, count: int,
                         min_splits: int = DEFAULT_MIN_SPLITS,
                         max_splits: int = DEFAULT_MAX_SPLITS,
                         seed: int = 0) -> list[Partitioning]:
    """Draw random rectangular partitionings of bbox.

    Partitioning i consumes its own PRNG stream, spawned from the seed by
    index, so results do not depend on generation order or worker count.
    Within a stream the draw order is: h (x-axis split count), v (y-axis
    split count), the h x-coordinates, then the v y-coordinates; split
    counts are uniform on [min_splits, max_splits] inclusive and split
    coordinates uniform over the bbox extent. Each partitioning therefore
    has between (min_splits+1)^2 and (max_splits+1)^2 cells.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if not 1 <= min_splits <= max_splits:
        raise ValueError(
            f"need 1 <= min_splits <= max_splits, got {min_splits}..{max_splits}"
        )
    root = np.random.SeedSequence(seed)
    parts = []
    for i, child in enumerate(root.spawn(count)):
        rng = np.random.default_rng(child)
        h = int(rng.integers(min_splits, max_splits + 1))
        v = int(rng.integers(min_splits, max_splits + 1))
        xsplits = np.sort(rng.uniform(bbox.xmin, bbox.xmax, size=h))
        ysplits = np.sort(rng.uniform(bbox.ymin, bbox.ymax, size=v))
        xb = np.concatenate(([bbox.xmin], xsplits, [bbox.xmax]))
        yb = np.concatenate(([bbox.ymin], ysplits, [bbox.ymax]))
        parts.append(Partitioning(
            xb, yb,
            {"kind": "random", "seed": seed, "index": i, "h": h, "v": v},
        ))
    return parts


def _points_of(data) -> np.ndarray:
    if isinstance(data, Dataset):
        return data.points
    pts = np.asarray(data, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) point array, got {pts.shape}")
    return pts


def kmeans_centers(data, k: int, seed: int = 0, max_iters: int = 100,
                   return_inertia: bool = False):
    """Cluster observation locations with k-means++ seeded Lloyd iterations.

    Runs on every observation, so duplicate locations act as weights.
    Deterministic for a given seed. Stops when assignments stabilize or
    after max_iters. With return_inertia=True also returns the inertia
    recorded after each assignment step (a non-increasing sequence).
    """
    pts = _points_of(data)
    npts = len(pts)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    distinct = np.unique(pts, axis=0)
    if k > len(distinct):
        raise ValueError(
            f"k={k} exceeds the {len(distinct)} distinct locations"
        )
    rng = np.random.default_rng(seed)

    # k-means++ initialization: spread starting centers by squared distance.
    centers = np.empty((k, 2), dtype=np.float64)
    centers[0] = pts[rng.integers(npts)]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        centers[j] = pts[rng.choice(npts, p=d2 / d2.sum())]
        d2 = np.minimum(d2, ((pts - centers[j]) ** 2).sum(axis=1))

    inertia_trace: list[float] = []
    assign = None
    for _ in range(max_iters):
        dist2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = dist2.argmin(axis=1)
        inertia_trace.append(float(dist2[np.arange(npts), new_assign].sum()))
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        sums = np.zeros((k, 2), dtype=np.float64)
        np.add.at(sums, assign, pts)
        sizes = np.bincount(assign, minlength=k)
        empty = sizes == 0
        if empty.any():
            # Re-seed each empty cluster on the point farthest from its
            # current center; deterministic via argmax.
            far_order = np.argsort(-dist2[np.arange(npts), assign],
                                   kind="stable")
            taken = 0
            for cj in np.flatnonzero(empty):
                centers[cj] = pts[far_order[taken]]
                taken += 1
            # Recompute assignment against repaired centers next loop.
            nonempty = ~empty
            centers[nonempty] = sums[nonempty] / sizes[nonempty, None]
            continue
        centers = sums / sizes[:, None]
    if return_inertia:
        return centers, inertia_trace
    return centers


def square_scan_set(centers, side_lengths: Sequence[float] | None = None
                    ) -> list[Region]:
    """Squares of every given side length centered on every given point.

    Squares are not clipped to any bounding box; empty overhang is handled
    by the counting layer. Each square carries the center_id of the center
    it came from, so overlap pruning can pick one square per center.
    """
    if side_lengths is None:
        side_lengths = DEFAULT_SIDE_LENGTHS
    sides = [float(s) for s in side_lengths]
    for s in sides:
        if s <= 0:
            raise ValueError(f"side lengths must be positive, got {s}")
    out = []
    for i, (cx, cy) in enumerate(np.asarray(centers, dtype=np.float64)):
        cid = f"c{i}"
        for s in sides:
            half = s / 2.0
            out.append(Region(cx - half, cy - half, cx + half, cy + half,
                              center_id=cid))
    return out


def save_region_families(path: str, families: Iterable) -> None:
    """Serialize partitionings and plain region lists to a JSON document."""
    doc_families = []
    for fam in families:
        if isinstance(fam, Partitioning):
            doc_families.append({
                "kind": "partitioning",
                "provenance": dict(fam.provenance),
                "xbounds": [float(v) for v in fam.xbounds],
                "ybounds": [float(v) for v in fam.ybounds],
                "regions": fam.cell_bounds().tolist(),
            })
        else:
            doc_families.append({
                "kind": "regions",
                "regions": [
                    {"xmin": r.xmin, "ymin": r.ymin,
                     "xmax": r.xmax, "ymax": r.ymax,
                     "center_id": r.center_id}
                    for r in fam
                ],
            })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": 1, "families": doc_families}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _list(obj: Mapping, key: str, where: str) -> list:
    value = obj.get(key)
    if not isinstance(value, list):
        raise ValueError(f"{where}: {key} must be a list, got {value!r}")
    return value


def _load_family(fam, where: str):
    if not isinstance(fam, dict) or "kind" not in fam:
        raise ValueError(f"{where}: expected an object with a 'kind'")
    if fam["kind"] == "partitioning":
        provenance = fam.get("provenance", {})
        if not isinstance(provenance, dict):
            raise ValueError(f"{where}: provenance must be an object")
        xb, yb = ([_number(v, f"{where}: {axis}")
                   for v in _list(fam, axis, where)]
                  for axis in ("xbounds", "ybounds"))
        try:
            return Partitioning(xb, yb, provenance)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    if fam["kind"] == "regions":
        out = []
        for i, r in enumerate(_list(fam, "regions", where)):
            at = f"{where} region {i}"
            if not isinstance(r, dict):
                raise ValueError(f"{at}: expected an object")
            center_id = r.get("center_id")
            if center_id is not None and not isinstance(center_id, str):
                raise ValueError(f"{at}: center_id must be a string or null")
            bounds = [_number(r.get(k), f"{at}: {k}")
                      for k in ("xmin", "ymin", "xmax", "ymax")]
            try:
                out.append(Region(*bounds, center_id=center_id))
            except ValueError as exc:
                raise ValueError(f"{at}: {exc}") from None
        return out
    raise ValueError(f"unknown region family kind: {fam['kind']!r}")


def load_region_families(path: str) -> list:
    """Inverse of save_region_families; malformed files raise ValueError."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("region file must hold a JSON object")
    if doc.get("schema") != 1:
        raise ValueError(f"unsupported region file schema: {doc.get('schema')!r}")
    return [_load_family(fam, f"region family {i}")
            for i, fam in enumerate(_list(doc, "families", "region file"))]
