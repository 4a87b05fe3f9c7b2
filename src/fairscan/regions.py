"""Candidate region families: grids, random partitionings, k-means squares."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .dataset import Dataset
from .geometry import Region

DEFAULT_MIN_SPLITS = 10
DEFAULT_MAX_SPLITS = 40
# 20 side lengths, 0.1 through 2.0 degrees.
DEFAULT_SIDE_LENGTHS = tuple(np.linspace(0.1, 2.0, 20))
# The longest float64 array numpy can allocate; np.linspace fails with an
# IndexError, not a ValueError, for some counts above it.
MAX_FLOATS = np.iinfo(np.intp).max // 8
# Points whose distances to every center one k-means step computes at a
# time: its two (block, k) float64 buffers are the step's scratch memory.
_KMEANS_BLOCK = 1024
_KMEANS_ITERS = 100  # Lloyd steps after which k-means stops, stable or not
_BOUND_KEYS = ("xmin", "ymin", "xmax", "ymax")  # a Rectangles row in a file
# Rows that dump_json formats and writes at a time, so the text it holds
# stays near a MB however many rows a file has.
_JSON_ROWS = 1024
# Without an indent json encodes in C; a list's values come out split by ",".
_VALUES = json.JSONEncoder(separators=(",", ":"))


@dataclass(frozen=True)
class Column:
    """A leaf of a JsonRows layout: the row's value in the named column."""

    name: str


@dataclass(frozen=True, eq=False)
class JsonRows:
    """A JSON array of rows that dump_json writes straight from columns.

    ``columns`` maps names to arrays of one length; row i is written as
    ``layout``, a JSON value whose ``Column(name)`` leaves stand for
    ``columns[name][i]``. Numeric columns are written as json writes
    their Python values; any other column holds a str or None per row.
    """

    columns: Mapping[str, np.ndarray]
    layout: object

    @classmethod
    def table(cls, bounds: np.ndarray, ranked: bool = True,
              **columns: np.ndarray) -> JsonRows:
        """Flat rows: ``bounds`` (k, 4) as xmin, ymin, xmax, ymax, one key
        per column and, when ranked, a rank from 1 in row order."""
        cols = {"rank": np.arange(1, len(bounds) + 1)} if ranked else {}
        cols.update(zip(_BOUND_KEYS, bounds.T))
        cols.update(columns)
        return cls(cols, {name: Column(name) for name in cols})

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def _chunks(self, pad: str) -> Iterator[str]:
        """The array's text at indent ``pad``, _JSON_ROWS rows a piece."""
        if len(self) == 0:
            yield "[]"
            return
        pieces = list(_pieces(self.layout, Column))
        names = [p.name for p in pieces if isinstance(p, Column)]
        inner = pad + "  "
        template = inner + "".join(
            "%s" if isinstance(p, Column) else p.replace("%", "%%")
            for p in pieces).replace("\n", "\n" + inner)
        sep = "[\n"
        for start in range(0, len(self), _JSON_ROWS):
            text = {name: _json_values(self.columns[name][start:start
                                                          + _JSON_ROWS])
                    for name in set(names)}
            yield sep
            yield ",\n".join(
                template % row for row in zip(*(text[n] for n in names)))
            sep = ",\n"
        yield f"\n{pad}]"


def _json_values(column: np.ndarray) -> list[str]:
    """Each value's JSON text: numbers through one C-encoder call."""
    values = column.tolist()
    if column.dtype.kind in "biuf":
        return _VALUES.encode(values)[1:-1].split(",")
    return ["null" if v is None else encode_basestring_ascii(v)
            for v in values]


def _pieces(value, hole: type) -> Iterator:
    """json.dumps(value, indent=2, sort_keys=True) in json's own text
    pieces, with each object of type ``hole`` yielded in place of its text:
    the only place the package calls json's (pure-Python) indent encoder.
    Any other object json cannot encode raises json's TypeError."""
    held = []

    def default(obj):
        if not isinstance(obj, hole):
            return json.JSONEncoder.default(encoder, obj)
        held.append(obj)
        return None  # iterencode yields its "null" alone, as the next piece

    encoder = json.JSONEncoder(indent=2, sort_keys=True, default=default)
    for piece in encoder.iterencode(value):
        yield held.pop() if held else piece


def dump_json(doc: dict, path: str) -> None:
    """Write doc to path as json.dump(doc, fh, indent=2, sort_keys=True)
    writes it, plus a trailing newline. Each JsonRows in doc is written as
    its array of rows, a chunk of rows at a time: no row becomes a dict."""
    with open(path, "w", encoding="utf-8") as fh:
        pad = ""  # json yields each line break with the next line's indent
        for piece in _pieces(doc, JsonRows):
            if isinstance(piece, JsonRows):
                fh.writelines(piece._chunks(pad))
            else:
                fh.write(piece)
                if "\n" in piece:
                    pad = piece.rpartition("\n")[2]
        fh.write("\n")


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


@dataclass(frozen=True)
class Rectangles:
    """Non-tiling candidates: (m, 4) float64 bounds (xmin, ymin, xmax,
    ymax) and an object array of center ids, each a str or None. A row
    with xmin > xmax, ymin > ymax or a NaN bound is refused."""

    bounds: np.ndarray
    center_ids: np.ndarray

    def __post_init__(self) -> None:
        xmin, ymin, xmax, ymax = self.bounds.T
        bad = np.flatnonzero(~((xmin <= xmax) & (ymin <= ymax)))
        if len(bad):
            raise ValueError(f"region {bad[0]}: inverted region bounds: "
                             f"{tuple(self.bounds[bad[0]].tolist())}")

    def __len__(self) -> int:
        return len(self.bounds)


def regular_grid(bbox: Region, mx: int, my: int) -> Partitioning:
    """Partition bbox into mx-by-my equal-extent cells."""
    if mx < 1 or my < 1:
        raise ValueError(f"grid dimensions must be positive, got {mx}x{my}")
    if max(mx, my) >= MAX_FLOATS:
        raise ValueError(f"grid dimensions {mx}x{my} exceed the longest array")
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
    if count > sys.maxsize:  # Python's own message for a length past ssize_t
        raise OverflowError("Python int too large to convert to C ssize_t")
    # Allocated before the first draw: a count too large to hold fails at
    # once. spawn_key (i,) is SeedSequence(seed).spawn(count)[i].
    parts: list = [None] * count
    for i in range(count):
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(i,)))
        h = int(rng.integers(min_splits, max_splits + 1))
        v = int(rng.integers(min_splits, max_splits + 1))
        xsplits = np.sort(rng.uniform(bbox.xmin, bbox.xmax, size=h))
        ysplits = np.sort(rng.uniform(bbox.ymin, bbox.ymax, size=v))
        xb = np.concatenate(([bbox.xmin], xsplits, [bbox.xmax]))
        yb = np.concatenate(([bbox.ymin], ysplits, [bbox.ymax]))
        parts[i] = Partitioning(
            xb, yb,
            {"kind": "random", "seed": seed, "index": i, "h": h, "v": v},
        )
    return parts


def _points_of(data) -> np.ndarray:
    pts = np.asarray(data, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) point array, got {pts.shape}")
    return pts


def kmeans_centers(data, k: int, seed: int = 0,
                   return_inertia: bool = False):
    """Cluster observation locations with k-means++ seeded Lloyd iterations.

    Runs on every observation, so duplicate locations act as weights.
    Deterministic for a given seed. Stops when assignments stabilize or
    after _KMEANS_ITERS steps. With return_inertia=True also returns the
    inertia recorded after each assignment step (a non-increasing sequence).

    The Lloyd iterations are exact: a point is skipped only when a
    distance bound proves it keeps its center, so centers and inertia are
    bit for bit those of the full (N, k) distance matrix. Scratch memory
    is O(N + block * k), the distances of _KMEANS_BLOCK points at a time.
    """
    # Coordinates as two contiguous columns, without an (N, 2) copy.
    xs, ys = ((data.lons, data.lats) if isinstance(data, Dataset)
              else _points_of(data).T.copy())
    npts = len(xs)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    rng = np.random.default_rng(seed)

    # k-means++ initialization: spread starting centers by squared distance.
    # A pick has positive weight, so it is a new location: only when the
    # weights run out are the distinct locations counted.
    centers = np.empty((k, 2), dtype=np.float64)
    total = 1.0 if npts else 0.0
    with np.errstate(over="ignore"):  # an infinite total is refused
        for j in range(k):
            if not 0.0 < total < np.inf:
                distinct = len(np.unique(np.column_stack((xs, ys)), axis=0))
                if k > distinct:
                    raise ValueError(
                        f"k={k} exceeds the {distinct} distinct locations")
                raise ValueError(
                    "k-means++ cannot weigh the locations: their squared "
                    f"distances sum to {total} at this coordinate scale"
                )
            pick = rng.choice(npts, p=d2 / total) if j else rng.integers(npts)
            centers[j] = xs[pick], ys[pick]
            near = np.square(xs - centers[j, 0]) + np.square(ys - centers[j, 1])
            d2 = np.minimum(d2, near) if j else near
            total = d2.sum()

    # Lloyd iterations that skip the points a bound proves keep their
    # center (after Hamerly 2010, "Making k-means even faster"). lower[i]
    # bounds the distance from point i to every center but its own: it is
    # set from the point's last full row and shrinks by the largest center
    # move after each update. A point whose distance to its own center,
    # plus tol, is below that bound is skipped; every other point gets its
    # full row of squared distances, with the same float operations as a
    # full (npts, k) matrix, so argmin and its lowest-index tie rule hold.
    #
    # Why a skipped point's float argmin cannot change: every point-center
    # distance is at most D = sqrt(2) * scale, where scale is the larger
    # side of the box holding the points and every center so far. A float
    # squared distance is within 4 ulp (relative) of the true one, so a
    # distance taken from it, a move, and each update of lower are within a
    # few u*D of exact (u = 2**-53): after T updates lower is within about
    # 10*T*u*D, 1e-15*T*D. tol is 1e-11 * scale * max(100, it), with
    # T <= it, over a thousand times that, so the true distances hold d_own + tol/2 <
    # d_other, and the float squared distances then differ by more than
    # their rounding: the float argmin is the same, unique, center. With
    # scale outside [1e-100, 1e100] a square could overflow or a margin
    # fall into subnormals, so nothing is skipped there.
    inertia_trace: list[float] = []
    assign = np.zeros(npts, dtype=np.intp)
    lower = np.zeros(npts)  # 0: no point is skipped before its first row
    box_lo, box_hi = np.array([(xs.min(), ys.min()), (xs.max(), ys.max())])
    block = min(_KMEANS_BLOCK, npts)
    dist2, dy2 = np.empty((2, block, k))
    for it in range(_KMEANS_ITERS):
        # Each point's squared distance to its center, as the matrix has it.
        own = (np.square(xs - centers[assign, 0])
               + np.square(ys - centers[assign, 1]))
        box_lo = np.minimum(box_lo, centers.min(axis=0))
        box_hi = np.maximum(box_hi, centers.max(axis=0))
        with np.errstate(over="ignore", invalid="ignore"):
            scale = float((box_hi - box_lo).max())
            tol = (1e-11 * scale * max(100, it) if 1e-100 <= scale <= 1e100
                   else np.inf)
            stale = np.flatnonzero(~(np.sqrt(own) + tol < lower))
        changed = it == 0  # the first step always moves the centers
        for start in range(0, len(stale), block):
            ids = stale[start:start + block]
            d2, e2 = dist2[:len(ids)], dy2[:len(ids)]
            np.square(np.subtract(xs[ids, None], centers[:, 0], out=d2), out=d2)
            np.square(np.subtract(ys[ids, None], centers[:, 1], out=e2), out=e2)
            d2 += e2
            near = d2.argmin(axis=1)
            rows = np.arange(len(ids))
            own[ids] = d2[rows, near]
            d2[rows, near] = np.inf
            lower[ids] = np.sqrt(d2.min(axis=1))
            changed = changed or not np.array_equal(near, assign[ids])
            assign[ids] = near
        inertia_trace.append(float(own.sum()))
        if not changed:
            break
        # bincount adds in point order, as np.add.at does: the same sums.
        sums = np.column_stack([np.bincount(assign, weights=w, minlength=k)
                                for w in (xs, ys)])
        sizes = np.bincount(assign, minlength=k)
        previous = centers.copy()
        empty = sizes == 0
        if empty.any():
            # Re-seed each empty cluster on the point farthest from its
            # current center; deterministic via argmax.
            far_order = np.argsort(-own, kind="stable")
            far = far_order[:empty.sum()]
            centers[empty] = np.column_stack((xs[far], ys[far]))
            nonempty = ~empty
            centers[nonempty] = sums[nonempty] / sizes[nonempty, None]
        else:
            centers = sums / sizes[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            lower -= np.sqrt(np.square(centers - previous).sum(axis=1)).max()
    if return_inertia:
        return centers, inertia_trace
    return centers


def square_scan_set(centers, side_lengths: Sequence[float] | None = None
                    ) -> Rectangles:
    """Squares of every given side length centered on every given point.

    Squares run center by center and are not clipped to any bounding box;
    empty overhang is handled by the counting layer. Each square carries the
    center_id of the center it came from, so overlap pruning can pick one
    square per center.
    """
    if side_lengths is None:
        side_lengths = DEFAULT_SIDE_LENGTHS
    sides = [float(s) for s in side_lengths]
    for s in sides:
        if not (math.isfinite(s) and s > 0):
            raise ValueError(f"side lengths must be finite and positive, got {s}")
    pts = _points_of(centers)[:, None, :]
    half = (np.array(sides, dtype=np.float64) / 2.0)[None, :, None]
    bounds = np.concatenate((pts - half, pts + half), axis=2).reshape(-1, 4)
    ids = np.array([f"c{i}" for i in range(len(pts))], dtype=object)
    return Rectangles(bounds, np.repeat(ids, len(sides)))


def save_region_families(path: str, families: Iterable) -> None:
    """Serialize Partitionings (bounds and provenance) and Rectangles."""
    doc_families = []
    for fam in families:
        if isinstance(fam, Partitioning):
            doc_families.append({
                "kind": "partitioning",
                "provenance": dict(fam.provenance),
                "xbounds": fam.xbounds.tolist(),
                "ybounds": fam.ybounds.tolist(),
            })
        else:
            doc_families.append({"kind": "regions", "regions": JsonRows.table(
                fam.bounds, ranked=False, center_id=fam.center_ids)})
    dump_json({"schema": 1, "families": doc_families}, path)


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
        bounds, center_ids = [], []
        for i, r in enumerate(_list(fam, "regions", where)):
            at = f"{where} region {i}"
            if not isinstance(r, dict):
                raise ValueError(f"{at}: expected an object")
            center_id = r.get("center_id")
            if center_id is not None and not isinstance(center_id, str):
                raise ValueError(f"{at}: center_id must be a string or null")
            bounds.append([_number(r.get(k), f"{at}: {k}")
                           for k in _BOUND_KEYS])
            center_ids.append(center_id)
        try:
            return Rectangles(
                np.array(bounds, dtype=np.float64).reshape(-1, 4),
                np.array(center_ids, dtype=object))
        except ValueError as exc:
            raise ValueError(f"{where} {exc}") from None
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
