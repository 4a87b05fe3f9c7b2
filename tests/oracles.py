"""Independently written reference implementations used as test oracles.

Everything here is deliberately slow and scalar: math.log instead of numpy,
Fraction comparisons instead of cross products, explicit loops instead of
running sums. These must never import from fairscan internals beyond plain
data types, so a bug in the library cannot hide inside its own oracle.

The last section holds small helpers that only tests use: rectangle areas
and overlap, point membership through fairscan's closed_bounds, checked
wrappers over fairscan's null log-likelihood and its one-region llr_vector,
the reader of a saved null distribution, the member matrix built from
(row, column, value) triples, and a clustered location sampler. They are
not oracles.

The export oracle writes each row set as a list of per-row dicts through
json's own indent encoder, as the package did before it wrote rows
straight from their columns.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np


def oracle_null(N: int, P: int) -> float:
    """Maximized null log-likelihood: P*ln(P/N) + (N-P)*ln(1-P/N)."""
    out = 0.0
    if P > 0:
        out += P * math.log(P / N)
    if N - P > 0:
        out += (N - P) * math.log((N - P) / N)
    return out


def oracle_llr(n: int, p: int, N: int, P: int,
               direction: str = "two_sided") -> float:
    """Direct evaluation of ln L1_max - ln L0_max for one region.

    L1 plugs the inside rate p/n and outside rate (P-p)/(N-n) into the two
    binomials; rate comparisons are exact rationals. Returns 0 for empty or
    whole-space regions, at exact rate equality, and when the direction
    gate excludes the deviation.
    """
    if n == 0 or n == N:
        return 0.0
    rate_in = Fraction(p, n)
    rate_out = Fraction(P - p, N - n)
    if rate_in == rate_out:
        return 0.0
    if direction == "higher_inside" and rate_in < rate_out:
        return 0.0
    if direction == "lower_inside" and rate_in > rate_out:
        return 0.0
    m = N - n
    q = P - p
    ll = 0.0
    if p > 0:
        ll += p * math.log(p / n)
    if n - p > 0:
        ll += (n - p) * math.log((n - p) / n)
    if q > 0:
        ll += q * math.log(q / m)
    if m - q > 0:
        ll += (m - q) * math.log((m - q) / m)
    return ll - oracle_null(N, P)


def oracle_contains(x: float, y: float, region, bbox) -> bool:
    """Scalar restatement of the membership rule.

    Half-open on both axes; a region edge lying at or beyond the bounding
    box's max edge is closed, so boundary observations are kept.
    """

    def in_axis(v, lo, hi, box_hi):
        if v < lo:
            return False
        if v < hi:
            return True
        return hi >= box_hi and v >= box_hi and v <= hi

    return (in_axis(x, region.xmin, region.xmax, bbox.xmax)
            and in_axis(y, region.ymin, region.ymax, bbox.ymax))


def oracle_region_counts(region, lons, lats, outcomes, bbox) -> tuple[int, int]:
    """Brute-force (n, p) for a region by scanning every observation."""
    n = p = 0
    for x, y, o in zip(lons, lats, outcomes):
        if oracle_contains(float(x), float(y), region, bbox):
            n += 1
            p += int(o)
    return n, p


def oracle_audit(regions, lons, lats, outcomes, bbox, rho: float,
                 num_worlds: int, seed: int, direction: str = "two_sided"):
    """Brute-force scan of the real world and of num_worlds fair worlds.

    Counts every region in every world with oracle_region_counts and scores
    it with oracle_llr. World i draws ``rng.random(N) < rho`` from
    ``SeedSequence(seed, spawn_key=(i,))``. Returns the real (n, p) lists,
    tau (the real max, 0 without regions) and the simulated maxima, sorted
    descending.
    """
    N = len(lons)
    P = int(sum(int(o) for o in outcomes))
    counts = [oracle_region_counts(r, lons, lats, outcomes, bbox)
              for r in regions]
    tau = max((oracle_llr(n, p, N, P, direction) for n, p in counts),
              default=0.0)
    maxima = []
    for i in range(num_worlds):
        rng = np.random.default_rng(np.random.SeedSequence(seed,
                                                           spawn_key=(i,)))
        labels = [int(v) for v in rng.random(N) < rho]
        P_world = sum(labels)
        maxima.append(max(
            (oracle_llr(*oracle_region_counts(r, lons, lats, labels, bbox),
                        N, P_world, direction) for r in regions),
            default=0.0))
    return ([n for n, _ in counts], [p for _, p in counts], tau,
            sorted(maxima, reverse=True))


def regions_overlap(a, b) -> bool:
    """True when the intersection has strictly positive area.

    Regions that merely share an edge or a corner do not overlap.
    """
    return (min(a.xmax, b.xmax) > max(a.xmin, b.xmin)
            and min(a.ymax, b.ymax) > max(a.ymin, b.ymin))


def oracle_non_overlapping(regions, llrs) -> list[int]:
    """pipeline.select_non_overlapping's greedy disjoint pick, as indices
    into the scored regions: each candidate is tested against every chosen
    region, one pair at a time."""
    best: dict[object, int] = {}
    for i, (r, s) in enumerate(zip(regions, llrs)):
        key = r.center_id if r.center_id is not None else ("#", i)
        cur = best.get(key)
        if cur is None or s > llrs[cur]:
            best[key] = i
    candidates = sorted(best.values(), key=lambda i: -llrs[i])
    chosen: list[int] = []
    for i in candidates:
        if not any(regions_overlap(regions[i], regions[j]) for j in chosen):
            chosen.append(i)
    return chosen


def oracle_region_counts_vec(region, lons, lats, outcomes, bbox
                             ) -> tuple[int, int]:
    """oracle_region_counts with the membership rule over whole arrays."""

    def in_axis(v, lo, hi, box_hi):
        return (v >= lo) & ((v < hi) | ((hi >= box_hi) & (v >= box_hi)
                                        & (v <= hi)))

    inside = (in_axis(lons, region.xmin, region.xmax, bbox.xmax)
              & in_axis(lats, region.ymin, region.ymax, bbox.ymax))
    return int(inside.sum()), int(outcomes[inside].sum())


def oracle_pvariance(rates) -> float:
    """Population variance, written out longhand."""
    rates = list(rates)
    mean = sum(rates) / len(rates)
    return sum((r - mean) ** 2 for r in rates) / len(rates)


def random_valid_tuple(rng, max_n: int = 10_000) -> tuple[int, int, int, int]:
    """One random (n, p, N, P) satisfying every count precondition."""
    N = int(rng.integers(1, max_n + 1))
    P = int(rng.integers(0, N + 1))
    n = int(rng.integers(0, N + 1))
    # p is bounded below by the positives that cannot fit outside.
    lo = max(0, P - (N - n))
    hi = min(n, P)
    p = int(rng.integers(lo, hi + 1))
    return n, p, N, P


def oracle_read_csv(path: str):
    """Row-by-row reference CSV parser: (ids, lons, lats, outcomes, labels).

    Validates each row in field order (field count, label, lon, lat,
    outcome) and raises ValueError with the first bad row's message, naming
    the physical line the row starts on; the header is line 1 and blank
    lines are skipped but counted. A missing label reads as -1.
    """
    import csv

    base = ["id", "lon", "lat", "outcome"]

    def binary(raw, column, lineno):
        if raw in ("0", "1"):
            return int(raw)
        raise ValueError(f"line {lineno}: {column} must be 0 or 1, got {raw!r}")

    def coord(raw, column, lineno):
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"line {lineno}: {column} is not a number: {raw!r}") from None
        if not math.isfinite(value):
            raise ValueError(
                f"line {lineno}: {column} must be finite, got {raw!r}")
        return value

    columns = ([], [], [], [], [])
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty file: missing header") from None
        header = [h.strip() for h in header]
        if header != base and header != base + ["label"]:
            raise ValueError(
                "line 1: header must be id,lon,lat,outcome or "
                f"id,lon,lat,outcome,label, got {','.join(header)!r}")
        while True:
            # A record may span lines (a quoted field holding a line
            # break); it is named by the line it starts on.
            lineno = reader.line_num + 1
            raw = next(reader, None)
            if raw is None:
                break
            if not raw:
                continue
            if len(raw) != len(header):
                raise ValueError(
                    f"line {lineno}: expected {len(header)} fields, "
                    f"got {len(raw)}")
            label = -1
            if len(header) == 5 and raw[4].strip() != "":
                label = binary(raw[4].strip(), "label", lineno)
            row = (raw[0], coord(raw[1].strip(), "lon", lineno),
                   coord(raw[2].strip(), "lat", lineno),
                   binary(raw[3].strip(), "outcome", lineno), label)
            for column, value in zip(columns, row):
                column.append(value)
    return columns


def oracle_kmeans(pts, k: int, seed: int = 0, max_iters: int = 100):
    """k-means++ seeded Lloyd iterations over the full (N, k) matrix.

    Returns (centers, inertia trace). Every step computes each point's
    squared distance to every center (x and y squared differences, then
    their sum), assigns by argmin (lowest index on ties) and stops when no
    assignment changes; an empty cluster is re-seeded on the point
    farthest from its center. kmeans_centers must match it bit for bit.
    """
    pts = np.asarray(pts, dtype=np.float64)
    npts = len(pts)
    rng = np.random.default_rng(seed)
    centers = np.empty((k, 2), dtype=np.float64)
    centers[0] = pts[rng.integers(npts)]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        centers[j] = pts[rng.choice(npts, p=d2 / d2.sum())]
        d2 = np.minimum(d2, ((pts - centers[j]) ** 2).sum(axis=1))

    inertia_trace = []
    assign = None
    for _ in range(max_iters):
        dist2 = (np.square(pts[:, :1] - centers[:, 0])
                 + np.square(pts[:, 1:] - centers[:, 1]))
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
            far_order = np.argsort(-dist2[np.arange(npts), assign],
                                   kind="stable")
            centers[empty] = pts[far_order[:empty.sum()]]
            nonempty = ~empty
            centers[nonempty] = sums[nonempty] / sizes[nonempty, None]
            continue
        centers = sums / sizes[:, None]
    return centers, inertia_trace


def oracle_squares(centers, side_lengths):
    """Squares as (xmin, ymin, xmax, ymax, center_id) tuples, one at a time.

    Center by center, each center's sides in the given order; the square of
    side s around (cx, cy) is [cx - s/2, cx + s/2) x [cy - s/2, cy + s/2).
    """
    sides = [float(s) for s in side_lengths]
    out = []
    for i, (cx, cy) in enumerate(np.asarray(centers, dtype=np.float64)):
        cid = f"c{i}"
        for s in sides:
            half = s / 2.0
            out.append((cx - half, cy - half, cx + half, cy + half, cid))
    return out


# The export oracle: every row as a dict of plain Python values, then json's
# own indent encoder over the whole document. It reads the reports' fields
# by name and imports nothing from fairscan.
_BOUND_KEYS = ("xmin", "ymin", "xmax", "ymax")


def oracle_rows_json(bounds, ranked=True, **columns) -> list[dict]:
    """One dict per row: ``rank`` from 1 (when ranked), the (k, 4)
    ``bounds`` as xmin, ymin, xmax, ymax, and one key per column."""
    values = [col.tolist() for col in columns.values()]
    rows = []
    for i, b in enumerate(bounds.tolist()):
        row = {"rank": i + 1} if ranked else {}
        row.update(zip(_BOUND_KEYS, b))
        row.update(zip(columns, (col[i] for col in values)))
        rows.append(row)
    return rows


def oracle_geojson_feature(row: dict) -> dict:
    ring = [
        [row["xmin"], row["ymin"]], [row["xmax"], row["ymin"]],
        [row["xmax"], row["ymax"]], [row["xmin"], row["ymax"]],
        [row["xmin"], row["ymin"]],
    ]
    return {
        "type": "Feature",
        "geometry": {"type": "Polygon", "coordinates": [ring]},
        "properties": {key: row[key] for key in
                       ("n", "p", "rho", "llr", "p_value", "rank")},
    }


def oracle_json_text(doc) -> str:
    """json.dump(doc, fh, indent=2, sort_keys=True) plus a newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _oracle_evidence(rows) -> list[dict]:
    if len(rows) == 0:
        return []
    return oracle_rows_json(rows.bounds, center_id=rows.center_ids, n=rows.n,
                            p=rows.p, rho=rows.p / rows.n, llr=rows.llr,
                            p_value=rows.p_value)


def oracle_export(report) -> dict[str, str]:
    """The texts of report.json, regions.geojson and nulldist.json for an
    AuditReport, keyed as export_report keys its paths."""
    v = report.verdict
    evidence = _oracle_evidence(report.evidence)
    doc = {
        "schema": 1,
        "dataset": report.dataset_summary,
        "config": report.config,
        "verdict": {"fair": v.fair, "p_value": v.p_value,
                    "tau_log": v.tau_log, "alpha": v.alpha,
                    "critical_llr": v.critical_llr,
                    "num_worlds": report.dist.w},
        "evidence": evidence,
        "non_overlapping": _oracle_evidence(report.non_overlapping),
        "timings": report.timings,
    }
    features = [oracle_geojson_feature(row) for row in evidence]
    return {
        "report": oracle_json_text(doc),
        "regions": oracle_json_text({"type": "FeatureCollection",
                                     "features": features}),
        "nulldist": oracle_json_text(report.dist.to_json_dict()),
    }


def oracle_meanvar_text(report, config: dict) -> str:
    """meanvar.json's text for a MeanVarReport and its config echo."""
    return oracle_json_text({
        "schema": 1,
        "mean_var": report.mean_var,
        "per_partitioning": [{"provenance": dict(prov), "variance": var}
                             for prov, var in report.per_partitioning],
        "top_contributors": oracle_rows_json(**report.top_contributors),
        "config": config,
    })


def oracle_region_file_text(families) -> str:
    """A region file's text: Partitionings (anything with xbounds) by
    their bounds and provenance, Rectangles row by row."""
    docs = []
    for fam in families:
        if hasattr(fam, "xbounds"):
            docs.append({"kind": "partitioning",
                         "provenance": dict(fam.provenance),
                         "xbounds": fam.xbounds.tolist(),
                         "ybounds": fam.ybounds.tolist()})
        else:
            docs.append({"kind": "regions", "regions": oracle_rows_json(
                fam.bounds, ranked=False, center_id=fam.center_ids)})
    return oracle_json_text({"schema": 1, "families": docs})


def area(r) -> float:
    """A rectangle's width times its height."""
    return (r.xmax - r.xmin) * (r.ymax - r.ymin)


def intersection_area(a, b) -> float:
    w = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    h = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    return w * h


def jaccard(a, b) -> float:
    """Intersection-over-union of two rectangles; 0 for two empty boxes."""
    inter = intersection_area(a, b)
    union = area(a) + area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def bounds_contain(bounds, xs, ys, bbox):
    """Point-in-region test under the shared membership semantics.

    Bounds are half-open, except that a region whose max edge reaches the
    bounding box's max edge also includes points lying exactly on that edge.
    Accepts scalars or numpy arrays and broadcasts.
    """
    from fairscan.geometry import closed_bounds

    xmin, ymin, xmax, ymax = closed_bounds(bounds, bbox)
    xs, ys = np.asarray(xs), np.asarray(ys)
    return (xs >= xmin) & (xs < xmax) & (ys >= ymin) & (ys < ymax)


def log_lik_null_max(N: int, P: int) -> float:
    """fairscan's maximized log-likelihood of the single-rate (fair) model,
    with validation."""
    from fairscan.likelihood import _null_max

    if N <= 0:
        raise ValueError(f"N must be positive, got {N}")
    if not 0 <= P <= N:
        raise ValueError(f"P must be in [0, {N}], got {P}")
    return float(_null_max(N, P))


def llr_from_counts(n: int, p: int, N: int, P: int,
                    direction="two_sided") -> float:
    """fairscan's llr_vector for one region's counts, with validation.

    Raises ValueError on inconsistent counts.
    """
    from fairscan.likelihood import llr_vector

    if N <= 0:
        raise ValueError(f"N must be positive, got {N}")
    if not 0 <= P <= N:
        raise ValueError(f"P={P} outside [0, {N}]")
    if not 0 <= n <= N:
        raise ValueError(f"n={n} outside [0, {N}]")
    if not 0 <= p <= min(n, P):
        raise ValueError(f"p={p} outside [0, min(n={n}, P={P})]")
    if n - p > N - P:
        raise ValueError(
            f"negatives inside ({n - p}) exceed total negatives ({N - P})"
        )
    return float(llr_vector(np.array([n]), np.array([p]), N, P, direction)[0])


def distribution_from_json(doc: dict):
    """The MaxStatDistribution a nulldist.json document holds.

    The document's w must count its values plus the real world.
    """
    from fairscan.likelihood import Direction
    from fairscan.montecarlo import MaxStatDistribution

    assert doc["w"] == len(doc["values"]) + 1, (doc["w"], len(doc["values"]))
    return MaxStatDistribution(
        values=np.asarray(doc["values"], dtype=np.float64),
        seed=int(doc["seed"]),
        direction=Direction(doc["direction"]),
    )


def oracle_member_matrix(ix, family):
    """CountPlan's member matrix built from (row, column, value) triples.

    A reference build, not an oracle: the rectangles' edge members and
    interior runs come from fairscan.scanner._rectangle_terms, a covering
    partitioning's cells from searchsorted, and scipy's conversion from
    triples sorts every row. Rows run in ascending size (stable), and the
    values are int16 below 2**15 points, else int32. Returns the CSR array
    and each candidate's size in family order.
    """
    from scipy import sparse
    from fairscan.regions import Partitioning
    from fairscan.scanner import _rectangle_terms

    fams = family if isinstance(family, (list, tuple)) else [family]
    b, bounds, covering, first = ix.bbox, [np.zeros((0, 4))], [], 0
    for fam in fams:
        if isinstance(fam, Partitioning):
            bounds.append(fam.cell_bounds())
            xb, yb = fam.xbounds, fam.ybounds
            if (xb[0] <= b.xmin and xb[-1] >= b.xmax
                    and yb[0] <= b.ymin and yb[-1] >= b.ymax):
                covering.append((first, fam))
        else:
            bounds.append(fam.bounds)
        first += len(fam)
    bounds = np.concatenate(bounds)
    rect = np.ones(len(bounds), dtype=bool)
    rows, cols = [], []
    for first, part in covering:
        rect[first:first + len(part)] = False
        ax = np.searchsorted(part.xbounds[1:-1], ix.xs, side="right")
        ay = np.searchsorted(part.ybounds[1:-1], ix.ys, side="right")
        rows.append(first + ay * (len(part.xbounds) - 1) + ax)
        cols.append(np.arange(ix.N))
    rect_rows = np.flatnonzero(rect)
    _, owner, members, run_rect, lo, hi = _rectangle_terms(
        ix, bounds[rect_rows])
    run_rows = rect_rows[run_rect]
    rows += [rect_rows[owner], run_rows, run_rows]
    cols += [members, ix.N + hi, ix.N + lo]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    values = np.ones(len(rows), dtype=np.int16 if ix.N < 1 << 15 else np.int32)
    values[len(rows) - len(run_rows):] = -1
    n = np.bincount(rows[:len(rows) - 2 * len(run_rows)],
                    minlength=len(bounds))
    n += np.bincount(run_rows, weights=hi - lo,
                     minlength=len(bounds)).astype(np.int64)
    rank = np.empty(len(bounds), dtype=np.int64)
    rank[np.argsort(n, kind="stable")] = np.arange(len(bounds))
    width = ix.N + (ix.N + 1 if len(run_rows) else 0)
    matrix = sparse.csr_array(
        (values, (rank[rows].astype(np.int32), cols.astype(np.int32))),
        shape=(len(bounds), width))
    return matrix, n


def gen_clustered_locations(n: int, rect: Region, clusters: int = 25,
                            spread: float = 0.01, background: float = 0.2,
                            seed: int = 0) -> np.ndarray:
    """Location sampler mimicking settlement patterns: tight blobs plus noise.

    A fraction ``background`` of points is uniform over rect; the rest are
    Gaussian around ``clusters`` uniformly placed centers with standard
    deviation ``spread`` (relative to the rect's width), clipped to rect.
    Returns an (n, 2) array for fairscan.synth.gen_fair_bernoulli.
    """
    if n < 1 or clusters < 1:
        raise ValueError("n and clusters must be positive")
    rng = np.random.default_rng(seed)
    centers = np.column_stack((
        rng.uniform(rect.xmin, rect.xmax, size=clusters),
        rng.uniform(rect.ymin, rect.ymax, size=clusters),
    ))
    n_bg = int(round(n * background))
    n_cl = n - n_bg
    which = rng.integers(0, clusters, size=n_cl)
    sigma = spread * rect.width
    pts_cl = centers[which] + rng.normal(0.0, sigma, size=(n_cl, 2))
    pts_bg = np.column_stack((
        rng.uniform(rect.xmin, rect.xmax, size=n_bg),
        rng.uniform(rect.ymin, rect.ymax, size=n_bg),
    ))
    pts = np.vstack((pts_cl, pts_bg))
    pts[:, 0] = np.clip(pts[:, 0], rect.xmin, rect.xmax)
    pts[:, 1] = np.clip(pts[:, 1], rect.ymin, rect.ymax)
    return pts
