"""Command line interface: audit, meanvar, gen-synth, regions."""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from typing import NoReturn

import numpy as np

from .dataset import MeasureMode, load_dataset, read_columns, write_csv
from .geometry import Region
from .likelihood import Direction
from .meanvar import DEFAULT_TOP_K
from .pipeline import (
    AuditConfig,
    audit,
    build_family,
    check_meanvar,
    derive_seeds,
    export_meanvar,
    export_report,
    run_meanvar,
)
from .regions import MAX_FLOATS, save_region_families
from . import synth

_MODES = {
    "parity": MeasureMode.STATISTICAL_PARITY,
    "opportunity": MeasureMode.EQUAL_OPPORTUNITY,
    "predictive-equality": MeasureMode.PREDICTIVE_EQUALITY,
}
_DIRECTIONS = {
    "two-sided": Direction.TWO_SIDED,
    "higher-inside": Direction.HIGHER_INSIDE,
    "lower-inside": Direction.LOWER_INSIDE,
}


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        mx, my = int(w), int(h)
    except ValueError:
        raise ValueError(f"--grid expects WxH, e.g. 100x50, got {text!r}") from None
    return mx, my


def _parse_splits(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(
            f"--splits expects MIN..MAX, e.g. 10..40, got {text!r}"
        ) from None


def _parse_sides(text: str) -> tuple[float, ...]:
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        lo = hi = count = math.nan
    if not (math.isfinite(lo) and math.isfinite(hi) and count >= 0):
        raise ValueError(
            "--sides expects LO:HI:COUNT with finite LO and HI, e.g. "
            f"0.1:2.0:20, got {text!r}"
        )
    if count >= MAX_FLOATS:
        raise ValueError(f"--sides COUNT {count} exceeds the longest array")
    return tuple(np.linspace(lo, hi, count))


def _parse_rect(text: str, flag: str) -> Region:
    try:
        x0, y0, x1, y1 = (float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(
            f"expected X0,Y0,X1,Y1 rectangle, got {text!r}"
        ) from None
    # Python's float subtraction overflows to inf without a warning.
    if not all(map(math.isfinite, (x0, y0, x1, y1, x1 - x0, y1 - y0))):
        raise ValueError(f"{flag} must be a rectangle with finite bounds, "
                         f"width and height, got {text!r}")
    return Region(x0, y0, x1, y1)


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", metavar="WxH",
                   help="regular WxH grid partitioning of the bounding box")
    p.add_argument("--random-partitionings", type=int, metavar="K",
                   help="K random rectangular partitionings")
    p.add_argument("--splits", metavar="MIN..MAX",
                   help="split-count range for random partitionings "
                        "(default 10..40)")
    p.add_argument("--squares", action="store_true",
                   help="square scan set around k-means centers")
    p.add_argument("--centers", type=int, metavar="K",
                   help="number of k-means centers for --squares (default 100)")
    p.add_argument("--sides", metavar="LO:HI:COUNT",
                   help="square side lengths for --squares "
                        "(default 0.1:2.0:20)")
    p.add_argument("--regions-file", metavar="PATH",
                   help="load candidate regions from a region-family JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairscan",
        description="Audit binary classifier outcomes for spatial fairness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser(
        "audit",
        help="decide fairness and export evidence regions",
        description="Scan candidate regions, simulate fair worlds, and "
                    "report the verdict with significant regions.",
    )
    pa.add_argument("--config", metavar="PATH",
                    help="JSON file of option defaults; explicit flags win")
    pa.add_argument("--data", metavar="PATH",
                    help="observations CSV (id,lon,lat,outcome[,label])")
    pa.add_argument("--mode", choices=sorted(_MODES),
                    help="outcome slice to audit (default parity)")
    pa.add_argument("--direction", choices=sorted(_DIRECTIONS),
                    help="which rate deviations count (default two-sided)")
    _add_family_flags(pa)
    pa.add_argument("--alpha", type=float,
                    help="significance level (default 0.005)")
    pa.add_argument("--worlds", type=int, metavar="W",
                    help="simulated fair worlds; the real world is added on "
                         "top (default 999)")
    pa.add_argument("--seed", type=int, help="master PRNG seed (default 0)")
    pa.add_argument("--top-k", type=int, metavar="K",
                    help="keep only the K strongest evidence regions")
    pa.add_argument("--out", metavar="DIR",
                    help="write report.json, regions.geojson, nulldist.json")
    pa.add_argument("--fail-on-unfair", action="store_true",
                    help="exit with status 2 when the verdict is UNFAIR")
    pa.set_defaults(func=cmd_audit)

    pm = sub.add_parser(
        "meanvar",
        help="rate-variance baseline over partitionings",
        description="Compute the MeanVar baseline (mean over partitionings "
                    "of the variance of per-cell positive rates).",
    )
    pm.add_argument("--data", required=True, metavar="PATH",
                    help="observations CSV (id,lon,lat,outcome[,label])")
    pm.add_argument("--mode", choices=sorted(_MODES),
                    help="outcome slice to audit (default parity)")
    pm.add_argument("--grid", metavar="WxH",
                    help="regular WxH grid partitioning")
    pm.add_argument("--random-partitionings", type=int, metavar="K",
                    help="K random rectangular partitionings")
    pm.add_argument("--splits", metavar="MIN..MAX",
                    help="split-count range (default 10..40)")
    pm.add_argument("--seed", type=int, help="PRNG seed")
    pm.add_argument("--top-k", type=int, default=DEFAULT_TOP_K, metavar="K",
                    help="contributors to report (default %(default)s)")
    pm.add_argument("--out", metavar="DIR", help="write meanvar.json")
    pm.set_defaults(func=cmd_meanvar)

    pg = sub.add_parser(
        "gen-synth",
        help="generate synthetic datasets",
        description="Emit synthetic observation CSVs for experiments.",
    )
    pg.add_argument("--kind", required=True,
                    choices=["uniform-split", "fair", "planted"],
                    help="generator: split-rate, fair Bernoulli, or planted "
                         "hot region")
    pg.add_argument("--out", required=True, metavar="PATH", help="output CSV")
    pg.add_argument("--n", type=int, help="number of observations")
    pg.add_argument("--seed", type=int, default=0, help="PRNG seed")
    pg.add_argument("--rect", default="0,0,1,1", metavar="X0,Y0,X1,Y1",
                    help="sampling rectangle (default 0,0,1,1)")
    pg.add_argument("--rho", type=float, default=0.5,
                    help="positive rate for --kind fair (default 0.5)")
    pg.add_argument("--locations", metavar="PATH",
                    help="CSV whose lon/lat columns supply locations for "
                         "--kind fair (subsampled to --n if smaller)")
    pg.add_argument("--plant", metavar="X0,Y0,X1,Y1",
                    help="planted rectangle for --kind planted")
    pg.add_argument("--rho-bg", type=float, default=0.5,
                    help="background rate for --kind planted (default 0.5)")
    pg.add_argument("--rho-in", type=float, default=0.8,
                    help="inside-plant rate for --kind planted (default 0.8)")
    pg.set_defaults(func=cmd_gen_synth)

    pr = sub.add_parser(
        "regions",
        help="generate a region-family file",
        description="Materialize a region family to JSON for replayable "
                    "audits via --regions-file.",
    )
    pr.add_argument("--out", required=True, metavar="PATH", help="output JSON")
    pr.add_argument("--data", metavar="PATH",
                    help="dataset CSV supplying the bounding box (and the "
                         "k-means sample for --squares)")
    pr.add_argument("--bbox", metavar="X0,Y0,X1,Y1",
                    help="explicit bounding box (grid/random families only)")
    _add_family_flags(pr)
    pr.add_argument("--seed", type=int, help="PRNG seed")
    pr.set_defaults(func=cmd_regions)
    return parser


def _audit_config(args: argparse.Namespace) -> AuditConfig:
    """Merge built-in defaults, optional config file, and explicit flags;
    a flag the subcommand lacks counts as absent."""
    defaults = {
        "data": None, "mode": "parity", "direction": "two-sided",
        "grid": None, "random_partitionings": None, "splits": None,
        "squares": False, "centers": 100, "sides": None,
        "regions_file": None, "alpha": 0.005, "worlds": 999, "seed": 0,
        "top_k": None,
    }
    merged = dict(defaults)
    config = getattr(args, "config", None)
    if config is not None:
        with open(config, "rb") as fh:
            raw = fh.read()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"config file {config}: byte 0x{raw[exc.start]:02x} at "
                f"offset {exc.start} is not UTF-8 ({exc.reason})") from None
        file_cfg = json.loads(text)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ValueError(
                f"unknown keys in config file: {', '.join(sorted(unknown))}"
            )
        merged.update(file_cfg)
    for key in defaults:
        flag_value = getattr(args, key, None)
        if key == "squares":
            if flag_value:
                merged[key] = True
        elif flag_value is not None:
            merged[key] = flag_value

    for key in ("data", "regions_file"):
        if merged[key] is not None and not isinstance(merged[key], str):
            _config_type_error(key, "a string", merged[key])
    if not isinstance(merged["squares"], bool):
        _config_type_error("squares", "true or false", merged["squares"])
    sides = merged["sides"]
    if isinstance(sides, str):
        sides = _parse_sides(sides)
    elif sides is not None:
        if not (isinstance(sides, list) and all(map(_is_number, sides))):
            _config_type_error("sides", "LO:HI:COUNT or a list of numbers",
                               sides)
        sides = tuple(float(s) for s in sides)
    if not _is_number(merged["alpha"]):
        _config_type_error("alpha", "a number", merged["alpha"])
    return AuditConfig(
        data=merged["data"],
        mode=_choice("mode", merged["mode"], _MODES),
        direction=_choice("direction", merged["direction"], _DIRECTIONS),
        grid=_pair("grid", merged["grid"], _parse_grid),
        random_parts=_integer("random_partitionings",
                              merged["random_partitionings"]),
        splits=(_pair("splits", merged["splits"], _parse_splits)
                or AuditConfig.splits),
        squares_centers=(_integer("centers", merged["centers"])
                         if merged["squares"] else None),
        sides=sides,
        regions_file=merged["regions_file"],
        alpha=float(merged["alpha"]),
        num_worlds=_integer("worlds", merged["worlds"]) + 1,
        seed=_integer("seed", merged["seed"]),
        top_k=_integer("top_k", merged["top_k"]),
    )


def _config_type_error(key: str, expected: str, value) -> NoReturn:
    raise ValueError(f"config {key} must be {expected}, got {value!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(key: str, value):
    """An integer option (not a bool or a float); None stays None."""
    if value is not None and (isinstance(value, bool)
                              or not isinstance(value, int)):
        _config_type_error(key, "an integer", value)
    return value


def _pair(key: str, value, parse):
    """A WxH or MIN..MAX option, as text or as a list of two integers."""
    if value is None:
        return None
    if isinstance(value, str):
        return parse(value)
    if not (isinstance(value, list) and len(value) == 2):
        _config_type_error(key, "a string or a list of two integers", value)
    return tuple(_integer(key, v) for v in value)


def _choice(key: str, value, table: dict):
    if not (isinstance(value, str) and value in table):
        _config_type_error(key, f"one of {', '.join(sorted(table))}", value)
    return table[value]


# An --out that cannot be written fails before the work, with the error the
# write would raise, and nothing is created: a failed command leaves no file.
def _check_out_dir(path: str | None) -> None:
    """The error os.makedirs(path, exist_ok=True) raises when path, or the
    nearest of its parents that exists, is not a directory."""
    missing, head = None, path
    while head and not os.path.lexists(head):
        missing, head = head, os.path.dirname(head)
    if head and not os.path.isdir(head):
        if missing is None:
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST),
                                  path)
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                 missing)


def _check_parent(path: str) -> None:
    """The error opening path for writing raises for a missing parent
    directory, or for a parent that is not a directory."""
    try:
        os.stat(os.path.join(os.path.dirname(path) or ".", ""))
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None


def cmd_audit(args: argparse.Namespace) -> int:
    cfg = _audit_config(args)
    if cfg.data is None:
        raise ValueError("--data is required (flag or config file)")
    cfg.validate()
    _check_out_dir(args.out)
    print("CONFIG " + json.dumps(cfg.echo(), sort_keys=True))
    report = audit(cfg)
    v = report.verdict
    if v.fair:
        print(f"FAIR p={v.p_value:.6g}")
    else:
        print(f"UNFAIR p={v.p_value:.6g} tau_log={v.tau_log:.6g}")
    if args.out:
        paths = export_report(report, args.out)
        for name in ("report", "regions", "nulldist"):
            print(f"wrote {paths[name]}")
    if args.fail_on_unfair and not v.fair:
        return 2
    return 0


def cmd_meanvar(args: argparse.Namespace) -> int:
    cfg = _audit_config(args)
    check_meanvar(cfg)
    _check_out_dir(args.out)
    echo = {key: value for key, value in cfg.echo().items()
            if key in ("data", "mode", "family", "seed", "top_k")}
    print("CONFIG " + json.dumps(echo, sort_keys=True))
    report = run_meanvar(load_dataset(cfg.data).select(cfg.mode), cfg)
    print(f"MEANVAR {report.mean_var:.6g}")
    if args.out:
        path = export_meanvar(report, echo, args.out)
        print(f"wrote {path}")
    return 0


def cmd_gen_synth(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError(f"seed must be non-negative, got {args.seed}")
    rect = _parse_rect(args.rect, "--rect")
    if args.kind == "uniform-split":
        if args.n is None:
            raise ValueError("--n is required for --kind uniform-split")
        d = synth.gen_uniform_split(args.n, rect, seed=args.seed)
    elif args.kind == "fair":
        if args.n is not None and args.n < 1:
            raise ValueError(f"n must be positive, got {args.n}")
        # Locations and labels need distinct streams: reusing one seed for
        # both would tie each label to its own coordinate draw.
        loc_seed, label_seed = derive_seeds(args.seed)
        if args.locations is not None:
            pts = np.column_stack(read_columns(args.locations)[0:2])
            if args.n is not None:
                if args.n > len(pts):
                    raise ValueError(
                        f"--n {args.n} exceeds the {len(pts)} available "
                        "locations"
                    )
                rng = np.random.default_rng(loc_seed)
                pts = pts[rng.choice(len(pts), size=args.n, replace=False)]
        else:
            if args.n is None:
                raise ValueError("--kind fair needs --locations or --n")
            rng = np.random.default_rng(loc_seed)
            pts = np.column_stack((
                rng.uniform(rect.xmin, rect.xmax, size=args.n),
                rng.uniform(rect.ymin, rect.ymax, size=args.n),
            ))
        d = synth.gen_fair_bernoulli(pts, args.rho, seed=label_seed)
    else:
        if args.n is None or args.plant is None:
            raise ValueError("--kind planted needs --n and --plant")
        d = synth.gen_planted(args.n, rect, _parse_rect(args.plant, "--plant"),
                              args.rho_bg, args.rho_in, seed=args.seed)
    write_csv(d, args.out)
    print(f"wrote {args.out} N={d.N} P={d.P} rho={d.rho:.6g}")
    return 0


def cmd_regions(args: argparse.Namespace) -> int:
    cfg = _audit_config(args)
    if cfg.regions_file is not None:
        raise ValueError("--regions-file makes no sense for the regions command")
    if not cfg.family_specs():
        raise ValueError("no region family requested")
    cfg.check_families()
    if cfg.data is None and args.bbox is None:
        raise ValueError("need --data or --bbox")
    _check_parent(args.out)
    d = load_dataset(cfg.data) if cfg.data is not None else None
    bbox = d.bbox if d is not None else _parse_rect(args.bbox, "--bbox")
    families = build_family(cfg, bbox, d)
    total = sum(len(f) for f in families)
    if not total:
        raise ValueError("the region family holds no candidate regions")
    save_region_families(args.out, families)
    print(f"wrote {args.out} families={len(families)} regions={total}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # DatasetError and JSONDecodeError are ValueErrors; an OverflowError is
    # a count too large for a C integer, such as --worlds 2**63.
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a region family too large to allocate
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
