"""Command line interface: audit, meanvar, gen-synth, regions."""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from collections import namedtuple

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


# One row per option that a config file may set: its key (the flag is --
# plus the key with - for _), default (which a null config value also
# reads as), the subcommands that take it, the JSON types a config value may
# have ([T] is a list of T values) with their wording for the error (None:
# one of the flag's choices), and the flag's argparse keywords.
Option = namedtuple("Option", "key default commands types expected flag")


def _row(key, default, commands, types, expected, **flag) -> Option:
    return Option(key, default, commands.split(), types,
                  expected or "one of " + ", ".join(flag["choices"]), flag)


_ALL = "audit meanvar regions"
_PAIR = "a string or a list of two integers"
OPTIONS = (
    _row("data", None, _ALL, (str,), "a string", metavar="PATH",
         help="observations CSV (id,lon,lat,outcome[,label])"),
    _row("mode", "parity", "audit meanvar", (str,), None,
         choices=sorted(_MODES),
         help="outcome slice to audit (default %(default)s)"),
    _row("direction", "two-sided", "audit", (str,), None,
         choices=sorted(_DIRECTIONS),
         help="which rate deviations count (default %(default)s)"),
    _row("grid", None, _ALL, (str, [int]), _PAIR, metavar="WxH",
         help="regular WxH grid partitioning of the bounding box"),
    _row("random_partitionings", None, _ALL, (int,), "an integer", type=int,
         metavar="K", help="K random rectangular partitionings"),
    _row("splits", AuditConfig.splits, _ALL, (str, [int]), _PAIR,
         metavar="MIN..MAX", help="split-count range for random "
         "partitionings (default %d..%d)" % AuditConfig.splits),
    _row("squares", False, "audit regions", (bool,), "true or false",
         action="store_true", help="square scan set around k-means centers"),
    _row("centers", 100, "audit regions", (int,), "an integer", type=int,
         metavar="K",
         help="number of k-means centers for --squares (default %(default)s)"),
    _row("sides", None, "audit regions", (str, [int, float]),
         "LO:HI:COUNT or a list of numbers", metavar="LO:HI:COUNT",
         help="square side lengths for --squares (default 0.1:2.0:20)"),
    _row("regions_file", None, "audit regions", (str,), "a string",
         metavar="PATH",
         help="load candidate regions from a region-family JSON file"),
    _row("alpha", AuditConfig.alpha, "audit", (int, float), "a number",
         type=float, help="significance level (default %(default)s)"),
    _row("worlds", AuditConfig.num_worlds - 1, "audit", (int,), "an integer",
         type=int, metavar="W",
         help="simulated fair worlds; the real world is added on top "
              "(default %(default)s)"),
    _row("seed", AuditConfig.seed, _ALL, (int,), "an integer", type=int,
         help="master PRNG seed (default %(default)s)"),
    _row("top_k", None, "audit meanvar", (int,), "an integer", type=int,
         metavar="K", help="keep only the K strongest evidence regions"),
)
_ROWS = {option.key: option for option in OPTIONS}


def _add_options(parser: argparse.ArgumentParser, command: str,
                 rows=OPTIONS, **changes: dict) -> None:
    """Add the flags of the rows that command takes; an absent flag leaves
    no attribute. changes maps a key to argparse keywords that replace its
    row's, for the three options that mean something else in one command:
    meanvar's --data is required (meanvar has no --config), meanvar's
    --top-k counts contributors, and regions' --data supplies only the box
    and the k-means sample."""
    for option in rows:
        if command in option.commands:
            flag = dict(option.flag, default=argparse.SUPPRESS,
                        help=option.flag["help"] % {"default": option.default})
            flag.update(changes.get(option.key, {}))
            parser.add_argument("--" + option.key.replace("_", "-"), **flag)


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
    _add_options(pa, "audit")
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
    _add_options(pm, "meanvar", data={"required": True}, top_k={
        "default": DEFAULT_TOP_K,
        "help": "contributors to report (default %(default)s)"})
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
    _add_options(pr, "regions", OPTIONS[:1], data={
        "help": "dataset CSV supplying the bounding box (and the k-means "
                "sample for --squares)"})
    pr.add_argument("--bbox", metavar="X0,Y0,X1,Y1",
                    help="explicit bounding box (grid/random families only)")
    _add_options(pr, "regions", OPTIONS[1:])
    pr.set_defaults(func=cmd_regions)
    return parser


def _audit_config(args: argparse.Namespace) -> AuditConfig:
    """Merge the table's defaults, an optional config file and the flags
    given (flags win). Every value given is checked against its row, used
    or not; a flag the subcommand lacks counts as absent."""
    given = {}
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
        given = json.loads(text)
        if not isinstance(given, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(given) - set(_ROWS)
        if unknown:
            raise ValueError(
                f"unknown keys in config file: {', '.join(sorted(unknown))}"
            )
    given.update((key, value) for key, value in vars(args).items()
                 if key in _ROWS)
    v = {key: _checked(row, given.get(key)) for key, row in _ROWS.items()}
    sides = v["sides"]
    if isinstance(sides, list):
        sides = tuple(map(float, sides))
    return AuditConfig(
        data=v["data"],
        mode=_MODES[v["mode"]],
        direction=_DIRECTIONS[v["direction"]],
        grid=_pair("grid", v["grid"], _parse_grid),
        random_parts=v["random_partitionings"],
        splits=_pair("splits", v["splits"], _parse_splits),
        squares_centers=v["centers"] if v["squares"] else None,
        sides=_parse_sides(sides) if isinstance(sides, str) else sides,
        regions_file=v["regions_file"],
        alpha=float(v["alpha"]),
        num_worlds=v["worlds"] + 1,
        seed=v["seed"],
        top_k=v["top_k"],
    )


def _fits(value, types) -> bool:
    """Whether a JSON value's type is one of types (so true is no number);
    [T] is a list of T values."""
    return type(value) in types or type(value) is list and any(
        isinstance(t, list) and all(_fits(v, t) for v in value) for t in types)


def _checked(row: Option, value):
    """value, or the row's default for null; refused unless its type is one
    of the row's and, where the flag has choices, it is one of them."""
    if value is None:
        return row.default
    if _fits(value, row.types) and value in row.flag.get("choices", [value]):
        return value
    raise ValueError(
        f"config {row.key} must be {row.expected}, got {value!r}")


def _pair(key: str, value, parse):
    """A WxH or MIN..MAX option, as text or as a list of two integers."""
    if isinstance(value, str):
        return parse(value)
    if value is not None and len(value) != 2:
        raise ValueError(f"config {key} must be {_PAIR}, got {value!r}")
    return value if value is None else tuple(value)


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
