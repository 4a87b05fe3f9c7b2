"""Fuzz the command line in process: every input file, config and flag value
must end in a result or in ``error: ...``, with exit code 0, 1 or 2.

Sizes stay small (a dozen rows, grids and counts below ten, at most 50
worlds), so no example allocates more than a few MB or starts a process.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from fairscan.cli import main

_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])

_HEADERS = st.sampled_from(["id,lon,lat,outcome"] * 6
                           + ["id,lon,lat,outcome,label"] * 4
                           + [" id , lon,lat,outcome", "lon,lat,outcome", "",
                              "id,lon"])
_COORD = st.sampled_from(["0", "0.25", "0.5", "1", "3", "-2.5", "1e-300",
                          "1e300", "-1e300", " 0.75 "])
_ODD = st.sampled_from(["", " ", "x", '"', '"1\n"', "2", "1_0", "nan", "inf",
                        "\xff", "\ufeff", "0,1", "9" * 40])


@st.composite
def _csv_bytes(draw) -> bytes:
    header = draw(_HEADERS)
    lines = [header]
    for i in range(draw(st.integers(0, 12))):
        row = [f"r{i}", draw(_COORD), draw(_COORD),
               draw(st.sampled_from(["0", "1"]))]
        if header.endswith("label"):
            row.append(draw(st.sampled_from(["0", "1", ""])))
        if draw(st.integers(0, 11)) == 0:  # one odd field
            row[draw(st.integers(0, len(row) - 1))] = draw(_ODD)
        if draw(st.integers(0, 29)) == 0:  # a short row
            row.pop()
        lines.append(",".join(row))
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)
    text += draw(st.sampled_from(["\n", "", "\n\n"]))
    # "\xff" stands for the byte 0xff, which is not UTF-8.
    return text.encode("utf-8").replace(b"\xc3\xbf", b"\xff")


_SMALL_INT = st.integers(-2, 8)


def _text(good: list[str], bad: list[str]):
    """Mostly well-formed flag or config text, sometimes not."""
    return st.sampled_from(good * 3 + bad)


_GRID = _text(["3x2", "1x1", "4X4"], ["0x4", "2x-1", "4", "axb", ""])
_SPLITS = _text(["2..5", "1..1", "3..3"], ["5..2", "0..3", "x..y", "2.5"])
_SIDES = _text(["0.1:1:3", "0.5:0.5:1", "1:0.1:2"],
               ["0:0:0", "nan:1:2", "1:inf:2", "-1:1:3", "a:b:c", "0.5:1:-1",
                "1:2:0", f"0.1:1:{2**63}"])
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), _SMALL_INT,
    st.floats(allow_nan=True, allow_infinity=True), _GRID, _SPLITS, _SIDES,
    st.sampled_from(["parity", "opportunity", "predictive-equality",
                     "two-sided", "higher-inside", "lower-inside", "x"]),
    st.lists(st.one_of(_SMALL_INT, st.floats(-2, 2), st.text(max_size=2)),
             max_size=3))
_CONFIG_KEYS = ["data", "mode", "direction", "grid", "random_partitionings",
                "splits", "squares", "centers", "sides", "regions_file",
                "alpha", "worlds", "seed", "resolution", "top_k", "bogus"]


@st.composite
def _config_text(draw) -> str:
    kind = draw(st.sampled_from(["object"] * 6 + ["list", "broken"]))
    if kind == "broken":
        return draw(st.sampled_from(["{", "", "nul", '{"grid": }']))
    if kind == "list":
        return "[1, 2]"
    keys = draw(st.lists(st.sampled_from(_CONFIG_KEYS), max_size=4,
                         unique=True))
    doc = {key: draw(_JSON_VALUES) for key in keys}
    if "data" in doc and draw(st.booleans()):
        doc["data"] = "{data}"  # replaced with the CSV's path
    return json.dumps(doc)


_FLOAT = _text(["0.05", "0.5", "0.2"], ["0", "1", "-1", "2", "nan", "inf",
                                        "1e-300", "x"])
_INT = st.one_of(_SMALL_INT.map(str), st.sampled_from(
    ["x", "1.5", "", str(2**63), str(-2**63), str(10**30)]))
_SEED = st.one_of(_SMALL_INT.map(str), st.sampled_from(
    [str(2**64 + 5), "-1", "x"]))
_RECT = _text(["0,0,1,1", "-1,-1,2,2", "0.2,0.2,0.6,0.6"],
              ["1,1,0,0", "0,0,0,0", "nan,0,1,1", "0,0,inf,1", "0,0,1",
               "a,b,c,d"])
# Paths: "{data}", "{config}", "{out}", "{missing}" and "{dir}" stand for
# files and directories in the example's temporary directory.
_PATHS = st.sampled_from(["{data}", "{config}", "{out}", "{missing}",
                          "{dir}"])
_FAMILY = [("--grid", _GRID), ("--random-partitionings", _INT),
           ("--splits", _SPLITS), ("--centers", _INT), ("--sides", _SIDES),
           ("--regions-file", _PATHS)]
# Flags with a value, and the values to try.
_VALUED = {
    "audit": [("--config", _text(["{config}"], ["{data}", "{missing}",
                                                "{dir}"])),
              ("--data", _PATHS),
              ("--mode", _text(["parity", "opportunity",
                                "predictive-equality"], ["x"])),
              ("--direction", _text(["two-sided", "higher-inside",
                                     "lower-inside"], ["x"])),
              *_FAMILY, ("--alpha", _FLOAT),
              ("--worlds", _text(["1", "9", "49"], ["0", "-1", "x"])),
              ("--seed", _SEED), ("--resolution", _INT),
              ("--top-k", _INT), ("--out", _PATHS)],
    "meanvar": [("--data", _PATHS),
                ("--mode", _text(["parity", "opportunity"], ["x"])),
                ("--grid", _GRID), ("--random-partitionings", _INT),
                ("--splits", _SPLITS), ("--seed", _SEED), ("--top-k", _INT),
                ("--out", _PATHS)],
    "gen-synth": [("--kind", _text(["uniform-split", "fair", "planted"],
                                   ["x"])),
                  ("--out", _PATHS),
                  ("--n", _text(["1", "2", "7", "40"], ["0", "-1", "x"])),
                  ("--seed", _SEED), ("--rect", _RECT), ("--rho", _FLOAT),
                  ("--locations", _PATHS), ("--plant", _RECT),
                  ("--rho-bg", _FLOAT), ("--rho-in", _FLOAT)],
    "regions": [("--out", _PATHS), ("--data", _PATHS), ("--bbox", _RECT),
                *_FAMILY, ("--seed", _SEED)],
}
_SWITCHES = {"audit": ["--squares", "--fail-on-unfair"], "meanvar": [],
             "gen-synth": [], "regions": ["--squares"]}
# What a run needs to get past the argument checks; each group is given
# with probability 7/8, so that most examples reach the data and the scan.
_FAMILIES = [["--grid", "3x2"], ["--random-partitionings", "2", "--splits",
                                 "1..3"],
             ["--squares", "--centers", "2", "--sides", "0.2:1:2"]]
_USUAL = {
    "audit": [["--data", "{data}"], _FAMILIES, ["--worlds", "19"],
              ["--alpha", "0.1"]],
    "meanvar": [["--data", "{data}"], _FAMILIES[:2]],
    "gen-synth": [["--kind", "planted"], ["--out", "{out}"], ["--n", "9"],
                  ["--plant", "0,0,0.5,0.5"]],
    "regions": [["--out", "{out}"], ["--data", "{data}"], _FAMILIES],
}


@st.composite
def _argv(draw, command: str) -> list[str]:
    argv = [command]
    for group in _USUAL[command]:
        if draw(st.integers(0, 7)):
            argv += (draw(st.sampled_from(group))
                     if isinstance(group[0], list) else group)
    for flag, values in draw(st.lists(st.sampled_from(_VALUED[command]),
                                      max_size=4, unique_by=lambda f: f[0])):
        argv += [flag, draw(values)]  # a repeated flag: the last one wins
    for switch in _SWITCHES[command]:
        if draw(st.integers(0, 5)) == 0:
            argv.append(switch)
    if draw(st.integers(0, 30)) == 0:
        argv.append(draw(st.sampled_from(["--help", "--bogus", "extra"])))
    return argv


def _run(argv: list[str], csv_bytes: bytes, config: str) -> tuple[object, str]:
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"data": f"{tmp}/d.csv", "config": f"{tmp}/c.json",
                 "out": f"{tmp}/out", "missing": f"{tmp}/missing/x",
                 "dir": tmp}
        Path(paths["data"]).write_bytes(csv_bytes)
        Path(paths["config"]).write_text(config.replace(
            "{data}", paths["data"]), encoding="utf-8")
        argv = [arg.format(**paths) if arg.startswith("{") else arg
                for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
        return code, err.getvalue()


def _check(command: str, data) -> None:
    argv = data.draw(_argv(command))
    code, err = _run(argv, data.draw(_csv_bytes()), data.draw(_config_text()))
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 1:
        assert err.startswith("error: "), (argv, err)


class TestCliFuzz:
    @_SETTINGS
    @given(data=st.data())
    def test_audit(self, data):
        _check("audit", data)

    @_SETTINGS
    @given(data=st.data())
    def test_meanvar(self, data):
        _check("meanvar", data)

    @_SETTINGS
    @given(data=st.data())
    def test_gen_synth(self, data):
        _check("gen-synth", data)

    @_SETTINGS
    @given(data=st.data())
    def test_regions(self, data):
        _check("regions", data)
