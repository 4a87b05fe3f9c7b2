"""Byte-for-byte comparison of CLI outputs against committed references.

The references under tests/golden/outputs were produced by this module's
own ``produce`` function and must only change when an output is meant to
change. Regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and say in the change log which output changed and why.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from fairscan.cli import main

REFERENCE = Path(__file__).parent / "golden" / "outputs"

AUDIT = ["--worlds", "99", "--alpha", "0.05", "--seed", "0"]

# Output files, relative to the working directory of ``produce``.
FILES = [
    "random/report.json",
    "random/regions.geojson",
    "random/nulldist.json",
    "mixed/report.json",
    "mixed/regions.geojson",
    "mixed/nulldist.json",
    "meanvar/meanvar.json",
    "regions.json",
]


def _run(*argv: str) -> None:
    code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"fairscan {' '.join(argv)} exited {code}")


def _drop_timings(path: Path) -> None:
    doc = json.loads(path.read_text())
    del doc["timings"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def produce(workdir: Path) -> None:
    """Write every file in FILES under workdir, using relative paths only."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        _run("gen-synth", "--kind", "uniform-split", "--n", "400",
             "--seed", "3", "--out", "data.csv")
        _run("audit", "--data", "data.csv", "--random-partitionings", "5",
             "--splits", "2..6", *AUDIT, "--out", "random")
        _run("regions", "--data", "data.csv", "--grid", "4x3", "--squares",
             "--centers", "4", "--sides", "0.1:0.5:3", "--seed", "0",
             "--out", "regions.json")
        _run("audit", "--data", "data.csv", "--regions-file", "regions.json",
             *AUDIT, "--out", "mixed")
        _run("meanvar", "--data", "data.csv", "--random-partitionings", "5",
             "--top-k", "10", "--out", "meanvar")
        for name in ("random", "mixed"):
            _drop_timings(Path(name) / "report.json")
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    produce(workdir)
    return workdir


@pytest.mark.parametrize("name", FILES)
def test_output_matches_reference(produced, name, capsys):
    capsys.readouterr()
    got = (produced / name).read_bytes()
    assert got == (REFERENCE / name).read_bytes(), f"{name} differs"


def test_references_show_evidence():
    # A FAIR reference would leave the evidence path untested.
    for name in ("random", "mixed"):
        doc = json.loads((REFERENCE / name / "report.json").read_text())
        assert doc["verdict"]["fair"] is False
        assert doc["evidence"]


if __name__ == "__main__":
    REFERENCE.mkdir(parents=True, exist_ok=True)
    produce(REFERENCE)
    (REFERENCE / "data.csv").unlink()
    sys.exit(0)
