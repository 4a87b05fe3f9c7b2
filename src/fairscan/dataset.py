"""Observation ingestion and outcome-measure filtering.

A dataset is an ordered collection of observations, each carrying a planar
location (decimal degrees treated as plain x/y), the binary outcome under
audit, and optionally the binary ground-truth label needed by the
label-conditioned measures.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .geometry import Region, bounding_box


class DatasetError(ValueError):
    """Raised for malformed input files or unsatisfiable measure modes."""


class MeasureMode(str, Enum):
    """Which conditional slice of the data the audit runs on.

    statistical_parity audits all rows, equal_opportunity audits rows with
    ground-truth label 1 (outcome rate becomes the true positive rate), and
    predictive_equality audits rows with label 0 (rate becomes the false
    positive rate).
    """

    STATISTICAL_PARITY = "statistical_parity"
    EQUAL_OPPORTUNITY = "equal_opportunity"
    PREDICTIVE_EQUALITY = "predictive_equality"


@dataclass(frozen=True)
class Observation:
    id: str
    lon: float
    lat: float
    outcome: int
    label: int | None = None


@dataclass(frozen=True)
class Dataset:
    """Immutable audited dataset with cached coordinate/outcome arrays."""

    observations: tuple[Observation, ...]
    lons: np.ndarray
    lats: np.ndarray
    outcomes: np.ndarray
    N: int
    P: int
    rho: float
    bbox: Region

    @classmethod
    def from_observations(cls, observations: Iterable[Observation]) -> "Dataset":
        obs = tuple(observations)
        if not obs:
            raise DatasetError("dataset is empty")
        lons = np.array([o.lon for o in obs], dtype=np.float64)
        lats = np.array([o.lat for o in obs], dtype=np.float64)
        outcomes = np.array([o.outcome for o in obs], dtype=np.int8)
        if not (np.isfinite(lons).all() and np.isfinite(lats).all()):
            raise DatasetError("non-finite coordinate in dataset")
        bad = (outcomes != 0) & (outcomes != 1)
        if bad.any():
            raise DatasetError("outcome values must be 0 or 1")
        bbox = bounding_box(lons, lats)
        if not (math.isfinite(bbox.width) and math.isfinite(bbox.height)):
            raise DatasetError(
                f"coordinate extent is not finite: bounding box {bbox.bounds()}"
            )
        n = len(obs)
        p = int(outcomes.sum())
        return cls(
            observations=obs,
            lons=lons,
            lats=lats,
            outcomes=outcomes,
            N=n,
            P=p,
            rho=p / n,
            bbox=bbox,
        )

    @property
    def points(self) -> np.ndarray:
        """Locations as an (N, 2) float array."""
        return np.column_stack((self.lons, self.lats))


def apply_measure_mode(
    rows: Sequence[Observation], mode: MeasureMode
) -> list[Observation]:
    """Filter rows down to the slice the measure mode audits.

    statistical_parity keeps everything. The label-conditioned modes raise
    if any row is missing its ground-truth label, because silently dropping
    such rows would bias the conditional rate.
    """
    mode = MeasureMode(mode)
    if mode is MeasureMode.STATISTICAL_PARITY:
        return list(rows)
    wanted = 1 if mode is MeasureMode.EQUAL_OPPORTUNITY else 0
    for i, row in enumerate(rows):
        if row.label is None:
            raise DatasetError(
                f"measure mode {mode.value} needs a label on every row, "
                f"but row {i} (id={row.id!r}) has none"
            )
    return [row for row in rows if row.label == wanted]


_BASE_HEADER = ["id", "lon", "lat", "outcome"]


def _parse_binary(raw: str, column: str, lineno: int) -> int:
    if raw == "0":
        return 0
    if raw == "1":
        return 1
    raise DatasetError(f"line {lineno}: {column} must be 0 or 1, got {raw!r}")


def _parse_coord(raw: str, column: str, lineno: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DatasetError(
            f"line {lineno}: {column} is not a number: {raw!r}"
        ) from None
    if not math.isfinite(value):
        raise DatasetError(f"line {lineno}: {column} must be finite, got {raw!r}")
    return value


def read_rows(path: str) -> list[Observation]:
    """Parse a CSV of observations, validating every row.

    Expected header: ``id,lon,lat,outcome`` with an optional trailing
    ``label`` column. Errors name the offending line (header is line 1).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError("empty file: missing header") from None
        header = [h.strip() for h in header]
        if header != _BASE_HEADER and header != _BASE_HEADER + ["label"]:
            raise DatasetError(
                "line 1: header must be id,lon,lat,outcome or "
                f"id,lon,lat,outcome,label, got {','.join(header)!r}"
            )
        has_label = len(header) == 5
        rows: list[Observation] = []
        for lineno, raw in enumerate(reader, start=2):
            if not raw:
                continue  # ignore blank lines
            if len(raw) != len(header):
                raise DatasetError(
                    f"line {lineno}: expected {len(header)} fields, got {len(raw)}"
                )
            label: int | None = None
            if has_label and raw[4].strip() != "":
                label = _parse_binary(raw[4].strip(), "label", lineno)
            rows.append(
                Observation(
                    id=raw[0],
                    lon=_parse_coord(raw[1].strip(), "lon", lineno),
                    lat=_parse_coord(raw[2].strip(), "lat", lineno),
                    outcome=_parse_binary(raw[3].strip(), "outcome", lineno),
                    label=label,
                )
            )
    return rows


def load_dataset(
    path: str, mode: MeasureMode = MeasureMode.STATISTICAL_PARITY
) -> Dataset:
    """Read, validate, and filter a CSV into an audit-ready Dataset.

    N, P, rho, and the bounding box all describe the rows retained after
    the measure-mode filter, not the raw file.
    """
    rows = apply_measure_mode(read_rows(path), mode)
    if not rows:
        raise DatasetError(
            f"no rows remain after applying measure mode {MeasureMode(mode).value}"
        )
    return Dataset.from_observations(rows)


def write_csv(d: Dataset, path: str) -> None:
    """Emit a dataset in the standard CSV schema (label column only if present)."""
    has_label = any(o.label is not None for o in d.observations)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_BASE_HEADER + (["label"] if has_label else []))
        for o in d.observations:
            row = [o.id, repr(o.lon), repr(o.lat), str(o.outcome)]
            if has_label:
                row.append("" if o.label is None else str(o.label))
            writer.writerow(row)
