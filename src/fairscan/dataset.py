"""Dataset ingestion and outcome-measure filtering.

A dataset is one array per column, one entry per observation: ``ids``,
planar locations ``lons``/``lats`` (decimal degrees treated as plain x/y),
the audited binary ``outcomes`` and the ground-truth ``labels`` that the
label-conditioned measures need (-1 where missing).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice, repeat

import numpy as np

from .geometry import Region, bounding_box

_ID = np.dtypes.StringDType()  # variable-width strings, no object per row


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
class Dataset:
    """Immutable audited dataset: one column per field, one entry per row."""

    ids: np.ndarray
    lons: np.ndarray
    lats: np.ndarray
    outcomes: np.ndarray
    labels: np.ndarray
    N: int
    P: int
    rho: float
    bbox: Region

    @classmethod
    def from_arrays(cls, ids, lons, lats, outcomes, labels=None) -> "Dataset":
        """Validate and copy the columns; ``labels=None`` means all missing."""
        ids = np.array(ids, dtype=_ID)
        lons, lats = np.array(lons, np.float64), np.array(lats, np.float64)
        outcomes = np.array(outcomes)
        labels = np.full(ids.shape, -1) if labels is None else np.array(labels)
        if ids.ndim != 1 or any(c.shape != ids.shape
                                for c in (lons, lats, outcomes, labels)):
            raise DatasetError("dataset columns must be 1-D and of equal length")
        if not len(ids):
            raise DatasetError("dataset is empty")
        if not (np.isfinite(lons).all() and np.isfinite(lats).all()):
            raise DatasetError("non-finite coordinate in dataset")
        if not np.isin(outcomes, (0, 1)).all():
            raise DatasetError("outcome values must be 0 or 1")
        if not np.isin(labels, (-1, 0, 1)).all():
            raise DatasetError("label values must be 0, 1 or -1 (missing)")
        bbox = bounding_box(lons, lats)
        if not (math.isfinite(bbox.width) and math.isfinite(bbox.height)):
            raise DatasetError(
                f"coordinate extent is not finite: bounding box {bbox.bounds()}"
            )
        outcomes, labels = outcomes.astype(np.int8), labels.astype(np.int8)
        n, p = len(ids), int(outcomes.sum())
        return cls(ids, lons, lats, outcomes, labels, N=n, P=p, rho=p / n,
                   bbox=bbox)

    @property
    def points(self) -> np.ndarray:
        """Locations as an (N, 2) float array."""
        return np.column_stack((self.lons, self.lats))


def apply_measure_mode(ids, labels, mode: MeasureMode) -> np.ndarray:
    """Boolean mask of the rows the measure mode audits.

    statistical_parity keeps every row. The label-conditioned modes raise
    if any row lacks its ground-truth label (-1), because silently dropping
    such rows would bias the conditional rate. Raises if no row is kept.
    """
    mode = MeasureMode(mode)
    if mode is MeasureMode.STATISTICAL_PARITY:
        keep = np.ones(len(labels), dtype=bool)
    elif (missing := np.flatnonzero(labels < 0)).size:
        raise DatasetError(
            f"measure mode {mode.value} needs a label on every row, "
            f"but row {missing[0]} (id={ids[missing[0]]!r}) has none"
        )
    else:
        keep = labels == (1 if mode is MeasureMode.EQUAL_OPPORTUNITY else 0)
    if not keep.any():
        raise DatasetError(
            f"no rows remain after applying measure mode {mode.value}"
        )
    return keep


_BASE_HEADER = ["id", "lon", "lat", "outcome"]
_CHUNK_ROWS = 65_536  # rows parsed per batch; bounds the transient row lists
_CODES = {"0": 0, "1": 1, "": -1}  # stripped outcome/label text; others read 2
# The row checks in the order a bad row reports them, after its field count.
_CHECKS = ((4, "label"), (1, "lon"), (2, "lat"), (3, "outcome"))


def _codes(column) -> np.ndarray:
    return np.fromiter(map(_CODES.get, map(str.strip, column), repeat(2)),
                       dtype=np.int8)


def _parse_chunk(rows: list[list[str]], width: int):
    """Columns of non-blank rows, or None if any row fails a check."""
    if any(len(r) != width for r in rows):
        return None
    cols = [[r[i] for r in rows] for i in range(width)]  # faster than zip(*rows)
    try:
        lons = np.fromiter(map(float, cols[1]), dtype=np.float64)
        lats = np.fromiter(map(float, cols[2]), dtype=np.float64)
    except ValueError:
        return None
    outcomes = _codes(cols[3])
    labels = _codes(cols[4]) if width == 5 else np.full(len(rows), -1, np.int8)
    if not (np.isfinite(lons).all() and np.isfinite(lats).all()
            and ((outcomes == 0) | (outcomes == 1)).all()
            and (labels <= 1).all()):
        return None
    return np.array(cols[0], dtype=_ID), lons, lats, outcomes, labels


def _row_problem(raw: list[str], width: int) -> str | None:
    """What is wrong with one non-blank row, or None if it passes."""
    if len(raw) != width:
        return f"expected {width} fields, got {len(raw)}"
    for i, column in _CHECKS:
        value = raw[i].strip() if i < width else ""
        if column in ("lon", "lat"):
            try:
                number = float(value)
            except ValueError:
                return f"{column} is not a number: {value!r}"
            if not math.isfinite(number):
                return f"{column} must be finite, got {value!r}"
        elif value not in ("0", "1") and (value or column == "outcome"):
            return f"{column} must be 0 or 1, got {value!r}"
    return None


def _first_error(chunk: list[list[str]], lineno: int, width: int) -> str:
    """The message for the first bad row of a chunk starting on line lineno."""
    for raw in chunk:
        if raw and (problem := _row_problem(raw, width)):
            return f"line {lineno}: {problem}"
        # A line break inside a quoted field continues the same record.
        lineno += 1 + sum(f.count("\n") + f.count("\r") - f.count("\r\n")
                          for f in raw)
    raise AssertionError("chunk rejected but every row passes")


def read_columns(path: str) -> list[np.ndarray]:
    """Parse a CSV into its ids, lons, lats, outcomes and labels columns.

    Expected header: ``id,lon,lat,outcome`` with an optional trailing
    ``label`` column. Errors name the physical line on which the offending
    record starts (header is line 1, blank lines are skipped but counted).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DatasetError("empty file: missing header")
            header = [h.strip() for h in header]
            if header != _BASE_HEADER and header != _BASE_HEADER + ["label"]:
                raise DatasetError(
                    "line 1: header must be id,lon,lat,outcome or "
                    f"id,lon,lat,outcome,label, got {','.join(header)!r}"
                )
            width = len(header)
            chunks = [_parse_chunk([], width)]  # typed columns for no rows
            lineno = reader.line_num + 1
            while chunk := list(islice(reader, _CHUNK_ROWS)):
                columns = _parse_chunk([r for r in chunk if r], width)
                if columns is None:
                    raise DatasetError(_first_error(chunk, lineno, width))
                chunks.append(columns)
                lineno = reader.line_num + 1
                del chunk  # free this chunk's strings before reading the next
        except csv.Error as exc:  # e.g. a field over the csv field limit
            raise DatasetError(f"line {reader.line_num}: {exc}") from None
    return [np.concatenate(c) for c in zip(*chunks)]


def load_dataset(
    path: str, mode: MeasureMode = MeasureMode.STATISTICAL_PARITY
) -> Dataset:
    """Read, validate, and filter a CSV into an audit-ready Dataset.

    N, P, rho, and the bounding box all describe the rows retained after
    the measure-mode filter, not the raw file.
    """
    columns = read_columns(path)
    keep = apply_measure_mode(columns[0], columns[4], mode)
    if not keep.all():
        columns = [c[keep] for c in columns]
    return Dataset.from_arrays(*columns)


def write_csv(d: Dataset, path: str) -> None:
    """Emit a dataset in the standard CSV schema (label column only if present)."""
    has_label = bool((d.labels >= 0).any())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_BASE_HEADER + (["label"] if has_label else []))
        columns = [d.ids, map(repr, d.lons.tolist()), map(repr, d.lats.tolist()),
                   d.outcomes.tolist()]
        if has_label:
            columns.append(["" if v < 0 else v for v in d.labels.tolist()])
        writer.writerows(zip(*columns))
