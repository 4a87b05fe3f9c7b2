"""Dataset ingestion and measure-mode row selection.

A dataset is one array per column, one entry per observation: planar
locations ``lons``/``lats`` (decimal degrees treated as plain x/y), the
audited binary ``outcomes`` and the ground-truth ``labels`` that the
label-conditioned measures need (-1 where missing). The CSV's id field is
checked but not kept: an audit never reads it.

``read_columns`` parses the CSV with numpy's C reader, chunk by chunk, and
falls back to the stdlib csv reader and per-row checks for any chunk that
reader refuses or cannot be trusted with; errors name the physical line.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, repeat

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
class Dataset:
    """Immutable audited dataset: one column per field, one entry per row."""

    lons: np.ndarray
    lats: np.ndarray
    outcomes: np.ndarray
    labels: np.ndarray
    N: int
    P: int
    rho: float
    bbox: Region

    @classmethod
    def from_arrays(cls, lons, lats, outcomes, labels=None) -> "Dataset":
        """Validate and copy the columns; ``labels=None`` means all missing."""
        lons = np.array(lons, np.float64)
        labels = np.full(lons.shape, -1) if labels is None else np.array(labels)
        return cls._from_columns(lons, np.array(lats, np.float64),
                                 np.array(outcomes), labels)

    @classmethod
    def _from_columns(cls, lons, lats, outcomes, labels) -> "Dataset":
        """Validate arrays the Dataset may own without copying them."""
        if lons.ndim != 1 or any(c.shape != lons.shape
                                 for c in (lats, outcomes, labels)):
            raise DatasetError("dataset columns must be 1-D and of equal length")
        if not len(lons):
            raise DatasetError("dataset is empty")
        if not (np.isfinite(lons).all() and np.isfinite(lats).all()):
            raise DatasetError("non-finite coordinate in dataset")
        # Comparisons, not np.isin: its temporaries take several bytes a row.
        if not ((outcomes == 0) | (outcomes == 1)).all():
            raise DatasetError("outcome values must be 0 or 1")
        if not ((labels == 0) | (labels == 1) | (labels == -1)).all():
            raise DatasetError("label values must be 0, 1 or -1 (missing)")
        bbox = bounding_box(lons, lats)
        if not (math.isfinite(bbox.width) and math.isfinite(bbox.height)):
            raise DatasetError(
                f"coordinate extent is not finite: bounding box {bbox.bounds()}"
            )
        outcomes = outcomes.astype(np.int8, copy=False)
        labels = labels.astype(np.int8, copy=False)
        n, p = len(lons), int(outcomes.sum())
        return cls(lons, lats, outcomes, labels, N=n, P=p, rho=p / n, bbox=bbox)

    def select(self, mode: MeasureMode) -> "Dataset":
        """The rows the measure mode audits, as a Dataset whose N, P, rho
        and bbox describe them: self under statistical parity or when every
        row is kept. A label mode raises if a row lacks its label (-1), as
        dropping it would bias the conditional rate; any mode raises if it
        keeps no row."""
        mode = MeasureMode(mode)
        if mode is MeasureMode.STATISTICAL_PARITY:
            return self
        if (missing := np.flatnonzero(self.labels < 0)).size:
            raise DatasetError(
                f"measure mode {mode.value} needs a label on every row, "
                f"but row {missing[0]} has none")
        keep = self.labels == (1 if mode is MeasureMode.EQUAL_OPPORTUNITY else 0)
        if keep.all():
            return self
        if not keep.any():
            raise DatasetError(
                f"no rows remain after applying measure mode {mode.value}")
        return Dataset._from_columns(*(c[keep] for c in (
            self.lons, self.lats, self.outcomes, self.labels)))


_BASE_HEADER = ["id", "lon", "lat", "outcome"]
_CHUNK_ROWS = 65_536  # lines read per batch; bounds the transient buffers
_FIELDS = [("id", object), ("lon", "f8"), ("lat", "f8"), ("outcome", object),
           ("label", object)]  # text as object: see read_columns
_CODES = {"0": 0, "1": 1, "": -1}  # stripped outcome/label text; others read 2
# The row checks in the order a bad row reports them, after its field count.
_CHECKS = ((4, "label"), (1, "lon"), (2, "lat"), (3, "outcome"))
_BLANK_LINES = ("\n", "\r\n", "\r")


def _codes(column) -> np.ndarray:
    codes = np.fromiter(map(_CODES.get, column, repeat(2)), np.int8)
    if (codes == 2).any():  # text padded with whitespace, or not a code
        codes = np.fromiter(map(_CODES.get, map(str.strip, column), repeat(2)),
                            np.int8)
    return codes


def _load_chunk(lines: list[str], width: int):
    """Columns of whole lines read by numpy's C reader, or None if refused.

    read_columns lists what is refused. A record that spans lines is
    refused because it may go on past these lines, and because a line
    within the csv field limit bounds the fields of its own record only.
    """
    with warnings.catch_warnings():  # a chunk of blank lines holds no data
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            table = np.loadtxt(lines, dtype=_FIELDS[:width], delimiter=",",
                               quotechar='"', comments=None, encoding="utf-8",
                               ndmin=1)
        except ValueError:
            return None
    rows = len(table)
    if len(lines) > rows and len(lines) != rows + sum(map(lines.count,
                                                          _BLANK_LINES)):
        return None  # some record spans lines
    # With one line per record, a line break in the last field is the last
    # line's own end, taken in by a quote left open past these lines.
    last = table[_FIELDS[width - 1][0]][-1] if rows else ""
    if ("\n" in last or "\r" in last
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    lons, lats = table["lon"].copy(), table["lat"].copy()
    outcomes = _codes(table["outcome"])
    labels = (_codes(table["label"]) if width == 5
              else np.full(rows, -1, np.int8))
    if not (np.isfinite(lons).all() and np.isfinite(lats).all()
            and ((outcomes == 0) | (outcomes == 1)).all()
            and (labels <= 1).all()):
        return None
    return lons, lats, outcomes, labels


def _checked_chunk(lines: list[str], fh, lineno: int, width: int):
    """Reread the lines (and the rest of the last record, if it goes on
    past them) with the csv reader and the row checks, from line lineno.

    Returns the rows' columns and the number of lines read, or raises the
    first bad row's message.
    """
    reader, chunk, starts = csv.reader(chain(lines, fh)), [], []
    try:
        while reader.line_num < len(lines):
            starts.append(lineno + reader.line_num)  # the record's first line
            chunk.append(next(reader))
    except csv.Error as exc:  # e.g. a field over the csv field limit
        raise DatasetError(_first_error(chunk, starts, width)
                           or f"line {lineno - 1 + reader.line_num}: {exc}"
                           ) from None
    if error := _first_error(chunk, starts, width):
        raise DatasetError(error)
    return _columns([r for r in chunk if r], width), reader.line_num


def _columns(rows: list[list[str]], width: int):
    """Typed columns of rows that passed the row checks."""
    fields = list(zip(*rows)) if rows else [()] * width
    labels = (_codes(fields[4]) if width == 5
              else np.full(len(rows), -1, np.int8))
    return (np.fromiter(map(float, fields[1]), np.float64, len(rows)),
            np.fromiter(map(float, fields[2]), np.float64, len(rows)),
            _codes(fields[3]), labels)


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


def _first_error(chunk: list[list[str]], starts: list[int],
                 width: int) -> str | None:
    """The message for the first bad row of a chunk whose records start
    on the lines ``starts``."""
    for raw, lineno in zip(chunk, starts):
        if raw and (problem := _row_problem(raw, width)):
            return f"line {lineno}: {problem}"
    return None


def _read_chunks(path: str) -> list[tuple]:
    """The typed columns of each chunk of lines; see read_columns."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:  # e.g. a field over the csv field limit
            raise DatasetError(f"line {reader.line_num}: {exc}") from None
        if header is None:
            raise DatasetError("empty file: missing header")
        header = [h.strip() for h in header]
        if header != _BASE_HEADER and header != _BASE_HEADER + ["label"]:
            raise DatasetError(
                "line 1: header must be id,lon,lat,outcome or "
                f"id,lon,lat,outcome,label, got {','.join(header)!r}"
            )
        width = len(header)
        chunks = [_columns([], width)]  # typed columns for no rows
        lineno = reader.line_num + 1  # the line the next chunk starts on
        while lines := list(islice(fh, _CHUNK_ROWS)):
            columns, used = _load_chunk(lines, width), len(lines)
            if columns is None:
                columns, used = _checked_chunk(lines, fh, lineno, width)
            chunks.append(columns)
            lineno += used
    return chunks


def _not_utf8(path: str) -> str | None:
    """The message naming the line of the file's first byte that is not
    UTF-8, or None if every byte decodes."""
    lineno = 1
    with open(path, "rb") as fh:
        for raw in fh:  # split after b"\n"; splitlines also ends at b"\r"
            for line in raw.splitlines(keepends=True):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    return (f"line {lineno}: byte 0x{line[exc.start]:02x} "
                            f"is not UTF-8 ({exc.reason})")
                lineno += 1
    return None


def read_columns(path: str) -> list[np.ndarray]:
    """Parse a CSV into its lons, lats, outcomes and labels columns.

    Expected header: ``id,lon,lat,outcome`` with an optional trailing
    ``label`` column, after an optional UTF-8 byte-order mark. Errors name
    the physical line on which the offending record starts (header is
    line 1, blank lines are skipped but counted).

    The lines are read in chunks of _CHUNK_ROWS, each parsed by numpy's C
    reader (``np.loadtxt``; text fields are read as objects). Every field
    is read, so a row with a field too many or too few is refused, but
    the id field is dropped with its chunk. A chunk takes the checked
    path instead when numpy refuses it (a wrong field count, or a number
    only ``float()`` reads, such as ``1_0``), when a value fails the row
    checks, when a quoted field holds a line break, or when a line is
    longer than ``csv.field_size_limit()``. The checked path rereads the
    chunk with the stdlib csv reader and raises the first bad row's
    message, or accepts the rows and converts them with ``float()``. Both
    paths give the same columns and errors, whatever the chunk size.

    A byte that is not UTF-8 is reported with the line that holds it. The
    lines are decoded as they are read, a chunk (and up to 8 kB more)
    ahead of the row checks, so such a byte is reported even when a bad
    row comes before it in that span.
    """
    try:
        chunks = _read_chunks(path)
    except UnicodeDecodeError as exc:
        raise DatasetError(_not_utf8(path) or str(exc)) from None
    columns = list(zip(*chunks))
    del chunks  # so that each column's chunks are freed once joined
    return [np.concatenate(columns.pop(0)) for _ in range(len(columns))]


def load_dataset(path: str) -> Dataset:
    """Read and validate a CSV into a Dataset of all its rows; the audit
    selects its measure mode's rows with ``Dataset.select``."""
    return Dataset._from_columns(*read_columns(path))


def write_csv(d: Dataset, path: str) -> None:
    """Emit a dataset in the standard CSV schema (label column only if
    present), with the ids s0, s1, ... in row order."""
    has_label = bool((d.labels >= 0).any())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_BASE_HEADER + (["label"] if has_label else []))
        columns = [map("s{}".format, range(d.N)), map(repr, d.lons.tolist()),
                   map(repr, d.lats.tolist()), d.outcomes.tolist()]
        if has_label:
            columns.append(["" if v < 0 else v for v in d.labels.tolist()])
        writer.writerows(zip(*columns))
