from __future__ import annotations

import csv
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairscan import Dataset, DatasetError, MeasureMode, load_dataset, write_csv
from fairscan import dataset as dataset_module
from fairscan.dataset import read_columns

from conftest import make_dataset
from oracles import oracle_read_csv


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestReadRows:
    """The CSV reader, read_columns (the class keeps its historical name)."""

    def test_basic_file(self, tmp_path):
        p = write_text(tmp_path / "d.csv",
                       "id,lon,lat,outcome\na,0.5,1.5,1\nb,-2.0,3.0,0\n")
        lons, lats, outcomes, labels = read_columns(p)
        assert lons.tolist() == [0.5, -2.0]
        assert lons[0] == 0.5 and lats[0] == 1.5
        assert outcomes[0] == 1 and outcomes[1] == 0
        assert labels[0] == -1

    def test_label_column(self, tmp_path):
        p = write_text(tmp_path / "d.csv",
                       "id,lon,lat,outcome,label\na,0,0,1,1\nb,1,1,0,\n")
        labels = read_columns(p)[3]
        assert labels[0] == 1
        assert labels[1] == -1

    @pytest.mark.parametrize("chunk", [1, 65_536])
    def test_byte_order_mark_is_skipped(self, tmp_path, chunk):
        # Spreadsheets' "CSV UTF-8" export starts the file with a BOM.
        text = "id,lon,lat,outcome,label\na,0.5,1.5,1,0\nb,-2.0,3.0,0,\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        with mock.patch.object(dataset_module, "_CHUNK_ROWS", chunk):
            got = [c.tolist() for c in read_columns(str(marked))]
            assert got == [c.tolist() for c in read_columns(str(plain))]
        assert got == [[0.5, -2.0], [1.5, 3.0], [1, 0], [0, -1]]
        assert got == list(oracle_read_csv(str(marked)))[1:]

    def test_byte_not_utf8_after_a_byte_order_mark(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbfid,lon,lat,outcome\na,0,0,1\nb\xff,1,1,0\n")
        with pytest.raises(DatasetError) as err:
            read_columns(str(p))
        assert str(err.value) == \
            "line 3: byte 0xff is not UTF-8 (invalid start byte)"

    def test_bad_header(self, tmp_path):
        p = write_text(tmp_path / "d.csv", "lon,lat,outcome\n1,2,1\n")
        with pytest.raises(DatasetError, match="line 1"):
            read_columns(p)

    def test_empty_file(self, tmp_path):
        p = write_text(tmp_path / "d.csv", "")
        with pytest.raises(DatasetError, match="header"):
            read_columns(p)

    def test_bad_outcome_names_physical_line(self, tmp_path):
        body = "id,lon,lat,outcome\n" + "".join(
            f"r{i},{i}.0,0.0,1\n" for i in range(5)
        ) + "bad,9.0,9.0,2\n"
        p = write_text(tmp_path / "d.csv", body)  # offending row is line 7
        with pytest.raises(DatasetError, match="line 7"):
            read_columns(p)

    def test_bad_coordinate(self, tmp_path):
        p = write_text(tmp_path / "d.csv", "id,lon,lat,outcome\na,oops,0,1\n")
        with pytest.raises(DatasetError, match="line 2.*lon"):
            read_columns(p)

    def test_nonfinite_coordinate(self, tmp_path):
        p = write_text(tmp_path / "d.csv", "id,lon,lat,outcome\na,inf,0,1\n")
        with pytest.raises(DatasetError, match="finite"):
            read_columns(p)

    def test_field_count_mismatch(self, tmp_path):
        p = write_text(tmp_path / "d.csv", "id,lon,lat,outcome\na,1,2\n")
        with pytest.raises(DatasetError, match="line 2"):
            read_columns(p)

    def test_blank_lines_skipped_without_losing_line_numbers(self, tmp_path):
        p = write_text(tmp_path / "d.csv",
                       "id,lon,lat,outcome\na,0,0,1\n\nb,1,1,3\n")
        with pytest.raises(DatasetError, match="line 4"):
            read_columns(p)

    def test_bad_row_past_first_chunk_names_physical_line(self, tmp_path):
        # 70,000 physical lines with a blank line every 1,000: the bad
        # outcome sits in the second 65,536-row chunk.
        lines = ["id,lon,lat,outcome"]
        for lineno in range(2, 70_001):
            if lineno % 1000 == 0:
                lines.append("")
            else:
                outcome = 2 if lineno == 68_001 else lineno % 2
                lines.append(f"r{lineno},{lineno}.5,0.25,{outcome}")
        p = write_text(tmp_path / "d.csv", "\n".join(lines) + "\n")
        with pytest.raises(DatasetError) as err:
            read_columns(p)
        assert str(err.value) == "line 68001: outcome must be 0 or 1, got '2'"

    @pytest.mark.parametrize("chunk", [1, 65_536])
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_bad_row_after_multiline_field_names_its_start_line(
            self, tmp_path, chunk, eol):
        # The quoted id spans lines 2-3, so the bad record starts on line 4.
        text = eol.join(['id,lon,lat,outcome', '"a', 'b",0.1,0.2,1',
                         'c,0.3,0.4,7', ''])
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode("utf-8"))
        with mock.patch.object(dataset_module, "_CHUNK_ROWS", chunk):
            with pytest.raises(DatasetError) as err:
                read_columns(str(p))
        assert str(err.value) == "line 4: outcome must be 0 or 1, got '7'"
        assert str(err.value) == str(_oracle_error(str(p)))

    @pytest.mark.parametrize("chunk", [1, 2, 65_536])
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("breaks, lines", [
        ("\n", 1), ("\r", 1), ("\r\n", 1), ("\n\r", 2), ("\r\n\r\n", 2),
        ("\r\r\n\n", 3)], ids=repr)
    def test_bad_row_after_line_breaks_in_fields(self, tmp_path, chunk, eol,
                                                 breaks, lines):
        # Quoted breaks of another kind than the file's own, in an id and
        # in a label: the bad record starts after both records' lines.
        text = eol.join(['id,lon,lat,outcome,label',
                         f'"a{breaks}b",0.1,0.2,1,', f'c,0.3,0.4,0,"{breaks}1"',
                         'd,0.5,0.6,7,', ''])
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode("utf-8"))
        with mock.patch.object(dataset_module, "_CHUNK_ROWS", chunk):
            with pytest.raises(DatasetError) as err:
                read_columns(str(p))
        assert str(err.value) == (f"line {4 + 2 * lines}: outcome must be 0 "
                                  "or 1, got '7'")
        assert str(err.value) == str(_oracle_error(str(p)))

    @pytest.mark.parametrize("row", [
        "x" * 200_000 + ",0.5,0.5,1", "a," + "0" * 200_000 + "1,0.5,1",
        "a,0.5," + " " * 200_000 + "1,1", "a,0.5,0.5,1" + " " * 200_000,
        'a,"0.5' + ("\n" + " " * 999) * 200 + '",0.5,1',
    ], ids=["id", "lon-digits", "lat-padded", "outcome-padded",
            "lon-line-breaks"])
    def test_field_over_csv_limit_is_refused(self, tmp_path, row):
        # numpy reads every one of these rows; the csv reader does not.
        p = write_text(tmp_path / "d.csv", "id,lon,lat,outcome\n" + row + "\n")
        with pytest.raises(DatasetError,
                           match=r"^line \d+: field larger than field limit"):
            read_columns(p)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 65_536])
    def test_quoted_records_across_chunk_ends_match_reference(
            self, tmp_path, chunk):
        # Quoted line breaks in the last field and in a coordinate, a blank
        # line inside a quoted id, and quotes csv reads as plain text.
        text = ('id,lon,lat,outcome,label\r\na,0.5,0.5,1,"1\r\n"\r\n'
                '"b\n\nc",1.5,"2.5\n",0,\n\nx"y,1,2,"0",\r'
                '"p""q"r,3,4,1,"\n1"\n')
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode("utf-8"))
        with mock.patch.object(dataset_module, "_CHUNK_ROWS", chunk):
            got = [c.tolist() for c in read_columns(str(p))]
        assert got == list(oracle_read_csv(str(p)))[1:]  # all but the ids
        assert got[0] == [0.5, 1.5, 1.0, 3.0]

    def test_bad_row_before_an_oversized_field_wins(self, tmp_path):
        p = write_text(tmp_path / "d.csv", "id,lon,lat,outcome\na,0,0,7\n"
                       + "x" * 200_000 + ",0,0,1\n")
        with pytest.raises(DatasetError) as err:
            read_columns(p)
        assert str(err.value) == "line 2: outcome must be 0 or 1, got '7'"

    def test_first_bad_row_wins_across_checks(self, tmp_path):
        # A field-count error after a bad coordinate in the same chunk.
        p = write_text(tmp_path / "d.csv",
                       "id,lon,lat,outcome,label\na,0,0,1,\nb,x,0,1,1\nc,1\n")
        with pytest.raises(DatasetError) as err:
            read_columns(p)
        assert str(err.value) == "line 3: lon is not a number: 'x'"

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("where, lineno", [
        ("header", 1), ("data line", 3), ("third chunk", 2_501),
        ("open quote", 1_401)])
    def test_byte_not_utf8_names_its_line(self, tmp_path, eol, where, lineno):
        lines = ["id,lon,lat,outcome"] + [
            f"r{i},{i}.5,0.25,{i % 2}" for i in range(2, 3_001)]
        bad = "\udcff\udcfe"  # the bytes 0xff 0xfe, see below
        if where == "header":
            lines[0] = "id,lon,la" + bad + "t,outcome"
        elif where == "open quote":
            # A quoted id from the first chunk's last line to line 1,401,
            # 16 kB on: the rows are reread past the chunk before the
            # decoder reaches the byte.
            lines[1_000:1_401] = (['"q'] + ["x" * 40] * 399
                                  + ["x" + bad + '",1.5,0.25,1'])
        else:
            lines[lineno - 1] = "r" + bad + ",1.5,0.25,1"
        p = tmp_path / "d.csv"
        p.write_bytes(eol.join(lines).encode("utf-8", "surrogateescape"))
        # 1,000-line chunks of about 20 kB: the third chunk is decoded
        # after the first chunk's rows are read.
        with mock.patch.object(dataset_module, "_CHUNK_ROWS", 1_000):
            with pytest.raises(DatasetError) as err:
                read_columns(str(p))
        assert str(err.value) == (f"line {lineno}: byte 0xff is not UTF-8 "
                                  "(invalid start byte)")


def _oracle_error(path):
    try:
        oracle_read_csv(path)
    except ValueError as exc:
        return exc
    return None


# Field values that exercise every check, valid ones included. Ids may hold
# line breaks, which the writer quotes, so a record can span lines. Some
# values are read differently by numpy's loadtxt and by csv plus float():
# "#" (a loadtxt comment by default), ids over 15 bytes, "01" and "+1"
# (loadtxt integers), "１" and "٣" (only float() reads them), and "+.5" and
# "Infinity", which both read.
_IDS = st.text(alphabet='ab ,"\n\r#', max_size=4) | st.sampled_from(
    ["#", "a#b", "sixteen bytes id", "a, longer id with \"quotes\" #"])
_COORDS = st.sampled_from(["0", "1.5", "-2e3", " 0.25 ", "1_0", "oops", "",
                           "inf", "-inf", "nan", "1e999", "１", "٣", "+.5",
                           "Infinity"])
_BINARY = st.sampled_from(["0", "1", " 1 ", "2", "", "x", "01", "+1", "1.0"])
_LABELS = st.sampled_from(["0", "1", "", " ", "0 ", "2", "yes", "01", "+1",
                           "1.0"])


@st.composite
def _csv_rows(draw, with_label: bool):
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "short", "long"]))
        if kind == "blank":
            rows.append([])
            continue
        row = [draw(_IDS), draw(_COORDS), draw(_COORDS), draw(_BINARY)]
        if with_label:
            row.append(draw(_LABELS))
        if kind == "short":
            row.pop()
        elif kind == "long":
            row.append("0")
        rows.append(row)
    return rows


class TestParserMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), with_label=st.booleans(),
           chunk=st.sampled_from([1, 2, 3, 65_536]))
    def test_columns_or_message_match(self, data, with_label, chunk):
        rows = data.draw(_csv_rows(with_label))
        header = ["id", "lon", "lat", "outcome"] + (["label"] if with_label else [])
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "d.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([header] + rows)
            try:
                want = oracle_read_csv(path)
            except ValueError as exc:
                want = exc
            with mock.patch.object(dataset_module, "_CHUNK_ROWS", chunk):
                if isinstance(want, ValueError):
                    with pytest.raises(DatasetError) as err:
                        load_dataset(path)
                    assert str(err.value) == str(want)
                elif not want[0]:
                    with pytest.raises(DatasetError, match="dataset is empty"):
                        load_dataset(path)
                else:
                    d = load_dataset(path)
                    assert d.lons.tolist() == want[1]
                    assert d.lats.tolist() == want[2]
                    assert d.outcomes.tolist() == want[3]
                    assert d.labels.tolist() == want[4]


class TestLoadMemory:
    @staticmethod
    def traced_peak(path):
        tracemalloc.start()
        try:
            d = load_dataset(path)
            return tracemalloc.get_traced_memory()[1], d
        finally:
            tracemalloc.stop()

    def test_peak_grows_linearly_within_two_copies(self, tmp_path):
        rng = np.random.default_rng(0)
        chunk = 4096
        peaks = []
        for n in (100_000, 200_000):
            path = tmp_path / f"d{n}.csv"
            path.write_text("id,lon,lat,outcome\n" + "".join(
                f"r{i},{x!r},{y!r},{i % 2}\n" for i, (x, y) in
                enumerate(rng.random((n, 2)).tolist())))
            with mock.patch.object(dataset_module, "_CHUNK_ROWS", chunk):
                peak, d = self.traced_peak(str(path))
            columns = (d.lons, d.lats, d.outcomes, d.labels)
            # A line, its id object and its table row take well under 512
            # bytes here, so the chunk's transient share is below this.
            assert peak < 2 * sum(c.nbytes for c in columns) + 512 * chunk
            peaks.append(peak)
        assert peaks[1] <= 2.05 * peaks[0]


class TestMeasureMode:
    """Dataset.select keeps the rows its measure mode audits."""

    @staticmethod
    def dataset(labels=None):
        labels = (np.array([1 if i < 6 else 0 for i in range(10)], np.int8)
                  if labels is None else labels)
        return Dataset.from_arrays(np.arange(10.0), np.zeros(10),
                                   np.arange(10) % 2, labels)

    def test_parity_is_identity(self):
        d = self.dataset()
        assert d.select(MeasureMode.STATISTICAL_PARITY) is d

    def test_equal_opportunity_keeps_label_1(self):
        kept = self.dataset().select(MeasureMode.EQUAL_OPPORTUNITY)
        assert kept.N == 6
        assert (kept.labels == 1).all()
        assert kept.lons.tolist() == list(range(6))

    def test_predictive_equality_keeps_label_0(self):
        kept = self.dataset().select(MeasureMode.PREDICTIVE_EQUALITY)
        assert kept.N == 4
        assert (kept.labels == 0).all()
        assert kept.lons.tolist() == list(range(6, 10))

    def test_selection_describes_its_rows(self):
        kept = self.dataset().select(MeasureMode.PREDICTIVE_EQUALITY)
        assert (kept.P, kept.rho) == (2, 0.5)
        assert kept.bbox.bounds() == (6.0, 0.0, 9.0, 0.0)

    def test_all_rows_kept_is_identity(self):
        d = self.dataset(np.ones(10, np.int8))
        assert d.select(MeasureMode.EQUAL_OPPORTUNITY) is d

    def test_missing_label_rejected(self):
        labels = np.array([1 if i < 6 else 0 for i in range(10)], np.int8)
        labels[3] = -1
        with pytest.raises(DatasetError) as err:
            self.dataset(labels).select(MeasureMode.EQUAL_OPPORTUNITY)
        assert str(err.value) == ("measure mode equal_opportunity needs a "
                                  "label on every row, but row 3 has none")

    def test_mode_accepts_string_value(self):
        d = self.dataset()
        assert d.select("statistical_parity") is d
        assert d.select("equal_opportunity").N == 6

    def test_no_rows_remain(self):
        with pytest.raises(DatasetError, match="no rows remain after applying "
                           "measure mode predictive_equality"):
            self.dataset(np.ones(10, np.int8)).select(
                MeasureMode.PREDICTIVE_EQUALITY)


class TestLoadDataset:
    def test_all_positive_file(self, tmp_path):
        p = write_text(tmp_path / "d.csv",
                       "id,lon,lat,outcome\n" +
                       "".join(f"r{i},{i}.0,1.0,1\n" for i in range(4)))
        d = load_dataset(p)
        assert (d.N, d.P, d.rho) == (4, 4, 1.0)

    def test_opportunity_rate_is_tpr(self, tmp_path):
        # outcome among label=1 rows: 2 of 3 positive
        p = write_text(tmp_path / "d.csv",
                       "id,lon,lat,outcome,label\n"
                       "a,0,0,1,1\nb,1,0,1,1\nc,2,0,0,1\n"
                       "d,3,0,1,0\ne,4,0,0,0\n")
        assert load_dataset(p).N == 5
        d = load_dataset(p).select(MeasureMode.EQUAL_OPPORTUNITY)
        assert d.N == 3 and d.P == 2
        assert d.rho == pytest.approx(2 / 3)

    def test_empty_after_filter(self, tmp_path):
        p = write_text(tmp_path / "d.csv",
                       "id,lon,lat,outcome,label\na,0,0,1,1\n")
        with pytest.raises(DatasetError, match="no rows remain"):
            load_dataset(p).select(MeasureMode.PREDICTIVE_EQUALITY)


class TestDatasetInvariants:
    def test_validation_takes_few_bytes_per_row(self):
        n = 100_000
        columns = (np.zeros(n), np.zeros(n), np.ones(n, np.int8),
                   np.full(n, -1, np.int8))
        tracemalloc.start()
        try:
            Dataset._from_columns(*columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Three boolean temporaries at a time; np.isin took 12 bytes a row.
        assert peak < 4 * n

    @pytest.mark.parametrize("column, value", [
        ("outcomes", 0.5), ("outcomes", -1), ("labels", 0.5), ("labels", 2)])
    def test_values_outside_the_codes_rejected(self, column, value):
        values = {"outcomes": [1], "labels": [0], column: [value]}
        with pytest.raises(DatasetError, match="must be 0"):
            Dataset.from_arrays([0.0], [0.0], **values)

    def test_counts_and_rate(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            outcomes = rng.integers(0, 2, size=n)
            d = make_dataset(rng.uniform(0, 1, n), rng.uniform(0, 1, n),
                             outcomes)
            assert d.N == n
            assert d.P == int(outcomes.sum())
            assert abs(d.rho * d.N - d.P) <= 1e-12 * max(1, d.P)

    def test_bbox_contains_everything_tightly(self):
        rng = np.random.default_rng(4)
        d = make_dataset(rng.uniform(-5, 5, 30), rng.uniform(-5, 5, 30),
                         np.zeros(30))
        assert d.bbox.xmin == d.lons.min() and d.bbox.xmax == d.lons.max()
        assert d.bbox.ymin == d.lats.min() and d.bbox.ymax == d.lats.max()

    def test_duplicate_locations_kept(self):
        d = make_dataset([1.0, 1.0], [2.0, 2.0], [1, 0])
        assert d.N == 2 and d.P == 1

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            Dataset.from_arrays([], [], [])

    def test_unequal_columns_rejected(self):
        with pytest.raises(DatasetError) as err:
            Dataset.from_arrays([0.0, 1.0], [0.0], [1, 0])
        assert str(err.value) == \
            "dataset columns must be 1-D and of equal length"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["lons", "lats"])
    def test_nonfinite_coordinate_rejected(self, column, bad):
        coords = {"lons": [0.0, 1.0], "lats": [0.0, 1.0]}
        coords[column][1] = bad
        with pytest.raises(DatasetError) as err:
            Dataset.from_arrays(coords["lons"], coords["lats"], [1, 0])
        assert str(err.value) == "non-finite coordinate in dataset"

    def test_overflowing_extent_rejected(self):
        with pytest.raises(DatasetError, match="extent is not finite"):
            make_dataset([-1e308, 1e308], [0.0, 0.5], [1, 0])

    def test_global_rate_zero(self):
        d = make_dataset([0, 1, 2, 3], [0, 0, 0, 0], [0, 0, 0, 0])
        assert d.rho == 0.0


class TestWriteCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        d = make_dataset(rng.uniform(-10, 10, 25), rng.uniform(-10, 10, 25),
                         rng.integers(0, 2, 25))
        path = tmp_path / "out.csv"
        write_csv(d, str(path))
        back = load_dataset(str(path))
        assert back.N == d.N and back.P == d.P
        assert np.array_equal(back.lons, d.lons)
        assert np.array_equal(back.lats, d.lats)
        assert np.array_equal(back.outcomes, d.outcomes)

    def test_label_column_round_trip(self, tmp_path):
        d = make_dataset([0.0, 1.0], [0.0, 1.0], [1, 0], labels=[1, 0])
        path = tmp_path / "out.csv"
        write_csv(d, str(path))
        assert read_columns(str(path))[3].tolist() == [1, 0]

    def test_golden_csv_round_trips_byte_for_byte(self, tmp_path):
        # write_csv numbers the rows s0, s1, ... as gen-synth wrote them.
        golden = Path(__file__).parent / "golden" / "outputs" / "data.csv"
        path = tmp_path / "out.csv"
        write_csv(load_dataset(str(golden)), str(path))
        assert path.read_bytes() == golden.read_bytes()
