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
from fairscan.dataset import apply_measure_mode, read_columns

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
        ids, lons, lats, outcomes, labels = read_columns(p)
        assert ids.tolist() == ["a", "b"]
        assert lons[0] == 0.5 and lats[0] == 1.5
        assert outcomes[0] == 1 and outcomes[1] == 0
        assert labels[0] == -1

    def test_label_column(self, tmp_path):
        p = write_text(tmp_path / "d.csv",
                       "id,lon,lat,outcome,label\na,0,0,1,1\nb,1,1,0,\n")
        labels = read_columns(p)[4]
        assert labels[0] == 1
        assert labels[1] == -1

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
        assert got == list(oracle_read_csv(str(p)))
        assert got[0] == ["a", "b\n\nc", 'x"y', 'p"qr']

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
                    with pytest.raises(DatasetError, match="no rows remain"):
                        load_dataset(path)
                else:
                    d = load_dataset(path)
                    assert d.ids.tolist() == want[0]
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
            columns = (d.ids, d.lons, d.lats, d.outcomes, d.labels)
            # A line, its id object and its table row take well under 512
            # bytes here, so the chunk's transient share is below this.
            assert peak < 2 * sum(c.nbytes for c in columns) + 512 * chunk
            peaks.append(peak)
        assert peaks[1] <= 2.05 * peaks[0]


class TestMeasureMode:
    def columns(self):
        ids = np.array([str(i) for i in range(10)], dtype=object)
        labels = np.array([1 if i < 6 else 0 for i in range(10)], np.int8)
        return ids, labels

    def test_parity_is_identity(self):
        ids, labels = self.columns()
        assert apply_measure_mode(ids, labels,
                                  MeasureMode.STATISTICAL_PARITY).all()

    def test_equal_opportunity_keeps_label_1(self):
        ids, labels = self.columns()
        kept = apply_measure_mode(ids, labels, MeasureMode.EQUAL_OPPORTUNITY)
        assert kept.sum() == 6
        assert (labels[kept] == 1).all()
        assert ids[kept].tolist() == [str(i) for i in range(6)]

    def test_predictive_equality_keeps_label_0(self):
        ids, labels = self.columns()
        kept = apply_measure_mode(ids, labels, MeasureMode.PREDICTIVE_EQUALITY)
        assert kept.sum() == 4
        assert (labels[kept] == 0).all()

    def test_missing_label_rejected(self):
        ids, labels = self.columns()
        labels[3] = -1
        with pytest.raises(DatasetError, match=r"row 3 \(id='3'\)"):
            apply_measure_mode(ids, labels, MeasureMode.EQUAL_OPPORTUNITY)

    def test_mode_accepts_string_value(self):
        ids, labels = self.columns()
        assert apply_measure_mode(ids, labels, "statistical_parity").all()

    def test_no_rows_remain(self):
        ids, labels = self.columns()
        with pytest.raises(DatasetError, match="no rows remain after applying "
                           "measure mode predictive_equality"):
            apply_measure_mode(ids, np.ones(10, np.int8),
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
        d = load_dataset(p, MeasureMode.EQUAL_OPPORTUNITY)
        assert d.N == 3 and d.P == 2
        assert d.rho == pytest.approx(2 / 3)

    def test_empty_after_filter(self, tmp_path):
        p = write_text(tmp_path / "d.csv",
                       "id,lon,lat,outcome,label\na,0,0,1,1\n")
        with pytest.raises(DatasetError, match="no rows remain"):
            load_dataset(p, MeasureMode.PREDICTIVE_EQUALITY)


class TestDatasetInvariants:
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
            Dataset.from_arrays([], [], [], [])

    def test_overflowing_extent_rejected(self):
        with pytest.raises(DatasetError, match="extent is not finite"):
            make_dataset([-1e308, 1e308], [0.0, 0.5], [1, 0])

    def test_global_rate_zero(self):
        d = make_dataset([0, 1, 2, 3], [0, 0, 0, 0], [0, 0, 0, 0])
        assert d.rho == 0.0

    def test_points_shape(self):
        d = make_dataset([0.0, 1.0], [2.0, 3.0], [0, 1])
        assert d.points.shape == (2, 2)
        assert d.points[1].tolist() == [1.0, 3.0]


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
        assert read_columns(str(path))[4].tolist() == [1, 0]
