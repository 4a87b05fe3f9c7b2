from __future__ import annotations

import numpy as np
import pytest

from fairscan import Dataset, DatasetError, MeasureMode, load_dataset, write_csv
from fairscan.dataset import Observation, apply_measure_mode, read_rows

from conftest import make_dataset


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestReadRows:
    def test_basic_file(self, tmp_path):
        p = write_text(tmp_path / "d.csv",
                       "id,lon,lat,outcome\na,0.5,1.5,1\nb,-2.0,3.0,0\n")
        rows = read_rows(p)
        assert [r.id for r in rows] == ["a", "b"]
        assert rows[0].lon == 0.5 and rows[0].lat == 1.5
        assert rows[0].outcome == 1 and rows[1].outcome == 0
        assert rows[0].label is None

    def test_label_column(self, tmp_path):
        p = write_text(tmp_path / "d.csv",
                       "id,lon,lat,outcome,label\na,0,0,1,1\nb,1,1,0,\n")
        rows = read_rows(p)
        assert rows[0].label == 1
        assert rows[1].label is None

    def test_bad_header(self, tmp_path):
        p = write_text(tmp_path / "d.csv", "lon,lat,outcome\n1,2,1\n")
        with pytest.raises(DatasetError, match="line 1"):
            read_rows(p)

    def test_empty_file(self, tmp_path):
        p = write_text(tmp_path / "d.csv", "")
        with pytest.raises(DatasetError, match="header"):
            read_rows(p)

    def test_bad_outcome_names_physical_line(self, tmp_path):
        body = "id,lon,lat,outcome\n" + "".join(
            f"r{i},{i}.0,0.0,1\n" for i in range(5)
        ) + "bad,9.0,9.0,2\n"
        p = write_text(tmp_path / "d.csv", body)  # offending row is line 7
        with pytest.raises(DatasetError, match="line 7"):
            read_rows(p)

    def test_bad_coordinate(self, tmp_path):
        p = write_text(tmp_path / "d.csv", "id,lon,lat,outcome\na,oops,0,1\n")
        with pytest.raises(DatasetError, match="line 2.*lon"):
            read_rows(p)

    def test_nonfinite_coordinate(self, tmp_path):
        p = write_text(tmp_path / "d.csv", "id,lon,lat,outcome\na,inf,0,1\n")
        with pytest.raises(DatasetError, match="finite"):
            read_rows(p)

    def test_field_count_mismatch(self, tmp_path):
        p = write_text(tmp_path / "d.csv", "id,lon,lat,outcome\na,1,2\n")
        with pytest.raises(DatasetError, match="line 2"):
            read_rows(p)

    def test_blank_lines_skipped_without_losing_line_numbers(self, tmp_path):
        p = write_text(tmp_path / "d.csv",
                       "id,lon,lat,outcome\na,0,0,1\n\nb,1,1,3\n")
        with pytest.raises(DatasetError, match="line 4"):
            read_rows(p)


class TestMeasureMode:
    def rows(self):
        out = []
        for i in range(10):
            out.append(Observation(id=str(i), lon=float(i), lat=0.0,
                                   outcome=i % 2, label=1 if i < 6 else 0))
        return out

    def test_parity_is_identity(self):
        rows = self.rows()
        assert apply_measure_mode(rows, MeasureMode.STATISTICAL_PARITY) == rows

    def test_equal_opportunity_keeps_label_1(self):
        kept = apply_measure_mode(self.rows(), MeasureMode.EQUAL_OPPORTUNITY)
        assert len(kept) == 6
        assert all(r.label == 1 for r in kept)
        assert [r.id for r in kept] == [str(i) for i in range(6)]

    def test_predictive_equality_keeps_label_0(self):
        kept = apply_measure_mode(self.rows(), MeasureMode.PREDICTIVE_EQUALITY)
        assert len(kept) == 4
        assert all(r.label == 0 for r in kept)

    def test_missing_label_rejected(self):
        rows = self.rows()
        rows[3] = Observation(id="3", lon=3.0, lat=0.0, outcome=1, label=None)
        with pytest.raises(DatasetError, match="row 3"):
            apply_measure_mode(rows, MeasureMode.EQUAL_OPPORTUNITY)

    def test_mode_accepts_string_value(self):
        assert apply_measure_mode(self.rows(), "statistical_parity")


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
            Dataset.from_observations([])

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
        rows = read_rows(str(path))
        assert [r.label for r in rows] == [1, 0]
