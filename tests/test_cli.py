from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import fairscan
from fairscan.cli import OPTIONS, build_parser, main
from fairscan.dataset import load_dataset
from fairscan.regions import load_region_families

GOLDEN = Path(__file__).parent / "golden"

VERDICT_RE = re.compile(r"^(FAIR p=[0-9.e-]+|UNFAIR p=[0-9.e-]+ "
                        r"tau_log=[0-9.e+-]+)$")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


@pytest.fixture(scope="module")
def unfair_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "unfair.csv")
    assert main(["gen-synth", "--kind", "uniform-split", "--n", "2000",
                 "--seed", "1", "--out", path]) == 0
    return path


@pytest.fixture(scope="module")
def fair_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "fair.csv")
    assert main(["gen-synth", "--kind", "fair", "--n", "500",
                 "--rho", "0.5", "--seed", "2", "--out", path]) == 0
    return path


FAST = ["--random-partitionings", "10", "--splits", "2..6",
        "--worlds", "99", "--alpha", "0.05"]

needs_rlimit_as = pytest.mark.skipif(
    sys.platform != "linux", reason="needs RLIMIT_AS to cap the address space")


def assert_fails_fast_out_of_memory(tmp_path, command, *argv):
    """Run the CLI on a 4-row CSV under a 1.5 GiB address-space cap: it must
    end in one `error: out of memory` line within 10 s."""
    import resource

    limit = 3 << 29    # 1.5 GiB

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    data = tmp_path / "four.csv"
    data.write_text("id,lon,lat,outcome\na,0,0,1\nb,1,0,0\n"
                    "c,0,1,1\nd,1,1,0\n")
    out = tmp_path / "out"
    src = str(Path(fairscan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "fairscan", command, "--data", str(data),
         *argv, "--out", str(out)],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=60)
    assert time.monotonic() - start < 10
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: out of memory")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


class TestGenSynth:
    def test_uniform_split_round_trip(self, capsys, tmp_path):
        out = str(tmp_path / "d.csv")
        code, lines, _ = run(capsys, "gen-synth", "--kind", "uniform-split",
                             "--n", "400", "--seed", "3", "--out", out)
        assert code == 0
        assert lines[-1] == f"wrote {out} N=400 P=200 rho=0.5"
        d = load_dataset(out)
        assert (d.N, d.P) == (400, 200)

    def test_fair_uniform_locations(self, capsys, tmp_path):
        out = str(tmp_path / "f.csv")
        code, lines, _ = run(capsys, "gen-synth", "--kind", "fair", "--n",
                             "300", "--rect", "0,0,2,1", "--seed", "4",
                             "--out", out)
        assert code == 0
        d = load_dataset(out)
        assert d.N == 300
        assert d.lons.max() > 1.0

    def test_fair_labels_independent_of_coordinates(self, capsys,
                                                    tmp_path):
        # A shared stream for locations and labels would make outcome
        # equal to (lon < rho) exactly; require far less agreement.
        out = str(tmp_path / "f2.csv")
        code, _, _ = run(capsys, "gen-synth", "--kind", "fair", "--n",
                         "2000", "--rho", "0.5", "--seed", "8",
                         "--out", out)
        assert code == 0
        d = load_dataset(out)
        agree = ((d.lons < 0.5) == (d.outcomes == 1)).mean()
        assert 0.4 < agree < 0.6

    def test_fair_from_locations_file(self, capsys, tmp_path, unfair_csv):
        out = str(tmp_path / "relabel.csv")
        code, lines, _ = run(capsys, "gen-synth", "--kind", "fair",
                             "--locations", unfair_csv, "--n", "1000",
                             "--seed", "5", "--out", out)
        assert code == 0
        d = load_dataset(out)
        src = load_dataset(unfair_csv)
        assert d.N == 1000
        src_pts = {(x, y) for x, y in zip(src.lons, src.lats)}
        assert all((x, y) in src_pts for x, y in zip(d.lons, d.lats))

    def test_fair_subsample_too_large(self, capsys, tmp_path, fair_csv):
        out = str(tmp_path / "x.csv")
        code, _, err = run(capsys, "gen-synth", "--kind", "fair",
                           "--locations", fair_csv, "--n", "501",
                           "--out", out)
        assert code == 1
        assert "exceeds" in err

    @pytest.mark.parametrize("argv", [
        ["--n", "-5"], ["--n", "0"], ["--locations", "{csv}", "--n", "-1"]])
    def test_fair_nonpositive_n(self, capsys, tmp_path, fair_csv, argv):
        out = tmp_path / "x.csv"
        code, lines, err = run(capsys, "gen-synth", "--kind", "fair",
                               *(a.format(csv=fair_csv) for a in argv),
                               "--out", str(out))
        assert (code, lines) == (1, [])
        assert err == f"error: n must be positive, got {argv[-1]}\n"
        assert not out.exists()

    def test_planted(self, capsys, tmp_path):
        out = str(tmp_path / "p.csv")
        code, lines, _ = run(capsys, "gen-synth", "--kind", "planted",
                             "--n", "2000", "--rect", "0,0,10,10",
                             "--plant", "4,4,6,6", "--rho-bg", "0.2",
                             "--rho-in", "0.9", "--seed", "6", "--out", out)
        assert code == 0
        d = load_dataset(out)
        inside = ((d.lons >= 4) & (d.lons < 6)
                  & (d.lats >= 4) & (d.lats < 6))
        assert d.outcomes[inside].mean() > 0.7
        assert d.outcomes[~inside].mean() < 0.3

    def test_planted_needs_plant(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen-synth", "--kind", "planted",
                           "--n", "100", "--out", str(tmp_path / "y.csv"))
        assert code == 1
        assert "error:" in err

    def test_determinism(self, capsys, tmp_path):
        a, b = (str(tmp_path / name) for name in ("a.csv", "b.csv"))
        run(capsys, "gen-synth", "--kind", "uniform-split", "--n", "100",
            "--seed", "7", "--out", a)
        run(capsys, "gen-synth", "--kind", "uniform-split", "--n", "100",
            "--seed", "7", "--out", b)
        assert Path(a).read_text() == Path(b).read_text()


class TestAudit:
    def test_unfair_verdict_and_exit_codes(self, capsys, unfair_csv):
        code, lines, _ = run(capsys, "audit", "--data", unfair_csv, *FAST,
                             "--seed", "0")
        assert code == 0
        assert lines[0].startswith("CONFIG ")
        cfg = json.loads(lines[0][len("CONFIG "):])
        assert cfg["alpha"] == 0.05
        assert cfg["num_worlds"] == 100
        assert cfg["family"] == {"kind": "random_partitionings", "count": 10,
                                 "min_splits": 2, "max_splits": 6}
        assert VERDICT_RE.match(lines[1])
        assert lines[1].startswith("UNFAIR p=")

    def test_fair_verdict(self, capsys, fair_csv):
        code, lines, _ = run(capsys, "audit", "--data", fair_csv, *FAST,
                             "--seed", "1")
        assert code == 0
        assert lines[1].startswith("FAIR p=")
        assert VERDICT_RE.match(lines[1])

    def test_fail_on_unfair(self, capsys, unfair_csv):
        code, lines, _ = run(capsys, "audit", "--data", unfair_csv, *FAST,
                             "--fail-on-unfair")
        assert code == 2
        assert lines[1].startswith("UNFAIR")

    def test_out_writes_three_files(self, capsys, unfair_csv, tmp_path):
        out = str(tmp_path / "report")
        code, lines, _ = run(capsys, "audit", "--data", unfair_csv, *FAST,
                             "--out", out)
        assert code == 0
        wrote = [ln for ln in lines if ln.startswith("wrote ")]
        assert len(wrote) == 3
        for name in ("report.json", "regions.geojson", "nulldist.json"):
            assert os.path.exists(os.path.join(out, name))
        doc = json.loads(Path(out, "report.json").read_text())
        assert doc["config"]["data"] == unfair_csv
        assert doc["verdict"]["fair"] is False

    def test_missing_data_flag(self, capsys):
        code, _, err = run(capsys, "audit", *FAST)
        assert code == 1
        assert "error:" in err and "--data" in err

    def test_unknown_flag_exits_two(self, capsys, unfair_csv):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--data", unfair_csv, "--bogus"])
        assert exc.value.code == 2

    def test_resolution_flag_is_unknown(self, capsys, unfair_csv):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--data", unfair_csv, "--grid", "4x4",
                  "--resolution", "8"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: fairscan ")
        assert captured.err.endswith(
            "fairscan: error: unrecognized arguments: --resolution 8\n")
        assert "Traceback" not in captured.err

    def test_missing_label_in_opportunity_mode(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,lon,lat,outcome,label\n"
                        "a,0,0,1,1\nb,1,0,0,0\nc,0,1,1,\nd,1,1,0,1\n")
        code, _, err = run(capsys, "audit", "--data", str(path), "--mode",
                           "opportunity", "--grid", "2x2", "--worlds", "99",
                           "--alpha", "0.05")
        assert code == 1
        assert err == ("error: measure mode equal_opportunity needs a label "
                       "on every row, but row 2 has none\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize("family", [
        ["--grid", "2x2"], ["--random-partitionings", "3"],
        ["--squares", "--centers", "2"]])
    def test_denormal_x_extent(self, capsys, tmp_path, family):
        # An x extent of one denormal is a valid box: its columns neither
        # vanish nor overflow, and no step of the audit warns.
        path = tmp_path / "d.csv"
        path.write_text("id,lon,lat,outcome\n"
                        "a,0,0,1\nb,5e-324,0,0\nc,0,1,0\nd,5e-324,1,1\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, lines, err = run(capsys, "audit", "--data", str(path),
                                   *family, "--worlds", "99", "--alpha",
                                   "0.05", "--out", str(out))
        assert (code, err) == (0, "")
        assert VERDICT_RE.match(lines[1])
        assert len([ln for ln in lines if ln.startswith("wrote ")]) == 3
        doc = json.loads((out / "report.json").read_text())
        assert doc["verdict"]["fair"] is True

    @pytest.mark.parametrize("chunk", [1, 3, 4, 64])
    def test_valid_load_is_silent(self, capsys, monkeypatch, tmp_path, chunk):
        # \r\n line ends, runs of blank lines that fill whole chunks and 48
        # data lines, a multiple of every chunk size but 64.
        rng = np.random.default_rng(5)
        lines = [f"r{i},{x!r},{y!r},{i % 3 % 2}" if i % 4 else ""
                 for i, (x, y) in enumerate(rng.random((44, 2)).tolist())]
        lines[20:20] = [""] * 4
        path = tmp_path / "blanks.csv"
        path.write_bytes("\r\n".join(["id,lon,lat,outcome"] + lines + [""])
                         .encode("utf-8"))
        monkeypatch.setattr("fairscan.dataset._CHUNK_ROWS", chunk)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, lines_out, err = run(capsys, "audit", "--data", str(path),
                                       "--grid", "2x2", "--worlds", "19",
                                       "--alpha", "0.1")
        assert code == 0
        assert VERDICT_RE.match(lines_out[1])
        assert err == ""

    def test_oversized_csv_field(self, capsys, tmp_path):
        # The stdlib csv reader refuses fields over 131,072 characters.
        path = tmp_path / "long_id.csv"
        path.write_text("id,lon,lat,outcome\n" + "x" * 200_000 + ",0.5,0.5,1\n")
        code, _, err = run(capsys, "audit", "--data", str(path), *FAST)
        assert code == 1
        assert err.startswith("error: line 2: field larger than field limit")
        assert "Traceback" not in err

    def test_byte_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"id,lon,lat,outcome\na,0.5,0.5,1\nb\xff\xfe,0.5,0.5,0\n")
        code, _, err = run(capsys, "audit", "--data", str(path), *FAST)
        assert code == 1
        assert err == ("error: line 3: byte 0xff is not UTF-8 "
                       "(invalid start byte)\n")

    @pytest.mark.parametrize("exc", [
        MemoryError("Unable to allocate 298. GiB for an array"), MemoryError()])
    def test_family_too_large_to_allocate(self, capsys, monkeypatch,
                                          unfair_csv, exc):
        def too_large(*args, **kwargs):
            raise exc
        monkeypatch.setattr("fairscan.pipeline.regular_grid", too_large)
        code, _, err = run(capsys, "audit", "--data", unfair_csv,
                           "--grid", "100000x100000", "--worlds", "99",
                           "--alpha", "0.05")
        assert code == 1
        assert err.startswith("error: out of memory: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["audit", "regions"])
    @pytest.mark.parametrize("sides", ["nan:1:3", "1:inf:3"])
    def test_nonfinite_sides(self, capsys, tmp_path, unfair_csv, command,
                             sides):
        extra = (["--worlds", "99", "--alpha", "0.05"] if command == "audit"
                 else ["--out", str(tmp_path / "sq.json")])
        code, _, err = run(capsys, command, "--data", unfair_csv, "--squares",
                           "--centers", "3", "--sides", sides, *extra)
        assert code == 1
        assert err.startswith("error: --sides expects LO:HI:COUNT with "
                              f"finite LO and HI, e.g. 0.1:2.0:20, got {sides!r}")
        assert "Traceback" not in err

    def test_nonfinite_sides_in_config(self, capsys, tmp_path, unfair_csv):
        config = tmp_path / "cfg.json"
        config.write_text('{"squares": true, "centers": 3, "sides": [0.5, NaN]}')
        code, _, err = run(capsys, "audit", "--data", unfair_csv, "--config",
                           str(config), "--worlds", "99", "--alpha", "0.05")
        assert code == 1
        assert err == "error: side lengths must be finite and positive, got nan\n"

    @pytest.mark.parametrize("argv, message", [
        (["--grid", "2x2", "--worlds", str(2**63)],
         "Python int too large to convert to C ssize_t"),
        (["--random-partitionings", str(2**63)],
         "Python int too large to convert to C ssize_t"),
        (["--grid", f"{2**63}x1"],
         f"grid dimensions {2**63}x1 exceed the longest array"),
        (["--squares", "--centers", "2", "--sides", f"0.1:1:{2**63}"],
         f"--sides COUNT {2**63} exceeds the longest array"),
    ])
    def test_count_too_large_for_an_array(self, capsys, unfair_csv, argv,
                                          message):
        code, _, err = run(capsys, "audit", "--data", unfair_csv,
                           "--worlds", "99", "--alpha", "0.05", *argv)
        assert (code, err) == (1, f"error: {message}\n")

    def test_plan_too_large_for_int32(self, capsys, monkeypatch, unfair_csv):
        monkeypatch.setattr("fairscan.scanner._INDEX_MAX", 1000)
        code, lines, err = run(capsys, "audit", "--data", unfair_csv,
                               "--grid", "2x2", "--worlds", "99",
                               "--alpha", "0.05")
        assert (code, lines[1:]) == (1, [])
        assert err == ("error: count plan too large for int32: 2,000 "
                       "entries over 2,000 columns\n")

    @pytest.mark.parametrize("worlds, message", [
        (0, "--worlds (config key worlds) must be at least 1, got 0; "
            "num_worlds = worlds + 1 counts the real world"),
        (-5, "--worlds (config key worlds) must be at least 1, got -5; "
             "num_worlds = worlds + 1 counts the real world"),
        (19, "--worlds 19 is too few for alpha 0.005: alpha*(worlds + 1) = "
             "0.100 < 1; raise --worlds (config key worlds) or alpha"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_world_count_errors_quote_the_option(self, capsys, tmp_path,
                                                 unfair_csv, worlds, message,
                                                 source):
        if source == "flag":
            argv = ["--worlds", str(worlds)]
        else:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"worlds": worlds}))
            argv = ["--config", str(config)]
        code, lines, err = run(capsys, "audit", "--data", unfair_csv,
                               "--grid", "2x2", *argv)
        assert (code, lines, err) == (1, [], f"error: {message}\n")

    @needs_rlimit_as
    def test_huge_world_count_fails_fast(self, tmp_path):
        # The world seeds are derived one at a time, so the first allocation
        # that grows with the world count is the array of maxima, which fails
        # at once under an address-space cap.
        assert_fails_fast_out_of_memory(
            tmp_path, "audit", "--grid", "2x2", "--worlds", "1000000000000")

    def test_invalid_grid_spec(self, capsys, unfair_csv):
        code, _, err = run(capsys, "audit", "--data", unfair_csv,
                           "--grid", "12", "--worlds", "99",
                           "--alpha", "0.05")
        assert code == 1
        assert "WxH" in err

    def test_two_families_rejected(self, capsys, unfair_csv):
        code, _, err = run(capsys, "audit", "--data", unfair_csv,
                           "--grid", "4x4", "--random-partitionings", "5",
                           "--worlds", "99", "--alpha", "0.05")
        assert code == 1
        assert "exactly one" in err

    def test_repeat_runs_identical(self, capsys, unfair_csv):
        _, a, _ = run(capsys, "audit", "--data", unfair_csv, *FAST)
        _, b, _ = run(capsys, "audit", "--data", unfair_csv, *FAST)
        assert a == b


class TestAuditConfigFile:
    def test_config_file_supplies_defaults(self, capsys, unfair_csv,
                                           tmp_path):
        cfg_path = str(tmp_path / "cfg.json")
        Path(cfg_path).write_text(json.dumps(
            {"data": unfair_csv, "random_partitionings": 10,
             "splits": "2..6", "worlds": 99, "alpha": 0.05}))
        code, lines, _ = run(capsys, "audit", "--config", cfg_path)
        assert code == 0
        echoed = json.loads(lines[0][len("CONFIG "):])
        assert echoed["data"] == unfair_csv
        assert echoed["num_worlds"] == 100

    def test_flags_override_config(self, capsys, unfair_csv, tmp_path):
        cfg_path = str(tmp_path / "cfg.json")
        Path(cfg_path).write_text(json.dumps(
            {"data": unfair_csv, "random_partitionings": 10,
             "splits": "2..6", "worlds": 99, "alpha": 0.05, "seed": 3}))
        code, lines, _ = run(capsys, "audit", "--config", cfg_path,
                             "--seed", "9", "--alpha", "0.1")
        assert code == 0
        echoed = json.loads(lines[0][len("CONFIG "):])
        assert echoed["seed"] == 9
        assert echoed["alpha"] == 0.1

    def test_null_splits_reads_as_default(self, capsys, unfair_csv,
                                          tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"random_partitionings": 2,
                                        "splits": None}))
        code, lines, _ = run(capsys, "audit", "--config", str(cfg_path),
                             "--data", unfair_csv, "--worlds", "19",
                             "--alpha", "0.1")
        assert code == 0
        family = json.loads(lines[0][len("CONFIG "):])["family"]
        assert (family["min_splits"], family["max_splits"]) == (10, 40)

    def test_unknown_config_key(self, capsys, unfair_csv, tmp_path):
        cfg_path = str(tmp_path / "cfg.json")
        Path(cfg_path).write_text(json.dumps(
            {"data": unfair_csv, "grid": "4x4", "wrlds": 99}))
        code, _, err = run(capsys, "audit", "--config", cfg_path)
        assert code == 1
        assert "wrlds" in err


    @pytest.mark.parametrize("values", [
        {"grid": 5}, {"splits": 5, "random_partitionings": 10},
        {"squares": True, "sides": 3}, {"mode": "bogus", "grid": "4x4"},
        {"direction": "up", "grid": "4x4"}, {"mode": ["x"], "grid": "4x4"},
        {"top_k": "5", "grid": "4x4"}, {"random_partitionings": "3"},
        {"seed": 1.5, "grid": "4x4"}, {"seed": True, "grid": "4x4"},
        {"worlds": 99.0, "grid": "4x4"}, {"centers": "x", "grid": "4x4"},
        {"centers": 2.5, "grid": "4x4"}], ids=json.dumps)
    def test_mistyped_config_value(self, capsys, unfair_csv, tmp_path,
                                   values):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"data": unfair_csv, "worlds": 99, "alpha": 0.05, **values}))
        code, lines, err = run(capsys, "audit", "--config", str(cfg_path))
        assert code == 1
        assert not lines
        assert err.startswith("error: config ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value, message", [
        ("data", 5, "config data must be a string, got 5"),
        ("regions_file", 3, "config regions_file must be a string, got 3"),
        ("squares", "yes", "config squares must be true or false, got 'yes'"),
        ("alpha", "0.1", "config alpha must be a number, got '0.1'")])
    def test_mistyped_value_message(self, capsys, unfair_csv, tmp_path, key,
                                    value, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"data": unfair_csv, "worlds": 99, "alpha": 0.05, key: value}))
        code, lines, err = run(capsys, "audit", "--config", str(cfg_path))
        assert (code, lines) == (1, [])
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("key, listed, flags", [
        ("grid", [2, 2], ["--grid", "2x2"]),
        ("splits", [2, 6], ["--splits", "2..6"])])
    def test_pair_list_reads_as_its_text(self, capsys, unfair_csv, tmp_path,
                                         key, listed, flags):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: listed}))
        family = [] if key == "grid" else ["--random-partitionings", "3"]
        runs = []
        for name, argv in (("config", ["--config", str(cfg_path)]),
                           ("flags", flags)):
            out = tmp_path / name
            code, lines, _ = run(capsys, "audit", "--data", unfair_csv,
                                 "--worlds", "99", "--alpha", "0.05",
                                 *family, *argv, "--out", str(out))
            doc = json.loads((out / "report.json").read_text())
            del doc["timings"]
            runs.append((code, lines[0], doc))
        assert runs[0][1].startswith("CONFIG ")
        assert runs[0] == runs[1]

    def test_resolution_key_is_unknown(self, capsys, unfair_csv, tmp_path):
        # The index's column count is not an option: counts never depend
        # on it.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"data": unfair_csv, "grid": "4x4", "worlds": 99, "alpha": 0.05,
             "resolution": 8}))
        code, lines, err = run(capsys, "audit", "--config", str(cfg_path))
        assert (code, lines) == (1, [])
        assert err == "error: unknown keys in config file: resolution\n"

    def test_config_must_be_object(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        code, _, err = run(capsys, "audit", "--config", str(cfg_path))
        assert code == 1
        assert err.startswith("error: config file must hold a JSON object")
        assert "Traceback" not in err


    def test_config_not_utf8(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b'\xff{"grid": "4x4"}')
        code, lines, err = run(capsys, "audit", "--config", str(cfg_path))
        assert (code, lines) == (1, [])
        assert err == (f"error: config file {cfg_path}: byte 0xff at offset 0 "
                       "is not UTF-8 (invalid start byte)\n")


@pytest.fixture(scope="module")
def labelled_csv(unfair_csv, tmp_path_factory):
    """unfair_csv with a label column, so every measure mode can run."""
    lines = Path(unfair_csv).read_text().splitlines()
    path = tmp_path_factory.mktemp("data") / "labelled.csv"
    path.write_text("\n".join([lines[0] + ",label"] + [
        f"{line},{i % 2}" for i, line in enumerate(lines[1:])]) + "\n")
    return str(path)


# For each config key: a good value as a flag and as a config value, the
# same out-of-range value both ways (None where argparse refuses a bad flag
# itself), and the family flags the run needs in place of --grid 2x2 (None:
# keep the grid). "{data}", "{regions}" and "{missing}" stand for paths.
OPTION_CASES = {
    "data": (["{data}"], "{data}", ["{missing}"], "{missing}", None),
    "mode": (["opportunity"], "opportunity", None, None, None),
    "direction": (["higher-inside"], "higher-inside", None, None, None),
    "grid": (["3x2"], [3, 2], ["0x3"], "0x3", []),
    "random_partitionings": (["3"], 3, ["0"], 0, []),
    "splits": (["2..5"], [2, 5], ["5..2"], "5..2",
               ["--random-partitionings", "3"]),
    "squares": ([], True, None, None, ["--centers", "3"]),
    "centers": (["3"], 3, ["0"], 0, ["--squares"]),
    "sides": (["0.25:0.5:2"], [0.25, 0.5], ["nan:1:2"], "nan:1:2",
              ["--squares", "--centers", "3"]),
    "regions_file": (["{regions}"], "{regions}", ["{missing}"], "{missing}",
                     []),
    "alpha": (["0.2"], 0.2, ["2"], 2, None),
    "worlds": (["29"], 29, ["0"], 0, None),
    "seed": (["3"], 3, ["-1"], -1, None),
    "top_k": (["2"], 2, ["0"], 0, None),
}
OPTION_KEYS = [option.key for option in OPTIONS]


class TestOptionTable:
    """Each option of the table reads the same as a flag and as a config
    key, and each subcommand offers exactly its rows."""

    @pytest.fixture
    def paths(self, capsys, tmp_path, labelled_csv):
        regions = str(tmp_path / "regions.json")
        assert main(["regions", "--bbox", "0,0,1,1", "--grid", "2x2",
                     "--out", regions]) == 0
        capsys.readouterr()
        return {"data": labelled_csv, "regions": regions,
                "missing": str(tmp_path / "missing.json")}

    @staticmethod
    def both_ways(capsys, tmp_path, paths, key, flag_values, config_value,
                  family):
        """The audit run with key given as a flag and in a config file."""
        fill = (lambda v: v.format(**paths) if isinstance(v, str) else v)
        argv = ["audit"]
        for name, value in (("data", paths["data"]), ("worlds", "19"),
                            ("alpha", "0.1")):
            if name != key:
                argv += [f"--{name}", value]
        argv += ["--grid", "2x2"] if family is None else family
        flag = ["--" + key.replace("_", "-"), *map(fill, flag_values)]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: fill(config_value)}))
        return (run(capsys, *argv, *flag),
                run(capsys, *argv, "--config", str(config)))

    def test_every_key_has_a_case(self):
        assert len(set(OPTION_KEYS)) == len(OPTIONS)
        assert sorted(OPTION_CASES) == sorted(OPTION_KEYS)

    @pytest.mark.parametrize("key", OPTION_KEYS)
    def test_good_value_same_both_ways(self, capsys, tmp_path, paths, key):
        good_flag, good_config, _, _, family = OPTION_CASES[key]
        by_flag, by_config = self.both_ways(capsys, tmp_path, paths, key,
                                            good_flag, good_config, family)
        code, lines, err = by_flag
        assert (code, err) == (0, "")
        assert lines[0].startswith("CONFIG ")
        assert by_config == by_flag

    @pytest.mark.parametrize("key", [key for key in OPTION_KEYS
                                     if OPTION_CASES[key][2] is not None])
    def test_bad_value_same_error_both_ways(self, capsys, tmp_path, paths,
                                            key):
        _, _, bad_flag, bad_config, family = OPTION_CASES[key]
        by_flag, by_config = self.both_ways(capsys, tmp_path, paths, key,
                                            bad_flag, bad_config, family)
        code, _, err = by_flag
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert by_config == by_flag

    @pytest.mark.parametrize("key", OPTION_KEYS)
    def test_null_reads_as_the_default(self, capsys, tmp_path, paths, key):
        base = {"data": paths["data"], "grid": "2x2", "worlds": 199}
        runs = []
        for doc in ({**base, key: None},
                    {name: v for name, v in base.items() if name != key}):
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps(doc))
            runs.append(run(capsys, "audit", "--config", str(config)))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("command", ["audit", "meanvar", "regions"])
    def test_parser_offers_the_tables_options(self, command):
        parser = build_parser()._subparsers._group_actions[0].choices[command]
        flags = {flag for action in parser._actions
                 for flag in action.option_strings}
        assert flags - {"-h", "--help", "--config", "--out", "--bbox",
                        "--fail-on-unfair"} == {
            "--" + option.key.replace("_", "-") for option in OPTIONS
            if command in option.commands}


class TestMeanVar:
    def test_meanvar_line(self, capsys, unfair_csv):
        code, lines, _ = run(capsys, "meanvar", "--data", unfair_csv,
                             "--random-partitionings", "5",
                             "--splits", "2..5", "--seed", "0")
        assert code == 0
        assert lines[0].startswith("CONFIG ")
        assert re.match(r"^MEANVAR [0-9.e-]+$", lines[1])
        assert float(lines[1].split()[1]) > 0

    def test_single_cell_grid_is_zero(self, capsys, unfair_csv):
        code, lines, _ = run(capsys, "meanvar", "--data", unfair_csv,
                             "--grid", "1x1")
        assert code == 0
        assert lines[1] == "MEANVAR 0"

    def test_out_file(self, capsys, unfair_csv, tmp_path):
        out = str(tmp_path / "mv")
        code, lines, _ = run(capsys, "meanvar", "--data", unfair_csv,
                             "--grid", "4x4", "--top-k", "3", "--out", out)
        assert code == 0
        doc = json.loads(Path(out, "meanvar.json").read_text())
        assert len(doc["top_contributors"]) == 3
        assert doc["config"]["family"]["kind"] == "grid"

    def test_family_required(self, capsys, unfair_csv):
        code, _, err = run(capsys, "meanvar", "--data", unfair_csv)
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_nonpositive_top_k(self, capsys, unfair_csv, tmp_path, top_k):
        out = tmp_path / "mv"
        code, _, err = run(capsys, "meanvar", "--data", unfair_csv,
                           "--grid", "2x2", "--top-k", top_k, "--out", str(out))
        assert code == 1
        assert err.startswith("error: top_k must be positive")
        assert "Traceback" not in err
        assert not out.exists()


class TestNegativeSeed:
    """A negative seed is refused by name before any data is read."""

    @pytest.mark.parametrize("argv", [
        ["audit", "--grid", "2x2", "--worlds", "99", "--alpha", "0.05"],
        ["meanvar", "--grid", "2x2"],
        ["regions", "--grid", "2x2"],
    ], ids=["audit", "meanvar", "regions"])
    def test_family_subcommands(self, capsys, tmp_path, argv):
        out = tmp_path / "out"
        code, lines, err = run(capsys, *argv, "--data",
                               str(tmp_path / "missing.csv"), "--seed", "-1",
                               "--out", str(out))
        assert (code, lines) == (1, [])
        assert err == "error: seed must be non-negative, got -1\n"
        assert not out.exists()

    def test_gen_synth(self, capsys, tmp_path):
        out = tmp_path / "d.csv"
        code, lines, err = run(capsys, "gen-synth", "--kind", "uniform-split",
                               "--n", "10", "--seed", "-1", "--out", str(out))
        assert (code, lines) == (1, [])
        assert err == "error: seed must be non-negative, got -1\n"
        assert not out.exists()

    def test_config_file(self, capsys, unfair_csv, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": unfair_csv, "grid": "2x2",
                                        "worlds": 99, "alpha": 0.05,
                                        "seed": -1}))
        code, lines, err = run(capsys, "audit", "--config", str(cfg_path))
        assert (code, lines) == (1, [])
        assert err == "error: seed must be non-negative, got -1\n"


class TestValidateBeforeLoad:
    """A bad option fails before the CSV is read and before CONFIG."""

    def test_audit_alpha(self, capsys, tmp_path):
        code, lines, err = run(capsys, "audit", "--data",
                               str(tmp_path / "missing.csv"), "--grid", "2x2",
                               "--alpha", "2")
        assert (code, lines) == (1, [])
        assert err == "error: alpha must be in (0, 1), got 2.0\n"

    def test_meanvar_top_k(self, capsys, tmp_path):
        code, lines, err = run(capsys, "meanvar", "--data",
                               str(tmp_path / "missing.csv"), "--grid", "2x2",
                               "--top-k", "0")
        assert (code, lines) == (1, [])
        assert err == "error: top_k must be positive, got 0\n"


class TestUnusableOutput:
    """An --out that cannot be written fails before the data is read, with
    the error that writing it would give."""

    @staticmethod
    def no_work(*args, **kwargs):
        raise AssertionError("the command started its work")

    @pytest.mark.parametrize("command", [
        ["audit", "--grid", "2x2", "--worlds", "19", "--alpha", "0.05"],
        ["meanvar", "--grid", "2x2"]])
    @pytest.mark.parametrize("out,error", [
        ("taken", "[Errno 17] File exists: '{tmp}/taken'"),
        ("taken/a/b", "[Errno 20] Not a directory: '{tmp}/taken/a'")])
    def test_out_is_a_file(self, capsys, monkeypatch, tmp_path, unfair_csv,
                           command, out, error):
        monkeypatch.setattr("fairscan.cli.load_dataset", self.no_work)
        monkeypatch.setattr("fairscan.pipeline.load_dataset", self.no_work)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        code, lines, err = run(capsys, *command, "--data", unfair_csv,
                               "--out", str(tmp_path / out))
        assert (code, lines) == (1, [])
        assert err == f"error: {error.format(tmp=tmp_path)}\n"
        assert taken.read_text() == "keep"
        # The same error as the write after the work gave.
        with pytest.raises(OSError) as exc:
            os.makedirs(tmp_path / out, exist_ok=True)
        assert err == f"error: {exc.value}\n"

    @pytest.mark.parametrize("parent,error", [
        ("missing/dir", "[Errno 2] No such file or directory"),
        ("file", "[Errno 20] Not a directory")])
    def test_regions_out_without_directory(self, capsys, monkeypatch,
                                           tmp_path, unfair_csv, parent,
                                           error):
        monkeypatch.setattr("fairscan.cli.load_dataset", self.no_work)
        monkeypatch.setattr("fairscan.cli.build_family", self.no_work)
        (tmp_path / "file").write_text("")
        out = tmp_path / parent / "x.json"
        code, lines, err = run(capsys, "regions", "--data", unfair_csv,
                               "--squares", "--centers", "3", "--out",
                               str(out))
        assert (code, lines) == (1, [])
        assert err == f"error: {error}: '{out}'\n"
        with pytest.raises(OSError) as exc:
            open(out, "w")
        assert err == f"error: {exc.value}\n"

    def test_regions_out_in_working_directory(self, capsys, monkeypatch,
                                              tmp_path):
        monkeypatch.chdir(tmp_path)
        code, lines, _ = run(capsys, "regions", "--bbox", "0,0,1,1",
                             "--grid", "2x2", "--out", "x.json")
        assert (code, lines) == (0, ["wrote x.json families=1 regions=4"])


class TestRegions:
    def test_bbox_grid_file(self, capsys, tmp_path):
        out = str(tmp_path / "fam.json")
        code, lines, _ = run(capsys, "regions", "--bbox", "0,0,1,1",
                             "--grid", "6x5", "--out", out)
        assert code == 0
        assert lines[0] == f"wrote {out} families=1 regions=30"
        fams = load_region_families(out)
        assert len(fams) == 1 and len(fams[0]) == 30

    @pytest.mark.parametrize("family", [
        ["--grid", "4x4"],
        ["--random-partitionings", "10", "--splits", "2..6"],
        ["--squares", "--centers", "5", "--sides", "0.1:0.5:3"],
    ], ids=["grid", "random", "squares"])
    def test_audit_consumes_regions_file(self, capsys, unfair_csv,
                                         tmp_path, family):
        out = str(tmp_path / "fam.json")
        code, _, _ = run(capsys, "regions", "--data", unfair_csv, *family,
                         "--seed", "0", "--out", out)
        assert code == 0
        audit = ["audit", "--data", unfair_csv, "--worlds", "99",
                 "--alpha", "0.05", "--seed", "0"]
        code, _, _ = run(capsys, *audit, "--regions-file", out,
                         "--out", str(tmp_path / "replayed"))
        assert code == 0
        code, _, _ = run(capsys, *audit, *family,
                         "--out", str(tmp_path / "built"))
        assert code == 0
        # The file replays the family the audit builds itself, so the
        # verdict and every evidence region match the in-pipeline run.
        replayed, built = (
            json.loads((tmp_path / name / "report.json").read_text())
            for name in ("replayed", "built"))
        assert replayed["evidence"]
        for key in ("verdict", "evidence", "non_overlapping"):
            assert replayed[key] == built[key]

    def test_grid_over_a_wider_box(self, capsys, tmp_path):
        # The grid's inner bound x = 1 is the data's max x: the cell below
        # it is closed there, so it holds all six points and is no
        # evidence, as when the same cells are given as a regions family.
        data = tmp_path / "six.csv"
        data.write_text("id,lon,lat,outcome\na,0.25,0.5,1\nb,0.5,0.5,0\n"
                        "c,1.0,0.5,1\nd,1.0,0.25,1\ne,0.75,0.3,0\n"
                        "f,0.3,0.45,0\n")
        part = tmp_path / "part.json"
        assert run(capsys, "regions", "--bbox", "0,0,2,2", "--grid", "2x1",
                   "--out", str(part))[0] == 0
        assert [f.xbounds.tolist() for f in load_region_families(
            str(part))] == [[0.0, 1.0, 2.0]]
        cells = tmp_path / "cells.json"
        cells.write_text(json.dumps({"schema": 1, "families": [{
            "kind": "regions", "regions": [
                {"xmin": x0, "ymin": 0.0, "xmax": x1, "ymax": 2.0}
                for x0, x1 in ((0.0, 1.0), (1.0, 2.0))]}]}))
        reports = []
        for name, family in (("part", part), ("cells", cells)):
            code, _, _ = run(capsys, "audit", "--data", str(data),
                             "--regions-file", str(family), "--worlds", "199",
                             "--alpha", "0.5", "--out", str(tmp_path / name))
            assert code == 0
            reports.append(json.loads(
                (tmp_path / name / "report.json").read_text()))
        evidence = reports[0]["evidence"]
        assert [(e["xmin"], e["xmax"], e["n"], e["p"]) for e in evidence] == [
            (1.0, 2.0, 2, 2)]
        for key in ("verdict", "evidence", "non_overlapping"):
            assert reports[0][key] == reports[1][key]

    def test_squares_need_data(self, capsys, tmp_path):
        code, _, err = run(capsys, "regions", "--bbox", "0,0,1,1",
                           "--squares", "--out", str(tmp_path / "x.json"))
        assert code == 1
        assert "k-means" in err

    def test_squares_with_data(self, capsys, fair_csv, tmp_path):
        out = str(tmp_path / "sq.json")
        code, lines, _ = run(capsys, "regions", "--data", fair_csv,
                             "--squares", "--centers", "7",
                             "--sides", "0.1:0.5:3", "--out", out)
        assert code == 0
        fams = load_region_families(out)
        assert len(fams[0]) == 21

    @pytest.mark.parametrize("centers", ["0", "-1"])
    def test_nonpositive_centers(self, capsys, fair_csv, tmp_path, centers):
        out = tmp_path / "sq.json"
        code, _, err = run(capsys, "regions", "--data", fair_csv, "--squares",
                           "--centers", centers, "--out", str(out))
        assert (code, err) == (1, "error: --centers (config key centers) "
                                  f"must be positive, got {centers}\n")
        assert not out.exists()
        code, _, err = run(capsys, "audit", "--data", fair_csv, "--squares",
                           "--centers", centers, "--worlds", "99",
                           "--alpha", "0.05")
        assert (code, err) == (1, "error: --centers (config key centers) "
                                  f"must be positive, got {centers}\n")

    def test_default_centers(self, capsys, fair_csv, tmp_path):
        out = str(tmp_path / "sq.json")
        code, _, _ = run(capsys, "regions", "--data", fair_csv, "--squares",
                         "--sides", "0.1:0.5:3", "--out", out)
        assert code == 0
        assert len(load_region_families(out)[0]) == 300

    def test_zero_regions_rejected(self, capsys, fair_csv, tmp_path):
        out = tmp_path / "sq.json"
        code, _, err = run(capsys, "regions", "--data", fair_csv,
                           "--squares", "--sides", "0.1:2:0", "--out", str(out))
        assert code == 1
        assert err.startswith("error: the region family holds no candidate")
        assert "Traceback" not in err
        assert not out.exists()

    def test_no_family(self, capsys, tmp_path):
        code, _, err = run(capsys, "regions", "--bbox", "0,0,1,1",
                           "--out", str(tmp_path / "x.json"))
        assert code == 1
        assert "no region family" in err

    def test_needs_bbox_or_data(self, capsys, tmp_path):
        code, _, err = run(capsys, "regions", "--grid", "2x2",
                           "--out", str(tmp_path / "x.json"))
        assert code == 1
        assert "--data or --bbox" in err


class TestFamilyFlags:
    """audit, meanvar and regions read family flags the same way."""

    @staticmethod
    def command_argv(command, data, out):
        extra = {"audit": ["--worlds", "99", "--alpha", "0.05"],
                 "meanvar": [], "regions": []}[command]
        return [command, "--data", data, *extra, "--out", str(out)]

    @pytest.mark.parametrize("command", ["audit", "meanvar", "regions"])
    @pytest.mark.parametrize("flags, message", [
        (["--grid", "0x3"], "grid dims must be positive, got (0, 3)"),
        (["--random-partitionings", "0"],
         "--random-partitionings (config key random_partitionings) must be "
         "positive, got 0"),
        (["--random-partitionings", "2", "--splits", "5..2"],
         "bad splits range 5..2"),
        (["--grid", "2x2", "--splits", "3"],
         "--splits expects MIN..MAX, e.g. 10..40, got '3'"),
    ], ids=["grid", "random", "splits-range", "splits-text"])
    def test_same_error(self, capsys, unfair_csv, tmp_path, command, flags,
                        message):
        out = tmp_path / "out"
        code, _, err = run(capsys, *self.command_argv(command, unfair_csv,
                                                      out), *flags)
        assert (code, err) == (1, f"error: {message}\n")
        assert not out.exists()

    def test_regions_refuses_zero_partitionings_beside_a_grid(self, capsys,
                                                              tmp_path):
        out = tmp_path / "fam.json"
        code, _, err = run(capsys, "regions", "--bbox", "0,0,1,1", "--grid",
                           "2x2", "--random-partitionings", "0",
                           "--out", str(out))
        assert (code, err) == (1, "error: --random-partitionings (config key "
                                  "random_partitionings) must be positive, "
                                  "got 0\n")
        assert not out.exists()

    @needs_rlimit_as
    @pytest.mark.parametrize("command", ["audit", "meanvar", "regions"])
    def test_huge_partitioning_count_fails_fast(self, tmp_path, command):
        # The partitioning list is allocated before the first draw, so a
        # count too large to hold fails at once under an address-space cap.
        assert_fails_fast_out_of_memory(
            tmp_path, command, "--random-partitionings", "1000000000000")

    @pytest.mark.parametrize("argv, flag, rect", [
        (["regions", "--grid", "2x2"], "--bbox", "0,0,inf,1"),
        # Finite bounds whose width overflows.
        (["regions", "--grid", "2x2"], "--bbox", "-1e308,0,1e308,1"),
        (["gen-synth", "--kind", "uniform-split", "--n", "10"],
         "--rect", "0,0,inf,1"),
    ])
    def test_nonfinite_rectangle(self, capsys, tmp_path, argv, flag, rect):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, lines, err = run(capsys, *argv, f"{flag}={rect}",
                                   "--out", str(out))
        assert (code, lines) == (1, [])
        assert err == (f"error: {flag} must be a rectangle with finite "
                       f"bounds, width and height, got {rect!r}\n")
        assert not out.exists()


BAD_REGION_FILES = {
    "top-level list": [1, 2],
    "family without kind": {"schema": 1, "families": [{"regions": []}]},
    "families not a list": {"schema": 1, "families": {"kind": "regions"}},
    "rectangle missing ymin": {"schema": 1, "families": [{
        "kind": "regions",
        "regions": [{"xmin": 0.0, "xmax": 1.0, "ymax": 1.0}]}]},
    "rectangle not an object": {"schema": 1, "families": [{
        "kind": "regions", "regions": [[0.0, 0.0, 1.0, 1.0]]}]},
    "string bounds": {"schema": 1, "families": [{
        "kind": "regions",
        "regions": [{"xmin": "0", "ymin": 0, "xmax": 1, "ymax": 1}]}]},
    "NaN rectangle bound": {"schema": 1, "families": [{
        "kind": "regions",
        "regions": [{"xmin": float("nan"), "ymin": 0, "xmax": 1,
                     "ymax": 1}]}]},
    "inverted rectangle": {"schema": 1, "families": [{
        "kind": "regions",
        "regions": [{"xmin": 1, "ymin": 0, "xmax": 0, "ymax": 1}]}]},
    "list center_id": {"schema": 1, "families": [{
        "kind": "regions",
        "regions": [{"xmin": 0, "ymin": 0, "xmax": 1, "ymax": 1,
                     "center_id": ["c0"]}]}]},
    "partitioning without ybounds": {"schema": 1, "families": [{
        "kind": "partitioning", "xbounds": [0.0, 1.0]}]},
    "string partitioning bound": {"schema": 1, "families": [{
        "kind": "partitioning", "xbounds": [0.0, "1"],
        "ybounds": [0.0, 1.0]}]},
    "unsorted partitioning bounds": {"schema": 1, "families": [{
        "kind": "partitioning", "xbounds": [0.0, 1.0, 0.5],
        "ybounds": [0.0, 1.0]}]},
    "NaN partitioning bound": {"schema": 1, "families": [{
        "kind": "partitioning", "xbounds": [0.0, float("nan"), 1.0],
        "ybounds": [0.0, 1.0]}]},
    "one partitioning bound": {"schema": 1, "families": [{
        "kind": "partitioning", "xbounds": [0.0], "ybounds": [0.0, 1.0]}]},
}


class TestBadRegionFiles:
    @pytest.mark.parametrize("name", sorted(BAD_REGION_FILES))
    def test_error_not_traceback(self, capsys, unfair_csv, tmp_path, name):
        path = tmp_path / "regions.json"
        path.write_text(json.dumps(BAD_REGION_FILES[name]))
        code, _, err = run(capsys, "audit", "--data", unfair_csv,
                           "--regions-file", str(path), "--worlds", "99",
                           "--alpha", "0.05")
        assert code == 1
        assert re.match(r"error: region (file|family)", err), err
        assert "Traceback" not in err


class TestHelp:
    @pytest.mark.parametrize("name,argv", [
        ("help_main.txt", ["--help"]),
        ("help_audit.txt", ["audit", "--help"]),
        ("help_meanvar.txt", ["meanvar", "--help"]),
        ("help_gen_synth.txt", ["gen-synth", "--help"]),
        ("help_regions.txt", ["regions", "--help"]),
    ])
    def test_golden_help(self, capsys, monkeypatch, name, argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / name).read_text()

    def test_audit_help_mentions_every_flag(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        text = (GOLDEN / "help_audit.txt").read_text()
        for flag in ("--config", "--data", "--mode", "--direction",
                     "--grid", "--random-partitionings", "--splits",
                     "--squares", "--centers", "--sides", "--regions-file",
                     "--alpha", "--worlds", "--seed", "--top-k", "--out",
                     "--fail-on-unfair"):
            assert flag in text
