"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_matches_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.PER_LAYER
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("trace,spec_key", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_prints_every_metric_with_unit(trace, spec_key):
    proc = _bench("--workload", "smoke", "--seed", "3", "--seconds", "0",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)), name
        assert f"smoke {name} " in proc.stdout and proc.stdout.count(
            f"smoke {name} ") == 1
        assert any(ln.startswith(f"smoke {name} ") and ln.endswith(f" {unit}")
                   for ln in lines), name
    assert "smoke fail_frac 0 ratio" in lines
    if trace == "1":
        assert result["metrics"]["trace.matches_cli"]["value"] == 1.0
        assert result["metrics"]["trace.unattributed_frac"]["value"] <= 0.05
    stamp = json.loads(next(ln for ln in lines if ln.startswith("ENV "))[4:])
    assert {"commit", "nproc", "cpu_model", "python", "numpy",
            "scipy"} <= set(stamp)


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    """One checked smoke audit's output directory, copied for tampering."""
    w = workloads.SMOKE
    data, _ = workloads.dataset_path(w, 5)
    res = run.run_cli(w, data, "audit", timeout=120, reference=None)
    assert res["problems"] == []
    dst = tmp_path_factory.mktemp("smoke") / "out"
    shutil.copytree(run.RUNS_DIR / w.name / "audit", dst)
    return dst, res["stdout"]


def _check(out_dir: Path, stdout: str) -> list[str]:
    return checks.check_outputs(out_dir, stdout, worlds=workloads.SMOKE.worlds,
                                alpha=workloads.ALPHA)


def _tamper(out_dir: Path, tmp_path: Path, edit) -> Path:
    dst = tmp_path / "tampered"
    shutil.copytree(out_dir, dst)
    report = json.loads((dst / "report.json").read_text("utf-8"))
    edit(report["verdict"])
    (dst / "report.json").write_text(json.dumps(report), "utf-8")
    return dst


def test_untampered_report_passes(smoke_outputs):
    assert _check(*smoke_outputs) == []


def test_check_rejects_flipped_verdict(smoke_outputs, tmp_path):
    out_dir, stdout = smoke_outputs

    def flip(v):
        v["fair"] = not v["fair"]

    assert _check(_tamper(out_dir, tmp_path, flip), stdout)


def test_check_rejects_p_value_off_by_one_world(smoke_outputs, tmp_path):
    out_dir, stdout = smoke_outputs

    def shift(v):
        v["p_value"] += 1 / v["num_worlds"]

    problems = _check(_tamper(out_dir, tmp_path, shift), stdout)
    assert any("p_value" in p for p in problems)


def test_check_rejects_top_region_off_the_plant(smoke_outputs, tmp_path):
    out_dir, stdout = smoke_outputs
    dst = tmp_path / "planted"
    shutil.copytree(out_dir, dst)
    report = json.loads((dst / "report.json").read_text("utf-8"))
    report["non_overlapping"] = [{"xmin": 0.0, "ymin": 0.0, "xmax": 1.0,
                                  "ymax": 1.0}]
    (dst / "report.json").write_text(json.dumps(report), "utf-8")
    kw = dict(worlds=workloads.SMOKE.worlds, alpha=workloads.ALPHA)
    assert checks.check_outputs(dst, stdout, plant=(0.4, 0.4, 2.0, 2.0),
                                **kw) == []
    problems = checks.check_outputs(dst, stdout, plant=(0.6, 0.6, 2.0, 2.0),
                                    **kw)
    assert any("outside the plant" in p for p in problems)


def test_check_rejects_reference_mismatch(smoke_outputs):
    out_dir, stdout = smoke_outputs
    got = checks.summary(json.loads((out_dir / "report.json").read_text("utf-8")))
    assert checks.check_reference(got, dict(got)) == []
    off = dict(got, tau_log=got["tau_log"] * (1 + 1e-8))
    assert checks.check_reference(got, off)


def test_missing_stdout_line_fails(smoke_outputs):
    out_dir, stdout = smoke_outputs
    kept = "\n".join(ln for ln in stdout.splitlines() if "nulldist" not in ln)
    assert checks.check_stdout(kept, 0, out_dir)
    assert checks.check_stdout(stdout, 1, out_dir)


def _traced(tmp_path):
    w = workloads.SMOKE
    data, _ = workloads.dataset_path(w, 5)
    doc = layers.traced_audit(data, w, tmp_path, seed=5)
    return doc, layers.layer_metrics(doc, w, 0.1, 1.0, None)


def test_missing_entry_point_is_recorded_not_fatal(monkeypatch, tmp_path):
    # The package itself still calls as_scanner, so it is hidden from the
    # tracer's lookup only.
    real_api = layers.api

    def api(module, attr):
        if (module, attr) == ("scanner", "as_scanner"):
            raise layers.MissingEntryPoint("fairscan.scanner.as_scanner: gone")
        return real_api(module, attr)

    monkeypatch.setattr(layers, "api", api)
    doc, m = _traced(tmp_path)
    assert "scanner.build" in doc["missing"]
    assert m["scanner.build_s"] is None and m["scanner.candidates"] is None
    assert m["scanner.count_ms_per_world"] is None
    # The scan and the simulation fall back to the region family itself.
    assert m["likelihood.scan_s"] > 0 and m["montecarlo.simulate_s"] > 0
    assert doc["verdict"] is not None


def test_changed_signature_is_recorded_as_missing(monkeypatch, tmp_path):
    import fairscan.index

    monkeypatch.setattr(fairscan.index, "build_index", lambda dataset: None)
    doc, m = _traced(tmp_path)
    assert "index.build" in doc["missing"]
    assert m["index.build_s"] is None and m["montecarlo.simulate_s"] is None
    assert m["dataset.load_s"] > 0


def test_error_inside_a_package_call_propagates(monkeypatch, tmp_path):
    import fairscan.index

    def build_index(d, resolution=None):
        raise AttributeError("defect inside the package")

    monkeypatch.setattr(fairscan.index, "build_index", build_index)
    with pytest.raises(AttributeError, match="defect inside the package"):
        _traced(tmp_path)


def test_inputs_follow_the_seed(tmp_path):
    w = workloads.SMOKE
    a, _ = workloads.dataset_path(w, 1, cache_dir=tmp_path)
    a_bytes = a.read_bytes()
    a.unlink()
    again, _ = workloads.dataset_path(w, 1, cache_dir=tmp_path)
    assert again.read_bytes() == a_bytes
    b, _ = workloads.dataset_path(w, 2, cache_dir=tmp_path)
    rows_a = [ln.split(",") for ln in a_bytes.decode().splitlines()[1:]]
    rows_b = [ln.split(",") for ln in b.read_text().splitlines()[1:]]
    assert [r[:3] for r in rows_a] == [r[:3] for r in rows_b]  # same locations
    assert [r[3] for r in rows_a] != [r[3] for r in rows_b]    # new outcomes


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".cache", ".runs", "results",
                                                  "__pycache__"))
    proc = _bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
