"""fairscan audit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all        # every workload, both modes

Untraced (``--trace 0``) runs time the ``fairscan audit`` CLI as fresh
child processes, alternating a full audit with a set-up run (the same
command with one simulated world), until ``--seconds`` have passed and at
least MIN_SETUPS set-ups and MIN_AUDITS audits are done. They report the
medians of ``audit_s``, ``setup_s`` and the audit's ``peak_rss_mb``.

Traced (``--trace 1``) runs time ``import fairscan`` in fresh interpreters,
one untraced CLI audit, and one audit run stage by stage through the
package's public functions in a fresh process (see layers.py); they report
the per-layer metrics.

Every CLI run is checked (checks.py); a failed check, a nonzero exit, a
missing stdout line or a timeout counts the run as failed. The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a result file with the environment stamp and every sample
goes to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [("audit_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
MIN_SETUPS = 3
MIN_AUDITS = 2
IMPORT_SAMPLES = 5
# A run must exit within 180 s; no child is started that could end later.
RUN_BUDGET_S = 170.0
DEFAULT_SEED = 0
RUNS_DIR = HERE / ".runs"
RESULTS_DIR = HERE / "results"
REFERENCES = HERE / "references.json"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(cmd: list[str], stdout: Path, timeout: float) -> dict:
    """Run cmd to completion; wall time from spawn to exit and peak RSS."""
    with open(stdout, "w", encoding="utf-8") as out, \
            open(stdout.with_suffix(".stderr"), "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "returncode": proc.returncode, "timed_out": killed.is_set(),
            "stdout": stdout.read_text(encoding="utf-8")}


def run_cli(w, data: Path, kind: str, timeout: float,
            reference: dict | None) -> dict:
    """One checked ``fairscan audit`` child: kind is "audit" or "setup"."""
    worlds, alpha = ((w.worlds, workloads.ALPHA) if kind == "audit" else
                     (workloads.SETUP_WORLDS, workloads.SETUP_ALPHA))
    out_dir = RUNS_DIR / w.name / kind
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, "-m", "fairscan", "audit", "--data", str(data),
           *w.family_args(), "--worlds", str(worlds), "--alpha", repr(alpha),
           "--seed", str(workloads.AUDIT_SEED), "--out", str(out_dir)]
    res = spawn(cmd, out_dir.with_suffix(".stdout"), timeout)
    if res["timed_out"]:
        res["problems"] = [f"timed out after {timeout:.0f} s"]
    else:
        res["problems"] = checks.check_stdout(res["stdout"], res["returncode"],
                                              out_dir)
    if not res["problems"]:
        res["problems"] = checks.check_outputs(
            out_dir, res["stdout"], worlds=worlds, alpha=alpha, plant=w.plant,
            reference=reference)
    if not res["problems"]:
        res["summary"] = checks.summary(
            json.loads((out_dir / "report.json").read_text("utf-8")))
    res["kind"] = kind
    return res


def import_seconds(n: int) -> list[float]:
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, "-c", "import fairscan"]
    out = []
    for _ in range(n):
        res = spawn(cmd, RUNS_DIR / "import.stdout", timeout=60)
        if res["returncode"] != 0:
            raise SystemExit("error: cannot import fairscan from src/")
        out.append(res["wall_s"])
    return out


def environment() -> dict:
    """Where and on what the numbers were measured."""
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "fairscan").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def load_reference(w, seed: int, kind: str) -> dict | None:
    if seed != DEFAULT_SEED or not REFERENCES.exists():
        return None
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    return refs.get(w.name, {}).get(kind)


def measured_run(w, data: Path, seed: int, seconds: float,
                 deadline: float) -> dict:
    """Alternate set-up and audit runs; median of each."""
    import_seconds(1)   # compile bytecode before anything is timed
    start = time.perf_counter()
    runs: list[dict] = []
    longest = {"setup": 0.0, "audit": 0.0}
    while True:
        n_setup = sum(r["kind"] == "setup" for r in runs)
        n_audit = len(runs) - n_setup
        kind = "setup" if n_setup <= n_audit else "audit"
        if (kind == "audit" and n_setup >= MIN_SETUPS and n_audit >= MIN_AUDITS
                and time.perf_counter() - start >= seconds):
            break
        left = deadline - time.perf_counter()
        if runs and 1.5 * longest[kind] > left:
            break
        res = run_cli(w, data, kind, timeout=max(left, 1.0),
                      reference=load_reference(w, seed, kind))
        longest[kind] = max(longest[kind], res["wall_s"])
        runs.append(res)
        print(f"{kind} {res['wall_s']:.3f} s rss {res['peak_rss_mb']:.1f} MB"
              + (f" FAILED: {'; '.join(res['problems'])}" if res["problems"]
                 else ""), flush=True)
    ok = {k: [r for r in runs if r["kind"] == k and not r["problems"]]
          for k in ("audit", "setup")}
    metrics = {
        "audit_s": _median([r["wall_s"] for r in ok["audit"]]),
        "setup_s": _median([r["wall_s"] for r in ok["setup"]]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok["audit"]]),
    }
    return {"runs": runs, "metrics": metrics, "units": dict(END_TO_END)}


def traced_run(w, data: Path, seed: int, deadline: float) -> dict:
    imports = import_seconds(IMPORT_SAMPLES)
    cli = run_cli(w, data, "audit", timeout=max(deadline - time.perf_counter(), 1.0),
                  reference=load_reference(w, seed, "audit"))
    out_dir = RUNS_DIR / w.name / "trace"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    child = spawn([sys.executable, str(HERE / "layers.py"), "--data", str(data),
                   "--workload", w.name, "--seed", str(seed), "--out",
                   str(out_dir)],
                  out_dir.with_suffix(".stdout"),
                  timeout=max(deadline - time.perf_counter(), 1.0))
    runs = [cli]
    doc = None
    if child["returncode"] == 0 and child["stdout"].strip():
        doc = json.loads(child["stdout"].strip().splitlines()[-1])
    else:
        print(f"traced run failed (exit {child['returncode']}):\n"
              + out_dir.with_suffix(".stderr").read_text("utf-8")[-2000:],
              flush=True)
    if doc is None:
        metrics = {name: None for name, _ in layers.PER_LAYER}
    else:
        metrics = layers.layer_metrics(
            doc, w, statistics.median(imports),
            None if cli["problems"] else cli["wall_s"], cli.get("summary"))
        for stage, why in doc["missing"].items():
            print(f"missing {stage}: {why}", flush=True)
    return {"runs": runs, "metrics": metrics, "units": dict(layers.PER_LAYER),
            "trace": doc, "import_s": imports, "trace_child_ok": doc is not None}


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 env: dict) -> dict:
    deadline = time.perf_counter() + RUN_BUDGET_S
    w = workloads.get(name)
    data, meta = workloads.dataset_path(w, seed)
    print(f"DATA {data.name} rows={meta['rows']} bytes={meta['bytes']} "
          f"positives={meta['positives']}", flush=True)
    if trace:
        res = traced_run(w, data, seed, deadline)
    else:
        res = measured_run(w, data, seed, seconds, deadline)
    attempted = len(res["runs"])
    failed = sum(bool(r["problems"]) for r in res["runs"])
    metrics = res["metrics"]
    correct = failed == 0 and (not trace or (
        res["trace_child_ok"] and metrics["trace.matches_cli"] != 0.0))
    if not trace and any(v is None for v in metrics.values()):
        correct = False
    for r in res["runs"]:
        r.pop("stdout", None)
    result = {
        "workload": name, "seed": seed, "trace": int(trace),
        "environment": env, "data": meta,
        "fail_frac": failed / attempted if attempted else None,
        **res,
        "correct": correct, "attempted": attempted, "failed": failed,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def _metric_lines(result: dict, prefix: str = "") -> list[str]:
    lines = [f"{prefix}fail_frac {result['fail_frac']:.4g} ratio"]
    for name, unit in result["units"].items():
        v = result["metrics"][name]
        text = ("missing" if v is None else str(v) if isinstance(v, int)
                else f"{v:.6g}")
        lines.append(f"{prefix}{name} {text} {unit}")
    return lines


def _contract_line(results: list[dict], prefix: bool) -> str:
    metrics = {}
    for r in results:
        for name, unit in r["units"].items():
            key = f"{r['workload']}.{name}" if prefix else name
            metrics[key] = {"value": r["metrics"][name], "unit": unit}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fairscan audit benchmark")
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, workloads.SMOKE.name, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="draws the outcomes (default %(default)s, which "
                         "also checks against references.json)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time per untraced run (default 30)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fairscan" / "__init__.py").is_file():
        print(f"error: no fairscan sources under {SRC}", file=sys.stderr)
        return 2
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    env = environment()
    print("ENV " + json.dumps(env, sort_keys=True), flush=True)
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = []
    for name in names:
        for trace in modes:
            r = run_workload(name, args.seed, args.seconds, trace, env)
            results.append(r)
            print("\n".join(_metric_lines(r, prefix=f"{name} ")), flush=True)
    print(_contract_line(results, prefix=args.workload == "all"), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
