"""Output checks applied to every ``fairscan audit`` run the benchmark makes.

They rely only on the frozen user contract: the exit code, the ``CONFIG``,
``FAIR``/``UNFAIR`` and ``wrote`` stdout lines, and the three output files.
Each check returns a list of problems; an empty list means the run passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

OUTPUT_FILES = ("report.json", "regions.geojson", "nulldist.json")
# Relative tolerance for scores against recorded references: the error
# bound the LLR oracle tests allow.
REF_RTOL = 1e-9


def summary(report: dict) -> dict:
    """The verdict fields a reference records and the trace compares."""
    v = report["verdict"]
    return {"fair": v["fair"], "p_value": v["p_value"], "tau_log": v["tau_log"],
            "critical_llr": v["critical_llr"],
            "evidence_count": len(report["evidence"])}


def check_stdout(stdout: str, returncode: int, out_dir: Path) -> list[str]:
    if returncode != 0:
        return [f"exit code {returncode}"]
    lines = stdout.splitlines()
    problems = []
    if not lines or not lines[0].startswith("CONFIG "):
        problems.append("no CONFIG line first")
    else:
        try:
            json.loads(lines[0][len("CONFIG "):])
        except json.JSONDecodeError:
            problems.append("CONFIG line is not JSON")
    if not any(ln.startswith(("FAIR p=", "UNFAIR p=")) for ln in lines):
        problems.append("no FAIR/UNFAIR line")
    wrote = [ln[len("wrote "):] for ln in lines if ln.startswith("wrote ")]
    for name in OUTPUT_FILES:
        if not any(Path(p).name == name and Path(p).parent.resolve()
                   == out_dir.resolve() for p in wrote):
            problems.append(f"no 'wrote' line for {name}")
    return problems


def check_outputs(out_dir: Path, stdout: str, *, worlds: int, alpha: float,
                  plant=None, reference: dict | None = None) -> list[str]:
    """Recompute the verdict from nulldist.json and compare with report.json."""
    try:
        report = json.loads((out_dir / "report.json").read_text("utf-8"))
        null = json.loads((out_dir / "nulldist.json").read_text("utf-8"))
        geo = json.loads((out_dir / "regions.geojson").read_text("utf-8"))
        return _check_documents(report, null, geo, stdout, worlds=worlds,
                                alpha=alpha, plant=plant, reference=reference)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable output: {exc}"]
    except (KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def _check_documents(report, null, geo, stdout, *, worlds, alpha, plant,
                     reference) -> list[str]:
    v = report["verdict"]
    w = null["w"]
    values = null["values"]
    if w != worlds + 1 or len(values) != worlds or v["num_worlds"] != w:
        return [f"world count: w={w}, {len(values)} values, "
                f"expected {worlds} simulated"]
    problems = []
    tau = v["tau_log"]
    p = (1 + sum(1 for x in values if x >= tau)) / w
    if p != v["p_value"]:
        problems.append(f"p_value {v['p_value']} != recomputed {p}")
    m = math.floor(alpha * w)
    crit = sorted(values, reverse=True)[m - 1]
    if crit != v["critical_llr"]:
        problems.append(f"critical_llr {v['critical_llr']} != recomputed {crit}")
    if v["fair"] != (v["p_value"] > alpha):
        problems.append(f"verdict fair={v['fair']} but p={v['p_value']} "
                        f"alpha={alpha}")
    word = "FAIR" if v["fair"] else "UNFAIR"
    if not any(ln.split(" ")[0] == word for ln in stdout.splitlines()):
        problems.append(f"stdout verdict disagrees with report ({word})")
    evidence = report["evidence"]
    if v["fair"] and evidence:
        problems.append("FAIR verdict with evidence regions")
    weak = [e["rank"] for e in evidence if not e["llr"] > v["critical_llr"]]
    if weak:
        problems.append(f"evidence ranks {weak[:5]} not above critical_llr")
    if len(geo["features"]) != len(evidence):
        problems.append("regions.geojson and report.json evidence differ")
    if plant is not None:
        top = report["non_overlapping"][:1]
        if not top:
            problems.append("planted region not found: no evidence")
        else:
            # The centre, not Jaccard >= 0.3: the paper's recovery criterion
            # asks Jaccard >= 0.3 on 9 of 10 seeds, and a correct scan can
            # rank first a small square lying inside the plant (Jaccard
            # 0.28 on 2 of 320 planted20k seeds, its centre inside on all).
            r = top[0]
            cx, cy = (r["xmin"] + r["xmax"]) / 2, (r["ymin"] + r["ymax"]) / 2
            if not (plant[0] <= cx <= plant[2] and plant[1] <= cy <= plant[3]):
                problems.append(f"top region centre ({cx:.4g}, {cy:.4g}) lies "
                                f"outside the plant {plant}")
    if reference is not None:
        problems.extend(check_reference(summary(report), reference))
    return problems


def check_reference(got: dict, ref: dict) -> list[str]:
    problems = []
    for key in ("fair", "p_value", "evidence_count"):
        if got[key] != ref[key]:
            problems.append(f"{key} {got[key]} != reference {ref[key]}")
    for key in ("tau_log", "critical_llr"):
        if not math.isclose(got[key], ref[key], rel_tol=REF_RTOL, abs_tol=0.0):
            problems.append(f"{key} {got[key]!r} != reference {ref[key]!r}")
    return problems
