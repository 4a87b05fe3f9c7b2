"""Traced in-process audit: times each layer through its public functions.

The stages run in the order ``pipeline.run_audit`` runs them, with the
workload's configuration, so the traced verdict must equal the CLI's. Each
entry point is looked up when its stage runs. A stage whose entry point is
gone, or no longer accepts the arguments the benchmark passes, is recorded
as missing and the trace goes on, so package refactors cannot crash the
benchmark. Spans are kept in memory and written out at the end.

Run as a script it audits one CSV in a fresh process and prints the trace
document as its last stdout line; the fresh process makes the peak RSS
after loading the dataset the loader's own high-water mark.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Relabelings timed by the *_ms_per_world metrics, drawn by the benchmark
# and kept out of the simulation stage.
PER_WORLD_SAMPLES = 25
SPLITS = (10, 40)       # the CLI's default --splits

# Per-layer metrics, in the order run_audit reaches each layer, with the
# end-to-end metric and workload each should move.
PER_LAYER = [
    # setup_s and audit_s, all workloads alike
    ("cli.import_s", "s"),
    # setup_s, audit_s, peak_rss_mb: clustered1m (near 0 on split10k)
    ("dataset.load_s", "s"), ("dataset.rows", "count"),
    ("dataset.peak_rss_mb", "MB"),
    # setup_s: clustered1m
    ("index.build_s", "s"), ("index.cells", "count"),
    # setup_s, audit_s: planted20k only
    ("regions.kmeans_s", "s"), ("regions.kmeans_iters", "count"),
    # setup_s: split10k (70k Region objects)
    ("regions.generate_s", "s"), ("regions.count", "count"),
    # setup_s: planted20k and split10k
    ("scanner.build_s", "s"), ("scanner.candidates", "count"),
    ("scanner.empty_candidates", "count"),
    # audit_s: clustered1m and split10k
    ("scanner.count_ms_per_world", "ms"),
    # setup_s: split10k (one ScoredRegion per candidate)
    ("likelihood.scan_s", "s"),
    # audit_s: split10k
    ("likelihood.llr_ms_per_world", "ms"),
    # audit_s: all; "other" (label draw and max) is largest on clustered1m
    ("montecarlo.simulate_s", "s"), ("montecarlo.worlds_per_s", "1/s"),
    ("montecarlo.other_ms_per_world", "ms"),
    # audit_s: the UNFAIR workloads
    ("pipeline.evidence_s", "s"), ("pipeline.evidence_count", "count"),
    ("pipeline.export_s", "s"),
    # none; guards the MeanVar baseline (split10k data only)
    ("meanvar.mean_var_s", "s"),
    # none; they check the trace itself
    ("trace.total_s", "s"), ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"), ("trace.matches_cli", "bool"),
]
# The stages that make up the audit; their spans should cover the root
# "audit" span, whose length is trace.total_s.
AUDIT_STAGES = ("dataset.load", "index.build", "regions.kmeans",
                "regions.generate", "scanner.build", "likelihood.scan",
                "montecarlo.simulate", "pipeline.evidence", "pipeline.export")


class MissingEntryPoint(Exception):
    pass


def api(module: str, attr: str):
    """fairscan.<module>.<attr>, or MissingEntryPoint if it is gone."""
    name = f"fairscan.{module}"
    try:
        mod = importlib.import_module(name)
    except ModuleNotFoundError as exc:
        if exc.name != name:
            raise
        raise MissingEntryPoint(f"no module {name}") from None
    return field(mod, attr)


def field(obj, attr: str):
    """obj.<attr>, or MissingEntryPoint if obj has no such attribute.

    Only this lookup is guarded: an AttributeError raised inside a package
    call is a defect and propagates.
    """
    try:
        return getattr(obj, attr)
    except AttributeError:
        owner = getattr(obj, "__name__", type(obj).__qualname__)
        raise MissingEntryPoint(f"{owner} has no {attr!r}") from None


def call(fn, *args, **kwargs):
    """Call fn, raising MissingEntryPoint if its signature rejects the call."""
    try:
        inspect.signature(fn).bind(*args, **kwargs)
    except TypeError as exc:
        raise MissingEntryPoint(f"{fn.__module__}.{fn.__qualname__}: {exc}") from None
    return fn(*args, **kwargs)


class Tracer:
    """Spans and missing stages of one traced audit."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.missing: dict[str, str] = {}

    def stage(self, name: str, thunk, parent: str = "audit"):
        """Run thunk as span ``name``; None if an entry point is missing.

        The attributes of returned objects (``Dataset.bbox``, ...) are entry
        points too; thunks read them through ``field``.
        """
        start = time.perf_counter()
        try:
            out = thunk()
        except MissingEntryPoint as exc:
            self.missing[name] = str(exc)
            return None
        self.spans.append({"name": name, "parent": parent,
                           "start": start - self.origin,
                           "end": time.perf_counter() - self.origin})
        return out


def derive_seeds(seed: int) -> tuple[int, int]:
    """Region and simulation seeds, derived as the audit pipeline does."""
    state = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    return int(state[0]), int(state[1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _regions(tr: Tracer, w, d, region_seed: int, counters: dict):
    kind = w.family[0]
    if kind == "squares":
        km = tr.stage("regions.kmeans", lambda: call(
            api("regions", "kmeans_centers"), d, w.family[1],
            seed=region_seed, return_inertia=True))
        if km is None:
            return None
        centers, inertia = km
        counters["regions.kmeans_iters"] = len(inertia)
        regions = tr.stage("regions.generate", lambda: call(
            api("regions", "square_scan_set"), centers, None))
        if regions is not None:
            counters["regions.count"] = len(regions)
        return regions
    counters["regions.kmeans_iters"] = 0
    if kind == "random":
        regions = tr.stage("regions.generate", lambda: call(
            api("regions", "random_partitionings"), field(d, "bbox"), w.family[1],
            *SPLITS, seed=region_seed))
    else:
        regions = tr.stage("regions.generate", lambda: [call(
            api("regions", "regular_grid"), field(d, "bbox"), *w.family[1:])])
    if regions is not None:
        counters["regions.count"] = sum(len(p) for p in regions)
    return regions


def _simulate(ix, family, rho, worlds, sim_seed):
    fn = api("montecarlo", "simulate_worlds")
    kwargs = {"seed": sim_seed}
    if "threads" in inspect.signature(fn).parameters:
        kwargs["threads"] = None        # the CLI default: one per CPU
    return call(fn, ix, family, rho, worlds, **kwargs)


def _evidence(scored, tau, dist):
    p = call(api("montecarlo", "global_p_value"), tau, dist)
    cutoff = call(api("montecarlo", "critical_value"), dist, workloads.ALPHA)
    fair = p > workloads.ALPHA
    if fair:
        return p, cutoff, fair, [], []
    ev = call(api("montecarlo", "significant_regions"), scored, cutoff, dist)
    return p, cutoff, fair, ev, call(api("pipeline", "select_non_overlapping"), ev)


def _family_config(w) -> dict:
    kind = w.family[0]
    if kind == "random":
        return {"random_parts": w.family[1], "splits": SPLITS}
    if kind == "squares":
        return {"squares_centers": w.family[1]}
    return {"grid": tuple(w.family[1:])}


def _export(w, data, d, tau, ev_result, dist, out_dir):
    p, cutoff, fair, ev, no = ev_result
    verdict = call(api("montecarlo", "AuditVerdict"), tau_log=tau, p_value=p,
                   alpha=workloads.ALPHA, fair=fair, critical_llr=cutoff)
    cfg = call(api("pipeline", "AuditConfig"), data=str(data),
               alpha=workloads.ALPHA, num_worlds=w.worlds + 1,
               seed=workloads.AUDIT_SEED, **_family_config(w))
    report = call(api("pipeline", "AuditReport"), verdict=verdict, evidence=ev,
                  non_overlapping=no, dist=dist, config=field(cfg, "echo")(),
                  dataset_summary={"N": field(d, "N"), "P": field(d, "P"),
                                   "rho": field(d, "rho"),
                                   "bbox": list(field(field(d, "bbox"),
                                                      "bounds")())},
                  timings={})
    return call(api("pipeline", "export_report"), report, str(out_dir))


def _per_world(tr: Tracer, scanner, ix, d, seed: int, tag: int) -> dict:
    """Median wall ms per world on one thread, over benchmark-drawn worlds.

    ``count_ms`` times ``positives`` and ``llr_ms`` times ``llr_vector``.
    ``other_ms`` times the rest of a simulated world, done here with the
    numpy calls simulate_worlds makes: a generator from the world's seed,
    the Bernoulli label draw, the positive total and the max.
    """
    positives = getattr(scanner, "positives", None)
    n_vec = getattr(scanner, "n", None)
    n_obs = getattr(ix, "N", None)
    rho = getattr(d, "rho", None)
    if positives is None or n_vec is None or n_obs is None or rho is None:
        tr.missing["per_world"] = ("no scanner.positives, scanner.n, index.N "
                                   "or dataset.rho")
        return {}
    try:
        llr_vector = api("likelihood", "llr_vector")
    except MissingEntryPoint as exc:
        tr.missing["likelihood.llr_per_world"] = str(exc)
        llr_vector = None
    seeds = np.random.SeedSequence([seed, tag, 2]).spawn(PER_WORLD_SAMPLES)
    count_s, llr_s, other_s = [], [], []
    for world_seed in seeds:
        t0 = time.perf_counter()
        labels = (np.random.default_rng(world_seed).random(n_obs)
                  < rho).astype(np.int8)
        p_world = int(labels.sum())
        t1 = time.perf_counter()
        p_vec = positives(labels)
        t2 = time.perf_counter()
        count_s.append(t2 - t1)
        if llr_vector is None:
            continue
        llr = llr_vector(n_vec, p_vec, n_obs, p_world)
        t3 = time.perf_counter()
        llr.max()
        llr_s.append(t3 - t2)
        other_s.append(t1 - t0 + time.perf_counter() - t3)
    out = {"count_ms": 1e3 * statistics.median(count_s)}
    if llr_s:
        out["llr_ms"] = 1e3 * statistics.median(llr_s)
        out["other_ms"] = 1e3 * statistics.median(other_s)
    return out


def traced_audit(data: Path, w, out_dir: Path, seed: int) -> dict:
    """Audit ``data`` stage by stage; return spans, counters and verdict."""
    tr = Tracer()
    counters: dict[str, float] = {}
    region_seed, sim_seed = derive_seeds(workloads.AUDIT_SEED)
    doc = {"spans": tr.spans, "missing": tr.missing, "counters": counters,
           "verdict": None, "per_world": {}}

    start = time.perf_counter()
    d = tr.stage("dataset.load", lambda: call(api("dataset", "load_dataset"),
                                              str(data)))
    counters["dataset.peak_rss_mb"] = peak_rss_mb()
    if d is None:
        return doc
    counters["dataset.rows"] = getattr(d, "N", None)
    ix = tr.stage("index.build", lambda: call(api("index", "build_index"), d, None))
    if ix is None:
        return doc
    if hasattr(ix, "gx") and hasattr(ix, "gy"):
        counters["index.cells"] = ix.gx * ix.gy
    regions = _regions(tr, w, d, region_seed, counters)
    if regions is None:
        return doc
    scanner = tr.stage("scanner.build", lambda: call(api("scanner", "as_scanner"),
                                                     ix, regions))
    if getattr(scanner, "n", None) is not None:
        counters["scanner.candidates"] = len(scanner.n)
        counters["scanner.empty_candidates"] = int((np.asarray(scanner.n) == 0).sum())
    # Without a separate scanner the scan and the simulation take the
    # region family itself, which they accept too.
    family = scanner if scanner is not None else regions
    scan = tr.stage("likelihood.scan", lambda: call(
        api("likelihood", "scan_regions"), ix, family))
    dist = tr.stage("montecarlo.simulate", lambda: _simulate(
        ix, family, field(d, "rho"), w.worlds, sim_seed))
    if scan is None or dist is None:
        return doc
    scored, tau = scan
    ev = tr.stage("pipeline.evidence", lambda: _evidence(scored, tau, dist))
    if ev is None:
        return doc
    counters["pipeline.evidence_count"] = len(ev[3])
    tr.stage("pipeline.export", lambda: _export(w, data, d, tau, ev, dist, out_dir))
    tr.spans.append({"name": "audit", "parent": None,
                     "start": start - tr.origin,
                     "end": time.perf_counter() - tr.origin})
    doc["verdict"] = {"fair": bool(ev[2]), "p_value": float(ev[0]),
                      "tau_log": float(tau)}

    if scanner is not None:
        doc["per_world"] = _per_world(tr, scanner, ix, d, seed, w.tag)
    if w.family[0] == "random":
        tr.stage("meanvar.mean_var", lambda: call(
            api("meanvar", "mean_var"), ix, regions), parent=None)
    return doc


def layer_metrics(doc: dict, w, import_s: float | None, audit_s: float | None,
                  cli_verdict: dict | None) -> dict:
    """Per-layer metric values from a trace document; None means missing.

    Stages the workload's family never runs (k-means outside the squares
    family, MeanVar outside random partitionings) read 0.
    """
    spans = {s["name"] for s in doc["spans"]}
    c = doc["counters"]

    def secs(stage):
        return sum(s["end"] - s["start"] for s in doc["spans"]
                   if s["name"] == stage) if stage in spans else None

    v: dict[str, float | None] = {name: None for name, _ in PER_LAYER}
    v["cli.import_s"] = import_s
    for stage in AUDIT_STAGES:
        v[f"{stage}_s"] = secs(stage)
    for key in ("dataset.rows", "dataset.peak_rss_mb", "index.cells",
                "regions.kmeans_iters", "regions.count", "scanner.candidates",
                "scanner.empty_candidates", "pipeline.evidence_count"):
        v[key] = c.get(key)
    if w.family[0] != "squares":
        v["regions.kmeans_s"] = 0.0
    pw = doc["per_world"]
    v["scanner.count_ms_per_world"] = pw.get("count_ms")
    v["likelihood.llr_ms_per_world"] = pw.get("llr_ms")
    if v["montecarlo.simulate_s"]:
        v["montecarlo.worlds_per_s"] = w.worlds / v["montecarlo.simulate_s"]
    v["montecarlo.other_ms_per_world"] = pw.get("other_ms")
    v["meanvar.mean_var_s"] = (secs("meanvar.mean_var")
                               if w.family[0] == "random" else 0.0)
    total = secs("audit")
    if total:
        v["trace.total_s"] = total
        covered = sum(secs(s) or 0.0 for s in AUDIT_STAGES)
        v["trace.unattributed_frac"] = (total - covered) / total
        if audit_s and import_s is not None:
            # The CLI child also starts an interpreter and imports fairscan.
            v["trace.overhead_frac"] = (total + import_s - audit_s) / audit_s
    if doc["verdict"] is not None and cli_verdict is not None:
        v["trace.matches_cli"] = float(all(
            doc["verdict"][k] == cli_verdict[k]
            for k in ("fair", "p_value", "tau_log")))
    return v


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    doc = traced_audit(Path(args.data), workloads.get(args.workload),
                       Path(args.out), args.seed)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
