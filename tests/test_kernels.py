"""fairscan._kernels: scipy's two compiled modules without scipy's packages."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import fairscan

SRC = Path(fairscan.__file__).resolve().parent
PACKAGES = ("scipy.sparse", "scipy.special", "numpy.ma", "numpy.f2py")

# Counts, scores and xlogy bits of one small audit of every family kind,
# then the same kernels from scipy's own packages, imported afterwards.
AUDIT = """
import json, sys
import numpy as np
import fairscan.cli
from fairscan import Dataset, _kernels, build_index, scan_regions
from fairscan.regions import (random_partitionings, regular_grid,
                              square_scan_set)
from fairscan.scanner import CountPlan

loaded = sorted(m for m in sys.modules if m.startswith(("scipy", "numpy.")))
rng = np.random.default_rng(40)
d = Dataset.from_arrays(rng.random(500), rng.random(500),
                        rng.integers(0, 2, 500))
ix = build_index(d)
plan = CountPlan(ix, [regular_grid(d.bbox, 6, 4),
                      *random_partitionings(d.bbox, 3, 2, 9, seed=41),
                      square_scan_set(rng.random((10, 2)), [0.1, 0.4])])
block = np.zeros((plan.width, 8), dtype=plan.dtype)
block[:d.N] = rng.integers(0, 2, (d.N, 8))
extremes = np.empty((2 * len(plan.sizes), 8), dtype=plan.dtype)
plan.extremes(block, extremes)
scores, _ = scan_regions(ix, plan)
special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -1.0, np.inf, -np.inf,
           np.nan]
x, y = (np.where(rng.random(1 << 20) < 0.25, rng.choice(special, 1 << 20),
                 rng.lognormal(0.0, 200.0, 1 << 20)) for _ in range(2))
with np.errstate(all="ignore"):
    mine = _kernels.xlogy(x, y)

import scipy.sparse, scipy.special
matrix = scipy.sparse.csr_array((plan.data, plan.indices, plan.indptr),
                                shape=(len(plan.n), plan.width))
starts = np.searchsorted(np.sort(plan.n), plan.sizes)
with np.errstate(all="ignore"):
    theirs = scipy.special.xlogy(x, y)
print(json.dumps({
    "loaded": loaded,
    "reused": [_kernels.sparsetools is scipy.sparse._sparsetools,
               _kernels.xlogy is scipy.special.xlogy],
    "positives": plan.positives(ix.labels).tolist(),
    "extremes": extremes.tolist(),
    "product": bool(np.array_equal(extremes, np.concatenate([
        reduce.reduceat(matrix @ block.astype(np.int64), starts)
        for reduce in (np.maximum, np.minimum)]))),
    "llr": [v.hex() for v in scores.llr.tolist()],
    "xlogy_bits": bool(np.array_equal(mine.view(np.uint64),
                                      theirs.view(np.uint64))),
}))
"""

# scipy's directory moved to an empty one: no compiled file is found there.
MOVED = """
import importlib.machinery, importlib.util
_find_spec = importlib.util.find_spec

def find_spec(name, package=None):
    if name != "scipy":
        return _find_spec(name, package)
    return importlib.machinery.ModuleSpec("scipy", None, origin={origin!r},
                                          is_package=True)

importlib.util.find_spec = find_spec
"""


def run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def scipy_imports(source: str) -> list[str]:
    """Every import of scipy in ``source``, at any depth, by statement or
    by import_module / __import__ with a literal name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and getattr(node.func, "attr", getattr(node.func, "id", None))
              in ("import_module", "__import__")):
            names = [str(node.args[0].value)]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names
                  if name.split(".")[0] == "scipy"]
    return found


def test_cli_import_skips_the_packages():
    loaded = json.loads(run_python(
        "import json, sys, fairscan.cli\n"
        "print(json.dumps(sorted(sys.modules)))"))
    assert not set(PACKAGES) & set(loaded)
    assert not [m for m in loaded if m.startswith("scipy")]


def test_import_orders_and_fallback_agree(tmp_path):
    direct = json.loads(run_python(AUDIT))
    scipy_first = json.loads(run_python("import scipy.sparse, scipy.special\n"
                                        + AUDIT))
    moved = json.loads(run_python(
        MOVED.format(origin=str(tmp_path / "__init__.py")) + AUDIT))
    # Loaded from the files: no scipy package, nor numpy.ma or numpy.f2py,
    # and scipy's packages still import and work afterwards.
    assert not set(PACKAGES) & set(direct["loaded"])
    assert not [m for m in direct["loaded"] if m.startswith("scipy")]
    # Already imported: reused. File missing: the normal import.
    assert scipy_first["reused"] == moved["reused"] == [True, True]
    assert {"scipy.sparse", "scipy.special"} <= set(moved["loaded"])
    for run in (direct, scipy_first, moved):
        assert run["product"] and run["xlogy_bits"]
        for key in ("positives", "extremes", "llr"):
            assert run[key] == direct[key], key


def test_only_the_loader_imports_scipy():
    assert scipy_imports(textwrap.dedent("""
        import numpy, scipy.stats as st
        def interval():
            from scipy import stats
            return importlib.import_module("scipy.special")
    """)) == ["2: scipy.stats", "4: scipy", "5: scipy.special"]
    found = {path.name: scipy_imports(path.read_text("utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    del found["_kernels.py"]
    assert {name: lines for name, lines in found.items() if lines} == {}


def private_reads(source: str, own: str) -> list[str]:
    """Every private name (one leading underscore, not a dunder) of a
    fairscan module other than ``own`` that ``source`` imports from it, or
    reads as an attribute of a name bound to that module. Importing a
    private module, such as _kernels, is not a private read."""
    modules = {path.stem for path in SRC.glob("*.py")}
    found, bound = [], set()

    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if not node.level:
                if name.split(".")[0] != "fairscan":
                    continue
                name = name.removeprefix("fairscan").lstrip(".")
            if (name or "__init__") == own:
                continue
            for alias in node.names:
                if not name and alias.name in modules:
                    if alias.name != own:
                        bound.add(alias.asname or alias.name)
                elif private(alias.name):
                    found.append(f"{node.lineno}: {alias.name}")
        elif isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name for alias in node.names
                      if alias.name.split(".")[0] == "fairscan"
                      and alias.name.split(".")[-1] != own}
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and ast.unparse(node.value) in bound):
            found.append(f"{node.lineno}: {node.attr}")
    return sorted(found, key=lambda line: int(line.split(":")[0]))


def test_no_module_reads_another_modules_private_names():
    assert private_reads(textwrap.dedent("""
        from .scanner import _EDGE_BATCH, as_scanner
        from . import scanner as sc, _kernels
        import fairscan.scanner
        from fairscan.pipeline import _seeds, __all__
        def cap():
            return sc._BAND_VALUES + fairscan.scanner._BLOCK_WORLDS
        sc.as_scanner, _kernels.sparsetools, _kernels._load
        from .likelihood import _own
    """), "likelihood") == ["2: _EDGE_BATCH", "5: _seeds", "7: _BAND_VALUES",
                            "7: _BLOCK_WORLDS", "8: _load"]
    found = {path.name: private_reads(path.read_text("utf-8"), path.stem)
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def thread_constructions(source: str) -> list[str]:
    """The top-level name enclosing each ``Thread(...)`` or
    ``threading.Thread(...)`` call of ``source``."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] == "Thread"):
                found.append(getattr(top, "name", f"line {top.lineno}"))
    return found


def test_only_the_world_pool_constructs_threads():
    assert thread_constructions(textwrap.dedent("""
        import threading
        from threading import Thread
        def pool():
            def helper():
                return threading.Thread(target=print)
            return Thread(target=helper)
        worker = threading.Thread(target=print)
    """)) == ["pool", "pool", "line 8"]
    found = {path.stem: thread_constructions(path.read_text("utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: tops for name, tops in found.items() if tops} == {
        "montecarlo": ["_run_pool"]}
