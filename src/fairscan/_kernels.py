"""scipy's CSR product kernels and xlogy, loaded from their compiled files:
the scipy.sparse and scipy.special initialisers import much of scipy,
numpy.ma and numpy.f2py, most of the CLI's start-up. find_spec locates
scipy's directory without importing it."""

import importlib.util
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path


def _load(name: str, fallback: str):
    """Module ``name``: the one imported, else one loaded from its file,
    else (another scipy layout) the normal import of ``fallback``."""
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    stem = Path((scipy and scipy.origin) or "").parent.joinpath(
        *name.split(".")[1:])
    for path in (stem.with_name(stem.name + s) for s in EXTENSION_SUFFIXES):
        if scipy and path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            # CPython registers a single-phase module but not its package,
            # so a later import of the package must load it again.
            sys.modules.pop(name, None)
            return module
    return importlib.import_module(fallback)


sparsetools = _load("scipy.sparse._sparsetools", "scipy.sparse._sparsetools")
xlogy = _load("scipy.special._special_ufuncs", "scipy.special").xlogy
