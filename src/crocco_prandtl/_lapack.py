"""dgtsv (the strip march), dgttrf and dgttrs (the model run) from scipy's
f2py extension `scipy.linalg._flapack`, which needs only numpy.  Importing
them through `scipy.linalg` would run its `__init__` and array-API shim
(numpy.f2py, numpy.testing, numpy.ma): more than half of the package's
import.  So the extension file is loaded directly, the importlib recipe
"Importing a source file directly", under its real name in sys.modules,
where a later `import scipy.linalg` finds and reuses it.  Both marchers
hold their tridiagonal systems row by row and solve them as one uncoupled
system in the layout of `uncoupled_bands`."""

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np

NAME = "scipy.linalg._flapack"


def _flapack():
    """scipy.linalg._flapack, loaded from its file unless already imported."""
    if NAME in sys.modules:
        return sys.modules[NAME]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    folder = Path(scipy.origin).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            loader = importlib.machinery.ExtensionFileLoader(NAME, str(path))
            spec = importlib.util.spec_from_file_location(NAME, path, loader=loader)
            module = importlib.util.module_from_spec(spec)
            sys.modules[NAME] = module
            loader.exec_module(module)
            return module
    from importlib.metadata import version
    raise ImportError(f"scipy {version('scipy')} has no _flapack extension in {folder}",
                      name=NAME)


_module = _flapack()
dgtsv, dgttrf, dgttrs = _module.dgtsv, _module.dgttrf, _module.dgttrs


def uncoupled_bands(sub, dia, sup) -> tuple:
    """The tridiagonal systems held row by row (sub[:, 0] and sup[:, -1]
    ignored) as the bands (dl, d, du) of one uncoupled system: the couplings
    between rows zeroed, each band raveled.  dl and du are private copies."""
    lower, upper = np.array(sub, float), np.array(sup, float)
    lower[:, 0] = upper[:, -1] = 0.0
    return lower.ravel()[1:], dia.ravel(), upper.ravel()[:-1]
