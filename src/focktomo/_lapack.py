"""The LAPACK and BLAS routines focktomo calls, without importing ``scipy.linalg``.

That package's import costs a process about 0.2 s and 16 MiB, yet only two of its f2py
extensions, ``_flapack`` and ``_fblas``, are called.  After ``import scipy`` (its platform
set-up, such as DLL paths on Windows) they are loaded from scipy's ``linalg`` directory
under their own names and entered in ``sys.modules``, or taken from there if already
loaded, so each routine is the object ``scipy.linalg.lapack`` or ``.blas`` exports and no
extension is initialised twice.
"""

import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from pathlib import Path

import scipy


def _extension(name: str):
    """The extension module ``scipy.linalg.<name>``, loaded once, without its package."""
    qualified = f"scipy.linalg.{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    directory = str(Path(scipy.__file__).with_name("linalg"))
    spec = PathFinder.find_spec(qualified, [directory])
    if spec is None:
        raise ImportError(f"no extension module {qualified} in {directory}", name=qualified)
    module = sys.modules[qualified] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _extension("_flapack")
dgeqrf, dgesdd, dgesdd_lwork = _flapack.dgeqrf, _flapack.dgesdd, _flapack.dgesdd_lwork
dormqr, dtrtri, dtrtrs = _flapack.dormqr, _flapack.dtrtri, _flapack.dtrtrs
dtrmm = _extension("_fblas").dtrmm
