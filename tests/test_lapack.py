"""focktomo reaches scipy's LAPACK and BLAS wrappers without importing scipy.linalg.

The import checks each run in a fresh interpreter, since this one has imported
scipy.linalg already.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import focktomo
from focktomo import _lapack
from focktomo import tomography as tg

SRC = str(Path(focktomo.__file__).resolve().parents[1])

LAPACK = ("dgeqrf", "dgesdd", "dgesdd_lwork", "dormqr", "dtrtri", "dtrtrs")


def run_fresh(source: str) -> str:
    """Run ``source`` in a new interpreter that imports this focktomo; its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_the_cli_runs_without_importing_scipy_linalg():
    out = run_fresh(
        """
        import sys
        import focktomo, focktomo.cli as cli
        assert cli.main(["bounds", "--photons", "1:2", "--modes", "2", "--meas-modes", "2:3"]) == 0
        print("scipy.linalg" in sys.modules, "scipy.linalg._flapack" in sys.modules)
        """
    )
    assert out.splitlines()[-1] == "False True"


def test_routines_come_from_scipy_linalg_when_it_is_loaded_first():
    run_fresh(
        f"""
        import scipy.linalg
        from focktomo import _lapack
        for name in {LAPACK!r}:
            assert getattr(_lapack, name) is getattr(scipy.linalg.lapack, name), name
        assert _lapack.dtrmm is scipy.linalg.blas.dtrmm
        """
    )


def test_scipy_linalg_loaded_later_takes_the_same_extensions_and_works():
    run_fresh(
        f"""
        import sys
        import numpy as np
        import focktomo
        from focktomo import _lapack
        flapack = sys.modules["scipy.linalg._flapack"]
        import scipy.linalg
        from scipy.linalg._flapack import dgeqrf
        assert sys.modules["scipy.linalg._flapack"] is flapack and dgeqrf is _lapack.dgeqrf
        for name in {LAPACK!r}:
            assert getattr(_lapack, name) is getattr(scipy.linalg.lapack, name), name
        assert _lapack.dtrmm is scipy.linalg.blas.dtrmm
        a = np.random.default_rng(0).random((5, 3))
        sigma = scipy.linalg.svd(a, compute_uv=False)
        assert np.allclose(sigma, np.linalg.svd(a, compute_uv=False))
        r, b = np.triu(a[:3]) + 3 * np.eye(3), a[:3, :2]
        assert np.allclose(r @ scipy.linalg.solve_triangular(r, b), b)
        """
    )


def test_a_missing_extension_is_named():
    with pytest.raises(ImportError, match=r"^no extension module scipy\.linalg\._nonesuch in "):
        _lapack._extension("_nonesuch")


@pytest.mark.parametrize("shape", [(40, 7), (7, 40), (23, 23)])
def test_singular_values_are_scipys_to_the_bit(shape):
    a = np.random.default_rng(sum(shape)).standard_normal(shape)
    expected = scipy.linalg.svd(a, compute_uv=False)
    for layout in (np.array(a), np.asfortranarray(a)):
        np.testing.assert_array_equal(tg._singular_values(layout), expected)
