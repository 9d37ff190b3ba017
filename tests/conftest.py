"""Fixtures shared by the test modules: references from
``perfbench/oracles.py``, computed apart from latzeta at 30 digits."""

import functools
import importlib.util
from pathlib import Path

import pytest

ORACLES = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"


@pytest.fixture(scope="session")
def oracles():
    mpmath = pytest.importorskip("mpmath")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, mpmath


@pytest.fixture(scope="session")
def weil_ref(oracles):
    """The benchmark's reference E_k: Eisenstein rows in closed form at 30
    digits (mpmath), independent of latzeta."""
    return functools.cache(oracles[0].weil_ref)


@pytest.fixture(scope="session")
def row_ref(oracles):
    """R_j(c) = sum_n (c + n w1)^-j, the symmetric limit, as
    w1^-j ``oracles._row``(c / w1)."""
    module, mpmath = oracles

    def row(c, w1, j):
        with mpmath.workdps(30):
            w = mpmath.mpc(w1)
            return complex(w**-j * module._row(mpmath.mpc(c) / w, j, module._cot_derivative_poly(j)))

    return row
