"""Smoke test of the benchmark's checkers.

    python3 -m pytest -q perfbench/test_checkers.py

Known closed forms pass the acceptance rule, and a perturbed value is
counted as a failed operation by the same loop the benchmark times.
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

mpmath = pytest.importorskip("mpmath")

import latzeta as lz  # noqa: E402
import oracles  # noqa: E402
from cases import Case  # noqa: E402
from run import run_rounds  # noqa: E402
from speed import Meter  # noqa: E402

# G_4 of the square lattice Z + Zi: Gamma(1/4)^8 / (960 pi^2)
G4_SQUARE = math.gamma(0.25) ** 8 / (960 * math.pi**2)


def test_zeta2_passes():
    ref = oracles.zeta_ref(2.0)
    assert abs(ref - math.pi**2 / 6) < 1e-15
    assert oracles.within(lz.riemann_zeta(2.0, tol=1e-10), ref, 1e-10)


def test_g4_square_passes():
    ref = oracles.eisenstein_ref(1.0, 1j, 4)
    assert abs(ref - G4_SQUARE) < 1e-13
    assert oracles.within(lz.eisenstein_series(lz.lattice_new(1.0, 1j), 4, tol=1e-10), ref, 1e-10)


def test_weil_reference_matches_both_routes():
    p = lz.WeilParams(lz.lattice_new(1.0, 1j), 0.3 + 0.2j, 4)
    ref = oracles.weil_ref(1.0, 1j, 0.3 + 0.2j, 4)
    assert oracles.within(lz.weil_direct(p, tol=1e-10).value, ref, 1e-10)
    assert oracles.within(lz.weil_integral(p, tol=1e-8).value, ref, 1e-8)


def test_perturbed_value_counts_as_failed():
    exact = math.pi**2 / 6
    good = Case("zeta(2)", lambda: lz.riemann_zeta(2.0, tol=1e-10), ("zeta_ref", (2.0,)), 1e-10)
    bad = Case("zeta(2) + 1e-8", lambda: lz.riemann_zeta(2.0, tol=1e-10) + 1e-8, ("zeta_ref", (2.0,)), 1e-10)
    result = run_rounds([good, bad], [exact, exact], 0.0, Meter())
    assert result.rounds == 1
    assert result.failures == [0, 1]
    assert "misses tol" in result.first_error[1]


def test_parity_partner_checked():
    # E_3(-a) must equal -E_3(a); a value with the wrong sign fails the
    # parity check even though it is compared against its own reference
    value = 2.0 + 1.0j
    plus = Case("E(a)", lambda: value, ("", ()), 1e-10)
    minus = Case("E(-a)", lambda: value, ("", ()), 1e-10, partner=0, sign=-1)
    result = run_rounds([plus, minus], [value, value], 0.0, Meter())
    assert result.failures == [0, 1]
    assert "parity" in result.first_error[1]


def test_raised_convergence_error_counts_as_failed():
    def raises():
        raise lz.NoConvergence("budget exhausted")

    result = run_rounds([Case("raises", raises, ("", ()), 1e-10)], [0j], 0.0, Meter())
    assert result.failures == [1]
    assert result.first_error[0].startswith("NoConvergence")
