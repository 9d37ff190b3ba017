"""Seeded self-verification suites.

Each suite runs a list of invariant checks whose expected values come
from independent oracles (brute-force summation, closed forms, or a
second evaluation route) and reports the measured error against a
tolerance.  The CLI ``verify`` subcommand and the test suite both drive
these functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .em2d import (
    Rect,
    brute_force_sum_2d,
    em_sum_1d,
    em_sum_2d,
    invcube_function,
    poly_function,
    wave_function,
)
from .lattice import lattice_coordinates, lattice_new
from .lerch import LerchParams, lerch_coffey, lerch_series
from .weil import WeilParams, eisenstein_series, weil_direct, weil_integral


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.error <= self.tol


def verify_em2d(seed: int = 42, tol: float = 1e-8) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    # 1-D identity against a direct sum
    alpha = rng.uniform(-3.0, -1.0)
    beta = rng.uniform(5.0, 9.0)
    c0, c1 = rng.uniform(-1.0, 1.0, size=2)
    got = em_sum_1d(
        lambda x: c0 * x * x + c1 * x,
        lambda x: 2 * c0 * x + c1,
        alpha,
        beta,
        tol=tol / 10,
    )
    want = sum(c0 * n * n + c1 * n for n in range(math.floor(alpha) + 1, math.floor(beta) + 1))
    out.append(CheckResult("em2d", "1d-identity-vs-direct-sum", abs(got - want), tol))

    # 2-D identity against brute force for seeded polynomial and wave
    makers = (
        ("poly", lambda: poly_function(rng.uniform(-2.0, 2.0, size=6))),
        ("wave", lambda: wave_function(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8), rng.uniform(-1.0, 1.0))),
    )
    for label, make in makers:
        f = make()
        r = Rect(
            rng.uniform(-2.0, 0.0),
            rng.uniform(4.0, 7.0),
            rng.uniform(-2.0, 0.0),
            rng.uniform(4.0, 7.0),
        )
        br = em_sum_2d(f, r, tol=tol / 10)
        want = brute_force_sum_2d(f.phi, r)
        scale = 1.0 + abs(want)
        out.append(
            CheckResult("em2d", f"2d-identity-{label}-vs-brute-force", abs(br.total - want) / scale, tol)
        )

    # 2-D identity on a complex integrand with rapid decay
    f = invcube_function(complex(rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)))
    r = Rect(2.0, 9.0, 2.0, 9.0)
    br = em_sum_2d(f, r, tol=tol / 10)
    want = brute_force_sum_2d(f.phi, r)
    out.append(CheckResult("em2d", "2d-identity-complex-vs-brute-force", abs(br.total - want), tol))
    return out


def verify_weil(seed: int = 42, tol: float = 1e-8) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    w2 = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.3))
    lat = lattice_new(1.0, w2)
    a = complex(rng.uniform(0.1, 0.8), rng.uniform(0.1, 0.6))
    k = int(rng.integers(3, 6))
    inner_tol = tol / 10

    e = weil_direct(WeilParams(lat, a, k), tol=inner_tol).value
    scale = 1.0 + abs(e)

    # periodicity: shifting a by a lattice vector re-indexes the sum
    for label, w in (("w1", lat.w1), ("w2", lat.w2)):
        shifted = weil_direct(WeilParams(lat, a + w, k), tol=inner_tol).value
        out.append(CheckResult("weil", f"periodicity-{label}", abs(shifted - e) / scale, tol))

    # parity: E_k(-a) = (-1)^k E_k(a)
    neg = weil_direct(WeilParams(lat, -a, k), tol=inner_tol).value
    out.append(CheckResult("weil", "parity", abs(neg - (-1) ** k * e) / scale, tol))

    # homogeneity: E_k(la, lW) = l^-k E_k(a, W)
    lam = 2j
    lat2 = lattice_new(lam * lat.w1, lam * lat.w2)
    hom = weil_direct(WeilParams(lat2, lam * a, k), tol=inner_tol).value
    out.append(CheckResult("weil", "homogeneity", abs(hom - lam ** (-k) * e) / scale, tol))

    # method equivalence: summation vs integral representation
    q = weil_integral(WeilParams(lat, a, k), tol=inner_tol)
    out.append(CheckResult("weil", "direct-vs-integral", abs(q.value - e) / scale, tol))

    # the same on an unreduced basis of the lattice, a unimodular change
    other = lattice_new(2 * lat.w1 + lat.w2, 3 * lat.w1 + 2 * lat.w2)
    q = weil_integral(WeilParams(other, a, k), tol=inner_tol)
    out.append(CheckResult("weil", "unreduced-basis-direct-vs-integral", abs(q.value - e) / scale, tol))

    # the same with the pole 1e-4 off an integer row, which the band holds
    c = lattice_coordinates(lat, -a)
    p = WeilParams(lat, -(c.x0 * lat.w1 + (round(c.y0) + 1e-4) * lat.w2), k)
    d = weil_direct(p, tol=inner_tol).value
    q = weil_integral(p, tol=inner_tol)
    out.append(CheckResult("weil", "near-row-direct-vs-integral", abs(q.value - d) / (1.0 + abs(d)), tol))

    # structural zero: odd Eisenstein series vanish
    out.append(CheckResult("weil", "eisenstein-odd-zero", abs(eisenstein_series(lat, 5, tol=inner_tol)), tol))
    return out


def verify_lerch(seed: int = 42, tol: float = 1e-8) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    inner_tol = tol / 10

    # series vs integral representation at seeded interior points
    for i in range(3):
        p = LerchParams(
            z=rng.uniform(0.1, 0.85),
            s=complex(rng.uniform(1.2, 4.0), rng.uniform(-1.0, 1.0)),
            a=rng.uniform(0.5, 3.0),
        )
        s_val = lerch_series(p, tol=inner_tol)
        c_val = lerch_coffey(p, tol=inner_tol)
        scale = 1.0 + abs(s_val)
        out.append(CheckResult("lerch", f"series-vs-integral-{i}", abs(s_val - c_val) / scale, tol))

    # closed form: zeta(2) = pi^2/6 through the integral path
    z2 = lerch_coffey(LerchParams(1.0, 2.0, 1.0), tol=inner_tol)
    out.append(CheckResult("lerch", "zeta2-closed-form", abs(z2 - math.pi**2 / 6), tol))

    # ladder: Phi(z,s,a) - z*Phi(z,s,a+1) = a^-s
    z, s, a = 0.6, 2.5, rng.uniform(0.5, 2.0)
    lhs = lerch_series(LerchParams(z, s, a), tol=inner_tol) - z * lerch_series(
        LerchParams(z, s, a + 1.0), tol=inner_tol
    )
    out.append(CheckResult("lerch", "contiguous-ladder", abs(lhs - a ** -s), tol))

    # z = 1 near the pole at s = 1: Euler-MacLaurin tail vs integral
    p = LerchParams(1.0, rng.uniform(1.05, 1.5), rng.uniform(0.5, 3.0))
    s_val = lerch_series(p, tol=inner_tol)
    c_val = lerch_coffey(p, tol=inner_tol)
    out.append(CheckResult("lerch", "series-vs-integral-z1", abs(s_val - c_val) / (1.0 + abs(s_val)), tol))

    # |z| -> 1, where Coffey's segment runs over thousands of unit cells
    p = LerchParams(rng.uniform(0.998, 0.9995), rng.uniform(1.5, 3.0), rng.uniform(0.5, 2.0))
    s_val, c_val = lerch_series(p, tol=inner_tol), lerch_coffey(p, tol=inner_tol)
    out.append(CheckResult("lerch", "coffey-near-circle", abs(s_val - c_val) / (1.0 + abs(s_val)), tol))
    return out


#: the suites by name, in the order "all" runs them
SUITES = {"em2d": verify_em2d, "weil": verify_weil, "lerch": verify_lerch}


def run_suite(suite: str, seed: int = 42, tol: float = 1e-8) -> list[CheckResult]:
    if suite == "all":
        return [c for verify in SUITES.values() for c in verify(seed=seed, tol=tol)]
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {(*SUITES, 'all')}")
    return SUITES[suite](seed=seed, tol=tol)
