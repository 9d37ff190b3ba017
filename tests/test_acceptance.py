"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line with its measured worst error
and runtime, and asserts the stated tolerance and time budget.
"""

import cmath
import math
import time

import numpy as np
import pytest

from latzeta.em2d import Function2D, Rect, brute_force_sum_2d, em_sum_1d, em_sum_2d
from latzeta.lattice import lattice_new
from latzeta.lerch import LerchParams, lerch_coffey, lerch_series, riemann_zeta
from latzeta.quadrature import integrate_segment
from latzeta.weil import WeilParams, eisenstein_series, weil_direct, weil_integral

SQUARE = lattice_new(1.0, 1j)
HEX = lattice_new(1.0, cmath.exp(1j * cmath.pi / 3))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")


def _random_c2_function(rng: np.random.Generator) -> Function2D:
    """A random smooth function: quadratic polynomial plus a wave term,
    with exact partial derivatives."""
    c = rng.uniform(-1.0, 1.0, size=6)
    amp = rng.uniform(-1.0, 1.0)
    u = rng.uniform(0.2, 0.9)
    v = rng.uniform(0.2, 0.9)
    s = rng.uniform(-2.0, 2.0)

    def phi(x, y):
        poly = c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y
        return poly + amp * np.cos(u * x + s) * np.sin(v * y)

    def fx(x, y):
        return c[1] + 2 * c[3] * x + c[4] * y - amp * u * np.sin(u * x + s) * np.sin(v * y)

    def fy(x, y):
        return c[2] + c[4] * x + 2 * c[5] * y + amp * v * np.cos(u * x + s) * np.cos(v * y)

    def fxy(x, y):
        return c[4] - amp * u * v * np.sin(u * x + s) * np.cos(v * y)

    return Function2D(phi, fx, fy, fxy)


def test_criterion_1_em2d_exactness():
    rng = np.random.default_rng(1001)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(50):
        f = _random_c2_function(rng)
        a1 = rng.uniform(-3.0, 0.0)
        a2 = rng.uniform(-3.0, 0.0)
        r = Rect(a1, a1 + rng.uniform(2.0, 11.0), a2, a2 + rng.uniform(2.0, 11.0))
        got = em_sum_2d(f, r, tol=1e-9).total
        want = brute_force_sum_2d(f.phi, r)
        worst = max(worst, abs(got - want))
    dt = time.monotonic() - t0
    ok = worst <= 1e-8 and dt < 30.0
    _report(1, ok, f"worst |em_sum_2d - brute_force| = {worst:.3e} over 50 functions, {dt:.1f}s")
    assert worst <= 1e-8
    assert dt < 30.0


def test_criterion_2_em1d_convention():
    t0 = time.monotonic()
    worst = 0.0
    for beta in (1.0, 5.0, 10.0):
        s1 = em_sum_1d(lambda x: x, lambda x: 1.0 + 0.0 * x, 0.0, beta)
        s2 = em_sum_1d(lambda x: x * x, lambda x: 2.0 * x, 0.0, beta)
        worst = max(worst, abs(s1 - beta * (beta + 1) / 2))
        worst = max(worst, abs(s2 - beta * (beta + 1) * (2 * beta + 1) / 6))
    dt = time.monotonic() - t0
    ok = worst <= 1e-10 and dt < 1.0
    _report(2, ok, f"worst error = {worst:.3e} for sums of n and n^2, {dt:.2f}s")
    assert worst <= 1e-10
    assert dt < 1.0


def test_criterion_3_weil_method_equivalence():
    rng = np.random.default_rng(3003)
    t0 = time.monotonic()
    worst = 0.0
    for i in range(20):
        lat = lattice_new(1.0, complex(rng.uniform(-0.4, 0.4), rng.uniform(0.7, 1.4)))
        a = complex(rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.9))
        k = int(rng.integers(3, 7))
        p = WeilParams(lat, a, k)
        d = weil_direct(p, tol=1e-10).value
        q = weil_integral(p, tol=1e-8).value
        worst = max(worst, abs(q - d) / (1 + abs(d)))
    dt = time.monotonic() - t0
    ok = worst <= 1e-6 and dt < 120.0
    _report(3, ok, f"worst relative difference = {worst:.3e} over 20 pairs, {dt:.1f}s")
    assert worst <= 1e-6
    assert dt < 120.0


def test_criterion_4_eps_invariance():
    rng = np.random.default_rng(4004)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(10):
        lat = lattice_new(1.0, complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.3)))
        # place -a mid-way between integer rows, so that neither band
        # holds a row and the two values come from the strips alone
        x0 = rng.uniform(0.2, 0.8)
        y0 = rng.uniform(0.45, 0.55)
        a = -(x0 * lat.w1 + y0 * lat.w2)
        k = int(rng.integers(3, 6))
        p = WeilParams(lat, a, k)
        v1 = weil_integral(p, eps=0.25, tol=1e-8).value
        v2 = weil_integral(p, eps=0.4, tol=1e-8).value
        worst = max(worst, abs(v1 - v2) / (1 + abs(v1)))
    dt = time.monotonic() - t0
    ok = worst <= 1e-6 and dt < 60.0
    _report(4, ok, f"worst eps=0.25 vs eps=0.4 difference = {worst:.3e}, {dt:.1f}s")
    assert worst <= 1e-6
    assert dt < 60.0


def test_criterion_5_structural_zeros():
    t0 = time.monotonic()
    vals = {
        "G3(square)": eisenstein_series(SQUARE, 3, tol=1e-9),
        "G5(square)": eisenstein_series(SQUARE, 5, tol=1e-9),
        "G5(hex)": eisenstein_series(HEX, 5, tol=1e-9),
        "G6(square)": eisenstein_series(SQUARE, 6, tol=1e-9),
        "G4(hex)": eisenstein_series(HEX, 4, tol=1e-9),
    }
    dt = time.monotonic() - t0
    worst = max(abs(v) for v in vals.values())
    ok = worst <= 1e-8 and dt < 10.0
    _report(5, ok, f"worst |G| = {worst:.3e} across {sorted(vals)}, {dt:.1f}s")
    assert worst <= 1e-8
    assert dt < 10.0


def test_criterion_6_symmetries():
    t0 = time.monotonic()
    lam = 2j
    scaled = lattice_new(lam * SQUARE.w1, lam * SQUARE.w2)
    a = 0.3 + 0.2j
    worst = 0.0
    for k in (1, 2, 3, 4):
        e = weil_direct(WeilParams(SQUARE, a, k), tol=1e-10).value
        e_neg = weil_direct(WeilParams(SQUARE, -a, k), tol=1e-10).value
        e_scl = weil_direct(WeilParams(scaled, lam * a, k), tol=1e-10).value
        scale = 1 + abs(e)
        worst = max(worst, abs(e_neg - (-1) ** k * e) / scale)
        worst = max(worst, abs(e_scl - lam ** (-k) * e) / scale)
    dt = time.monotonic() - t0
    ok = worst <= 1e-8 and dt < 60.0
    _report(6, ok, f"worst parity/homogeneity defect = {worst:.3e} for k in 1..4, {dt:.1f}s")
    assert worst <= 1e-8
    assert dt < 60.0


def test_criterion_7_derivative_recursion():
    t0 = time.monotonic()
    h = 1e-4
    a = 0.3 + 0.2j
    worst = 0.0
    for k in (3, 4, 5):
        ep = weil_direct(WeilParams(SQUARE, a + h, k), tol=1e-11).value
        em = weil_direct(WeilParams(SQUARE, a - h, k), tol=1e-11).value
        want = -k * weil_direct(WeilParams(SQUARE, a, k + 1), tol=1e-11).value
        worst = max(worst, abs((ep - em) / (2 * h) - want) / abs(want))
    dt = time.monotonic() - t0
    ok = worst <= 1e-4 and dt < 30.0
    _report(7, ok, f"worst finite-difference vs -k*E_(k+1) = {worst:.3e}, {dt:.1f}s")
    assert worst <= 1e-4
    assert dt < 30.0


def test_criterion_8_lerch_equivalence():
    rng = np.random.default_rng(8008)
    t0 = time.monotonic()
    worst = 0.0
    for i in range(50):
        z = rng.uniform(0.02, 0.9)
        if i % 2 == 0:
            s = complex(rng.uniform(1.2, 5.0), 0.0)
        else:
            s = complex(rng.uniform(1.2, 5.0), rng.uniform(-2.0, 2.0))
        a = rng.uniform(0.5, 4.0)
        p = LerchParams(z, s, a)
        diff = abs(lerch_series(p, tol=1e-10) - lerch_coffey(p, tol=1e-10))
        worst = max(worst, diff)
    # independent zeta(2) oracle: 10^6 series terms plus the midpoint tail
    # integral (error far below 1e-12)
    n = np.arange(1, 10**6 + 1, dtype=float)
    oracle = float(np.sum(n**-2.0)) + 1.0 / (10**6 + 0.5)
    z2 = riemann_zeta(2.0, tol=1e-10)
    zeta_err = max(abs(z2 - oracle), abs(z2 - math.pi**2 / 6))
    dt = time.monotonic() - t0
    ok = worst <= 1e-8 and zeta_err <= 1e-8 and dt < 30.0
    _report(
        8, ok, f"worst sweep difference = {worst:.3e}, zeta(2) error = {zeta_err:.3e}, {dt:.1f}s"
    )
    assert worst <= 1e-8
    assert zeta_err <= 1e-8
    assert dt < 30.0


def test_criterion_9_row_correction_path():
    t0 = time.monotonic()
    p = WeilParams(SQUARE, -0.5 - 1j, 4)
    d = weil_direct(p, tol=1e-10).value
    q = weil_integral(p, tol=1e-8)
    rel = abs(q.value - d) / (1 + abs(d))
    dt = time.monotonic() - t0
    ok = rel <= 1e-6 and q.row_correction != 0 and dt < 30.0
    _report(
        9, ok, f"integer-row case relative error = {rel:.3e}, row_correction = {q.row_correction}, {dt:.1f}s"
    )
    assert q.row_correction != 0
    assert rel <= 1e-6
    assert dt < 30.0


def test_criterion_10_err_honesty():
    rng = np.random.default_rng(10010)
    t0 = time.monotonic()
    bounded = 0
    worst_ratio = 0.0
    for i in range(100):
        kind = i % 3
        lo = rng.uniform(-3.0, 0.0)
        hi = lo + rng.uniform(1.0, 8.0)
        if kind == 0:
            c = rng.uniform(-2.0, 2.0, size=4)

            def f(x, c=c):
                return c[0] + c[1] * x + c[2] * x**2 + c[3] * x**3

            def F(x, c=c):
                return c[0] * x + c[1] * x**2 / 2 + c[2] * x**3 / 3 + c[3] * x**4 / 4

        elif kind == 1:
            amp = rng.uniform(0.5, 2.0)
            om = rng.uniform(0.5, 6.0)
            ph = rng.uniform(0.0, 6.0)

            def f(x, amp=amp, om=om, ph=ph):
                return amp * np.sin(om * x + ph)

            def F(x, amp=amp, om=om, ph=ph):
                return -amp / om * np.cos(om * x + ph)

        else:
            amp = rng.uniform(0.5, 2.0)
            rate = rng.uniform(-1.0, 1.0)
            if abs(rate) < 0.05:
                rate = 0.5

            def f(x, amp=amp, rate=rate):
                return amp * np.exp(rate * x)

            def F(x, amp=amp, rate=rate):
                return amp / rate * np.exp(rate * x)

        q = integrate_segment(f, lo, hi, tol=1e-10)
        truth = float(F(hi) - F(lo))
        true_err = abs(q.value - truth)
        floor = 1e-15 * (1.0 + abs(truth))
        if true_err <= q.err + floor:
            bounded += 1
        worst_ratio = max(worst_ratio, true_err / (q.err + floor))
    dt = time.monotonic() - t0
    ok = bounded >= 95 and worst_ratio <= 10.0 and dt < 30.0
    _report(
        10,
        ok,
        f"err bounded truth in {bounded}/100 cases, worst truth/err ratio = {worst_ratio:.2f}, {dt:.1f}s",
    )
    assert bounded >= 95
    assert worst_ratio <= 10.0
    assert dt < 30.0
