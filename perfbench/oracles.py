"""Reference values computed apart from latzeta, and the pass/fail rule.

Nothing here imports latzeta: each reference comes from mpmath or from a
direct sum written out in this file, so a fault in the library cannot
leak into the value it is checked against.

* ``weil_ref`` / ``eisenstein_ref``: Eisenstein summation (inner index
  first, symmetric limits) with each inner row summed in closed form,

      sum_n (z + n)^-k = (-1)^(k-1) / (k-1)! * d^(k-1)/dz^(k-1) [pi cot(pi z)],

  which is the symmetric limit for every k >= 1.  With u = cot(pi z) the
  derivative d/dz u = -pi (1 + u^2) keeps every derivative a polynomial
  in u, so no numerical differentiation is needed.
* ``lerch_ref`` / ``zeta_ref``: ``mpmath.lerchphi`` and ``mpmath.zeta``.
* ``grid_sum_2d`` / ``grid_sum_1d``: plain sums over the integer points of
  a half-open rectangle or interval.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

_DPS = 30


def within(value: complex, ref: complex, tol: float) -> bool:
    """The acceptance rule: |value - ref| <= tol * (1 + |ref|)."""
    return abs(complex(value) - complex(ref)) <= tol * (1.0 + abs(complex(ref)))


def _cot_derivative_poly(k: int):
    """Coefficients (lowest degree first) of P with
    d^(k-1)/dz^(k-1) [pi cot(pi z)] = P(cot(pi z))."""
    poly = [mpmath.mpf(0), +mpmath.pi]
    for _ in range(k - 1):
        deriv = [i * poly[i] for i in range(1, len(poly))]
        nxt = [mpmath.mpf(0)] * (len(deriv) + 2)
        for i, c in enumerate(deriv):
            nxt[i] -= mpmath.pi * c
            nxt[i + 2] -= mpmath.pi * c
        poly = nxt
    return poly


def _row(z, k: int, poly):
    """sum over integers n of (z + n)^-k, symmetric limit for k = 1."""
    u = mpmath.cot(mpmath.pi * z)
    acc = mpmath.mpc(0)
    for c in reversed(poly):
        acc = acc * u + c
    return (-1) ** (k - 1) * acc / math.factorial(k - 1)


def _outer_sum(row_at, y_centre: float, skip_zero_row: bool = False):
    """Symmetric sum over rows m = 0, +-1, +-2, ... until the row pairs past
    the row nearest y_centre have died out (they decay exponentially)."""
    total = mpmath.mpc(0) if skip_zero_row else row_at(0)
    m = 1
    small = 0
    while True:
        pair = row_at(m) + row_at(-m)
        total += pair
        if m > abs(y_centre) + 2 and abs(pair) <= mpmath.mpf(10) ** (-_DPS + 4) * (1 + abs(total)):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
        m += 1
        if m > 100000:
            raise RuntimeError("reference outer sum did not settle")


def weil_ref(w1: complex, w2: complex, a: complex, k: int) -> complex:
    """E_k(a, W) = sum_m sum_n (a + n w1 + m w2)^-k by Eisenstein summation."""
    with mpmath.workdps(_DPS):
        w1m, w2m, am = mpmath.mpc(w1), mpmath.mpc(w2), mpmath.mpc(a)
        poly = _cot_derivative_poly(k)
        scale = w1m ** (-k)
        # imaginary part of a / w1 in units of Im(w2 / w1): the row of the pole
        tau = w2m / w1m
        y_pole = float(mpmath.im(am / w1m) / mpmath.im(tau))
        total = _outer_sum(lambda m: _row((am + m * w2m) / w1m, k, poly), y_pole)
        return complex(scale * total)


def eisenstein_ref(w1: complex, w2: complex, k: int) -> complex:
    """G_k(W) = sum of w^-k over the nonzero lattice points, k >= 3.

    Odd k is 0 by the symmetry w -> -w; it is returned as exactly 0 so the
    check is the property itself."""
    if k % 2 == 1:
        return 0j
    with mpmath.workdps(_DPS):
        w1m, w2m = mpmath.mpc(w1), mpmath.mpc(w2)
        poly = _cot_derivative_poly(k)
        tau = w2m / w1m
        central = 2 * mpmath.zeta(k)  # m = 0 row without the origin
        rows = _outer_sum(lambda m: _row(m * tau, k, poly), 0.0, skip_zero_row=True)
        return complex(w1m ** (-k) * (central + rows))


def lerch_ref(z: complex, s: complex, a: complex) -> complex:
    """Phi(z, s, a) = sum_{n>=0} z^n / (a + n)^s."""
    with mpmath.workdps(_DPS):
        return complex(mpmath.lerchphi(z, s, a))


def zeta_ref(s: complex, a: complex = 1.0) -> complex:
    """Hurwitz zeta(s, a); a = 1 is the Riemann zeta."""
    with mpmath.workdps(_DPS):
        return complex(mpmath.zeta(s, a))


def _integers(lo: float, hi: float) -> np.ndarray:
    """Integers n with lo < n <= hi."""
    return np.arange(math.floor(lo) + 1, math.floor(hi) + 1, dtype=float)


def grid_sum_2d(phi, rect) -> complex:
    """Sum of phi(n, m) over integer pairs in (a1, b1] x (a2, b2]."""
    a1, b1, a2, b2 = rect
    xs, ys = np.meshgrid(_integers(a1, b1), _integers(a2, b2))
    vals = np.asarray(phi(xs, ys), dtype=complex).ravel()
    return complex(math.fsum(vals.real), math.fsum(vals.imag))


def grid_sum_1d(phi, lo: float, hi: float) -> complex:
    """Sum of phi(n) over integers n in (lo, hi]."""
    vals = np.asarray(phi(_integers(lo, hi)), dtype=complex)
    return complex(math.fsum(vals.real), math.fsum(vals.imag))
