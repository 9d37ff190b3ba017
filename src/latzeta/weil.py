"""Weil's elliptic functions E_k(a, W) and the Eisenstein series G_k(W).

Two independent evaluation routes:

* ``weil_direct``: iterated lattice summation, inner index first with
  symmetric limits (the Eisenstein summation convention, which also
  defines the conditionally convergent cases k = 1, 2).  Rows are summed
  with +/-n pairing and Richardson acceleration; row pairs +/-m decay
  exponentially once the inner sums are accurate, so the outer sum
  terminates quickly.  ``eisenstein_series`` is the same sum at a = 0
  with the origin left out.
* ``weil_integral``: the integral representation J1 + J2 + J3 obtained
  from the two-dimensional Euler-MacLaurin formula: a full-line integral
  along the two edges y0 +/- eps of the excluded band around the pole
  row, plus two half-strip double integrals above and below the band.
  Only supported for k >= 3 (the 2-D pieces are not absolutely
  convergent below that).  For integer j >= 2 and c off the line,
  int_R (c + x w1)^(-j) dx = 0, so by Fubini every term free of P1(x)
  integrates to exactly 0 and is left out of the integrands.  What is
  left decays like |b|^-(k+1), faster than the decay order k passed to
  the quadrature, which therefore stays a valid bound.  The integrands
  take one reciprocal 1/b per point and build its integer powers from
  products (``_ipow``), updating arrays in place: numpy's complex ``**``
  goes through cpow, which cost most of the integrand's time.

(x0, y0) are the lattice coordinates of -a; when y0 falls on an integer
row no band of width < 1 can exclude that row from both strips, so the
dropped row is summed directly (the pole then lies on that row's line,
which rules out integrating along it) and reported as
``row_correction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bernoulli import p1
from .errors import PointOnLattice, SlowConvergence, UnsupportedDecay
from .lattice import Lattice, lattice_coordinates, nearest_lattice_distance_in_coords
from .quadrature import (
    _EPS_FLOOR,
    _accelerate,
    check_tol,
    integrate_half_strip,
    integrate_line,
)

#: lattice-coordinate distance below which a counts as a lattice point
LATTICE_POINT_TOL = 1e-9

_ROW_N_CAP = 1 << 21
_ROW_M_CAP = 2048


@dataclass(frozen=True)
class WeilParams:
    lat: Lattice
    a: complex
    k: int

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise ValueError(f"k must be an integer >= 1, got {self.k}")
        object.__setattr__(self, "k", int(self.k))
        if nearest_lattice_distance_in_coords(self.lat, -self.a) <= LATTICE_POINT_TOL:
            raise PointOnLattice(f"a = {self.a} lies on the lattice")


@dataclass(frozen=True)
class WeilReport:
    value: complex
    method: str  # "direct" | "integral"
    err: float
    j1: complex = 0j
    j2: complex = 0j
    j3: complex = 0j
    eps_used: float = 0.0
    row_correction: complex = 0j


def _row_sum(c: complex, w1: complex, k: int, tol: float):
    """Sum of (c + n w1)^(-k) over all integers n, as the symmetric limit.

    Terms are paired n, -n (which reproduces the symmetric partial sums
    exactly) and the N-doubling partial sums are extrapolated; the paired
    tail has a smooth 1/N expansion, so this converges for every k >= 1.
    The pairs are centred on the row point nearest the pole; a finite
    shift of the centre leaves the symmetric limit unchanged.  A term at
    c + n w1 = 0 is left out (the origin of G_k)."""
    c += round(-(c / w1).real) * w1
    partial = complex(c ** (-k)) if c else 0j
    levels = []
    prev_n = 0
    n_hi = 256
    while n_hi <= _ROW_N_CAP:
        n = np.arange(prev_n + 1, n_hi + 1, dtype=float)
        partial += complex(np.sum((c + n * w1) ** (-k) + (c - n * w1) ** (-k)))
        levels.append(partial)
        est, inc = _accelerate(levels)
        if inc <= tol:
            return est, inc
        prev_n, n_hi = n_hi, 2 * n_hi
    raise SlowConvergence(f"row sum at c = {c} did not converge to {tol}", best=partial)


def _eisenstein_sum(lat: Lattice, a: complex, k: int, tol: float):
    """Sum of (a + w)^(-k) over the lattice points w, inner symmetric sums
    over n first, then the outer symmetric sum over m.  Returns (value, err).

    The outer sum stays centred on m = 0 (for k = 1 the rows tend to the
    constants -/+ i pi / w1, so re-centring would change E_1), but it may
    not stop before it has passed the pole row."""
    check_tol(tol)
    w1, w2 = lat.w1, lat.w2
    pole_row = abs(lattice_coordinates(lat, -a).y0)
    row_tol = tol / 64
    value, err = _row_sum(a, w1, k, row_tol)
    row_mass = abs(value)
    pair_tol = tol / 8
    small_streak = 0
    m = 1
    while m <= _ROW_M_CAP:
        up, e_up = _row_sum(a + m * w2, w1, k, row_tol)
        dn, e_dn = _row_sum(a - m * w2, w1, k, row_tol)
        pair = up + dn
        value += pair
        err += e_up + e_dn
        row_mass += abs(up) + abs(dn)
        # outer row pairs decay exponentially; two consecutive small pairs
        # bound the remaining tail comfortably
        if abs(pair) < pair_tol:
            small_streak += 1
            if small_streak >= 2 and m >= 4 and m > pole_row + 1:
                # the rows' roundoff can exceed their extrapolation increments
                err += 2 * abs(pair) + _EPS_FLOOR * row_mass
                return value, err
        else:
            small_streak = 0
        m += 1
    raise SlowConvergence(f"outer Eisenstein sum did not settle within {_ROW_M_CAP} rows")


def weil_direct(p: WeilParams, tol: float = 1e-10) -> WeilReport:
    """E_k(a, W) by Eisenstein summation: inner symmetric sums over n,
    then the outer symmetric sum over m."""
    value, err = _eisenstein_sum(p.lat, p.a, p.k, tol)
    return WeilReport(value=value, method="direct", err=err)


def eisenstein_series(lat: Lattice, k: int, tol: float = 1e-10) -> complex:
    """G_k(W): sum of w^(-k) over nonzero lattice points, k >= 3."""
    if not (isinstance(k, (int, np.integer)) and k >= 3):
        raise UnsupportedDecay("eisenstein_series requires integer k >= 3")
    return _eisenstein_sum(lat, 0j, k, tol)[0]


def _ipow(r, n: int):
    """r**n for an integer n >= 2 by binary powering from the top bit of n:
    one new array, then squarings and products by r in place."""
    bits = bin(n)[3:]  # the bits below the leading 1
    out = r * r
    if bits[0] == "1":
        out *= r
    for bit in bits[1:]:
        out *= out
        if bit == "1":
            out *= r
    return out


def _strip_integrand(w1: complex, w2: complex, a: complex, k: int):
    """The half-strip integrand of J2 and J3, with b = a + x w1 + y w2:
    -k w1 b^-(k+1) P1(x) + k(k+1) w1 w2 b^-(k+2) P1(x) P1(y).
    The b^-k and -k w2 b^-(k+1) P1(y) terms are left out: each integrates
    to 0 along x on every row, hence (Fubini) over the strip."""

    def f(x, y):
        # g is updated in place, so at most three grids are alive at once
        r = 1 / (a + x * w1 + y * w2)
        g = (k + 1) * w2 * p1(y) * r
        g -= 1
        g *= _ipow(r, k + 1)
        g *= k * w1 * p1(x)
        return g

    return f


def _edge_integrand(w1: complex, w2: complex, a: complex, k: int, y_dn: float, y_up: float):
    """The line integrand of J1, the P1(x)-weighted derivative terms of the
    band edges y_dn < y_up, with b = a + x w1 + y w2:
    k w1 P1(x) (P1(y_dn) b(x, y_dn)^-(k+1) - P1(y_up) b(x, y_up)^-(k+1)).
    The edges' b^-k P1(y) terms integrate to 0 over the line."""
    c_dn, c_up = a + y_dn * w2, a + y_up * w2
    p1_dn, p1_up = p1(y_dn), p1(y_up)

    def f(x):
        return k * w1 * p1(x) * (
            p1_dn * _ipow(1 / (c_dn + x * w1), k + 1) - p1_up * _ipow(1 / (c_up + x * w1), k + 1)
        )

    return f


def _choose_eps(y0: float, eps: float):
    """Adjust eps so the open-closed band (y0 - eps, y0 + eps] contains no
    integer, or flag the integer row that cannot be avoided.

    Returns (eps_used, integer_row or None)."""
    nearest = round(y0)
    d = abs(y0 - nearest)
    if d <= LATTICE_POINT_TOL:
        # no band of half-width < 1 can exclude this row; cap eps so no
        # second integer enters and sum the row separately
        return min(eps, 0.45), int(nearest)
    d_up = math.floor(y0) + 1 - y0
    d_down = y0 - math.floor(y0)
    limit = min(d_up, d_down)
    if eps < limit:
        return eps, None
    return 0.9 * limit, None


def weil_integral(p: WeilParams, eps: float = 0.25, tol: float = 1e-8) -> WeilReport:
    """E_k(a, W) via the integral representation J1 + J2 + J3 (k >= 3)."""
    if p.k <= 2:
        raise UnsupportedDecay(
            "the 2-D integrals are not absolutely convergent for k <= 2; "
            "use weil_direct (Eisenstein summation)"
        )
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    check_tol(tol)
    w1, w2, a, k = p.lat.w1, p.lat.w2, p.a, p.k
    coords = lattice_coordinates(p.lat, -a)
    x0, y0 = coords.x0, coords.y0
    eps_used, missed_row = _choose_eps(y0, eps)
    y_up = y0 + eps_used
    y_dn = y0 - eps_used
    part_tol = tol / 4

    # decay_order stays k below: it is a valid (conservative) bound for the
    # remaining terms, which decay like |b|^-(k+1)
    q1 = integrate_line(_edge_integrand(w1, w2, a, k, y_dn, y_up), decay_order=float(k), tol=part_tol)

    def pole_distance(x, y):
        return abs(a + x * w1 + y * w2)

    # J2 above the band, J3 below it
    q2, q3 = (
        integrate_half_strip(
            _strip_integrand(w1, w2, a, k), y_e, direction, decay_order=float(k), tol=part_tol, hot_x=x0, pole=pole_distance
        )
        for y_e, direction in ((y_up, "up"), (y_dn, "down"))
    )

    row_correction = 0j
    row_err = 0.0
    if missed_row is not None:
        # the pole sits on this row's line, so the row cannot go through the
        # 1-D integral identity; its lattice points are summed directly
        row_correction, row_err = _row_sum(a + missed_row * w2, w1, k, part_tol)
        # the row holds the lattice point nearest the pole, so its sum can be
        # large enough for roundoff to exceed the extrapolation increment
        row_err += _EPS_FLOOR * abs(row_correction)

    value = q1.value + q2.value + q3.value + row_correction
    err = q1.err + q2.err + q3.err + row_err
    return WeilReport(
        value=value,
        method="integral",
        err=err,
        j1=q1.value,
        j2=q2.value,
        j3=q3.value,
        eps_used=eps_used,
        row_correction=row_correction,
    )
