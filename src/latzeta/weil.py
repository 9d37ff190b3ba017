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
  J1 along the two edges y0 +/- eps of the excluded band around the pole
  row, plus the half-strip double integrals J2 and J3 above and below the
  band, taken as one integral J2 + J3 (``strips``) by one doubling
  driver.  Only supported for k >= 3 (the 2-D pieces are not absolutely
  convergent below that), where E_k depends on the lattice alone, so both
  routes sum on its Lagrange-Gauss reduced basis.  For integer j >= 2 and c off the line,
  int_R (c + x w1)^(-j) dx = 0, so by Fubini every term free of P1(x)
  integrates to exactly 0 and is left out of the integrands.  What is
  left decays like |b|^-(k+1), faster than the decay order k passed to
  the quadrature, which therefore stays a valid bound.  The integrands
  take one reciprocal 1/b per point and build its integer powers from
  products (``_ipow``), updating arrays in place: numpy's complex ``**``
  goes through cpow, which cost most of the integrand's time.

(x0, y0) are the lattice coordinates of -a.  The strips leave out the
band (y0 - eps, y0 + eps], which holds at most one integer row since
eps < 1/2.  That row is summed by the 1-D Euler-MacLaurin formula (two
Hurwitz zeta values, ``lerch._hurwitz_em``) and reported as
``row_correction``; the pole stays eps from both band edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bernoulli import frac, p1
from .errors import ConvergenceError, PointOnLattice, PoleNearDomain, SlowConvergence, UnsupportedDecay
from .lattice import Lattice, lattice_coordinates, nearest_lattice_distance_in_coords, reduce
from .lerch import _hurwitz_em
from .quadrature import _EPS_FLOOR, _accelerate, check_tol, integrate_half_strip, integrate_line

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
    #: J2 + J3, the half-strips above and below the band as one integral
    strips: complex = 0j
    eps_used: float = 0.0
    row_correction: complex = 0j
    #: the basis (w1, w2) that the sum ran on and the parts refer to
    basis: tuple = ()
    #: (stop rule, radius) of J1's line and of the strips (``_improper``)
    stops: tuple = ()


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
    """E_k(a, W) by Eisenstein summation: inner symmetric sums over n, then
    the outer one over m; for k >= 3 on the reduced basis."""
    lat = reduce(p.lat) if p.k >= 3 else p.lat
    value, err = _eisenstein_sum(lat, p.a, p.k, tol)
    return WeilReport(value=value, method="direct", err=err, basis=(lat.w1, lat.w2))


def eisenstein_series(lat: Lattice, k: int, tol: float = 1e-10) -> complex:
    """G_k(W): sum of w^(-k) over nonzero lattice points, k >= 3."""
    if not (isinstance(k, (int, np.integer)) and k >= 3):
        raise UnsupportedDecay("eisenstein_series requires integer k >= 3")
    return _eisenstein_sum(reduce(lat), 0j, k, tol)[0]


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


def _band_row(a: complex, w1: complex, w2: complex, k: int, n: int, tol: float):
    """Row n, sum_m (c + m w1)^-k with c = a + n w2, by the 1-D Euler-MacLaurin
    formula: with u = c/w1 and d = u - round(Re u) it is
    w1^-k [d^-k + zeta(k, 1+d) + (-1)^k zeta(k, 1-d)], and Re(1 +/- d) >= 1/2
    keeps `_hurwitz_em`'s remainder bound.  Returns (value, err); err adds
    the terms' roundoff and, through k (|d|^-(k+1) + 2^(k+2)), that of d."""
    u = (a + n * w2) / w1
    d = u - round(u.real)
    scale = abs(w1) ** k
    (zp, ep), (zm, em) = (_hurwitz_em(k, 1 + sign * d, tol * scale / 2) for sign in (1, -1))
    lead = d**-k
    delta_d = _EPS_FLOOR * ((abs(a) + abs(n * w2)) / abs(w1) + abs(u))
    err = ep + em + _EPS_FLOOR * (abs(lead) + abs(zp) + abs(zm))
    err += k * (abs(d) ** -(k + 1) + 2.0 ** (k + 2)) * delta_d
    return (lead + zp + (-1) ** k * zm) / w1**k, err / scale


def weil_integral(p: WeilParams, eps: float = 0.25, tol: float = 1e-8) -> WeilReport:
    """E_k(a, W) via the integral representation J1 + J2 + J3 (k >= 3), on
    the reduced basis (``lattice.reduce``) that the report's ``basis`` names.

    The strips leave out the band (y0 - eps, y0 + eps] around the pole row,
    with eps as given.  The band holds at most one integer row, found from the
    same floats that P1 sees at the edges; it is summed by `_band_row` and
    reported as ``row_correction``.  The pole lies eps |det| / |w1| from both
    band edges in the a-plane; below 1e-6 that raises PoleNearDomain before
    any integral is taken.  The parts share one absolute target, tol * (1 +
    |E|): the row takes tol/16, J1 tol/16 relative to row + J1, and J2 + J3,
    one integral whose value the report gives as ``strips``, 7/8 tol
    relative to the whole sum.  Where J1 cancels J2 + J3 (y0 = 1/2) and
    misses its share, J1 alone runs again with the strips in its offset (the
    strips never run twice); ConvergenceError, with the report as ``.best``,
    says the sum missed tol still."""
    if p.k <= 2:
        raise UnsupportedDecay(
            "the 2-D integrals are not absolutely convergent for k <= 2; "
            "use weil_direct (Eisenstein summation)"
        )
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    check_tol(tol)
    lat = reduce(p.lat)
    w1, w2, a, k = lat.w1, lat.w2, p.a, p.k
    edge_distance = eps * abs(lat.det) / abs(w1)
    if edge_distance < 1e-6:
        raise PoleNearDomain(f"the band edges pass within {edge_distance:.2e} of the integrand's pole")
    coords = lattice_coordinates(lat, -a)
    # E_k has period w1 for k >= 3: move J1's peak, at x = x0, next to the
    # x = 0 that integrate_line centres on
    n = round(coords.x0)
    a += n * w1
    x0, y0 = coords.x0 - n, coords.y0
    y_up, y_dn = y0 + eps, y0 - eps
    lo, hi = (round(y - frac(y)) for y in (y_dn, y_up))
    row, row_err = _band_row(a, w1, w2, k, hi, tol / 16) if hi > lo else (0j, 0.0)
    # J1 on the band edges, J2 + J3 on the half-strips above and below the
    # band as one integral; decay_order k bounds terms that decay like |b|^-(k+1)
    edge = _edge_integrand(w1, w2, a, k, y_dn, y_up)
    q1 = integrate_line(edge, float(k), tol / 16, base=row)
    strips = _strip_integrand(w1, w2, a, k)
    q = integrate_half_strip(strips, (y_dn, y_up), float(k), tol * 7 / 8, x0, row + q1.value)
    if q1.err > tol / 16 * (1.0 + abs(row + q1.value + q.value)):
        q1 = integrate_line(edge, float(k), tol / 16, base=row + q.value)
    stops = tuple((part.stop, part.radius) for part in (q1, q))
    value = q1.value + q.value + row
    report = WeilReport(value, "integral", q1.err + q.err + row_err, q1.value, q.value, eps, row, (w1, w2), stops)
    if report.err > tol * (1.0 + abs(report.value)):
        raise ConvergenceError(f"J1 + J2 + J3 + row err {report.err:.3g} misses tol {tol:g}", best=report)
    return report
