"""Weil's elliptic functions E_k(a, W) and the Eisenstein series G_k(W).

Two independent evaluation routes:

* ``weil_direct``: iterated lattice summation, inner index first with
  symmetric limits (the Eisenstein summation convention, which also
  defines the conditionally convergent cases k = 1, 2).  Rows of weight 1
  and 2 are summed in closed form, (pi/w1) cot(pi z) and (pi/w1)^2 /
  sin^2(pi z) with z = c/w1 (``_cot_row``); rows of weight k >= 3 with
  +/-n pairing and N-doubling, extrapolated by the better of Richardson
  and iterated Aitken (``quadrature._accelerate``).  The outer sum is
  centred on the pole row and stops where Lipschitz's formula bounds the
  rows left out by tol/8, a bound it charges to err.
  ``eisenstein_series`` is the same sum at a = 0 with the origin left out.
* ``weil_integral``: the integral representation J1 + J2 + J3 obtained
  from the two-dimensional Euler-MacLaurin formula: a full-line integral
  J1 along the two edges of the excluded band around the pole row, one
  segment |x| <= 8 with Bernoulli tails beyond it (``lerch._em_tail``),
  plus the half-strip double integrals J2 and J3 above and below the band,
  taken as one integral J2 + J3 (``strips``) on one finite box per side
  with closed forms beyond it (``_strip_box``): the x-tails' Bernoulli
  series integrated over the box's rows (``_x_tails``) and a bound on the
  rows past its depth.  Only supported for k >= 3 (the 2-D pieces are not
  absolutely convergent below that), where E_k depends on the lattice
  alone, so both routes sum on its Lagrange-Gauss reduced basis.  For
  integer j >= 2 and c off the line, int_R (c + x w1)^(-j) dx = 0, so by
  Fubini every term free of P1(x) integrates to exactly 0 and is left out
  of the integrands.  The integrands take one reciprocal 1/b per point and
  build its integer powers from products (``_ipow``), updating arrays in
  place: numpy's complex ``**`` goes through cpow, which cost most of the
  integrand's time.

Both routes form every moved point from the given generators
(``_row_points``).  ``weil_integral`` runs on the pole's own row point c,
(x0, y0) the lattice coordinates of -c, and sums the one integer row of
its band, about row 0, by ``lerch._hurwitz_em``.  Each box cell takes the
cheapest tensor Gauss-Legendre rule of a fixed ladder (8 to 32 nodes) that
a Bernstein-ellipse bound certifies (``_gauss_bound``), and that bound as
its err; only a cell next to the pole that no rung certifies takes the
sparse K15/G7 rule of ``quadrature`` (161 points, K15xK15 less
(K15 - G7)x(K15 - G7) f), and so do all cells' children.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bernoulli import frac, p1
from .errors import PointOnLattice, PoleNearDomain, SlowConvergence, UnsupportedDecay
from .lattice import Lattice, integer_points, lattice_coordinates, nearest_lattice_distance_in_coords, reduce
from .lerch import _BERNOULLI_2J, _em_tail, _hurwitz_em
from .quadrature import _EPS_FLOOR, _accelerate, _check_err, check_tol, integrate_half_strip, integrate_line

#: lattice-coordinate distance below which a counts as a lattice point
LATTICE_POINT_TOL = 1e-9

_ROW_N_CAP = 1 << 21
_ROW_M_CAP = 2048
#: roundoff of ``_cot_row``'s functions and of its z, in units of 2^-53
_COT_ROUNDOFF, _Z_ROUNDOFF = 32, 16


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
    #: the pole's distance, in rows, to the nearer band edge
    eps_used: float = 0.0
    row_correction: complex = 0j
    #: the basis (w1, w2) that the sum ran on and the parts refer to
    basis: tuple = ()
    #: (stop rule, radius) of J1's line ("tail" beyond |x| = 8) and of the
    #: strips ("box", the depth of the box)
    stops: tuple = ()
    #: (y_dn, y_up), the band the strips leave out, in the coordinates of
    #: ``basis``; it holds the row of ``row_correction``
    band: tuple = ()


def _row_points(a: complex, lat: Lattice, red: Lattice):
    """The row points c = a + n w1 + m w2 of red = (w1, w2), a basis of
    lat's lattice, and their rounding (``integer_points``) as a function
    of the row m, n the integer that takes Re(c/w1) next to 0."""
    at = integer_points(lat, a, red)
    x_a, x_m = (a / red.w1).real, (red.w2 / red.w1).real
    return lambda m: at(-round(x_a + m * x_m), m)


def _abs_row(z: complex, s: int) -> float:
    """A bound on sum_n |z + n|^-s, |Re z| <= 1/2, s >= 2.  With
    b = 1 - |Re z| and h = |Im z|, the term of n != 0 is at most
    g(|n| - 1 + b), g(t) = (t^2 + h^2)^(-s/2), which falls with |n|, so those
    terms sum to at most 2 [g(b) + int_b^inf g], and the integral is at most
    b^(1-s) / (s - 1) and (pi/2) h^(1-s)."""
    b, h = 1 - abs(z.real), abs(z.imag)
    tail = b ** (1 - s) / (s - 1)
    if h > 0.5:  # below that, (pi/2) h^(1-s) is the larger, and h may be 0
        tail = min(tail, math.pi / 2 * h ** (1 - s))
    return (abs(z) ** -s if z else 0.0) + 2 * ((b * b + h * h) ** (-s / 2) + tail)


def _cot_row(c: complex, delta: float, w1: complex, k: int):
    """Sum of (c + n w1)^(-k) over all integers n, k = 1 or 2, as the
    symmetric limit, in closed form: with z = c / w1 it is
    (pi / w1) cot(pi z) for k = 1 and (pi / w1)^2 / sin^2(pi z) for k = 2.
    For |Im z| >= 1/2, where sin(pi z) overflows once |Im pi z| passes about
    710, both are written in q = exp(2 pi i s z), s = sign Im z, |q| <= e^-pi:
    cot(pi z) = -i s (1 + q) / (1 - q) and 1 / sin^2(pi z) = -4 q / (1 - q)^2.

    Returns (value, err).  err charges the functions' own roundoff,
    _COT_ROUNDOFF u |value| with u = 2^-53, and the row's slope in z,
    |w1|^-k |g'(z)| with g' = -pi^2 / sin^2(pi z) for k = 1 and
    -2 pi^3 cot(pi z) / sin^2(pi z) for k = 2, times the error of z:
    delta / |w1| for c (``_row_points``) and _Z_ROUNDOFF u |z| for forming
    z and its product by pi.  The constants are at least 4x the largest
    error measured against 40-digit mpmath over both forms, |Im z| from 0
    to 1e5 and |z| down to 1e-9."""
    z = c / w1
    if abs(z.imag) < 0.5:
        t = math.pi * z
        s = cmath.sin(t)
        cot, csc2 = cmath.cos(t) / s, 1 / (s * s)
    else:
        sign = math.copysign(1.0, z.imag)
        q = cmath.exp(2j * math.pi * sign * z)
        cot, csc2 = -1j * sign * (1 + q) / (1 - q), -4 * q / ((1 - q) * (1 - q))
    if k == 1:
        value, slope = math.pi / w1 * cot, math.pi**2 * abs(csc2) / abs(w1)
    else:
        value, slope = (math.pi / w1) ** 2 * csc2, 2 * math.pi**3 * abs(cot * csc2) / abs(w1) ** 2
    err = _COT_ROUNDOFF * 2.0**-53 * abs(value) + slope * (delta / abs(w1) + _Z_ROUNDOFF * 2.0**-53 * abs(z))
    return value, err + 2.0**-1022  # the least normal float covers a subnormal value


def _row_sum(c: complex, delta: float, w1: complex, k: int, tol: float):
    """Sum of (c + n w1)^(-k) over all integers n, as the symmetric limit,
    for a row point c with |Re(c/w1)| <= 1/2 that differs by delta from the
    exact one (``_row_points``); a finite shift of the centre leaves the
    symmetric limit unchanged.  Returns (value, err).

    Rows of weight k <= 2 are summed in closed form (``_cot_row``).  For
    k >= 3 terms are paired n, -n (which reproduces the symmetric partial
    sums exactly) and the N-doubling partial sums are extrapolated; the
    paired tail has a smooth 1/N expansion.  A term at c + n w1 = 0 is left
    out (the origin of G_k).  Beside the last increment, err charges the
    terms' own roundoff, (k + 1) u times a bound M on sum_n |c + n w1|^-k,
    u = 2^-53 (``_abs_row``): a term is k products and a quotient away from
    its base, and numpy's and Python's complex powers were measured at most
    k u off for k = 3, 5 and 8.  It also charges delta times the row's
    slope, k sum_n |c + n w1|^-(k+1), which is at most k M / r for r the
    least |c + n w1| of the terms."""
    if k <= 2:
        return _cot_row(c, delta, w1, k)
    partial = complex(c ** (-k)) if c else 0j
    levels = []
    prev_n = 0
    n_hi = 256
    while n_hi <= _ROW_N_CAP:
        nw = np.arange(prev_n + 1, n_hi + 1, dtype=float) * w1
        partial += complex(np.sum((c + nw) ** (-k) + (c - nw) ** (-k)))
        levels.append(partial)
        est, inc = _accelerate(levels)
        if inc <= tol:
            z = c / w1
            beside = math.hypot(1 - abs(z.real), z.imag)  # the least |z + n|, n != 0
            r = abs(w1) * (min(abs(z), beside) if c else beside)
            mass = abs(w1) ** -k * _abs_row(z, k)
            return est, inc + (k * delta / r + (k + 1) * 2.0**-53) * mass
        prev_n, n_hi = n_hi, 2 * n_hi
    raise SlowConvergence(f"row sum at c = {c} did not converge to {tol}", best=partial)


def _eisenstein_sum(lat: Lattice, red: Lattice, a: complex, k: int, tol: float, m0: int = 0):
    """Sum of (a + w)^(-k) over the lattice points w in the basis red of
    lat's lattice, (value, err): inner symmetric sums over n first
    (``_row_sum``), then the outer symmetric sum over the rows m0 + m
    (``_row_points``).  It stays centred on m0 (for k = 1 the rows tend to
    the constants -/+ i pi / w1, so re-centring would change E_1), and
    stops before the first pair whose bound on the pairs from it on
    (``_outer_rest``) meets tol/8; err charges that bound and the roundoff."""
    check_tol(tol)
    w1, im_tau = red.w1, abs((red.w2 / red.w1).imag)
    off = abs(lattice_coordinates(red, -a).y0 - m0)
    row_tol = tol / 64
    point = _row_points(a, lat, red)

    def row(m):
        return _row_sum(*point(m0 + m), w1, k, row_tol)

    value, err = row(0)
    row_mass = abs(value)
    for m in range(1, _ROW_M_CAP + 1):
        if (rest := _outer_rest(k, w1, im_tau, m - off)) <= tol / 8:
            return value, err + rest + _EPS_FLOOR * row_mass
        (up, e_up), (dn, e_dn) = row(m), row(-m)
        value += up + dn
        err += e_up + e_dn
        row_mass += abs(up) + abs(dn)
    raise SlowConvergence(f"outer Eisenstein sum did not settle within {_ROW_M_CAP} rows")


def weil_direct(p: WeilParams, tol: float = 1e-10) -> WeilReport:
    """E_k(a, W) by Eisenstein summation: inner symmetric sums over n, then
    the outer one over m, centred on the pole's row m0 as each row is on its
    point nearest the pole.  For k >= 3, where E_k has both periods, the
    sums run on the reduced basis; k = 1 and 2 keep the given one, on which
    the symmetric sums define them.  E_2 has both periods too, while the
    centring moves E_1 by 2 pi i m0 / w1 (the sign that of Im(w2 / w1)),
    which is added back.  As every row point is formed exactly, the
    roundoff charged does not grow with |a|.  ConvergenceError, with the
    report as ``.best``, says err missed tol * (1 + |E|)."""
    lat = reduce(p.lat) if p.k >= 3 else p.lat
    m0 = round(lattice_coordinates(lat, -p.a).y0)
    value, err = _eisenstein_sum(p.lat, lat, p.a, p.k, tol, m0)
    if p.k == 1:
        # the centred sum is E_1(a + m0 w2) = E_1(a) -/+ 2 pi i m0 / w1, as
        # Im(w2 / w1) is positive or negative
        jump = 2j * math.pi * m0 / lat.w1 * math.copysign(1.0, (lat.w2 / lat.w1).imag)
        value, err = value + jump, err + _EPS_FLOOR * abs(jump)
    report = WeilReport(value=value, method="direct", err=err, basis=(lat.w1, lat.w2))
    _check_err("Eisenstein sum", value, err, tol, report)
    return report


def eisenstein_series(lat: Lattice, k: int, tol: float = 1e-10) -> complex:
    """G_k(W): sum of w^(-k) over nonzero lattice points, k >= 3.
    ConvergenceError, the value as ``.best``, says err > tol * (1 + |G_k|)."""
    if not (isinstance(k, (int, np.integer)) and k >= 3):
        raise UnsupportedDecay("eisenstein_series requires integer k >= 3")
    value, err = _eisenstein_sum(lat, reduce(lat), 0j, k, tol)
    _check_err("Eisenstein series", value, err, tol, value)
    return value


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


def _band_row(c: complex, delta: float, w1: complex, k: int, tol: float):
    """sum_n (c + n w1)^-k for a row point c off by delta (``_row_points``),
    by the 1-D Euler-MacLaurin formula: with u = c/w1 and d = u - round(Re u)
    it is w1^-k R(d), R(d) = d^-k + zeta(k, 1+d) + (-1)^k zeta(k, 1-d), and
    Re(1 +/- d) >= 1/2 keeps `_hurwitz_em`'s remainder bound.  Returns
    (value, err); err adds the terms' roundoff and the error of d, delta_d =
    delta / |w1| plus the rounding of u, by Taylor's theorem:
    |R(d + e) - R(d)| <= |R'(d)| delta_d + max |R''| delta_d^2 / 2 for
    |e| <= delta_d, the maximum on the segment.  The slope is
    R'(d) = -k [d^-(k+1) + zeta(k+1, 1+d) - (-1)^k zeta(k+1, 1-d)], two more
    `_hurwitz_em` calls taken with their err, and R''(x) = k (k+1)
    [x^-(k+2) + zeta(k+2, 1+x) + (-1)^k zeta(k+2, 1-x)].  As delta_d lies
    far below |d| / (2k + 4), |x|^-(k+2) <= 2 |d|^-(k+2); as Re(1 +/- x) is
    at least 1/2 and one of them at least 1, the zetas add to at most
    sum_j (j + 1/2)^-(k+2) + (j + 1)^-(k+2) = 2^(k+2) zeta(k+2) <= 2^(k+3).
    err charges (|R'(d)| + its err + k (k+1) (2 |d|^-(k+2) + 2^(k+3)) delta_d)
    delta_d, which holds that bound twice over in its second-order part."""
    u = c / w1
    d = u - round(u.real)
    scale = abs(w1) ** k
    (zp, ep), (zm, em), (sp, fp), (sm, fm) = (
        _hurwitz_em(j, 1 + sign * d, tol * scale / 2) for j in (k, k + 1) for sign in (1, -1)
    )
    lead, lead_slope = d**-k, d ** -(k + 1)
    slope = k * abs(lead_slope + sp - (-1) ** k * sm)
    slope_err = k * (fp + fm + _EPS_FLOOR * (abs(lead_slope) + abs(sp) + abs(sm)))
    delta_d = delta / abs(w1) + _EPS_FLOOR * abs(u)
    err = ep + em + _EPS_FLOOR * (abs(lead) + abs(zp) + abs(zm))
    err += (slope + slope_err + k * (k + 1) * (2 * abs(d) ** -(k + 2) + 2.0 ** (k + 3)) * delta_d) * delta_d
    return (lead + zp + (-1) ** k * zm) / w1**k, err / scale


def _lipschitz(j: int, c: float, q: float) -> float:
    """sum_{m>=1} m^j (1 + c m) q^m for j >= 0, c >= 0 and 0 <= q < 1/4,
    summed up to the first term whose ratio to the next, at most
    (1 + 1/m)^(j+1) q and falling with m, is below 1/4, then as a geometric
    series; inf for q >= 1/4, where that ratio need never fall below 1/4."""
    if q >= 0.25:
        return math.inf
    total, m = 0.0, 1
    while (ratio := (1 + 1 / m) ** (j + 1) * q) >= 0.25:
        total, m = total + m**j * (1 + c * m) * q**m, m + 1
    return total + m**j * (1 + c * m) * q**m / (1 - ratio)


def _outer_rest(k: int, w1: complex, im_tau: float, gap: float) -> float:
    """A bound on the rows m0 +/- m, m >= M, of sum_w (c + w)^-k less their
    constants, gap = M - d >= 1/2 for d = |y0 - m0|.  By Lipschitz's formula,
    for Im z > 0 sum_n (z + n)^-k is (-2 pi i)^k / (k - 1)! sum_{j>=1}
    j^(k-1) q^j, q = exp(2 pi i z), plus -i pi for k = 1 (+i pi for Im z < 0),
    which cancels within each pair m0 +/- m.  So row m0 +/- m less its
    constant is at most B(h) = |w1|^-k (2 pi)^k / (k - 1)! sum_j j^(k-1)
    e^(-2 pi j h) (``_lipschitz``), h = |Im z| >= |Im tau| (m - d); as
    B(h + |Im tau|) <= e^(-2 pi |Im tau|) B(h), the pairs from M on sum to
    at most 2 B(gap |Im tau|) / (1 - e^(-2 pi |Im tau|))."""
    scale = 2 * abs(w1) ** -k * (2 * math.pi) ** k / math.factorial(k - 1) / -math.expm1(-2 * math.pi * im_tau)
    return scale * _lipschitz(k - 1, 0.0, math.exp(-2 * math.pi * im_tau * gap))


def _row_bound(k: int, w1: complex, tau: complex, h: float, lift: int = 0) -> float:
    """A bound on |int_R f(x, y) dx|, f = P1(x) k w1^-k [(k+1) tau P1(y)
    z^-(k+2) - z^-(k+1)] the strip integrand, z = b / w1, on the row at
    h = |Im tau| |y - y0| (lift 0), or on its integral over the rows from h
    on (lift 1: m^-1 / (2 pi |Im tau|) per term).  By P1's Fourier series
    (DLMF 24.8.1) and residues, |int_R P1(x) z^-n dx| <= (2 pi)^(n-1)/(n-1)!
    sum_m m^(n-2) e^(-2 pi m h), which ``_lipschitz`` sums."""
    total = _lipschitz(k - 1 - lift, math.pi * abs(tau), math.exp(-2 * math.pi * h))
    return k * abs(w1) ** -k * (2 * math.pi) ** k / math.factorial(k) / (2 * math.pi * abs(tau.imag)) ** lift * total


def _x_tails(w1: complex, w2: complex, a: complex, k: int, x0: float, y0: float, boxes, share: float):
    """The strip integrand's x-tails beyond the integer ends X_lo, X_hi of
    each box, integrated over the box's y-span, to the fewest terms p whose
    remainder bound meets ``share`` (else p = 10), and that bound.  On row
    y, integrating P1(x) G by parts with the periodic Bernoulli functions
    (DLMF 24.2) gives the tails T = sum_{j<=p} B_2j/(2j)! [d^(2j-2)G(X_lo,
    y) - d^(2j-2)G(X_hi, y)], d = d/dx, where for even m, d^m G =
    k w1^(m+1) b^-(k+1+m) [(k+1)_(m+1) w2 P1(y) / b - (k+1)_m].  So the term
    of each end and j is -/+ c_j d/dy [P1(y) b(X, y)^-n], n = k + 1 + 2(j-1),
    as P1' = 1 between integers, and its integral over the y-span is P1
    b^-n at the ends of the span's unit pieces: P1(y_lo+) b^-n at y_lo,
    -P1(y_hi-) b^-n at y_hi, and -b^-n at each integer between, where P1
    jumps by -1.  Their roundoff joins the bound.  The remainder is
    int B~_2p(x)/(2p)! d^(2p-1)G dx beyond each end, with |B~_2p| <= |B_2p|
    (DLMF 24.9.1).  |b| = |w1| (t^2 + h^2)^(1/2), where t = |x - x0 +
    Re tau (y - y0)| >= u, the end's distance from the pole, and
    h = |Im tau| |y - y0|; as t^2 - u^2 >= 2u (t - u), int |b|^-s dx <=
    |w1|^-s D^(2-s) / (u (s - 2)), D^2 = u^2 + h^2.  u and h are linear in
    y, so each span of at most one row spacing takes both at their least."""
    tau = w2 / w1
    x_lo, x_hi, y_lo, y_hi = np.array(boxes, float).T[:, :, None]
    ys = y_lo + (y_hi - y_lo) * np.linspace(0.0, 1.0, math.ceil(np.max(y_hi - y_lo)) + 1)
    xp, hy = x0 - tau.real * (ys - y0), abs(tau.imag) * np.abs(ys - y0)
    u, h = (np.minimum(t[..., :-1], t[..., 1:]) for t in (np.stack([xp - x_lo, x_hi - xp]), hy))
    d, weight = np.hypot(u, h).ravel(), (np.diff(ys) / u).ravel()  # h and the spans broadcast over both ends
    n = k + np.arange(1, 2 * len(_BERNOULLI_2J), 2)[:, None]  # d^(2p-1)G has b^-(n+1) and b^-(n+2)
    per_d = (d ** (1 - n) / (n - 1) + (n + 1) * abs(tau) / 2 * d**-n / n) @ weight
    coefs = []
    for p, (b2p, per) in enumerate(zip(_BERNOULLI_2J, per_d.tolist()), start=1):
        rising = math.factorial(k + 2 * p - 2) / math.factorial(k) / math.factorial(2 * p)  # (k+1)_(2p-2) / (2p)!
        coefs.append(k * w1 ** (2 * p - 1) * b2p * rising)
        bound = k * abs(w1) ** -k * abs(b2p) * rising * (k + 2 * p - 1) * per
        if bound <= share:
            break
    # b at every piece end of both x ends of both boxes, with its weight
    b, wt = [], []
    for left, right, bottom, top in boxes:
        # the ends as P1 sees them: frac takes a y just below an integer for it
        (n_lo, f_lo), (n_hi, f_hi) = ((round(y - frac(y)), frac(y)) for y in (bottom, top))
        ys = np.concatenate([[bottom], np.arange(n_lo + 1, n_hi + (f_hi > 0)), [top]])
        piece = np.concatenate([[f_lo - 0.5], -np.ones(len(ys) - 2), [0.5 - f_hi if f_hi > 0 else -0.5]])
        for x, sign in ((left, 1), (right, -1)):
            b.append(a + x * w1 + ys * w2)
            wt.append(sign * piece)
    r = 1 / np.concatenate(b)
    power, r2 = np.concatenate(wt) * _ipow(r, k + 1), r * r
    total, mass = 0j, 0.0
    for c in coefs:
        terms = c * power
        total, mass = total + terms.sum(), mass + np.abs(terms).sum()
        power *= r2
    return complex(total), bound + _EPS_FLOOR * mass


def _strip_box(w1: complex, w2: complex, a: complex, k: int, x0: float, y0: float, band, share: float):
    """The strips outside ``band`` = (y_dn, y_up), any band around the pole
    row y0 that holds at most one integer row, as boxes |x - c| <= 8, c the
    integer nearest the pole at the middle row, 0 <= +/-(y - edge) <= Y:
    returns the boxes, the x-tails' integral over them (``_x_tails``), a
    bound on the rest and Y, the least half-integer (at most 16) whose
    y-cut, from the edge nearer the pole, meets ``share``, as the tails'
    remainder does."""
    tau = w2 / w1
    gap, depth = min(y0 - band[0], band[1] - y0), 0.5
    while (cut := 2 * _row_bound(k, w1, tau, abs(tau.imag) * (gap + depth), 1)) > share and depth < 16:
        depth += 0.5
    spans = ((band[0] - depth, band[0]), (band[1], band[1] + depth))
    centres = [round(x0 - tau.real * ((lo + hi) / 2 - y0)) for lo, hi in spans]
    boxes = [(c - 8, c + 8, lo, hi) for c, (lo, hi) in zip(centres, spans)]
    tail, rem = _x_tails(w1, w2, a, k, x0, y0, boxes, share)
    return boxes, tail, cut + rem, depth


def _gauss_bound(w1: complex, w2: complex, k: int, x0: float, y0: float):
    """A bound on |int - GL_n x GL_n| of the strip integrand f over each box
    cell (x_lo, x_hi, y_lo, y_hi) off the pole row, as a function of the
    cells' rows and n, broadcast against the cells: n as a column gives one
    row of bounds per n.  By ATAP Thm 19.3, the n-point Gauss rule on
    [-1, 1] errs by at most 64 M / (15 (rho^2 - 1) rho^(2n-2)) for f
    analytic and |f| <= M in the Bernstein ellipse E_rho.
    One axis at a time with the other real, and as the Gauss weights are
    positive, the cell's error is at most 128/15 h_x h_y (M_x q_x + M_y q_y),
    q = 1 / ((rho^2 - 1) rho^(2n-2)).  On a cell P1 is linear, so f's one
    singularity is its pole: b = w1 (x - x*), x* = x0 - tau (y - y0), and
    b = w2 (y - y*), y* = y0 - (x - x0) / tau.  Scaled to the axis, the
    pole's least |Im| eta and |Re - centre| xi over the other side give its
    ellipse parameter rho_p >= max(eta + (eta^2 + 1)^(1/2), xi + (xi^2 -
    1)^(1/2)), and on E_rho, rho = (2n - 2) rho_p / (2n + k), Joukowski's
    map gives |b| >= |w| h (rho_p - rho) (1 - 1 / (rho_p rho)) / 2.  Then
    |f| <= k |w1| |P1(x)| |b|^-(k+1) ((k+1) |w2| |P1(y)| / |b| + 1), with
    |P1| <= 1/2 on the real side and, as the cell lies in one unit interval,
    1/2 + h ((rho + 1/rho) / 2 - 1) on the ellipse."""
    tau = w2 / w1
    axes = ((x0, tau, y0, abs(w1)), (y0, 1 / tau, x0, abs(w2)))

    def bound(rows, n):
        lo, hi = rows[:, 0::2], rows[:, 1::2]
        h, c = (hi - lo) / 2, (hi + lo) / 2
        total = 0.0
        for axis, (pole, slope, other, w) in enumerate(axes):
            d = np.stack([lo[:, 1 - axis], hi[:, 1 - axis]]) - other  # the other side, from the pole
            re, im = (pole - slope.real * d - c[:, axis]) / h[:, axis], slope.imag * d / h[:, axis]
            eta, xi = (np.where(t[0] * t[1] > 0, np.abs(t).min(0), 0.0) for t in (im, re))
            rho_p = np.maximum(eta + np.hypot(eta, 1), xi + np.sqrt(np.maximum(xi * xi - 1, 0)))
            # where rho <= 1 no ellipse certifies the rule: NaN carries that
            # to the bound, inf, without dividing by 0 on the way; rho^-(2n-2)
            # underflows where rho^(2n-2) would overflow
            rho = (2 * n - 2) * rho_p / (2 * n + k)
            rho = np.where(rho > 1, rho, np.nan)
            dist = w * h[:, axis] * (rho_p - rho) * (1 - 1 / (rho_p * rho)) / 2
            p1_ellipse = 0.5 + h[:, axis] * ((rho + 1 / rho) / 2 - 1)
            p1x, p1y = (p1_ellipse, 0.5) if axis == 0 else (0.5, p1_ellipse)
            m = k * abs(w1) * p1x * dist ** -(k + 1) * ((k + 1) * abs(w2) * p1y / dist + 1)
            total = total + m * rho ** (2 - 2 * n) / (rho * rho - 1)
        return 128 / 15 * h[:, 0] * h[:, 1] * np.where(np.isnan(total), np.inf, total)

    return bound


def weil_integral(p: WeilParams, eps: float | None = None, tol: float = 1e-8) -> WeilReport:
    """E_k(a, W) via the integral representation J1 + J2 + J3 (k >= 3) on
    the reduced basis that the report's ``basis`` names, about the pole's
    own row point c (``_row_points``); as E_k' = -k E_(k+1), err charges
    c's rounding delta times k sum_w |c + w|^-(k+1) (``_abs_row`` and
    ``_outer_rest``).  The band holds one integer row: by default
    (-1 + 1/64, 1 - 1/64], its edges at least 1/2 - 1/64 rows from the
    pole; with eps given, (y0 - eps, y0 + eps], 0 < eps < 1/2.  The row is
    summed by `_band_row` and reported as ``row_correction``; ``band`` is
    the band in the coordinates of a, ``eps_used`` the pole's distance in
    rows to its nearer edge, which times |det| / |w1| below 1e-6 raises
    PoleNearDomain.  The parts share one absolute target, tol * (1 + |E|):
    the row takes tol/16; J1's segment |x| <= 8 tol/32 relative to row + J1,
    and its four tails beyond it (``lerch._em_tail``) tol/64 (1 + |w1|^k)
    each, or the bound they reach, before their weight |P1(y) w1^-k|; J2 +
    J3 (``strips``) 7/24 tol on its box, relative to the whole sum, and
    7/256 tol each on its y-cut and on its x-tails' remainder, absolute.
    Where J1 cancels J2 + J3 and misses tol/16 relative to the whole sum,
    J1's segment alone runs again with the strips in its offset;
    ConvergenceError, with the report as ``.best``, says the sum missed tol
    still."""
    if p.k <= 2:
        raise UnsupportedDecay(
            "the 2-D integrals are not absolutely convergent for k <= 2; "
            "use weil_direct (Eisenstein summation)"
        )
    if eps is not None and not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    check_tol(tol)
    lat = reduce(p.lat)
    w1, w2, k = lat.w1, lat.w2, p.k
    point = _row_points(p.a, p.lat, lat)
    c, delta = point(m0 := round(lattice_coordinates(lat, -p.a).y0))
    coords = lattice_coordinates(lat, -c)
    x0, y0 = coords.x0, coords.y0
    if eps is None:
        y_dn, y_up = -1 + 1 / 64, 1 - 1 / 64
        eps = min(y0 - y_dn, y_up - y0)
    else:
        y_dn, y_up = y0 - eps, y0 + eps
    edge_distance = eps * abs(lat.det) / abs(w1)
    if edge_distance < 1e-6:
        raise PoleNearDomain(f"the band edges pass within {edge_distance:.2e} of the integrand's pole")
    lo, hi = (round(y - frac(y)) for y in (y_dn, y_up))
    row, row_err = _band_row(*point(m0 + hi), w1, k, tol / 16) if hi > lo else (0j, 0.0)
    # J1's tails: on edge y, -/+ P1(y) w1^-k P1(x) f'(x), f(x) = (x + u)^-k and
    # u = (c + y w2) / w1; beyond -8 that of -u times (-1)^k
    edge_tail, edge_bound, share = 0j, 0.0, tol / 64 * (1 + abs(w1) ** k)
    for weight, u in ((-p1(y_dn) * w1**-k, (c + y_dn * w2) / w1), (p1(y_up) * w1**-k, (c + y_up * w2) / w1)):
        for parity, (t, bound) in ((1, _em_tail(k, u, 8, share)), ((-1) ** k, _em_tail(k, -u, 8, share))):
            edge_tail, edge_bound = edge_tail + parity * weight * t, edge_bound + abs(weight) * bound
    edge = _edge_integrand(w1, w2, c, k, y_dn, y_up)
    q1 = integrate_line(edge, edge_tail, (-8.0, 8.0), tol / 32, row, edge_bound)
    boxes, tail, bound, depth = _strip_box(w1, w2, c, k, x0, y0, (y_dn, y_up), tol * 7 / 256)
    f, cell_bound = _strip_integrand(w1, w2, c, k), _gauss_bound(w1, w2, k, x0, y0)
    q = integrate_half_strip(f, tail, boxes, tol * 7 / 24, row + q1.value, bound, cell_bound)
    if q1.err > tol / 16 * (1.0 + abs(row + q1.value + q.value)):
        q1 = integrate_line(edge, edge_tail, (-8.0, 8.0), tol / 32, row + q.value, edge_bound)
    stops = ((q1.stop, q1.radius), (q.stop, depth))
    value, err = q1.value + q.value + row, q1.err + q.err + row_err
    if delta:
        rows = _outer_rest(k + 1, w1, abs((w2 / w1).imag), 1 - abs(y0))
        err += k * delta * (abs(w1) ** -(k + 1) * _abs_row(c / w1, k + 1) + rows)
    report = WeilReport(value, "integral", err, q1.value, q.value, eps, row, (w1, w2), stops, (y_dn + m0, y_up + m0))
    _check_err("J1 + J2 + J3 + row", value, err, tol, report)
    return report
