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
  J1 along the two edges of the excluded band around the pole row, one
  segment |x| <= 8 with Bernoulli tails beyond it
  (``_edge_tails``), plus the half-strip double integrals J2 and J3
  above and below the band, taken as one integral J2 + J3 (``strips``)
  on one finite box per side with closed forms beyond it
  (``_strip_box``): the x-tails' Bernoulli series integrated over the
  box's rows (``_x_tails``) and a bound on the rows past its depth.
  Only supported for k >= 3 (the 2-D pieces are not absolutely
  convergent below that), where E_k depends on the lattice
  alone, so both routes sum on its Lagrange-Gauss reduced basis.  For
  integer j >= 2 and c off the line, int_R (c + x w1)^(-j) dx = 0, so by
  Fubini every term free of P1(x) integrates to exactly 0 and is left
  out of the integrands.  The integrands take one reciprocal 1/b per
  point and build its integer powers from products (``_ipow``), updating
  arrays in place: numpy's complex ``**`` goes through cpow, which cost
  most of the integrand's time.

(x0, y0) are the lattice coordinates of -a.  The strips leave out a band
(y_dn, y_up] around the pole row that holds one integer row: by default
the widest, (m - 1 + 1/64, m + 1 - 1/64] with m = round(y0), whose edges
stay at least 1/2 - 1/64 rows from the pole, so the box cells next to it
need little refinement; with eps given, (y0 - eps, y0 + eps], eps < 1/2,
which holds at most one.  That row is summed by the 1-D Euler-MacLaurin
formula (two Hurwitz zeta values, ``lerch._hurwitz_em``) and reported as
``row_correction``.  Each box cell takes the cheapest tensor
Gauss-Legendre rule of a fixed ladder (8 to 32 nodes) that a
Bernstein-ellipse bound certifies (``_gauss_bound``), and that bound as
its err; only a cell next to the pole that no rung certifies takes K15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bernoulli import frac, p1
from .errors import ConvergenceError, PointOnLattice, PoleNearDomain, SlowConvergence, UnsupportedDecay
from .lattice import Lattice, lattice_coordinates, nearest_lattice_distance_in_coords, reduce
from .lerch import _BERNOULLI_2J, _hurwitz_em
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


def _row_sum(c: complex, w1: complex, k: int, tol: float):
    """Sum of (c + n w1)^(-k) over all integers n, as the symmetric limit.

    Terms are paired n, -n (which reproduces the symmetric partial sums
    exactly) and the N-doubling partial sums are extrapolated; the paired
    tail has a smooth 1/N expansion, so this converges for every k >= 1.
    The pairs are centred on the row point nearest the pole; a finite
    shift of the centre leaves the symmetric limit unchanged.  A term at
    c + n w1 = 0 is left out (the origin of G_k)."""
    shift = round(-(c / w1).real) * w1
    # forming c next to a lattice point rounds it by up to delta
    delta = _EPS_FLOOR * (abs(c) + abs(shift))
    c += shift
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
            return est, inc + (k * delta * abs(c) ** -(k + 1) if c else 0.0)
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


def _edge_tails(w1: complex, w2: complex, a: complex, k: int, x0: float, y0: float, edges, share: float):
    """J1's tails beyond |x| = 8 and their remainder bound.  On edge y, P1(x) G
    with G = +/- k w1 P1(y) b^-(k+1) (+ on the lower edge) has the tails
    sum_{j<=p} B_2j/(2j)! [d^(2j-2)G(-8) - d^(2j-2)G(8)] by parts (DLMF 24.2),
    d^m b^-(k+1) = (k+1)_m w1^m b^-(k+1+m) for even m, to the fewest p whose
    bound meets ``share`` (else p = 10).  As |B~_2p| <= |B_2p| (DLMF 24.9.1)
    and |b| >= |w1| |x - x_p|, x_p = x0 - Re tau (y - y0), the remainder per
    end and edge is |B_2p|/(2p)! k (k+1)_(2p-2) |P1(y)| |w1|^-k u^(1-k-2p)
    at most, u = 8 - |x_p|."""
    tau = w2 / w1
    sides = [(sign * p1(y), a + y * w2, 8 - abs(x0 - tau.real * (y - y0))) for sign, y in zip((1, -1), edges)]
    total = 0j
    for p, b2p in enumerate(_BERNOULLI_2J, start=1):
        coef = k * b2p * math.factorial(k + 2 * p - 2) / math.factorial(k) / math.factorial(2 * p)
        n = k + 2 * p - 1
        for weight, c, _ in sides:
            total += coef * w1 ** (2 * p - 1) * weight * ((c - 8 * w1) ** -n - (c + 8 * w1) ** -n)
        bound = sum(2 * abs(coef * weight) * abs(w1) ** -k * u**-n for weight, _, u in sides)
        if bound <= share:
            break
    return total, bound


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


def _row_bound(k: int, w1: complex, tau: complex, h: float, lift: int = 0) -> float:
    """A bound on |int_R f(x, y) dx|, f = P1(x) k w1^-k [(k+1) tau P1(y)
    z^-(k+2) - z^-(k+1)] the strip integrand, z = b / w1, on the row at
    h = |Im tau| |y - y0| (lift 0), or on its integral over the rows from h
    on (lift 1: m^-1 / (2 pi |Im tau|) per term).  By P1's Fourier series
    (DLMF 24.8.1) and residues, |int_R P1(x) z^-n dx| <= (2 pi)^(n-1)/(n-1)!
    sum_m m^(n-2) e^(-2 pi m h), summed up to the first term whose ratio to
    the next, falling with m, is below 1/4, then as a geometric series."""
    j, c, q = k - 1 - lift, math.pi * abs(tau), math.exp(-2 * math.pi * h)
    total, m = 0.0, 1
    while (ratio := (1 + 1 / m) ** (j + 1) * q) >= 0.25:
        total, m = total + m**j * (1 + c * m) * q**m, m + 1
    total += m**j * (1 + c * m) * q**m / (1 - ratio)
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
        ys = np.concatenate([[bottom], np.arange(math.floor(bottom) + 1, math.ceil(top)), [top]])
        piece = np.concatenate([[p1(bottom)], -np.ones(len(ys) - 2), [p1(-top)]])  # -P1(y-) = p1(-y)
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
    """E_k(a, W) via the integral representation J1 + J2 + J3 (k >= 3), on
    the reduced basis (``lattice.reduce``) that the report's ``basis`` names.

    The strips leave out a band around the pole row that holds exactly one
    integer row: by default (m - 1 + 1/64, m + 1 - 1/64], m = round(y0), the
    widest such band, whose edges are exact binary fractions and lie at
    least 1/2 - 1/64 rows from the pole; with eps given, (y0 - eps, y0 + eps],
    0 < eps < 1/2, which holds at most one row.  The row is found from the
    same floats that P1 sees at the edges; it is summed by `_band_row` and
    reported as ``row_correction``, the band as ``band`` and the pole's
    distance to the nearer edge, in rows, as ``eps_used``.  That distance
    times |det| / |w1| is the pole's distance from the band's edges in the
    a-plane; below 1e-6 that raises PoleNearDomain before any integral is
    taken.  The parts share one absolute target, tol * (1 + |E|): the row
    takes tol/16, J1 tol/16 relative to row + J1 (its segment half of that,
    its tails' remainder 1/16 of it, absolute), and J2 + J3, one integral
    whose value the report gives as ``strips``, 7/24 tol on its box,
    relative to the whole sum, and 7/256 tol each on its y-cut and on the
    remainder of its x-tails, absolute.  Where J1 cancels J2 + J3 and
    misses its share, J1's segment alone runs again with the strips in its
    offset; ConvergenceError, with the report as ``.best``, says the sum
    missed tol still."""
    if p.k <= 2:
        raise UnsupportedDecay(
            "the 2-D integrals are not absolutely convergent for k <= 2; "
            "use weil_direct (Eisenstein summation)"
        )
    if eps is not None and not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    check_tol(tol)
    lat = reduce(p.lat)
    w1, w2, a, k = lat.w1, lat.w2, p.a, p.k
    coords = lattice_coordinates(lat, -a)
    # E_k has period w1 for k >= 3: move J1's peak, at x = x0, next to the
    # x = 0 that J1's span centres on
    n = round(coords.x0)
    a += n * w1
    x0, y0 = coords.x0 - n, coords.y0
    if eps is None:
        m = round(y0)
        y_dn, y_up = m - 1 + 1 / 64, m + 1 - 1 / 64
        eps = min(y0 - y_dn, y_up - y0)
    else:
        y_dn, y_up = y0 - eps, y0 + eps
    edge_distance = eps * abs(lat.det) / abs(w1)
    if edge_distance < 1e-6:
        raise PoleNearDomain(f"the band edges pass within {edge_distance:.2e} of the integrand's pole")
    lo, hi = (round(y - frac(y)) for y in (y_dn, y_up))
    row, row_err = _band_row(a, w1, w2, k, hi, tol / 16) if hi > lo else (0j, 0.0)
    edge = _edge_integrand(w1, w2, a, k, y_dn, y_up)
    edge_tail, edge_bound = _edge_tails(w1, w2, a, k, x0, y0, (y_dn, y_up), tol / 256)
    q1 = integrate_line(edge, edge_tail, (-8.0, 8.0), tol / 32, row, edge_bound)
    boxes, tail, bound, depth = _strip_box(w1, w2, a, k, x0, y0, (y_dn, y_up), tol * 7 / 256)
    f, cell_bound = _strip_integrand(w1, w2, a, k), _gauss_bound(w1, w2, k, x0, y0)
    q = integrate_half_strip(f, tail, boxes, tol * 7 / 24, row + q1.value, bound, cell_bound)
    if q1.err > tol / 16 * (1.0 + abs(row + q1.value + q.value)):
        q1 = integrate_line(edge, edge_tail, (-8.0, 8.0), tol / 32, row + q.value, edge_bound)
    stops = ((q1.stop, q1.radius), (q.stop, depth))
    value = q1.value + q.value + row
    err = q1.err + q.err + row_err
    report = WeilReport(value, "integral", err, q1.value, q.value, eps, row, (w1, w2), stops, (y_dn, y_up))
    if report.err > tol * (1.0 + abs(report.value)):
        raise ConvergenceError(f"J1 + J2 + J3 + row err {report.err:.3g} misses tol {tol:g}", best=report)
    return report
