"""First-order Euler-MacLaurin summation engines in one and two dimensions.

``em_sum_1d`` converts a half-open integer sum into the integral of
phi + phi' P1 plus two boundary terms (``_em_rule``).  ``em_sum_2d`` is
the two-dimensional analogue, that rule along each axis: i1 is the
interior double integral; i2 + i4 is the rule in y for the x-edges
g(y) = P1(alpha1) phi(alpha1, y) - P1(beta1) phi(beta1, y), its boundary
terms the four corners i4; i3 is the rule's integral in x for the y-edges
P1(alpha2) phi(x, alpha2) - P1(beta2) phi(x, beta2).
``brute_force_sum_2d`` is the exact summation oracle both identities are
tested against.

Both identities hold exactly (up to quadrature error) only with the
integer-point convention p1(n) = -1/2; see bernoulli.

The caller's functions may return real or complex arrays; the integrands
keep their dtype (``quadrature.vectorize2``), so real functions are summed
in real arithmetic up to the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bernoulli import p1
from .errors import BudgetExceeded
from .quadrature import _check_err, check_tol, integrate_rect, integrate_segment, vectorize1, vectorize2

BRUTE_FORCE_POINT_BUDGET = 10**7


@dataclass(frozen=True)
class Rect:
    """Open-closed summation rectangle (alpha1, beta1] x (alpha2, beta2]."""

    alpha1: float
    beta1: float
    alpha2: float
    beta2: float

    def __post_init__(self):
        if not (self.alpha1 < self.beta1 and self.alpha2 < self.beta2):
            raise ValueError("rectangle sides must have positive length")


@dataclass(frozen=True)
class Function2D:
    """A C^2 function with caller-supplied analytic partial derivatives."""

    phi: Callable
    dphi_dx: Callable
    dphi_dy: Callable
    d2phi_dxdy: Callable


def poly_function(c) -> Function2D:
    """c0 + c1 x + c2 y + c3 x^2 + c4 x y + c5 y^2."""
    return Function2D(
        lambda x, y: c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y,
        lambda x, y: c[1] + 2 * c[3] * x + c[4] * y,
        lambda x, y: c[2] + c[4] * x + 2 * c[5] * y,
        lambda x, y: c[4] + 0.0 * x + 0.0 * y,
    )


def wave_function(u: float, v: float, s: float = 0.0) -> Function2D:
    """cos(u x + s) sin(v y)."""
    return Function2D(
        lambda x, y: np.cos(u * x + s) * np.sin(v * y),
        lambda x, y: -u * np.sin(u * x + s) * np.sin(v * y),
        lambda x, y: v * np.cos(u * x + s) * np.cos(v * y),
        lambda x, y: -u * v * np.sin(u * x + s) * np.cos(v * y),
    )


def gauss_function(s: float) -> Function2D:
    """exp(-s (x^2 + y^2))."""

    def g(x, y):
        return np.exp(-s * (x * x + y * y))

    return Function2D(
        g,
        lambda x, y: -2.0 * s * x * g(x, y),
        lambda x, y: -2.0 * s * y * g(x, y),
        lambda x, y: 4.0 * s * s * x * y * g(x, y),
    )


def invcube_function(a0: complex) -> Function2D:
    """(a0 + x + i y)^-3, complex-valued."""

    def b(x, y):
        return a0 + x + 1j * y

    return Function2D(
        lambda x, y: b(x, y) ** -3,
        lambda x, y: -3.0 * b(x, y) ** -4,
        lambda x, y: -3.0j * b(x, y) ** -4,
        lambda x, y: 12.0j * b(x, y) ** -5,
    )


@dataclass(frozen=True)
class EmBreakdown:
    """The four right-hand-side terms of the 2-D summation identity."""

    i1: complex
    i2: complex
    i3: complex
    i4: complex
    total: complex
    err: float


def validate_partials(
    f: Function2D,
    r: Rect,
    rng: np.random.Generator,
    n_points: int = 12,
    step: float = 1e-5,
    rel_tol: float = 1e-4,
) -> None:
    """Compare the supplied partials against central finite differences at
    random sample points; raises ValueError on disagreement.

    The finite-difference truncation is O(step^2), so rel_tol cannot be
    pushed much below 1e-5 for generic C^2 functions."""
    xs = rng.uniform(r.alpha1, r.beta1, n_points)
    ys = rng.uniform(r.alpha2, r.beta2, n_points)
    for x, y in zip(xs, ys):
        fd_x = (f.phi(x + step, y) - f.phi(x - step, y)) / (2 * step)
        fd_y = (f.phi(x, y + step) - f.phi(x, y - step)) / (2 * step)
        fd_xy = (
            f.phi(x + step, y + step)
            - f.phi(x + step, y - step)
            - f.phi(x - step, y + step)
            + f.phi(x - step, y - step)
        ) / (4 * step * step)
        for got, want, name in (
            (f.dphi_dx(x, y), fd_x, "dphi_dx"),
            (f.dphi_dy(x, y), fd_y, "dphi_dy"),
            (f.d2phi_dxdy(x, y), fd_xy, "d2phi_dxdy"),
        ):
            if abs(got - want) > rel_tol * (1.0 + abs(want)):
                raise ValueError(
                    f"{name} disagrees with finite differences at ({x:.4g}, {y:.4g}): "
                    f"{got} vs {want}"
                )


def _em_integrand(phi, dphi):
    """phi + phi' P1, the integrand of the first-order Euler-MacLaurin rule."""
    return lambda t: phi(t) + dphi(t) * p1(t)


def _em_rule(phi, dphi, lo, hi, tol):
    """The first-order Euler-MacLaurin rule for the sum of phi(n) over the
    integers n in (lo, hi], phi and its derivative dphi mapping float arrays
    to arrays: the ``integrate_segment`` result for phi + phi' P1 and the
    boundary terms P1(lo) phi(lo) - P1(hi) phi(hi)."""
    q = integrate_segment(_em_integrand(phi, dphi), lo, hi, tol=tol)
    ends = phi(np.array([lo, hi], float))
    return q, p1(lo) * complex(ends[0]) - p1(hi) * complex(ends[1])


def em_sum_1d(phi, dphi, alpha: float, beta: float, tol: float = 1e-10) -> complex:
    """Sum of phi(n) over integers n in (alpha, beta] via the first-order
    Euler-MacLaurin identity (``_em_rule``).  ConvergenceError, the value as
    ``.best``, says err > tol * (1 + |sum|)."""
    if not alpha < beta:
        raise ValueError("need alpha < beta")
    check_tol(tol)
    q, ends = _em_rule(vectorize1(phi), vectorize1(dphi), alpha, beta, tol)
    value = q.value + ends
    _check_err("em_sum_1d", value, q.err, tol, value)
    return value


def em_sum_2d(f: Function2D, r: Rect, tol: float = 1e-9) -> EmBreakdown:
    """Double sum of phi over integer pairs in (alpha1, beta1] x
    (alpha2, beta2] via the two-dimensional summation identity, the 1-D
    rule along each axis (see the module docstring).

    The interior integrand phi + phi_x P1(x) + phi_y P1(y) + phi_xy P1(x)
    P1(y) is one Horner pass over the caller's four grids, with P1 taken
    once per axis of the tensor grid; the three integrals each meet tol/8
    relative to their own size, and ConvergenceError, with the breakdown
    as ``.best``, says their summed err missed tol * (1 + |total|)."""
    check_tol(tol)
    phi = vectorize2(f.phi)
    fx = vectorize2(f.dphi_dx)
    fy = vectorize2(f.dphi_dy)
    fxy = vectorize2(f.d2phi_dxdy)
    a1, b1, a2, b2 = r.alpha1, r.beta1, r.alpha2, r.beta2
    term_tol = tol / 8

    def interior(x, y):
        # x and y reach here as a row and a column of a tensor grid, so P1
        # is taken once per axis; the grids are f's own, real or complex
        px, py = p1(x), p1(y)
        return (fxy(x, y) * py + fx(x, y)) * px + fy(x, y) * py + phi(x, y)

    q1 = integrate_rect(interior, a1, b1, a2, b2, tol=term_tol)

    p1a1, p1b1 = p1(a1), p1(b1)
    p1a2, p1b2 = p1(a2), p1(b2)

    def x_edges(g):
        return lambda y: p1a1 * g(np.full_like(y, a1), y) - p1b1 * g(np.full_like(y, b1), y)

    def y_edges(g):
        return lambda x: p1a2 * g(x, np.full_like(x, a2)) - p1b2 * g(x, np.full_like(x, b2))

    q2, i4 = _em_rule(x_edges(phi), x_edges(fy), a2, b2, term_tol)
    q3 = integrate_segment(_em_integrand(y_edges(phi), y_edges(fx)), a1, b1, tol=term_tol)

    i1, i2, i3 = q1.value, q2.value, q3.value
    total = i1 + i2 + i3 + i4
    err = q1.err + q2.err + q3.err
    breakdown = EmBreakdown(i1=i1, i2=i2, i3=i3, i4=i4, total=total, err=err)
    _check_err("em_sum_2d", total, err, tol, breakdown)
    return breakdown


def integer_range(lo: float, hi: float) -> range:
    """Integers n with lo < n <= hi."""
    return range(math.floor(lo) + 1, math.floor(hi) + 1)


def brute_force_sum_2d(phi, r: Rect) -> complex:
    """Exact half-open double sum over the integer pairs in r; the oracle
    for em_sum_2d."""
    ns = integer_range(r.alpha1, r.beta1)
    ms = integer_range(r.alpha2, r.beta2)
    if len(ns) * len(ms) > BRUTE_FORCE_POINT_BUDGET:
        raise BudgetExceeded(
            f"{len(ns)} x {len(ms)} lattice points exceed the brute-force budget"
        )
    phiv = vectorize2(phi)
    total = 0j
    narr = np.array(ns, dtype=float)
    for m in ms:
        total += complex(np.sum(phiv(narr, np.full_like(narr, float(m)))))
    return total
