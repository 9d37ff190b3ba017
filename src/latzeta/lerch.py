"""Hurwitz-Lerch zeta by direct series and by Coffey's integral
representation, with Hurwitz and Riemann zeta as specializations.

The series sum_{n>=0} z^n / (a+n)^s converges for |z| < 1 (any s) and for
|z| = 1 with Re(s) > 1.  The integral representation evaluates

    1/a^s + z/(2 (a+1)^s)
        + int_1^inf z^x / (x+a)^s dx
        + int_1^inf [z^x ln z / (x+a)^s - s z^x / (x+a)^{s+1}] P1(x) dx

with z^x = exp(x Log z) on the principal branch.  The integral path is
deliberately restricted to Re(a) > 0 and z off the cut (-inf, 0] (and to
z = 1 exactly on the unit circle) so that all branches are unambiguous
and the two methods are directly comparable.

At z = 1 (Hurwitz zeta) ln z = 0.  The integral route then takes the plain
integral in closed form and integrates only the P1-weighted ray; the series
route adds an Euler-MacLaurin tail (DLMF 2.10.1) and uses no quadrature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bernoulli import p1
from .errors import DomainError, SlowConvergence
from .quadrature import check_tol, integrate_ray, integrate_segment

SERIES_TERM_BUDGET = 10**8
_CHUNK = 1 << 16
# B_2, B_4, ..., B_20 (DLMF Table 24.2.1)
_BERNOULLI_2J = (
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66,
    -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798, -174611 / 330,
)


@dataclass(frozen=True)
class LerchParams:
    z: complex
    s: complex
    a: complex

    def __post_init__(self):
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "s", complex(self.s))
        object.__setattr__(self, "a", complex(self.a))
        a = self.a
        if a.real <= 0.5 and abs(a.imag) < 1e-9:
            nearest = round(a.real)
            if nearest <= 0 and abs(a.real - nearest) <= 1e-9:
                raise DomainError(f"a = {a} is (nearly) a non-positive integer")
        r = abs(self.z)
        if r > 1 + 1e-12:
            raise DomainError(f"|z| = {r} > 1 is outside the convergence region")
        if abs(r - 1) <= 1e-12 and self.s.real <= 1:
            raise DomainError("|z| = 1 requires Re(s) > 1")

    def require_integral_path(self):
        """Extra restrictions for the integral representation."""
        if self.a.real <= 0:
            raise DomainError("integral representation requires Re(a) > 0")
        z = self.z
        if z == 0:
            raise DomainError("integral representation requires z != 0")
        if z.imag == 0 and z.real < 0:
            raise DomainError("z on the branch cut (-inf, 0]")
        if abs(abs(z) - 1) <= 1e-12 and z != 1:
            raise DomainError("on the unit circle only z = 1 is supported")


def lerch_series(p: LerchParams, tol: float = 1e-10) -> complex:
    """Partial sums of the defining series until a tail bound is below tol.

    Terms are summed in chunks that double from 64 to _CHUNK.  Let N be
    the first unsummed index, b = a + N and N + Re a > 0.  For n >= N,
    |arg(a+n)| <= |arg b| and |a+n+1|/|a+n| <= 1 + 1/(N + Re a), so
    |z^n (a+n)^-s| <= r^N |b|^-Re s e^(|Im s| |arg b|) rho^(n-N) with
    r = |z| and rho = r (1 + 1/(N + Re a))^max(0, -Re s).  For |z| < 1 and
    rho < 1 the tail is therefore at most
    r^N |b|^-Re s e^(|Im s| |arg b|) / (1 - rho).  |z| = 1, z != 1 uses
    summation by parts (Dirichlet's test): with f(n) = (n+a)^-s and partial
    sums of z^n bounded by 2/|1-z|, the tail from N is at most
    2/|1-z| (|f(N)| + sum_{n>=N} |f(n+1) - f(n)|), and the sum is at most
    |s| int_N^inf |x+a|^(-Re s-1) e^(|Im s| |arg(x+a)|) dx
    <= |s| e^(|Im s| |arg(N+a)|) (N + Re a)^(-Re s) / Re s.  z = 1 sums N
    terms and adds the Euler-MacLaurin tail at N (`_hurwitz_em`)."""
    check_tol(tol)
    z, s, a = p.z, p.s, p.a
    if z == 1:
        return _hurwitz_em(s, a, tol)
    r = abs(z)
    if r == 0:
        return a ** (-s)  # 0^0 == 1: only the n = 0 term survives
    sigma = s.real
    total = 0j
    n0 = 0
    chunk = 64
    while n0 < SERIES_TERM_BUDGET:
        hi = min(n0 + chunk, SERIES_TERM_BUDGET)
        n = np.arange(n0, hi, dtype=float)
        total += complex(np.sum(z**n * (a + n) ** (-s)))
        n0 = hi
        chunk = min(2 * chunk, _CHUNK)
        b = a + n0
        growth = math.exp(abs(s.imag * cmath.phase(b)))
        if n0 + a.real <= 0:
            tail = math.inf
        elif r < 1 - 1e-12:
            rho = r * (1.0 + 1.0 / (n0 + a.real)) ** max(0.0, -sigma)
            tail = r**n0 * abs(b) ** -sigma * growth / (1.0 - rho) if rho < 1 else math.inf
        else:
            variation = abs(s) * growth * (n0 + a.real) ** -sigma / sigma
            tail = 2.0 / abs(1.0 - z) * (abs(b ** (-s)) + variation)
        if tail < tol:
            return total
    raise SlowConvergence(
        f"series needs more than {SERIES_TERM_BUDGET} terms for tol {tol}", best=total
    )


def _hurwitz_em(s: complex, a: complex, tol: float) -> complex:
    """sum_{n>=0} (n+a)^-s for Re s > 1: the first N terms directly, then the
    Euler-MacLaurin tail at N (DLMF 2.10.1) of f(x) = (x+a)^-s,

        (N+a)^(1-s)/(s-1) + f(N)/2 - sum_{j<p} B_2j/(2j)! f^(2j-1)(N),

    with f^(m)(x) = (-1)^m (s)_m (x+a)^(-s-m).  Since the periodic
    |B~_2p| <= |B_2p| (DLMF 24.9.1, 24.17), the remainder after p - 1
    corrections is at most 2 |B_2p|/(2p)! int_N^inf |f^(2p)|; the loop
    stops once that is below tol.  For x >= N, |(x+a)^-s| <= (x + Re a)^(-Re s) e^(|Im s| |arg(N+a)|).
    N + Re a >= |s| + 12 keeps the corrections decreasing."""
    sigma = s.real
    n = max(0, math.ceil(abs(s) - a.real)) + 12
    b = a + n
    fb = b ** (-s)
    total = sum((a + k) ** (-s) for k in range(n)) + b * fb / (s - 1.0) + 0.5 * fb
    growth = math.exp(abs(s.imag * cmath.phase(b)))
    poch = s  # (s)_(2j-1)
    for j, b2j in enumerate(_BERNOULLI_2J, start=1):
        m = 2 * j
        scale = b2j / math.factorial(m)
        poch_m = poch * (s + m - 1)  # (s)_2j
        bound = 2 * abs(scale * poch_m) * growth * (n + a.real) ** (1 - sigma - m) / (sigma + m - 1)
        if bound < tol:
            return total
        total += scale * poch * fb * b ** (1 - m)
        poch = poch_m * (s + m)
    raise SlowConvergence(f"Euler-MacLaurin remainder bound {bound:.3g} > tol {tol}", best=total)


def lerch_coffey(p: LerchParams, tol: float = 1e-10) -> complex:
    """Coffey's integral representation on the principal branches.

    |z| < 1 truncates both integrals where the exponential tail bound
    falls below tol/4; when that needs a radius beyond 2^20, it raises
    SlowConvergence with the value at 2^20 as ``.best``.  At z = 1 the
    plain integral is the exact (1+a)^(1-s)/(s-1), and only the weighted
    ray -s (x+a)^(-s-1) P1(x), of decay order Re s + 1, goes to
    quadrature."""
    p.require_integral_path()
    check_tol(tol)
    z, s, a = p.z, p.s, p.a
    head = a ** (-s) + z / (2.0 * (a + 1.0) ** s)
    sigma = s.real
    if z == 1:
        q = integrate_ray(
            lambda x: -s * (x + a) ** (-s - 1.0) * p1(x), 1.0, decay_order=sigma + 1.0, tol=tol / 2
        )
        return head + (1.0 + a) ** (1.0 - s) / (s - 1.0) + q.value
    log_z = cmath.log(z)

    def zpow(x):
        return np.exp(np.asarray(x, float) * log_z)

    def plain(x):
        return zpow(x) * (x + a) ** (-s)

    def weighted(x):
        zx = zpow(x)
        return (zx * log_z * (x + a) ** (-s) - s * zx * (x + a) ** (-s - 1.0)) * p1(x)

    rate = -math.log(abs(z))
    # truncation radius from the exponential tail bound: the integral
    # of |z|^x beyond the radius R is |z|^R / rate
    radius = 16
    while (
        bound := abs(z) ** radius
        / (radius + a.real) ** sigma
        * (1.0 + abs(log_z) + abs(s) / radius)
        / rate
    ) >= tol / 4 and radius < 1 << 20:
        radius *= 2
    q1 = integrate_segment(plain, 1.0, 1.0 + radius, tol=tol / 4)
    q2 = integrate_segment(weighted, 1.0, 1.0 + radius, tol=tol / 4)
    value = head + q1.value + q2.value
    if bound >= tol / 4:
        raise SlowConvergence(
            f"tail bound {bound:.3g} at truncation radius {radius} exceeds tol/4 = {tol / 4:.3g}", best=value
        )
    return value


def hurwitz_zeta(s: complex, a: complex, tol: float = 1e-10) -> complex:
    """Hurwitz zeta for Re(s) > 1 via the integral representation at z = 1."""
    s = complex(s)
    if s.real <= 1:
        raise DomainError("hurwitz_zeta requires Re(s) > 1")
    return lerch_coffey(LerchParams(z=1.0, s=s, a=a), tol=tol)


def riemann_zeta(s: complex, tol: float = 1e-10) -> complex:
    """Riemann zeta for Re(s) > 1."""
    return hurwitz_zeta(s, 1.0, tol=tol)
