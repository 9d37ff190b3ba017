"""The four workloads as seeded lists of library calls.

Each workload is a fixed list of case templates.  The seed moves every
template within a small neighbourhood (lattice shape, evaluation point,
Lerch parameters, rectangle placement, test-function coefficients), so a
new seed gives new inputs and new values to check while the cost of a
round stays close to that of any other seed.  The known-fault cases are
fixed inputs that do not depend on the seed.

This module imports latzeta but not the oracles (mpmath): the set-up probe
builds a workload and runs its first case without paying for mpmath.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import latzeta as lz

WEIL_INTEGRAL_TOL = 1e-8
WEIL_DIRECT_TOL = 1e-10
LERCH_TOL = 1e-10
EM2D_TOL = 1e-9
EM1D_TOL = 1e-10


@dataclass
class Case:
    """One library call, its reference and its tolerance.

    ``ref`` names a function of ``oracles`` and its arguments; it is
    evaluated once, outside the timed region.  ``partner``
    names an earlier case of the same round whose value times ``sign`` must
    equal this one (the parity property E_k(-a) = (-1)^k E_k(a)).
    ``fault`` describes a known defect that makes this case fail."""

    label: str
    call: Callable[[], complex]
    ref: tuple[str, tuple]
    tol: float
    partner: int | None = None
    sign: int = 1
    fault: str | None = None


def _jitter(rng: random.Random, centre: float, half_width: float) -> float:
    return centre + rng.uniform(-half_width, half_width)


def _lattices(rng: random.Random):
    """Square, hexagonal and a seeded skew lattice, as (name, w1, w2)."""
    skew_w2 = complex(_jitter(rng, 0.35, 0.01), _jitter(rng, 1.15, 0.01))
    return [
        ("square", 1.0 + 0j, 1j),
        ("hex", 1.0 + 0j, cmath.exp(1j * math.pi / 3)),
        ("skew", 1.0 + 0j, skew_w2),
    ]


# ---------------------------------------------------------------------------
# Weil functions


def weil_integral_cases(rng: random.Random) -> list[Case]:
    """k = 8 down to 3 on each lattice; generic a where lattice index + k is
    odd, otherwise an a whose pole row is an integer row (the
    row-correction path)."""
    cases = []
    lats = _lattices(rng)
    for k in range(8, 2, -1):
        for j, (name, w1, w2) in enumerate(lats):
            x = _jitter(rng, 0.3, 0.01)
            if (j + k) % 2 == 1:
                y, kind = _jitter(rng, 0.2, 0.01), "generic"
            else:
                y, kind = 1.0, "int-row"
            a = x * w1 + y * w2
            p = lz.WeilParams(lz.lattice_new(w1, w2), a, k)
            cases.append(
                Case(
                    f"weil_integral k={k} {name} {kind}",
                    lambda p=p: lz.weil_integral(p, tol=WEIL_INTEGRAL_TOL).value,
                    ("weil_ref", (w1, w2, a, k)),
                    WEIL_INTEGRAL_TOL,
                )
            )
    return cases


_CENTRED_FAULT = (
    "weil_direct centres its sums on the origin: the rows near the pole are "
    "never reached and the result is off by about |E_3| with no error raised"
)


def weil_direct_cases(rng: random.Random) -> list[Case]:
    """E_k(a) and E_k(-a) for k = 1..8, G_k for k = 3..8, on each lattice,
    plus the two shifted-point faults on the square lattice."""
    cases = []
    for name, w1, w2 in _lattices(rng):
        lat = lz.lattice_new(w1, w2)
        for k in range(1, 9):
            a = _jitter(rng, 0.3, 0.08) * w1 + _jitter(rng, 0.25, 0.08) * w2
            for sign_a in (1, -1):
                p = lz.WeilParams(lat, sign_a * a, k)
                cases.append(
                    Case(
                        f"weil_direct k={k} {name} {'+a' if sign_a > 0 else '-a'}",
                        lambda p=p: lz.weil_direct(p, tol=WEIL_DIRECT_TOL).value,
                        ("weil_ref", (w1, w2, sign_a * a, k)),
                        WEIL_DIRECT_TOL,
                        partner=len(cases) - 1 if sign_a < 0 else None,
                        sign=(-1) ** k,
                    )
                )
        for k in range(3, 9):
            cases.append(
                Case(
                    f"eisenstein_series k={k} {name}",
                    lambda lat=lat, k=k: lz.eisenstein_series(lat, k, tol=WEIL_DIRECT_TOL),
                    ("eisenstein_ref", (w1, w2, k)),
                    WEIL_DIRECT_TOL,
                )
            )
    square = lz.lattice_new(1.0, 1j)
    for shift, label in ((10j, "+10 w2"), (30000.0, "+30000 w1")):
        a = 0.3 + 0.2j + shift
        p = lz.WeilParams(square, a, 3)
        cases.append(
            Case(
                f"weil_direct k=3 square a=0.3+0.2i{label}",
                lambda p=p: lz.weil_direct(p, tol=WEIL_DIRECT_TOL).value,
                ("weil_ref", (1.0, 1j, a, 3)),
                WEIL_DIRECT_TOL,
                fault=_CENTRED_FAULT,
            )
        )
    return cases


# ---------------------------------------------------------------------------
# Hurwitz-Lerch zeta


def lerch_cases(rng: random.Random) -> list[Case]:
    """Series and Coffey routes for |z| <= 0.9 (real and complex z off the
    cut), the series alone for |z| -> 1 and on the cut, z = 1 through
    lerch_coffey / hurwitz_zeta / riemann_zeta for Re s from 1.5 to 5, and
    the three fixed-input faults."""
    def lerch(fn, z, s, a, tol=LERCH_TOL, fault=None):
        p = lz.LerchParams(z, s, a)
        return Case(
            f"{fn} z={z:.4g} s={s:.4g} a={a:.4g}",
            # looked up at call time, so the traced run sees the call
            lambda: complex(getattr(lz, fn)(p, tol=tol)),
            ("lerch_ref", (z, s, a)),
            tol,
            fault=fault,
        )

    def zeta(s, a=None, fault=None):
        if a is None:
            label, call = f"riemann_zeta s={s:.4g}", lambda: complex(lz.riemann_zeta(s, tol=LERCH_TOL))
        else:
            label, call = f"hurwitz_zeta s={s:.4g} a={a:.4g}", lambda: complex(
                lz.hurwitz_zeta(s, a, tol=LERCH_TOL)
            )
        return Case(label, call, ("zeta_ref", (s, 1.0 if a is None else a)), LERCH_TOL, fault=fault)

    j = rng.uniform
    cases = []
    # |z| <= 0.9, both routes on the same parameters
    for z, s, a in (
        (complex(j(0.45, 0.55), 0), complex(j(1.9, 2.1), 0), complex(j(0.9, 1.1), 0)),
        (complex(j(0.28, 0.32), j(0.58, 0.62)), complex(j(1.4, 1.6), j(0.9, 1.1)), complex(j(0.45, 0.55), 0)),
        (complex(j(-0.42, -0.38), j(0.68, 0.72)), complex(j(3.4, 3.6), 0), complex(j(2.2, 2.4), j(0.3, 0.5))),
        (complex(j(0.88, 0.9), 0), complex(j(0.45, 0.55), 0), complex(j(0.9, 1.1), 0)),
    ):
        cases.append(lerch("lerch_series", z, s, a))
        cases.append(lerch("lerch_coffey", z, s, a))
    # series only: z on the cut and |z| -> 1
    cases.append(lerch("lerch_series", complex(j(-0.72, -0.68), 0), complex(j(1.9, 2.1), 0), complex(j(1.4, 1.6), 0)))
    cases.append(lerch("lerch_series", complex(j(0.989, 0.991), 0), complex(j(1.9, 2.1), 0), complex(j(0.9, 1.1), 0)))
    cases.append(lerch("lerch_series", complex(j(0.9985, 0.9995), 0), complex(j(1.4, 1.6), 0), complex(j(0.6, 0.8), 0)))
    # z = 1
    cases.append(lerch("lerch_series", 1 + 0j, complex(j(3.1, 3.3), 0), complex(j(0.7, 0.9), 0)))
    cases.append(lerch("lerch_series", 1 + 0j, complex(j(4.4, 4.6), 0), complex(j(1.6, 1.8), 0)))
    cases.append(lerch("lerch_coffey", 1 + 0j, complex(j(2.9, 3.1), j(0.4, 0.6)), complex(j(1.2, 1.4), 0)))
    cases.append(lerch("lerch_coffey", 1 + 0j, complex(j(2.4, 2.6), 0), complex(j(0.9, 1.1), 0)))
    cases.append(zeta(j(1.45, 1.55), j(0.45, 0.6)))
    cases.append(zeta(j(3.9, 4.1), j(1.2, 1.4)))
    cases.append(zeta(j(2.4, 2.6)))
    cases.append(zeta(j(4.9, 5.0)))
    # known faults, fixed inputs
    cases.append(
        lerch(
            "lerch_coffey", 0.999 + 0j, 2 + 0j, 1 + 0j,
            fault="lerch_coffey's truncation bound for |z| < 1 leaves out the 1/(-ln|z|) "
            "factor of the exponential tail: 3.4e-9 off mpmath.lerchphi at tol 1e-10",
        )
    )
    cases.append(
        lerch(
            "lerch_series", 1 + 0j, 2 + 0j, 1 + 0j, tol=1e-8,
            fault="lerch_series at z = 1, s = 2 sums 1e8 terms and raises SlowConvergence",
        )
    )
    cases.append(zeta(1.1, 0.5, fault="hurwitz_zeta(1.1, 0.5) raises NoConvergence"))
    return cases


# ---------------------------------------------------------------------------
# Euler-MacLaurin summation


def _poly_wave(rng: random.Random):
    c = [rng.uniform(-1, 1) for _ in range(6)]
    amp, wx, wy, ph = rng.uniform(0.5, 1), rng.uniform(0.6, 0.9), rng.uniform(0.4, 0.7), rng.uniform(0, 6.3)

    def phi(x, y):
        return c[0] + c[1] * x + c[2] * y + c[3] * x * y + c[4] * x * x + c[5] * y * y + amp * np.sin(wx * x + wy * y + ph)

    def fx(x, y):
        return c[1] + c[3] * y + 2 * c[4] * x + amp * wx * np.cos(wx * x + wy * y + ph)

    def fy(x, y):
        return c[2] + c[3] * x + 2 * c[5] * y + amp * wy * np.cos(wx * x + wy * y + ph)

    def fxy(x, y):
        return c[3] - amp * wx * wy * np.sin(wx * x + wy * y + ph)

    return "poly+wave", phi, fx, fy, fxy


def _gaussian(rng: random.Random, rect):
    a1, b1, a2, b2 = rect
    x0 = rng.uniform(a1 + 0.3 * (b1 - a1), b1 - 0.3 * (b1 - a1))
    y0 = rng.uniform(a2 + 0.3 * (b2 - a2), b2 - 0.3 * (b2 - a2))
    var = rng.uniform(0.8, 1.2) * (min(b1 - a1, b2 - a2) / 4) ** 2

    def phi(x, y):
        return np.exp(-((x - x0) ** 2 + (y - y0) ** 2) / (2 * var))

    def fx(x, y):
        return -(x - x0) / var * phi(x, y)

    def fy(x, y):
        return -(y - y0) / var * phi(x, y)

    def fxy(x, y):
        return (x - x0) * (y - y0) / var**2 * phi(x, y)

    return "gaussian", phi, fx, fy, fxy


def _inverse_cube(rng: random.Random, rect):
    """1 / (x + i y - c)^3 with the pole c a distance 1.5..2 left of the
    rectangle."""
    a1, b1, a2, b2 = rect
    c = complex(a1 - rng.uniform(1.5, 2.0), rng.uniform(a2, b2))

    def phi(x, y):
        return (x + 1j * y - c) ** -3

    def fx(x, y):
        return -3 * (x + 1j * y - c) ** -4

    def fy(x, y):
        return -3j * (x + 1j * y - c) ** -4

    def fxy(x, y):
        return 12j * (x + 1j * y - c) ** -5

    return "inverse-cube", phi, fx, fy, fxy


def em2d_cases(rng: random.Random) -> list[Case]:
    """em_sum_2d on each test function over rectangles with sides 2..24 and
    seeded non-integer corners, and em_sum_1d on the y = alpha2 slice of the
    polynomial-plus-wave and inverse-cube functions.

    With 12 two-dimensional and 8 one-dimensional calls, the median call
    falls among the 2x3 rectangles rather than in the gap between the two
    kinds of call."""
    cases = []
    for sides in ((2, 3), (6, 4), (12, 10), (24, 18)):
        # corners at a fractional offset of 0.3..0.45 past an integer and
        # sides 0.1..0.2 longer than the integer side: every seed sums the
        # same number of integer points over the same number of unit cells
        a1 = rng.randint(-6, 5) + rng.uniform(0.3, 0.45)
        a2 = rng.randint(-6, 5) + rng.uniform(0.3, 0.45)
        rect = (a1, a1 + sides[0] + rng.uniform(0.1, 0.2), a2, a2 + sides[1] + rng.uniform(0.1, 0.2))
        for name, phi, fx, fy, fxy in (_poly_wave(rng), _gaussian(rng, rect), _inverse_cube(rng, rect)):
            f = lz.Function2D(phi, fx, fy, fxy)
            r = lz.Rect(*rect)
            cases.append(
                Case(
                    f"em_sum_2d {name} {sides[0]}x{sides[1]}",
                    lambda f=f, r=r: lz.em_sum_2d(f, r, tol=EM2D_TOL).total,
                    ("grid_sum_2d", (phi, rect)),
                    EM2D_TOL,
                )
            )
            if name == "gaussian":
                continue  # keeps 8 one-dimensional calls against 12 (see above)
            y = rect[2]
            cases.append(
                Case(
                    f"em_sum_1d {name} {sides[0]}",
                    lambda phi=phi, fx=fx, y=y, rect=rect: lz.em_sum_1d(
                        lambda x: phi(x, y), lambda x: fx(x, y), rect[0], rect[1], tol=EM1D_TOL
                    ),
                    ("grid_sum_1d", (lambda x, phi=phi, y=y: phi(x, y), rect[0], rect[1])),
                    EM1D_TOL,
                )
            )
    return cases


WORKLOADS = {
    "weil-integral": weil_integral_cases,
    "weil-direct": weil_direct_cases,
    "lerch": lerch_cases,
    "em2d": em2d_cases,
}


def build(workload: str, seed: int) -> list[Case]:
    """The seeded case list of one workload, in the order a round runs it."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
