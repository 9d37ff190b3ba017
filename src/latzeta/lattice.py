"""Lattices in the complex plane and the real-coordinate solve.

A lattice is the set {n*w1 + m*w2 : n, m integers} for two generators
that are R-linearly independent.  ``lattice_coordinates`` inverts the
real 2x2 system x*w1 + y*w2 = p; near-degenerate generator pairs are
rejected at construction time because they produce catastrophic
cancellation downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateLattice, ZeroGenerator

#: relative tolerance on Im(w2/w1) below which generators count as dependent
DEGENERACY_TOL = 1e-12


def _check_finite(z: complex, name: str) -> None:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ZeroGenerator(f"{name} must be finite, got {z}")


@dataclass(frozen=True)
class Lattice:
    """Generator pair (w1, w2) with Im(w2/w1) bounded away from zero."""

    w1: complex
    w2: complex

    def __post_init__(self):
        w1, w2 = complex(self.w1), complex(self.w2)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)
        _check_finite(w1, "w1")
        _check_finite(w2, "w2")
        if w1 == 0 or w2 == 0:
            raise ZeroGenerator("lattice generators must be nonzero")
        scale = (abs(w1) + abs(w2)) ** 2 / abs(w1) ** 2
        if abs((w2 / w1).imag) <= DEGENERACY_TOL * scale:
            raise DegenerateLattice(
                f"generators {w1} and {w2} are numerically R-linearly dependent"
            )

    @property
    def det(self) -> float:
        """Determinant of the real 2x2 system [Re/Im w1 | Re/Im w2]."""
        return self.w1.real * self.w2.imag - self.w1.imag * self.w2.real

    def point(self, n: float, m: float) -> complex:
        return n * self.w1 + m * self.w2


@dataclass(frozen=True)
class LatticeCoords:
    """Real coordinates (x0, y0) of a point in the lattice basis."""

    x0: float
    y0: float


def lattice_new(w1: complex, w2: complex) -> Lattice:
    """Validate and build a lattice from two generators."""
    return Lattice(w1, w2)


def reduce(lat: Lattice) -> Lattice:
    """The Lagrange-Gauss reduced basis of the lattice: |Re(w2/w1)| <= 1/2 and
    |w1| <= |w2|.  A basis that meets both up to roundoff is returned as given,
    any other as an exact integer change of it (``integer_points``)."""
    w1, w2 = lat.w1, lat.w2
    while True:
        t = (w2 / w1).real
        if abs(t) > 0.5 + 1e-9:
            w2 -= round(t) * w1
        elif abs(w2) < abs(w1) * (1 - 1e-9):
            w1, w2 = w2, w1
        elif w1 == lat.w1 and w2 == lat.w2:
            return lat
        else:
            point = integer_points(lat, 0j, Lattice(w1, w2))
            return Lattice(point(1, 0)[0], point(0, 1)[0])


def integer_points(lat: Lattice, a: complex, basis: Lattice):
    """a + n v1 + m v2 for integers (n, m), (v1, v2) a basis of lat's lattice
    taken as the integer combinations of lat's (w1, w2) its coordinates round
    to: formed exactly, rounded once, with the size of that rounding.  a, w1
    and w2 are integers over q, the largest of their parts' power-of-2
    denominators; int / int rounds once, and the rounded part's denominator
    divides q, so its distance is exact in integers."""
    coords = [lattice_coordinates(lat, v) for v in (basis.w1, basis.w2)]
    (n1, m1), (n2, m2) = ((round(c.x0), round(c.y0)) for c in coords)
    ratios = [x.as_integer_ratio() for z in (a, lat.w1, lat.w2) for x in (z.real, z.imag)]
    q = max(d for _, d in ratios)
    ar, ai, ur, ui, vr, vi = (p * (q // d) for p, d in ratios)

    def rounded(p):
        r = p / q
        pr, qr = r.as_integer_ratio()
        return r, abs(p - pr * (q // qr)) / q

    def point(n, m):
        n, m = n * n1 + m * n2, n * m1 + m * m2
        (x, dx), (y, dy) = rounded(ar + n * ur + m * vr), rounded(ai + n * ui + m * vi)
        return complex(x, y), math.hypot(dx, dy)

    return point


def lattice_coordinates(lat: Lattice, p: complex) -> LatticeCoords:
    """Solve x*w1 + y*w2 = p for real (x, y) by the closed-form 2x2 inverse."""
    det = lat.det
    scale = (abs(lat.w1) + abs(lat.w2)) ** 2
    if abs(det) <= DEGENERACY_TOL * scale:
        # cannot happen for a validated Lattice; kept as defense
        raise DegenerateLattice("lattice basis matrix is numerically singular")
    p = complex(p)
    x0 = (p.real * lat.w2.imag - p.imag * lat.w2.real) / det
    y0 = (lat.w1.real * p.imag - lat.w1.imag * p.real) / det
    return LatticeCoords(x0, y0)


def nearest_lattice_distance_in_coords(lat: Lattice, p: complex) -> float:
    """Max-norm distance from the lattice coordinates of p to the nearest
    integer pair; 0 means p is a lattice point."""
    c = lattice_coordinates(lat, p)
    return max(abs(c.x0 - round(c.x0)), abs(c.y0 - round(c.y0)))
