import cmath
import math

import pytest
from hypothesis import assume, given, strategies as st

from latzeta.errors import DegenerateLattice, ZeroGenerator
from latzeta.lattice import (
    lattice_coordinates,
    lattice_new,
    nearest_lattice_distance_in_coords,
    reduce,
)


def test_new_rejects_zero_generator():
    with pytest.raises(ZeroGenerator):
        lattice_new(0.0, 1j)
    with pytest.raises(ZeroGenerator):
        lattice_new(1.0, 0.0)


def test_new_rejects_dependent_generators():
    with pytest.raises(DegenerateLattice):
        lattice_new(1.0, 1.0)
    with pytest.raises(DegenerateLattice):
        lattice_new(1 + 1j, -2 - 2j)
    with pytest.raises(DegenerateLattice):
        lattice_new(1.0, 1.0 + 1e-15j)


def test_point_and_coordinates_inverse():
    lat = lattice_new(1.0, 0.3 + 1.1j)
    p = lat.point(3, -2)
    c = lattice_coordinates(lat, p)
    assert c.x0 == pytest.approx(3.0, abs=1e-12)
    assert c.y0 == pytest.approx(-2.0, abs=1e-12)


def test_nearest_distance():
    lat = lattice_new(1.0, 1j)
    assert nearest_lattice_distance_in_coords(lat, 0.5 + 0.5j) == pytest.approx(0.5)
    assert nearest_lattice_distance_in_coords(lat, 1 + 1j) == pytest.approx(0.0, abs=1e-12)


COORD = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
GEN = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@given(COORD, COORD, GEN, st.floats(min_value=0.5, max_value=3.0, allow_nan=False))
def test_coordinate_round_trip(x, y, re2, im2):
    lat = lattice_new(1.0, complex(re2, im2))
    a = x * lat.w1 + y * lat.w2
    c = lattice_coordinates(lat, a)
    assert c.x0 == pytest.approx(x, abs=1e-10 * (1 + abs(x) + abs(y)))
    assert c.y0 == pytest.approx(y, abs=1e-10 * (1 + abs(x) + abs(y)))


@given(COORD, COORD, COORD, COORD)
def test_coordinates_linear(x1, y1, x2, y2):
    lat = lattice_new(1.0, 0.25 + 1j)
    a = complex(x1, y1)
    b = complex(x2, y2)
    ca = lattice_coordinates(lat, a)
    cb = lattice_coordinates(lat, b)
    cab = lattice_coordinates(lat, a + b)
    scale = 1 + abs(ca.x0) + abs(cb.x0) + abs(ca.y0) + abs(cb.y0)
    assert cab.x0 == pytest.approx(ca.x0 + cb.x0, abs=1e-9 * scale)
    assert cab.y0 == pytest.approx(ca.y0 + cb.y0, abs=1e-9 * scale)


def test_reduce_keeps_reduced_bases():
    # exp(i pi/3) has real part 0.5000000000000001, which round() sends
    # to 1: a reduced basis must come back as given, not moved by roundoff
    for w2 in (1j, cmath.exp(1j * math.pi / 3), 0.35 + 1.15j, -1j, 0.5 - 0.9j):
        lat = lattice_new(1.0, w2)
        assert reduce(lat) is lat


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.sampled_from([1j, 0.35 + 1.15j]))
def test_reduce_finds_a_reduced_basis_of_the_same_lattice(p, q, r, w2):
    # a unimodular change of basis: p s - q r = 1
    assume(p != 0)
    s, rest = divmod(1 + q * r, p)
    assume(rest == 0)
    base = lattice_new(1.0, w2)
    lat = lattice_new(p * base.w1 + q * base.w2, r * base.w1 + s * base.w2)
    red = reduce(lat)
    assert abs((red.w2 / red.w1).real) <= 0.5 + 1e-9
    assert abs(red.w1) <= abs(red.w2) * (1 + 1e-9)
    assert abs(abs(red.det) - abs(base.det)) <= 1e-9
    for w in (red.w1, red.w2):
        c = lattice_coordinates(base, w)
        assert abs(c.x0 - round(c.x0)) + abs(c.y0 - round(c.y0)) <= 1e-9
