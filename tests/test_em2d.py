import numpy as np
import pytest

from latzeta.em2d import (
    Function2D,
    Rect,
    brute_force_sum_2d,
    em_sum_1d,
    em_sum_2d,
    gauss_function,
    integer_range,
    invcube_function,
    poly_function,
    validate_partials,
    wave_function,
)
from latzeta.errors import BudgetExceeded


def quadratic_radial():
    return poly_function((0.0, 0.0, 0.0, 1.0, 0.0, 1.0))


class TestIntegerRange:
    def test_half_open(self):
        assert list(integer_range(0.0, 4.0)) == [1, 2, 3, 4]
        assert list(integer_range(-0.5, 2.5)) == [0, 1, 2]
        assert list(integer_range(1.0, 1.5)) == []
        assert list(integer_range(0.999, 1.0)) == [1]


class TestEm1d:
    def test_triangular_numbers(self):
        for beta in (1.0, 5.0, 10.0):
            got = em_sum_1d(lambda x: x, lambda x: 1.0 + 0.0 * x, 0.0, beta)
            want = beta * (beta + 1) / 2
            assert abs(got - want) <= 1e-10

    def test_square_pyramidal(self):
        for beta in (1.0, 5.0, 10.0):
            got = em_sum_1d(lambda x: x * x, lambda x: 2.0 * x, 0.0, beta)
            want = beta * (beta + 1) * (2 * beta + 1) / 6
            assert abs(got - want) <= 1e-10

    def test_non_integer_endpoints(self):
        got = em_sum_1d(np.cos, lambda x: -np.sin(x), -2.3, 7.8)
        want = sum(np.cos(n) for n in integer_range(-2.3, 7.8))
        assert abs(got - want) <= 1e-9

    def test_empty_interval(self):
        got = em_sum_1d(lambda x: x, lambda x: 1.0 + 0.0 * x, 1.2, 1.8)
        assert abs(got) <= 1e-10


class TestEm2d:
    def test_quadratic_vs_brute_force(self):
        f = quadratic_radial()
        r = Rect(0.0, 4.0, 0.0, 4.0)
        br = em_sum_2d(f, r)
        want = brute_force_sum_2d(f.phi, r)
        assert want == 240.0
        assert abs(br.total - want) <= 1e-8

    def test_breakdown_sums_to_total(self):
        f = quadratic_radial()
        br = em_sum_2d(f, Rect(0.0, 3.0, -1.0, 2.0))
        assert br.total == br.i1 + br.i2 + br.i3 + br.i4

    def test_complex_decaying(self):
        f = invcube_function(0.4 + 0.6j)
        r = Rect(1.0, 8.0, 1.0, 8.0)
        br = em_sum_2d(f, r)
        want = brute_force_sum_2d(f.phi, r)
        assert abs(br.total - want) <= 1e-9

    def test_non_integer_rect(self):
        f = quadratic_radial()
        r = Rect(-0.7, 3.4, 0.2, 4.9)
        br = em_sum_2d(f, r)
        want = brute_force_sum_2d(f.phi, r)
        assert abs(br.total - want) <= 1e-8

    def test_rejects_empty_rect(self):
        with pytest.raises(ValueError):
            Rect(2.0, 1.0, 0.0, 1.0)


class TestValidatePartials:
    def test_accepts_correct_partials(self):
        rng = np.random.default_rng(0)
        for f in (
            quadratic_radial(),
            poly_function((0.5, -1.0, 0.25, 1.5, -0.75, 2.0)),
            wave_function(0.6, 0.3, 0.7),
            gauss_function(0.05),
            invcube_function(0.4 + 0.6j),
        ):
            validate_partials(f, Rect(0.0, 3.0, 0.0, 3.0), rng)

    def test_rejects_wrong_partials(self):
        f = Function2D(
            lambda x, y: x * x + y * y,
            lambda x, y: 3.0 * x,  # wrong
            lambda x, y: 2.0 * y,
            lambda x, y: 0.0 * x,
        )
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            validate_partials(f, Rect(0.0, 3.0, 0.0, 3.0), rng)


class TestBruteForce:
    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            brute_force_sum_2d(lambda x, y: x + y, Rect(0.0, 1e4, 0.0, 1e4))
