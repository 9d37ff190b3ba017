import cmath
import math

import numpy as np
import pytest

from latzeta.errors import NoConvergence, UnsupportedDecay
from latzeta.quadrature import (
    LineMode,
    integrate_half_strip,
    integrate_line,
    integrate_ray,
    integrate_rect,
    integrate_segment,
    panel_budget,
    richardson_extrapolate,
    shanks_extrapolate,
    vectorize2,
)


class TestSegment:
    def test_polynomial_exact(self):
        q = integrate_segment(lambda x: 3 * x**2, 0.0, 2.0, tol=1e-12)
        assert q.value == pytest.approx(8.0, abs=1e-11)
        assert q.err < 1e-10

    def test_oscillatory(self):
        q = integrate_segment(np.sin, 0.0, 50.0, tol=1e-11)
        assert q.value == pytest.approx(1.0 - math.cos(50.0), abs=1e-10)

    def test_complex_valued(self):
        q = integrate_segment(lambda x: np.exp(1j * x), 0.0, math.pi, tol=1e-12)
        assert q.value == pytest.approx(2j, abs=1e-10)

    def test_kink_with_breakpoint(self):
        q = integrate_segment(lambda x: np.abs(x - 1.0), 0.0, 3.0, breakpoints=(1.0,), tol=1e-12)
        assert q.value == pytest.approx(0.5 + 2.0, abs=1e-10)

    def test_err_bounds_truth(self):
        q = integrate_segment(lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 10.0, tol=1e-10)
        # analytic value of int_0^10 e^-x sin 3x dx
        truth = (3 - math.exp(-10) * (math.sin(30) + 3 * math.cos(30))) / 10
        assert abs(q.value - truth) <= max(q.err * 10, 1e-13)

    def test_budget_exhaustion(self):
        with pytest.raises(NoConvergence) as ei:
            integrate_segment(lambda x: np.sin(1000 * x), 0.0, 50.0, tol=1e-14, budget=2)
        assert ei.value.best is not None
        assert cmath.isfinite(ei.value.best.value)

    def test_env_budget_override(self, monkeypatch):
        monkeypatch.setenv("LATZETA_PANEL_BUDGET", "3")
        assert panel_budget(None) == 3
        monkeypatch.delenv("LATZETA_PANEL_BUDGET")
        assert panel_budget(7) == 7


class TestLine:
    def test_lorentzian(self):
        q = integrate_line(lambda x: 1.0 / (1.0 + x * x), LineMode.ABSOLUTE, decay_order=2.0, tol=1e-10)
        assert q.value == pytest.approx(math.pi, abs=1e-9)

    def test_shifted_peak(self):
        q = integrate_line(
            lambda x: 1.0 / (1.0 + (x - 3.0) ** 2) ** 2, LineMode.ABSOLUTE, decay_order=4.0, tol=1e-10
        )
        assert q.value == pytest.approx(math.pi / 2, abs=1e-9)

    def test_symmetric_mode_odd_function(self):
        q = integrate_line(lambda x: x / (1.0 + x * x), LineMode.SYMMETRIC, tol=1e-9)
        assert abs(q.value) < 1e-9

    def test_absolute_requires_decay(self):
        with pytest.raises(UnsupportedDecay):
            integrate_line(lambda x: 1.0 / (1.0 + np.abs(x)), LineMode.ABSOLUTE, decay_order=1.0)


class TestRay:
    def test_exponential(self):
        q = integrate_ray(lambda x: np.exp(-x), 0.0, exp_rate=1.0, tol=1e-11)
        assert q.value == pytest.approx(1.0, abs=1e-9)

    def test_algebraic(self):
        q = integrate_ray(lambda x: x**-2.0, 1.0, decay_order=2.0, tol=1e-10)
        assert q.value == pytest.approx(1.0, abs=1e-8)

    def test_slow_algebraic(self):
        q = integrate_ray(lambda x: x**-1.2, 1.0, decay_order=1.2, tol=1e-8)
        assert q.value == pytest.approx(5.0, rel=1e-7)

    def test_rejects_nonintegrable(self):
        with pytest.raises(UnsupportedDecay):
            integrate_ray(lambda x: 1.0 / x, 1.0, decay_order=1.0)


class TestRect:
    def test_separable_polynomial(self):
        q = integrate_rect(lambda x, y: x * x * y, 0.0, 2.0, 0.0, 3.0, tol=1e-11)
        assert q.value == pytest.approx(8.0 / 3.0 * 4.5, abs=1e-9)

    def test_gaussian_bump(self):
        q = integrate_rect(
            lambda x, y: np.exp(-((x - 1) ** 2 + (y - 2) ** 2)), -6.0, 8.0, -5.0, 9.0, tol=1e-10
        )
        assert q.value == pytest.approx(math.pi, abs=1e-8)

    def test_scalar_only_integrand(self):
        # math.exp rejects the (cells, y, x) node grids, so every node goes
        # through the scalar fallback
        q = integrate_rect(lambda x, y: math.exp(-x - 2 * y), 0.0, 1.0, 0.0, 2.0, tol=1e-11)
        assert q.value == pytest.approx((1 - math.exp(-1)) * (1 - math.exp(-4)) / 2, abs=1e-10)

    def test_budget_exhaustion(self):
        with pytest.raises(NoConvergence) as ei:
            integrate_rect(lambda x, y: np.sin(40 * x * y), 0.0, 3.0, 0.0, 3.0, tol=1e-14, budget=20)
        best = ei.value.best
        assert cmath.isfinite(best.value)
        assert best.panels <= 20


class TestVectorize:
    def test_scalar_only_integrand_falls_back(self):
        calls = []

        def f(x, y):
            calls.append((x, y))
            return math.exp(-x) * y

        xs = np.array([[0.0, 1.0, 2.0]])
        ys = np.array([[1.0], [3.0]])
        got = vectorize2(f)(xs, ys)
        assert got.shape == (2, 3)
        assert got == pytest.approx(np.exp(-xs) * ys, rel=1e-15)
        # one failed array call, then one scalar call per grid point
        assert len(calls) == 1 + 6
        assert all(isinstance(x, float) and isinstance(y, float) for x, y in calls[1:])

    def test_axes_reach_integrand_unbroadcast(self):
        shapes = []

        def f(x, y):
            shapes.append((x.shape, y.shape))
            return np.cos(x)

        got = vectorize2(f)(np.zeros((1, 4)), np.zeros((3, 1)))
        assert shapes == [((1, 4), (3, 1))]
        assert got.shape == (3, 4)
        assert np.all(got == 1.0)


class TestHalfStrip:
    def test_radial_closed_form(self):
        # integral of (1 + x^2 + y^2)^-2 over the upper half-plane is pi/2
        q = integrate_half_strip(
            lambda x, y: (1.0 + x * x + y * y) ** -2.0, 0.0, "up", decay_order=4.0, tol=1e-8
        )
        assert q.value == pytest.approx(math.pi / 2, abs=1e-7)
        assert abs(q.value - math.pi / 2) <= 10 * q.err

    def test_down_direction(self):
        q = integrate_half_strip(
            lambda x, y: (1.0 + x * x + y * y) ** -2.0, 0.0, "down", decay_order=4.0, tol=1e-8
        )
        assert q.value == pytest.approx(math.pi / 2, abs=1e-7)

    def test_radius_exhaustion(self):
        with pytest.raises(NoConvergence) as ei:
            integrate_half_strip(
                lambda x, y: (1.0 + x * x + y * y) ** -1.5, 0.0, "up", decay_order=3.0, tol=1e-12, max_radius=16
            )
        assert cmath.isfinite(ei.value.best.value)

    def test_rejects_slow_decay(self):
        with pytest.raises(UnsupportedDecay):
            integrate_half_strip(lambda x, y: (1 + x * x + y * y) ** -1.0, 0.0, "up", decay_order=2.0)


class TestExtrapolation:
    def test_richardson_on_harmonic_partials(self):
        # partial sums of 1/n^2 at N = 16, 32, ... have a 1/N error expansion
        target = math.pi**2 / 6
        levels = []
        for exp in range(4, 11):
            n = np.arange(1, 2**exp + 1, dtype=float)
            levels.append(float(np.sum(n**-2.0)))
        est, inc = richardson_extrapolate(levels)
        assert est == pytest.approx(target, abs=1e-10)
        assert abs(est - target) <= 10 * inc + 1e-14

    def test_shanks_on_geometric(self):
        levels = [sum(0.7**j for j in range(n + 1)) for n in range(8)]
        est, inc = shanks_extrapolate(levels)
        assert est == pytest.approx(1.0 / 0.3, rel=1e-10)
