import cmath
import itertools
import math

import numpy as np
import pytest

from latzeta.errors import NoConvergence, UnsupportedDecay
from latzeta.lattice import lattice_new
from latzeta.quadrature import (
    _GL4_W,
    _GL4_X,
    _GL8_W,
    _GL8_X,
    _GL16_W,
    _GL16_X,
    _eval_panel_batch,
    _cutpoints,
    _rect_fixed,
    _strip_rect,
    integrate_half_strip,
    integrate_line,
    integrate_ray,
    integrate_rect,
    integrate_segment,
    richardson_extrapolate,
    shanks_extrapolate,
    vectorize1,
    vectorize2,
)
from latzeta.weil import WeilParams, _strip_integrand, weil_direct, weil_integral


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
        # the kink at 1 is an integer cut
        q = integrate_segment(lambda x: np.abs(x - 1.0), 0.0, 3.0, tol=1e-12)
        assert q.value == pytest.approx(0.5 + 2.0, abs=1e-10)

    def test_kink_off_integer_grid(self):
        # the kink at 0.3 is no cut, so bisection has to find it
        q = integrate_segment(lambda x: np.abs(x - 0.3), 0.0, 3.0, tol=1e-12)
        truth = (0.3**2 + 2.7**2) / 2
        assert abs(q.value - truth) <= 1e-12 * (1 + truth)
        assert q.err >= abs(q.value - truth)

    def test_err_bounds_truth(self):
        q = integrate_segment(lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 10.0, tol=1e-10)
        # analytic value of int_0^10 e^-x sin 3x dx
        truth = (3 - math.exp(-10) * (math.sin(30) + 3 * math.cos(30))) / 10
        assert abs(q.value - truth) <= max(q.err * 10, 1e-13)

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr("latzeta.quadrature.DEFAULT_PANEL_BUDGET", 2)
        with pytest.raises(NoConvergence) as ei:
            integrate_segment(lambda x: np.sin(1000 * x), 0.0, 50.0, tol=1e-14)
        assert ei.value.best is not None
        assert cmath.isfinite(ei.value.best.value)

    def test_panel_batch_matches_per_panel_rule(self):
        # 1500 panels: more than one integrand call of 1024 panels
        rng = np.random.default_rng(5)
        lo = rng.uniform(0.0, 20.0, 1500)
        hi = lo + rng.uniform(0.05, 2.0, 1500)
        fv = vectorize1(lambda x: np.exp(1j * x) / (1.0 + x * x))
        got = _eval_panel_batch(fv, list(zip(lo.tolist(), hi.tolist())))
        assert len(got) == 1500
        for a, b, (value, err, mass) in zip(lo, hi, got):
            mid, h = 0.5 * (a + b), 0.5 * (b - a)
            halves = [fv(0.5 * h * _GL16_X + c) for c in (0.5 * (a + mid), 0.5 * (mid + b))]
            coarse = h * np.dot(_GL16_W, fv(h * _GL16_X + mid))
            fine = 0.5 * h * sum(np.dot(_GL16_W, v) for v in halves)
            want_mass = 0.5 * h * sum(np.dot(_GL16_W, np.abs(v)) for v in halves)
            assert abs(value - fine) <= 1e-14 * abs(fine)
            assert abs(err - abs(fine - coarse)) <= 1e-14 * abs(fine)
            assert abs(mass - want_mass) <= 1e-14 * want_mass

    def test_scalar_only_integrand_over_many_panels(self):
        # 1200 integer panels; math.exp rejects the node arrays, so every
        # batch goes through the scalar fallback
        q = integrate_segment(lambda x: math.exp(-x / 400), 0.0, 1200.0, tol=1e-12)
        assert q.panels >= 1200
        assert q.value == pytest.approx(400 * (1 - math.exp(-3)), rel=1e-12)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
@pytest.mark.parametrize(
    "integrate",
    [
        lambda tol: integrate_segment(np.cos, 0.0, 1.0, tol=tol),
        lambda tol: integrate_rect(lambda x, y: x * y, 0.0, 1.0, 0.0, 1.0, tol=tol),
        lambda tol: integrate_line(lambda x: 1.0 / (1.0 + x * x), decay_order=2.0, tol=tol),
        lambda tol: integrate_ray(lambda x: x**-2.0, 1.0, decay_order=2.0, tol=tol),
        lambda tol: integrate_half_strip(lambda x, y: (1.0 + x * x + y * y) ** -2.0, 0.0, "up", 4.0, tol=tol),
    ],
    ids=["segment", "rect", "line", "ray", "half_strip"],
)
def test_rejects_unmeetable_tol(integrate, tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        integrate(tol)


class TestLine:
    def test_lorentzian(self):
        q = integrate_line(lambda x: 1.0 / (1.0 + x * x), decay_order=2.0, tol=1e-10)
        assert q.value == pytest.approx(math.pi, abs=1e-9)

    def test_shifted_peak(self):
        q = integrate_line(lambda x: 1.0 / (1.0 + (x - 3.0) ** 2) ** 2, decay_order=4.0, tol=1e-10)
        assert q.value == pytest.approx(math.pi / 2, abs=1e-9)

    def test_absolute_requires_decay(self):
        with pytest.raises(UnsupportedDecay):
            integrate_line(lambda x: 1.0 / (1.0 + np.abs(x)), decay_order=1.0)


class TestRay:
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

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr("latzeta.quadrature.DEFAULT_PANEL_BUDGET", 20)
        with pytest.raises(NoConvergence) as ei:
            integrate_rect(lambda x, y: np.sin(40 * x * y), 0.0, 3.0, 0.0, 3.0, tol=1e-14)
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

    def test_weil_strip_converges_by_radius_32(self):
        # square lattice, a = 0.3 + 0.2i, k = 8: the strip above the band
        # y in (-0.45, 0.05) around the pole row y0 = -0.2
        f = _strip_integrand(1.0, 1j, 0.3 + 0.2j, 8)
        q = integrate_half_strip(f, 0.05, "up", decay_order=8.0, tol=2.5e-9, hot_x=-0.3, max_radius=32)
        assert cmath.isfinite(q.value)
        assert q.err <= 2.5e-9 * (1 + abs(q.value))

    def test_slab_err_bounds_rule_error(self):
        # right-hand slabs of the levels r = 8 (GL8 cells) and r = 32 (GL4
        # cells) of the strip above y = 0.05, peak at x = -0.3
        fv2 = vectorize2(_strip_integrand(1.0, 1j, 0.3 + 0.2j, 3))
        for slab, gl in (
            ((3.5, 7.5, 0.05, 4.05), (_GL8_X, _GL8_W)),
            ((15.5, 31.5, 0.05, 16.05), (_GL4_X, _GL4_W)),
        ):
            q = _strip_rect(fv2, *slab, -0.3, 0.05, gl)
            truth = integrate_rect(fv2, *slab, tol=1e-14).value
            assert q.err > 0
            assert abs(q.value - truth) <= q.err

    # the slabs of test_slab_err_bounds_rule_error, each with a sharp peak
    # inside its hot cell, so that the rule error dwarfs the roundoff of
    # the difference coarse - fine
    SLABS = (
        ((3.5, 7.5, 0.05, 4.05), (_GL8_X, _GL8_W)),
        ((-7.5, 8.5, 4.05, 8.05), (_GL8_X, _GL8_W)),
        ((15.5, 31.5, 0.05, 16.05), (_GL4_X, _GL4_W)),
    )

    @staticmethod
    def _peaked(slab):
        px, py = 0.5 * (slab[0] + slab[1]) + 0.2, slab[2] + 0.3
        return px, py, vectorize2(lambda x, y: (1 + 2j) / ((x - px) ** 2 + (y - py) ** 2 + 0.04))

    def test_slab_err_matches_two_call_estimate(self):
        for slab, gl in self.SLABS:
            px, py, fv2 = self._peaked(slab)
            x_edges = _cutpoints(slab[0], slab[1])
            y_edges = _cutpoints(slab[2], slab[3])
            i = int(np.searchsorted(x_edges, px)) - 1
            j = int(np.searchsorted(y_edges, py)) - 1
            coarse, fine = (
                _rect_fixed(fv2, np.linspace(*x_edges[i : i + 2], n), np.linspace(*y_edges[j : j + 2], n), gl)[0]
                for n in (2, 3)
            )
            want = abs(fine - coarse) * (len(x_edges) - 1) * (len(y_edges) - 1)
            assert _strip_rect(fv2, *slab, px, py, gl).err == pytest.approx(want, rel=1e-12)

    def test_slab_makes_two_integrand_calls(self):
        # one call for the rule on the whole slab, one for its error estimate
        for slab, gl in self.SLABS:
            px, py, fv2 = self._peaked(slab)
            calls = []

            def counted(x, y):
                calls.append(np.broadcast_shapes(np.shape(x), np.shape(y)))
                return fv2(x, y)

            q = _strip_rect(counted, *slab, px, py, gl)
            assert len(calls) == 2
            assert q.evals == sum(math.prod(shape) for shape in calls)

    def test_weil_err_bounds_true_error(self):
        for w2, x, y, k in itertools.product(
            (1j, cmath.exp(1j * math.pi / 3)), (0.0, 0.375, 0.875), (0.2, 0.5, 1.0), (3, 8)
        ):
            if x == 0.0 and y == 1.0:
                continue  # a lattice point
            p = WeilParams(lattice_new(1.0, w2), x + y * w2, k)
            want = weil_direct(p, tol=1e-13).value
            for tol in (1e-8, 1e-11):
                q = weil_integral(p, tol=tol)
                assert abs(q.value - want) <= q.err, (w2, x, y, k, tol)


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
