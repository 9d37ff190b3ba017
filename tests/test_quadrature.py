import cmath
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from latzeta import quadrature
from latzeta.bernoulli import p1
from latzeta.errors import NoConvergence
from latzeta.lattice import lattice_new
from latzeta.lerch import _em_start, _em_tail
from latzeta.quadrature import (
    _K15,
    _LADDER,
    _EPS_FLOOR,
    _eval_cells,
    _refine,
    _rules,
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
from latzeta.weil import (
    WeilParams,
    _band_row,
    _strip_box,
    _strip_integrand,
    weil_direct,
    weil_integral,
)


@pytest.fixture
def batches(monkeypatch):
    """The number of rows of each ``_eval_cells`` call of a test, in order."""
    seen, eval_cells = [], quadrature._eval_cells

    def counted(fv, cells, *rule):
        seen.append(len(cells))
        return eval_cells(fv, cells, *rule)

    monkeypatch.setattr(quadrature, "_eval_cells", counted)
    return seen


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

    def test_eval_cells_matches_per_cell_rule(self):
        # 1500 panels and 150 cells: more than one integrand call of
        # _MAX_CALL_POINTS // 15 (1092) panels or // 225 (72) cells.  Each
        # returns K15 (K15xK15), |K15 - G7| (|K15xK15 - G7xG7|) and the
        # K15 integral of |f|, summed here with np.dot on each cell
        rng = np.random.default_rng(5)
        x, wk, wg = _K15
        f1 = vectorize1(lambda x: np.exp(1j * x) / (1.0 + x * x))
        f2 = vectorize2(lambda x, y: np.exp(1j * (x - 0.5 * y)) / (1.0 + x * x + y))
        for fv, n in ((f1, 1500), (f2, 150)):
            lo = rng.uniform(0.0, 20.0, (n, 1 if fv is f1 else 2))
            cells = np.stack([lo, lo + rng.uniform(0.05, 2.0, lo.shape)], 2).reshape(n, -1)
            *got, evals = _eval_cells(fv, cells)
            assert evals == n * x.size ** lo.shape[1]
            assert all(isinstance(arr, np.ndarray) and arr.shape == (n,) for arr in got)
            for cell, value, err, mass in zip(cells, *got):
                h = 0.5 * (cell[1::2] - cell[::2])
                nodes = [h_d * x + lo_d + h_d for h_d, lo_d in zip(h, cell[::2])]
                if fv is f1:
                    vals, rule = fv(nodes[0]), np.dot
                else:
                    vals = fv(nodes[0][None, :], nodes[1][:, None])  # (y, x)
                    rule = lambda w, v: np.dot(w, np.dot(v, w))  # noqa: E731
                pairs = ((wk, vals), (wg, vals), (wk, abs(vals)))
                kronrod, gauss, want_mass = (h.prod() * rule(w, v) for w, v in pairs)
                assert abs(value - kronrod) <= 1e-14 * abs(kronrod)
                assert abs(err - abs(kronrod - gauss)) <= 1e-14 * abs(kronrod)
                assert abs(mass - want_mass) <= 1e-14 * want_mass

    def test_kronrod_rule_is_exact(self):
        # K15 is exact for x^d, d <= 23, on [-1, 1], and its G7 subset for
        # d <= 13
        x, wk, wg = _K15
        gauss = 13
        for w, top in ((wk, 23), (wg, gauss)):
            for d in range(top + 1):
                assert abs(np.dot(w, x**d) - (2.0 / (d + 1) if d % 2 == 0 else 0.0)) <= 1e-15
        assert abs(np.dot(wg, x ** (gauss + 1)) - 2.0 / (gauss + 2)) > 1e-6

    def test_gauss_rule_is_exact(self):
        # each rule GL_n of the ladder is exact for x^d, d <= 2n - 1, on
        # [-1, 1]; GL8 is not for d = 16
        for n in _LADDER:
            x, w, _, _ = _rules(n)
            for d in range(2 * n):
                assert abs(np.dot(w, x**d) - (2.0 / (d + 1) if d % 2 == 0 else 0.0)) <= 1e-15, (n, d)
        x, w, _, _ = _rules(8)
        assert abs(np.dot(w, x**16) - 2.0 / 17) > 1e-6

    @pytest.mark.parametrize("n", _LADDER)
    def test_gauss_rule_matches_legendre_roots(self, n):
        # nodes the roots of P_n and weights 2 / ((1 - x^2) P_n'(x)^2),
        # each from mpmath at 30 digits, to within one unit in the last place
        mpmath = pytest.importorskip("mpmath")
        x, w, _, _ = _rules(n)
        assert np.all(np.diff(x) > 0)
        with mpmath.workdps(30):
            for node, weight in zip(x, w):
                root = mpmath.findroot(lambda t: mpmath.legendre(n, t), mpmath.mpf(node))
                slope = mpmath.diff(lambda t: mpmath.legendre(n, t), root)
                want = 2 / ((1 - root**2) * slope**2)
                assert abs(node - root) <= 2.3e-16 * abs(root) and abs(weight - want) <= 2.3e-16 * want

    def test_gl8_equals_the_table(self):
        # Abramowitz and Stegun, Table 25.4: GL8's nodes in (0, 1) and their
        # weights, largest node first
        xs = [0.9602898564975362317, 0.7966664774136267396, 0.5255324099163289858, 0.1834346424956498049]
        ws = [0.1012285362903762591, 0.2223810344533744706, 0.3137066458778872873, 0.3626837833783619830]
        x, w, _, _ = _rules(8)
        for got, want in ((x[:4], np.negative(xs)), (x[:3:-1], xs), (w[:4], ws), (w[:3:-1], ws)):
            assert np.all(np.abs(got - want) <= 2.3e-16 * np.abs(want))

    def test_unchecked_rule_estimates_zero(self):
        # a Gauss-Legendre rule runs only where the caller bounds its error:
        # its own estimate is 0, not |value|.  e^(x + iy) on two unit cells
        fv = vectorize2(lambda x, y: np.exp(x + 1j * y))
        cells = np.array([(0.0, 1.0, 0.0, 1.0), (1.0, 2.0, -1.0, 0.0)])
        value, err, _, evals = _eval_cells(fv, cells, 8)
        want = [(math.e - 1) * (cmath.exp(1j) - 1) / 1j, (math.e**2 - math.e) * (1 - cmath.exp(-1j)) / 1j]
        assert np.all(np.abs(value - want) <= 1e-14) and np.all(err == 0) and evals == 2 * 64

    def test_import_loads_neither_mpmath_nor_scipy(self):
        # the Kronrod constants are literals and the Gauss-Legendre rules
        # come from the Legendre recurrence: importing the package loads no
        # multiprecision or scientific library, nor numpy.polynomial, whose
        # import alone costs more than a megabyte of memory
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = "import sys, latzeta; print(sorted({'mpmath', 'scipy', 'numpy.polynomial'} & set(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_unit_cells_meet_tol_on_smooth_far_integrand(self):
        # e^(cx) (1 + P1(x)) on [1, 4097]: the same kind of integrand as
        # Coffey's segment, slowly varying on each unit cell, where K15
        # meets tol on the first pass
        c, m, tol = -0.005 + 0.1j, 4096, 1e-11
        fv = vectorize1(lambda x: np.exp(c * x) * (1.0 + p1(x)))
        ec = cmath.exp(c)
        cell_p1 = (ec + 1) / (2 * c) - (ec - 1) / c**2  # int_0^1 (t - 1/2) e^(ct) dt
        truth = (cmath.exp(c * (1 + m)) - ec) / c + ec * (cmath.exp(c * m) - 1) / (ec - 1) * cell_p1
        q = integrate_segment(fv, 1.0, 1.0 + m, tol)
        assert (q.panels, q.evals) == (m, 15 * m)
        assert q.err >= abs(q.value - truth)
        assert abs(q.value - truth) <= tol * (1 + abs(truth))

    def test_evals_count_the_rule_of_each_panel(self):
        # a smooth integrand meets tol on the first pass: 26 K15 panels,
        # and one for part of a cell
        fv = vectorize1(lambda x: np.exp(-x / 50))
        assert integrate_segment(fv, 1.0, 27.0, 1e-8).evals == 15 * 26
        assert integrate_segment(fv, 17.5, 17.75, 1e-8).evals == 15
        # the widest span is cut at every integer too (tol 1 ends it on
        # the first pass), and a wider one raises before any evaluation
        q = integrate_segment(fv, 18.0, 18.0 + (1 << 20), 1.0)
        assert (q.panels, q.evals) == (1 << 20, 15 << 20)

        def unexpected(x):
            raise AssertionError("evaluated")

        with pytest.raises(NoConvergence):
            integrate_segment(unexpected, 18.0, 18.0 + (1 << 20) + 2, 1.0)

    def test_segment_budget_adds_to_its_cells(self, monkeypatch):
        # 8 unit cells and a budget of 24 end on 32 panels: every cell
        # split twice, and the segment meets tol with err >= true error
        tol = 1e-13
        truth = (cmath.exp(48j) - 1) / 6j
        monkeypatch.setattr("latzeta.quadrature.DEFAULT_PANEL_BUDGET", 24)
        q = integrate_segment(lambda x: np.exp(6j * x), 0.0, 8.0, tol)
        assert (q.panels, q.evals) == (32, 15 * (8 + 16 + 32))
        assert q.err >= abs(q.value - truth)
        assert q.err <= tol * (1 + abs(q.value)) + 1e-15
        # a budget of 8 stops at 16 panels and a budget of 0 at the cells:
        # tol is missed, and the raise carries the result so far
        for budget in (8, 0):
            monkeypatch.setattr("latzeta.quadrature.DEFAULT_PANEL_BUDGET", budget)
            with pytest.raises(NoConvergence) as info:
                integrate_segment(lambda x: np.exp(6j * x), 0.0, 8.0, tol)
            assert info.value.best.panels == 8 + budget
            assert info.value.best.err >= abs(info.value.best.value - truth)

    def test_budget_runs_out_in_one_split_pass(self, monkeypatch, batches):
        # 4096 unit cells, 1024 of them under sin(1e4 x), whose K15 - G7
        # estimates stay far above tol however often they are halved, and a
        # budget of 1024 panels: the first pass finds tol within reach, one
        # pass splits all 1024, and the next raises with no panel left,
        # after two evaluation batches
        monkeypatch.setattr(quadrature, "DEFAULT_PANEL_BUDGET", 1024)
        with pytest.raises(NoConvergence, match="no item left to split") as info:
            integrate_segment(lambda x: np.where(x < 1024, np.sin(1e4 * x), 1.0), 0.0, 4096.0, 1e-10)
        assert batches == [4096, 2048]
        assert (info.value.best.panels, info.value.best.evals) == (4096 + 1024, 15 * (4096 + 2048))

    def test_unsplittable_panels_raise_with_best(self):
        # bisection towards the singularity at 0.3 ends on panels too small
        # to split while tol is still missed: NoConvergence, not a silent
        # return, and the best result's err bounds its true error
        truth = 2 * (math.sqrt(0.3) + math.sqrt(0.7))
        with pytest.raises(NoConvergence) as info:
            integrate_segment(lambda x: np.abs(x - 0.3) ** -0.5, 0.0, 1.0, tol=1e-10)
        best = info.value.best
        assert best.err >= abs(best.value - truth)

    def test_scalar_only_integrand_over_many_panels(self):
        # 1200 integer panels; math.exp rejects the node arrays, so every
        # batch goes through the scalar fallback
        q = integrate_segment(lambda x: math.exp(-x / 400), 0.0, 1200.0, tol=1e-12)
        assert q.panels >= 1200
        assert q.value == pytest.approx(400 * (1 - math.exp(-3)), rel=1e-12)


class TestRefine:
    """``_refine`` on synthetic items: rows (lo, hi), where an item of depth
    d = -log2(hi - lo) holds value and |f| mass 2^-d."""

    @staticmethod
    def evaluate(errs):
        def evaluate(rows):
            w = rows[:, 1] - rows[:, 0]
            depths = np.round(-np.log2(w)).astype(int).tolist()
            return w.astype(complex), np.array([errs(d) for d in depths]), w, len(rows)

        return evaluate

    @staticmethod
    def rows(depth, count, lo=0.0):
        # count adjacent items of the given depth from lo
        edges = lo + 0.5**depth * np.arange(count + 1)
        return np.stack([edges[:-1], edges[1:]], 1)

    def test_floor_counts_the_mass_of_the_leaves_only(self):
        # every item of depth < 5 has error 1: 32 leaves of total mass 1,
        # however many levels were split on the way, one pass per level
        q = _refine(self.rows(0, 1), self.evaluate(lambda d: float(d < 5)), 1e-6, 64, "test")
        assert (q.panels, q.evals, q.value) == (32, 1 + 2 + 4 + 8 + 16 + 32, 1.0)
        assert q.err == pytest.approx(_EPS_FLOOR * (1.0 + 1.0 + 1.0), rel=1e-12, abs=0.0)

    def test_full_budget_raises_with_best(self):
        # four items of depth 2 fill a budget of 4: none can split, so each
        # keeps its error, and the missed tol raises with all four summed
        with pytest.raises(NoConvergence) as info:
            _refine(self.rows(2, 4), self.evaluate(lambda d: 1e-6), 1e-6, 4, "test")
        best = info.value.best
        assert (best.panels, best.evals, best.value) == (4, 4, 1.0)
        assert best.err == pytest.approx(4e-6, rel=1e-6)

    def test_unsplittable_worst_item_does_not_block_the_rest(self):
        # the worst item (depth 50, error 1.8e-6) is too small to halve; the
        # other (depth 0, error 1.5e-6) is above its share, 1e-6, and splits
        # into two children without error, after which tol * (1 + 1) is met
        # with the worst item kept as it is
        items = np.concatenate([self.rows(50, 1), self.rows(0, 1, lo=1.0)])
        evaluate = self.evaluate(lambda d: {50: 1.8e-6, 0: 1.5e-6}.get(d, 0.0))
        q = _refine(items, evaluate, 1e-6, 64, "test")
        assert (q.panels, q.evals, q.value) == (3, 2 + 2, 1.0 + 2.0**-50)
        assert q.err == pytest.approx(1.8e-6, rel=1e-6)

    def test_budget_too_small_raises_before_splitting(self):
        # eight items of depth 3 with error 1e-6 each: a budget of 10 lets
        # two of them split, and the other six alone miss tol, so it raises
        # after the first evaluation; a budget of 16 splits all eight in
        # one pass
        items = self.rows(3, 8)
        evaluate = self.evaluate(lambda d: 1e-6 if d == 3 else 0.0)
        with pytest.raises(NoConvergence) as info:
            _refine(items, evaluate, 1e-7, 10, "test")
        assert (info.value.best.panels, info.value.best.evals) == (8, 8)
        q = _refine(items, evaluate, 1e-7, 16, "test")
        assert (q.panels, q.evals, q.value) == (16, 8 + 16, 1.0)


#: the integral of 1 / (1 + x^2) beyond |x| = 8
_LORENTZ_TAIL = 2 * (math.pi / 2 - math.atan(8.0))


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
@pytest.mark.parametrize(
    "integrate",
    [
        lambda tol: integrate_segment(np.cos, 0.0, 1.0, tol=tol),
        lambda tol: integrate_rect(lambda x, y: x * y, 0.0, 1.0, 0.0, 1.0, tol=tol),
        lambda tol: integrate_line(lambda x: 1.0 / (1.0 + x * x), _LORENTZ_TAIL, (-8.0, 8.0), tol=tol),
        lambda tol: integrate_ray(lambda x: x**-2.0, 1 / 64, (1.0, 64.0), tol=tol),
        lambda tol: integrate_half_strip(lambda x, y: (1.0 + x * x + y * y) ** -2.0, 0.0, [(-8.0, 8.0, 0.0, 4.0)], tol=tol),
    ],
    ids=["segment", "rect", "line", "ray", "half_strip"],
)
def test_rejects_unmeetable_tol(integrate, tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        integrate(tol)


def _peak_cdf(u):
    """An antiderivative of (1 + u^2)^-2, tending to +-pi/4."""
    return u / (2 * (1 + u * u)) + math.atan(u) / 2


class TestLine:
    def test_lorentzian(self):
        q = integrate_line(lambda x: 1.0 / (1.0 + x * x), _LORENTZ_TAIL, (-8.0, 8.0), tol=1e-10)
        assert q.value == pytest.approx(math.pi, abs=1e-9)
        assert (q.stop, q.radius) == ("tail", 8.0)

    def test_shifted_peak(self):
        tail = math.pi / 2 - _peak_cdf(5.0) + _peak_cdf(-11.0)
        q = integrate_line(lambda x: 1.0 / (1.0 + (x - 3.0) ** 2) ** 2, tail, (-8.0, 8.0), tol=1e-10)
        assert q.value == pytest.approx(math.pi / 2, abs=1e-9)

    def test_shells_meet_tol_relative_to_the_sum(self):
        # base cancels the bulk; a narrow peak of weight 1 at x = 20 lies
        # inside the span, whose target must follow base plus the tail and
        # the span's value, not base alone.  The tails beyond |x| = 32 are
        # in closed form: (x/(4(1+x^2)^2) + 3x/(8(1+x^2)) + 3 atan(x)/8)' =
        # (1 + x^2)^-3, and the peak's is _peak_cdf's in (x - 20)/h
        a, h, tol, r = 1e4, 0.02, 1e-8, 32.0

        def f(x):
            return a / (1 + x * x) ** 3 + (2 / math.pi) * h**3 / ((x - 20) ** 2 + h * h) ** 2

        bulk = r / (4 * (1 + r * r) ** 2) + 3 * r / (8 * (1 + r * r)) + 3 * math.atan(r) / 8
        peak = math.pi / 2 - _peak_cdf((r - 20) / h) + _peak_cdf((-r - 20) / h)
        tail = 2 * a * (3 * math.pi / 16 - bulk) + 2 / math.pi * peak
        base = -3 * math.pi / 8 * a
        q = integrate_line(f, tail, (-r, r), tol=tol, base=base)
        assert abs(q.value + base - 1) <= q.err <= tol * (1 + abs(base + q.value))

    def test_span_beyond_the_cell_cap_raises_no_convergence(self):
        # the cap's raise carries no best result, and reaches the caller
        # as NoConvergence, not as an error from adding the tail to it
        with pytest.raises(NoConvergence, match="unit cells") as info:
            integrate_line(lambda x: 1.0 / (1.0 + x * x), 0.0, (-(2.0**20), 2.0**20))
        assert info.value.best is None

    def test_bound_joins_err_and_raise_carries_tail(self, monkeypatch):
        q = integrate_line(lambda x: 1.0 / (1.0 + x * x), _LORENTZ_TAIL, (-8.0, 8.0), tol=1e-10, bound=1e-3)
        assert 1e-3 <= q.err <= 1e-3 + 1e-9
        monkeypatch.setattr("latzeta.quadrature.DEFAULT_PANEL_BUDGET", 0)
        with pytest.raises(NoConvergence) as info:
            integrate_line(lambda x: 1.0 / (1.0 + x * x), _LORENTZ_TAIL, (-8.0, 8.0), tol=1e-14)
        assert info.value.best.value == pytest.approx(math.pi, abs=1e-6)


class TestRay:
    def test_algebraic(self):
        q = integrate_ray(lambda x: x**-2.0, 1 / 64, (1.0, 64.0), tol=1e-10)
        assert q.value == pytest.approx(1.0, abs=1e-8)

    def test_non_integer_decay_is_not_richardson_extrapolated(self):
        # -s (x+a)^(-s-1) P1(x), the Hurwitz ray, kept as a regression input
        # for the z = 1 ray: the segment [1, N] plus its Bernoulli tail at N.
        # An earlier driver, extrapolating the ray with Richardson's integer
        # powers, settled 8e-10 off the limit (from mpmath.zeta at 30 digits)
        s, a, tol = 3.1165095527776816, 4.115234375, 5e-11
        n = _em_start(s, a)
        tail, bound = _em_tail(s, a, n, tol / 64)
        q = integrate_ray(lambda x: -s * (x + a) ** (-s - 1.0) * p1(x), tail, (1.0, n), tol=tol, bound=bound)
        limit = 3.095910874793238e-04
        assert abs(q.value - limit) <= q.err
        assert abs(q.value - limit) <= tol

    def test_slow_algebraic(self):
        q = integrate_ray(lambda x: x**-1.2, 5 * 64.0**-0.2, (1.0, 64.0), tol=1e-8)
        assert q.value == pytest.approx(5.0, rel=1e-7)

    def test_rejects_empty_span(self):
        with pytest.raises(ValueError, match="lo < hi"):
            integrate_ray(lambda x: x**-2.0, 1.0, (1.0, 1.0))


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
        # the budget counts beyond the 9 unit cells
        assert best.panels <= 9 + 20

    def test_peak_refinement_work(self, batches):
        # a peak of height 1000 and width 0.03 at (0.3, 0.3) on [0, 2]^2:
        # the 4 unit cells refine in five passes of 2 x 2 halvings, to 97
        # panels of K15 x K15, and err bounds the true error.  The
        # reference integrates the closed form in y over x by mpmath
        mpmath = pytest.importorskip("mpmath")
        q = integrate_rect(lambda x, y: 1 / ((x - 0.3) ** 2 + (y - 0.3) ** 2 + 1e-3), 0.0, 2.0, 0.0, 2.0, 1e-10)
        assert (q.panels, q.evals, len(batches)) == (97, 28800, 6)
        with mpmath.workdps(30):
            c, h = mpmath.mpf("0.3"), mpmath.mpf("1e-3")

            def inner(x):
                r = mpmath.sqrt((x - c) ** 2 + h)
                return (mpmath.atan((2 - c) / r) + mpmath.atan(c / r)) / r

            truth = complex(mpmath.quad(inner, [0, c, 2]))
        assert q.err >= abs(q.value - truth)

    def test_cell_cap_raises_before_evaluation(self):
        # 2^11 x 2^10 unit cells, twice MAX_SPAN_CELLS in all though each
        # side is within it: the raise comes before any cell is built
        def unexpected(x, y):
            raise AssertionError("evaluated")

        with pytest.raises(NoConvergence, match="unit cells"):
            integrate_rect(unexpected, 0.0, 2.0**11, 0.0, 2.0**10)


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

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_real_and_complex_results_pass_as_they_are(self, dtype):
        xs, ys = np.linspace(0, 1, 4).reshape(1, 4), np.linspace(0, 1, 3).reshape(3, 1)
        out1, out2 = np.ones(4, dtype), np.ones((3, 4), dtype)
        assert vectorize1(lambda x: out1)(xs.ravel()) is out1
        assert vectorize2(lambda x, y: out2)(xs, ys) is out2

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.float32, np.complex64, object])
    def test_other_dtypes_become_complex(self, dtype):
        xs, ys = np.arange(4.0).reshape(1, 4), np.arange(3.0).reshape(3, 1)
        got1 = vectorize1(lambda x: (x > 1).astype(dtype))(xs.ravel())
        got2 = vectorize2(lambda x, y: (x + y > 2).astype(dtype))(xs, ys)
        assert got1.dtype == got2.dtype == np.complex128
        assert np.array_equal(got1, xs.ravel() > 1) and np.array_equal(got2, xs + ys > 2)

    def test_scalar_fallback_is_complex(self):
        xs = np.array([0.0, 1.0])
        assert vectorize1(lambda x: math.exp(x))(xs).dtype == np.complex128
        assert vectorize2(lambda x, y: math.exp(x) * y)(xs, xs).dtype == np.complex128

    def test_constant_is_broadcast_to_the_grid(self):
        xs, ys = np.zeros((1, 4)), np.zeros((3, 1))
        real, other = vectorize2(lambda x, y: 2.0)(xs, ys), vectorize2(lambda x, y: 2)(xs, ys)
        assert real.shape == other.shape == (3, 4)
        assert real.dtype == np.float64 and other.dtype == np.complex128
        assert np.all(real == 2.0) and np.all(other == 2.0)
        assert vectorize1(lambda x: 0.5)(np.zeros(5)).shape == (5,)

    def test_real_integrand_gives_real_values(self):
        # a real grid runs through real matmuls into the complex value array
        q = integrate_rect(lambda x, y: np.cos(x) * y, 0.0, 2.0, 0.0, 1.0, tol=1e-12)
        assert q.value == pytest.approx(math.sin(2.0) / 2, abs=1e-12)
        value, err, mass, _ = _eval_cells(vectorize1(np.cos), np.array([[0.0, 1.0], [1.0, 2.0]]))
        assert value.dtype == np.complex128 and value.imag.tolist() == [0.0, 0.0]
        assert value.sum().real == pytest.approx(math.sin(2.0), abs=1e-14)


def _outside_band(band):
    """The integral of (1 + x^2 + y^2)^-2 over the plane outside ``band``:
    (pi/2)(1 - |e|/sqrt(1 + e^2)) on each side, its edge at e."""
    return sum(math.pi / 2 * (1 - abs(e) / math.hypot(1, e)) for e in band)


def _strips_truth(row_ref, a, k, band, tol=1e-13):
    """J2 + J3 of the square lattice outside ``band``, as E_k(a) (direct)
    less J1 on the band edges and the integer row inside the band; returns
    the value and the summed error estimates of the direct sum and the row.
    By the first-order EM identity J1 = P1(y_up) R_k(c_up) - P1(y_dn)
    R_k(c_dn), R_k(c) = sum_n (c + n)^-k and c = a + i y on edge y."""
    p = WeilParams(lattice_new(1.0, 1j), a, k)
    direct = weil_direct(p, tol=tol)
    line = sum(sign * p1(y) * row_ref(a + 1j * y, 1.0, k) for sign, y in zip((-1, 1), band))
    n = math.floor(band[1])
    row, row_err = _band_row(a, 1.0, 1j, k, n, tol) if n > math.floor(band[0]) else (0j, 0.0)
    return direct.value - line - row, direct.err + row_err


def _weil_strips(a, k, band, tol):
    """J2 + J3 of the square lattice outside ``band`` on the box of
    ``weil._strip_box``, the pole at x0 = -Re a on row y0 = -Im a."""
    boxes, tail, bound, _ = _strip_box(1.0, 1j, a, k, -a.real, -a.imag, band, tol / 32)
    return integrate_half_strip(_strip_integrand(1.0, 1j, a, k), tail, boxes, tol, bound=bound)


class TestHalfStrip:
    def test_radial_closed_form(self):
        # (1 + x^2 + y^2)^-2 outside a band, each side's edge at e: boxes
        # |x| <= 8 of depth 4, and the x-tails beyond |x| = 8, in closed
        # form on each row, integrated over the boxes' y-spans; the rows
        # beyond the boxes, (pi/2)(1 - Y/sqrt(1 + Y^2)) at |y| = Y, are
        # left out and given as the bound
        def row_tail(y):
            c = np.sqrt(1.0 + y * y)
            return 2 * (math.pi / 2 - np.arctan(8.0 / c)) / (2 * c**3) - 2 * 8.0 / (2 * c**2 * (c**2 + 64.0))

        for band in ((0.0, 0.0), (-0.3, 0.7)):
            boxes = [(-8.0, 8.0, band[0] - 4.0, band[0]), (-8.0, 8.0, band[1], band[1] + 4.0)]
            tail = sum(integrate_segment(row_tail, lo, hi, tol=1e-14).value for _, _, lo, hi in boxes)
            cut = _outside_band((band[0] - 4.0, band[1] + 4.0))
            f = lambda x, y: (1.0 + x * x + y * y) ** -2.0  # noqa: E731
            q = integrate_half_strip(f, tail, boxes, tol=1e-8, bound=cut)
            want = _outside_band(band)
            assert q.stop == "box"
            assert abs(q.value - want) <= q.err and abs(q.value + cut - want) <= 1e-7, band

    def test_rejects_inverted_band(self):
        with pytest.raises(ValueError, match="increasing"):
            integrate_half_strip(lambda x, y: (1.0 + x * x + y * y) ** -2.0, 0.0, [(-8.0, 8.0, 0.5, 0.25)])

    def test_weil_strip_on_box(self, row_ref):
        # square lattice, a = 0.3 + 0.2i, k = 8: the strips outside the band
        # y in (-0.45, 0.05] around the pole row y0 = -0.2
        a, band = 0.3 + 0.2j, (-0.45, 0.05)
        q = _weil_strips(a, 8, band, 2.5e-9)
        assert q.stop == "box" and q.err <= 2.5e-9 * (1 + abs(q.value))
        want, want_err = _strips_truth(row_ref, a, 8, band)
        assert abs(q.value - want) <= q.err + want_err

    @pytest.mark.parametrize("k", [3, 8])
    @pytest.mark.parametrize("a", [0.3 + 0.2j, 0.3 + 0.5j], ids=["generic", "cancelling"])
    def test_joint_strips_equal_sum_of_sides(self, a, k, row_ref):
        # the band (y0 - 1/4, y0 + 1/4] around the pole row y0 = -Im a; the
        # sides' sum J2 + J3 is E_k less J1 and the band's row
        y0 = -a.imag
        band = (y0 - 0.25, y0 + 0.25)
        joint = _weil_strips(a, k, band, 1e-9)
        want, want_err = _strips_truth(row_ref, a, k, band)
        assert abs(joint.value - want) <= joint.err + want_err

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
