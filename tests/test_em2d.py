import numpy as np
import pytest

from latzeta import em2d
from latzeta.em2d import (
    EmBreakdown,
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
from latzeta.errors import BudgetExceeded, ConvergenceError


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

    def test_sum_that_misses_tol_raises_with_breakdown(self):
        # sum_{n=1..4} (n - 5/2) = 0, while i1 = -i2 = -2e8: each part meets
        # tol against its own size, but their roundoff is far above tol
        f = poly_function((-2.5e8, 1e8, 0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ConvergenceError) as ei:
            em_sum_2d(f, Rect(0.0, 4.0, 0.0, 1.0), tol=1e-9)
        best = ei.value.best
        assert isinstance(best, EmBreakdown) and abs(best.total) <= best.err
        assert best.err > 1e-9


def _complex(f):
    """f with every function's values made complex128."""
    parts = (f.phi, f.dphi_dx, f.dphi_dy, f.d2phi_dxdy)
    return Function2D(*(lambda x, y, g=g: np.asarray(g(x, y), complex) for g in parts))


class TestDtypes:
    @pytest.mark.parametrize("f", [wave_function(0.6, 0.3, 0.7), gauss_function(0.05)], ids=["wave", "gauss"])
    def test_real_functions_keep_real_grids(self, f, monkeypatch):
        # the interior integrand, the caller's four grids in one Horner pass,
        # stays float64; the complex copies of the same functions agree
        dtypes = []

        def recorded(g, *args, **kwargs):
            def h(x, y):
                out = g(x, y)
                dtypes.append(out.dtype)
                return out

            return rect(h, *args, **kwargs)

        rect = em2d.integrate_rect
        monkeypatch.setattr(em2d, "integrate_rect", recorded)
        r = Rect(-0.7, 3.4, 0.2, 4.9)
        real, cplx = em_sum_2d(f, r), em_sum_2d(_complex(f), r)
        assert dtypes and set(dtypes[: len(dtypes) // 2]) == {np.dtype(np.float64)}
        assert set(dtypes[len(dtypes) // 2 :]) == {np.dtype(np.complex128)}
        assert abs(real.total - cplx.total) <= real.err + cplx.err
        assert abs(real.total - brute_force_sum_2d(f.phi, r)) <= real.err

    def test_mixed_dtypes(self):
        # phi real, its partials complex: a complex grid written into a real
        # one would raise numpy's ComplexWarning, a RuntimeWarning, which the
        # test settings turn into an error
        f = wave_function(0.6, 0.3, 0.7)
        g = _complex(f)
        mixed = Function2D(f.phi, g.dphi_dx, g.dphi_dy, f.d2phi_dxdy)
        r = Rect(0.3, 5.2, -1.4, 2.1)
        br = em_sum_2d(mixed, r)
        assert abs(br.total - brute_force_sum_2d(f.phi, r)) <= br.err

    def test_cached_arrays_are_left_alone(self):
        # the caller's functions hand out the same array for the same grid;
        # none of them may be written to
        f = wave_function(0.9, 0.4, 0.2)
        cache, saved = {}, {}

        def cached(g, name):
            def h(x, y):
                key = (name, np.asarray(x).tobytes(), np.asarray(y).tobytes())
                if key not in cache:
                    cache[key] = g(x, y)
                    saved[key] = cache[key].copy()
                return cache[key]

            return h

        names = ("phi", "fx", "fy", "fxy")
        g = Function2D(*(cached(h, n) for h, n in zip((f.phi, f.dphi_dx, f.dphi_dy, f.d2phi_dxdy), names)))
        r = Rect(0.2, 3.6, 0.1, 2.8)
        first, second = em_sum_2d(g, r), em_sum_2d(g, r)
        assert first == second
        assert all(np.array_equal(cache[key], saved[key]) for key in cache)


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_seeded_sweep_against_brute_force(tol):
    # random rectangles with sides up to 7.5 and each test family: every
    # sum meets tol, and its err covers the true error
    rng = np.random.default_rng(26)
    for _ in range(6):
        a1, a2 = rng.uniform(-4, 4, 2)
        r = Rect(a1, a1 + rng.uniform(0.5, 7), a2, a2 + rng.uniform(0.5, 7))
        for f in (
            poly_function(rng.uniform(-1, 1, 6)),
            wave_function(*rng.uniform(0.2, 1.5, 3)),
            gauss_function(rng.uniform(0.02, 0.5)),
            # the pole, at -a0, lies 1..3 left of the rectangle
            invcube_function(complex(rng.uniform(1, 3) - r.alpha1, -rng.uniform(r.alpha2, r.beta2))),
        ):
            br = em_sum_2d(f, r, tol=tol)
            want = brute_force_sum_2d(f.phi, r)
            assert abs(br.total - want) <= min(br.err, tol * (1 + abs(want))), (r, f)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_rejects_unmeetable_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        em_sum_1d(np.cos, lambda x: -np.sin(x), 0.0, 3.0, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        em_sum_2d(quadratic_radial(), Rect(0.0, 3.0, 0.0, 3.0), tol=tol)


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
