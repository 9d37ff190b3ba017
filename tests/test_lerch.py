import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latzeta.lerch
from latzeta.errors import ConvergenceError, DomainError
from latzeta.lerch import (
    LerchParams,
    hurwitz_zeta,
    lerch_coffey,
    lerch_series,
    riemann_zeta,
)

PI2_6 = math.pi**2 / 6


class TestParams:
    def test_rejects_nonpositive_integer_a(self):
        for a in (0.0, -1.0, -3.0, -2.0 + 1e-12j):
            with pytest.raises(DomainError):
                LerchParams(0.5, 2.0, a)

    def test_rejects_outside_disk(self):
        with pytest.raises(DomainError):
            LerchParams(1.5, 2.0, 1.0)

    def test_unit_circle_needs_res_gt_1(self):
        with pytest.raises(DomainError):
            LerchParams(1.0, 0.5, 1.0)
        LerchParams(1.0, 1.5, 1.0)  # fine

    def test_integral_path_restrictions(self):
        with pytest.raises(DomainError):
            LerchParams(-0.5, 2.0, 1.0).require_integral_path()
        with pytest.raises(DomainError):
            LerchParams(0.5, 2.0, -0.5 + 1.0j).require_integral_path()


class TestSeries:
    def test_z_zero(self):
        assert lerch_series(LerchParams(0.0, 2.0, 3.0)) == pytest.approx(1.0 / 9.0)

    def test_geometric(self):
        # s = 0 is not a special case of the implementation, but with
        # a = 1 and s = 0 the series is plain geometric
        got = lerch_series(LerchParams(0.5, 0.0, 1.0), tol=1e-12)
        assert got == pytest.approx(2.0, abs=1e-11)

    def test_zeta2_via_series(self):
        got = lerch_series(LerchParams(1.0, 2.0, 1.0), tol=1e-7)
        assert got == pytest.approx(PI2_6, abs=1e-6)


class TestCoffey:
    def test_matches_series_inside_disk(self):
        p = LerchParams(0.5, 2.0, 1.0)
        assert lerch_coffey(p, tol=1e-10) == pytest.approx(
            lerch_series(p, tol=1e-12), abs=1e-9
        )

    def test_complex_s(self):
        p = LerchParams(0.3, 1.5 + 1.0j, 2.0)
        s_val = lerch_series(p, tol=1e-12)
        c_val = lerch_coffey(p, tol=1e-10)
        assert abs(s_val - c_val) < 1e-9

    def test_s_equal_one_inside_disk(self):
        # -ln(1-z)/z at z = 1/2
        p = LerchParams(0.5, 1.0, 1.0)
        want = -math.log(0.5) / 0.5
        assert lerch_coffey(p, tol=1e-10) == pytest.approx(want, abs=1e-9)


class TestZetaSpecializations:
    @pytest.mark.parametrize(
        "s,want",
        [
            (2.0, PI2_6),
            (4.0, math.pi**4 / 90),
            (6.0, math.pi**6 / 945),
        ],
    )
    def test_even_zeta_closed_forms(self, s, want):
        assert riemann_zeta(s, tol=1e-10) == pytest.approx(want, abs=1e-9)

    def test_hurwitz_shift(self):
        # zeta(s, a) - zeta(s, a+1) = a^-s
        got = hurwitz_zeta(2.5, 1.5, tol=1e-10) - hurwitz_zeta(2.5, 2.5, tol=1e-10)
        assert got == pytest.approx(1.5**-2.5, abs=1e-9)

    def test_hurwitz_at_two(self):
        assert hurwitz_zeta(2.0, 2.0, tol=1e-10) == pytest.approx(PI2_6 - 1.0, abs=1e-9)

    def test_requires_res_gt_1(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(1.0, 1.0)


class TestCoffeyNearUnitCircle:
    """|z| -> 1 inside the disk: the exponential tail decays at rate
    -ln|z| only, which the truncation radius must account for."""

    @pytest.mark.parametrize("z,s", [(0.999, 2.0), (0.995, 2.0), (0.995, 3.0)])
    def test_matches_mpmath(self, z, s):
        mpmath = pytest.importorskip("mpmath")
        tol = 1e-10
        want = complex(mpmath.lerchphi(z, s, 1.0))
        got = lerch_coffey(LerchParams(z, s, 1.0), tol=tol)
        assert abs(got - want) <= tol * (1 + abs(want))

    @pytest.mark.parametrize("z,s", [(0.999999, 2.0), (0.99999, 1.0)])
    def test_meets_tol_or_raises_at_radius_cap(self, z, s):
        # the tail bound needs a truncation radius beyond 2^20 here
        mpmath = pytest.importorskip("mpmath")
        tol = 1e-8
        want = complex(mpmath.lerchphi(z, s, 1.0))
        try:
            got = lerch_coffey(LerchParams(z, s, 1.0), tol=tol)
        except ConvergenceError as exc:
            assert exc.best is not None
        else:
            assert abs(got - want) <= tol * (1 + abs(want))


class TestSeriesInsideDisk:
    """|z| < 1: small first chunks, stopped by a tail bound that holds for
    Re s < 0 and for complex a and s."""

    def test_term_count(self, monkeypatch):
        lengths = []

        class LoggingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def arange(self, *args, **kwargs):
                out = np.arange(*args, **kwargs)
                lengths.append(len(out))
                return out

        monkeypatch.setattr(latzeta.lerch, "np", LoggingNumpy())
        lerch_series(LerchParams(0.9, 2, 1), tol=1e-10)
        assert 0 < sum(lengths) < 1000

    # (0.5, -3, 1) is sum n^3 / 2^(n-1) over n >= 1 = 52, with growing terms
    @pytest.mark.parametrize(
        "z,s,a", [(0.5, -3, 1), (0.9, 2 + 1j, 0.5 + 0.5j), (0.999, 1.5, 0.7)]
    )
    def test_matches_mpmath(self, z, s, a):
        mpmath = pytest.importorskip("mpmath")
        tol = 1e-10
        ref = complex(mpmath.lerchphi(z, s, a))
        got = lerch_series(LerchParams(z, s, a), tol=tol)
        assert abs(got - ref) <= tol * (1 + abs(ref))


class TestSeriesOnUnitCircle:
    """|z| = 1, z != 1: the partial sums of z^n stay bounded, so the series
    tail is bounded by summation by parts long before absolute comparison
    would allow a stop."""

    @pytest.mark.parametrize(
        "z,s,a,tol",
        [
            (-1, 2, 1, 1e-8),
            (1j, 2, 1, 1e-8),
            (-1, 2, 1, 1e-12),
            (cmath.exp(2j), 3, 0.7, 1e-10),
            (-1j, 1.5 + 2j, 0.5 + 0.5j, 1e-8),
        ],
    )
    def test_matches_mpmath(self, z, s, a, tol):
        mpmath = pytest.importorskip("mpmath")
        ref = complex(mpmath.lerchphi(z, s, a))
        got = lerch_series(LerchParams(z, s, a), tol=tol)
        assert abs(got - ref) <= tol * (1 + abs(ref))


ROUTES = {"series": lerch_series, "coffey": lerch_coffey}


class TestUnitCircle:
    """z = 1 (Hurwitz zeta) through both routes against mpmath.zeta, down to
    Re s near 1 where the tails decay slowest."""

    @staticmethod
    def _check(got, s, a, tol):
        mpmath = pytest.importorskip("mpmath")
        ref = complex(mpmath.zeta(s, a))
        assert abs(got - ref) <= tol * (1 + abs(ref))

    def test_series_zeta2_tol_1e8(self):
        self._check(lerch_series(LerchParams(1, 2, 1), tol=1e-8), 2, 1, 1e-8)

    def test_hurwitz_s_1_1(self):
        self._check(hurwitz_zeta(1.1, 0.5), 1.1, 0.5, 1e-10)

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("a", [0.5, 1.0, 1.3])
    @pytest.mark.parametrize("s", [1.05, 1.1, 1.2, 1.518, 2.0, 2.5 + 0.5j])
    def test_grid(self, s, a, route, tol):
        self._check(ROUTES[route](LerchParams(1, s, a), tol=tol), s, a, tol)

    def test_series_uses_no_quadrature(self, monkeypatch):
        # the series route must stay independent of the integral route
        def fail(*args, **kwargs):
            raise AssertionError("quadrature called from lerch_series")

        monkeypatch.setattr(latzeta.lerch, "integrate_ray", fail)
        monkeypatch.setattr(latzeta.lerch, "integrate_segment", fail)
        self._check(lerch_series(LerchParams(1, 1.1, 0.5)), 1.1, 0.5, 1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        s=st.floats(1.05, 6.0),
        a=st.floats(0.2, 4.0),
        route=st.sampled_from(sorted(ROUTES)),
    )
    def test_hurwitz_shift(self, s, a, route):
        # zeta(s, a) - zeta(s, a+1) = a^-s
        tol = 1e-10
        f = ROUTES[route]
        lo, hi = f(LerchParams(1, s, a), tol=tol), f(LerchParams(1, s, a + 1), tol=tol)
        assert abs(lo - hi - a**-s) <= tol * (2 + abs(lo) + abs(hi))
