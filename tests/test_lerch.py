import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import latzeta.lerch
from latzeta.errors import ConvergenceError, DomainError, SlowConvergence
from latzeta.lerch import (
    LerchParams,
    _em_tail,
    _hurwitz_em,
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

    def test_em_tail_returns_its_last_bound(self):
        # share 0 cannot be met: the tail stops at B_20 and returns the bound
        # it reached, which covers the true tail (mpmath at 30 digits)
        mpmath = pytest.importorskip("mpmath")
        s, a, n = 8, -1 + 0.3j, 8
        tail, bound = _em_tail(s, a, n, 0.0)
        with mpmath.workdps(30):
            b = mpmath.mpc(a) + n
            ref = complex(mpmath.zeta(s, b) - b ** (1 - s) / (s - 1) - b**-s / 2)
        assert abs(tail - ref) <= bound < 1e-15

    def test_hurwitz_em_raises_at_its_floor(self):
        # the tail's last bound, about 7e-23, misses 1e-300, and
        # SlowConvergence carries the sum
        mpmath = pytest.importorskip("mpmath")
        with pytest.raises(SlowConvergence) as info:
            _hurwitz_em(3.0, 0.5, 1e-300)
        assert abs(info.value.best - complex(mpmath.zeta(3, 0.5))) <= 1e-13


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

    @pytest.mark.parametrize(
        "z,s,a,tol",
        [
            (0.9999, -1.2871081515768996, 2.0897967125021584, 1e-8),
            (0.9999, 0.10514909583443854, 1.0873240526355523, 1e-8),
            # 1.04 tol off while a span this wide was left as one panel,
            # whose estimate missed the P1 jumps inside it
            (0.99995, 0.044443213025333606, 1.9492343528500855, 1e-6),
        ],
    )
    def test_wide_span_segment_meets_tol(self, z, s, a, tol):
        # radius 2^19: the segment starts as 2^19 unit cells, each with K15
        mpmath = pytest.importorskip("mpmath")
        want = complex(mpmath.lerchphi(z, s, a))
        got = lerch_coffey(LerchParams(z, s, a), tol=tol)
        assert abs(got - want) <= tol * (1 + abs(want))

    @pytest.mark.parametrize(
        "z,s,a,tol",
        [
            (0.07073012794753614 + 0.997395237105394j, 1.2258793870022595 - 1.0196668142482932j, 0.9562541391437767, 1e-8),
            (-0.8003424719313867 + 0.5978736719598526j, 0.5509672860782464, 2.352375778617591 + 0.8199136046274913j, 1e-12),
        ],
    )
    def test_oscillating_z_meets_tol(self, z, s, a, tol):
        # z^x turns fast over each unit cell, and the segment's K15 cells
        # still meet tol without a raise
        mpmath = pytest.importorskip("mpmath")
        want = complex(mpmath.lerchphi(z, s, a))
        got = lerch_coffey(LerchParams(z, s, a), tol=tol)
        assert abs(got - want) <= tol * (1 + abs(want))

    @pytest.mark.parametrize(
        "z,s,a",
        [
            (
                -0.5854847332040557 + 0.8102550254691104j,
                2.0558418252607717 + 0.8920031228454264j,
                0.7032934579910112 + 0.8383430170235426j,
            ),
            (0.9845546188976202 + 0.174137072273383j, 0.8089085208881404, 0.9042611190439882),
        ],
    )
    def test_full_budget_segment_meets_tol(self, z, s, a):
        # 2^16 and 2^18 unit cells, as many as DEFAULT_PANEL_BUDGET or more:
        # the segment's budget adds that many panels to its cells, so the
        # cells whose K15 check misses its share of tol can still split
        mpmath = pytest.importorskip("mpmath")
        tol = 1e-12
        want = complex(mpmath.lerchphi(z, s, a))
        got = lerch_coffey(LerchParams(z, s, a), tol=tol)
        assert abs(got - want) <= tol * (1 + abs(want))

    @pytest.mark.parametrize(
        "z,s,a,tol",
        [
            (
                0.009665104976799566 + 0.9394765850287508j,
                -1.007578751505938 - 1.344440238902707j,
                0.7234985702161199 + 0.3684454578650953j,
                1e-12,
            ),
            (
                -0.8319181392719471 + 0.49826393846679035j,
                -1.6731484608407161 - 1.0005465681261159j,
                1.1468586928843747 + 0.3761189332442766j,
                1e-8,
            ),
        ],
    )
    def test_segment_cancelling_head_terms_meets_tol(self, z, s, a, tol):
        # the head terms and the segment cancel in part: the segment's
        # target follows |head + segment|, the size its err is checked
        # against, where one relative to the segment alone stopped short
        # and raised
        mpmath = pytest.importorskip("mpmath")
        want = complex(mpmath.lerchphi(z, s, a))
        got = lerch_coffey(LerchParams(z, s, a), tol=tol)
        assert abs(got - want) <= tol * (1 + abs(want))

    def test_cancelling_segment_raises(self):
        # the segment's |f| mass is about 2e6 against a value of 4.5, so it
        # stops on its roundoff floor, far above tol
        mpmath = pytest.importorskip("mpmath")
        z, s, tol = 0.07002982965102587 + 0.9875200367380139j, -1.7008651414720273, 1e-12
        a = 2.503829482997942 - 0.8160077369443859j
        with pytest.raises(SlowConvergence) as info:
            lerch_coffey(LerchParams(z, s, a), tol=tol)
        want = complex(mpmath.lerchphi(z, s, a))
        assert abs(info.value.best - want) <= 4 * tol * (1 + abs(want))


    def test_segment_budget_raise_carries_lerch_value(self, monkeypatch):
        # 2^20 unit cells whose checks miss tol within the panel budget: the
        # raise carries head terms plus segment as .best, as every other
        # raise of the Lerch routes does.  A small budget raises right
        # after the first pass
        mpmath = pytest.importorskip("mpmath")
        monkeypatch.setattr("latzeta.quadrature.DEFAULT_PANEL_BUDGET", 64)
        z, s = -0.19303332262419762 + 0.9811608833439335j, 0.5328082219157051
        a = 2.9836828994348465 - 0.1571695627175842j
        with pytest.raises(SlowConvergence) as info:
            lerch_coffey(LerchParams(z, s, a), tol=1e-10)
        want = complex(mpmath.lerchphi(z, s, a))
        assert abs(info.value.best - want) <= 1e-8 * (1 + abs(want))

    @pytest.mark.parametrize("s,a", [(2.5, 0.5), (3.0, 1.0)])
    def test_ray_budget_raise_carries_lerch_value(self, monkeypatch, s, a):
        # z = 1 with no panel beyond the ray's unit cells: its segment [1, N]
        # misses tol at once, and the raise carries head terms, tail and
        # segment
        mpmath = pytest.importorskip("mpmath")
        monkeypatch.setattr("latzeta.quadrature.DEFAULT_PANEL_BUDGET", 0)
        with pytest.raises(SlowConvergence) as info:
            lerch_coffey(LerchParams(1.0, s, a), tol=1e-12)
        want = complex(mpmath.zeta(s, a))
        assert abs(info.value.best - want) <= 1e-4 * (1 + abs(want))


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

    def test_positive_terms_match_complex_powers(self):
        # real z > 0, s and a > 0 sum in real arithmetic; a tiny Im s sends
        # the same series through complex powers
        for z, s, a in [(0.999, 1.5, 0.7), (0.5, -3, 1), (0.9995, 2.5, 3.2)]:
            real = lerch_series(LerchParams(z, s, a), tol=1e-12)
            other = lerch_series(LerchParams(z, complex(s, 1e-300), a), tol=1e-12)
            assert abs(real - other) <= 1e-12 * (1 + abs(real))

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

    def test_term_count_follows_the_tail_bound(self, monkeypatch):
        # the chunk after the first runs to where the tail bound meets tol,
        # not to the next power of two: 15,459 terms at z = 0.999, where
        # doubling summed 16,320, and 19,198 at z = 0.9992, where it summed
        # 32,704; the bound first meets tol at 15,458 and 19,197
        lengths = []

        class LoggingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def arange(self, *args, **kwargs):
                out = np.arange(*args, **kwargs)
                lengths.append(len(out))
                return out

        monkeypatch.setattr(latzeta.lerch, "np", LoggingNumpy())
        for z, want in ((0.999, 15459), (0.9992, 19198)):
            lengths.clear()
            lerch_series(LerchParams(z, 1.5, 0.65), tol=1e-10)
            assert (sum(lengths), len(lengths)) == (want, 2)

    def test_complex_powers_meet_tol_or_raise(self):
        # z**n erred by about n |log z| ulps alike in every term, which left
        # this sum 1.44 tol off with no raise
        mpmath = pytest.importorskip("mpmath")
        z, s = -0.904658432357986 + 0.42378546549355744j, -0.797928129223739 + 0.35203740902151326j
        a, tol = 2.1173494551647756, 1e-10
        try:
            got = lerch_series(LerchParams(z, s, a), tol=tol)
        except SlowConvergence:
            return
        with mpmath.workdps(30):
            ref = complex(mpmath.lerchphi(z, s, a))
        assert abs(got - ref) <= tol * (1 + abs(ref))

    def test_cancelling_terms_raise(self):
        # sum |terms| is about 1.3e16 here, so roundoff alone is about 5
        with pytest.raises(SlowConvergence):
            lerch_series(LerchParams(0.0354 - 0.9984j, -3.924, 1.813 - 1.130j), tol=1e-8)

    def test_meets_tol_or_raises(self):
        # Re s < 0 near |z| = 1, where the terms grow far beyond the sum
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(12)
        for _ in range(40):
            z = rng.choice([0.9, 0.99, 0.999]) * cmath.exp(1j * rng.uniform(-np.pi, np.pi))
            s = complex(rng.uniform(-4, 2), rng.uniform(-1, 1))
            a = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            tol = 10.0 ** -int(rng.integers(8, 12))
            try:
                got = lerch_series(LerchParams(z, s, a), tol=tol)
            except SlowConvergence:
                continue
            ref = complex(mpmath.lerchphi(z, s, a))
            assert abs(got - ref) <= tol * (1 + abs(ref)), (z, s, a, tol)


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
        self._check(lerch_series(LerchParams(1, 1.1, 0.5)), 1.1, 0.5, 1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        s=st.floats(1.05, 6.0),
        a=st.floats(0.2, 4.0),
        route=st.sampled_from(sorted(ROUTES)),
    )
    # an earlier ray driver, extrapolating with Richardson's integer powers,
    # settled 8e-10 off the limit at a + 1
    @example(s=3.1165095527776816, a=3.115234375, route="coffey")
    def test_hurwitz_shift(self, s, a, route):
        # zeta(s, a) - zeta(s, a+1) = a^-s
        tol = 1e-10
        f = ROUTES[route]
        lo, hi = f(LerchParams(1, s, a), tol=tol), f(LerchParams(1, s, a + 1), tol=tol)
        assert abs(lo - hi - a**-s) <= tol * (2 + abs(lo) + abs(hi))
