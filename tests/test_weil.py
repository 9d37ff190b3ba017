import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from latzeta import quadrature
from latzeta import weil as weil_module
from latzeta.errors import ConvergenceError, PointOnLattice, PoleNearDomain, UnsupportedDecay
from latzeta.lattice import lattice_new
from latzeta.bernoulli import p1
from latzeta.weil import (
    WeilParams,
    _band_row,
    _edge_integrand,
    _row_bound,
    _row_points,
    _strip_box,
    _strip_integrand,
    _x_tails,
    eisenstein_series,
    weil_direct,
    weil_integral,
)

SQUARE = lattice_new(1.0, 1j)
HEX = lattice_new(1.0, cmath.exp(1j * cmath.pi / 3))
#: the skew bench lattice, jittered as the benchmark draws it
_RNG = random.Random(16)
SKEW = lattice_new(1.0, complex(0.35 + _RNG.uniform(-0.01, 0.01), 1.15 + _RNG.uniform(-0.01, 0.01)))
#: a basis with |w1| != 1, turned off the real axis
TURNED = lattice_new(1.3 + 0.4j, (1.3 + 0.4j) * (0.35 + 1.15j))


def _dyadic(z):
    """z rounded to a multiple of 2^-20 in each part."""
    return complex(round(z.real * 2**20), round(z.imag * 2**20)) / 2**20


def _no_extrapolation(*args):
    raise AssertionError("a row of weight k <= 2 was extrapolated")


class TestParams:
    def test_rejects_lattice_point(self):
        for a in (0.0, 1.0, 1j, 1 + 1j, -2 + 3j):
            with pytest.raises(PointOnLattice):
                WeilParams(SQUARE, a, 3)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            WeilParams(SQUARE, 0.3 + 0.2j, 0)
        with pytest.raises(ValueError):
            WeilParams(SQUARE, 0.3 + 0.2j, -1)


class TestDirect:
    def test_parity(self):
        for k in (1, 2, 3, 4):
            a = 0.3 + 0.2j
            e = weil_direct(WeilParams(SQUARE, a, k), tol=1e-10).value
            e_neg = weil_direct(WeilParams(SQUARE, -a, k), tol=1e-10).value
            assert abs(e_neg - (-1) ** k * e) <= 1e-8 * (1 + abs(e))

    def test_homogeneity(self):
        lam = 2j
        scaled = lattice_new(lam * SQUARE.w1, lam * SQUARE.w2)
        for k in (1, 2, 3, 4):
            a = 0.3 + 0.2j
            e = weil_direct(WeilParams(SQUARE, a, k), tol=1e-10).value
            e_s = weil_direct(WeilParams(scaled, lam * a, k), tol=1e-10).value
            assert abs(e_s - lam ** (-k) * e) <= 1e-8 * (1 + abs(e))

    def test_periodicity(self):
        p = WeilParams(SQUARE, 0.3 + 0.2j, 3)
        e = weil_direct(p, tol=1e-10).value
        for w in (SQUARE.w1, SQUARE.w2, SQUARE.w1 + SQUARE.w2, 10 * SQUARE.w2, 30000 * SQUARE.w1):
            shifted = weil_direct(WeilParams(SQUARE, p.a + w, 3), tol=1e-10).value
            assert abs(shifted - e) <= 1e-8 * (1 + abs(e))

    def test_k1_cotangent_on_degenerate_row(self):
        # the m = 0 row of E_1 on the square lattice is pi cot(pi a); row
        # +/-m less its constant -/+ i pi is at most 2 pi sum_j e^(-2 pi j h),
        # h = m +/- Im a, so E_1 lies within the bound on the rows past
        # row 0 of pi cot(pi a)
        mpmath = pytest.importorskip("mpmath")
        a = 0.3 + 0.2j
        with mpmath.workdps(30):
            cot = complex(mpmath.pi * mpmath.cot(mpmath.pi * a))
        row, row_err = weil_module._row_sum(*_row_points(a, 1.0, 1j)(0), 1.0, 1, 1e-12)
        assert abs(row - cot) <= row_err <= 1e-13
        rep = weil_direct(WeilParams(SQUARE, a, 1), tol=1e-10)
        q = math.exp(-2 * math.pi * (1 - a.imag))
        rest = 2 * 2 * math.pi * q / (1 - q) / (1 - math.exp(-2 * math.pi))
        assert abs(rep.value - cot) <= rest + rep.err

    def test_err_covers_row_roundoff(self, weil_ref):
        # |E_5| = 2.4e4 next to a lattice point: forming a + n w1 + m w2 there
        # rounds by about 8e-15 |E|, above the rows' extrapolation increments
        a = 1.0972160812817076 - 1.8227485559223178j
        rep = weil_direct(WeilParams(HEX, a, 5), tol=1e-10)
        assert abs(rep.value - weil_ref(HEX.w1, HEX.w2, a, 5)) <= rep.err

    def test_err_covers_roundoff(self):
        # |E_8| is about 1.7e7 here, so one ulp of the value (3.7e-9) is far
        # above tol and above every row's extrapolation increment
        rep = weil_direct(WeilParams(SQUARE, 0.875 + 1j, 8), tol=1e-13)
        assert rep.err >= np.spacing(abs(rep.value))


    def test_far_point_meets_tol(self, weil_ref):
        # 30000 periods out: the sums centre on the pole's row and column and
        # form each row point exactly, so the roundoff charged no longer
        # grows with |a| (it read err 1.8e-7 against an allowance of 4.6e-10)
        a, tol = 30000.3 + 0.2j, 1e-12
        rep = weil_direct(WeilParams(SQUARE, a, 6), tol=tol)
        assert abs(rep.value - weil_ref(1.0, 1j, a, 6)) <= rep.err <= tol * (1 + abs(rep.value))

    def test_missed_tol_raises_with_report(self):
        # E_5 = 0 by symmetry at a = i/2, while the two rows next to the pole
        # are about 33 each: their roundoff alone is above tol 1e-14
        with pytest.raises(ConvergenceError) as ei:
            weil_direct(WeilParams(SQUARE, 0.5j, 5), tol=1e-14)
        best = ei.value.best
        assert best.method == "direct" and 1e-14 < best.err and abs(best.value) <= best.err

    @pytest.mark.parametrize("lat", [HEX, SKEW, TURNED], ids=["hex", "skew", "turned"])
    def test_row_points_are_exact(self, lat):
        # each row point is the float nearest a + n w1 + m w2, and delta its
        # exact distance from it, by rational arithmetic
        rng = random.Random(26)
        for _ in range(20):
            a = complex(rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6))
            point = _row_points(a, lat.w1, lat.w2)
            for m in (-3, 0, 7, rng.randint(-10**6, 10**6)):
                c, delta = point(m)
                n = -round((a / lat.w1).real + m * (lat.w2 / lat.w1).real)
                parts = zip((a.real, a.imag), (lat.w1.real, lat.w1.imag), (lat.w2.real, lat.w2.imag))
                exact = [Fraction(t) + n * Fraction(u) + m * Fraction(v) for t, u, v in parts]
                assert (c.real, c.imag) == tuple(float(x) for x in exact)
                misses = (float(x - Fraction(y)) for x, y in zip(exact, (c.real, c.imag)))
                assert delta == pytest.approx(math.hypot(*misses))
                assert abs((c / lat.w1).real) <= 0.5 + 1e-9

    @pytest.mark.parametrize(
        "lat",
        [SQUARE, HEX, lattice_new(1.0, 0.35 + 1.15j), lattice_new(1.3 + 0.4j, 0.2 + 1.1j), lattice_new(1.0, -1j)],
        ids=["square", "hex", "skew", "turned", "mirrored"],
    )
    def test_k1_k2_periods(self, lat, monkeypatch):
        # E_1(a + w1) = E_1(a) and E_1(a + m w2) - E_1(a) = -2 pi i m / w1,
        # the sign that of Im(w2 / w1) (Weil, ch. III); E_2 has both periods.
        # The outer sum is centred on the pole's row, so a far shift costs
        # no more than 200 rows.  The basis and a are rounded to multiples
        # of 2^-20, so that every shifted point is exact.  Each err covers
        # its report
        lat = lattice_new(_dyadic(lat.w1), _dyadic(lat.w2))
        sign = math.copysign(1.0, (lat.w2 / lat.w1).imag)
        rows, row_sum = [], weil_module._row_sum

        def counted(*args):
            rows.append(args)
            assert len(rows) <= 200, "more than 200 rows"
            return row_sum(*args)

        def direct(a, k):
            rows.clear()
            return weil_direct(WeilParams(lat, a, k), tol=1e-12)

        monkeypatch.setattr(weil_module, "_row_sum", counted)
        # (w, m, the jump of E_1)
        shifts = [(lat.w1, 1, 0)] + [(lat.w2, m, -2j * math.pi * m / lat.w1 * sign) for m in (1, 7, -400, 3000)]
        rng = random.Random(3)
        for _ in range(4):
            a = _dyadic(complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)))
            for k in (1, 2):
                lo = direct(a, k)
                for w, m, jump in shifts:
                    hi = direct(a + m * w, k)
                    assert abs(hi.value - lo.value - (jump if k == 1 else 0)) <= lo.err + hi.err, (a, k, w, m)

    @pytest.mark.parametrize("height", [150, 300, 600, 1000, 1e5])
    def test_tall_lattices_meet_tol(self, weil_ref, height, monkeypatch):
        # rows +/-1 sit |Im z| = height +/- 0.2 off the real axis, where the
        # paired n-sums converged too slowly: err read below the true error
        # up to (1, 600i), and (1, 1000i) raised SlowConvergence at 1e-12.
        # Rows of weight 1 and 2 are summed in closed form, never extrapolated
        monkeypatch.setattr(weil_module, "_accelerate", _no_extrapolation)
        lat = lattice_new(1.0, height * 1j)
        a = 0.3 + 0.2j
        for k, tol in itertools.product((1, 2), (1e-8, 1e-10, 1e-12)):
            rep = weil_direct(WeilParams(lat, a, k), tol=tol)
            ref = weil_ref(1.0, height * 1j, a, k)
            assert abs(rep.value - ref) <= rep.err <= tol * (1 + abs(rep.value)), (k, tol)

    @pytest.mark.parametrize(
        "lat",
        [SQUARE, HEX, lattice_new(1.0, 0.35 + 1.15j), lattice_new(1.0, -1j), lattice_new(1.0, 0.3 + 0.15j)],
        ids=["square", "hex", "skew", "mirrored", "flat"],
    )
    def test_stop_is_a_bound(self, weil_ref, lat):
        # the outer sum stops where Lipschitz's bound on the rows left out
        # meets tol/8, and charges that bound: at y = 0.2 and at y = 1/2, the
        # pole half a row from its centre row.  On the flat basis, which
        # k = 1, 2 keep, the first bounds are inf (e^(-2 pi h) >= 1/4)
        for k, tol, y in itertools.product(range(1, 9), (1e-10, 1e-12), (0.2, 0.5)):
            a = 0.3 * lat.w1 + y * lat.w2
            rep = weil_direct(WeilParams(lat, a, k), tol=tol)
            assert abs(rep.value - weil_ref(lat.w1, lat.w2, a, k)) <= rep.err, (k, tol, y)

    def test_stop_row_count(self, monkeypatch):
        # square lattice, a = 0.3 + 0.2i, k = 3, tol 1e-10: the bound on the
        # rows past pair M meets tol/8 at M = 5
        rows, row_sum = [], weil_module._row_sum

        def counted(*args):
            rows.append(args)
            return row_sum(*args)

        monkeypatch.setattr(weil_module, "_row_sum", counted)
        weil_direct(WeilParams(SQUARE, 0.3 + 0.2j, 3), tol=1e-10)
        assert len(rows) == 11

    @pytest.mark.parametrize("w2", [1j, HEX.w2, SKEW.w2], ids=["square", "hex", "skew"])
    def test_distribution_relation(self, w2):
        # sum_{r,s<N} E_k(a + (r W1 + s W2)/N) = N^k E_k(N a), no oracle
        # needed.  With W = N w and w, a rounded to multiples of 2^-20 every
        # argument is exact, so the relation holds within the reports' errs
        w1, w2 = 1.0, _dyadic(w2)
        a = _dyadic(0.3 * w1 + 0.2 * w2)
        for n, k in itertools.product((2, 3), range(3, 9)):
            lat = lattice_new(n * w1, n * w2)
            parts = [weil_direct(WeilParams(lat, a + r * w1 + s * w2, k)) for r in range(n) for s in range(n)]
            whole = weil_direct(WeilParams(lat, n * a, k))
            off = abs(sum(p.value for p in parts) - n**k * whole.value)
            assert off <= sum(p.err for p in parts) + n**k * whole.err, (n, k)


class TestCotRows:
    """Rows of weight 1 and 2 in closed form (``_cot_row``), through
    ``_row_sum``, which must never extrapolate them."""

    @pytest.fixture(autouse=True)
    def no_extrapolation(self, monkeypatch):
        monkeypatch.setattr(weil_module, "_accelerate", _no_extrapolation)

    @pytest.mark.parametrize("w1", [1.0 + 0j, 1.3 + 0.4j], ids=["unit", "turned"])
    @pytest.mark.parametrize("height", [0.0, 0.2, 0.49, 0.51, 3.0, 400.0])
    def test_rows_match_mpmath(self, w1, height):
        # both sides of the switch to q = exp(2 pi i s z) at |Im z| = 1/2, and
        # |Im pi z| far past the 710 where sin(pi z) overflows; the exact
        # point is c + delta e^(i pi/3), which err must cover through the
        # slope.  mpmath.cot of a complex argument next to -pi/2 loses every
        # digit (1e-8 at -pi/2 + 5e-32 i, 30 digits), so cot is cos/sin
        mpmath = pytest.importorskip("mpmath")
        for x, sign, k, delta in itertools.product((0.3, -0.5, 0.02), (1, -1), (1, 2), (0.0, 1e-9)):
            c = complex(x, sign * height) * w1
            value, err = weil_module._row_sum(c, delta, w1, k, 1e-12)
            with mpmath.workdps(30):
                w = mpmath.mpc(w1)
                t = mpmath.pi * (mpmath.mpc(c) + delta * mpmath.expjpi(mpmath.mpf(1) / 3)) / w
                want = mpmath.pi / w * mpmath.cos(t) / mpmath.sin(t) if k == 1 else (mpmath.pi / w * mpmath.csc(t)) ** 2
            assert abs(value - complex(want)) <= err, (x, sign, k, delta)
            assert delta or err <= 1e-13 * (1 + abs(value)), (x, sign, k)

    @pytest.mark.parametrize("k", [1, 2])
    def test_rows_match_partial_sums(self, k):
        # the symmetric partial sums up to |n| = N, apart from the closed
        # form; for |z| < 1 the pairs past N sum to at most 2 |z| / N (k = 1)
        # and 2.1 / N (k = 2)
        z, n_max = 0.1 + 0.05j, 10**6
        n = np.arange(1, n_max + 1, dtype=float)
        terms = (z + n) ** -k + (z - n) ** -k
        partial = z**-k + complex(math.fsum(terms.real), math.fsum(terms.imag))
        value, _ = weil_module._row_sum(z, 0.0, 1.0, k, 1e-12)
        assert abs(value - partial) <= (2 * abs(z) if k == 1 else 2.1) / n_max + 1e-12


class TestIntegral:
    def test_matches_direct_square(self):
        p = WeilParams(SQUARE, 0.3 + 0.2j, 4)
        d = weil_direct(p, tol=1e-10).value
        q = weil_integral(p, tol=1e-8)
        assert abs(q.value - d) / (1 + abs(d)) <= 1e-7
        assert q.value == q.j1 + q.strips + q.row_correction

    def test_matches_direct_hexagonal(self):
        p = WeilParams(HEX, 0.25 + 0.3j, 3)
        d = weil_direct(p, tol=1e-10).value
        q = weil_integral(p, tol=1e-8)
        assert abs(q.value - d) / (1 + abs(d)) <= 1e-7

    @pytest.mark.parametrize("lat", [SQUARE, HEX], ids=["square", "hex"])
    @pytest.mark.parametrize("k", [3, 6])
    def test_periodicity_along_w1(self, lat, k):
        # J1's integrand peaks at x = x0, the w1-coordinate of -a; far along
        # w1 that peak lies outside every level of the line integral unless
        # a is first moved back by the period.  The reference is E_k at the
        # float a + n w1 that the call gets, moved back by n w1 exactly:
        # rounding a + n w1 moves E_6 by up to 5e-9 at n = 30000, more than
        # the integral's err
        tol, a = 1e-8, 0.3 + 0.2j
        for n in (100, 300, 3000, 30000, -5000):
            shifted = a + n * lat.w1
            d = weil_direct(WeilParams(lat, shifted - n * lat.w1, k), tol=1e-12)
            q = weil_integral(WeilParams(lat, shifted, k), tol=tol)
            off = abs(q.value - d.value)
            assert off <= tol * (1 + abs(d.value))
            assert q.err >= off - d.err

    def test_eps_used_as_given(self):
        # y0 = -0.2 here, so the band (-0.45, 0.05] holds row 0: eps stays
        # and that row is summed by the 1-D Euler-MacLaurin formula
        q = weil_integral(WeilParams(SQUARE, 0.3 + 0.2j, 4), eps=0.25, tol=1e-7)
        assert q.eps_used == 0.25
        assert q.row_correction != 0

    @pytest.mark.parametrize("a,eps,k", [(0.3 + 1.1j, 0.1, 3), (0.3 + 2.2j, 0.2, 4), (0.3 + 1.3j, 0.3, 3)])
    def test_edge_rounding_onto_row(self, a, eps, k):
        # y0 + eps rounds onto an integer row: the band holds that row,
        # which must be summed, not dropped
        p = WeilParams(SQUARE, a, k)
        d = weil_direct(p, tol=1e-12).value
        q = weil_integral(p, eps=eps, tol=1e-8)
        assert abs(q.value - d) <= 1e-8 * (1 + abs(d))
        assert q.err >= abs(q.value - d)

    @pytest.mark.parametrize("a", [0.3 + 0.001j, 0.3 + 1e-7j])
    def test_pole_just_off_a_row(self, a):
        p = WeilParams(SQUARE, a, 3)
        d = weil_direct(p, tol=1e-12).value
        q = weil_integral(p, tol=1e-8)
        assert abs(q.value - d) <= 1e-8 * (1 + abs(d))

    def test_near_row_grid(self):
        # the pole at (x0, y0) with y0 on, or just off, row 1, and bands
        # narrow and wide; each case is checked against weil_direct
        tol = 1e-8
        for lat, dy, k, eps in itertools.product(
            (SQUARE, HEX, lattice_new(1.0, 0.35 + 1.15j)),
            (0.0, 1e-8, -1e-6, 1e-4, -1e-3, 0.01, -0.1, 0.25, -0.4),
            (3, 5, 8),
            (0.1, 0.4),
        ):
            x0 = 0.7 if k == 5 else 0.3
            p = WeilParams(lat, -(x0 * lat.w1 + (1 + dy) * lat.w2), k)
            d = weil_direct(p, tol=1e-12)
            q = weil_integral(p, eps=eps, tol=tol)
            diff = abs(q.value - d.value)
            assert diff <= q.err + d.err, (lat, dy, k, eps)
            assert diff <= tol * (1 + abs(d.value)), (lat, dy, k, eps)

    def test_cancelling_parts_meet_tol(self):
        # y = 1/2: J2 and J3 nearly cancel (about +-223i on the square
        # lattice at k = 5), so each part meeting tol relative to its own
        # size is not enough for the sum
        tol = 1e-8
        for lat, x, k in itertools.product(
            (SQUARE, HEX, lattice_new(1.0, 0.35 + 1.15j)), (0.0, 0.125, 0.5, 0.875), (5, 8)
        ):
            p = WeilParams(lat, x * lat.w1 + 0.5 * lat.w2, k)
            d = weil_direct(p, tol=1e-13)
            q = weil_integral(p, tol=tol)
            assert q.err <= tol * (1 + abs(q.value)), (lat, x, k)
            assert abs(q.value - d.value) <= q.err + d.err, (lat, x, k)

    @pytest.mark.parametrize(
        "lat,a,k,tol", [(SQUARE, 0.3 + 0.5j, 8, 1e-12), (HEX, HEX.w2 / 2, 9, 1e-10)], ids=["square-k8", "hex-k9"]
    )
    def test_cancelling_parts_meet_tight_tol(self, weil_ref, lat, a, k, tol):
        # y = 1/2, where J1 cancels J2 + J3 (|J1| = 687 against |E| = 55 on
        # the square lattice; E = 0 by symmetry on the hexagonal one): with
        # the band edges 1/4 from the pole the parts' roundoff floors alone
        # came near tol, and these raised ConvergenceError
        ref = weil_ref(lat.w1, lat.w2, a, k)
        q = weil_integral(WeilParams(lat, a, k), tol=tol)
        assert abs(q.value - ref) <= q.err <= tol * (1 + abs(ref))

    def test_default_band_holds_one_row(self):
        # the widest band holding only the pole row m = round(y0), with
        # edges 1/64 short of rows m - 1 and m + 1; y0 = -1/2 rounds to 0
        for a, y0 in ((0.3 + 0.2j, -0.2), (0.3 + 0.5j, -0.5)):
            q = weil_integral(WeilParams(SQUARE, a, 4), tol=1e-8)
            assert q.band == (-63 / 64, 63 / 64) and q.row_correction != 0
            assert q.eps_used == pytest.approx(63 / 64 - abs(y0))

    def test_strips_meet_tol_relative_to_the_sum(self, weil_ref, monkeypatch):
        # a = 3/8 on the square lattice, k = 8: the band row holds the
        # nearest lattice point, so |E| = 2599 against |J2 + J3| = 15.5, and
        # the strips' first level need only meet tol relative to |E|
        evals = []

        def recorded(fv, boxes, *args, **kwargs):
            q = cells(fv, boxes, *args, **kwargs)
            if len(boxes[0]) == 4:
                evals.append(q.evals)
            return q

        cells = quadrature._cells
        monkeypatch.setattr(quadrature, "_cells", recorded)
        q = weil_integral(WeilParams(SQUARE, 0.375, 8), tol=1e-8)
        assert len(evals) == 1 and evals[0] <= 103_050
        assert abs(q.value - weil_ref(1.0, 1j, 0.375, 8)) <= q.err

    def test_strips_run_once_where_parts_cancel(self, monkeypatch):
        # hexagonal lattice, y = 1/2, k = 8: J1 cancels J2 + J3, and only
        # J1 may be taken again to meet tol relative to the sum
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return strips(*args, **kwargs)

        strips = weil_module.integrate_half_strip
        monkeypatch.setattr(weil_module, "integrate_half_strip", counted)
        for x, tol in itertools.product((0.0, 0.125, 0.875), (1e-8, 1e-10)):
            calls.clear()
            q = weil_integral(WeilParams(HEX, x + 0.5 * HEX.w2, 8), tol=tol)
            assert len(calls) == 1 and q.err <= tol * (1 + abs(q.value)), (x, tol)

    @pytest.mark.parametrize("k,tol", [(8, 1e-10), (7, 1e-8)])
    def test_j1_rerun_meets_its_share(self, k, tol, monkeypatch):
        # hexagonal lattice, x = 1/8, y = 1/2, band (y0 - 1/4, y0 + 1/4]: J1
        # misses tol/16 relative to row + J1, and its one re-run, with the
        # strips in its offset, meets tol/16 relative to the whole sum.  The
        # default band keeps the pole far enough from its edges that J1
        # meets its share at once here, so eps is given
        lines = []

        def recorded(*args, **kwargs):
            lines.append(line(*args, **kwargs))
            return lines[-1]

        line = weil_module.integrate_line
        monkeypatch.setattr(weil_module, "integrate_line", recorded)
        q = weil_integral(WeilParams(HEX, 0.125 + 0.5 * HEX.w2, k), eps=0.25, tol=tol)
        assert len(lines) == 2 and lines[-1].err <= tol / 16 * (1 + abs(q.value))

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_phase_grid_subset(self, weil_ref, tol):
        # y = 1/2 puts the band edges where J1 cancels J2 + J3; every case
        # must meet tol with no raise and an err that bounds the true error
        for lat, x, y, k in itertools.product((SQUARE, HEX, SKEW), (0.0, 0.375, 0.875), (0.2, 0.5, 0.75), (3, 8)):
            a = x * lat.w1 + y * lat.w2
            ref = weil_ref(lat.w1, lat.w2, a, k)
            q = weil_integral(WeilParams(lat, a, k), tol=tol)
            assert abs(q.value - ref) <= q.err <= tol * (1 + abs(ref)), (lat, x, y, k)

    @pytest.mark.parametrize("k", [3, 4, 7])
    @pytest.mark.parametrize("n", [-2, 0, 1])
    def test_band_row_matches_mpmath(self, k, n):
        mpmath = pytest.importorskip("mpmath")
        # |w1| != 1 and c/w1 off the real axis, so d is complex
        w1, w2, a = 1.3 + 0.4j, 0.2 + 1.1j, 0.37 - 0.21j
        tol = 1e-12
        value, err = _band_row(a, w1, w2, k, n, tol)
        with mpmath.workdps(30):
            c, w = mpmath.mpc(a) + n * mpmath.mpc(w2), mpmath.mpc(w1)
            ref = complex(mpmath.nsum(lambda m: (c + m * w) ** -k, [-mpmath.inf, mpmath.inf]))
        assert err >= abs(value - ref)
        assert abs(value - ref) <= tol * (1 + abs(ref))

    @pytest.mark.parametrize(
        "lat,a,k",
        [
            (SQUARE, 0.5 + 0.5j, 6),
            (SQUARE, 0.5 + 1j, 5),
            (HEX, 0.5 + HEX.w2, 5),
            (lattice_new(1.0, 0.35 + 1.15j), 0.85 + 1.15j, 5),
        ],
        ids=["square-k6", "square-k5", "hex-k5", "skew-k5"],
    )
    def test_band_row_charges_its_slope(self, weil_ref, lat, a, k):
        # E = 0 by symmetry and d = -1/2 on the band row: the old charge for
        # the roundoff of d, k (|d|^-(k+1) + 2^(k+2)) delta_d, was about
        # 1e-12 alone; the row's slope R'(d) vanishes there for even k
        tol = 1e-12
        q = weil_integral(WeilParams(lat, a, k), tol=tol)
        assert abs(q.value - weil_ref(lat.w1, lat.w2, a, k)) <= q.err <= tol * (1 + abs(q.value))

    def test_row_correction_case(self):
        p = WeilParams(SQUARE, -0.5 - 1j, 4)
        d = weil_direct(p, tol=1e-10).value
        q = weil_integral(p, tol=1e-8)
        assert q.row_correction != 0
        assert abs(q.value - d) / (1 + abs(d)) <= 1e-6

    def test_half_cell_phase(self):
        # x0 = -1/2: P1(x) vanishes at every point x0 + integer, so a tail
        # constant sampled at one phase would read 0 and stop the strips early
        for a in (0.5 + 0.2j, 0.5 + 0.75j):
            for k in (3, 4):
                p = WeilParams(SQUARE, a, k)
                d = weil_direct(p, tol=1e-12).value
                q = weil_integral(p, tol=1e-8)
                assert abs(q.value - d) <= q.err + 1e-10 * (1 + abs(d))

    def test_rejects_small_k(self):
        for k in (1, 2):
            with pytest.raises(UnsupportedDecay):
                weil_integral(WeilParams(SQUARE, 0.3 + 0.2j, k))

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            weil_integral(WeilParams(SQUARE, 0.3 + 0.2j, 4), eps=0.7)

    @pytest.mark.parametrize("w2,eps", [(1j, 1e-7), (3 + 0.5j, 5e-7)])
    def test_band_edge_on_pole_raises(self, w2, eps):
        # the pole lies eps |det| / |w1| from both band edges: 1e-7 on the
        # square lattice and 2.5e-7 on the skew one, where |eps w2| = 1.5e-6
        with pytest.raises(PoleNearDomain):
            weil_integral(WeilParams(lattice_new(1.0, w2), 0.3 + 0.2j, 3), eps=eps)


def test_unreduced_bases_match_reference(weil_ref):
    # for k >= 3, E_k depends on the lattice, not on the basis that names
    # it: seeded unimodular changes of the bench bases, against the
    # reference summed on the bench basis
    rng = random.Random(13)
    for _ in range(12):
        base = rng.choice((SQUARE, HEX, SKEW))
        while True:
            m = [rng.randint(-4, 4) for _ in range(4)]
            if m[0] * m[3] - m[1] * m[2] in (1, -1):
                break
        lat = lattice_new(m[0] * base.w1 + m[1] * base.w2, m[2] * base.w1 + m[3] * base.w2)
        a = rng.uniform(0.05, 0.95) * base.w1 + rng.uniform(0.05, 0.95) * base.w2
        k = rng.choice((3, 4, 5, 6, 8))
        ref = weil_ref(base.w1, base.w2, a, k)
        p = WeilParams(lat, a, k)
        for rep, tol in ((weil_integral(p, tol=1e-8), 1e-8), (weil_direct(p, tol=1e-10), 1e-10)):
            off = abs(rep.value - ref)
            assert off <= rep.err and off <= tol * (1 + abs(ref)), (lat, a, k, rep.method)


class TestStripClosedForms:
    """The strips' x-tails and y-cut against closed forms of the strip
    integrand's row integrals: a = 0.3 w1 + 0.2 w2 puts the pole at
    x0 = -0.3 on row y0 = -0.2."""

    X0, Y0 = -0.3, -0.2

    @pytest.mark.parametrize("lat", [SQUARE, HEX, SKEW, TURNED], ids=["square", "hex", "skew", "turned"])
    @pytest.mark.parametrize("k", [3, 8])
    def test_x_tail_expansion(self, lat, k):
        # the tails beyond |x - c| <= 8, c nearest the pole on row y, in
        # closed form, integrated over the span [y, y + 1/16]: the strip
        # integrand is P1(x) [D b^-k - k w2 P1(y) D b^-(k+1)], D = d/dx,
        # and by the first-order EM identity int_X^inf P1 D b^-j =
        # w1^-j zeta(j, c/w1 + X) - b(X)^-j/2 - b(X)^(1-j)/((j-1) w1),
        # c = a + y w2; x -> -x takes the tail below X to the one above -X
        # of (-1)^j (-c + x w1)^-j.  The same box serves rows above and
        # below the pole, so the tails and the bound count its span twice
        mpmath = pytest.importorskip("mpmath")
        w1, w2, a = lat.w1, lat.w2, 0.3 * lat.w1 + 0.2 * lat.w2
        tau = w2 / w1

        def above(c, x, j):
            w = mpmath.mpc(w1)
            b = c + x * w
            return w**-j * mpmath.zeta(j, b / w) - b**-j / 2 - b ** (1 - j) / ((j - 1) * w)

        def row_tail(y, c):
            row = mpmath.mpc(a) + y * mpmath.mpc(w2)
            return sum(
                weight * (above(row, c + 8, j) + (-1) ** j * above(-row, 8 - c, j))
                for j, weight in ((k, 1), (k + 1, -k * mpmath.mpc(w2) * (y - mpmath.floor(y) - 0.5)))
            )

        for y in (-3.7, -0.45, 0.05, 2.3):
            c = round(self.X0 - tau.real * (y - self.Y0))
            boxes, span = [(c - 8, c + 8, y, y + 1 / 16)] * 2, 1 / 8
            with mpmath.workdps(20):
                span_integral = mpmath.quad(lambda t: row_tail(t, c), [y, y + 1 / 16], method="gauss-legendre", maxdegree=2)
                want = complex(2 * span_integral)
            for share in (1e-4, 1e-8, 1e-12):
                tail, bound = _x_tails(w1, w2, a, k, self.X0, self.Y0, boxes, share * span * abs(w1) ** -k)
                off = abs(tail - want)
                assert off <= bound + 1e-15 * abs(want) and bound <= share * span * abs(w1) ** -k, (y, share)

    @pytest.mark.parametrize("k", [3, 8])
    @pytest.mark.parametrize(
        "lat,band",
        [(lat, (-63 / 64, 63 / 64)) for lat in (SQUARE, HEX, SKEW, TURNED)]
        + [(SQUARE, (-0.4, 0.0)), (SKEW, (-1.0, 0.3))],
        ids=["square", "hex", "skew", "turned", "square-up-at-0", "skew-down-at-1"],
    )
    def test_x_tails_integrate_the_series(self, lat, band, k):
        # the closed form against mpmath.quad, piece by piece between the
        # integers, of the per-row Bernoulli tail series T(y) of the same p
        # terms (share 0 takes p = 10, share inf p = 1) over each y-span of
        # the strips' boxes, up to 1e-14 of the sum of |integral| over the
        # boxes and ends.  The widest band and two others, whose box ends
        # lie at 0 from above and at -1 from below, where P1 is one-sided
        mpmath = pytest.importorskip("mpmath")
        w1, w2, a = lat.w1, lat.w2, 0.3 * lat.w1 + 0.2 * lat.w2
        boxes = _strip_box(w1, w2, a, k, self.X0, self.Y0, band, 1e-6)[0]
        for share, p in ((0.0, 10), (math.inf, 1)):
            got, _ = _x_tails(w1, w2, a, k, self.X0, self.Y0, boxes, share)
            with mpmath.workdps(20):
                w, v = mpmath.mpc(w1), mpmath.mpc(w2)
                coefs = [
                    k * w ** (2 * j - 1) * mpmath.bernoulli(2 * j) * mpmath.rf(k + 1, 2 * j - 2)
                    / mpmath.factorial(2 * j)
                    for j in range(1, p + 1)
                ]

                def series(y, x, sign):
                    b, py, total = mpmath.mpc(a) + x * w + y * v, y - mpmath.floor(y) - 0.5, 0
                    power, n = b ** -(k + 1), k + 1
                    for coef in coefs:
                        total += sign * coef * power * (n * v * py / b - 1)
                        power, n = power / (b * b), n + 2
                    return total

                want, mass = 0, 0
                for x_lo, x_hi, y_lo, y_hi in boxes:
                    pieces = [y_lo, *range(math.floor(y_lo) + 1, math.ceil(y_hi)), y_hi]
                    for x, sign in ((x_lo, 1), (x_hi, -1)):
                        part = mpmath.quad(lambda y: series(y, x, sign), pieces, method="gauss-legendre")
                        want, mass = want + part, mass + abs(part)
            assert abs(got - complex(want)) <= 1e-14 * float(mass), (share, got, complex(want))

    @pytest.mark.parametrize("lat", [SQUARE, HEX, SKEW, TURNED], ids=["square", "hex", "skew", "turned"])
    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_row_bound_covers_rows(self, lat, k, row_ref):
        # whole-line row integrals 1 to 4 row spacings from the pole row,
        # where the rows beyond a y-cut start, against the residue bound;
        # by the first-order EM identity a row's integral is
        # R_k(c) - k w2 P1(y) R_(k+1)(c), R_j(c) = sum_n (c + n w1)^-j
        w1, w2, a = lat.w1, lat.w2, 0.3 * lat.w1 + 0.2 * lat.w2
        tau = w2 / w1
        for dy in (-3.75, -1.25, 1.0, 2.5, 4.0):
            y = self.Y0 + dy
            c = a + y * w2
            value = row_ref(c, w1, k) - k * w2 * p1(y) * row_ref(c, w1, k + 1)
            bound = _row_bound(k, w1, tau, abs(tau.imag * dy))
            assert abs(value) <= bound, dy


def test_gauss_cells_meet_their_bound(monkeypatch):
    # every box cell that the default route certifies for a Gauss-Legendre
    # rule of the ladder, on seeded poles, lattices, k and tol (1e-12 takes
    # the top rungs), against the same rule on its 4 x 4 sixteenths; the
    # bound must cover the true error up to the two sums' roundoff, must
    # exceed that roundoff on most cells, so that the check is the bound's,
    # and every rung must serve some cell
    certified, eval_cells = quadrature._certified, quadrature._eval_cells
    seen, rungs = [], []

    def recorded(fv, rows, cell_bound, share):
        seen.append((fv, cell_bound))
        return certified(fv, rows, cell_bound, share)

    def recorded_rule(fv, cells, n=15):
        out = eval_cells(fv, cells, n)
        if n != 15:
            rungs.append((n, cells, out))
        return out

    monkeypatch.setattr(quadrature, "_certified", recorded)
    monkeypatch.setattr(quadrature, "_eval_cells", recorded_rule)
    rng = random.Random(24)
    sixteenths = np.array([(i, i + 1, j, j + 1) for i in range(4) for j in range(4)]) / 4
    checked, used = [], set()
    for tol in [None] * 8 + [1e-12] * 4:
        lat, k, tol = rng.choice((SQUARE, HEX, SKEW)), rng.choice((3, 5, 8)), tol or rng.choice((1e-4, 1e-8))
        x0, y0 = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        seen.clear()
        rungs.clear()
        try:
            weil_integral(WeilParams(lat, -(x0 * lat.w1 + y0 * lat.w2), k), tol=tol)
        except ConvergenceError:
            pass  # the certified cells are taken before any raise
        ((fv, cell_bound),) = seen
        for n, rows, (value, _, mass, _) in rungs:
            used.add(n)
            bounds = cell_bound(rows, n)
            size = rows[:, 1::2] - rows[:, ::2]
            subcells = sixteenths * np.repeat(size, 2, 1)[:, None] + np.repeat(rows[:, ::2], 2, 1)[:, None]
            ref = eval_cells(fv, subcells.reshape(-1, 4), n)[0].reshape(len(rows), 16).sum(1)
            off = np.abs(value - ref)
            assert np.all(off <= bounds + 1e-14 * mass), (lat, k, tol, x0, y0, n, rows[off > bounds + 1e-14 * mass])
            checked.extend(bounds > 1e-14 * mass)
    assert len(checked) >= 800 and sum(checked) >= 500
    assert used == set(quadrature._LADDER)


class TestIntegrands:
    """The strip and edge integrands build b^-(k+1) from products of 1/b;
    they must agree with the plain complex-power formulas."""

    W1, W2, A = 1.0, 0.3 + 1.1j, 0.37 - 0.21j
    Y_DN, Y_UP = -0.05, 0.45  # band edges around the pole row y0 = 0.19

    def _strip_plain(self, k, x, y):
        w1, w2, a = self.W1, self.W2, self.A
        b = a + x * w1 + y * w2
        return k * w1 * p1(x) * b ** (-(k + 1)) * ((k + 1) * w2 * p1(y) / b - 1)

    def _edge_plain(self, k, x):
        w1, w2, a = self.W1, self.W2, self.A
        return k * w1 * p1(x) * (
            p1(self.Y_DN) * (a + x * w1 + self.Y_DN * w2) ** (-(k + 1))
            - p1(self.Y_UP) * (a + x * w1 + self.Y_UP * w2) ** (-(k + 1))
        )

    @staticmethod
    def _close(got, want):
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8, 20])
    def test_strip_matches_plain_powers(self, k):
        rng = np.random.default_rng(k)
        x = rng.uniform(-40.0, 40.0, (1, 64))
        y = rng.uniform(0.45, 40.0, (48, 1))
        f = _strip_integrand(self.W1, self.W2, self.A, k)
        self._close(f(x, y), self._strip_plain(k, x, y))

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8, 20])
    def test_edge_matches_plain_powers(self, k):
        x = np.random.default_rng(100 + k).uniform(-40.0, 40.0, 256)
        f = _edge_integrand(self.W1, self.W2, self.A, k, self.Y_DN, self.Y_UP)
        self._close(f(x), self._edge_plain(k, x))

    def test_scalar_calls(self):
        f = _strip_integrand(self.W1, self.W2, self.A, 5)
        self._close(f(1.3, 0.7), self._strip_plain(5, 1.3, 0.7))
        g = _edge_integrand(self.W1, self.W2, self.A, 5, self.Y_DN, self.Y_UP)
        self._close(g(-2.6), self._edge_plain(5, -2.6))


class TestEisenstein:
    def test_odd_vanishes(self):
        assert abs(eisenstein_series(SQUARE, 5, tol=1e-9)) <= 1e-8
        assert abs(eisenstein_series(HEX, 7, tol=1e-9)) <= 1e-8

    def test_square_g6_vanishes(self):
        assert abs(eisenstein_series(SQUARE, 6, tol=1e-9)) <= 1e-8

    def test_hexagonal_g4_vanishes(self):
        assert abs(eisenstein_series(HEX, 4, tol=1e-9)) <= 1e-8

    def test_square_g4_nonzero(self):
        g4 = eisenstein_series(SQUARE, 4, tol=1e-10)
        # lemniscatic closed form: G_4(Z[i]) = Gamma(1/4)^8 / (960 pi^2)
        want = math.gamma(0.25) ** 8 / (960 * math.pi**2)
        assert g4.real == pytest.approx(want, abs=1e-9)
        assert abs(g4.imag) <= 1e-9

    def test_rejects_small_k(self):
        with pytest.raises(UnsupportedDecay):
            eisenstein_series(SQUARE, 2)


class TestDerivativeRecursion:
    def test_fd_matches_next_order(self):
        # d/da E_k = -k E_{k+1}
        h = 1e-4
        for k in (3, 4):
            a = 0.3 + 0.2j
            ep = weil_direct(WeilParams(SQUARE, a + h, k), tol=1e-11).value
            em = weil_direct(WeilParams(SQUARE, a - h, k), tol=1e-11).value
            want = -k * weil_direct(WeilParams(SQUARE, a, k + 1), tol=1e-11).value
            assert abs((ep - em) / (2 * h) - want) / abs(want) <= 1e-4
