"""Numerical integration of piecewise-smooth complex-valued integrands.

One checked rule and one algorithm in one and two dimensions.  ``_cells``
cuts segments or rectangles at every integer (the periodized Bernoulli
weight P1 is non-smooth exactly there) and refines the unit cells by
``_refine``: the first pass evaluates them all in array batches; only if
it misses tol is a max-heap built, and each pass then halves up to 64 of
the worst cells along every axis and evaluates their children in one
batch.  A cell returns the tensor K15 rule, and its distance from the G7
subset on the same nodes is the error estimate; where the caller bounds
the error of the tensor Gauss-Legendre rules on the unit cells, each
takes instead the cheapest rule of the ladder GL8, GL12, GL16, GL24,
GL32 whose bound meets the cell's share, and that bound.  A call may use
DEFAULT_PANEL_BUDGET panels beyond its unit cells, and holds at most
MAX_SPAN_CELLS of them.  A result meets tol * (1 + |base + value|),
``base`` being the rest of a sum the value joins, or NoConvergence is
raised.  Lines, rays and half-strips are such a finite domain plus the
caller's closed form beyond it and its remainder bound.

Integrands may be numpy-vectorized (preferred, arrays in / arrays out) or
plain scalar callables; scalar callables are detected and looped over.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence

#: panels one adaptive segment or rectangle may add to its unit cells, read
#: at each call
DEFAULT_PANEL_BUDGET = 1 << 16
#: unit cells one adaptive segment or rectangle call may hold in all
MAX_SPAN_CELLS = 1 << 20
#: points one integrand call may hold, which bounds peak memory
_MAX_CALL_POINTS = 1 << 14


def _kronrod(xs, wk, wg):
    """A Kronrod rule on [-1, 1] from its nodes in [0, 1], largest first and
    ending at 0, and their weights; its Gauss subset is every other node
    from the second on, with weights wg.  Returns the nodes, the Kronrod
    weights and the Gauss weights padded with 0 to all nodes."""
    wg_all = np.zeros(len(wk))
    wg_all[1::2] = wg
    return (np.concatenate([np.negative(xs), xs[-2::-1]]), *(np.concatenate([w, w[-2::-1]]) for w in (wk, wg_all)))


# K15 and its G7 subset (QUADPACK's dqk15, Piessens et al. 1983), to
# double precision
_K15 = _kronrod(
    (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945, 0.5860872354676911,
     0.4058451513773972, 0.20778495500789848, 0.0),
    (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592, 0.1690047266392679,
     0.19035057806478542, 0.20443294007529889, 0.20948214108472782),
    (0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694),
)


def _rule(x, w, check=None):
    """A rule as its nodes, weights, check weights padded to all nodes, and
    the weights and weights minus check weights as columns: a panel's value
    and the signed difference that is its error estimate.  A rule checked
    against nothing is its own check, so that its estimate is 0: it runs
    only where the caller bounds its error."""
    check = w if check is None else check
    return x, w, check, np.stack([w, w - check], 1)


def _gauss_legendre(n):
    """The n-point Gauss-Legendre rule on [-1, 1], n even, nodes ascending:
    Newton's method on the Legendre three-term recurrence from Tricomi's
    guesses for the n/2 positive nodes, in long double, so that nodes and
    weights 2 / ((1 - x^2) P_n'(x)^2) round to double at the end, mirrored."""
    x = np.cos(np.pi * (np.arange(n // 2, dtype=np.longdouble) + 0.75) / (n + 0.5))
    for _ in range(6):
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        slope = n * (p_prev - x * p) / (1 - x * x)
        x = x - p / slope
    x, w = x.astype(float), (2 / ((1 - x * x) * slope * slope)).astype(float)
    return np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])


#: the Gauss-Legendre rules that a bound may certify on a cell, cheapest first
_LADDER = (8, 12, 16, 24, 32)


@functools.cache
def _rules(n):
    """The rule of n nodes per axis: K15 checked against G7 (n = 15), or
    GL_n checked against nothing, built at its first use, so that a program
    that certifies no cell spends no time on the Gauss-Legendre rules."""
    return _rule(*_K15) if n == 15 else _rule(*_gauss_legendre(n))


#: relative roundoff floor entering every reported error
_EPS_FLOOR = 4e-16


def check_tol(tol: float) -> None:
    """Reject a tolerance that is not positive and finite: zero, negative
    or NaN can never be met and would only run a budget out."""
    if not (0 < tol < math.inf):
        raise ValueError("tol must be positive and finite")


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    err: float
    panels: int
    evals: int
    #: stop rule and radius: "tail" beyond a line's or ray's span, its radius
    #: the span's largest |end|, or "box" (half-strips; radius left to the caller)
    stop: str | None = None
    radius: float | None = None

    def __post_init__(self):
        if not (self.err >= 0 and math.isfinite(self.err)):
            raise ValueError(f"invalid error estimate {self.err}")
        if not (math.isfinite(self.value.real) and math.isfinite(self.value.imag)):
            raise ValueError(f"non-finite integral value {self.value}")


# ---------------------------------------------------------------------------
# integrand vectorization


def vectorize1(f):
    """Wrap a 1-D integrand so it maps float arrays to complex arrays."""

    def g(xs: np.ndarray) -> np.ndarray:
        try:
            ys = np.asarray(f(xs), dtype=complex)
        except (TypeError, ValueError, AttributeError, IndexError):
            return np.array([complex(f(float(x))) for x in xs], dtype=complex)
        if ys.shape != xs.shape:
            ys = np.broadcast_to(ys, xs.shape).astype(complex)
        return ys

    return g


def vectorize2(f):
    """Wrap a 2-D integrand so it maps coordinate arrays to complex arrays.

    The coordinates reach f as given, so on a tensor grid (a (1, N) row of
    x and an (M, 1) column of y) factors of x or y alone are computed once
    per axis; only the result is broadcast to the grid shape."""

    def g(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        shape = np.broadcast_shapes(np.shape(xs), np.shape(ys))
        try:
            zs = np.asarray(f(xs, ys), dtype=complex)
            if zs.shape != shape:
                zs = np.broadcast_to(zs, shape).astype(complex)
            return zs
        except (TypeError, ValueError, AttributeError, IndexError):
            xb, yb = np.broadcast_arrays(xs, ys)
            flat = np.array(
                [complex(f(float(x), float(y))) for x, y in zip(xb.ravel(), yb.ravel())],
                dtype=complex,
            )
            return flat.reshape(shape)

    return g


# ---------------------------------------------------------------------------
# sequence acceleration


def shanks_extrapolate(seq):
    """Iterated Aitken extrapolation of a sequence of partial values.

    Returns (best, increment) where increment is the magnitude of the last
    contraction step of the table; it serves as the error estimate of the
    accelerated limit.
    """
    s = [complex(v) for v in seq]
    if len(s) == 1:
        return s[0], math.inf
    best = s[-1]
    best_inc = abs(s[-1] - s[-2])
    cur = s
    while len(cur) >= 3:
        nxt = []
        for s0, s1, s2 in zip(cur, cur[1:], cur[2:]):
            d = (s2 - s1) - (s1 - s0)
            if abs(d) < 1e-30 * (abs(s2) + 1.0):
                nxt.append(s2)
            else:
                nxt.append(s2 - (s2 - s1) ** 2 / d)
        # judge each column by its own tail increment; a column of length 1
        # only offers its distance to the parent column as a (conservative)
        # proxy
        if len(nxt) >= 2:
            inc = abs(nxt[-1] - nxt[-2])
        else:
            inc = abs(nxt[-1] - cur[-1])
        if inc <= best_inc:
            best, best_inc = nxt[-1], inc
        elif inc > 10 * best_inc + 1e-30:
            break  # deeper columns are amplifying noise
        cur = nxt
    return best, best_inc


def richardson_extrapolate(seq):
    """Richardson (Neville) extrapolation assuming an error expansion in
    successive integer powers of 1/2 per level, as of partial sums at
    doubling N.  Returns (best, increment along the table diagonal)."""
    s = [complex(v) for v in seq]
    rows = [[s[0]]]
    for j in range(1, len(s)):
        row = [s[j]]
        for m in range(1, j + 1):
            f = 2.0**m
            row.append((f * row[m - 1] - rows[j - 1][m - 1]) / (f - 1.0))
        rows.append(row)
    diag = [rows[j][j] for j in range(len(s))]
    if len(diag) < 2:
        return diag[-1], math.inf
    return diag[-1], abs(diag[-1] - diag[-2])


def _accelerate(levels):
    """The better of Richardson and iterated Aitken, by their increments."""
    est_a, inc_a = shanks_extrapolate(levels)
    est_r, inc_r = richardson_extrapolate(levels)
    return (est_r, inc_r) if inc_r <= inc_a else (est_a, inc_a)


# ---------------------------------------------------------------------------
# adaptive refinement


def _refine(items, evaluate, split, tol, max_panels, what, base=0j, first=None):
    """Max-heap refinement of a partition of a finite domain.

    ``items`` holds one row per item; ``evaluate(rows)`` gives arrays of
    (value, error estimate, integral of |f|) per row and the integrand
    evaluations spent, in one call; ``split(item)`` gives the item's
    children, or None when it is too small to split.  The first pass is
    summed in numpy, and only when it misses tol is a heap built: each
    pass then splits up to 64 of the items whose estimates exceed their
    share of tol, the largest first.  An item that is too small to split,
    or whose split would take the panels beyond ``max_panels``, leaves the
    heap and stays in the sums as it is.  The result meets tol, or
    NoConvergence is raised with it as ``.best``: once a pass that misses
    tol finds no item above its share to split, or after the first pass
    when the items beyond the reach of the budget miss tol by themselves.
    Panels are the leaves of the partition.  Tol is relative to
    1 + |base + value|, ``base`` being the rest of a sum that the value
    joins; the roundoff floor stays the part's own.  ``first``, if given,
    stands for ``evaluate(items)``, so that the first pass may take a rule
    that later passes do not."""
    vals, errs, mass, evals = evaluate(items) if first is None else first
    value, err_sum, absmass = complex(vals.sum()), float(errs.sum()), float(mass.sum())
    n_panels = len(items)

    def floor_err():
        return _EPS_FLOOR * (absmass + abs(value) + 1.0)

    def result():
        return QuadratureResult(value, err_sum + floor_err(), n_panels, evals)

    def missed():
        return err_sum > tol * (1.0 + abs(base + value)) + floor_err()

    if not missed():
        return result()
    # a split adds at least one panel, so only the `spare` largest estimates
    # can ever be split; the heap holds one more, whose pop finds the budget
    # full.  The rest keep their estimates: when those alone miss tol, on
    # the largest |value| the estimates allow, no refinement can meet it
    order = np.argsort(-errs, kind="stable")
    spare = max(max_panels - n_panels, 0)
    if errs[order[spare:]].sum() > tol * (1.0 + abs(base + value) + err_sum) + floor_err():
        raise NoConvergence(f"{what}: panel budget {max_panels} too small for tol {tol:g}", best=result())
    keep = order[: spare + 1]
    heap = list(zip(*(a.tolist() for a in (-errs[keep], keep, items[keep], vals[keep], errs[keep], mass[keep]))))
    heapq.heapify(heap)  # (-err, id, item, value, err, mass)
    uid = n_panels
    while missed():
        target = tol * (1.0 + abs(base + value)) / n_panels
        popped, children = [], []
        while heap and len(popped) < 64 and -heap[0][0] > target:
            top = heapq.heappop(heap)
            kids = split(top[2])
            if kids is not None and n_panels - len(popped) + len(children) + len(kids) - 1 <= max_panels:
                popped.append(top)
                children.extend(kids)
        if not popped:
            raise NoConvergence(f"{what}: tol {tol:g} missed and no item left to split", best=result())
        vals, errs, mass, n = evaluate(np.array(children))
        value += complex(vals.sum()) - sum(p[3] for p in popped)
        err_sum += float(errs.sum()) - sum(p[4] for p in popped)
        absmass += float(mass.sum()) - sum(p[5] for p in popped)
        evals += n
        n_panels += len(children) - len(popped)
        for item, v, e, m in zip(children, vals.tolist(), errs.tolist(), mass.tolist()):
            heapq.heappush(heap, (-e, uid, item, v, e, m))
            uid += 1

    return result()


# ---------------------------------------------------------------------------
# unit cells: segments and rectangles


def _cutpoints(a, b):
    """The ends of [a, b] and the integers inside it, as a sorted array."""
    pts = np.arange(math.floor(a), math.ceil(b) + 1, dtype=float)
    pts[0], pts[-1] = a, b
    return pts


def _eval_cells(fv, cells, n=15):
    """The tensor rule of n nodes per axis (``_rules``) on each row of
    ``cells``, (lo, hi) per axis with x first, _MAX_CALL_POINTS // n**dim
    cells per integrand call, which bounds peak memory.  A 1-D fv gets its
    nodes as one flat array, a 2-D fv as (cells, 1, x) and (cells, y, 1)
    grids.

    Returns arrays over the cells of the value, the error estimate
    |K15xK15 - G7xG7| (|K15 - G7| on one axis; 0 for the unchecked
    Gauss-Legendre rules) and the integral of |f|, and the evaluations
    spent."""
    dim = cells.shape[1] // 2
    x, w, check, panel = _rules(n)
    value, err, mass = np.empty(len(cells), complex), np.empty(len(cells)), np.empty(len(cells))
    step = _MAX_CALL_POINTS // n**dim
    for i in range(0, len(cells), step):
        lo, hi = cells[i : i + step, 0::2], cells[i : i + step, 1::2]
        h = 0.5 * (hi - lo)
        nodes = h[..., None] * x + (lo + h)[..., None]  # (cells, axis, node)
        vals = fv(nodes.ravel()).reshape(-1, n) if dim == 1 else fv(nodes[:, 0, None], nodes[:, 1, :, None])
        # sum out x, the last axis, first: the sums and their differences
        # from the check; each further axis takes the difference of the sums
        # plus the check of the differences.  One (-1, n) matrix per axis
        # keeps each product one matrix call
        sums_diffs, absf, size = vals.reshape(-1, n) @ panel, np.abs(vals).reshape(-1, n) @ w, h[:, 0]
        for axis in range(1, dim):
            checked = sums_diffs[:, 1].reshape(-1, n) @ check
            sums_diffs = sums_diffs[:, 0].reshape(-1, n) @ panel
            sums_diffs[:, 1] += checked
            absf, size = absf.reshape(-1, n) @ w, size * h[:, axis]
        value[i : i + step], err[i : i + step] = size * sums_diffs[:, 0], np.abs(size * sums_diffs[:, 1])
        mass[i : i + step] = size * absf
    return value, err, mass, len(cells) * n**dim


def _halve1(cell):
    lo, hi = cell
    if hi - lo < 1e-13 * (1 + abs(lo)):
        return None
    mid = 0.5 * (lo + hi)
    return [(lo, mid), (mid, hi)]


def _halve2(cell):
    a, b, c, d = cell
    if min(b - a, d - c) < 1e-12:
        return None
    mx, my = 0.5 * (a + b), 0.5 * (c + d)
    return [(a, mx, c, my), (mx, b, c, my), (a, mx, my, d), (mx, b, my, d)]


def _certified(fv, rows, cell_bound, share):
    """``_eval_cells`` with the cheapest rule of ``_LADDER`` that a bound
    certifies: each row takes the first n whose ``cell_bound(rows, n)``,
    evaluated for all n at once as a column, meets the row's part of
    ``share`` by area, and that bound as its error; a row that no rung
    certifies takes K15 and its estimate."""
    area = np.prod(rows[:, 1::2] - rows[:, ::2], 1)
    bounds = cell_bound(rows, np.array(_LADDER)[:, None])
    met = bounds <= share / area.sum() * area
    # the row past the ladder's end is K15's, which always runs
    rung = np.vstack([met, np.ones(len(rows), bool)]).argmax(0)
    value, err, mass = np.empty(len(rows), complex), np.empty(len(rows)), np.empty(len(rows))
    evals = 0
    for i, n in enumerate(_LADDER + (15,)):
        pick = rung == i
        if pick.any():
            value[pick], err[pick], mass[pick], spent = _eval_cells(fv, rows[pick], n)
            evals += spent
            if n != 15:
                err[pick] = bounds[i, pick]
    return value, err, mass, evals


def _cells(fv, boxes, tol, what, base=0j, cell_bound=None):
    """One ``_refine`` of a vectorized fv over the unit cells of ``boxes``,
    rows (lo, hi) per axis with x first and lo < hi, to tol relative to
    base plus their sum.  Every axis is cut at every integer; each cell
    returns the tensor K15 rule checked against G7 on the same nodes
    (``_eval_cells``) and splits in half along every axis.  Given
    ``cell_bound``, a unit cell takes instead the cheapest tensor
    Gauss-Legendre rule of ``_LADDER`` whose error bound meets its share of
    tol/4, absolute and spread over the unit cells by area, and that bound
    (``_certified``); children, and cells that no rung certifies, take K15.
    The budget is DEFAULT_PANEL_BUDGET panels beyond the unit cells, so that
    domains of many cells can split; more than MAX_SPAN_CELLS unit cells in
    all raise NoConvergence before any is built."""
    dim = len(boxes[0]) // 2
    sides = [list(zip(row[::2], row[1::2])) for row in boxes]
    n = sum(math.prod(math.ceil(hi) - math.floor(lo) for lo, hi in box) for box in sides)
    if n > MAX_SPAN_CELLS:
        raise NoConvergence(f"{what}: {n} unit cells, more than {MAX_SPAN_CELLS}")
    blocks = []
    for box in sides:
        cuts = [_cutpoints(lo, hi) for lo, hi in box]
        block = np.empty([len(c) - 1 for c in cuts] + [2 * dim])
        for axis, c in enumerate(cuts):
            shape = (-1,) + (1,) * (dim - 1 - axis)
            block[..., 2 * axis], block[..., 2 * axis + 1] = c[:-1].reshape(shape), c[1:].reshape(shape)
        blocks.append(block.reshape(-1, 2 * dim))
    items = np.concatenate(blocks)
    first = None if cell_bound is None else _certified(fv, items, cell_bound, tol / 4)
    split, budget = _halve1 if dim == 1 else _halve2, n + DEFAULT_PANEL_BUDGET
    return _refine(items, lambda rows: _eval_cells(fv, rows), split, tol, budget, what, base, first)


def integrate_segment(f, a: float, b: float, tol: float = 1e-10) -> QuadratureResult:
    """Adaptively integrate f over [a, b] by one ``_cells``: panels cut at
    every integer, where a P1-weighted integrand has its kinks, and halved
    where the K15 - G7 estimate is largest until err <= tol * (1 +
    |value|).  NoConvergence is raised when tol is missed within
    DEFAULT_PANEL_BUDGET panels beyond the unit cells, or at once when
    [a, b] spans more than MAX_SPAN_CELLS of them."""
    if not a <= b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    check_tol(tol)
    if a == b:
        return QuadratureResult(0j, 0.0, 0, 0)
    return _cells(vectorize1(f), [(a, b)], tol, f"segment [{a}, {b}]")


def integrate_rect(f, x_lo: float, x_hi: float, y_lo: float, y_hi: float, tol: float = 1e-10) -> QuadratureResult:
    """Adaptively integrate f over a finite rectangle by one ``_cells``:
    the rule, budget and cap of ``integrate_segment`` on the cells of the
    integer grid, each returning K15xK15 checked against G7xG7."""
    if not (x_lo < x_hi and y_lo < y_hi):
        raise ValueError("rectangle bounds must be increasing")
    check_tol(tol)
    return _cells(vectorize2(f), [(x_lo, x_hi, y_lo, y_hi)], tol, f"rectangle [{x_lo}, {x_hi}] x [{y_lo}, {y_hi}]")


# ---------------------------------------------------------------------------
# improper integrals: lines, rays and half-strips


def _plus_tail(fv, tail, domains, tol, base, bound, what, stop, radius=None, cell_bound=None):
    """One ``_cells`` of fv over the finite ``domains`` at tol, relative to
    1 + |base + value|, plus ``tail``, the caller's closed form beyond
    them, whose remainder bound ``bound`` joins err; ``stop`` and
    ``radius`` name the result's stop rule.  NoConvergence carries the
    domains' best value plus tail."""
    try:
        q = _cells(fv, domains, tol, what, base + tail, cell_bound)
    except NoConvergence as exc:
        if exc.best is not None:  # None: the domains' cells passed the cap
            exc.best = QuadratureResult(exc.best.value + tail, exc.best.err + bound, exc.best.panels, exc.best.evals)
        raise
    return QuadratureResult(q.value + tail, q.err + bound, q.panels, q.evals, stop, radius)


def _span_and_tail(f, tail, span, tol, base, bound):
    lo, hi = span
    if not lo < hi:
        raise ValueError(f"need lo < hi, got {span}")
    check_tol(tol)
    what, radius = f"span [{lo}, {hi}]", max(abs(lo), abs(hi))
    return _plus_tail(vectorize1(f), tail, [span], tol, base, bound, what, "tail", radius)


def integrate_line(f, tail, span, tol=1e-8, base=0j, bound=0.0) -> QuadratureResult:
    """The integral of f over the real line as a finite span plus the
    caller's closed form beyond it: f over ``span`` = (lo, hi) by one
    ``_cells`` at tol, relative to 1 + |base + value|, plus ``tail``, the
    integral of f beyond both ends; ``bound``, the caller's absolute bound
    on the tail's remainder, joins err.  NoConvergence carries the span's
    best value plus tail."""
    return _span_and_tail(f, tail, span, tol, base, bound)


def integrate_ray(f, tail, span, tol=1e-8, base=0j, bound=0.0) -> QuadratureResult:
    """``integrate_line`` for a ray [lo, infinity): ``tail`` is the integral
    of f beyond hi alone."""
    return _span_and_tail(f, tail, span, tol, base, bound)


def integrate_half_strip(f, tail, boxes, tol=1e-8, base=0j, bound=0.0, cell_bound=None) -> QuadratureResult:
    """Half-strips as finite boxes plus the caller's closed form beyond
    them, as ``integrate_line``: f over the rectangles ``boxes``, rows
    (x_lo, x_hi, y_lo, y_hi), by one ``_cells`` at tol, relative to
    1 + |base + value|, plus ``tail``, the integral of f beyond the boxes;
    ``bound``, the caller's absolute bound on the rest, joins err.
    ``cell_bound``, if given, bounds the tensor Gauss-Legendre rules' error
    on the boxes' unit cells (``_cells``).  The stop rule is "box"."""
    check_tol(tol)
    if not all(x_lo < x_hi and y_lo < y_hi for x_lo, x_hi, y_lo, y_hi in boxes):
        raise ValueError(f"box bounds must be increasing, got {boxes}")
    return _plus_tail(vectorize2(f), tail, boxes, tol, base, bound, "the strips' box", "box", cell_bound=cell_bound)
