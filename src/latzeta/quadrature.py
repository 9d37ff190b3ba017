"""Numerical integration of piecewise-smooth complex-valued integrands.

One algorithm, ``_refine``: adaptive refinement on a finite domain, cut
at integers (the periodized Bernoulli weight P1 is non-smooth exactly
there).  The first pass evaluates the whole partition in array batches;
only if it misses tol is a max-heap built, and each pass then splits up
to 64 of the worst items and evaluates their children in one batch.  A
panel or cell returns the value of a Kronrod rule, and its distance from
the embedded Gauss rule on the same nodes is the error estimate:
``_rects`` takes K15xK15 against G7xG7 on the cells of a list of
rectangles, and ``_segment`` K15 against G7 on the panels of a list of
spans, each panel inside one unit cell.  A result meets tol * (1 +
|base + value|), ``base`` being the rest of a sum the value joins, or
NoConvergence is raised.  Lines, rays and half-strips are such a finite
domain plus the caller's closed form beyond it and its remainder bound.

Integrands may be numpy-vectorized (preferred, arrays in / arrays out) or
plain scalar callables; scalar callables are detected and looped over.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence

#: panels one adaptive segment or rectangle may hold, read at each call
DEFAULT_PANEL_BUDGET = 1 << 16
#: unit cells one segment or rectangle side may span
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
#: the K15 weights and K15 minus G7 weights as columns: a panel's value and
#: the signed difference that is its error estimate
_K15_PANEL = np.stack([_K15[1], _K15[1] - _K15[2]], 1)

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


def _refine(items, evaluate, split, tol, max_panels, what, base=0j):
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
    joins; the roundoff floor stays the part's own."""
    vals, errs, mass, evals = evaluate(items)
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
# finite segments


def _cutpoints(a, b):
    """The ends of [a, b] and the integers inside it, as a sorted array.
    A span of more than MAX_SPAN_CELLS unit cells raises NoConvergence."""
    n0 = math.floor(a) + 1
    n1 = math.ceil(b) - 1
    if n1 - n0 + 2 > MAX_SPAN_CELLS:
        raise NoConvergence(f"[{a}, {b}] spans more than {MAX_SPAN_CELLS} unit cells")
    pts = np.arange(n0 - 1, n1 + 2, dtype=float)
    pts[0], pts[-1] = a, b
    return pts


def _eval_panel_batch(fv, bounds):
    """K15 on each (lo, hi) row of ``bounds``, _MAX_CALL_POINTS // 15
    panels per integrand call, which bounds peak memory.

    Returns arrays over the panels: value, error estimate (|K15 - G7|)
    and integral of |f|."""
    bounds = np.asarray(bounds, float)
    value, err, mass = np.empty(len(bounds), complex), np.empty(len(bounds)), np.empty(len(bounds))
    step = _MAX_CALL_POINTS // _K15[0].size
    for i in range(0, len(bounds), step):
        lo, hi = bounds[i : i + step].T
        h = 0.5 * (hi - lo)
        vals = fv((h[:, None] * _K15[0] + (lo + h)[:, None]).ravel()).reshape(-1, _K15[0].size)
        value[i : i + step], diff = h * (vals @ _K15_PANEL).T
        err[i : i + step], mass[i : i + step] = np.abs(diff), h * (np.abs(vals) @ _K15[1])
    return value, err, mass


def _segment(fv, spans, tol, what, base=0j):
    """One ``_refine`` of a vectorized fv over the panels of ``spans``, rows
    (lo, hi) with lo < hi cut at every integer, to tol relative to base
    plus their sum.  Each panel returns K15, checked against G7 on the same
    nodes.  The budget is DEFAULT_PANEL_BUDGET panels beyond the unit
    cells, so that spans of many cells can split."""

    def split(panel):
        lo, hi = panel
        if hi - lo < 1e-13 * (1 + abs(lo)):
            return None
        mid = 0.5 * (lo + hi)
        return [(lo, mid), (mid, hi)]

    def evaluate(panels):
        return (*_eval_panel_batch(fv, panels), 15 * len(panels))

    cuts = [_cutpoints(lo, hi) for lo, hi in spans]
    panels = np.concatenate([np.stack([pts[:-1], pts[1:]], 1) for pts in cuts])
    return _refine(panels, evaluate, split, tol, len(panels) + DEFAULT_PANEL_BUDGET, what, base)


def integrate_segment(f, a: float, b: float, tol: float = 1e-10) -> QuadratureResult:
    """Adaptively integrate f over [a, b].

    Panels are pre-split at every integer, where a P1-weighted integrand
    has its kinks, and then bisected where the error estimate is largest
    until the summed estimate satisfies err <= tol * (1 + |value|).  Each
    panel returns K15, and |K15 - G7| on the same nodes is its error
    estimate.  The panels may grow to DEFAULT_PANEL_BUDGET beyond the
    unit cells; NoConvergence is raised when tol is missed within that,
    or at once when [a, b] spans more than MAX_SPAN_CELLS cells.
    """
    if not a <= b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    check_tol(tol)
    if a == b:
        return QuadratureResult(0j, 0.0, 0, 0)
    return _segment(vectorize1(f), [(a, b)], tol, f"segment [{a}, {b}]")


# ---------------------------------------------------------------------------
# improper 1-D integrals


def _span_and_tail(f, tail, span, tol, base, bound):
    lo, hi = span
    if not lo < hi:
        raise ValueError(f"need lo < hi, got {span}")
    check_tol(tol)
    try:
        q = _segment(vectorize1(f), [span], tol, f"span [{lo}, {hi}]", base + tail)
    except NoConvergence as exc:
        q = exc.best
        exc.best = QuadratureResult(q.value + tail, q.err + bound, q.panels, q.evals)
        raise
    return QuadratureResult(q.value + tail, q.err + bound, q.panels, q.evals, "tail", max(abs(lo), abs(hi)))


def integrate_line(f, tail, span, tol=1e-8, base=0j, bound=0.0) -> QuadratureResult:
    """The integral of f over the real line as a finite span plus the
    caller's closed form beyond it: f over ``span`` = (lo, hi) by one
    ``_segment`` at tol, relative to 1 + |base + value|, plus ``tail``, the
    integral of f beyond both ends; ``bound``, the caller's absolute bound
    on the tail's remainder, joins err.  NoConvergence carries the span's
    best value plus tail."""
    return _span_and_tail(f, tail, span, tol, base, bound)


def integrate_ray(f, tail, span, tol=1e-8, base=0j, bound=0.0) -> QuadratureResult:
    """``integrate_line`` for a ray [lo, infinity): ``tail`` is the integral
    of f beyond hi alone."""
    return _span_and_tail(f, tail, span, tol, base, bound)


# ---------------------------------------------------------------------------
# 2-D rectangles


def _rects(fv2, rects, tol, what, base=0j):
    """One ``_refine`` over the integer-grid cells of the rectangles
    ``rects``, rows (x_lo, x_hi, y_lo, y_hi), to tol relative to base plus
    their sum.  Each cell returns K15xK15, checked against the G7xG7 subset
    of the same values, in one integrand call on (cells, y, x) grids per
    _MAX_CALL_POINTS // 225 cells."""
    blocks = []
    for x_lo, x_hi, y_lo, y_hi in rects:
        xs, ys = _cutpoints(x_lo, x_hi), _cutpoints(y_lo, y_hi)
        cells = np.empty((len(xs) - 1, len(ys) - 1, 4))
        cells[..., 0], cells[..., 1] = xs[:-1, None], xs[1:, None]
        cells[..., 2], cells[..., 3] = ys[:-1], ys[1:]
        blocks.append(cells.reshape(-1, 4))
    items = np.concatenate(blocks)
    wk, wg = _K15[1], _K15[2]
    weights = np.stack([wk, wg], 1)

    def evaluate(batch):
        parts, step = [], _MAX_CALL_POINTS // wk.size**2
        for i in range(0, len(batch), step):
            a, b, c, d = batch[i : i + step].T
            hx, hy = 0.5 * (b - a), 0.5 * (d - c)
            xn = hx[:, None] * _K15[0] + (a + hx)[:, None]
            yn = hy[:, None] * _K15[0] + (c + hy)[:, None]
            vals = fv2(xn[:, None, :], yn[:, :, None])
            rows = vals @ weights  # (cells, y, [K15, G7]) after the x sums
            value, check = (hx * hy * (rows[..., j] @ w) for j, w in enumerate((wk, wg)))
            parts.append((value, np.abs(value - check), hx * hy * (np.abs(vals) @ wk @ wk)))
        return (*(np.concatenate(p) for p in zip(*parts)), 225 * len(batch))

    def split(cell):
        a, b, c, d = cell
        if min(b - a, d - c) < 1e-12:
            return None
        mx, my = 0.5 * (a + b), 0.5 * (c + d)
        return [(a, mx, c, my), (mx, b, c, my), (a, mx, my, d), (mx, b, my, d)]

    return _refine(items, evaluate, split, tol, DEFAULT_PANEL_BUDGET, what, base)


def integrate_rect(f, x_lo: float, x_hi: float, y_lo: float, y_hi: float, tol: float = 1e-10) -> QuadratureResult:
    """Adaptive tensor-product integration over a finite rectangle.

    Cells follow the integer grid; each cell returns K15xK15, and its
    difference from G7xG7 on the same nodes is the cell's error estimate
    (``_rects``, which also takes the half-strips' box).  The worst cells
    are subdivided until the summed estimate meets tol."""
    if not (x_lo < x_hi and y_lo < y_hi):
        raise ValueError("rectangle bounds must be increasing")
    check_tol(tol)
    return _rects(vectorize2(f), [(x_lo, x_hi, y_lo, y_hi)], tol, f"rectangle [{x_lo}, {x_hi}] x [{y_lo}, {y_hi}]")


# ---------------------------------------------------------------------------
# half-infinite strips


def integrate_half_strip(f, tail, boxes, tol=1e-8, base=0j, bound=0.0) -> QuadratureResult:
    """Half-strips as finite boxes plus the caller's closed forms beyond
    them: f over the rectangles ``boxes``, rows (x_lo, x_hi, y_lo, y_hi),
    by one ``_rects`` at tol/3, plus ``tail``, the integral of f beyond the
    boxes' x ends as a function of y, over their y-spans by one
    ``_segment`` at tol/8, each relative to 1 + |base + value| and checked
    by its rule's error estimate, else NoConvergence.  ``bound``, the
    caller's absolute bound on the rest, joins err; the stop rule is "box"."""
    check_tol(tol)
    if not all(x_lo < x_hi and y_lo < y_hi for x_lo, x_hi, y_lo, y_hi in boxes):
        raise ValueError(f"box bounds must be increasing, got {boxes}")
    box = _rects(vectorize2(f), boxes, tol / 3, "the strips' box", base)
    spans = [(y_lo, y_hi) for _, _, y_lo, y_hi in boxes]
    tails = _segment(vectorize1(tail), spans, tol / 8, "the strips' x-tails", base + box.value)
    panels, evals = box.panels + tails.panels, box.evals + tails.evals
    return QuadratureResult(box.value + tails.value, box.err + tails.err + bound, panels, evals, "box")
