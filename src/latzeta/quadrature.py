"""Numerical integration of piecewise-smooth complex-valued integrands.

Two algorithms, each written once:

* ``_refine``, adaptive max-heap refinement on a finite domain, cut at
  integers (the periodized Bernoulli weight P1 is non-smooth exactly
  there).  Each pass splits up to 64 of the worst items and evaluates
  their children in one batch.  ``integrate_segment`` compares GL16 on a
  panel with GL16 on its halves, ``integrate_rect`` GL8xGL8 on a cell
  with GL8xGL8 on its 2x2 split.  Both raise NoConvergence once the
  panels would exceed ``DEFAULT_PANEL_BUDGET``.
* ``_improper``, the doubling driver of ``integrate_line``,
  ``integrate_ray`` and ``integrate_half_strip``: the domain is truncated
  at integer-aligned radii that double per level, the partial values are
  accelerated (Richardson or iterated Aitken), and a sampled algebraic
  tail bound stops the doubling too when the decay makes it sharp.  The
  half-strip's first level is an adaptive rectangle of radius 4 around the
  integrand peak; later levels are slabs with a fixed tensor rule per unit
  cell (GL8xGL8, GL4xGL4 from distance 16), whose error is estimated on
  the cell nearest the peak: the rule there against the rule on the
  cell's 2x2 split, both from precomputed unit-cell offsets in one
  integrand call.

Integrands may be numpy-vectorized (preferred, arrays in / arrays out) or
plain scalar callables; scalar callables are detected and looped over.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergence,
    PoleNearDomain,
    TailEstimateFailed,
    UnsupportedDecay,
)

#: panels one adaptive segment or rectangle may hold, read at each call
DEFAULT_PANEL_BUDGET = 1 << 16

_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)
_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)
_GL4_X, _GL4_W = np.polynomial.legendre.leggauss(4)
#: segment nodes on [-1, 1]: GL16 on the panel, then on its two halves
_PANEL_X = np.concatenate([_GL16_X, 0.5 * _GL16_X - 0.5, 0.5 * _GL16_X + 0.5])

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


def richardson_extrapolate(seq, ratio: float = 2.0):
    """Richardson (Neville) extrapolation assuming an error expansion in
    successive integer powers of 1/ratio per level.

    This is the natural accelerator for domain truncations at
    integer-aligned radii that double per level.  Returns (best,
    increment) with the increment taken along the table diagonal."""
    s = [complex(v) for v in seq]
    rows = [[s[0]]]
    for j in range(1, len(s)):
        row = [s[j]]
        for m in range(1, j + 1):
            f = ratio**m
            row.append((f * row[m - 1] - rows[j - 1][m - 1]) / (f - 1.0))
        rows.append(row)
    diag = [rows[j][j] for j in range(len(s))]
    if len(diag) < 2:
        return diag[-1], math.inf
    return diag[-1], abs(diag[-1] - diag[-2])


def _accelerate(levels):
    """Best of Richardson (integer powers) and iterated Aitken."""
    est_r, inc_r = richardson_extrapolate(levels)
    est_a, inc_a = shanks_extrapolate(levels)
    return (est_r, inc_r) if inc_r <= inc_a else (est_a, inc_a)


# ---------------------------------------------------------------------------
# adaptive refinement


def _refine(items, evaluate, split, cost, tol, max_panels, what):
    """Max-heap refinement of a partition of a finite domain.

    ``evaluate(batch)`` gives (value, error estimate, integral of |f|) per
    item in one call; ``split(item)`` gives the item's children, or None
    when it is too small to split; ``cost`` counts integrand evaluations
    per item.  Each pass splits up to 64 of the items with the largest
    estimates; panels are the leaves of the partition."""
    heap = []  # (-err, id, item, value, err)
    uid = 0
    value = 0j
    err_sum = 0.0
    absmass = 0.0
    n_panels = 0
    evals = 0

    def add(batch):
        nonlocal uid, value, err_sum, absmass, n_panels, evals
        evals += cost * len(batch)
        n_panels += len(batch)
        for item, (v, e, m) in zip(batch, evaluate(batch)):
            heapq.heappush(heap, (-e, uid, item, v, e))
            uid += 1
            value += v
            err_sum += e
            absmass += m

    def floor_err():
        return _EPS_FLOOR * (absmass + abs(value) + 1.0)

    add(items)
    while err_sum > tol * (1.0 + abs(value)) + floor_err():
        target = tol * (1.0 + abs(value)) / max(n_panels, 1)
        popped, children = [], []
        while heap and len(popped) < 64 and -heap[0][0] > target:
            kids = split(heap[0][2])
            if kids is None:
                break
            popped.append(heapq.heappop(heap))
            children.extend(kids)
        if not popped:
            break
        # checked before the popped items leave the sums, so the best
        # estimate still covers the whole domain
        if n_panels - len(popped) + len(children) > max_panels:
            best = QuadratureResult(value, err_sum + floor_err(), n_panels, evals)
            raise NoConvergence(f"{what}: panel budget {max_panels} exhausted", best=best)
        for _, _, _, v, e in popped:
            value -= v
            err_sum -= e
        n_panels -= len(popped)
        add(children)

    return QuadratureResult(value, err_sum + floor_err(), n_panels, evals)


# ---------------------------------------------------------------------------
# finite segments


def _cutpoints(a, b, max_width=None):
    """The ends of [a, b] and the integers inside it, sorted; with
    ``max_width``, each piece is split evenly to at most that width."""
    cuts = {float(a), float(b)}
    n0 = math.floor(a) + 1
    n1 = math.ceil(b) - 1
    # guard against pathological spans; the adaptive stage can still split
    if n1 - n0 <= 4 * DEFAULT_PANEL_BUDGET:
        cuts.update(float(n) for n in range(n0, n1 + 1))
    pts = sorted(cuts)
    if max_width is not None:
        refined = [pts[0]]
        for lo, hi in zip(pts, pts[1:]):
            k = int(math.ceil((hi - lo) / max_width))
            for j in range(1, k):
                refined.append(lo + (hi - lo) * j / k)
            refined.append(hi)
        pts = refined
    return pts


def _eval_panel_batch(fv, bounds):
    """GL16 on each panel and on its two halves, for up to 1024 panels per
    integrand call, which bounds peak memory.

    Returns per-panel (refined value, error estimate, integral of |f|)."""
    out = []
    for i in range(0, len(bounds), 1024):
        lo, hi = np.asarray(bounds[i : i + 1024], float).T
        h = 0.5 * (hi - lo)
        nodes = h[:, None] * _PANEL_X + (lo + h)[:, None]
        vals = fv(nodes.ravel()).reshape(-1, 3, 16)
        coarse, left, right = h * (vals @ _GL16_W).T
        fine = 0.5 * (left + right)
        mass = 0.5 * h * (np.abs(vals[:, 1:]) @ _GL16_W).sum(axis=1)
        out.extend(zip(fine.tolist(), np.abs(fine - coarse).tolist(), mass.tolist()))
    return out


def integrate_segment(f, a: float, b: float, tol: float = 1e-10) -> QuadratureResult:
    """Adaptively integrate f over [a, b].

    Panels are pre-split at every integer, where a P1-weighted integrand
    has its kinks, and then bisected where the Richardson estimate is
    largest until the summed estimate satisfies err <= tol * (1 + |value|).
    Raises NoConvergence once the panels would exceed DEFAULT_PANEL_BUDGET.
    """
    if not a <= b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    check_tol(tol)
    if a == b:
        return QuadratureResult(0j, 0.0, 0, 0)
    fv = vectorize1(f)

    def split(panel):
        lo, hi = panel
        if hi - lo < 1e-13 * (1 + abs(lo)):
            return None
        mid = 0.5 * (lo + hi)
        return [(lo, mid), (mid, hi)]

    pts = _cutpoints(a, b)
    return _refine(
        list(zip(pts, pts[1:])),
        lambda panels: _eval_panel_batch(fv, panels),
        split,
        48,
        tol,
        DEFAULT_PANEL_BUDGET,
        f"segment [{a}, {b}]",
    )


# ---------------------------------------------------------------------------
# improper 1-D integrals


def _tail_constant(mags, rads, decay_order):
    """Estimate C in |f| <= C r^(-q) from sampled |f| at radii rads, and
    reject non-decay.  Entries (or rows of probes) run from the first
    radius to the last."""
    scaled = mags * rads**decay_order
    # growth of |f| r^q across the probe span means the claimed decay is absent
    if scaled[-1].max() > 50.0 * (scaled[0].max() + 1e-300) and mags[-1].max() > 1e-13:
        raise TailEstimateFailed(
            f"integrand does not decay like r^-{decay_order} (sampled growth)"
        )
    return float(scaled.max())


def _improper(segment_for, start_radius, max_radius, tol, tail_bound, max_panels):
    """The doubling driver: cumulative integrals at doubling radii plus
    acceleration.

    ``segment_for(r_prev, r)`` integrates the part of the domain added at
    radius r (r_prev is None on the first level).  ``tail_bound(r)`` is a
    bound on the neglected tail (may be inf).  Stops when either the plain
    bound or the extrapolation increment meets tol; gives up with the best
    estimate once r reaches max_radius or the panels of all levels exceed
    max_panels (callers allow 64 panel budgets: each level's adaptive calls
    hold their own budget, and fixed-order strip cells are cheap).
    """
    levels = []
    quad_err = 0.0
    panels = 0
    evals = 0
    value = 0j
    r_prev = None
    r = start_radius
    while True:
        res = segment_for(r_prev, r)
        value += res.value
        quad_err += res.err
        panels += res.panels
        evals += res.evals
        levels.append(value)
        plain_tail = tail_bound(r)
        est, inc = _accelerate(levels)
        scale = 1.0 + abs(est)
        if plain_tail <= tol * scale / 4 and plain_tail <= inc:
            return QuadratureResult(value, quad_err + plain_tail, panels, evals)
        if len(levels) >= 4 and inc <= tol * scale / 4:
            return QuadratureResult(est, quad_err + inc + _EPS_FLOOR * scale, panels, evals)
        if r >= max_radius or panels > max_panels:
            best_v, best_e = (est, inc) if inc < plain_tail else (value, plain_tail)
            if not math.isfinite(best_e):
                best_e = abs(levels[-1] - levels[-2]) if len(levels) > 1 else abs(best_v)
            best = QuadratureResult(best_v, quad_err + best_e, panels, evals)
            raise NoConvergence(
                f"improper integral not converged at radius {r} (tol {tol})", best=best
            )
        r_prev, r = r, 2 * r


def _total(parts):
    """One result for the union of disjoint pieces of a domain."""
    return QuadratureResult(
        sum(q.value for q in parts),
        sum(q.err for q in parts),
        sum(q.panels for q in parts),
        sum(q.evals for q in parts),
    )


def integrate_line(f, decay_order: float, tol: float = 1e-8) -> QuadratureResult:
    """Integrate f over the whole real line, an absolutely convergent
    integral.

    Requires an algebraic decay order |f| ~ |x|^-decay_order with
    decay_order > 1, validated by sampling on both sides; it sets the tail
    bound."""
    if decay_order <= 1:
        raise UnsupportedDecay("integrate_line needs decay_order > 1")
    fv = vectorize1(f)
    seg_tol = tol / 8
    probes = np.array([32.0, 64.0, 128.0, 256.0, -32.0, -64.0, -128.0, -256.0])
    c = _tail_constant(np.abs(fv(probes)), np.abs(probes), decay_order)
    q = decay_order

    def tail_bound(r):
        return 2.0 * c * r ** (1.0 - q) / (q - 1.0)

    def segment_for(r_prev, r):
        spans = ((-r, r),) if r_prev is None else ((-r, -r_prev), (r_prev, r))
        return _total([integrate_segment(fv, lo, hi, tol=seg_tol) for lo, hi in spans])

    return _improper(segment_for, 16, 1 << 13, tol, tail_bound, 64 * DEFAULT_PANEL_BUDGET)


def integrate_ray(f, start: float, decay_order: float, tol: float = 1e-8) -> QuadratureResult:
    """Integrate f over [start, infinity).

    Requires an algebraic decay order |f| ~ x^-decay_order with
    decay_order > 1, validated by sampling; it sets the tail bound."""
    if decay_order <= 1:
        raise UnsupportedDecay("integrate_ray needs decay_order > 1")
    fv = vectorize1(f)
    seg_tol = tol / 8
    probes = start + np.array([32.0, 128.0, 512.0])
    c = _tail_constant(np.abs(fv(probes)), np.abs(probes), decay_order)
    q = decay_order

    def tail_bound(r):
        return c * r ** (1.0 - q) / (q - 1.0)

    def segment_for(r_prev, r):
        lo = start if r_prev is None else start + r_prev
        return integrate_segment(fv, lo, start + r, tol=seg_tol)

    return _improper(segment_for, 16, 1 << 14, tol, tail_bound, 64 * DEFAULT_PANEL_BUDGET)


# ---------------------------------------------------------------------------
# 2-D rectangles


def _tensor_nodes(edges, order_x, order_w):
    """Nodes and weights of a panel rule on the edges along the last axis."""
    lows = edges[..., :-1]
    highs = edges[..., 1:]
    half = 0.5 * (highs - lows)
    mid = 0.5 * (highs + lows)
    shape = edges.shape[:-1] + (-1,)
    nodes = (half[..., None] * order_x + mid[..., None]).reshape(shape)
    weights = (half[..., None] * order_w).reshape(shape)
    return nodes, weights


def _rect_fixed(fv2, x_edges, y_edges, gl):
    """Tensor-product fixed-order integral over the panel grid, with the
    rule ``gl`` = (nodes, weights) on [-1, 1] in each panel.

    Evaluated in row chunks to bound peak memory on large truncation
    rectangles."""
    xn, xw = _tensor_nodes(np.asarray(x_edges, float), *gl)
    yn, yw = _tensor_nodes(np.asarray(y_edges, float), *gl)
    total = 0j
    chunk = max(1, (1 << 21) // max(xn.size, 1))
    for i in range(0, yn.size, chunk):
        vals = fv2(xn[None, :], yn[i : i + chunk, None])
        total += complex(yw[i : i + chunk] @ vals @ xw)
    return total, xn.size * yn.size


def integrate_rect(
    f,
    x_lo: float,
    x_hi: float,
    y_lo: float,
    y_hi: float,
    tol: float = 1e-10,
) -> QuadratureResult:
    """Adaptive tensor-product integration over a finite rectangle.

    Cells follow the integer grid; each cell compares a GL8xGL8 rule with
    its 2x2-split refinement and the worst cells are subdivided until the
    summed estimate meets tol."""
    if not (x_lo < x_hi and y_lo < y_hi):
        raise ValueError("rectangle bounds must be increasing")
    check_tol(tol)
    fv2 = vectorize2(f)

    xs = _cutpoints(x_lo, x_hi, max_width=max(1.0, (x_hi - x_lo) / 4))
    ys = _cutpoints(y_lo, y_hi, max_width=max(1.0, (y_hi - y_lo) / 4))
    cells = [
        (float(a), float(b), float(c), float(d))
        for a, b in zip(xs, xs[1:])
        for c, d in zip(ys, ys[1:])
    ]

    def gl8_cells(ex, ey):
        """GL8xGL8 on the panels between each cell's edges (rows of ex, ey)
        in one integrand call on (cells, y, x) grids: integrals of f, |f|."""
        xn, xw = _tensor_nodes(ex, _GL8_X, _GL8_W)
        yn, yw = _tensor_nodes(ey, _GL8_X, _GL8_W)
        vals = fv2(xn[:, None, :], yn[:, :, None])
        return [(yw[:, None, :] @ v @ xw[:, :, None])[:, 0, 0] for v in (vals, np.abs(vals))]

    def eval_cells(batch):
        out = []
        for i in range(0, len(batch), 64):  # 64 cells per call bound its size
            a, b, c, d = np.asarray(batch[i : i + 64]).T
            coarse, _ = gl8_cells(np.stack([a, b], -1), np.stack([c, d], -1))
            fine, mass = gl8_cells(
                np.stack([a, 0.5 * (a + b), b], -1), np.stack([c, 0.5 * (c + d), d], -1)
            )
            out.extend(zip(fine.tolist(), np.abs(fine - coarse).tolist(), mass.tolist()))
        return out

    def split(cell):
        a, b, c, d = cell
        if min(b - a, d - c) < 1e-12:
            return None
        mx, my = 0.5 * (a + b), 0.5 * (c + d)
        return [(a, mx, c, my), (mx, b, c, my), (a, mx, my, d), (mx, b, my, d)]

    return _refine(
        cells,
        eval_cells,
        split,
        64 + 256,
        tol,
        DEFAULT_PANEL_BUDGET,
        f"rectangle [{x_lo}, {x_hi}] x [{y_lo}, {y_hi}]",
    )


# ---------------------------------------------------------------------------
# half-infinite strips


def _split_check(x, w):
    """Offsets (u, v) in the unit cell and signed weights c such that, on a
    cell with corner (x0, y0) and sides hx, hy,
    hx * hy * (f(x0 + hx u, y0 + hy v) @ c) is the tensor rule (x, w) on
    the cell minus the same rule on the cell's 2x2 split."""
    (u1, w1), (u2, w2) = (_tensor_nodes(np.linspace(0.0, 1.0, n), x, w) for n in (2, 3))
    u = np.concatenate([np.tile(u1, u1.size), np.tile(u2, u2.size)])
    v = np.concatenate([np.repeat(u1, u1.size), np.repeat(u2, u2.size)])
    c = np.concatenate([np.outer(w1, w1).ravel(), -np.outer(w2, w2).ravel()])
    return u, v, c


#: the split checks of the slab rules, by rule order
_SPLIT_CHECKS = {len(x): _split_check(x, w) for x, w in ((_GL8_X, _GL8_W), (_GL4_X, _GL4_W))}


def _strip_rect(fv2, x_lo, x_hi, y_lo, y_hi, hot_x, hot_y, gl):
    """Integral over one slab of a strip level: the tensor rule ``gl``, GL8
    or GL4 (nodes, weights) on [-1, 1], on every cell of the integer grid.

    The rule error is estimated on the cell nearest (hot_x, hot_y), the
    integrand peak: the rule there is compared with the rule on the cell's
    2x2 split, both in one integrand call, and |difference| is charged once
    per cell of the slab.  That bounds the slab's error as long as the
    per-cell error falls with distance from the peak, which holds for
    integrands that decay algebraically away from it."""
    x_edges = _cutpoints(x_lo, x_hi)
    y_edges = _cutpoints(y_lo, y_hi)
    base, evals = _rect_fixed(fv2, x_edges, y_edges, gl)
    i = int(np.clip(np.searchsorted(x_edges, hot_x) - 1, 0, len(x_edges) - 2))
    j = int(np.clip(np.searchsorted(y_edges, hot_y) - 1, 0, len(y_edges) - 2))
    x0, hx = x_edges[i], x_edges[i + 1] - x_edges[i]
    y0, hy = y_edges[j], y_edges[j + 1] - y_edges[j]
    u, v, c = _SPLIT_CHECKS[len(gl[0])]
    diff = hx * hy * complex(fv2(x0 + hx * u, y0 + hy * v) @ c)
    n_panels = (len(x_edges) - 1) * (len(y_edges) - 1)
    return QuadratureResult(base, abs(diff) * n_panels, n_panels, evals + c.size)


def integrate_half_strip(
    f,
    y_edge: float,
    direction: str,
    decay_order: float,
    tol: float = 1e-8,
    hot_x: float = 0.0,
    pole=None,
    max_radius: int = 1024,
) -> QuadratureResult:
    """Integrate f over the half-strip x in (-inf, inf), y above (direction
    'up') or below (direction 'down') y_edge.

    Requires decay_order > 2 (slower 2-D decay is not absolutely
    convergent).  The strip is truncated to growing rectangles whose radius
    doubles; the truncated values carry a smooth expansion in the inverse
    radius when the cuts are integer-aligned, so iterated Aitken
    extrapolation supplies the tail.  ``hot_x`` locates the integrand peak
    along the edge: the first level, an adaptive rectangle, is centred on
    it, and each slab's rule error is estimated at the cell nearest it.
    ``pole`` is an optional callable (x, y) -> distance used to refuse
    regions within 1e-6 of a pole."""
    if decay_order <= 2:
        raise UnsupportedDecay(
            f"half-strip integration needs decay_order > 2, got {decay_order}"
        )
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    sign = 1.0 if direction == "up" else -1.0
    fv2 = vectorize2(f)

    if pole is not None:
        probe_y = y_edge + sign * np.array([0.0, 0.25, 0.5, 1.0])
        probe_x = hot_x + np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        dmin = min(
            float(pole(float(x), float(y))) for x in probe_x for y in probe_y
        )
        if dmin < 1e-6:
            raise PoleNearDomain(
                f"half-strip boundary passes within {dmin:.2e} of an integrand pole"
            )

    # sampled tail constant along representative rays in the strip; each
    # ray is probed at four phases of the unit cell, since P1-weighted
    # integrands can vanish at every probe that shares one phase
    phases = np.array([0.0, 0.25, 0.5, 0.75])
    px, py = [], []
    for r in (16.0, 32.0, 64.0, 128.0):
        for dx, dy in ((0.0, r), (r, r / 2), (-r, r / 2)):
            px.append(hot_x + dx + phases)
            py.append(y_edge + sign * (dy + phases))
    px = np.stack(px).reshape(4, -1)  # one row per radius
    py = np.stack(py).reshape(4, -1)
    c = _tail_constant(np.abs(fv2(px, py)), np.hypot(px - hot_x, py - y_edge), decay_order)
    q = decay_order

    def tail_bound(r):
        # 2-D tail of C r^-q over the region beyond radius r
        return 2.0 * math.pi * c * r ** (2.0 - q) / (q - 2.0)

    x_center = math.floor(hot_x) + 0.5

    def y_span(d0, d1):
        """The y-interval at distances d0..d1 from the edge, into the strip."""
        return (y_edge + d0, y_edge + d1) if direction == "up" else (y_edge - d1, y_edge - d0)

    def segment_for(r_prev, r):
        if r_prev is None:
            # the innermost rectangle contains the integrand peak: hand it
            # to the fully adaptive 2-D routine so its error is controlled,
            # and keep fixed-order cells for the smooth outer slabs only
            return integrate_rect(fv2, x_center - r, x_center + r, *y_span(0.0, r), tol=tol / 4)
        # slabs at distance >= 16 from the peak hold only slowly varying
        # integrand mass; a 4-point rule per unit cell is enough there
        gl = (_GL4_X, _GL4_W) if r_prev >= 16 else (_GL8_X, _GL8_W)
        slabs = (
            (x_center - r, x_center - r_prev, 0.0, r_prev),
            (x_center + r_prev, x_center + r, 0.0, r_prev),
            (x_center - r, x_center + r, r_prev, r),
        )
        return _total(
            [_strip_rect(fv2, xa, xb, *y_span(d0, d1), hot_x, y_edge, gl) for xa, xb, d0, d1 in slabs]
        )

    return _improper(segment_for, 4, max_radius, tol, tail_bound, 64 * DEFAULT_PANEL_BUDGET)
