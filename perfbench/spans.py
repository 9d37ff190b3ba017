"""In-memory spans around latzeta's layer boundaries, for the traced run.

Inside ``with Tracer()``, module attributes of latzeta are replaced by wrappers
that record one span per call: the layer name, the request (benchmark
call) it belongs to, its parent span, start and end, and the work
counters of the result.  The library itself is not modified; every
module that bound a traced function by name (``from .quadrature import
integrate_segment``) gets the wrapper, so calls inside the library are
seen too.  Leaving the ``with`` block restores the originals.

Self time of a span is its duration minus the durations of its direct
children (calls are single-threaded, so children never overlap).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

INTEGRAND = "quadrature.integrand"

# (home module, attribute, layer name, recorded counters)
_LAYERS = (
    ("latzeta.quadrature", "integrate_half_strip", "quadrature.integrate_half_strip", ("evals", "panels")),
    ("latzeta.quadrature", "integrate_rect", "quadrature.integrate_rect", ("evals", "panels")),
    ("latzeta.quadrature", "integrate_segment", "quadrature.integrate_segment", ("evals", "panels")),
    ("latzeta.quadrature", "integrate_line", "quadrature.integrate_line", ("evals",)),
    ("latzeta.quadrature", "integrate_ray", "quadrature.integrate_ray", ("evals",)),
    ("latzeta.quadrature", "richardson_extrapolate", "quadrature.extrapolate", ()),
    ("latzeta.quadrature", "shanks_extrapolate", "quadrature.extrapolate", ()),
    ("latzeta.bernoulli", "p1", "bernoulli.p1", ("points",)),
    ("latzeta.weil", "weil_direct", "weil.weil_direct", ()),
    ("latzeta.weil", "eisenstein_series", "weil.eisenstein_series", ()),
    ("latzeta.weil", "weil_integral", "weil.weil_integral", ()),
    ("latzeta.lerch", "lerch_series", "lerch.lerch_series", ()),
    ("latzeta.lerch", "lerch_coffey", "lerch.lerch_coffey", ()),
    ("latzeta.em2d", "em_sum_2d", "em2d.em_sum_2d", ()),
    ("latzeta.em2d", "em_sum_1d", "em2d.em_sum_1d", ()),
)

#: per-layer metrics the traced run prints, with their units; all but the
#: rate are totals over one round of the workload's cases
METRICS = {}
for _mod, _attr, _layer, _counts in _LAYERS:
    METRICS[f"{_layer}.calls"] = "count/round"
    METRICS[f"{_layer}.self_s"] = "s/round"
    for _c in _counts:
        METRICS[f"{_layer}.{_c}"] = "count/round"
METRICS.update(
    {
        f"{INTEGRAND}.calls": "count/round",
        f"{INTEGRAND}.self_s": "s/round",
        f"{INTEGRAND}.points": "count/round",
        f"{INTEGRAND}.points_per_s": "points/s",
        "weil.j1_s": "s/round",
        "weil.j2_s": "s/round",
        "weil.j3_s": "s/round",
        "trace.overhead_pct": "%",
    }
)


def _result_counts(res, names):
    """Work counters of a returned QuadratureResult (or a ConvergenceError's
    best estimate)."""
    return {n: getattr(res, n, 0) for n in names}


def _no_counts(args, res):
    return {}


def _p1_counts(args, res):
    return {"points": getattr(args[0], "size", 1)}


def _strip_piece(*args, **kwargs):
    """J2 is the half-strip above the excluded band, J3 the one below."""
    direction = args[2] if len(args) > 2 else kwargs["direction"]
    return "weil.j2" if direction == "up" else "weil.j3"


class Tracer:
    """Spans of the current round; ``end_round`` folds them into per-layer
    totals and keeps only the first round's spans for ``dump``, so memory
    stays bounded however long the run.

    Use as a context manager: the wrappers are in place inside ``with``."""

    def __init__(self):
        # one tuple per span: (request, parent, name, t0, t1, counts)
        self.spans: list = []
        self.request = 0
        self.totals = {m: 0.0 for m in METRICS}
        self.first_round: list | None = None
        self._stack: list[int] = []
        self._patches = self._plan()

    def _wrap(self, fn, name, count):
        """``count(args, result)`` gives the span's counters; ``name`` may
        be a callable of the arguments."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            res = None
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
                return res
            except Exception as exc:
                res = getattr(exc, "best", None)
                raise
            finally:
                t1 = clock()
                stack.pop()
                label = name(*args, **kwargs) if callable(name) else name
                spans[sid] = (self.request, parent, label, t0, t1, count(args, res))

        return traced

    def _vectorizer(self, vectorize):
        """Wrap vectorize1/2 so the integrand callables they return are
        traced; points are the size of each evaluated array."""
        wrap = self._wrap

        def traced_vectorize(f):
            return wrap(vectorize(f), INTEGRAND, lambda args, res: {"points": getattr(res, "size", 0)})

        return traced_vectorize

    def _plan(self) -> dict:
        """{(module, attribute): (original, wrapper)} for every latzeta
        module that holds a traced function."""
        patches = {}
        modules = [m for name, m in sys.modules.items() if name == "latzeta" or name.startswith("latzeta.")]

        def everywhere(original, wrapper):
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        patches[(module, attr)] = (original, wrapper)

        for mod_name, attr, layer, counts in _LAYERS:
            original = getattr(sys.modules[mod_name], attr)
            if layer == "bernoulli.p1":
                count = _p1_counts
            else:
                count = lambda args, res, counts=counts: _result_counts(res, counts)  # noqa: E731
            everywhere(original, self._wrap(original, layer, count))
        quadrature = sys.modules["latzeta.quadrature"]
        for attr in ("vectorize1", "vectorize2"):
            original = getattr(quadrature, attr)
            everywhere(original, self._vectorizer(original))
        # the three pieces of weil_integral: the edge line integral J1 and
        # the two half-strips, each around its traced quadrature call
        weil = sys.modules["latzeta.weil"]
        for attr, name in (("integrate_line", "weil.j1"), ("integrate_half_strip", _strip_piece)):
            original, inner = patches[(weil, attr)]
            patches[(weil, attr)] = (original, self._wrap(inner, name, _no_counts))
        return patches

    def __enter__(self):
        for (module, attr), (original, wrapper) in self._patches.items():
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for (module, attr), (original, wrapper) in self._patches.items():
            setattr(module, attr, original)
        return False

    def end_round(self):
        """Add the round's spans to the per-layer totals and drop them."""
        spans, out = self.spans, self.totals
        child_time = defaultdict(float)
        for request, parent, name, t0, t1, counts in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for sid, (request, parent, name, t0, t1, counts) in enumerate(spans):
            if name.startswith("weil.j"):
                out[f"{name}_s"] += t1 - t0
                continue
            out[f"{name}.self_s"] += t1 - t0 - child_time[sid]
            # an integrand called from inside another integrand is part of
            # that evaluation: its time counts, its call and points do not
            if name == INTEGRAND and parent >= 0 and spans[parent][2] == INTEGRAND:
                continue
            out[f"{name}.calls"] += 1
            for key, value in counts.items():
                out[f"{name}.{key}"] += value
        if self.first_round is None:
            self.first_round = list(spans)
        spans.clear()

    def per_round(self, rounds: int) -> dict:
        """Per-layer totals divided by the rounds traced; the integrand
        rate is points over integrand self time."""
        out = {name: value / rounds for name, value in self.totals.items()}
        busy = self.totals[f"{INTEGRAND}.self_s"]
        out[f"{INTEGRAND}.points_per_s"] = self.totals[f"{INTEGRAND}.points"] / busy if busy > 0 else 0.0
        return out

    def dump(self, path):
        """Write the first round's spans as JSON lines."""
        with open(path, "w") as fh:
            for sid, (request, parent, name, t0, t1, counts) in enumerate(self.first_round or ()):
                fh.write(
                    json.dumps(
                        {"id": sid, "request": request, "parent": parent, "name": name,
                         "start": t0, "end": t1, **counts}
                    )
                )
                fh.write("\n")
