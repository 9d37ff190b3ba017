"""Smoke test of the benchmark's traced run: every layer function that
``perfbench/spans.py`` wraps must still exist under its traced name."""

import importlib.util
from pathlib import Path

import latzeta
from latzeta import em2d, lerch, quadrature
from latzeta.weil import WeilParams, weil_integral

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_weil_integral_records_layers():
    # J2 + J3 is one integrate_half_strip call, which spans.py names by its
    # third positional argument, now the list of boxes rather than a side,
    # so as the piece below the band; its box does not go through
    # integrate_rect
    tracer = _load_spans().Tracer()
    original = quadrature.integrate_half_strip
    with tracer:
        weil_integral(WeilParams(latzeta.lattice_new(1.0, 1j), 0.3 + 0.2j, 8), tol=1e-6)
    names = [span[2] for span in tracer.spans]
    assert "weil.j1" in names
    # J1's segment is counted under the traced name integrate_line
    assert any(span[2] == "quadrature.integrate_line" and span[5]["evals"] > 0 for span in tracer.spans)
    assert names.count("weil.j2") + names.count("weil.j3") == names.count("quadrature.integrate_half_strip") == 1
    assert quadrature.integrate_half_strip is original


def test_traced_lerch_and_em2d_record_layers():
    # the layers of the lerch and em2d workloads: the z = 1 ray of
    # hurwitz_zeta, whose segment is counted under integrate_ray, and
    # em_sum_2d's rectangle and boundary segments
    tracer = _load_spans().Tracer()
    with tracer:
        lerch.hurwitz_zeta(2.5, 0.5, tol=1e-8)
        em2d.em_sum_2d(em2d.gauss_function(1.0 / 64.0), em2d.Rect(0.5, 4.5, -1.5, 3.5), tol=1e-8)
    names = {span[2] for span in tracer.spans}
    assert {
        "quadrature.integrate_ray",
        "quadrature.integrate_segment",
        "quadrature.integrate_rect",
        "em2d.em_sum_2d",
    } <= names
    assert any(span[2] == "quadrature.integrate_ray" and span[5]["evals"] > 0 for span in tracer.spans)
