import csv
import io
import json

import numpy as np
import pytest

from latzeta.cli import main
from latzeta.complexfmt import parse_complex
from latzeta.lattice import lattice_new
from latzeta.lerch import LerchParams, lerch_coffey, lerch_series
from latzeta.verify import CheckResult, run_suite
from latzeta.weil import WeilParams, weil_direct, weil_integral


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestWeil:
    def test_both_methods_agree(self, capsys):
        code, out = run_cli(
            capsys,
            "weil", "--w1", "1", "--w2", "i", "--a", "0.3+0.2i", "--k", "4",
            "--method", "both",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["difference"] < 1e-6

    def test_breakdown_fields(self, capsys):
        code, out = run_cli(
            capsys,
            "weil", "--w1", "1", "--w2", "i", "--a", "0.3+0.2i", "--k", "4",
            "--method", "integral", "--breakdown",
        )
        doc = json.loads(out)
        for key in ("j1", "strips", "row_correction", "eps_used", "band"):
            assert key in doc["integral"]
        assert "j2" not in doc["integral"] and "j3" not in doc["integral"]

    def test_breakdown_names_stop_rules(self, capsys):
        # k = 8 on the square lattice: the strips run on a box whose depth,
        # a half-integer, is where their y-cut bound meets its share, and J1
        # on the span |x| <= 8 with its Bernoulli tails beyond.  The pole is
        # on row -1, and the default band (-2 + 1/64, -1/64] keeps it 63/64
        # from both edges
        code, out = run_cli(
            capsys,
            "weil", "--w1", "1", "--w2", "i", "--a", "0.3+i", "--k", "8",
            "--tol", "1e-8", "--method", "integral", "--breakdown",
        )
        assert code == 0
        doc = json.loads(out)["integral"]
        assert doc["strips_stop"] == "box" and doc["strips_radius"] == 4.0
        assert doc["band"] == [-2 + 1 / 64, -1 / 64] and doc["eps_used"] == 63 / 64
        assert doc["j1_stop"] == "tail" and doc["j1_radius"] == 8

    def test_breakdown_names_reduced_basis(self, capsys):
        # (2 + i, 3 + 2i) is an unreduced basis of the square lattice; the
        # parts refer to its reduced basis, which the breakdown names
        code, out = run_cli(
            capsys,
            "weil", "--w1", "2+i", "--w2", "3+2i", "--a", "0.3+0.2i", "--k", "4",
            "--method", "integral", "--breakdown",
        )
        assert code == 0
        w1, w2 = map(parse_complex, json.loads(out)["integral"]["basis"])
        assert abs(w1) == pytest.approx(1.0) and abs(w2) == pytest.approx(1.0)
        assert abs((w2 / w1).real) <= 0.5

    def test_degenerate_lattice_exit_2(self, capsys):
        code, out = run_cli(capsys, "weil", "--w1", "1", "--w2", "1", "--a", "0.5", "--k", "3")
        assert code == 2
        assert json.loads(out)["error"] == "DegenerateLattice"

    def test_lattice_point_exit_2(self, capsys):
        code, out = run_cli(capsys, "weil", "--w1", "1", "--w2", "i", "--a", "1+i", "--k", "3")
        assert code == 2
        assert json.loads(out)["error"] == "PointOnLattice"

    def test_budget_env_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr("latzeta.quadrature.DEFAULT_PANEL_BUDGET", 4)
        code, out = run_cli(
            capsys,
            "weil", "--w1", "1", "--w2", "i", "--a", "0.3+0.2i", "--k", "4",
            "--method", "integral",
        )
        assert code == 3
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    @pytest.mark.parametrize("method", ["direct", "integral"])
    def test_unmeetable_tol_exit_2(self, capsys, method, tol):
        code, out = run_cli(
            capsys,
            "weil", "--w1", "1", "--w2", "i", "--a", "0.3+0.2i", "--k", "3",
            "--method", method, "--tol", tol,
        )
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": "ValueError", "message": "tol must be positive and finite"}

    def test_deterministic_output(self, capsys):
        args = ("weil", "--w1", "1", "--w2", "i", "--a", "0.4+0.3i", "--k", "3")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_pole_on_band_edge_exit_2(self, capsys):
        code, out = run_cli(
            capsys,
            "weil", "--w1", "1", "--w2", "i", "--a", "0.3+0.2i", "--k", "3",
            "--method", "integral", "--eps", "1e-7",
        )
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == "PoleNearDomain"

    def test_json_values_are_the_library_results(self, capsys):
        code, out = run_cli(
            capsys,
            "weil", "--w1", "1", "--w2", "i", "--a", "0.3+0.2i", "--k", "4",
            "--method", "both", "--breakdown",
        )
        assert code == 0
        doc = json.loads(out)
        p = WeilParams(lattice_new(1.0, 1j), parse_complex("0.3+0.2i"), 4)
        d, q = weil_direct(p, tol=1e-8), weil_integral(p, tol=1e-8)
        assert parse_complex(doc["direct"]["value"]) == d.value
        assert doc["direct"]["err"] == d.err
        for key in ("value", "j1", "strips", "row_correction"):
            assert parse_complex(doc["integral"][key]) == getattr(q, key), key
        assert "j2" not in doc["integral"] and "j3" not in doc["integral"]
        assert doc["integral"]["err"] == q.err
        assert doc["integral"]["eps_used"] == q.eps_used
        assert doc["integral"]["band"] == list(q.band)
        assert doc["difference"] == abs(d.value - q.value)
        assert parse_complex(doc["value"]) == d.value


class TestLerch:
    def test_both(self, capsys):
        code, out = run_cli(
            capsys, "lerch", "--z", "0.5", "--s", "2", "--a", "1", "--method", "both"
        )
        assert code == 0
        assert json.loads(out)["difference"] < 1e-8

    def test_json_values_are_the_library_results(self, capsys):
        code, out = run_cli(
            capsys, "lerch", "--z", "0.5", "--s", "2", "--a", "1", "--method", "both"
        )
        assert code == 0
        doc = json.loads(out)
        p = LerchParams(0.5, 2.0, 1.0)
        v_s, v_c = lerch_series(p, tol=1e-8), lerch_coffey(p, tol=1e-8)
        assert parse_complex(doc["series"]) == v_s
        assert parse_complex(doc["coffey"]) == v_c
        assert parse_complex(doc["value"]) == v_s
        assert doc["difference"] == abs(v_s - v_c)

    def test_coffey_zeta2(self, capsys):
        code, out = run_cli(
            capsys, "lerch", "--z", "1", "--s", "2", "--a", "1", "--method", "coffey"
        )
        doc = json.loads(out)
        assert doc["value"].startswith("1.6449340668")

    def test_unit_circle_near_one(self, capsys):
        code, out = run_cli(
            capsys, "lerch", "--z", "1", "--s", "1.1", "--a", "0.5", "--method", "both"
        )
        assert code == 0
        assert json.loads(out)["difference"] < 1e-8

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_unmeetable_tol_exit_2(self, capsys, tol):
        code, out = run_cli(capsys, "lerch", "--z", "0.5", "--s", "2", "--a", "1", "--tol", tol)
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": "ValueError", "message": "tol must be positive and finite"}

    def test_domain_error(self, capsys):
        code, out = run_cli(capsys, "lerch", "--z", "1", "--s", "0.5", "--a", "1")
        assert code == 2
        assert json.loads(out)["error"] == "DomainError"


class TestVerify:
    def test_em2d_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "em2d", "--seed", "42")
        assert code == 0

    def test_json_passed_fields_are_booleans(self, capsys, monkeypatch):
        # a check whose error is a numpy float passes as an np.bool_
        def suite_with_numpy_error(*args, **kwargs):
            return run_suite(*args, **kwargs) + [CheckResult("em2d", "numpy-error", np.float64(0.0), 1e-8)]

        monkeypatch.setattr("latzeta.cli.run_suite", suite_with_numpy_error)
        code, out = run_cli(capsys, "verify", "--suite", "em2d", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert [c["passed"] for c in doc["checks"]] == [True] * 5

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="unknown suite 'nope'"):
            run_suite("nope")

    def test_weil_unreduced_basis_check(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "weil", "--seed", "7", "--json")
        checks = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
        assert code == 0 and checks["unreduced-basis-direct-vs-integral"] is True

    def test_weil_report_shape(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "weil", "--seed", "7")
        assert code == 0
        for token in ("periodicity", "parity", "homogeneity"):
            assert token in out


class TestGrid:
    def test_three_by_three(self, capsys):
        code, out = run_cli(
            capsys,
            "grid", "--w1", "1", "--w2", "i", "--k", "3",
            "--re-min", "0.1", "--re-max", "0.9",
            "--im-min", "0.1", "--im-max", "0.9",
            "--nx", "3", "--ny", "3",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        assert all(r["re_E"] != "" for r in rows)
        for r in rows:
            z = complex(float(r["re_E"]), float(r["im_E"]))
            assert abs(z) == pytest.approx(float(r["abs_E"]), rel=1e-10)

    def test_lattice_point_cell_empty(self, capsys):
        code, out = run_cli(
            capsys,
            "grid", "--w1", "1", "--w2", "i", "--k", "3",
            "--re-min", "-0.5", "--re-max", "0.5",
            "--im-min", "-0.5", "--im-max", "0.5",
            "--nx", "3", "--ny", "3",
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        origin = [r for r in rows if r["re_a"] == "0" and r["im_a"] == "0"]
        assert len(origin) == 1
        assert origin[0]["re_E"] == ""

    def test_bad_bounds_exit_2(self, capsys):
        code, out = run_cli(
            capsys,
            "grid", "--w1", "1", "--w2", "i", "--k", "3",
            "--re-min", "1.0", "--re-max", "0.0",
            "--im-min", "0.0", "--im-max", "1.0",
            "--nx", "2", "--ny", "2",
        )
        assert code == 2

    def test_row_major_im_outer(self, capsys):
        code, out = run_cli(
            capsys,
            "grid", "--w1", "1", "--w2", "i", "--k", "3",
            "--re-min", "0.1", "--re-max", "0.3",
            "--im-min", "0.1", "--im-max", "0.3",
            "--nx", "2", "--ny", "2",
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["re_a"], r["im_a"]) for r in rows] == [
            ("0.1", "0.1"), ("0.3", "0.1"), ("0.1", "0.3"), ("0.3", "0.3"),
        ]


class TestEm2dCommand:
    def test_poly_matches_brute_force(self, capsys):
        code, out = run_cli(
            capsys,
            "em2d", "--phi", "poly",
            "--alpha1", "0", "--beta1", "4", "--alpha2", "0", "--beta2", "4",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["difference"] < 1e-8

    @pytest.mark.parametrize("phi", ["poly", "wave", "gauss", "invcube"])
    def test_registry_matches_brute_force(self, capsys, phi):
        code, out = run_cli(
            capsys,
            "em2d", "--phi", phi,
            "--alpha1", "0", "--beta1", "4", "--alpha2", "-1", "--beta2", "3.5",
        )
        assert code == 0
        doc = json.loads(out)
        bf = parse_complex(doc["brute_force"])
        assert doc["difference"] <= 1e-8 * (1 + abs(bf))

    def test_unknown_function(self, capsys):
        code, out = run_cli(
            capsys,
            "em2d", "--phi", "nope",
            "--alpha1", "0", "--beta1", "4", "--alpha2", "0", "--beta2", "4",
        )
        assert code == 2
