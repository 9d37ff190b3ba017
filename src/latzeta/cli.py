"""Command-line interface.

Subcommands:

* ``weil``   — evaluate E_k(a, W) by lattice summation and/or the
  integral representation.
* ``lerch``  — evaluate the Hurwitz-Lerch zeta by series and/or the
  integral representation.
* ``verify`` — run the seeded self-verification suites.
* ``grid``   — sample E_k over a rectangle of a-values as CSV.
* ``em2d``   — run the 2-D summation identity on a built-in test
  function and compare against brute force.

Exit codes: 0 success, 1 failed verification, 2 domain error,
3 convergence failure.  Every error prints a one-line JSON object
``{"error": <class>, "message": <text>}`` on stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .complexfmt import format_complex, parse_complex
from .em2d import (
    BRUTE_FORCE_POINT_BUDGET,
    Rect,
    brute_force_sum_2d,
    em_sum_2d,
    gauss_function,
    integer_range,
    invcube_function,
    poly_function,
    wave_function,
)
from .errors import ConvergenceError, DomainError, PointOnLattice
from .lattice import lattice_new
from .lerch import LerchParams, lerch_coffey, lerch_series
from .verify import SUITES, run_suite
from .weil import WeilParams, weil_direct, weil_integral

JSON_DIGITS = 17
CSV_DIGITS = 12

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3

#: built-in test functions of the em2d subcommand, with exact partials
EM2D_FUNCTIONS = {
    "poly": poly_function((0.0, 0.0, 0.0, 1.0, 0.0, 1.0)),
    "wave": wave_function(1.0 / 3.0, 0.25),
    "gauss": gauss_function(1.0 / 64.0),
    "invcube": invcube_function(0.5 + 0.3j),
}


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling grid over the a-plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise DomainError("grid bounds must satisfy min < max on both axes")
        if not (self.nx >= 1 and self.ny >= 1 and self.nx * self.ny <= 10**6):
            raise DomainError("grid size must satisfy 1 <= nx*ny <= 10^6")

    def points(self):
        """Row-major sample points, imaginary part as the outer index."""
        xs = np.linspace(self.re_min, self.re_max, self.nx)
        ys = np.linspace(self.im_min, self.im_max, self.ny)
        for y in ys:
            for x in xs:
                yield complex(x, y)


def _json_default(v):
    """A complex as "a+bi" with JSON_DIGITS digits, a numpy scalar as its
    Python scalar; floats keep json's shortest round-trip form."""
    if isinstance(v, complex):
        return format_complex(v, JSON_DIGITS)
    if isinstance(v, np.generic):
        return v.item()
    raise TypeError(f"cannot serialize {type(v)}")


def _emit_json(obj) -> None:
    print(json.dumps(obj, default=_json_default))


def _csv_num(x: float) -> str:
    return format(float(x), f".{CSV_DIGITS}g")


def _report_dict(rep, breakdown: bool) -> dict:
    d = {"value": rep.value, "method": rep.method, "err": rep.err}
    if breakdown:
        d.update(j1=rep.j1, strips=rep.strips, row_correction=rep.row_correction)
        d.update(eps_used=rep.eps_used, band=list(rep.band), basis=list(rep.basis))
        for part, (stop, radius) in zip(("j1", "strips"), rep.stops):
            d[f"{part}_stop"], d[f"{part}_radius"] = stop, radius
    return d


def cmd_weil(args) -> int:
    lat = lattice_new(parse_complex(args.w1), parse_complex(args.w2))
    p = WeilParams(lat, parse_complex(args.a), args.k)
    out = {"w1": lat.w1, "w2": lat.w2, "a": p.a, "k": p.k}
    if args.method in ("direct", "both"):
        rep_d = weil_direct(p, tol=args.tol)
        out["direct"] = _report_dict(rep_d, False)
    if args.method in ("integral", "both"):
        rep_i = weil_integral(p, eps=args.eps, tol=args.tol)
        out["integral"] = _report_dict(rep_i, args.breakdown)
    if args.method == "both":
        out["difference"] = abs(rep_d.value - rep_i.value)
    out["value"] = rep_i.value if args.method == "integral" else rep_d.value
    if args.csv:
        _emit_weil_csv(out, args)
    else:
        _emit_json(out)
    return EXIT_OK


def _emit_weil_csv(out: dict, args) -> None:
    w = csv.writer(sys.stdout)
    header = ["method", "re_value", "im_value", "err"]
    w.writerow(header)
    for method in ("direct", "integral"):
        if method in out:
            v = out[method]["value"]
            w.writerow([method, _csv_num(v.real), _csv_num(v.imag), _csv_num(out[method]["err"])])


def cmd_lerch(args) -> int:
    p = LerchParams(parse_complex(args.z), parse_complex(args.s), parse_complex(args.a))
    out = {"z": p.z, "s": p.s, "a": p.a}
    if args.method in ("series", "both"):
        v_s = lerch_series(p, tol=args.tol)
        out["series"] = v_s
    if args.method in ("coffey", "both"):
        v_c = lerch_coffey(p, tol=args.tol)
        out["coffey"] = v_c
    if args.method == "both":
        out["difference"] = abs(v_s - v_c)
        out["value"] = v_s
    else:
        out["value"] = v_s if args.method == "series" else v_c
    _emit_json(out)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed, tol=args.tol)
    ok = all(c.passed for c in results)
    if args.json:
        checks = [{**asdict(c), "passed": c.passed} for c in results]
        _emit_json({"suite": args.suite, "seed": args.seed, "tol": args.tol, "passed": ok, "checks": checks})
    else:
        for c in results:
            status = "PASS" if c.passed else "FAIL"
            print(f"{status}  {c.suite:6s} {c.name:40s} error={c.error:.3e}  tol={c.tol:.1e}")
        print(f"{'OK' if ok else 'FAILED'}: {sum(c.passed for c in results)}/{len(results)} checks passed")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_grid(args) -> int:
    lat = lattice_new(parse_complex(args.w1), parse_complex(args.w2))
    spec = GridSpec(args.re_min, args.re_max, args.im_min, args.im_max, args.nx, args.ny)
    w = csv.writer(sys.stdout)
    w.writerow(["re_a", "im_a", "re_E", "im_E", "abs_E"])
    for a in spec.points():
        row = [_csv_num(a.real), _csv_num(a.imag)]
        try:
            p = WeilParams(lat, a, args.k)
        except PointOnLattice:
            w.writerow(row + ["", "", ""])
            continue
        v = weil_direct(p, tol=args.tol).value
        w.writerow(row + [_csv_num(v.real), _csv_num(v.imag), _csv_num(abs(v))])
    return EXIT_OK


def cmd_em2d(args) -> int:
    if args.phi not in EM2D_FUNCTIONS:
        raise DomainError(f"unknown test function {args.phi!r}; choose from {sorted(EM2D_FUNCTIONS)}")
    f = EM2D_FUNCTIONS[args.phi]
    r = Rect(args.alpha1, args.beta1, args.alpha2, args.beta2)
    br = em_sum_2d(f, r, tol=args.tol)
    out = {"phi": args.phi, "rect": [r.alpha1, r.beta1, r.alpha2, r.beta2], **asdict(br)}
    n_points = len(integer_range(r.alpha1, r.beta1)) * len(integer_range(r.alpha2, r.beta2))
    if n_points <= BRUTE_FORCE_POINT_BUDGET:
        bf = brute_force_sum_2d(f.phi, r)
        out["brute_force"] = bf
        out["difference"] = abs(br.total - bf)
    _emit_json(out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="latzeta", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    pw = sub.add_parser("weil", help="evaluate E_k(a, W)")
    pw.add_argument("--w1", required=True, help='first lattice generator, "a+bi"')
    pw.add_argument("--w2", required=True, help='second lattice generator, "a+bi"')
    pw.add_argument("--a", required=True, help='evaluation point, "a+bi"')
    pw.add_argument("--k", type=int, required=True, help="exponent, integer >= 1")
    pw.add_argument("--method", choices=("direct", "integral", "both"), default="direct")
    pw.add_argument(
        "--eps", type=float, default=None,
        help="band half-width for the integral path (default: the widest band holding one row)",
    )
    pw.add_argument("--tol", type=float, default=1e-8)
    pw.add_argument(
        "--breakdown", action="store_true",
        help="include J1, the strips J2 + J3, row_correction, the band and their basis",
    )
    pw.add_argument("--csv", action="store_true", help="CSV instead of the default JSON")
    pw.set_defaults(func=cmd_weil)

    pl = sub.add_parser("lerch", help="evaluate the Hurwitz-Lerch zeta")
    pl.add_argument("--z", required=True)
    pl.add_argument("--s", required=True)
    pl.add_argument("--a", required=True)
    pl.add_argument("--method", choices=("series", "coffey", "both"), default="series")
    pl.add_argument("--tol", type=float, default=1e-8)
    pl.set_defaults(func=cmd_lerch)

    pv = sub.add_parser("verify", help="run self-verification suites")
    pv.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    pv.add_argument("--seed", type=int, default=42)
    pv.add_argument("--tol", type=float, default=1e-8)
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_verify)

    pg = sub.add_parser("grid", help="sample E_k over a grid of a-values (CSV)")
    pg.add_argument("--w1", required=True)
    pg.add_argument("--w2", required=True)
    pg.add_argument("--k", type=int, required=True)
    pg.add_argument("--re-min", type=float, required=True, dest="re_min")
    pg.add_argument("--re-max", type=float, required=True, dest="re_max")
    pg.add_argument("--im-min", type=float, required=True, dest="im_min")
    pg.add_argument("--im-max", type=float, required=True, dest="im_max")
    pg.add_argument("--nx", type=int, required=True)
    pg.add_argument("--ny", type=int, required=True)
    pg.add_argument("--tol", type=float, default=1e-8)
    pg.set_defaults(func=cmd_grid)

    pe = sub.add_parser("em2d", help="run the 2-D summation identity on a test function")
    pe.add_argument("--phi", required=True, help="test function: " + ", ".join(EM2D_FUNCTIONS))
    pe.add_argument("--alpha1", type=float, required=True)
    pe.add_argument("--beta1", type=float, required=True)
    pe.add_argument("--alpha2", type=float, required=True)
    pe.add_argument("--beta2", type=float, required=True)
    pe.add_argument("--tol", type=float, default=1e-9)
    pe.set_defaults(func=cmd_em2d)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        _emit_json({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        _emit_json({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_CONVERGENCE
    except ValueError as exc:
        _emit_json({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
