#!/usr/bin/env python3
"""Benchmark of the latzeta library: one workload, one seed, one run.

    python3 perfbench/run.py --workload weil-integral --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
One caller in one process cycles through the workload's seeded case list
(a closed loop) in whole rounds until ``--seconds`` have passed.  Every
result is checked against a reference computed apart from latzeta
(``oracles.py``) before the loop starts.  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are reported in reference seconds: measured seconds scaled by a
speed reference timed between calls (``speed.py``), so that the shared
machine's changes of speed cancel out.

``--trace 0`` reports the end-to-end metrics (see README.md).  ``--trace 1``
runs each case twice in a row, untraced and then with spans around every
layer (``spans.py``), reports the per-layer metrics per round plus the
tracing overhead, and writes the first round's spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

#: fresh interpreters timed per run for setup_s; the median is reported
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "calls_per_s": "calls/s",
    "call_s_p50": "s",
    "slowest_case_s": "s",
    "peak_rss_mb": "MB",
}


def _pin_environment():
    """One thread in all (BLAS pools included), and the library defaults.

    Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("LATZETA_PANEL_BUDGET", None)


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "latzeta", "__init__.py")):
        sys.exit(f"latzeta sources not found under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import latzeta

    if not os.path.abspath(latzeta.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported latzeta from {latzeta.__file__}, not from {SRC}")


def _setup_times(workload: str, seed: int, meter) -> list[float]:
    """Wall times of fresh interpreters that import latzeta, build the
    workload and return its first (cheapest) result.  ``meter`` samples
    before and after each one, so time ``j`` lies between samples ``j`` and
    ``j + 1``."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        meter.sample()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    meter.sample()
    return times


class Outcome:
    """Outcome of running the case list in whole rounds."""

    def __init__(self, n_cases: int):
        self.times = [[] for _ in range(n_cases)]
        # index of the speed sample taken last before each untraced call
        self.marks = [[] for _ in range(n_cases)]
        self.traced_times = [[] for _ in range(n_cases)]
        self.failures = [0] * n_cases
        self.first_error = [None] * n_cases
        self.rounds = 0

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.times + self.traced_times)


def run_rounds(case_list, refs, seconds: float, meter, tracer=None) -> Outcome:
    """Run every case in order, round after round, until ``seconds`` have
    passed at the end of a round.  ``meter`` times the speed reference
    between calls, and once more at the end, so every untraced call lies
    between the sample its mark names and the next one.

    With a tracer each case runs twice in a row, untraced and then traced,
    so the tracing overhead is measured on the same calls at the same
    moment."""
    from oracles import within

    out = Outcome(len(case_list))
    values = [None] * len(case_list)

    def attempt(i, times):
        case, ref = case_list[i], refs[i]
        t0 = time.perf_counter()
        try:
            value = case.call()
        # the loop must go on whatever the library raises; the failure is
        # counted and its first occurrence reported
        except Exception as exc:  # noqa: BLE001
            value, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        times.append(time.perf_counter() - t0)
        values[i] = value
        if value is not None:
            if not within(value, ref, case.tol):
                error = f"|value - ref| = {abs(value - ref):.3g} misses tol {case.tol:g}"
            elif case.partner is not None and values[case.partner] is not None:
                if not within(value, case.sign * values[case.partner], 2 * case.tol):
                    error = "parity E_k(-a) = (-1)^k E_k(a) violated"
        if error is not None:
            out.failures[i] += 1
            out.first_error[i] = out.first_error[i] or error

    deadline = time.perf_counter() + seconds
    while True:
        for i in range(len(case_list)):
            meter.maybe_sample()
            out.marks[i].append(len(meter.samples) - 1)
            attempt(i, out.times[i])
            if tracer is not None:
                tracer.request += 1
                with tracer:
                    attempt(i, out.traced_times[i])
        if tracer is not None:
            tracer.end_round()
        out.rounds += 1
        if time.perf_counter() >= deadline:
            meter.sample()
            return out


def _report_cases(case_list, result: Outcome):
    print("per-case median, measured seconds:")
    for i, case in enumerate(case_list):
        times, fails = result.times[i], result.failures[i]
        line = f"  {statistics.median(times):10.6f} s  {case.label}"
        if fails:
            line += f"  FAILED {fails}/{len(times) + len(result.traced_times[i])}: {result.first_error[i]}"
            if case.fault:
                line += f"  [known fault: {case.fault}]"
        print(line)


def _end_to_end(case_list, case_times: list[list[float]], setup_times: list[float]) -> dict:
    """End-to-end metrics from the call times of each case and the set-up
    times, all in one unit of seconds."""
    all_times = [t for times in case_times for t in times]
    return {
        "setup_s": statistics.median(setup_times),
        "calls_per_s": len(all_times) / sum(all_times),
        "call_s_p50": statistics.median(all_times),
        # time to solution: a known-fault case never reaches one
        "slowest_case_s": max(statistics.median(times)
                              for case, times in zip(case_list, case_times) if not case.fault),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    _pin_environment()
    _import_library()
    import cases

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe:
        cases.build(args.workload, args.seed)[0].call()
        return 0

    try:
        import oracles
    except ImportError as exc:
        sys.exit(f"the reference values need mpmath: {exc}")
    import speed

    case_list = cases.build(args.workload, args.seed)
    refs = [getattr(oracles, name)(*ref_args) for name, ref_args in (c.ref for c in case_list)]
    case_list[0].call()  # warm-up: first-call costs are set-up, not steady state
    meter = speed.Meter()

    if args.trace:
        from spans import METRICS, Tracer

        tracer = Tracer()
        result = run_rounds(case_list, refs, args.seconds, meter, tracer)
        values = tracer.per_round(result.rounds)
        for name, unit in METRICS.items():
            if unit == "s/round":
                values[name] *= meter.scale
            elif unit == "points/s":
                values[name] /= meter.scale
        untraced = sum(map(sum, result.times))
        values["trace.overhead_pct"] = 100.0 * (sum(map(sum, result.traced_times)) / untraced - 1.0)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        setup_meter = speed.Meter()
        setup_times = _setup_times(args.workload, args.seed, setup_meter)
        result = run_rounds(case_list, refs, args.seconds, meter)
        wall = _end_to_end(case_list, result.times, setup_times)
        scaled = _end_to_end(
            case_list,
            [list(map(meter.scaled, times, marks)) for times, marks in zip(result.times, result.marks)],
            list(map(setup_meter.scaled, setup_times, range(len(setup_times)))),
        )
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in scaled.items()}

    _report_cases(case_list, result)
    print(f"  speed reference: median {statistics.median(meter.samples):.6f} s over "
          f"{len(meter.samples)} samples, scale {meter.scale:.4f}")
    if not args.trace:
        print("  unscaled wall-time metrics: " + ", ".join(f"{k}={v:.6g}" for k, v in wall.items()))
    # a failure outside the named known faults means a wrong or missing result
    correct = all(case.fault or not fails for case, fails in zip(case_list, result.failures))
    print(json.dumps({"correct": correct, "attempted": result.attempted, "failed": sum(result.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
