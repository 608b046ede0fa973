"""qcorr benchmark: four workloads, checked against an independent reference.

Usage, from the repository root:

    python3 bench/run.py --workload thermal_sweep --seed 0 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory; nothing is
installed.  The run prints a human-readable report and, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced run (see ``spans.py``).

Workloads (one process, one thread, QCORR_THREADS unset):

* ``thermal_sweep``: the four thermal scans (fig1_top, fig1_bottom, fig2,
  fig3) through ``run_sweep`` and ``emit_csv``, 4816 distinct points a
  pass.  The oracle chain numkernel -> model -> quantifiers does the work;
  decoherence and the window scan stay idle.
* ``dephasing_sweep``: the two gamma scans driven as ``qcorr figures``
  drives them (``run_sweep`` -> ``emit_csv`` -> ``frozen_lqfi_windows``),
  2408 points a pass from only 8 distinct thermal states.
* ``audit``: one ``audit_formulas`` grid of 1000 points a pass
  (``qcorr verify``): closed forms and the oracle Gibbs state, no
  quantifiers.
* ``point_calls``: closed loop, one caller, in-process
  ``cli_main(["compute", ...])`` at 400 seeded random points a pass, half
  of them dephased; the only workload through the ``cli`` layer and the
  only per-call latency.

A unit of timed work is one series of a scan (301 points), one audit grid,
or one block of 200 calls, and every pass repeats the same units.  Timing metrics keep
each unit's fastest repeat, as ``timeit`` does, because on a shared host
contention from other tenants slows every call by up to 1.7x for tens of
seconds at a time; the fastest repeat is the run's least-disturbed figure,
and the report line still shows the median and quartiles over all units.

* ``points_per_s``: points of the fastest repeats over their summed time.
* ``latency_p50_ms``/``latency_p90_ms``: over the 400 calls of
  ``point_calls``, each at its fastest repeat; on the batch workloads, over
  the distinct units, each at its fastest repeat's time per point.
* ``setup_s``: median wall time of a fresh interpreter running
  ``qcorr compute`` once.
* ``peak_rss_mb``: this process's peak resident memory over the timed
  units; the checks between units work in small chunks.

Every output is checked outside the timed region; a point that raises,
exits non-zero or misses the reference counts as failed.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

WORKLOADS = ("thermal_sweep", "dephasing_sweep", "audit", "point_calls")
SETUP_REPEATS = 5
# point_calls: distinct calls per pass, timed in blocks.
POOL_CALLS = 400
BLOCK_CALLS = 200
# Relative tolerance between a printed CSV value (12 significant digits)
# and the value the program returned, and between grid values.
PRINT_RTOL = 1e-11


def import_qcorr():
    """Import qcorr from this checkout's ``src``, or exit without a result."""
    if not (SRC / "qcorr" / "__init__.py").is_file():
        sys.exit(f"error: no qcorr package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcorr
    import qcorr.app
    import qcorr.audit
    import qcorr.cli
    import qcorr.model

    if SRC not in Path(qcorr.__file__).resolve().parents:
        sys.exit(f"error: imported qcorr from {qcorr.__file__}, not from {SRC}")
    return qcorr


class Unit:
    """One timed piece of work and the check of its output.

    ``run`` returns (output, per-call milliseconds or None); ``key`` names
    the work, so repeats of the same work can be compared.
    """

    def __init__(self, key, points, run, check):
        self.key = key
        self.points = points
        self.run = run
        self.check = check


class Sample(NamedTuple):
    key: str
    points: int
    seconds: float
    call_ms: list[float] | None


class Phase:
    """Timed samples of one phase of a run."""

    def __init__(self) -> None:
        self.samples: list[Sample] = []

    @property
    def points(self) -> int:
        return sum(s.points for s in self.samples)

    def rates(self) -> list[float]:
        return [s.points / s.seconds for s in self.samples]

    def best(self) -> list[Sample]:
        """The fastest sample of each key."""
        best: dict[str, Sample] = {}
        for s in self.samples:
            old = best.get(s.key)
            if old is None or s.seconds / s.points < old.seconds / old.points:
                best[s.key] = s
        return list(best.values())

    def best_rate(self) -> float:
        best = self.best()
        return sum(s.points for s in best) / sum(s.seconds for s in best)

    def best_latencies_ms(self) -> np.ndarray:
        """Each call's fastest repeat, or each unit's time per point."""
        best: dict[str, np.ndarray] = {}
        for s in self.samples:
            if s.call_ms is not None:
                ms = np.asarray(s.call_ms)
            else:
                ms = np.array([1e3 * s.seconds / s.points])
            best[s.key] = np.minimum(best[s.key], ms) if s.key in best else ms
        return np.concatenate(list(best.values()))


class Checks:
    """Failure counts and reference deviations over the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.deviations = reference.Deviations()
        self.errors: list[str] = []

    def fail(self, points: int, message: str) -> None:
        self.failed += points
        if len(self.errors) < 10:
            self.errors.append(message)


# --------------------------------------------------------------- workloads


def _parse_csv(text: str):
    lines = text.split("\n")
    if lines[0] != "variable,series,negativity,lqu,lqfi" or lines[-1] != "":
        raise ValueError("unexpected CSV header or line ending")
    cells = [line.split(",") for line in lines[1:-1]]
    labels = [c[1] for c in cells]
    values = np.array([[float(c[0])] + [float(v) for v in c[2:]] for c in cells])
    return labels, values


def _windows_reference(rows, freeze_frac=0.05, active_frac=0.20):
    """The frozen-LQFI window scan of ``app.frozen_lqfi_windows``, vectorised."""
    out = {}
    for label in dict.fromkeys(r.series for r in rows):
        pts = sorted((r for r in rows if r.series == label), key=lambda r: r.variable)
        x = np.array([r.variable for r in pts])
        lq = np.array([r.lqfi for r in pts])
        ng = np.array([r.negativity for r in pts])
        best, best_width = None, 0.0
        for i in range(len(pts) - 1):
            lq_lo = np.minimum.accumulate(lq[i:])[1:]
            lq_hi = np.maximum.accumulate(lq[i:])[1:]
            ng_lo = np.minimum.accumulate(ng[i:])[1:]
            ng_hi = np.maximum.accumulate(ng[i:])[1:]
            with np.errstate(divide="ignore", invalid="ignore"):
                active = (ng_hi > 0.0) & ((ng_hi - ng_lo) / ng_hi > active_frac)
                lq_ref = np.maximum(np.abs(lq_lo), np.abs(lq_hi))
                moved = (lq_ref > 0.0) & ((lq_hi - lq_lo) / lq_ref > freeze_frac)
            width = x[i + 1 :] - x[i]
            ok = np.flatnonzero(active & ~moved & (width > best_width))
            if ok.size:
                j = ok[np.argmax(width[ok])]
                best_width = float(width[j])
                best = (float(x[i]), float(x[i + 1 + j]))
        out[label] = best
    return out


def _sweep_unit(qcorr, key, spec_args, checks, with_windows):
    app = qcorr.app
    spec = app.SweepSpec(
        **{**spec_args, "fixed": qcorr.model.ModelParams(**spec_args["fixed"])}
    )
    xs, params, gammas, labels = workloads.sweep_points(spec_args)
    n = len(xs)
    ref = []

    def run():
        rows = app.run_sweep(spec)
        text = app.emit_csv(rows)
        windows = app.frozen_lqfi_windows(rows) if with_windows else None
        return (rows, text, windows), None

    def check(out):
        rows, text, windows = out
        if len(rows) != n:
            checks.fail(n, f"{key}: {len(rows)} rows, expected {n}")
            return
        if not ref:
            ref.append(reference.reference_triples(params, gammas))
        got = np.array([(r.negativity, r.lqu, r.lqfi) for r in rows])
        miss = checks.deviations.check(got, ref[0])
        variable = np.array([r.variable for r in rows])
        miss |= ~np.isclose(variable, xs, rtol=PRINT_RTOL, atol=PRINT_RTOL)
        miss |= np.array([r.series for r in rows]) != np.array(labels)
        csv_labels, csv_values = _parse_csv(text)
        if len(csv_labels) != n:
            checks.fail(n, f"{key}: CSV row count differs from the rows")
            return
        printed = np.column_stack([variable, got])
        miss |= ~np.isclose(csv_values, printed, rtol=PRINT_RTOL, atol=1e-15).all(axis=1)
        miss |= np.array(csv_labels) != np.array(labels)
        if with_windows and windows != _windows_reference(rows):
            checks.fail(n, f"{key}: frozen_lqfi_windows gave {windows}")
        elif miss.any():
            checks.fail(int(miss.sum()), f"{key}: {int(miss.sum())} rows miss")

    return Unit(key, n, run, check)


def sweep_units(qcorr, names, seed, checks, with_windows):
    """One unit per series of each scan: run_sweep -> emit_csv
    (-> frozen_lqfi_windows).

    The program evaluates every series independently, so a pass does the
    work of the whole scans, while the shorter units give the
    fastest-repeat estimate more chances.
    """
    units = []
    for name, scan in zip(names, workloads.sweep_specs(names, seed)):
        for label, value in scan["series"]:
            spec_args = {**scan, "series": ((label, value),)}
            units.append(_sweep_unit(qcorr, f"{name}:{label}", spec_args, checks, with_windows))
    return itertools.cycle(units), len(units)


def audit_units(qcorr, seed, checks):
    """One unit per audit grid; the same grid each pass, so passes must agree."""
    grid = qcorr.audit.AuditGrid(count=workloads.AUDIT_COUNT, seed=workloads.audit_seed(seed))
    first = []

    def run():
        return qcorr.audit.audit_formulas(grid), None

    def check(report):
        records = report.to_dicts()
        errors = reference.audit_verdict_errors(records)
        if not first:
            first.append(records)
        elif records != first[0]:
            errors.append("audit report differs between passes")
        if errors:
            checks.fail(grid.count, "; ".join(errors))

    return itertools.repeat(Unit("audit", grid.count, run, check)), 1


def _call_cli(cli, argv):
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        start = time.perf_counter()
        code = cli.cli_main(argv)
        elapsed = time.perf_counter() - start
    finally:
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), elapsed


def _parse_compute(text: str) -> list[float]:
    values = []
    for line, key in zip(text.splitlines(), ("negativity", "lqu", "lqfi")):
        name, _, value = line.partition(" = ")
        if name != key:
            raise ValueError(f"unexpected output line {line!r}")
        values.append(float(value))
    if len(values) != 3:
        raise ValueError(f"expected 3 output lines, got {text!r}")
    return values


def check_compute(checks, outputs, params, gammas) -> int:
    """Check (exit code, stdout) pairs of compute calls; return misses."""
    ref = reference.reference_triples(params, gammas)
    got = np.full((len(outputs), 3), np.nan)
    for k, (code, text) in enumerate(outputs):
        if code != 0:
            continue
        try:
            got[k] = _parse_compute(text)
        except ValueError:
            pass
    miss = checks.deviations.check(got, ref)
    if miss.any():
        checks.fail(int(miss.sum()), f"{int(miss.sum())} compute calls miss")
    return int(miss.sum())


def _point_block(qcorr, key, calls, checks):
    def run():
        results, call_ms = [], []
        for argv, _, _ in calls:
            code, text, elapsed = _call_cli(qcorr.cli, argv)
            call_ms.append(elapsed * 1e3)
            results.append((code, text))
        return results, call_ms

    def check(results):
        check_compute(checks, results, [c[1] for c in calls], [c[2] for c in calls])

    return Unit(key, len(calls), run, check)


def point_units(qcorr, seed, checks):
    """The first POOL_CALLS calls of the seeded stream, in blocks, each pass."""
    calls = list(itertools.islice(workloads.compute_points(seed), POOL_CALLS))
    units = [
        _point_block(qcorr, f"block{k}", calls[i : i + BLOCK_CALLS], checks)
        for k, i in enumerate(range(0, POOL_CALLS, BLOCK_CALLS))
    ]
    return itertools.cycle(units), len(units)


def make_units(qcorr, name, seed, checks):
    """Endless stream of units for a workload, and the units in one pass."""
    if name == "thermal_sweep":
        return sweep_units(qcorr, workloads.THERMAL_PRESETS, seed, checks, False)
    if name == "dephasing_sweep":
        return sweep_units(qcorr, workloads.DEPHASING_PRESETS, seed, checks, True)
    if name == "audit":
        return audit_units(qcorr, seed, checks)
    return point_units(qcorr, seed, checks)


# --------------------------------------------------------------- measuring


def run_unit(unit, checks, phase=None, tracer=None, totals=None):
    """Run one unit, time it, check its output outside the timed region."""
    checks.attempted += unit.points
    start = time.perf_counter()
    try:
        out, call_ms = unit.run()
    except Exception as exc:  # a failing point must not end the benchmark
        elapsed = time.perf_counter() - start
        checks.fail(unit.points, f"{type(exc).__name__}: {exc}")
        out = call_ms = None
    else:
        elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.collect(totals)
    if phase is not None:
        phase.samples.append(Sample(unit.key, unit.points, elapsed, call_ms))
    if out is not None:
        try:
            unit.check(out)
        except (ValueError, IndexError) as exc:
            checks.fail(unit.points, f"{unit.key}: malformed output: {exc}")
    return elapsed


def measure(units, checks, seconds, per_pass=None, tracer=None, totals=None):
    """Run units until ``seconds`` of timed work, in whole passes if given."""
    phase = Phase()
    busy = 0.0
    while True:
        busy += run_unit(next(units), checks, phase, tracer, totals)
        whole = per_pass is None or len(phase.samples) % per_pass == 0
        if busy >= seconds and whole:
            return phase


def measure_setup(seed, checks):
    """Cold start: a fresh interpreter running ``qcorr compute`` once."""
    argv, params, gamma = next(workloads.compute_points(seed))
    env = {k: v for k, v in os.environ.items() if k != "QCORR_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "from qcorr.cli import main; main()", *argv]
    times, outputs = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        outputs.append((proc.returncode, proc.stdout))
    checks.attempted += SETUP_REPEATS
    check_compute(checks, outputs, [params] * SETUP_REPEATS, [gamma] * SETUP_REPEATS)
    return statistics.median(times)


def environment(seed, qcorr_threads):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "QCORR_THREADS": qcorr_threads,
        "seed": seed,
    }


def end_to_end(qcorr, name, seed, seconds, checks):
    setup_s = measure_setup(seed, checks)
    units, _ = make_units(qcorr, name, seed, checks)
    run_unit(next(units), checks)  # warm-up: lazy imports and caches
    phase = measure(units, checks, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rate = phase.best_rate()
    latencies = phase.best_latencies_ms()
    p50, p90 = (float(v) for v in np.percentile(latencies, [50, 90]))
    rates = phase.rates()
    q1, med, q3 = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
    print(f"points_per_s = {rate:.2f} 1/s (fastest repeats; all {len(rates)} units: "
          f"median {med:.2f}, q1 {q1:.2f}, q3 {q3:.2f}; {phase.points} points)")
    print(f"latency_p50_ms = {p50:.4f} ms, latency_p90_ms = {p90:.4f} ms (n={len(latencies)})")
    print(f"setup_s = {setup_s:.4f} s (median of {SETUP_REPEATS} cold starts)")
    print(f"peak_rss_mb = {peak_rss_mb:.2f} MB")
    return {
        "points_per_s": (rate, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(qcorr, name, seed, seconds, checks):
    units, per_pass = make_units(qcorr, name, seed, checks)
    run_unit(next(units), checks)  # warm-up: lazy imports and caches
    plain = measure(units, checks, seconds / 2.0)

    tracer = spans.Tracer()
    totals = spans.Totals()
    tracer.install()
    try:
        traced = measure(units, checks, seconds / 2.0, per_pass, tracer, totals)
    finally:
        tracer.uninstall()
    passes = len(traced.samples) / per_pass
    points = traced.points
    metrics = {}
    for k, fn in enumerate(spans.NAMES):
        calls = totals.calls[k]
        metrics[f"{fn}.calls"] = (calls / passes, "count")
        metrics[f"{fn}.self_us"] = (totals.self_ns[k] / calls / 1e3 if calls else 0.0, "us")
        metrics[f"{fn}.total_us"] = (totals.total_ns[k] / calls / 1e3 if calls else 0.0, "us")
    for fn in ("numkernel.hermitian_eig", "numkernel.embed_pauli_first"):
        metrics[f"{fn}.per_point"] = (totals.calls_of(fn) / points, "count/point")
    oracle = "model.thermal_state_oracle"
    oracle_calls = totals.calls_of(oracle)
    metrics[f"{oracle}.distinct_ratio"] = (
        totals.distinct[oracle] / oracle_calls if oracle_calls else 0.0,
        "ratio",
    )
    plain_rate = plain.best_rate()
    traced_rate = traced.best_rate()
    metrics["trace.overhead_frac"] = (plain_rate / traced_rate - 1.0, "ratio")

    print(f"traced {len(traced.samples)} units ({passes:g} passes, {points} points); "
          f"untraced {plain_rate:.2f} points/s, traced {traced_rate:.2f} points/s")
    if tracer.absent:
        print(f"absent at this commit: {', '.join(tracer.absent)}")
    busiest = sorted(range(len(spans.NAMES)), key=lambda k: -totals.self_ns[k])
    print(f"{'function':<42}{'calls/pass':>12}{'self us':>12}{'total us':>12}{'self %':>8}")
    all_self = sum(totals.self_ns) or 1
    for k in busiest:
        if totals.calls[k]:
            fn = spans.NAMES[k]
            print(f"{fn:<42}{metrics[fn + '.calls'][0]:>12.1f}{metrics[fn + '.self_us'][0]:>12.1f}"
                  f"{metrics[fn + '.total_us'][0]:>12.1f}{100 * totals.self_ns[k] / all_self:>8.1f}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        parser.error("--seconds must be positive")

    # The workloads are defined single-threaded at the program's default.
    qcorr_threads = os.environ.pop("QCORR_THREADS", None)
    qcorr = import_qcorr()
    env = environment(args.seed, qcorr_threads)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment " + json.dumps(env))

    checks = Checks()
    if args.trace:
        metrics = per_layer(qcorr, args.workload, args.seed, args.seconds, checks)
    else:
        metrics = end_to_end(qcorr, args.workload, args.seed, args.seconds, checks)

    failed_frac = checks.failed / checks.attempted
    print(f"failed_frac = {failed_frac:.6g} ({checks.failed} of {checks.attempted} operations)")
    dev = checks.deviations.max_dev
    print("max |program - reference|: " + ", ".join(
        f"{q} {dev[q]:.2e} (tol {reference.TOLERANCES[q]:.0e})" for q in reference.QUANTIFIERS
    ))
    for message in checks.errors:
        print(f"check failed: {message}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
