"""Tests of the benchmark itself: generator, reference check and tracer.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import reference
import run
import spans
import workloads

qcorr = run.import_qcorr()
from qcorr.app import SweepRow, figure_preset, frozen_lqfi_windows  # noqa: E402
from qcorr.audit import AuditGrid, audit_formulas  # noqa: E402
from qcorr.model import ModelParams  # noqa: E402
from qcorr.quantifiers import correlations  # noqa: E402

ALL_PRESETS = workloads.THERMAL_PRESETS + workloads.DEPHASING_PRESETS


def _spec(args):
    return qcorr.app.SweepSpec(**{**args, "fixed": ModelParams(**args["fixed"])})


def _first_calls(seed, n=50):
    return list(itertools.islice(workloads.compute_points(seed), n))


def _first_argvs(seed, n=50):
    return [argv for argv, _, _ in _first_calls(seed, n)]


def test_generator_is_deterministic_per_seed():
    for seed in (0, 1, 12345):
        assert workloads.sweep_specs(ALL_PRESETS, seed) == workloads.sweep_specs(
            ALL_PRESETS, seed
        )
        assert workloads.audit_seed(seed) == workloads.audit_seed(seed)
        assert _first_argvs(seed) == _first_argvs(seed)
    assert workloads.sweep_specs(ALL_PRESETS, 1) != workloads.sweep_specs(ALL_PRESETS, 2)
    assert _first_argvs(1) != _first_argvs(2)
    assert workloads.audit_seed(1) != workloads.audit_seed(2)


def test_default_seed_equals_published_inputs():
    specs = workloads.sweep_specs(ALL_PRESETS, workloads.DEFAULT_SEED)
    for name, args in zip(ALL_PRESETS, specs):
        assert _spec(args) == figure_preset(name), name
    assert workloads.audit_seed(workloads.DEFAULT_SEED) == 42


def test_other_seeds_keep_the_work_per_pass():
    for seed in (1, 2, 3):
        for name, args in zip(ALL_PRESETS, workloads.sweep_specs(ALL_PRESETS, seed)):
            drawn, published = _spec(args), figure_preset(name)
            same = ("variable", "start", "stop", "steps", "series_param", "series")
            for field in same:
                assert getattr(drawn, field) == getattr(published, field), (name, field)
            assert drawn.fixed != published.fixed


def test_compute_argv_uses_flag_equals_value():
    for argv, params, gamma in _first_calls(3, 20):
        assert argv[0] == "compute"
        assert all(a.startswith("--") and "=" in a for a in argv[1:])
        assert [float(a.split("=")[1]) for a in argv[1:8]] == params
        assert (len(argv) == 9) == (not math.isnan(gamma))


def test_reference_matches_program_and_rejects_a_perturbed_triple():
    rng = np.random.default_rng(5)
    params = np.column_stack([rng.uniform(-3, 3, (20, 6)), rng.uniform(0.1, 5, 20)])
    gammas = np.where(np.arange(20) % 2 == 0, np.nan, rng.uniform(0, 1, 20))
    got = []
    for row, gamma in zip(params, gammas):
        triple = correlations(
            ModelParams(*row), gamma=None if math.isnan(gamma) else float(gamma)
        )
        got.append((triple.negativity, triple.lqu, triple.lqfi))
    got = np.array(got)
    ref = reference.reference_triples(params, gammas)

    dev = reference.Deviations()
    assert not dev.check(got, ref).any()
    for k, q in enumerate(reference.QUANTIFIERS):
        perturbed = got.copy()
        perturbed[3, k] += 2.0 * reference.TOLERANCES[q]
        miss = reference.Deviations().check(perturbed, ref)
        assert list(np.flatnonzero(miss)) == [3], q
    nan_row = got.copy()
    nan_row[7, 0] = np.nan
    assert list(np.flatnonzero(reference.Deviations().check(nan_row, ref))) == [7]


def test_reference_rejects_a_wrong_audit_verdict():
    records = audit_formulas(AuditGrid(count=1000, seed=42)).to_dicts()
    assert reference.audit_verdict_errors(records) == []
    for fid in ("Eq10_rho23", "Eq3_spectrum"):
        wrong = [
            {**r, "verdict": "consistent" if r["verdict"] == "inconsistent" else "inconsistent"}
            if r["formula_id"] == fid
            else r
            for r in records
        ]
        errors = reference.audit_verdict_errors(wrong)
        assert len(errors) == 1 and fid in errors[0]


def test_compute_check_rejects_bad_output():
    calls = _first_calls(4, 3)
    outputs = []
    for argv, _, _ in calls:
        code, text, _ = run._call_cli(qcorr.cli, argv)
        outputs.append((code, text))
    params = [c[1] for c in calls]
    gammas = [c[2] for c in calls]
    checks = run.Checks()
    assert run.check_compute(checks, outputs, params, gammas) == 0
    bad = [outputs[0], (1, ""), (0, outputs[2][1].replace("lqu = 0", "lqu = 1"))]
    checks = run.Checks()
    assert run.check_compute(checks, bad, params, gammas) >= 1
    assert checks.failed >= 1


def test_window_reference_agrees_with_the_program():
    x = np.linspace(0.0, 1.0, 41)
    rows = [
        SweepRow(float(v), "a", negativity=0.4 * (1.0 - v), lqu=0.1, lqfi=0.5 + 0.1 * (v > 0.6))
        for v in x
    ]
    rows += [
        SweepRow(float(v), "b", negativity=0.3, lqu=0.1, lqfi=0.5 + v) for v in x
    ]
    expected = frozen_lqfi_windows(rows)
    assert expected["a"] is not None and expected["b"] is None
    assert run._windows_reference(rows) == expected


def test_tracer_counts_calls_and_self_time():
    from qcorr import numkernel, quantifiers

    original = numkernel.hermitian_eig
    tracer = spans.Tracer()
    totals = spans.Totals()
    tracer.install()
    try:
        assert quantifiers.hermitian_eig is not original
        p = ModelParams(-1.0, -1.5, 2.0, 1.8, 0.3, 1.5, 0.5)
        # Through the module, as the program's callers look it up.
        quantifiers.correlations(p, gamma=0.3)
        quantifiers.correlations(p)
    finally:
        tracer.uninstall()
    tracer.collect(totals)
    assert numkernel.hermitian_eig is original
    assert quantifiers.hermitian_eig is original
    assert tracer.absent == []
    assert totals.calls_of("quantifiers.correlations") == 2
    assert totals.calls_of("numkernel.hermitian_eig") == 8
    assert totals.calls_of("decoherence.apply_dephasing") == 1
    assert totals.distinct["model.thermal_state_oracle"] == 1
    for k in range(len(spans.NAMES)):
        assert 0 <= totals.self_ns[k] <= totals.total_ns[k]
    top = spans.NAMES.index("quantifiers.correlations")
    inner = sum(
        totals.total_ns[spans.NAMES.index(n)]
        for n in ("quantifiers.negativity", "quantifiers.lqu", "quantifiers.lqfi")
    )
    assert totals.total_ns[top] >= inner


def test_tracer_reports_a_missing_function_as_absent(monkeypatch):
    from qcorr import numkernel

    monkeypatch.delattr(numkernel, "psd_sqrt")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["numkernel.psd_sqrt"]


@pytest.mark.parametrize("seed", [0, 9])
def test_drawn_scans_pass_the_reference(seed):
    args = workloads.sweep_specs(("fig4_bottom",), seed)[0]
    rows = qcorr.app.run_sweep(_spec(args))
    xs, params, gammas, labels = workloads.sweep_points(args)
    got = np.array([(r.negativity, r.lqu, r.lqfi) for r in rows])
    assert np.array_equal([r.variable for r in rows], xs)
    assert [r.series for r in rows] == labels
    assert not reference.Deviations().check(got, reference.reference_triples(params, gammas)).any()

