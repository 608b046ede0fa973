"""Sweep driver, presets, serialization, audit report and CLI tests."""

from __future__ import annotations

import json

import numpy as np
import pytest

from qcorr.app import (
    FIGURE_PRESETS,
    SweepRow,
    SweepSpec,
    emit_csv,
    emit_json,
    figure_preset,
    frozen_lqfi_windows,
    run_sweep,
)
from qcorr.audit import FORMULA_IDS, AuditGrid, DiscrepancyReport, audit_formulas
from qcorr.cli import cli_main
from qcorr.engine import canonical_state
from qcorr.model import ModelParams
from qcorr.numkernel import NotPSDError

FIXED = ModelParams(jx=-1.0, jy=-1.5, jz=2.0, dz=1.8, gz=0.3, b=0.0, t=1.0)

GOLDEN_MINI_CSV = """\
variable,series,negativity,lqu,lqfi
0,t=0.5,0.499999715197,0.999000961088,0.99999897174
0.5,t=0.5,0.499999309622,0.99866084096,0.999997828663
1,t=0.5,0.499996141202,0.997312563589,0.999989509826
0,t=1,0.499240354899,0.955079372319,0.997754035826
0.5,t=1,0.498967291032,0.950588676638,0.997079203902
1,t=1,0.497864684614,0.936062829362,0.99440187639
"""


def mini_spec(**overrides):
    kw = dict(
        variable="b",
        start=0.0,
        stop=1.0,
        steps=3,
        fixed=FIXED,
        series_param="t",
        series=(("t=0.5", 0.5), ("t=1", 1.0)),
    )
    kw.update(overrides)
    return SweepSpec(**kw)


# ---------------------------------------------------------------------------
# sweep specification


def test_spec_rejects_bad_variable():
    with pytest.raises(ValueError):
        mini_spec(variable="jz")


def test_spec_rejects_bad_range():
    with pytest.raises(ValueError):
        mini_spec(start=1.0, stop=0.0)
    with pytest.raises(ValueError):
        mini_spec(start=0.0, stop=float("inf"))


def test_spec_rejects_bad_steps():
    with pytest.raises(ValueError):
        mini_spec(steps=1)
    with pytest.raises(ValueError):
        mini_spec(steps=3.0)


def test_spec_rejects_bad_series():
    with pytest.raises(ValueError):
        mini_spec(series=())
    with pytest.raises(ValueError):
        mini_spec(series=(("t=0", 0.0),))  # temperature must stay positive
    with pytest.raises(ValueError):
        mini_spec(series_param="q")
    with pytest.raises(ValueError):
        mini_spec(variable="b", series_param="b", series=(("B=1", 1.0),))


def test_spec_rejects_repeated_series_labels():
    # Two different values that print the same label would merge into one
    # series wherever rows are grouped by label (frozen_lqfi_windows).
    with pytest.raises(ValueError, match="'t=1'"):
        mini_spec(series=(("t=1", 1.0000001), ("t=1", 1.0000002)))


def test_spec_rejects_bad_domains():
    with pytest.raises(ValueError):
        mini_spec(variable="t", start=0.0, stop=1.0)
    with pytest.raises(ValueError):
        mini_spec(variable="gamma", start=-0.5, stop=0.5)
    with pytest.raises(ValueError):
        mini_spec(convention="double")


# ---------------------------------------------------------------------------
# running sweeps


def test_run_sweep_order_and_shape():
    rows = run_sweep(mini_spec())
    assert len(rows) == 6
    assert [r.series for r in rows] == ["t=0.5"] * 3 + ["t=1"] * 3
    assert [r.variable for r in rows[:3]] == [0.0, 0.5, 1.0]
    assert [r.variable for r in rows[3:]] == [0.0, 0.5, 1.0]


def test_run_sweep_golden_csv():
    assert emit_csv(run_sweep(mini_spec())) == GOLDEN_MINI_CSV


def test_run_sweep_dz_symmetry():
    spec = mini_spec(variable="dz", start=-2.0, stop=2.0, steps=5)
    rows = run_sweep(spec)
    for series in ("t=0.5", "t=1"):
        pts = {r.variable: r for r in rows if r.series == series}
        for x in (1.0, 2.0):
            assert pts[x].negativity == pytest.approx(pts[-x].negativity, abs=1e-10)
            assert pts[x].lqu == pytest.approx(pts[-x].lqu, abs=1e-10)
            assert pts[x].lqfi == pytest.approx(pts[-x].lqfi, abs=1e-10)


def test_run_sweep_gamma_decay():
    spec = mini_spec(variable="gamma", start=0.0, stop=1.0, steps=11)
    rows = run_sweep(spec)
    for series in ("t=0.5", "t=1"):
        negs = [r.negativity for r in rows if r.series == series]
        for later, earlier in zip(negs[1:], negs[:-1]):
            assert later <= earlier + 1e-10


def test_run_sweep_error_context(monkeypatch):
    def boom(state, gamma=None, convention="halved"):
        raise ValueError("synthetic failure")

    monkeypatch.setattr("qcorr.app.state_triple", boom)
    with pytest.raises(ValueError, match=r"series='t=0.5', b=0.0"):
        run_sweep(mini_spec())


class TwoArgumentError(ArithmeticError):
    """An exception whose constructor does not take a single message."""

    def __init__(self, code, detail):
        super().__init__(code, detail)
        self.code = code
        self.detail = detail


def test_run_sweep_error_keeps_the_exception(monkeypatch):
    def boom(state, gamma=None, convention="halved"):
        raise TwoArgumentError(7, "bad block")

    monkeypatch.setattr("qcorr.app.state_triple", boom)
    with pytest.raises(TwoArgumentError) as info:
        run_sweep(mini_spec())
    exc = info.value
    assert type(exc) is TwoArgumentError
    assert (exc.code, exc.detail, exc.args) == (7, "bad block", (7, "bad block"))
    assert exc.__notes__ == ["[series='t=0.5', b=0.0]"]


# -1e308 + 0*inf: the grid's first value is nan, which the point check rejects.
OVERFLOWING_DZ = ["sweep", "--var", "dz", "--from", "-1e308", "--to", "1e308", "--steps", "3"]


def test_run_sweep_overflowing_grid_names_the_point():
    spec = mini_spec(variable="dz", start=-1e308, stop=1e308, series=(("t=1", 1.0),))
    with pytest.raises(ValueError) as info:
        run_sweep(spec)
    assert info.value.args == ("dz must be finite, got nan",)
    assert info.value.__notes__ == ["[series='t=1', dz=nan]"]


def test_run_sweep_gamma_state_failure_names_the_first_point(monkeypatch):
    def boom(*couplings):
        raise TwoArgumentError(3, "bad state")

    monkeypatch.setattr("qcorr.app.canonical_state", boom)
    with pytest.raises(TwoArgumentError) as info:
        run_sweep(mini_spec(variable="gamma", start=0.25, stop=1.0, steps=4))
    assert info.value.args == (3, "bad state")
    assert info.value.__notes__ == ["[series='t=0.5', gamma=0.25]"]


def test_run_sweep_builds_one_state_per_gamma_series(monkeypatch):
    calls = []

    def counted(*couplings):
        calls.append(couplings)
        return canonical_state(*couplings)

    monkeypatch.setattr("qcorr.app.canonical_state", counted)
    rows = run_sweep(mini_spec(variable="gamma", start=0.0, stop=1.0, steps=11))
    assert len(rows) == 22
    assert calls == [(-1.0, -1.5, 2.0, 1.8, 0.3, 0.0, 0.5), (-1.0, -1.5, 2.0, 1.8, 0.3, 0.0, 1.0)]


# ---------------------------------------------------------------------------
# figure presets


def test_presets_all_construct():
    for name in FIGURE_PRESETS:
        spec = figure_preset(name)
        assert spec.steps == 301
        assert len(spec.series) == 4


def test_preset_fig2_layout():
    spec = figure_preset("fig2")
    assert spec.variable == "b"
    assert (spec.start, spec.stop) == (0.0, 5.0)
    assert spec.fixed.dz == 1.8 and spec.fixed.jz == 2.0
    assert spec.series_param == "t"
    assert spec.series[0] == ("T=0.5", 0.5)


def test_preset_fig3_layout():
    spec = figure_preset("fig3")
    assert spec.variable == "dz"
    assert spec.fixed.jz == -2.0 and spec.fixed.t == 1.5
    assert spec.series_param == "b"
    assert [lbl for lbl, _ in spec.series] == ["B=0.5", "B=1", "B=1.5", "B=2"]


def test_preset_fig1_jz_sign_pair():
    top = figure_preset("fig1_top")
    bottom = figure_preset("fig1_bottom")
    assert top.fixed.jz == 2.0
    assert bottom.fixed.jz == -2.0
    assert top.variable == bottom.variable == "dz"
    assert (top.start, top.stop) == (-6.0, 6.0)


def test_preset_fig4_layout():
    top = figure_preset("fig4_top")
    assert top.variable == "gamma"
    assert (top.start, top.stop) == (0.0, 1.0)
    assert top.fixed.dz == 1.8
    bottom = figure_preset("fig4_bottom")
    assert bottom.series_param == "b" and bottom.fixed.t == 1.5


def test_preset_unknown_name():
    with pytest.raises(ValueError):
        figure_preset("fig5")


# ---------------------------------------------------------------------------
# serialization


def test_emit_csv_shape():
    rows = [SweepRow(variable=0.25, series="T=1", negativity=0.1, lqu=0.2, lqfi=0.3)]
    text = emit_csv(rows)
    lines = text.split("\n")
    assert lines[0] == "variable,series,negativity,lqu,lqfi"
    assert lines[1] == "0.25,T=1,0.1,0.2,0.3"
    assert text.endswith("\n") and "\r" not in text


def test_emit_csv_round_trip_precision():
    rows = run_sweep(mini_spec())
    body = emit_csv(rows).strip().split("\n")[1:]
    for line, row in zip(body, rows):
        var, series, neg, lqu_s, lqfi_s = line.split(",")
        assert series == row.series
        assert float(var) == pytest.approx(row.variable, rel=1e-11)
        assert float(neg) == pytest.approx(row.negativity, rel=1e-11)
        assert float(lqu_s) == pytest.approx(row.lqu, rel=1e-11)
        assert float(lqfi_s) == pytest.approx(row.lqfi, rel=1e-11)


def test_emit_csv_rejects_empty():
    with pytest.raises(ValueError):
        emit_csv([])


def test_emit_json_round_trip():
    report = audit_formulas(AuditGrid(count=100, seed=42))
    parsed = json.loads(emit_json(report))
    assert [d["formula_id"] for d in parsed] == list(FORMULA_IDS)
    for d in parsed:
        assert list(d.keys()) == [
            "formula_id",
            "grid_size",
            "max_abs_dev",
            "mean_abs_dev",
            "verdict",
        ]


def test_emit_json_rejects_empty():
    report = DiscrepancyReport(grid=AuditGrid(), records=[])
    with pytest.raises(ValueError):
        emit_json(report)


# ---------------------------------------------------------------------------
# frozen-lqfi diagnostic


def synth_rows(xs, lqfis, negs, series="s"):
    return [
        SweepRow(variable=float(x), series=series, negativity=float(n), lqu=0.0, lqfi=float(q))
        for x, q, n in zip(xs, lqfis, negs)
    ]


def test_frozen_window_found_when_lqfi_flat():
    xs = np.linspace(0.0, 10.0, 21)
    rows = synth_rows(xs, np.full(21, 0.9), np.linspace(1.0, 0.1, 21))
    windows = frozen_lqfi_windows(rows)
    assert windows["s"] == (0.0, 10.0)


def test_frozen_window_absent_when_both_decay():
    xs = np.linspace(0.0, 10.0, 21)
    decay = np.linspace(1.0, 0.1, 21)
    rows = synth_rows(xs, decay, decay)
    assert frozen_lqfi_windows(rows)["s"] is None


def test_frozen_window_local_plateau():
    xs = np.linspace(0.0, 10.0, 41)
    lqfi = np.where(xs <= 5.0, 0.95, 0.95 * np.exp(-(xs - 5.0)))
    negs = np.linspace(1.0, 0.05, 41)
    window = frozen_lqfi_windows(synth_rows(xs, lqfi, negs))["s"]
    assert window is not None
    lo, hi = window
    assert lo == 0.0
    assert 4.5 <= hi <= 6.0


def test_frozen_window_per_series():
    xs = np.linspace(0.0, 1.0, 11)
    rows = synth_rows(xs, np.full(11, 0.8), np.linspace(1.0, 0.2, 11), series="a")
    rows += synth_rows(xs, np.linspace(1.0, 0.2, 11), np.linspace(1.0, 0.2, 11), series="b")
    windows = frozen_lqfi_windows(rows)
    assert set(windows) == {"a", "b"}
    assert windows["a"] == (0.0, 1.0)
    assert windows["b"] is None


# ---------------------------------------------------------------------------
# formula audit


def test_audit_is_deterministic():
    rep1 = audit_formulas(AuditGrid(count=100, seed=42))
    rep2 = audit_formulas(AuditGrid(count=100, seed=42))
    assert rep1.to_dicts() == rep2.to_dicts()


def test_audit_covers_every_formula_once():
    report = audit_formulas(AuditGrid(count=100, seed=42))
    assert [r.formula_id for r in report.records] == list(FORMULA_IDS)


def test_audit_expected_verdict_partition():
    report = audit_formulas(AuditGrid(count=100, seed=42))
    assert report.inconsistent_ids() == [
        "Eq8_rho14",
        "Eq10_rho23",
        "Eq17_abs_rho23",
        "Eq18_eta12",
        "Eq19_eta34",
        "Eq20_xi",
        "Eq23_e12",
        "Eq57_kraus_completeness",
        "Eq59_diagonal_scaling",
        "Eq60_eta12_DC",
        "Eq69_e12_DC",
        "Eq71_e34_DC",
        "Fig1_caption_jz_sign",
    ]


def test_audit_caption_conflict_record():
    report = audit_formulas(AuditGrid(count=100, seed=42))
    rec = report.record("Fig1_caption_jz_sign")
    assert rec.grid_size == 1
    assert rec.max_abs_dev == 4.0
    assert rec.verdict == "inconsistent"


def test_audit_report_lookup():
    report = audit_formulas(AuditGrid(count=100, seed=42))
    assert report.record("Eq5_partition_Z").verdict == "consistent"
    with pytest.raises(KeyError):
        report.record("Eq99")


def test_audit_grid_validation():
    with pytest.raises(ValueError):
        AuditGrid(count=50)
    with pytest.raises(ValueError):
        AuditGrid(coupling_range=(3.0, -3.0))
    with pytest.raises(ValueError):
        AuditGrid(temperature_range=(0.0, 5.0))
    with pytest.raises(ValueError):
        AuditGrid(gamma_range=(0.0, 1.5))


# ---------------------------------------------------------------------------
# command line


def test_cli_compute_output(capsys):
    rc = cli_main(
        ["compute", "--jx", "-1", "--jy", "-1.5", "--jz", "2", "--dz", "1.8",
         "--gz", "0.3", "--b", "1.5", "--t", "0.5"]
    )
    assert rc == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "negativity = 0.499974194616"
    assert out[1] == "lqu = 0.993635023602"
    assert out[2] == "lqfi = 0.999935411899"


def test_cli_compute_requires_temperature():
    assert cli_main(["compute", "--jx", "1"]) == 1


def test_cli_rejects_unknown_flag():
    assert cli_main(["compute", "--t", "1", "--qq", "3"]) == 1


def test_cli_rejects_bad_parameter_value(capsys):
    assert cli_main(["compute", "--t", "-1"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "prefix,flag,value,rc",
    [
        (["compute", "--t", "1"], "--jx", "-1e-05", 0),
        (["compute", "--t", "1"], "--jy", "-2E+0", 0),
        (["compute", "--t", "1"], "--jz", "-1.5e0", 0),
        (["compute", "--t", "1"], "--dz", "-1e-05", 0),
        (["compute", "--t", "1"], "--gz", "-3e-1", 0),
        (["compute", "--t", "1"], "--b", "-.5e1", 0),
        (["compute", "--t", "1"], "--gamma", "-1e-1", 1),
        (["compute", "--jz", "2"], "--t", "-1e0", 1),
        (["sweep", "--var", "dz", "--to", "1e-3", "--steps", "2"], "--from", "-1e-3", 0),
        (["sweep", "--var", "b", "--from", "-2e0", "--steps", "2"], "--to", "-1e-1", 0),
        (["compute", "--t", "1"], "--d", "-1e-05", 0),
        (["compute", "--t", "1", "--gamma", "0.5"], "--j", "-1e0", 1),
    ],
)
def test_cli_negative_exponent_value_matches_equals_form(capsys, prefix, flag, value, rc):
    """A separate negative value in exponent form parses like --flag=value.

    Failures then come from the parameter checks (t > 0, gamma in [0, 1])
    or from an ambiguous abbreviation, never from argparse taking the value
    for an option.
    """
    assert cli_main(prefix + [flag, value]) == rc
    split = capsys.readouterr()
    assert cli_main(prefix + [f"{flag}={value}"]) == rc
    joined = capsys.readouterr()
    assert (split.out, split.err) == (joined.out, joined.err)
    assert "expected one argument" not in split.err


def test_cli_numerical_failures_exit_2(monkeypatch, capsys):
    def boom(p, gamma=None, convention="halved"):
        raise NotPSDError("synthetic")

    monkeypatch.setattr("qcorr.cli.canonical_triple", boom)
    assert cli_main(["compute", "--t", "1"]) == 2
    assert "numerical error" in capsys.readouterr().err


def test_cli_sweep_failure_names_the_point(monkeypatch, capsys):
    def boom(state, gamma=None, convention="halved"):
        raise NotPSDError("synthetic")

    monkeypatch.setattr("qcorr.app.state_triple", boom)
    argv = ["sweep", "--var", "b", "--from", "0", "--to", "1", "--steps", "2"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == "numerical error: synthetic [series='t=1', b=0.0]\n"


def test_cli_sweep_overflowing_grid_names_the_point(capsys):
    assert cli_main(OVERFLOWING_DZ) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dz must be finite, got nan [series='t=1', dz=nan]\n"


def test_cli_sweep_stdout(capsys):
    rc = cli_main(
        ["sweep", "--var", "b", "--from", "0", "--to", "1", "--steps", "3",
         "--jx", "-1", "--jy", "-1.5", "--jz", "2", "--dz", "1.8", "--gz", "0.3",
         "--series", "t=0.5,1"]
    )
    assert rc == 0
    assert capsys.readouterr().out == GOLDEN_MINI_CSV


def test_cli_sweep_default_series_single_temperature(capsys):
    rc = cli_main(["sweep", "--var", "b", "--from", "0", "--to", "1", "--steps", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "t=1"


def test_cli_sweep_out_file(tmp_path, capsys):
    out = tmp_path / "mini.csv"
    rc = cli_main(
        ["sweep", "--var", "b", "--from", "0", "--to", "1", "--steps", "3",
         "--jx", "-1", "--jy", "-1.5", "--jz", "2", "--dz", "1.8", "--gz", "0.3",
         "--series", "t=0.5,1", "--out", str(out)]
    )
    assert rc == 0
    assert out.read_text(encoding="utf-8") == GOLDEN_MINI_CSV
    assert f"wrote {out}" in capsys.readouterr().out


def test_cli_sweep_rejects_malformed_series(capsys):
    rc = cli_main(["sweep", "--var", "b", "--from", "0", "--to", "1", "--series", "t:1,2"])
    assert rc == 1


def test_cli_sweep_rejects_repeated_series_labels(capsys):
    argv = ["sweep", "--var", "dz", "--from", "-1", "--to", "1", "--steps", "3",
            "--series", "t=1.0000001,1.0000002"]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'t=1'" in captured.err


def test_cli_figures_single_preset(tmp_path, capsys):
    rc = cli_main(["figures", "--which", "fig4_top", "--outdir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "fig4_top.csv").exists()
    out = capsys.readouterr().out
    assert "wrote" in out
    # The diagnostic line appears once per series; at these presets no
    # window qualifies, and saying so is the correct output.
    assert out.count("no frozen-lqfi window") == 4


def test_cli_figures_rejects_unknown_preset():
    assert cli_main(["figures", "--which", "fig9", "--outdir", "/tmp/x"]) == 1


def test_cli_verify_exits_zero_despite_flags(tmp_path, capsys):
    report_path = tmp_path / "audit.json"
    rc = cli_main(["verify", "--count", "100", "--seed", "42", "--report", str(report_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "inconsistent" in out and "consistent" in out
    parsed = json.loads(report_path.read_text(encoding="utf-8"))
    assert len(parsed) == len(FORMULA_IDS)


def test_cli_requires_subcommand():
    assert cli_main([]) == 1
