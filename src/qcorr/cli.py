"""Command line entry points.

Four subcommands: ``compute`` prints the quantifier triple at one parameter
point, ``sweep`` runs a configurable sweep and emits CSV, ``figures``
writes the six preset scans, and ``verify`` runs the formula audit.  Exit
codes: 0 on success, 1 on validation errors (bad flags or parameter
values), 2 on numerical failures (non-Hermitian or non-PSD inputs,
eigensolver breakdown).  ``verify`` exits 0 even when formulas audit
inconsistent: the report is the product, and only a harness failure is an
error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .app import (
    FIGURE_PRESETS,
    SWEEP_VARIABLES,
    SweepSpec,
    emit_csv,
    emit_json,
    figure_preset,
    frozen_lqfi_windows,
    run_sweep,
)
from .engine import (
    CONVENTIONS,
    ModelParams,
    NotHermitianError,
    NotPSDError,
    canonical_triple,
)

__all__ = ["cli_main", "main"]

# Options that take a float.  argparse reads only -1 or -0.5 style tokens as
# negative numbers; a separate -1e-05 reads as an option, so these flags (or
# an abbreviation of one) are joined to such a value (--dz=-1e-05) before
# parsing.
_FLOAT_FLAGS = (
    "--jx", "--jy", "--jz", "--dz", "--gz", "--b", "--t", "--gamma", "--from", "--to"
)
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _model_flags(parser: argparse.ArgumentParser, t_required: bool) -> None:
    for name, help_text in (
        ("jx", "exchange coupling along x"),
        ("jy", "exchange coupling along y"),
        ("jz", "exchange coupling along z"),
        ("dz", "DM interaction strength"),
        ("gz", "KSEA interaction strength"),
        ("b", "magnetic field"),
    ):
        parser.add_argument(f"--{name}", type=float, default=0.0, help=help_text)
    if t_required:
        parser.add_argument("--t", type=float, required=True, help="temperature (> 0)")
    else:
        parser.add_argument(
            "--t", type=float, default=1.0, help="temperature (> 0, default 1)"
        )


def _join_negative_values(argv: list[str]) -> list[str]:
    """Write each float flag followed by a negative number as --flag=value."""
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        if (
            len(flag) > 2
            and any(name.startswith(flag) for name in _FLOAT_FLAGS)
            and _NEGATIVE_NUMBER.fullmatch(token)
        ):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _describe(exc: Exception) -> str:
    """The message followed by the exception's notes (a sweep's failing point)."""
    return " ".join([str(exc), *getattr(exc, "__notes__", ())])


def _params_from(args: argparse.Namespace) -> ModelParams:
    return ModelParams(
        jx=args.jx, jy=args.jy, jz=args.jz, dz=args.dz, gz=args.gz, b=args.b, t=args.t
    )


def _parse_series(raw: str) -> tuple[str, tuple[tuple[str, float], ...]]:
    """Parse "t=0.5,1,1.5,2" into a series parameter and labelled values."""
    param, sep, tail = raw.partition("=")
    param = param.strip()
    if not sep or not param or not tail.strip():
        raise ValueError(
            f"--series must look like 'param=v1,v2,...', got {raw!r}"
        )
    values = []
    for piece in tail.split(","):
        piece = piece.strip()
        if not piece:
            raise ValueError(f"empty value in --series {raw!r}")
        values.append(float(piece))
    return param, tuple((f"{param}={v:g}", v) for v in values)


def _cmd_compute(args: argparse.Namespace) -> int:
    triple = canonical_triple(
        _params_from(args), gamma=args.gamma, convention=args.convention
    )
    print(f"negativity = {triple.negativity:.12g}")
    print(f"lqu = {triple.lqu:.12g}")
    print(f"lqfi = {triple.lqfi:.12g}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    fixed = _params_from(args)
    if args.series is not None:
        series_param, series = _parse_series(args.series)
    else:
        series_param, series = "t", ((f"t={args.t:g}", args.t),)
    spec = SweepSpec(
        variable=args.var,
        start=args.start,
        stop=args.stop,
        steps=args.steps,
        fixed=fixed,
        series_param=series_param,
        series=series,
        convention=args.convention,
    )
    text = emit_csv(run_sweep(spec))
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    names = FIGURE_PRESETS if args.which == "all" else (args.which,)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in names:
        spec = figure_preset(name)
        rows = run_sweep(spec)
        path = outdir / f"{name}.csv"
        path.write_text(emit_csv(rows), encoding="utf-8")
        print(f"wrote {path}")
        if spec.variable == "gamma":
            for label, window in frozen_lqfi_windows(rows).items():
                if window is not None:
                    print(
                        f"  {label}: lqfi frozen for gamma in "
                        f"[{window[0]:.3g}, {window[1]:.3g}] while negativity decays"
                    )
                else:
                    print(f"  {label}: no frozen-lqfi window")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # The audit needs numpy; importing it here keeps the other commands'
    # start-up free of it.
    try:
        from .audit import AuditGrid, audit_formulas
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print(
            f"error: qcorr verify needs numpy, which cannot be imported ({exc})",
            file=sys.stderr,
        )
        return 1

    report = audit_formulas(AuditGrid(count=args.count, seed=args.seed))
    print(f"{'formula':<24}{'n':>6}{'max dev':>13}{'mean dev':>13}  verdict")
    for rec in report.records:
        print(
            f"{rec.formula_id:<24}{rec.grid_size:>6}"
            f"{rec.max_abs_dev:>13.3e}{rec.mean_abs_dev:>13.3e}  {rec.verdict}"
        )
    if args.report is not None:
        Path(args.report).write_text(emit_json(report), encoding="utf-8")
        print(f"wrote {args.report}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Thermal quantum correlations of a two-qubit XYZ chain "
        "with DM and KSEA couplings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="quantifier triple at one point")
    _model_flags(compute, t_required=True)
    compute.add_argument("--gamma", type=float, default=None, help="dephasing strength")
    compute.add_argument("--convention", choices=CONVENTIONS, default="halved")
    compute.set_defaults(func=_cmd_compute)

    sweep = sub.add_parser("sweep", help="sweep a variable, emit CSV")
    sweep.add_argument("--var", required=True, choices=SWEEP_VARIABLES)
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, default=301)
    sweep.add_argument(
        "--series", default=None, help="series family, e.g. 't=0.5,1,1.5,2'"
    )
    _model_flags(sweep, t_required=False)
    sweep.add_argument("--convention", choices=CONVENTIONS, default="halved")
    sweep.add_argument("--out", default=None, help="CSV path (default stdout)")
    sweep.set_defaults(func=_cmd_sweep)

    figures = sub.add_parser("figures", help="write the preset scans as CSV")
    figures.add_argument(
        "--which", default="all", choices=("all",) + FIGURE_PRESETS
    )
    figures.add_argument("--outdir", required=True)
    figures.set_defaults(func=_cmd_figures)

    verify = sub.add_parser("verify", help="audit published formulas vs oracle")
    verify.add_argument("--count", type=int, default=1000)
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--report", default=None, help="JSON report path")
    verify.set_defaults(func=_cmd_verify)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (NotHermitianError, NotPSDError, ArithmeticError) as exc:
        print(f"numerical error: {_describe(exc)}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))
