"""Sweep driver, figure presets, audit serialization and diagnostics.

A sweep evaluates the three quantifiers (negativity, LQU, LQFI) along one
variable (dz, b, t or gamma) for a family of parameter series, always
through the oracle pipeline.  Row order is deterministic: series-major in
the order given, variable ascending inside each series.

The six figure presets reproduce the published parameter scans: quantifier
versus dz for several temperatures at jz = +-2, versus field for several
temperatures, versus dz for several fields, and versus the dephasing
strength gamma for several temperatures or fields.  Series values beyond
what the captions state default to T in {0.5, 1, 1.5, 2} and B in
{0.5, 1, 1.5, 2}.  The caption for the ferromagnetic dz-scan panel says
jz = +2 but the surrounding analysis treats jz = -2 as the ferromagnetic
case; the preset follows the analysis and the audit report logs the
conflict.

CSV output is pinned to the columns variable,series,negativity,lqu,lqfi
with 12 significant digits and LF endings, so downstream golden files can
be compared byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .audit import DiscrepancyReport
from .model import ModelParams
from .quantifiers import CONVENTIONS, correlations

__all__ = [
    "SweepSpec",
    "SweepRow",
    "run_sweep",
    "figure_preset",
    "FIGURE_PRESETS",
    "SWEEP_VARIABLES",
    "emit_csv",
    "emit_json",
    "frozen_lqfi_windows",
]

SWEEP_VARIABLES = ("dz", "b", "t", "gamma")
FIGURE_PRESETS = (
    "fig1_top",
    "fig1_bottom",
    "fig2",
    "fig3",
    "fig4_top",
    "fig4_bottom",
)

_PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(ModelParams))


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a variable range, fixed parameters, and a series family.

    series_param names the ModelParams field the series overrides (for a
    family of temperatures it is "t"); each series entry is a (label,
    value) pair.  The sweep variable itself must not collide with the
    series parameter.
    """

    variable: str
    start: float
    stop: float
    steps: int
    fixed: ModelParams
    series_param: str
    series: tuple[tuple[str, float], ...]
    convention: str = "halved"

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(
                f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}"
            )
        start, stop = float(self.start), float(self.stop)
        if not (math.isfinite(start) and math.isfinite(stop) and start < stop):
            raise ValueError(f"need finite start < stop, got {start!r}, {stop!r}")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "stop", stop)
        if not isinstance(self.steps, int) or self.steps < 2:
            raise ValueError(f"steps must be an integer >= 2, got {self.steps!r}")
        if self.series_param not in _PARAM_FIELDS:
            raise ValueError(
                f"series_param must be a model parameter, got {self.series_param!r}"
            )
        if self.series_param == self.variable:
            raise ValueError("series_param must differ from the sweep variable")
        series = tuple((str(lbl), float(val)) for lbl, val in self.series)
        if not series:
            raise ValueError("series must be nonempty")
        for lbl, val in series:
            if not math.isfinite(val):
                raise ValueError(f"series value for {lbl!r} must be finite")
            if self.series_param == "t" and val <= 0.0:
                raise ValueError(f"series temperature must be > 0, got {val}")
        object.__setattr__(self, "series", series)
        if self.convention not in CONVENTIONS:
            raise ValueError(
                f"convention must be one of {CONVENTIONS}, got {self.convention!r}"
            )
        if self.variable == "t" and start <= 0.0:
            raise ValueError("temperature sweeps need start > 0")
        if self.variable == "gamma" and (start < 0.0 or stop > 1.0):
            raise ValueError("gamma sweeps must stay within [0, 1]")


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: the variable value, its series label, the triple."""

    variable: float
    series: str
    negativity: float
    lqu: float
    lqfi: float


def _sweep_point(spec: SweepSpec, label: str, base: ModelParams, x: float) -> SweepRow:
    try:
        if spec.variable == "gamma":
            triple = correlations(base, gamma=x, convention=spec.convention)
        else:
            point = dataclasses.replace(base, **{spec.variable: x})
            triple = correlations(point, convention=spec.convention)
    except Exception as exc:
        raise type(exc)(
            f"{exc} [series={label!r}, {spec.variable}={x!r}]"
        ) from exc
    return SweepRow(
        variable=x,
        series=label,
        negativity=triple.negativity,
        lqu=triple.lqu,
        lqfi=triple.lqfi,
    )


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the sweep; series-major, variable ascending, deterministic.

    Every point goes through the oracle pipeline (thermal state by
    eigendecomposition, then the channel if the variable is gamma).  A
    failing point aborts the sweep with the offending series label and
    variable value attached to the propagated error.
    """
    values = [float(x) for x in np.linspace(spec.start, spec.stop, spec.steps)]
    bases = [
        (label, dataclasses.replace(spec.fixed, **{spec.series_param: override}))
        for label, override in spec.series
    ]
    return [_sweep_point(spec, label, base, x) for label, base in bases for x in values]


_T_SERIES = tuple((f"T={v:g}", v) for v in (0.5, 1.0, 1.5, 2.0))
_B_SERIES = tuple((f"B={v:g}", v) for v in (0.5, 1.0, 1.5, 2.0))
_PRESET_STEPS = 301


def figure_preset(which: str) -> SweepSpec:
    """SweepSpec for one of the six published parameter scans."""
    base = dict(jx=-1.0, jy=-1.5, jz=2.0, dz=0.0, gz=0.3, b=1.5, t=1.0)
    if which == "fig1_top":
        fixed = ModelParams(**base)
        return SweepSpec("dz", -6.0, 6.0, _PRESET_STEPS, fixed, "t", _T_SERIES)
    if which == "fig1_bottom":
        fixed = ModelParams(**{**base, "jz": -2.0})
        return SweepSpec("dz", -6.0, 6.0, _PRESET_STEPS, fixed, "t", _T_SERIES)
    if which == "fig2":
        fixed = ModelParams(**{**base, "dz": 1.8, "b": 0.0})
        return SweepSpec("b", 0.0, 5.0, _PRESET_STEPS, fixed, "t", _T_SERIES)
    if which == "fig3":
        fixed = ModelParams(**{**base, "jz": -2.0, "t": 1.5, "b": 0.5})
        return SweepSpec("dz", -6.0, 6.0, _PRESET_STEPS, fixed, "b", _B_SERIES)
    if which == "fig4_top":
        fixed = ModelParams(**{**base, "dz": 1.8})
        return SweepSpec("gamma", 0.0, 1.0, _PRESET_STEPS, fixed, "t", _T_SERIES)
    if which == "fig4_bottom":
        fixed = ModelParams(**{**base, "dz": 1.8, "t": 1.5})
        return SweepSpec("gamma", 0.0, 1.0, _PRESET_STEPS, fixed, "b", _B_SERIES)
    raise ValueError(f"unknown preset {which!r}; choose from {FIGURE_PRESETS}")


def emit_csv(rows: list[SweepRow]) -> str:
    """Render rows as CSV: variable,series,negativity,lqu,lqfi at 12 digits."""
    if not rows:
        raise ValueError("no rows to emit")
    lines = ["variable,series,negativity,lqu,lqfi"]
    for row in rows:
        lines.append(
            f"{row.variable:.12g},{row.series},"
            f"{row.negativity:.12g},{row.lqu:.12g},{row.lqfi:.12g}"
        )
    return "\n".join(lines) + "\n"


def emit_json(report: DiscrepancyReport) -> str:
    """Render the audit report as a flat JSON array with stable key order."""
    if not report.records:
        raise ValueError("no records to emit")
    return json.dumps(report.to_dicts(), indent=2) + "\n"


def frozen_lqfi_windows(
    rows: list[SweepRow],
    freeze_frac: float = 0.05,
    active_frac: float = 0.20,
) -> dict[str, tuple[float, float] | None]:
    """Per series: the widest variable window where LQFI is frozen.

    Frozen means the LQFI relative span (max - min over the window, divided
    by the largest magnitude in it) stays at or below freeze_frac while the
    negativity relative span exceeds active_frac.  Returns None for a
    series with no such window.  Informational: it flags regions where
    entanglement decays but the Fisher-information side barely moves.
    """
    labels: list[str] = []
    for row in rows:
        if row.series not in labels:
            labels.append(row.series)
    out: dict[str, tuple[float, float] | None] = {}
    for label in labels:
        pts = [r for r in rows if r.series == label]
        pts.sort(key=lambda r: r.variable)
        best: tuple[float, float] | None = None
        best_width = 0.0
        n = len(pts)
        for i in range(n):
            lq_lo = lq_hi = pts[i].lqfi
            ng_lo = ng_hi = pts[i].negativity
            for j in range(i + 1, n):
                lq_lo = min(lq_lo, pts[j].lqfi)
                lq_hi = max(lq_hi, pts[j].lqfi)
                ng_lo = min(ng_lo, pts[j].negativity)
                ng_hi = max(ng_hi, pts[j].negativity)
                if ng_hi <= 0.0 or (ng_hi - ng_lo) / ng_hi <= active_frac:
                    continue
                lq_ref = max(abs(lq_lo), abs(lq_hi))
                if lq_ref > 0.0 and (lq_hi - lq_lo) / lq_ref > freeze_frac:
                    continue
                width = pts[j].variable - pts[i].variable
                if width > best_width:
                    best_width = width
                    best = (pts[i].variable, pts[j].variable)
        out[label] = best
    return out
