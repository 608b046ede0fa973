"""Sweep driver, figure presets, audit serialization and diagnostics.

A sweep evaluates the three quantifiers (negativity, LQU, LQFI) along one
variable (dz, b, t or gamma) for a family of parameter series, through the
closed-form state and quantifier stages of ``engine``.  Row order is
deterministic: series-major in the order given, variable ascending inside
each series.

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
import operator
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .engine import (
    CONVENTIONS,
    ModelParams,
    _check_param,
    canonical_state,
    state_triple,
)

if TYPE_CHECKING:
    from .audit import DiscrepancyReport

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
        labels: set[str] = set()
        for lbl, _ in series:
            if lbl in labels:
                raise ValueError(f"series label {lbl!r} appears more than once")
            labels.add(lbl)
        object.__setattr__(self, "series", series)
        if self.convention not in CONVENTIONS:
            raise ValueError(
                f"convention must be one of {CONVENTIONS}, got {self.convention!r}"
            )
        if self.variable == "t" and start <= 0.0:
            raise ValueError("temperature sweeps need start > 0")
        if self.variable == "gamma" and (start < 0.0 or stop > 1.0):
            raise ValueError("gamma sweeps must stay within [0, 1]")


class SweepRow(NamedTuple):
    """One sweep point: the variable value, its series label, the triple."""

    variable: float
    series: str
    negativity: float
    lqu: float
    lqfi: float


def _grid(start: float, stop: float, steps: int) -> list[float]:
    """``steps`` evenly spaced values from start to stop, both included.

    Bit for bit what ``numpy.linspace`` returns: start + i*step with the
    last value set to stop, and, when the step underflows to zero, start +
    (i/div)*delta instead, as numpy does for denormal ranges.
    """
    div = steps - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:
        values = [start + (i / div) * delta for i in range(div)]
    else:
        values = [start + i * step for i in range(div)]
    values.append(stop)
    return values


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the sweep; series-major, variable ascending, deterministic.

    Every point goes through the two closed-form stages of ``engine``
    (the channel included when the variable is gamma); the dense
    ``correlations`` route is the reference that tests check it against.
    Each series' parameters are validated once.  On a gamma scan the
    thermal state is built once per series and only the quantifier stage
    runs per point; on a dz, b or t scan each point checks its value as
    ``ModelParams`` would and runs both stages.  A failing point aborts the
    sweep: the original exception propagates with a note naming the series
    label and variable value (the first grid value when a gamma scan's
    state fails).
    """
    values = _grid(spec.start, spec.stop, spec.steps)
    var, convention = spec.variable, spec.convention
    bases = [
        (label, dataclasses.replace(spec.fixed, **{spec.series_param: override}))
        for label, override in spec.series
    ]
    rows: list[SweepRow] = []
    for label, base in bases:
        couplings = [getattr(base, name) for name in _PARAM_FIELDS]
        x = values[0]
        try:
            if var == "gamma":
                state = canonical_state(*couplings)
                for x in values:
                    rows.append(SweepRow(x, label, *state_triple(state, x, convention)))
            else:
                slot = _PARAM_FIELDS.index(var)
                for x in values:
                    couplings[slot] = _check_param(var, x)
                    triple = state_triple(canonical_state(*couplings), None, convention)
                    rows.append(SweepRow(x, label, *triple))
        except Exception as exc:
            # A PEP 678 note keeps the exception itself (type, args, attributes).
            # add_note() needs Python 3.11; the attribute works on 3.10 as well.
            note = f"[series={label!r}, {var}={x!r}]"
            exc.__notes__ = [*getattr(exc, "__notes__", ()), note]
            raise
    return rows


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
    series with no such window; among equally wide windows the one that
    starts first wins.  Both fractions must lie in [0, 1).  Informational:
    it flags regions where entanglement decays but the Fisher-information
    side barely moves.
    """
    for name, frac in (("freeze_frac", freeze_frac), ("active_frac", active_frac)):
        if not 0.0 <= frac < 1.0:
            raise ValueError(f"{name} must lie in [0, 1), got {frac!r}")
    series: dict[str, list[SweepRow]] = {}
    for row in rows:
        series.setdefault(row.series, []).append(row)
    return {
        label: _widest_frozen_window(
            sorted(pts, key=lambda r: r.variable), freeze_frac, active_frac
        )
        for label, pts in series.items()
    }


def _spans(lo: float, hi: float, ref: float, frac: float) -> bool:
    """Whether the span hi - lo exceeds frac of a positive reference ref."""
    return ref > 0.0 and (hi - lo) / ref > frac


def _widest_frozen_window(
    pts: list[SweepRow], freeze_frac: float, active_frac: float
) -> tuple[float, float] | None:
    """Two-pointer scan over one series sorted by variable, O(len(pts)).

    With fractions below 1, widening a window can only raise both relative
    spans past their fractions.  So from a given start the frozen ends form
    a prefix, reaching ``end``, and the active ends a suffix: the widest
    window from that start is [start, end] if it is active.  ``end`` never
    moves left as ``start`` grows, and monotone deques of indices keep the
    window's minima and maxima.
    """
    lq = [r.lqfi for r in pts]
    ng = [r.negativity for r in pts]
    lq_min: deque[int] = deque()
    lq_max: deque[int] = deque()
    ng_min: deque[int] = deque()
    ng_max: deque[int] = deque()

    def push(j: int) -> None:
        for dq, vals, keeps in (
            (lq_min, lq, operator.lt),
            (lq_max, lq, operator.gt),
            (ng_min, ng, operator.lt),
            (ng_max, ng, operator.gt),
        ):
            while dq and not keeps(vals[dq[-1]], vals[j]):
                dq.pop()
            dq.append(j)

    best: tuple[int, int] | None = None
    best_width = 0.0
    end = -1
    for start in range(len(pts)):
        for dq in (lq_min, lq_max, ng_min, ng_max):
            if dq and dq[0] < start:
                dq.popleft()
        if end < start:
            end = start
            push(start)
        while end + 1 < len(pts):
            lq_lo = min(lq[lq_min[0]], lq[end + 1])
            lq_hi = max(lq[lq_max[0]], lq[end + 1])
            if _spans(lq_lo, lq_hi, max(abs(lq_lo), abs(lq_hi)), freeze_frac):
                break
            end += 1
            push(end)
        ng_lo, ng_hi = ng[ng_min[0]], ng[ng_max[0]]
        if end == start or not _spans(ng_lo, ng_hi, ng_hi, active_frac):
            continue
        width = pts[end].variable - pts[start].variable
        if width > best_width:
            best_width = width
            best = (start, end)
    if best is None:
        return None
    # The first end from the winning start whose window is active and, in
    # floating point, as wide: a narrower-looking end can tie on width.
    start, end = best
    ng_lo = ng_hi = ng[start]
    for j in range(start + 1, end + 1):
        ng_lo, ng_hi = min(ng_lo, ng[j]), max(ng_hi, ng[j])
        if (
            _spans(ng_lo, ng_hi, ng_hi, active_frac)
            and pts[j].variable - pts[start].variable == best_width
        ):
            break
    return pts[start].variable, pts[j].variable
