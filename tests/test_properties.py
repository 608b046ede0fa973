"""Property tests: the closed-form engine over extreme inputs, sweep rows
against the engine at each point, the sweep grid against numpy.linspace,
and the frozen-LQFI window scan against its quadratic definition.
"""

from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qcorr.app import (  # noqa: E402
    FIGURE_PRESETS,
    SWEEP_VARIABLES,
    SweepRow,
    SweepSpec,
    _grid,
    figure_preset,
    frozen_lqfi_windows,
    run_sweep,
)
from qcorr.engine import CONVENTIONS, canonical_triple  # noqa: E402
from qcorr.model import ModelParams  # noqa: E402

couplings = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
temperatures = st.floats(1e-6, 1e6)
gammas = st.one_of(st.none(), st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=1000, deadline=None)
@given(
    jx=couplings, jy=couplings, jz=couplings, dz=couplings, gz=couplings, b=couplings,
    t=temperatures, gamma=gammas,
)
@example(  # Nearly pure: unbounded, LQU rounds to 1 + 2^-52 here.
    jx=-3.479911751679796e97, jy=1.0, jz=2.5665798875280566e78, dz=-1.9378328130984575e-08,
    gz=4.180543993370753e116, b=-1.286571375033178e107, t=0.011724381252620649, gamma=0.0,
)
@example(  # 2*gz overflows; the true triple is about (0.5, 1, 1).
    jx=0.0, jy=0.0, jz=0.0, dz=0.0, gz=1e308, b=0.0, t=1.0, gamma=None,
)
@example(  # jx - jy overflows.
    jx=1e308, jy=-1e308, jz=0.0, dz=0.0, gz=0.0, b=0.0, t=1.0, gamma=None,
)
@example(  # The gap between the blocks' lowest levels overflows: (0.3524, 0.3519, 0.5800).
    jx=1e308, jy=0.0, jz=1.7e308, dz=0.0, gz=0.0, b=0.0, t=1e308, gamma=None,
)
def test_canonical_triple_stays_finite_and_in_range(jx, jy, jz, dz, gz, b, t, gamma):
    trip = canonical_triple(ModelParams(jx=jx, jy=jy, jz=jz, dz=dz, gz=gz, b=b, t=t), gamma)
    assert all(math.isfinite(v) for v in (trip.negativity, trip.lqu, trip.lqfi))
    assert 0.0 <= trip.negativity <= 0.5
    assert 0.0 <= trip.lqu <= 1.0
    assert 0.0 <= trip.lqfi <= 1.0
    assert trip.lqu <= trip.lqfi + 1e-15


def _bits(values):
    """The IEEE bytes of a float sequence: equal bits, NaN signs included."""
    return struct.pack(f"<{len(values)}d", *values)


def _ends(values):
    """Two distinct values of a strategy, ascending."""
    return st.tuples(values, values).filter(lambda e: e[0] != e[1]).map(sorted)


# Sweep ranges and series values per parameter, all inside each domain.
DOMAINS = {
    "dz": st.floats(-1e200, 1e200),
    "b": st.floats(-1e200, 1e200),
    "t": temperatures,
    "gamma": st.floats(0.0, 1.0),
}


@settings(max_examples=300, deadline=None)
@given(
    jx=couplings, jy=couplings, jz=couplings, dz=couplings, gz=couplings, b=couplings,
    t=temperatures, variable=st.sampled_from(SWEEP_VARIABLES),
    convention=st.sampled_from(CONVENTIONS), steps=st.integers(2, 9), data=st.data(),
)
def test_sweep_rows_are_the_engine_at_each_point(
    jx, jy, jz, dz, gz, b, t, variable, convention, steps, data
):
    series_param = "b" if variable == "t" else "t"
    start, stop = data.draw(_ends(DOMAINS[variable]))
    overrides = data.draw(st.lists(DOMAINS[series_param], min_size=1, max_size=2))
    fixed = ModelParams(jx=jx, jy=jy, jz=jz, dz=dz, gz=gz, b=b, t=t)
    series = tuple((f"s{i}", v) for i, v in enumerate(overrides))
    spec = SweepSpec(variable, start, stop, steps, fixed, series_param, series, convention)
    expected = []
    for label, override in series:
        base = dataclasses.replace(fixed, **{series_param: override})
        for x in _grid(start, stop, steps):
            if variable == "gamma":
                trip = canonical_triple(base, gamma=x, convention=convention)
            else:
                trip = canonical_triple(dataclasses.replace(base, **{variable: x}), convention=convention)
            expected.append((label, [x, trip.negativity, trip.lqu, trip.lqfi]))
    rows = run_sweep(spec)
    assert [row.series for row in rows] == [label for label, _ in expected]
    assert _bits([v for row in rows for v in (row.variable, row.negativity, row.lqu, row.lqfi)]) == (
        _bits([v for _, values in expected for v in values])
    )


def _linspace(start, stop, steps):
    with np.errstate(all="ignore"):  # delta overflows to inf for the widest ranges
        return [float(x) for x in np.linspace(start, stop, steps)]


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(ends=st.tuples(finite, finite).filter(lambda e: e[0] != e[1]), steps=st.integers(2, 2000))
@example(ends=(-1.7976931348623157e308, 1.7976931348623157e308), steps=3)
def test_sweep_grid_is_linspace_bit_for_bit(ends, steps):
    start, stop = sorted(ends)
    assert _bits(_grid(start, stop, steps)) == _bits(_linspace(start, stop, steps))


@pytest.mark.parametrize(
    "start, stop, steps", [(0.0, 5e-324, 301), (-5e-324, 5e-324, 7), (1e-320, 1.1e-320, 2000)]
)
def test_sweep_grid_copies_the_denormal_branch(start, stop, steps):
    assert _bits(_grid(start, stop, steps)) == _bits(_linspace(start, stop, steps))


@pytest.mark.parametrize("name", FIGURE_PRESETS)
def test_preset_sweep_rows_use_the_linspace_grid(name):
    spec = figure_preset(name)
    expected = _linspace(spec.start, spec.stop, spec.steps) * len(spec.series)
    assert _bits([row.variable for row in run_sweep(spec)]) == _bits(expected)


def quadratic_windows(rows, freeze_frac=0.05, active_frac=0.20):
    """The O(n^2) definition of frozen_lqfi_windows: every window, widest first found."""
    labels: list[str] = []
    for row in rows:
        if row.series not in labels:
            labels.append(row.series)
    out = {}
    for label in labels:
        pts = [r for r in rows if r.series == label]
        pts.sort(key=lambda r: r.variable)
        best = None
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


values = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(-1.0, 1.0))
rows = st.lists(
    st.builds(
        SweepRow,
        variable=st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(-10.0, 10.0)),
        series=st.sampled_from(["a", "b"]),
        negativity=values,
        lqu=st.just(0.0),
        lqfi=values,
    ),
    max_size=60,
)
fractions = st.one_of(st.sampled_from([0.0, 0.05, 0.2]), st.floats(0.0, 1.0, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(rows=rows, freeze_frac=fractions, active_frac=fractions)
@example(
    # Two ends whose widths tie in floating point: the first one wins.
    rows=[
        SweepRow(0.0, "b", 0.0, 0.0, 0.0),
        SweepRow(5.554447570403781e-306, "b", 0.0, 0.0, 0.0),
        SweepRow(-1.0, "b", 0.5, 0.0, 0.0),
    ],
    freeze_frac=0.0,
    active_frac=0.0,
)
def test_window_scan_matches_quadratic_definition(rows, freeze_frac, active_frac):
    assert frozen_lqfi_windows(rows, freeze_frac, active_frac) == quadratic_windows(
        rows, freeze_frac, active_frac
    )


@settings(max_examples=150, deadline=None)
@given(rows=rows)
def test_window_scan_matches_at_default_fractions(rows):
    assert frozen_lqfi_windows(rows) == quadratic_windows(rows)


@pytest.mark.parametrize("kwargs", [{"freeze_frac": 1.0}, {"active_frac": -0.1}])
def test_window_scan_rejects_fractions_outside_unit_interval(kwargs):
    with pytest.raises(ValueError):
        frozen_lqfi_windows([SweepRow(0.0, "a", 0.1, 0.0, 0.1)], **kwargs)
