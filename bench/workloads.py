"""Seeded input generator for the benchmark workloads.

Nothing here imports qcorr, so the program under test
receives nothing but the inputs generated from the seed.

The default seed reproduces the published inputs: the six figure scans
exactly as ``qcorr figures`` runs them, and audit grid seed 42 as
``qcorr verify`` does.  Any other seed keeps each scan's variable, range,
steps and series and draws its fixed couplings, field and temperature
within SCAN_SPREAD of the published values, so that the eigensolver's
work per pass, which depends on the couplings, stays close to that of the
published scans: the benchmark compares runs made with different seeds.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

import numpy as np

DEFAULT_SEED = 0

THERMAL_PRESETS = ("fig1_top", "fig1_bottom", "fig2", "fig3")
DEPHASING_PRESETS = ("fig4_top", "fig4_bottom")

# Grid points per audit pass, as `qcorr verify` runs it by default.
AUDIT_COUNT = 1000
DEFAULT_AUDIT_SEED = 42

# Ranges of the audit grid, reused for single-point calls.
COUPLING_RANGE = (-3.0, 3.0)
TEMPERATURE_RANGE = (0.1, 5.0)
GAMMA_RANGE = (0.0, 1.0)
# Relative spread of a drawn scan's fixed values around the published ones.
SCAN_SPREAD = 0.2

_T_SERIES = tuple((f"T={v:g}", v) for v in (0.5, 1.0, 1.5, 2.0))
_B_SERIES = tuple((f"B={v:g}", v) for v in (0.5, 1.0, 1.5, 2.0))
_STEPS = 301
_BASE = dict(jx=-1.0, jy=-1.5, jz=2.0, dz=0.0, gz=0.3, b=1.5, t=1.0)

# The published scans: (variable, start, stop, series parameter, series,
# overrides of the base couplings).
PUBLISHED = {
    "fig1_top": ("dz", -6.0, 6.0, "t", _T_SERIES, {}),
    "fig1_bottom": ("dz", -6.0, 6.0, "t", _T_SERIES, {"jz": -2.0}),
    "fig2": ("b", 0.0, 5.0, "t", _T_SERIES, {"dz": 1.8, "b": 0.0}),
    "fig3": ("dz", -6.0, 6.0, "b", _B_SERIES, {"jz": -2.0, "t": 1.5, "b": 0.5}),
    "fig4_top": ("gamma", 0.0, 1.0, "t", _T_SERIES, {"dz": 1.8}),
    "fig4_bottom": ("gamma", 0.0, 1.0, "b", _B_SERIES, {"dz": 1.8, "t": 1.5}),
}


def _rng(seed: int, stream: str) -> random.Random:
    # String seeds hash with SHA-512, so streams are stable across runs and
    # Python versions and independent of one another.
    return random.Random(f"{seed}:{stream}")


def sweep_specs(names: tuple[str, ...], seed: int) -> list[dict]:
    """Keyword arguments for ``qcorr.app.SweepSpec``, one dict per scan."""
    specs = []
    for name in names:
        variable, start, stop, series_param, series, overrides = PUBLISHED[name]
        fixed = {**_BASE, **overrides}
        if seed != DEFAULT_SEED:
            rng = _rng(seed, name)
            fixed = {k: v * rng.uniform(1 - SCAN_SPREAD, 1 + SCAN_SPREAD) for k, v in fixed.items()}
        specs.append(
            dict(
                variable=variable,
                start=start,
                stop=stop,
                steps=_STEPS,
                fixed=fixed,
                series_param=series_param,
                series=series,
            )
        )
    return specs


def sweep_points(spec: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Grid of a scan in the program's row order: series-major, variable
    ascending.

    Returns (variable values, parameter rows (jx, jy, jz, dz, gz, b, t),
    gammas with NaN for a thermal scan, series labels).
    """
    grid = np.linspace(spec["start"], spec["stop"], spec["steps"])
    names = ("jx", "jy", "jz", "dz", "gz", "b", "t")
    xs, rows, gammas, labels = [], [], [], []
    for label, value in spec["series"]:
        base = {**spec["fixed"], spec["series_param"]: value}
        for x in grid:
            point = dict(base)
            if spec["variable"] == "gamma":
                gammas.append(x)
            else:
                point[spec["variable"]] = x
                gammas.append(np.nan)
            xs.append(x)
            rows.append([point[k] for k in names])
            labels.append(label)
    return np.array(xs), np.array(rows), np.array(gammas), labels


def audit_seed(seed: int) -> int:
    """Seed of the audit grid."""
    if seed == DEFAULT_SEED:
        return DEFAULT_AUDIT_SEED
    return _rng(seed, "audit").randrange(2**31)


def compute_points(seed: int) -> Iterator[tuple[list[str], list[float], float]]:
    """Endless stream of ``qcorr compute`` calls.

    Yields (argv, params, gamma) with params in the order
    (jx, jy, jz, dz, gz, b, t) and gamma NaN when the call has no
    ``--gamma``.  Flags use the ``--flag=value`` form: argparse rejects a
    separate negative value written in exponent form.
    """
    rng = _rng(seed, "compute")
    names = ("jx", "jy", "jz", "dz", "gz", "b")
    while True:
        params = [rng.uniform(*COUPLING_RANGE) for _ in names]
        params.append(rng.uniform(*TEMPERATURE_RANGE))
        argv = ["compute"] + [
            f"--{k}={v!r}" for k, v in zip(names + ("t",), params)
        ]
        gamma = float("nan")
        if rng.random() < 0.5:
            gamma = rng.uniform(*GAMMA_RANGE)
            argv.append(f"--gamma={gamma!r}")
        yield argv, params, gamma
