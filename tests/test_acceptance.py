"""End-to-end acceptance suite: one test per release criterion.

Each test is self-contained and prints a short summary of the measured
quantities, so `pytest -v tests/test_acceptance.py` reads as a checklist.
Tolerances are pinned here on purpose; loosening one is a release decision,
not a test fix.
"""

from __future__ import annotations

import hashlib
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from qcorr.app import (
    FIGURE_PRESETS,
    SweepSpec,
    emit_csv,
    emit_json,
    figure_preset,
    frozen_lqfi_windows,
    run_sweep,
)
from qcorr.audit import AuditGrid, audit_formulas
from qcorr.decoherence import apply_dephasing, dephased_spectrum_closed
from qcorr.engine import canonical_state, canonical_triple
from qcorr.model import (
    ModelParams,
    build_hamiltonian,
    closed_spectrum,
    derived_scales,
    thermal_state_closed,
    thermal_state_oracle,
)
from qcorr.numkernel import partial_transpose_first
from qcorr.quantifiers import (
    correlations,
    lqfi,
    lqu,
    negativity,
    pt_eigen_closed,
)

# The production closed form and the dense reference route.
ROUTES = (canonical_triple, correlations)

GRID_COUNT = 1000
GRID_SEED = 42

FROZEN_SHA256 = {
    "fig1_top": "73ce43d87b6b7dd1d05745698e82c622785678e719498681f7b308a54c5bf8f2",
    "fig1_bottom": "9ab8c410618ea07eedbcb7e70751d3d214ce0b18144c2a1415fd448fcca8c832",
    "fig2": "b891828d63d94f65e87e7ebac7c2721014df8c78226bd86d0da43be68f18b5db",
    "fig3": "33636f9e0094c363fd9f9c805d0eab892a9955afcecbf67f92b60648d08c19de",
    "fig4_top": "e262d2eecdfceacb1849e837ad21398d7a7443801381741c3c8ea3bae4850c3f",
    "fig4_bottom": "6e1c5af2ecd8d9f27fd4125fe1bd7794c9ebea3762ceeaa02c1347a95c0af7c1",
}

# emit_json of the 1000-point, seed-42 audit report.
FROZEN_AUDIT_SHA256 = "3cbfa1820cd78442a08ff175146bb11a9f90fe5d0872b88e329d63909e289a7f"

GOLDEN_MINI_CSV = """\
variable,series,negativity,lqu,lqfi
0,t=0.5,0.499999715197,0.999000961088,0.99999897174
0.5,t=0.5,0.499999309622,0.99866084096,0.999997828663
1,t=0.5,0.499996141202,0.997312563589,0.999989509826
0,t=1,0.499240354899,0.955079372319,0.997754035826
0.5,t=1,0.498967291032,0.950588676638,0.997079203902
1,t=1,0.497864684614,0.936062829362,0.99440187639
"""


@lru_cache(maxsize=1)
def shared_grid() -> tuple[tuple[ModelParams, float], ...]:
    """1000 seeded parameter draws shared by the grid-based criteria."""
    rng = np.random.default_rng(GRID_SEED)
    points = []
    for _ in range(GRID_COUNT):
        jx, jy, jz, dz, gz, b = rng.uniform(-3.0, 3.0, size=6)
        t = rng.uniform(0.1, 5.0)
        gamma = rng.uniform(0.0, 1.0)
        points.append((ModelParams(jx=jx, jy=jy, jz=jz, dz=dz, gz=gz, b=b, t=t), gamma))
    return tuple(points)


@lru_cache(maxsize=1)
def oracle_states() -> tuple[np.ndarray, ...]:
    return tuple(thermal_state_oracle(p) for p, _ in shared_grid())


def block_pair(matrix: np.ndarray, idx: tuple[int, int]) -> np.ndarray:
    """Ascending eigenvalues of a 2x2 principal block of an X-form matrix."""
    return np.linalg.eigvalsh(matrix[np.ix_(idx, idx)])


def test_criterion_1_thermal_oracle_validity():
    """Every sampled thermal state is unit-trace, Hermitian, PSD, X-shaped."""
    non_x_mask = np.ones((4, 4), dtype=bool)
    for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)):
        non_x_mask[i, j] = False

    start = time.perf_counter()
    worst_trace = worst_herm = worst_non_x = 0.0
    lowest_eig = np.inf
    for p, _ in shared_grid():
        rho = thermal_state_oracle(p)
        worst_trace = max(worst_trace, abs(complex(np.trace(rho)) - 1.0))
        worst_herm = max(worst_herm, float(np.max(np.abs(rho - rho.conj().T))))
        lowest_eig = min(lowest_eig, float(np.linalg.eigvalsh(rho)[0]))
        worst_non_x = max(worst_non_x, float(np.max(np.abs(rho[non_x_mask]))))
    elapsed = time.perf_counter() - start

    assert worst_trace <= 1e-12
    assert worst_herm <= 1e-12
    assert lowest_eig >= -1e-12
    assert worst_non_x <= 1e-14
    assert elapsed < 5.0
    print(
        f"criterion 1: {GRID_COUNT} states in {elapsed:.2f}s "
        f"(trace {worst_trace:.1e}, herm {worst_herm:.1e}, "
        f"min eig {lowest_eig:.1e}, non-X {worst_non_x:.1e})"
    )


def test_criterion_2_consistent_closed_forms_match_oracle():
    """Spectrum, Z, a1/a4/u, PT pair e3,e4 and dephased pair eta3,eta4.

    These closed forms carry no known misprint, so they must track the
    dense route at 1e-10 across the whole grid (Z relatively, the rest
    absolutely; Z spans hundreds of orders of magnitude).
    """
    dev = dict.fromkeys(("spectrum", "z", "pops", "e34", "eta34_dc"), 0.0)
    for (p, gamma), rho in zip(shared_grid(), oracle_states()):
        dense_spec = np.linalg.eigvalsh(build_hamiltonian(p))
        dev["spectrum"] = max(
            dev["spectrum"], float(np.max(np.abs(np.sort(closed_spectrum(p)) - dense_spec)))
        )

        beta = 1.0 / p.t
        z_dense = float(np.sum(np.exp(-beta * dense_spec)))
        dev["z"] = max(dev["z"], abs(derived_scales(p).z - z_dense) / z_dense)

        state = thermal_state_closed(p)
        dev["pops"] = max(
            dev["pops"],
            abs(state.a1 - rho[0, 0].real),
            abs(state.a4 - rho[3, 3].real),
            abs(state.u - abs(rho[0, 3])),
        )

        _, _, e3, e4 = pt_eigen_closed(p)
        pair = block_pair(partial_transpose_first(rho), (1, 2))
        dev["e34"] = max(dev["e34"], abs(e3 - pair[0]), abs(e4 - pair[1]))

        _, _, eta3, eta4 = dephased_spectrum_closed(p, gamma)
        pair = block_pair(apply_dephasing(rho, gamma), (0, 3))
        dev["eta34_dc"] = max(dev["eta34_dc"], abs(eta3 - pair[0]), abs(eta4 - pair[1]))

    for name, worst in dev.items():
        assert worst <= 1e-10, f"{name} deviates by {worst:.3e}"
    print(
        "criterion 2: max deviations "
        + ", ".join(f"{name} {worst:.1e}" for name, worst in dev.items())
    )


def engine_pairs(state, u: float, v: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending {|00>,|11>} and {|01>,|10>} eigenvalue pairs of the engine's
    canonical state with coherences u and v."""
    h = math.hypot(state.delta, u)
    return (
        np.array([state.m_a - h, state.m_a + h]),
        np.array([state.m_b - v, state.m_b + v]),
    )


def test_criterion_3_corrected_closed_forms_match_oracle():
    """The engine's canonical state, its spectra and the dephased spectra.

    ``engine.canonical_state`` is the one corrected closed form: its
    coherences, populations and the block eigenvalues that follow from
    them, with and without dephasing, before and after the partial
    transpose (which swaps the two coherences), all track the oracle.
    """
    dev = dict.fromkeys(("state", "etas", "es", "etas_dc", "es_dc"), 0.0)
    for (p, gamma), rho in zip(shared_grid(), oracle_states()):
        state = canonical_state(p.jx, p.jy, p.jz, p.dz, p.gz, p.b, p.t)
        a1, a4 = rho[0, 0].real, rho[3, 3].real
        dev["state"] = max(
            dev["state"],
            abs(state.d_b - abs(rho[1, 2])),
            abs(state.u0 - abs(rho[0, 3])),
            abs(state.m_b - rho[1, 1].real),
            abs(state.pop_lo - min(a1, a4)),
            abs(state.pop_hi - max(a1, a4)),
        )

        sigma = apply_dephasing(rho, gamma)
        for key, matrix, keep in (("", rho, 1.0), ("_dc", sigma, 1.0 - gamma)):
            u, v = keep * state.u0, keep * state.d_b
            pair_a, pair_b = engine_pairs(state, u, v)
            dev["etas" + key] = max(
                dev["etas" + key],
                float(np.max(np.abs(pair_a - block_pair(matrix, (0, 3))))),
                float(np.max(np.abs(pair_b - block_pair(matrix, (1, 2))))),
            )
            pair_a, pair_b = engine_pairs(state, v, u)
            ptm = partial_transpose_first(matrix)
            dev["es" + key] = max(
                dev["es" + key],
                float(np.max(np.abs(pair_a - block_pair(ptm, (0, 3))))),
                float(np.max(np.abs(pair_b - block_pair(ptm, (1, 2))))),
            )

    for name, worst in dev.items():
        assert worst <= 1e-10, f"{name} deviates by {worst:.3e}"
    print(
        "criterion 3: max deviations "
        + ", ".join(f"{name} {worst:.1e}" for name, worst in dev.items())
    )


def test_criterion_4_audit_flags_known_misprints():
    """The 1000-point audit is deterministic and lands the known verdicts."""
    report = audit_formulas(AuditGrid(count=1000, seed=42))
    rerun = audit_formulas(AuditGrid(count=1000, seed=42))
    assert report.to_dicts() == rerun.to_dicts()
    digest = hashlib.sha256(emit_json(report).encode("utf-8")).hexdigest()
    assert digest == FROZEN_AUDIT_SHA256, f"audit JSON drifted: {digest}"

    flagged = set(report.inconsistent_ids())
    must_flag = {
        "Eq10_rho23",
        "Eq17_abs_rho23",
        "Eq57_kraus_completeness",
        "Eq59_diagonal_scaling",
        "Eq60_eta12_DC",
    }
    assert must_flag <= flagged, f"missing flags: {sorted(must_flag - flagged)}"

    must_pass = {
        "Eq3_spectrum",
        "Eq5_partition_Z",
        "Eq7_rho11",
        "Eq11_rho44",
        "Eq16_abs_rho14",
        "Eq25_e34",
        "Eq62_eta34_DC",
    }
    for formula_id in sorted(must_pass):
        assert report.record(formula_id).verdict == "consistent", formula_id
    print(f"criterion 4: {len(flagged)} inconsistent, {sorted(flagged)}")


def test_criterion_5_quantifier_fixed_points():
    """Known states: mixed -> zeros, Bell -> (0.5, 1, 1), diagonal -> classical."""
    mixed = np.eye(4, dtype=complex) / 4.0
    assert negativity(mixed) <= 1e-12
    assert abs(lqu(mixed).value) <= 1e-12
    assert abs(lqfi(mixed).value) <= 1e-12

    psi = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    bell = np.outer(psi, psi.conj())
    assert negativity(bell) == pytest.approx(0.5, abs=1e-9)
    assert lqu(bell).value == pytest.approx(1.0, abs=1e-9)
    assert lqfi(bell).value == pytest.approx(1.0, abs=1e-9)

    rng = np.random.default_rng(7)
    diagonals = [rng.dirichlet(np.ones(4)) for _ in range(25)]
    diagonals += [np.array([0.5, 0.5, 0.0, 0.0]), np.array([0.25, 0.75, 0.0, 0.0])]
    worst = 0.0
    for pops in diagonals:
        rho = np.diag(pops).astype(complex)
        worst = max(worst, abs(lqu(rho).value), abs(lqfi(rho).value))
    assert worst <= 1e-9
    print(f"criterion 5: fixed points hold, diagonal residue {worst:.1e}")


def test_criterion_6_hierarchy_and_ranges():
    """lqfi >= lqu - 1e-9 everywhere; all values stay inside their ranges."""
    min_margin = np.inf
    for p, gamma in shared_grid():
        trips = [route(p, gamma=g) for route in ROUTES for g in (None, gamma)]
        for trip in trips:
            min_margin = min(min_margin, trip.lqfi - trip.lqu)
            assert 0.0 <= trip.negativity <= 0.5 + 1e-12
            for value in (trip.lqu, trip.lqfi):
                assert -1e-10 <= value <= 1.0 + 1e-12
    assert min_margin >= -1e-9
    print(
        f"criterion 6: min lqfi-lqu margin {min_margin:.2e} over {2 * GRID_COUNT} states, "
        f"{len(ROUTES)} routes"
    )


def test_criterion_7_even_in_dm_and_ksea_couplings():
    """Flipping the sign of dz or of gz leaves all three quantifiers alone."""
    base = dict(jx=-1.0, jy=-1.5, gz=0.3, b=1.5)
    offsets = np.linspace(0.3, 6.0, 20)
    ksea_base = dict(jx=-1.0, jy=-1.5, dz=1.8, b=1.5)
    worst = 0.0
    for route in ROUTES:
        for jz in (2.0, -2.0):
            for t in (0.5, 2.0):
                for x in offsets:
                    for fixed, coupling in ((base, "dz"), (ksea_base, "gz")):
                        plus = route(ModelParams(jz=jz, t=t, **fixed, **{coupling: x}))
                        minus = route(ModelParams(jz=jz, t=t, **fixed, **{coupling: -x}))
                        worst = max(
                            worst,
                            abs(plus.negativity - minus.negativity),
                            abs(plus.lqu - minus.lqu),
                            abs(plus.lqfi - minus.lqfi),
                        )
    assert worst <= 1e-10
    print(f"criterion 7: worst sign-flip asymmetry {worst:.2e}")


def test_criterion_8_strong_dm_saturation():
    """At dz = 25 all three quantifiers sit near their saturation plateaus."""
    p = ModelParams(jx=-1.0, jy=-1.5, jz=-2.0, dz=25.0, gz=0.3, b=1.0, t=1.5)
    for route in ROUTES:
        start = time.perf_counter()
        trip = route(p)
        elapsed = time.perf_counter() - start
        assert trip.negativity >= 0.49
        assert trip.lqu >= 0.95
        assert trip.lqfi >= 0.95
        assert elapsed < 1.0
    print(
        f"criterion 8: negativity {trip.negativity:.6f}, lqu {trip.lqu:.6f}, "
        f"lqfi {trip.lqfi:.6f} in {elapsed * 1e3:.1f}ms"
    )


def test_criterion_9_dephasing_dynamics():
    """Monotone decay in gamma, death at gamma = 1, exact channel composition."""
    windows_summary = []
    for preset in ("fig4_top", "fig4_bottom"):
        spec = figure_preset(preset)
        assert spec.variable == "gamma"
        rows = run_sweep(spec)
        for label, _ in spec.series:
            series_rows = [r for r in rows if r.series == label]
            negs = [r.negativity for r in series_rows]
            for later, earlier in zip(negs[1:], negs[:-1]):
                assert later <= earlier + 1e-10
            final = series_rows[-1]
            assert final.variable == 1.0
            assert final.negativity <= 1e-9
            assert final.lqu <= 1e-9
            assert final.lqfi <= 1e-9
        windows = frozen_lqfi_windows(rows)
        assert set(windows) == {label for label, _ in spec.series}
        windows_summary.append(f"{preset}: {windows}")

    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        jx, jy, jz, dz, gz, b = rng.uniform(-3.0, 3.0, size=6)
        rho = thermal_state_oracle(
            ModelParams(jx=jx, jy=jy, jz=jz, dz=dz, gz=gz, b=b, t=rng.uniform(0.1, 5.0))
        )
        g1, g2 = rng.uniform(0.0, 1.0, size=2)
        twice = apply_dephasing(apply_dephasing(rho, g1), g2)
        once = apply_dephasing(rho, 1.0 - (1.0 - g1) * (1.0 - g2))
        worst = max(worst, float(np.max(np.abs(twice - once))))
    assert worst <= 1e-14
    print(f"criterion 9: composition residue {worst:.1e}; " + "; ".join(windows_summary))


def test_criterion_10_figure_determinism_and_regression():
    """Figure CSVs are byte-stable against frozen hashes, and fast."""
    start = time.perf_counter()
    single = {name: emit_csv(run_sweep(figure_preset(name))) for name in FIGURE_PRESETS}
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0

    for name, text in single.items():
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == FROZEN_SHA256[name], f"{name} drifted: {digest}"

    mini = SweepSpec(
        variable="b",
        start=0.0,
        stop=1.0,
        steps=3,
        fixed=ModelParams(jx=-1.0, jy=-1.5, jz=2.0, dz=1.8, gz=0.3, b=0.0, t=1.0),
        series_param="t",
        series=(("t=0.5", 0.5), ("t=1", 1.0)),
    )
    assert emit_csv(run_sweep(mini)) == GOLDEN_MINI_CSV
    print(f"criterion 10: 6 presets regenerated in {elapsed:.2f}s, hashes stable")
