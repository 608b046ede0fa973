"""Model tests: Hamiltonian entries, closed-form spectrum and thermal state
against the eigendecomposition oracle, and the X-state canonicalization.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from qcorr.model import (
    ModelParams,
    NotXStateError,
    PhaseInfo,
    XState,
    build_hamiltonian,
    closed_spectrum,
    derived_scales,
    remove_phases,
    thermal_state_closed,
    thermal_state_oracle,
    x_eigenvalues,
)
from qcorr.numkernel import NotHermitianError, hermitian_eig

# Parameter point used throughout: jx=-1, jy=-1.5, jz=2, dz=1.8, gz=0.3, b=1.5.
BASE = ModelParams(jx=-1.0, jy=-1.5, jz=2.0, dz=1.8, gz=0.3, b=1.5, t=0.5)


def draw_params(rng):
    jx, jy, jz, dz, gz, b = (float(x) for x in rng.uniform(-3.0, 3.0, size=6))
    return ModelParams(jx=jx, jy=jy, jz=jz, dz=dz, gz=gz, b=b, t=float(rng.uniform(0.1, 5.0)))


def random_xstate(rng):
    pops = rng.uniform(0.05, 1.0, size=4)
    pops /= pops.sum()
    a1, a2, a3, a4 = (float(x) for x in pops)
    u = float(rng.uniform(0.0, 1.0)) * math.sqrt(a1 * a4)
    v = float(rng.uniform(0.0, 1.0)) * math.sqrt(a2 * a3)
    return XState(a1=a1, a2=a2, a3=a3, a4=a4, u=u, v=v)


# ---------------------------------------------------------------------------
# parameter and state containers


@pytest.mark.parametrize("bad_t", [0.0, -1.0, math.nan, math.inf])
def test_params_reject_bad_temperature(bad_t):
    with pytest.raises(ValueError):
        ModelParams(jx=1.0, jy=1.0, jz=1.0, dz=0.0, gz=0.0, b=0.0, t=bad_t)


def test_params_reject_non_finite_coupling():
    with pytest.raises(ValueError):
        ModelParams(jx=math.nan, jy=0.0, jz=0.0, dz=0.0, gz=0.0, b=0.0, t=1.0)
    with pytest.raises(ValueError):
        ModelParams(jx=0.0, jy=0.0, jz=0.0, dz=0.0, gz=0.0, b=math.inf, t=1.0)


def test_params_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        BASE.jz = 0.0


def test_xstate_validation():
    with pytest.raises(ValueError):
        XState(a1=0.5, a2=0.5, a3=0.5, a4=0.5, u=0.0, v=0.0)  # trace 2
    with pytest.raises(ValueError):
        XState(a1=-0.1, a2=0.5, a3=0.3, a4=0.3, u=0.0, v=0.0)
    with pytest.raises(ValueError):
        XState(a1=0.25, a2=0.25, a3=0.25, a4=0.25, u=0.5, v=0.0)  # u^2 > a1*a4
    with pytest.raises(ValueError):
        XState(a1=0.25, a2=0.25, a3=0.25, a4=0.25, u=0.0, v=-0.1)


# ---------------------------------------------------------------------------
# Hamiltonian and spectrum


def test_hamiltonian_entries_base_point():
    h = build_hamiltonian(BASE)
    assert h[0, 0] == 5.0
    assert h[1, 1] == -2.0
    assert h[2, 2] == -2.0
    assert h[3, 3] == -1.0
    assert h[2, 1] == -2.5 + 3.6j
    assert h[1, 2] == -2.5 - 3.6j
    assert h[0, 3] == 0.5 + 0.6j
    assert h[3, 0] == 0.5 - 0.6j
    assert h[0, 1] == 0.0 and h[0, 2] == 0.0 and h[1, 3] == 0.0 and h[2, 3] == 0.0


def test_hamiltonian_exactly_hermitian():
    rng = np.random.default_rng(20)
    for _ in range(50):
        h = build_hamiltonian(draw_params(rng))
        assert np.array_equal(h, h.conj().T)


def test_closed_spectrum_base_point():
    vals = closed_spectrum(BASE)
    m1 = math.sqrt(19.21)  # sqrt(4*1.8^2 + (-2.5)^2)
    assert vals[0] == pytest.approx(-2.0 + m1, abs=1e-12)
    assert vals[1] == pytest.approx(-2.0 - m1, abs=1e-12)
    assert vals[2] == pytest.approx(5.1, abs=1e-12)  # jz + sqrt(9.61)
    assert vals[3] == pytest.approx(-1.1, abs=1e-12)


def test_closed_spectrum_degenerate_pair():
    p = ModelParams(jx=1.1, jy=1.1, jz=0.4, dz=0.0, gz=0.0, b=0.0, t=1.0)
    vals = sorted(closed_spectrum(p))
    np.testing.assert_allclose(vals, [-2.6, 0.4, 0.4, 1.8], rtol=0, atol=1e-14)


def test_closed_spectrum_matches_oracle_grid():
    rng = np.random.default_rng(21)
    for _ in range(300):
        p = draw_params(rng)
        closed = np.sort(closed_spectrum(p))
        oracle = hermitian_eig(build_hamiltonian(p)).values
        np.testing.assert_allclose(closed, oracle, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# derived scales


def test_scales_base_point():
    s = derived_scales(BASE)
    assert s.r1 == pytest.approx(math.sqrt(0.61), abs=1e-15)
    assert s.r2 == pytest.approx(math.sqrt(19.21), abs=1e-15)
    assert s.r3 == pytest.approx(3.1, abs=1e-15)
    assert s.beta == 2.0


def test_partition_function_matches_trace():
    rng = np.random.default_rng(22)
    for _ in range(200):
        p = draw_params(rng)
        s = derived_scales(p)
        w = np.linalg.eigvalsh(build_hamiltonian(p))
        z_ref = float(np.sum(np.exp(-s.beta * w)))
        assert abs(s.z - z_ref) <= 1e-12 * z_ref


def test_scales_vanish_without_anisotropy():
    p = ModelParams(jx=0.7, jy=0.7, jz=-1.3, dz=0.5, gz=0.0, b=0.0, t=1.0)
    s = derived_scales(p)
    assert s.r1 == 0.0
    assert s.r3 == 0.0


def test_r3_squared_identity():
    rng = np.random.default_rng(23)
    for _ in range(200):
        p = draw_params(rng)
        s = derived_scales(p)
        assert s.r3**2 == pytest.approx(4.0 * p.b**2 + s.r1**2, rel=1e-12, abs=1e-13)


# ---------------------------------------------------------------------------
# thermal state, oracle route


def test_oracle_is_valid_x_state_grid():
    rng = np.random.default_rng(24)
    for _ in range(200):
        rho = thermal_state_oracle(draw_params(rng))
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-15
        assert hermitian_eig(rho).values[0] >= -1e-12
        for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
            assert abs(rho[i, j]) <= 1e-14


def test_oracle_hot_limit_is_maximally_mixed():
    p = dataclasses.replace(BASE, t=1e12)
    np.testing.assert_allclose(thermal_state_oracle(p), np.eye(4) / 4, rtol=0, atol=1e-10)


def test_oracle_strong_field_polarizes():
    # The ground state keeps an O((r1/4b)^2) admixture of |00>, so the |11>
    # population saturates quadratically in 1/b rather than exponentially.
    p = dataclasses.replace(BASE, b=50.0)
    rho = thermal_state_oracle(p)
    assert rho[3, 3].real == pytest.approx(1.0, abs=1e-4)
    assert rho[3, 3].real > rho[0, 0].real
    p = dataclasses.replace(BASE, b=5000.0)
    assert thermal_state_oracle(p)[3, 3].real == pytest.approx(1.0, abs=1e-8)


def test_oracle_golden_entries():
    rho = thermal_state_oracle(BASE)
    assert rho[0, 0].real == pytest.approx(4.159287818217131e-07, abs=1e-15)
    assert rho[1, 1].real == pytest.approx(0.4999871093932168, abs=1e-15)
    assert rho[2, 2].real == pytest.approx(0.4999871093932168, abs=1e-15)
    assert rho[3, 3].real == pytest.approx(2.5365284784459996e-05, abs=1e-15)
    assert rho[0, 3] == pytest.approx(
        -2.079113000219857e-06 - 2.4949356002638283e-06j, abs=1e-15
    )
    assert rho[1, 2] == pytest.approx(
        0.28519053812401196 + 0.4106743748985774j, abs=1e-15
    )


# ---------------------------------------------------------------------------
# thermal state, closed forms


def test_closed_corrected_matches_oracle_grid():
    rng = np.random.default_rng(25)
    for _ in range(300):
        p = draw_params(rng)
        state, phases = thermal_state_closed(p)
        rho = state.to_matrix(phases)
        np.testing.assert_allclose(rho, thermal_state_oracle(p), rtol=0, atol=1e-12)


def test_closed_small_gap_continuity():
    p = ModelParams(jx=1.0, jy=1.0 - 1e-9, jz=0.8, dz=0.4, gz=0.0, b=0.0, t=0.7)
    state, phases = thermal_state_closed(p)
    np.testing.assert_allclose(
        state.to_matrix(phases), thermal_state_oracle(p), rtol=0, atol=1e-12
    )


def test_closed_printed_coherence_agrees_without_dm():
    """With dz = 0 the published |01>/|10> coherence reduces to the exact one."""
    rng = np.random.default_rng(26)
    for _ in range(100):
        p = dataclasses.replace(draw_params(rng), dz=0.0)
        exact, _ = thermal_state_closed(p, variant="corrected")
        printed, _ = thermal_state_closed(p, variant="as_printed")
        assert printed.v == pytest.approx(exact.v, abs=1e-14)
        assert printed.u == exact.u
        assert printed.a1 == exact.a1 and printed.a4 == exact.a4


def test_closed_printed_coherence_cosh_excess():
    """With dz != 0 the published coherence overshoots (cosh under the root).

    The excess scales like cosh - sinh, so it only shows at moderate beta*r2;
    at low temperature the two variants coincide to roundoff.
    """
    hot = dataclasses.replace(BASE, t=5.0)
    exact, _ = thermal_state_closed(hot, variant="corrected")
    printed, _ = thermal_state_closed(hot, variant="as_printed")
    assert printed.v > exact.v + 1e-3


def test_closed_printed_phase_conjugated():
    _, exact = thermal_state_closed(BASE, variant="corrected")
    _, printed = thermal_state_closed(BASE, variant="as_printed")
    assert printed.phi14 == pytest.approx(-exact.phi14, abs=1e-15)


def test_closed_hot_limit():
    state, _ = thermal_state_closed(dataclasses.replace(BASE, t=1e9))
    for pop in (state.a1, state.a2, state.a3, state.a4):
        assert pop == pytest.approx(0.25, abs=1e-8)
    assert state.u <= 1e-8 and state.v <= 1e-8


def test_closed_handles_vanishing_scales():
    p = ModelParams(jx=0.0, jy=0.0, jz=1.5, dz=0.0, gz=0.0, b=0.0, t=1.0)
    for variant in ("corrected", "as_printed"):
        state, phases = thermal_state_closed(p, variant=variant)
        assert state.u == 0.0 and state.v == 0.0
        assert phases.phi14 == 0.0 and phases.phi23 == 0.0
        assert state.a1 + state.a2 + state.a3 + state.a4 == pytest.approx(1.0, abs=1e-15)


def test_closed_rejects_unknown_variant():
    with pytest.raises(ValueError):
        thermal_state_closed(BASE, variant="fixed")


# ---------------------------------------------------------------------------
# phase removal


def test_remove_phases_round_trip():
    rng = np.random.default_rng(27)
    for _ in range(100):
        state = random_xstate(rng)
        phases = PhaseInfo(
            phi14=float(rng.uniform(-math.pi, math.pi)),
            phi23=float(rng.uniform(-math.pi, math.pi)),
        )
        rho = state.to_matrix(phases)
        got_state, got_phases = remove_phases(rho)
        np.testing.assert_allclose(got_state.to_matrix(got_phases), rho, rtol=0, atol=1e-15)
        assert got_state.u == pytest.approx(state.u, abs=1e-15)
        assert got_state.v == pytest.approx(state.v, abs=1e-15)


def test_remove_phases_principal_values():
    rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    rho[0, 3] = 0.1j
    rho[3, 0] = -0.1j
    rho[1, 2] = -0.05
    rho[2, 1] = -0.05
    _, phases = remove_phases(rho)
    assert phases.phi14 == math.pi / 2
    assert phases.phi23 == math.pi


def test_remove_phases_rejects_non_x():
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = 1e-6
    rho[1, 0] = 1e-6
    with pytest.raises(NotXStateError):
        remove_phases(rho)


def test_remove_phases_rejects_non_hermitian():
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 3] = 0.1
    with pytest.raises(NotHermitianError):
        remove_phases(rho)


def test_remove_phases_rejects_bad_input():
    with pytest.raises(ValueError):
        remove_phases(np.eye(3, dtype=complex) / 3)
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 0] = math.nan
    with pytest.raises(ValueError):
        remove_phases(bad)


def test_canonical_form_even_in_dm_and_ksea_sign():
    rng = np.random.default_rng(28)
    for _ in range(50):
        p = draw_params(rng)
        flipped = dataclasses.replace(p, dz=-p.dz, gz=-p.gz)
        assert thermal_state_closed(p)[0] == thermal_state_closed(flipped)[0]
        a = remove_phases(thermal_state_oracle(p))[0]
        b = remove_phases(thermal_state_oracle(flipped))[0]
        for field in ("a1", "a2", "a3", "a4", "u", "v"):
            assert getattr(a, field) == pytest.approx(getattr(b, field), abs=1e-12)


# ---------------------------------------------------------------------------
# X-state eigenvalues


def test_x_eigenvalues_maximally_mixed():
    spec = x_eigenvalues(XState(a1=0.25, a2=0.25, a3=0.25, a4=0.25, u=0.0, v=0.0))
    assert np.array_equal(spec.etas(), [0.25, 0.25, 0.25, 0.25])
    assert math.isnan(spec.xi)


def test_x_eigenvalues_bell_states():
    phi = x_eigenvalues(XState(a1=0.5, a2=0.0, a3=0.0, a4=0.5, u=0.5, v=0.0))
    assert np.array_equal(phi.etas(), [0.0, 0.0, 0.0, 1.0])
    psi = x_eigenvalues(XState(a1=0.0, a2=0.5, a3=0.5, a4=0.0, u=0.0, v=0.5))
    assert np.array_equal(psi.etas(), [0.0, 1.0, 0.0, 0.0])


def test_x_eigenvalues_match_dense_solver():
    rng = np.random.default_rng(29)
    for _ in range(200):
        state = random_xstate(rng)
        spec = x_eigenvalues(state)
        dense = hermitian_eig(state.to_matrix()).values
        np.testing.assert_allclose(np.sort(spec.etas()), dense, rtol=0, atol=1e-13)
        assert spec.etas().sum() == pytest.approx(1.0, abs=1e-12)
        assert spec.etas().min() >= -1e-12


def test_x_eigenvalues_printed_variant():
    state, _ = thermal_state_closed(BASE)
    s = derived_scales(BASE)
    exact = x_eigenvalues(state)
    printed = x_eigenvalues(state, scales=s, variant="as_printed", params=BASE)
    # The small block eigenvalue survives verbatim; its partner picked up a
    # sign flip in the exponent, and eta1/eta2 carry the oversized xi.
    assert printed.eta3 == pytest.approx(exact.eta3, abs=1e-12)
    assert abs(printed.eta4 - exact.eta4) > 0.9 * exact.eta4
    assert printed.eta1 < exact.eta1
    assert printed.xi > 0.0


def test_x_eigenvalues_printed_needs_context():
    state, _ = thermal_state_closed(BASE)
    with pytest.raises(ValueError):
        x_eigenvalues(state, variant="as_printed")
    with pytest.raises(ValueError):
        x_eigenvalues(state, scales=derived_scales(BASE), variant="as_printed")
