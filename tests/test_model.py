"""Model tests: Hamiltonian entries, closed-form spectrum, the oracle thermal
state, the engine's canonical state and the published closed forms against
the oracle.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np
import pytest

from qcorr.engine import canonical_state
from qcorr.model import (
    ModelParams,
    build_hamiltonian,
    closed_spectrum,
    derived_scales,
    thermal_state_closed,
    thermal_state_oracle,
    x_eigenvalues,
)
from qcorr.numkernel import hermitian_eig

# Parameter point used throughout: jx=-1, jy=-1.5, jz=2, dz=1.8, gz=0.3, b=1.5.
BASE = ModelParams(jx=-1.0, jy=-1.5, jz=2.0, dz=1.8, gz=0.3, b=1.5, t=0.5)


def draw_params(rng):
    jx, jy, jz, dz, gz, b = (float(x) for x in rng.uniform(-3.0, 3.0, size=6))
    return ModelParams(jx=jx, jy=jy, jz=jz, dz=dz, gz=gz, b=b, t=float(rng.uniform(0.1, 5.0)))


def engine_state(p):
    return canonical_state(p.jx, p.jy, p.jz, p.dz, p.gz, p.b, p.t)


def canonical_matrix(rho):
    """rho with both coherences rotated onto the positive real axis."""
    canon = np.diag(np.diag(rho).real).astype(complex)
    canon[0, 3] = canon[3, 0] = abs(rho[0, 3])
    canon[1, 2] = canon[2, 1] = abs(rho[1, 2])
    return canon


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
    """The engine's canonical state holds the oracle's populations and
    coherence magnitudes."""
    rng = np.random.default_rng(25)
    for _ in range(300):
        p = draw_params(rng)
        state = engine_state(p)
        rho = thermal_state_oracle(p)
        a1, a2, a4 = rho[0, 0].real, rho[1, 1].real, rho[3, 3].real
        np.testing.assert_allclose(
            [state.pop_lo, state.pop_hi, state.m_b, state.u0, state.d_b],
            [min(a1, a4), max(a1, a4), a2, abs(rho[0, 3]), abs(rho[1, 2])],
            rtol=0,
            atol=1e-12,
        )
        assert state.m_a == pytest.approx((a1 + a4) / 2.0, abs=1e-12)


def test_closed_small_gap_continuity():
    """Near r3 = 0 the exact printed elements take the sinh(x)/x series."""
    p = ModelParams(jx=1.0, jy=1.0 - 1e-9, jz=0.8, dz=0.4, gz=0.0, b=0.0, t=0.7)
    state = thermal_state_closed(p)
    rho = thermal_state_oracle(p)
    np.testing.assert_allclose(
        [state.a1, state.a2, state.a4, state.u],
        [rho[0, 0].real, rho[1, 1].real, rho[3, 3].real, abs(rho[0, 3])],
        rtol=0,
        atol=1e-12,
    )


def test_closed_printed_coherence_agrees_without_dm():
    """With dz = 0 the published |01>/|10> coherence reduces to the exact one."""
    rng = np.random.default_rng(26)
    for _ in range(100):
        p = dataclasses.replace(draw_params(rng), dz=0.0)
        rho = thermal_state_oracle(p)
        printed = thermal_state_closed(p)
        assert printed.v == pytest.approx(abs(rho[1, 2]), abs=1e-12)
        assert printed.u == pytest.approx(abs(rho[0, 3]), abs=1e-12)
        assert printed.a1 == pytest.approx(rho[0, 0].real, abs=1e-12)
        assert printed.a4 == pytest.approx(rho[3, 3].real, abs=1e-12)


def test_closed_printed_coherence_cosh_excess():
    """With dz != 0 the published coherence overshoots (cosh under the root).

    The excess scales like cosh - sinh, so it only shows at moderate beta*r2;
    at low temperature the printed and exact values coincide to roundoff.
    """
    hot = dataclasses.replace(BASE, t=5.0)
    printed = thermal_state_closed(hot)
    assert printed.v > abs(thermal_state_oracle(hot)[1, 2]) + 1e-3


def test_closed_printed_phase_conjugated():
    exact = cmath.phase(thermal_state_oracle(BASE)[0, 3])
    assert thermal_state_closed(BASE).phi14 == pytest.approx(-exact, abs=1e-12)


def test_closed_hot_limit():
    hot = dataclasses.replace(BASE, t=1e9)
    printed = thermal_state_closed(hot)
    for pop in (printed.a1, printed.a2, printed.a4):
        assert pop == pytest.approx(0.25, abs=1e-8)
    assert printed.u <= 1e-8
    state = engine_state(hot)
    for pop in (state.pop_lo, state.pop_hi, state.m_b):
        assert pop == pytest.approx(0.25, abs=1e-8)
    assert state.u0 <= 1e-8 and state.d_b <= 1e-8


def test_closed_handles_vanishing_scales():
    p = ModelParams(jx=0.0, jy=0.0, jz=1.5, dz=0.0, gz=0.0, b=0.0, t=1.0)
    state = thermal_state_closed(p)
    assert state.u == 0.0 and state.v == 0.0
    assert state.phi14 == 0.0 and state.phi23 == 0.0
    assert state.a1 + 2.0 * state.a2 + state.a4 == pytest.approx(1.0, abs=1e-15)


def test_canonical_form_even_in_dm_and_ksea_sign():
    rng = np.random.default_rng(28)
    for _ in range(50):
        p = draw_params(rng)
        flipped = dataclasses.replace(p, dz=-p.dz, gz=-p.gz)
        assert engine_state(p) == engine_state(flipped)
        np.testing.assert_allclose(
            canonical_matrix(thermal_state_oracle(p)),
            canonical_matrix(thermal_state_oracle(flipped)),
            rtol=0,
            atol=1e-12,
        )


# ---------------------------------------------------------------------------
# X-state eigenvalues, as printed


def test_x_eigenvalues_printed_variant():
    rho = thermal_state_oracle(BASE)
    lo23, hi23 = np.linalg.eigvalsh(rho[np.ix_((1, 2), (1, 2))])
    lo14, hi14 = np.linalg.eigvalsh(rho[np.ix_((0, 3), (0, 3))])
    eta1, _, eta3, eta4, xi = x_eigenvalues(BASE, derived_scales(BASE))
    # The small block eigenvalue survives verbatim; its partner picked up a
    # sign flip in the exponent, and eta1/eta2 carry the oversized xi.
    assert eta3 == pytest.approx(lo14, abs=1e-12)
    assert abs(eta4 - hi14) > 0.9 * hi14
    assert eta1 < lo23
    assert xi > 0.0
