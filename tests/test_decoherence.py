"""Dephasing channel tests: Kraus/mask equivalence, exact population
preservation, closed-form dephased spectra against dense cross-checks, and
the published-variant discrepancies the audit quantifies.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from qcorr.decoherence import (
    apply_dephasing,
    dephased_pt_eigen_closed,
    dephased_spectrum_closed,
    dephasing_kraus,
    gamma_from_time,
)
from qcorr.model import (
    ModelParams,
    thermal_state_closed,
    thermal_state_oracle,
    x_eigenvalues,
)
from qcorr.numkernel import hermitian_eig, partial_transpose_first
from qcorr.quantifiers import negativity, pt_eigen_closed

BASE = ModelParams(jx=-1.0, jy=-1.5, jz=2.0, dz=1.8, gz=0.3, b=1.5, t=0.5)


def draw_params(rng):
    jx, jy, jz, dz, gz, b = (float(x) for x in rng.uniform(-3.0, 3.0, size=6))
    return ModelParams(jx=jx, jy=jy, jz=jz, dz=dz, gz=gz, b=b, t=float(rng.uniform(0.1, 5.0)))


# ---------------------------------------------------------------------------
# channel parameterization


def test_gamma_from_time_half_life():
    assert gamma_from_time(1.0, math.log(2.0)) == pytest.approx(0.5, abs=1e-15)


def test_gamma_from_time_endpoints():
    assert gamma_from_time(0.0, 5.0) == 0.0
    assert gamma_from_time(2.0, 0.0) == 0.0
    assert gamma_from_time(1.0, 1e3) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("rate,time", [(-1.0, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.inf)])
def test_gamma_from_time_rejects_bad_input(rate, time):
    with pytest.raises(ValueError):
        gamma_from_time(rate, time)


# ---------------------------------------------------------------------------
# Kraus pair and mask action


def test_kraus_completeness_is_exact():
    for gamma in (0.0, 0.25, 0.5, 0.9, 1.0):
        total = sum(k.conj().T @ k for k in dephasing_kraus(gamma))
        np.testing.assert_allclose(total, np.eye(4), rtol=0, atol=1e-15)


def test_kraus_reproduces_mask_action():
    rng = np.random.default_rng(50)
    for _ in range(50):
        rho = thermal_state_oracle(draw_params(rng))
        gamma = float(rng.uniform(0.0, 1.0))
        kraus = dephasing_kraus(gamma)
        via_kraus = sum(k @ rho @ k.conj().T for k in kraus)
        np.testing.assert_allclose(via_kraus, apply_dephasing(rho, gamma), rtol=0, atol=1e-15)


def test_apply_dephasing_identity_at_zero():
    rho = thermal_state_oracle(BASE)
    assert np.array_equal(apply_dephasing(rho, 0.0), rho)


def test_apply_dephasing_kills_coherence_at_one():
    rho = thermal_state_oracle(BASE)
    out = apply_dephasing(rho, 1.0)
    assert out[0, 3] == 0.0 and out[1, 2] == 0.0
    np.testing.assert_array_equal(np.diag(out), np.diag(rho))


def test_apply_dephasing_preserves_populations_exactly():
    rng = np.random.default_rng(51)
    for _ in range(50):
        rho = thermal_state_oracle(draw_params(rng))
        gamma = float(rng.uniform(0.0, 1.0))
        out = apply_dephasing(rho, gamma)
        assert np.array_equal(np.diag(out), np.diag(rho))
        assert complex(np.trace(out)) == complex(np.trace(rho))
        assert out[0, 3] == rho[0, 3] * (1.0 - gamma)
        assert out[1, 2] == rho[1, 2] * (1.0 - gamma)


def test_apply_dephasing_composes():
    rng = np.random.default_rng(52)
    rho = thermal_state_oracle(BASE)
    for _ in range(20):
        g1, g2 = (float(x) for x in rng.uniform(0.0, 1.0, size=2))
        twice = apply_dephasing(apply_dephasing(rho, g1), g2)
        combined = apply_dephasing(rho, 1.0 - (1.0 - g1) * (1.0 - g2))
        np.testing.assert_allclose(twice, combined, rtol=0, atol=1e-15)


def test_apply_dephasing_rejects_bad_input():
    rho = thermal_state_oracle(BASE)
    with pytest.raises(ValueError):
        apply_dephasing(rho, 1.01)
    with pytest.raises(ValueError):
        apply_dephasing(rho, math.nan)
    with pytest.raises(ValueError):
        apply_dephasing(np.eye(3, dtype=complex) / 3, 0.5)
    bad = rho.copy()
    bad[0, 0] = math.inf
    with pytest.raises(ValueError):
        apply_dephasing(bad, 0.5)


# ---------------------------------------------------------------------------
# closed-form dephased spectrum


def test_dephased_spectrum_matches_dense_grid():
    rng = np.random.default_rng(53)
    for _ in range(200):
        p = draw_params(rng)
        gamma = float(rng.uniform(0.0, 1.0))
        spec = dephased_spectrum_closed(p, gamma)
        dense = hermitian_eig(apply_dephasing(thermal_state_oracle(p), gamma)).values
        np.testing.assert_allclose(np.sort(spec.etas), dense, rtol=0, atol=1e-12)
        assert spec.etas.sum() == pytest.approx(1.0, abs=1e-12)
        assert spec.etas.min() >= -1e-12


def test_dephased_spectrum_reduces_to_thermal():
    spec = dephased_spectrum_closed(BASE, 0.0)
    thermal = x_eigenvalues(thermal_state_closed(BASE)[0])
    assert np.array_equal(spec.etas, thermal.etas())


def test_dephased_eigenvectors_diagonalize():
    rng = np.random.default_rng(54)
    for _ in range(100):
        p = draw_params(rng)
        gamma = float(rng.uniform(0.0, 1.0))
        spec = dephased_spectrum_closed(p, gamma)
        vecs = spec.vectors()
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(4), rtol=0, atol=1e-10)
        state, _ = thermal_state_closed(p)
        rho_dc = apply_dephasing(state.to_matrix(), gamma)
        resid = np.max(np.abs(rho_dc @ vecs - vecs * spec.etas))
        assert resid <= 1e-12


@pytest.mark.parametrize("b", [1.2, -1.2, 0.0])
def test_dephased_eigenvectors_degenerate_block(b):
    # gz = 0 with jx = jy makes r1 = 0: the {|00>,|11>} block is diagonal for
    # every gamma and the slope limits pick out the computational basis.
    p = ModelParams(jx=0.9, jy=0.9, jz=-0.7, dz=1.1, gz=0.0, b=b, t=0.8)
    spec = dephased_spectrum_closed(p, 0.3)
    vecs = spec.vectors()
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(4), rtol=0, atol=1e-12)
    state, _ = thermal_state_closed(p)
    rho_dc = apply_dephasing(state.to_matrix(), 0.3)
    resid = np.max(np.abs(rho_dc @ vecs - vecs * spec.etas))
    assert resid <= 1e-13
    assert math.isinf(spec.xi1) or math.isinf(spec.xi2)


def test_dephased_eigenvectors_full_dephasing():
    # gamma = 1 zeroes the off-diagonal block even when r1 > 0.
    spec = dephased_spectrum_closed(BASE, 1.0)
    vecs = spec.vectors()
    state, _ = thermal_state_closed(BASE)
    rho_dc = apply_dephasing(state.to_matrix(), 1.0)
    resid = np.max(np.abs(rho_dc @ vecs - vecs * spec.etas))
    assert resid <= 1e-13


def test_dephased_spectrum_printed_shared_pair():
    rng = np.random.default_rng(55)
    for _ in range(100):
        p = draw_params(rng)
        gamma = float(rng.uniform(0.0, 1.0))
        exact = dephased_spectrum_closed(p, gamma)
        printed = dephased_spectrum_closed(p, gamma, variant="as_printed")
        np.testing.assert_allclose(printed.etas[2:], exact.etas[2:], rtol=0, atol=1e-12)


def test_dephased_spectrum_printed_spurious_prefactor():
    """The published eta1+eta2 sum is (1-gamma) * 2*a2 instead of 2*a2."""
    gamma = 0.4
    state, _ = thermal_state_closed(BASE)
    printed = dephased_spectrum_closed(BASE, gamma, variant="as_printed")
    assert printed.etas[0] + printed.etas[1] == pytest.approx(
        (1.0 - gamma) * 2.0 * state.a2, abs=1e-12
    )
    exact = dephased_spectrum_closed(BASE, gamma)
    assert exact.etas[0] + exact.etas[1] == pytest.approx(2.0 * state.a2, abs=1e-15)


def test_dephased_spectrum_printed_slope_quirks():
    # Published xi1 is algebraically the corrected slope; its sqrt'd zeta
    # breaks normalization, and the xi2 radicand can go negative.
    exact = dephased_spectrum_closed(BASE, 0.3)
    printed = dephased_spectrum_closed(BASE, 0.3, variant="as_printed")
    assert printed.xi1 == pytest.approx(exact.xi1, rel=1e-12)
    assert printed.zeta1 == pytest.approx(math.sqrt(exact.zeta1), rel=1e-12)
    p = ModelParams(jx=1.0, jy=0.0, jz=0.5, dz=0.0, gz=1.0, b=0.1, t=1.0)
    printed = dephased_spectrum_closed(p, 0.0, variant="as_printed")
    assert math.isnan(printed.xi2) and math.isnan(printed.zeta2)


def test_dephased_spectrum_printed_slope_undefined_at_r1_zero():
    p = ModelParams(jx=0.9, jy=0.9, jz=-0.7, dz=1.1, gz=0.0, b=1.2, t=0.8)
    printed = dephased_spectrum_closed(p, 0.3, variant="as_printed")
    assert math.isnan(printed.xi1) and math.isnan(printed.xi2)


def test_dephased_spectrum_rejects_bad_args():
    with pytest.raises(ValueError):
        dephased_spectrum_closed(BASE, -0.1)
    with pytest.raises(ValueError):
        dephased_spectrum_closed(BASE, 0.5, variant="verbatim")


# ---------------------------------------------------------------------------
# closed-form dephased partial-transpose spectrum


def test_dephased_pt_matches_dense_grid():
    rng = np.random.default_rng(56)
    for _ in range(200):
        p = draw_params(rng)
        gamma = float(rng.uniform(0.0, 1.0))
        spec = dephased_pt_eigen_closed(p, gamma)
        dense = hermitian_eig(
            partial_transpose_first(apply_dephasing(thermal_state_oracle(p), gamma))
        ).values
        np.testing.assert_allclose(np.sort(spec.es), dense, rtol=0, atol=1e-12)
        assert math.isnan(spec.p_aux)


def test_dephased_pt_reduces_to_thermal():
    thermal = pt_eigen_closed(BASE)
    spec = dephased_pt_eigen_closed(BASE, 0.0)
    assert np.array_equal(spec.es, [thermal.e1, thermal.e2, thermal.e3, thermal.e4])


def test_dephased_pt_fully_dephased_is_ppt():
    rng = np.random.default_rng(57)
    for _ in range(50):
        spec = dephased_pt_eigen_closed(draw_params(rng), 1.0)
        assert spec.es.min() >= -1e-12


def test_dephased_pt_printed_agrees_at_origin():
    """gamma = 0, dz = 0: the published radicand collapses to the exact one
    for e1; e2 keeps its unrooted P typo even there."""
    p = dataclasses.replace(BASE, dz=0.0)
    exact = dephased_pt_eigen_closed(p, 0.0)
    printed = dephased_pt_eigen_closed(p, 0.0, variant="as_printed")
    assert printed.es[0] == pytest.approx(exact.es[0], abs=1e-12)
    assert printed.es[2] == pytest.approx(exact.es[2], abs=1e-12)
    assert printed.es[3] == pytest.approx(exact.es[3], abs=1e-12)
    assert printed.p_aux > 0.0
    assert abs(printed.es[1] - exact.es[1]) > 1e-6


def test_dephased_pt_printed_population_scaling():
    """The published e3/e4 scale populations by (1-gamma), not just u."""
    gamma = 0.5
    exact = dephased_pt_eigen_closed(BASE, gamma)
    printed = dephased_pt_eigen_closed(BASE, gamma, variant="as_printed")
    thermal = pt_eigen_closed(BASE)
    assert printed.es[2] == pytest.approx((1.0 - gamma) * thermal.e3, abs=1e-12)
    assert abs(printed.es[2] - exact.es[2]) > 1e-3


def test_dephased_pt_printed_singular_scales():
    p = ModelParams(jx=1.0, jy=-1.0, jz=0.5, dz=0.0, gz=0.2, b=0.4, t=1.0)
    with pytest.raises(ValueError):
        dephased_pt_eigen_closed(p, 0.3, variant="as_printed")
    p = ModelParams(jx=1.0, jy=1.0, jz=0.5, dz=0.3, gz=0.0, b=0.0, t=1.0)
    with pytest.raises(ValueError):
        dephased_pt_eigen_closed(p, 0.3, variant="as_printed")


# ---------------------------------------------------------------------------
# monotonicity under the channel


def test_negativity_non_increasing_in_gamma():
    for t in (0.5, 2.0):
        p = dataclasses.replace(BASE, t=t)
        rho = thermal_state_oracle(p)
        values = [negativity(apply_dephasing(rho, g)) for g in np.linspace(0.0, 1.0, 11)]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-10
        assert values[-1] == 0.0
