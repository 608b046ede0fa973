"""Dephasing channel tests: Kraus/mask equivalence, exact population
preservation, the engine's dephased spectra against dense cross-checks, and
the discrepancies of the published forms that the audit quantifies.
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
from qcorr.engine import canonical_state
from qcorr.model import ModelParams, thermal_state_oracle
from qcorr.numkernel import hermitian_eig, partial_transpose_first
from qcorr.quantifiers import negativity, pt_eigen_closed

BASE = ModelParams(jx=-1.0, jy=-1.5, jz=2.0, dz=1.8, gz=0.3, b=1.5, t=0.5)


def draw_params(rng):
    jx, jy, jz, dz, gz, b = (float(x) for x in rng.uniform(-3.0, 3.0, size=6))
    return ModelParams(jx=jx, jy=jy, jz=jz, dz=dz, gz=gz, b=b, t=float(rng.uniform(0.1, 5.0)))


def engine_spectra(p, gamma):
    """Eigenvalues of the dephased state and of its partial transpose, ascending,
    from the engine's canonical state: the transpose swaps the coherences."""
    s = canonical_state(p.jx, p.jy, p.jz, p.dz, p.gz, p.b, p.t)
    u, v = (1.0 - gamma) * s.u0, (1.0 - gamma) * s.d_b
    h, h_pt = math.hypot(s.delta, u), math.hypot(s.delta, v)
    return (
        np.sort([s.m_a - h, s.m_a + h, s.m_b - v, s.m_b + v]),
        np.sort([s.m_a - h_pt, s.m_a + h_pt, s.m_b - u, s.m_b + u]),
    )

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
        etas, _ = engine_spectra(p, gamma)
        dense = hermitian_eig(apply_dephasing(thermal_state_oracle(p), gamma)).values
        np.testing.assert_allclose(etas, dense, rtol=0, atol=1e-12)
        assert etas.sum() == pytest.approx(1.0, abs=1e-12)
        assert etas.min() >= -1e-12


def dense_block(matrix, idx):
    """Ascending eigenvalues of a 2x2 principal block of an X-form matrix."""
    return np.linalg.eigvalsh(matrix[np.ix_(idx, idx)])


def test_dephased_spectrum_printed_shared_pair():
    rng = np.random.default_rng(55)
    for _ in range(100):
        p = draw_params(rng)
        gamma = float(rng.uniform(0.0, 1.0))
        sigma = apply_dephasing(thermal_state_oracle(p), gamma)
        printed = dephased_spectrum_closed(p, gamma)
        np.testing.assert_allclose(
            printed[2:], dense_block(sigma, (0, 3)), rtol=0, atol=1e-12
        )


def test_dephased_spectrum_printed_spurious_prefactor():
    """The published eta1+eta2 sum is (1-gamma) * 2*a2 instead of 2*a2."""
    gamma = 0.4
    a2 = thermal_state_oracle(BASE)[1, 1].real
    printed = dephased_spectrum_closed(BASE, gamma)
    assert printed[0] + printed[1] == pytest.approx((1.0 - gamma) * 2.0 * a2, abs=1e-12)


def test_dephased_spectrum_rejects_bad_args():
    with pytest.raises(ValueError):
        dephased_spectrum_closed(BASE, -0.1)
    with pytest.raises(ValueError):
        dephased_spectrum_closed(BASE, math.nan)


# ---------------------------------------------------------------------------
# closed-form dephased partial-transpose spectrum


def test_dephased_pt_matches_dense_grid():
    rng = np.random.default_rng(56)
    for _ in range(200):
        p = draw_params(rng)
        gamma = float(rng.uniform(0.0, 1.0))
        _, es = engine_spectra(p, gamma)
        dense = hermitian_eig(
            partial_transpose_first(apply_dephasing(thermal_state_oracle(p), gamma))
        ).values
        np.testing.assert_allclose(es, dense, rtol=0, atol=1e-12)


def test_dephased_pt_reduces_to_thermal():
    """At gamma = 0 the published dephased set reduces to the published thermal
    one, except e2, which adds the unrooted P."""
    rng = np.random.default_rng(58)
    for _ in range(50):
        p = draw_params(rng)
        thermal = pt_eigen_closed(p)
        dephased = dephased_pt_eigen_closed(p, 0.0)
        for i in (0, 2, 3):
            assert dephased[i] == pytest.approx(thermal[i], rel=1e-12, abs=1e-15)
    assert abs(dephased_pt_eigen_closed(BASE, 0.0)[1] - pt_eigen_closed(BASE)[1]) > 1e-3


def test_dephased_pt_fully_dephased_is_ppt():
    rng = np.random.default_rng(57)
    for _ in range(50):
        assert engine_spectra(draw_params(rng), 1.0)[1].min() >= -1e-12


def test_dephased_pt_printed_agrees_at_origin():
    """gamma = 0, dz = 0: the published radicand collapses to the exact one
    for e1; e2 keeps its unrooted P typo even there."""
    p = dataclasses.replace(BASE, dz=0.0)
    ptm = partial_transpose_first(thermal_state_oracle(p))
    lo12, hi12 = dense_block(ptm, (0, 3))
    lo34, hi34 = dense_block(ptm, (1, 2))
    printed = dephased_pt_eigen_closed(p, 0.0)
    assert printed[0] == pytest.approx(lo12, abs=1e-12)
    assert printed[2] == pytest.approx(lo34, abs=1e-12)
    assert printed[3] == pytest.approx(hi34, abs=1e-12)
    assert abs(printed[1] - hi12) > 1e-6


def test_dephased_pt_printed_population_scaling():
    """The published e3/e4 scale populations by (1-gamma), not just u."""
    gamma = 0.5
    ptm = partial_transpose_first(apply_dephasing(thermal_state_oracle(BASE), gamma))
    exact_e3 = dense_block(ptm, (1, 2))[0]
    printed = dephased_pt_eigen_closed(BASE, gamma)
    assert printed[2] == pytest.approx((1.0 - gamma) * pt_eigen_closed(BASE)[2], abs=1e-12)
    assert abs(printed[2] - exact_e3) > 1e-3


def test_dephased_pt_printed_singular_scales():
    p = ModelParams(jx=1.0, jy=-1.0, jz=0.5, dz=0.0, gz=0.2, b=0.4, t=1.0)
    with pytest.raises(ValueError):
        dephased_pt_eigen_closed(p, 0.3)
    p = ModelParams(jx=1.0, jy=1.0, jz=0.5, dz=0.3, gz=0.0, b=0.0, t=1.0)
    with pytest.raises(ValueError):
        dephased_pt_eigen_closed(p, 0.3)


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
