"""Quantifier tests: negativity, local quantum uncertainty (lqu) and local
quantum Fisher information (lqfi) on states with known values, plus the
closed-form partial-transpose spectrum against a dense cross-check.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from qcorr.app import figure_preset
from qcorr.decoherence import apply_dephasing
from qcorr.engine import CorrelationTriple, canonical_state, canonical_triple
from qcorr.model import ModelParams, thermal_state_oracle
from qcorr.numkernel import NotPSDError, hermitian_eig, partial_transpose_first
from qcorr.quantifiers import (
    correlations,
    lqfi,
    lqu,
    negativity,
    pt_eigen_closed,
)

BASE = ModelParams(jx=-1.0, jy=-1.5, jz=2.0, dz=1.8, gz=0.3, b=1.5, t=0.5)


def draw_params(rng):
    jx, jy, jz, dz, gz, b = (float(x) for x in rng.uniform(-3.0, 3.0, size=6))
    return ModelParams(jx=jx, jy=jy, jz=jz, dz=dz, gz=gz, b=b, t=float(rng.uniform(0.1, 5.0)))


def bell_phi_plus():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = rho[0, 3] = rho[3, 0] = 0.5
    return rho


def random_pure(rng):
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


# ---------------------------------------------------------------------------
# negativity


def test_negativity_bell():
    rho = bell_phi_plus()
    assert negativity(rho) == pytest.approx(0.5, abs=1e-12)
    assert negativity(rho, convention="doubled") == pytest.approx(1.0, abs=1e-12)


def test_negativity_separable_states_are_zero():
    assert negativity(np.eye(4, dtype=complex) / 4) == 0.0
    product = np.zeros((4, 4), dtype=complex)
    product[0, 0] = 1.0
    assert negativity(product) == 0.0


def test_negativity_werner_line():
    """q*|Phi+><Phi+| + (1-q)*I/4 has negativity max(0, (3q-1)/4)."""
    bell = bell_phi_plus()
    for q in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        rho = q * bell + (1.0 - q) * np.eye(4) / 4
        expect = max(0.0, (3.0 * q - 1.0) / 4.0)
        assert negativity(rho) == pytest.approx(expect, abs=1e-12)


def test_negativity_rejects_unknown_convention():
    with pytest.raises(ValueError):
        negativity(np.eye(4, dtype=complex) / 4, convention="half")


def test_negativity_thermal_range():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = negativity(thermal_state_oracle(draw_params(rng)))
        assert 0.0 <= n <= 0.5 + 1e-12


# ---------------------------------------------------------------------------
# closed-form partial-transpose spectrum


def test_pt_closed_matches_dense_grid():
    """The engine's partial-transpose eigenvalues: its canonical blocks with
    the two coherences swapped."""
    rng = np.random.default_rng(32)
    for _ in range(300):
        p = draw_params(rng)
        s = canonical_state(p.jx, p.jy, p.jz, p.dz, p.gz, p.b, p.t)
        half = math.hypot(s.delta, s.d_b)
        es = np.array([s.m_a - half, s.m_a + half, s.m_b - s.u0, s.m_b + s.u0])
        dense = hermitian_eig(partial_transpose_first(thermal_state_oracle(p))).values
        np.testing.assert_allclose(np.sort(es), dense, rtol=0, atol=1e-12)
        assert es.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.sum(es < -1e-12) <= 1


def dense_pt_pairs(p):
    """Ascending {|00>,|11>} and {|01>,|10>} pairs of the oracle's transpose."""
    ptm = partial_transpose_first(thermal_state_oracle(p))
    return tuple(np.linalg.eigvalsh(ptm[np.ix_(idx, idx)]) for idx in ((0, 3), (1, 2)))


def test_pt_closed_printed_shared_pair():
    rng = np.random.default_rng(33)
    for _ in range(100):
        p = draw_params(rng)
        _, e34 = dense_pt_pairs(p)
        np.testing.assert_allclose(pt_eigen_closed(p)[2:], e34, rtol=0, atol=1e-12)


def test_pt_closed_printed_agrees_without_dm():
    rng = np.random.default_rng(34)
    for _ in range(100):
        p = dataclasses.replace(draw_params(rng), dz=0.0)
        np.testing.assert_allclose(
            pt_eigen_closed(p), np.concatenate(dense_pt_pairs(p)), rtol=0, atol=1e-12
        )


def test_pt_closed_printed_cosh_contamination():
    hot = dataclasses.replace(BASE, t=5.0)
    e12, _ = dense_pt_pairs(hot)
    e1, e2, _, _ = pt_eigen_closed(hot)
    assert abs(e1 - e12[0]) > 1e-3
    assert abs(e2 - e12[1]) > 1e-3


def test_pt_closed_printed_singular_without_planar_scale():
    p = ModelParams(jx=1.0, jy=-1.0, jz=0.5, dz=0.0, gz=0.2, b=0.4, t=1.0)
    with pytest.raises(ValueError):
        pt_eigen_closed(p)


# ---------------------------------------------------------------------------
# local quantum uncertainty


def test_lqu_maximally_mixed():
    res = lqu(np.eye(4, dtype=complex) / 4)
    assert abs(res.value) <= 1e-12
    np.testing.assert_allclose(res.w, np.eye(3), rtol=0, atol=1e-12)


def test_lqu_bell_is_maximal():
    assert lqu(bell_phi_plus()).value == pytest.approx(1.0, abs=1e-12)


def test_lqu_classical_diagonal_is_zero():
    rng = np.random.default_rng(35)
    for _ in range(20):
        pops = rng.uniform(0.0, 1.0, size=4)
        pops /= pops.sum()
        rho = np.diag(pops).astype(complex)
        assert abs(lqu(rho).value) <= 1e-9


def test_lqu_result_structure():
    res = lqu(thermal_state_oracle(BASE))
    assert res.value == 1.0 - res.eps[-1]
    assert res.w.shape == (3, 3)
    np.testing.assert_allclose(res.w, res.w.T, rtol=0, atol=1e-12)
    assert list(res.eps) == sorted(res.eps)


def test_lqu_rejects_non_psd():
    with pytest.raises(NotPSDError):
        lqu(np.diag([0.7, 0.5, -0.2, 0.0]).astype(complex))


def test_lqu_thermal_range():
    rng = np.random.default_rng(36)
    for _ in range(100):
        val = lqu(thermal_state_oracle(draw_params(rng))).value
        assert -1e-10 <= val <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# local quantum Fisher information


def test_lqfi_maximally_mixed():
    res = lqfi(np.eye(4, dtype=complex) / 4)
    assert abs(res.value) <= 1e-12


def test_lqfi_bell_is_maximal():
    assert lqfi(bell_phi_plus()).value == pytest.approx(1.0, abs=1e-12)


def test_lqfi_rank_deficient_classical_state():
    # Rank-2 diagonal state: every probe direction is classical, so the
    # largest eigenvalue of M must still reach 1 (value 0).  This exercises
    # the equal-index pair terms in the weight sum; dropping them breaks it.
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    assert abs(lqfi(rho).value) <= 1e-12
    rho = np.diag([0.3, 0.3, 0.2, 0.2]).astype(complex)
    assert abs(lqfi(rho).value) <= 1e-9


def test_lqfi_result_structure():
    res = lqfi(thermal_state_oracle(BASE))
    assert res.value == 1.0 - res.lams[-1]
    assert res.m.shape == (3, 3)
    assert list(res.lams) == sorted(res.lams)


def test_lqfi_rejects_bad_trace():
    with pytest.raises(ValueError):
        lqfi(np.eye(4, dtype=complex) / 2)


def test_lqfi_rejects_non_psd():
    with pytest.raises(NotPSDError):
        lqfi(np.diag([0.7, 0.5, -0.2, 0.0]).astype(complex))


def test_pure_states_lqu_equals_lqfi():
    rng = np.random.default_rng(37)
    for _ in range(50):
        rho = random_pure(rng)
        assert abs(lqu(rho).value - lqfi(rho).value) <= 1e-9


def test_lqfi_dominates_lqu_on_thermal_grid():
    rng = np.random.default_rng(38)
    for _ in range(100):
        p = draw_params(rng)
        rho = thermal_state_oracle(p)
        gamma = float(rng.uniform(0.0, 1.0))
        rho_dc = apply_dephasing(rho, gamma)
        for state in (rho, rho_dc):
            assert lqfi(state).value >= lqu(state).value - 1e-9


def test_quantifiers_invariant_under_phase_removal():
    rng = np.random.default_rng(39)
    for _ in range(50):
        rho = thermal_state_oracle(draw_params(rng))
        # The canonical form: both coherences rotated onto the positive real axis.
        canon = np.diag(np.diag(rho).real).astype(complex)
        canon[0, 3] = canon[3, 0] = abs(rho[0, 3])
        canon[1, 2] = canon[2, 1] = abs(rho[1, 2])
        assert negativity(rho) == pytest.approx(negativity(canon), abs=1e-10)
        assert lqu(rho).value == pytest.approx(lqu(canon).value, abs=1e-10)
        assert lqfi(rho).value == pytest.approx(lqfi(canon).value, abs=1e-10)


# ---------------------------------------------------------------------------
# the combined pipeline


def test_correlations_golden_point():
    triple = correlations(BASE)
    assert triple.negativity == pytest.approx(0.49997419461584375, abs=1e-12)
    assert triple.lqu == pytest.approx(0.9936350236019751, abs=1e-12)
    assert triple.lqfi == pytest.approx(0.9999354118986433, abs=1e-12)


def test_correlations_hot_limit_vanishes():
    triple = correlations(dataclasses.replace(BASE, t=1e6))
    assert abs(triple.negativity) <= 1e-6
    assert abs(triple.lqu) <= 1e-6
    assert abs(triple.lqfi) <= 1e-6


def test_correlations_full_dephasing_kills_everything():
    triple = correlations(BASE, gamma=1.0)
    assert triple.negativity == 0.0
    assert abs(triple.lqu) <= 1e-9
    assert abs(triple.lqfi) <= 1e-9


def test_correlations_zero_dephasing_is_identity():
    plain = correlations(BASE)
    gated = correlations(BASE, gamma=0.0)
    assert plain == gated


def test_correlations_doubled_convention():
    halved = correlations(BASE)
    doubled = correlations(BASE, convention="doubled")
    assert doubled.negativity == pytest.approx(2.0 * halved.negativity, abs=1e-15)
    assert doubled.lqu == halved.lqu
    assert doubled.lqfi == halved.lqfi


def test_correlations_rejects_bad_gamma():
    with pytest.raises(ValueError):
        correlations(BASE, gamma=-0.1)
    with pytest.raises(ValueError):
        correlations(BASE, gamma=1.2)


def test_correlations_even_in_dm_and_ksea_sign():
    rng = np.random.default_rng(40)
    for _ in range(30):
        p = draw_params(rng)
        flipped = dataclasses.replace(p, dz=-p.dz, gz=-p.gz)
        a = correlations(p)
        b = correlations(flipped)
        assert a.negativity == pytest.approx(b.negativity, abs=1e-10)
        assert a.lqu == pytest.approx(b.lqu, abs=1e-10)
        assert a.lqfi == pytest.approx(b.lqfi, abs=1e-10)


def test_correlation_triple_is_plain_record():
    t = CorrelationTriple(negativity=0.1, lqu=0.2, lqfi=0.3)
    assert (t.negativity, t.lqu, t.lqfi) == (0.1, 0.2, 0.3)


# ---------------------------------------------------------------------------
# the closed-form canonical engine


def seed42_grid(count):
    """The first draws of the acceptance suite's seed-42 grid, with their gammas."""
    rng = np.random.default_rng(42)
    points = []
    for _ in range(count):
        jx, jy, jz, dz, gz, b = (float(x) for x in rng.uniform(-3.0, 3.0, size=6))
        t = float(rng.uniform(0.1, 5.0))
        gamma = float(rng.uniform(0.0, 1.0))
        points.append((ModelParams(jx=jx, jy=jy, jz=jz, dz=dz, gz=gz, b=b, t=t), gamma))
    return points


def mp_dense_triple(mp, p, gamma=None):
    """(negativity, LQU, LQFI) from dense matrices in mpmath, via mp.eighe.

    Independent of the program: H is assembled from Pauli products, every
    spectrum comes from mp.eighe/mp.eigsy, and LQU/LQFI are 1 minus the
    largest eigenvalue of the full 3x3 W and M matrices.
    """
    pauli = {
        "i": [[1, 0], [0, 1]],
        "x": [[0, 1], [1, 0]],
        "y": [[0, -1j], [1j, 0]],
        "z": [[1, 0], [0, -1]],
    }

    def kron(a, b):
        a, b = pauli[a], pauli[b]
        return mp.matrix(
            [[a[i // 2][j // 2] * b[i % 2][j % 2] for j in range(4)] for i in range(4)]
        )

    jx, jy, jz, dz, gz, b, t = (mp.mpf(getattr(p, f.name)) for f in dataclasses.fields(p))
    h = (
        jx * kron("x", "x")
        + jy * kron("y", "y")
        + jz * kron("z", "z")
        + dz * (kron("y", "x") - kron("x", "y"))
        - gz * (kron("x", "y") + kron("y", "x"))
        + b * (kron("z", "i") + kron("i", "z"))
    )
    energies, vecs = mp.eighe(h)
    weights = [mp.exp(-(e - min(energies)) / t) for e in energies]
    rho = vecs * mp.diag([w / sum(weights) for w in weights]) * vecs.transpose_conj()
    if gamma is not None:
        for i in range(4):
            for j in range(4):
                if i // 2 != j // 2:
                    rho[i, j] *= 1 - mp.mpf(gamma)
    pt = mp.matrix(4, 4)
    for i in range(4):
        for j in range(4):
            pt[i, j] = rho[2 * (j // 2) + i % 2, 2 * (i // 2) + j % 2]
    neg = -sum(min(e, 0) for e in mp.eighe(pt, eigvals_only=True))
    lam, vecs = mp.eighe(rho)
    lam = [max(x, 0) for x in lam]
    local = [kron(axis, "i") for axis in "xyz"]
    root = vecs * mp.diag([mp.sqrt(x) for x in lam]) * vecs.transpose_conj()
    root_local = [root * s for s in local]
    basis = [vecs.transpose_conj() * s * vecs for s in local]
    w = mp.matrix(3, 3)
    m = mp.matrix(3, 3)
    for i in range(3):
        for j in range(3):
            w[i, j] = mp.re(
                sum(root_local[i][k, n] * root_local[j][n, k] for k in range(4) for n in range(4))
            )
            m[i, j] = mp.re(
                sum(
                    2 * lam[k] * lam[n] / (lam[k] + lam[n])
                    * basis[i][k, n]
                    * mp.conj(basis[j][k, n])
                    for k in range(4)
                    for n in range(4)
                    if lam[k] + lam[n] > 0
                )
            )
    lqu_ref = 1 - max(mp.eigsy(w, eigvals_only=True))
    lqfi_ref = 1 - max(mp.eigsy(m, eigvals_only=True))
    return neg, lqu_ref, lqfi_ref


def test_canonical_triple_matches_50_digit_dense_reference():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    fig1 = dataclasses.replace(figure_preset("fig1_top").fixed, t=0.5, dz=-6.0)
    cases = [(p, g) for p, gamma in seed42_grid(120) for g in (None, gamma)]
    cases += [(fig1, None), (fig1, 1.0), (BASE, 1.0)]
    worst = 0.0
    for p, gamma in cases:
        got = canonical_triple(p, gamma=gamma)
        ref = mp_dense_triple(mp, p, gamma)
        for value, exact in zip((got.negativity, got.lqu, got.lqfi), ref):
            worst = max(worst, abs(float(value - exact)))
    assert worst <= 1e-13
    # The tolerance separates the routes: the dense LQU misses here by 2.4e-6.
    dense_miss = abs(float(correlations(fig1).lqu - mp_dense_triple(mp, fig1)[1]))
    assert dense_miss > 1e-13
    assert f"{canonical_triple(fig1).lqu:.12g}" == "0.999997579997"


def test_canonical_triple_golden_point():
    triple = canonical_triple(BASE)
    assert triple.negativity == pytest.approx(0.49997419461584375, abs=1e-15)
    assert triple.lqu == pytest.approx(0.9936350236019751, abs=1e-15)
    assert triple.lqfi == pytest.approx(0.9999354118986433, abs=1e-15)


def test_canonical_triple_survives_an_empty_block():
    # At T = 1e-3 the {|00>,|11>} block's weight underflows to zero.
    cold = dataclasses.replace(BASE, t=1e-3)
    for gamma in (None, 0.4, 1.0):
        fast, dense = canonical_triple(cold, gamma=gamma), correlations(cold, gamma=gamma)
        assert fast.negativity == pytest.approx(dense.negativity, abs=1e-12)
        assert fast.lqu == pytest.approx(dense.lqu, abs=2e-5)
        assert fast.lqfi == pytest.approx(dense.lqfi, abs=1e-12)


@pytest.mark.parametrize(
    "couplings",
    [dict(gz=1e308), dict(jx=1e308, jy=-1e308), dict(jx=1e308, jz=1.7e308, t=1e308)],
)
def test_canonical_triple_near_the_float_maximum(couplings):
    """Overflowing scales are evaluated at the inputs scaled down: the Gibbs
    state depends on H/T only, and the dense route agrees there."""
    fields = {**dict(jx=0.0, jy=0.0, jz=0.0, dz=0.0, gz=0.0, b=0.0, t=1.0), **couplings}
    scaled = ModelParams(**{name: value / 16.0 for name, value in fields.items()})
    for gamma in (None, 0.4):
        got = canonical_triple(ModelParams(**fields), gamma=gamma)
        assert got == canonical_triple(scaled, gamma=gamma)
        with np.errstate(over="ignore"):  # exp(-beta * gap) of huge gaps is 0
            dense = correlations(scaled, gamma=gamma)
        assert got.negativity == pytest.approx(dense.negativity, abs=1e-12)
        assert got.lqu == pytest.approx(dense.lqu, abs=2e-5)
        assert got.lqfi == pytest.approx(dense.lqfi, abs=1e-12)


def test_canonical_triple_conventions_and_gamma_checks():
    halved = canonical_triple(BASE, gamma=0.3)
    doubled = canonical_triple(BASE, gamma=0.3, convention="doubled")
    assert doubled == CorrelationTriple(2.0 * halved.negativity, halved.lqu, halved.lqfi)
    assert canonical_triple(BASE, gamma=0.0) == canonical_triple(BASE)
    assert canonical_triple(BASE, gamma=1.0) == CorrelationTriple(0.0, 0.0, 0.0)
    for gamma in (-0.1, 1.2, math.nan):
        with pytest.raises(ValueError):
            canonical_triple(BASE, gamma=gamma)
    with pytest.raises(ValueError):
        canonical_triple(BASE, convention="quartered")
