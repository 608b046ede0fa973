"""Quantum correlation quantifiers: negativity, LQU, and LQFI.

This module is the dense reference route.  Sweeps, ``qcorr figures`` and
``qcorr compute`` call ``engine.canonical_triple`` instead: closed forms on
the canonical X-state in plain ``math``, with no matrix, no eigensolver and
no numpy.  ``correlations`` is what the tests and the benchmark check that
engine against: the oracle density matrix of the thermal (optionally
dephased) state, diagonalized again by each of the functions below.

The dense functions take a 4x4 density matrix (two qubits) and measure
correlations with respect to the first qubit:

* negativity, from the eigenvalues of the partial transpose;
* local quantum uncertainty (LQU), 1 minus the largest eigenvalue of the
  3x3 matrix W_ij = Tr[sqrt(rho) (sigma_i x I) sqrt(rho) (sigma_j x I)];
* local quantum Fisher information (LQFI), 1 minus the largest eigenvalue
  of the 3x3 matrix M built from the spectral decomposition of rho.

The spectral sum in M runs over every ordered eigenvalue pair with
lam_m + lam_n above a cutoff, including the diagonal m == n terms.  Those
diagonal terms are what make LQFI vanish on classically correlated
(diagonal) states; dropping them would report spurious correlations for
e.g. diag(1/2, 1/2, 0, 0).  Both W and M are Hermitian and symmetric under
index exchange, hence real symmetric; the imaginary parts that show up
numerically are roundoff and are checked against a dust threshold before
being discarded.

``pt_eigen_closed`` evaluates the published partial-transpose eigenvalues
of the thermal state verbatim (their e1/e2 radicand mixes chi with squared
energy scales and is singular at r2 = 0), so the audit can measure the
discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoherence import apply_dephasing
from .engine import CorrelationTriple, ModelParams, NotPSDError, _check_convention
from .model import derived_scales, thermal_state_oracle, _sinh_ratio
from .numkernel import (
    embed_pauli_first,
    hermitian_eig,
    partial_transpose_first,
    psd_sqrt,
    sym3_eig_max,
)

__all__ = [
    "LquResult",
    "LqfiResult",
    "negativity",
    "pt_eigen_closed",
    "lqu",
    "lqfi",
    "correlations",
    "LQFI_PAIR_CUTOFF",
]

# Eigenvalue pairs with lam_m + lam_n at or below this contribute nothing
# to the LQFI spectral sum (the weight 2*lam_m*lam_n/(lam_m+lam_n) -> 0).
LQFI_PAIR_CUTOFF = 1e-12

# Residual imaginary parts on W and M beyond this indicate a broken input,
# not roundoff.
_IMAG_DUST = 1e-8


@dataclass(frozen=True)
class LquResult:
    """LQU value with the W matrix and its eigenvalues (ascending)."""

    value: float
    w: np.ndarray
    eps: np.ndarray


@dataclass(frozen=True)
class LqfiResult:
    """LQFI value with the M matrix and its eigenvalues (ascending)."""

    value: float
    m: np.ndarray
    lams: np.ndarray


def negativity(rho: np.ndarray, convention: str = "halved") -> float:
    """Sum of |negative eigenvalues| of the partial transpose.

    halved (default): sum of max(0, -mu) over partial-transpose eigenvalues,
    in [0, 0.5] for two qubits; doubled: twice that, in [0, 1].
    """
    _check_convention(convention)
    vals, _ = hermitian_eig(partial_transpose_first(rho))
    total = float(sum(-v for v in vals if v < 0.0))
    return 2.0 * total if convention == "doubled" else total


def pt_eigen_closed(p: ModelParams) -> tuple[float, float, float, float]:
    """The published partial-transpose eigenvalues, verbatim, as (e1..e4).

    e1, e2 come from the {|00>,|11>} block of the transposed matrix (which
    carries the |01>/|10> coherence after the transpose), e3, e4 from the
    {|01>,|10>} block; each pair is ordered (minus, plus).  The e1/e2
    radicand reads exp(4*beta*jz)*r3^2*chi + 4*B^2*r2^2*sinh^2(beta*r3),
    where chi is the unrooted 4*dz^2*cosh^2(beta*r2) +
    (jx+jy)^2*sinh^2(beta*r2) (the only reading that is dimensionally
    coherent and reduces to the exact pair at dz = 0; the residual defect
    is the cosh^2 where sinh^2 belongs).  The radical is evaluated in the
    algebraically identical regrouping
    sqrt(exp(4*beta*jz)*chi/r2^2 + (2*B*sinh(beta*r3)/r3)^2) to stay finite
    near r3 = 0; at r2 = 0 the expression is genuinely singular and raises
    ValueError.  e3/e4 are exact as printed.
    """
    s = derived_scales(p)
    beta, z = s.beta, s.z
    if s.r2 == 0.0:
        raise ValueError("printed e1/e2 are singular at r2 = 0")
    ch2 = math.cosh(beta * s.r2)
    sh2 = math.sinh(beta * s.r2)
    ch3 = math.cosh(beta * s.r3)
    sr3 = _sinh_ratio(beta, s.r3)
    chi = (2.0 * p.dz * ch2) ** 2 + ((p.jx + p.jy) * sh2) ** 2
    half = math.sqrt(
        math.exp(4.0 * beta * p.jz) * chi / (s.r2 * s.r2) + (2.0 * p.b * sr3) ** 2
    )
    emj = math.exp(-beta * p.jz)
    a2 = math.exp(beta * p.jz) * ch2 / z
    u = s.r1 * emj * sr3 / z
    return (
        emj * ch3 / z - emj * half / z,
        emj * ch3 / z + emj * half / z,
        a2 - u,
        a2 + u,
    )


def _pauli_triple() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return tuple(embed_pauli_first(axis) for axis in "xyz")


def lqu(rho: np.ndarray) -> LquResult:
    """Local quantum uncertainty with respect to the first qubit.

    Builds W_ij = Tr[sqrt(rho) (sigma_i x I) sqrt(rho) (sigma_j x I)] from
    the PSD square root, discards the roundoff-level imaginary part, and
    returns 1 minus the largest eigenvalue of W.  Zero exactly on product
    and classically correlated states, one on Bell states.

    Eigenvalues below 1e-11 of the largest are zeroed before the root:
    sqrt() turns their roundoff-floor noise into ~1e-8 swings in W, while
    dropping them biases W downward by at most ~2*sqrt(1e-11).  The bias is
    one-sided in the direction that preserves lqfi >= lqu, because each
    dropped W term sqrt(lam*lam') dominates the matching Fisher weight
    2*lam*lam'/(lam+lam').
    """
    root = psd_sqrt(rho, rel_dust=1e-11)
    mats = [root @ pauli for pauli in _pauli_triple()]
    w = np.empty((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            w[i, j] = np.trace(mats[i] @ mats[j])
    residue = float(np.max(np.abs(w.imag)))
    if residue > _IMAG_DUST:
        raise ArithmeticError(f"W has non-negligible imaginary part: {residue:.3e}")
    w_real = (w.real + w.real.T) / 2.0
    top, eps = sym3_eig_max(w_real)
    return LquResult(value=1.0 - top, w=w_real, eps=eps)


def lqfi(rho: np.ndarray) -> LqfiResult:
    """Local quantum Fisher information with respect to the first qubit.

    Diagonalizes rho and forms
    M_ij = sum_{m,n} 2*lam_m*lam_n/(lam_m+lam_n) * B_i[m,n] * conj(B_j[m,n])
    with B_i = V^H (sigma_i x I) V, over every ordered pair (m, n) with
    lam_m + lam_n > cutoff, m == n included.  The value is 1 minus the
    largest eigenvalue of M.  Requires a normalized PSD input.
    """
    arr = np.asarray(rho, dtype=complex)
    trace_dev = abs(complex(np.trace(arr)) - 1.0)
    if trace_dev > 1e-10:
        raise ValueError(f"rho must have unit trace, deviation {trace_dev:.3e}")
    vals, vecs = hermitian_eig(arr)
    if vals[0] < -1e-10:
        raise NotPSDError(f"rho has eigenvalue {vals[0]:.3e} < 0")
    lam = np.maximum(np.asarray(vals), 0.0)
    pair_sum = lam[:, None] + lam[None, :]
    weights = np.zeros((4, 4))
    keep = pair_sum > LQFI_PAIR_CUTOFF
    weights[keep] = 2.0 * (lam[:, None] * lam[None, :])[keep] / pair_sum[keep]
    basis = [vecs.conj().T @ pauli @ vecs for pauli in _pauli_triple()]
    m = np.empty((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            m[i, j] = np.sum(weights * basis[i] * basis[j].conj())
    residue = float(np.max(np.abs(m.imag)))
    if residue > _IMAG_DUST:
        raise ArithmeticError(f"M has non-negligible imaginary part: {residue:.3e}")
    m_real = (m.real + m.real.T) / 2.0
    top, lams = sym3_eig_max(m_real)
    return LqfiResult(value=1.0 - top, m=m_real, lams=lams)


def correlations(
    p: ModelParams,
    gamma: float | None = None,
    convention: str = "halved",
) -> CorrelationTriple:
    """All three quantifiers of the thermal state by the dense route.

    This is the reference for tests and the benchmark, not what sweeps and
    ``qcorr compute`` print: they call ``engine.canonical_triple``.  The
    state comes from the oracle (Jacobi eigendecomposition of the
    Hamiltonian); with gamma set, the single-qubit dephasing channel is
    applied, and each quantifier diagonalizes the dense 4x4 matrix again.
    Its LQU carries the eigenvalue clamp bias documented in ``lqu``.
    """
    rho = thermal_state_oracle(p)
    if gamma is not None:
        rho = apply_dephasing(rho, gamma)
    return CorrelationTriple(
        negativity=negativity(rho, convention),
        lqu=lqu(rho).value,
        lqfi=lqfi(rho).value,
    )
