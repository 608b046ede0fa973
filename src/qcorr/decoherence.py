"""Single-qubit phase damping channel and its closed-form thermal spectra.

The channel acts on the first qubit only.  With probability weight gamma in
[0, 1] it suppresses every coherence between that qubit's two sectors by a
factor (1 - gamma), and it leaves all populations untouched:

    rho -> (1 - gamma/2) rho + (gamma/2) (sigma_z x I) rho (sigma_z x I).

The Kraus pair returned here, sqrt(1 - gamma/2) I and sqrt(gamma/2)
(sigma_z x I), satisfies the completeness relation exactly.  A commonly
printed alternative pair (sqrt(gamma) diag(1,0) and sqrt(gamma) diag(0,1)
on the first qubit) sums to gamma * I instead; the audit module measures
that defect rather than using those operators.

``dephased_spectrum_closed`` and ``dephased_pt_eigen_closed`` evaluate the
published closed-form spectra of the dephased thermal X-state verbatim, so
the audit can measure them: they scale eta1/eta2 by a spurious
(1 - gamma), replace sinh(beta*r2) by a cosh-contaminated radical, and (in
the partial-transpose set) scale the populations of e3/e4 along with the
coherences.  The eta3/eta4 pair is exact as printed.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import ModelParams, _check_gamma
from .model import derived_scales, _sinh_ratio
from .numkernel import embed_pauli_first

__all__ = [
    "gamma_from_time",
    "dephasing_kraus",
    "apply_dephasing",
    "dephased_spectrum_closed",
    "dephased_pt_eigen_closed",
]


def gamma_from_time(rate: float, time: float) -> float:
    """Channel strength gamma = 1 - exp(-rate*time) for Markovian dephasing."""
    rate = float(rate)
    time = float(time)
    if not math.isfinite(rate) or rate < 0.0:
        raise ValueError(f"rate must be >= 0, got {rate!r}")
    if not math.isfinite(time) or time < 0.0:
        raise ValueError(f"time must be >= 0, got {time!r}")
    return -math.expm1(-rate * time)


def dephasing_kraus(gamma: float) -> list[np.ndarray]:
    """Kraus pair {sqrt(1-gamma/2) I, sqrt(gamma/2) sigma_z x I}.

    Satisfies sum K^H K = I exactly and reproduces apply_dephasing.
    """
    gamma = _check_gamma(gamma)
    return [
        math.sqrt(1.0 - gamma / 2.0) * np.eye(4, dtype=complex),
        math.sqrt(gamma / 2.0) * embed_pauli_first("z").astype(complex),
    ]


def apply_dephasing(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Dephase the first qubit: cross-sector coherences shrink by (1-gamma).

    Implemented as an elementwise mask, so populations and the trace are
    preserved exactly and Hermiticity is never perturbed.  gamma = 0 returns
    an unchanged copy; gamma = 1 removes the |00>/|11> and |01>/|10>
    coherences entirely.
    """
    gamma = _check_gamma(gamma)
    arr = np.asarray(rho, dtype=complex)
    if arr.shape != (4, 4):
        raise ValueError(f"rho must be 4x4, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("rho contains non-finite entries")
    mask = np.ones((4, 4))
    mask[:2, 2:] = 1.0 - gamma
    mask[2:, :2] = 1.0 - gamma
    return arr * mask


def dephased_spectrum_closed(
    p: ModelParams, gamma: float
) -> tuple[float, float, float, float]:
    """The published dephased eigenvalues, verbatim, as (eta1..eta4).

    eta1, eta2 belong to the {|01>,|10>} block and carry a spurious global
    (1-gamma) and a cosh-contaminated radical in place of sinh(beta*r2);
    eta3, eta4 belong to the {|00>,|11>} block and are exact,
    (cosh(beta*r3) -+ sinh(beta*r3)*R/r3) * exp(-beta*jz)/Z with
    R = sqrt(4B^2 + r1^2(1-gamma)^2).
    """
    gamma = _check_gamma(gamma)
    s = derived_scales(p)
    one_mg = 1.0 - gamma
    big_r = math.hypot(2.0 * p.b, s.r1 * one_mg)
    beta, z = s.beta, s.z
    ch2 = math.cosh(beta * s.r2)
    sh2 = math.sinh(beta * s.r2)
    ch3 = math.cosh(beta * s.r3)
    sr3 = _sinh_ratio(beta, s.r3)
    chi = math.hypot(2.0 * p.dz * ch2, (p.jx + p.jy) * sh2)
    ratio = chi / s.r2 if s.r2 > 0.0 else 0.0
    pref = math.exp(beta * p.jz) * one_mg / z
    emj = math.exp(-beta * p.jz)
    return (
        pref * (ch2 - ratio),
        pref * (ch2 + ratio),
        emj * (ch3 - sr3 * big_r) / z,
        emj * (ch3 + sr3 * big_r) / z,
    )


def dephased_pt_eigen_closed(
    p: ModelParams, gamma: float
) -> tuple[float, float, float, float]:
    """The published dephased partial-transpose eigenvalues, verbatim.

    Returns (e1, e2, e3, e4): the {|00>,|11>} pair of the transposed matrix
    first, then the {|01>,|10>} pair.  They use
    P = exp(4*beta*jz)*r3^2*(1-gamma)^2*chi + 4*B^2*r2^2*sinh^2(beta*r3),
    where chi is the unrooted
    4*dz^2*cosh^2(beta*r2) + (jx+jy)^2*sinh^2(beta*r2) (same reading as the
    thermal partial-transpose pair; it reduces to the exact radicand at
    dz = 0, gamma = 0).  e1 subtracts sqrt(P)/(r2*r3) but e2 adds the
    unrooted P/(r2*r3) — that asymmetry is kept verbatim — and e3,4 scale
    their population part by (1-gamma) along with the coherence.  Singular
    at r2 = 0 or r3 = 0 (raises ValueError).
    """
    gamma = _check_gamma(gamma)
    one_mg = 1.0 - gamma
    s = derived_scales(p)
    if s.r2 == 0.0 or s.r3 == 0.0:
        raise ValueError("printed dephased e1/e2 are singular at r2*r3 = 0")
    beta, z = s.beta, s.z
    ch2 = math.cosh(beta * s.r2)
    sh2 = math.sinh(beta * s.r2)
    ch3 = math.cosh(beta * s.r3)
    sh3 = math.sinh(beta * s.r3)
    chi = (2.0 * p.dz * ch2) ** 2 + ((p.jx + p.jy) * sh2) ** 2
    p_rad = (
        math.exp(4.0 * beta * p.jz) * s.r3 * s.r3 * one_mg * one_mg * chi
        + 4.0 * p.b * p.b * s.r2 * s.r2 * sh3 * sh3
    )
    emj = math.exp(-beta * p.jz)
    ej = math.exp(beta * p.jz)
    rr = s.r2 * s.r3
    return (
        emj * (ch3 - math.sqrt(p_rad) / rr) / z,
        emj * (ch3 + p_rad / rr) / z,
        one_mg * (ej * ch2 - emj * s.r1 * sh3 / s.r3) / z,
        one_mg * (ej * ch2 + emj * s.r1 * sh3 / s.r3) / z,
    )
