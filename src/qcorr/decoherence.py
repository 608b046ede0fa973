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

For the thermal X-state the channel has closed-form eigensystems, again in
two variants.  ``corrected`` derives everything from the dephased 2x2
blocks; ``as_printed`` evaluates the published expressions verbatim, which
scale eta1/eta2 by a spurious (1 - gamma), replace sinh(beta*r2) by a
cosh-contaminated radical, and (in the partial-transpose set) scale the
populations of e3/e4 along with the coherences.  The eta3/eta4 pair is
exact as printed and both variants agree on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import ModelParams, _check_gamma
from .model import (
    block_pair,
    derived_scales,
    thermal_state_closed,
    _sinh_ratio,
)
from .numkernel import embed_pauli_first

__all__ = [
    "DephasedSpectrum",
    "DephasedPTSpectrum",
    "gamma_from_time",
    "dephasing_kraus",
    "apply_dephasing",
    "dephased_spectrum_closed",
    "dephased_pt_eigen_closed",
]

# Below this scale the coherence block is numerically diagonal and the
# eigenvector slopes are replaced by their limits (the computational basis).
_DEGENERATE_SLOPE_TOL = 1e-150


@dataclass(frozen=True)
class DephasedSpectrum:
    """Eigenvalues of the dephased thermal state plus eigenvector data.

    etas holds (eta1, eta2, eta3, eta4): the {|01>,|10>} pair first
    (minus, plus), then the {|00>,|11>} pair (minus, plus).  xi1 pairs with
    eta4 and xi2 with eta3: each is the |00>-amplitude slope of the
    eigenvector (xi_i, 0, 0, 1)/sqrt(zeta_i), with zeta_i = xi_i^2 + 1.
    A slope of +-inf encodes the |00> basis vector (degenerate limit).
    """

    etas: np.ndarray
    xi1: float
    xi2: float
    zeta1: float
    zeta2: float

    def vectors(self) -> np.ndarray:
        """Eigenvector matrix; column i belongs to etas[i]."""
        ort = 1.0 / math.sqrt(2.0)
        cols = np.zeros((4, 4))
        cols[:, 0] = (0.0, ort, -ort, 0.0)
        cols[:, 1] = (0.0, ort, ort, 0.0)
        for col, (xi, zeta) in ((2, (self.xi2, self.zeta2)), (3, (self.xi1, self.zeta1))):
            if math.isinf(xi):
                cols[0, col] = 1.0
            else:
                norm = math.sqrt(zeta)
                cols[0, col] = xi / norm
                cols[3, col] = 1.0 / norm
        return cols


@dataclass(frozen=True)
class DephasedPTSpectrum:
    """Partial-transpose eigenvalues of the dephased state.

    es holds (e1, e2, e3, e4): the {|00>,|11>} pair of the transposed
    matrix first, then the {|01>,|10>} pair.  p_aux stores the published
    radicand P when variant is as_printed (NaN otherwise).
    """

    es: np.ndarray
    p_aux: float


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
    p: ModelParams, gamma: float, variant: str = "corrected"
) -> DephasedSpectrum:
    """Closed-form eigensystem of the dephased thermal state.

    corrected: eta1,2 = a2 -+ (1-gamma)*v and the exact {|00>,|11>} block
    pair; slopes xi1 (with eta4) and xi2 (with eta3) from
    (+-R - 2B)/((1-gamma)*r1) with R = sqrt(4B^2 + r1^2(1-gamma)^2), and
    normalizers zeta_i = xi_i^2 + 1.  When r1*(1-gamma) underflows the
    block is diagonal and the slopes collapse to the computational basis.

    as_printed: the published forms verbatim.  eta1,2 carry a spurious
    global (1-gamma) and a cosh-contaminated radical in place of
    sinh(beta*r2); eta3,4 agree with corrected.  The published xi2 radicand
    4B^2 - r1^2(1-gamma)^2 can go negative, in which case xi2 and zeta2 are
    NaN; both published zetas carry an extra square root, which breaks
    normalization.  Slopes are NaN when r1*(1-gamma) vanishes (the printed
    quotient is undefined there).
    """
    gamma = _check_gamma(gamma)
    state, _ = thermal_state_closed(p, "corrected")
    s = derived_scales(p)
    one_mg = 1.0 - gamma
    r1g = s.r1 * one_mg
    big_r = math.hypot(2.0 * p.b, r1g)

    if variant == "corrected":
        v_dc = one_mg * state.v
        eta3, eta4 = block_pair(state.a1, state.a4, one_mg * state.u)
        etas = np.array([state.a2 - v_dc, state.a2 + v_dc, eta3, eta4])
        if r1g > _DEGENERATE_SLOPE_TOL:
            xi1 = (big_r - 2.0 * p.b) / r1g
            xi2 = -(big_r + 2.0 * p.b) / r1g
        elif p.b >= 0.0:
            xi1, xi2 = 0.0, -math.inf
        else:
            xi1, xi2 = math.inf, 0.0
        zeta1 = xi1 * xi1 + 1.0 if math.isfinite(xi1) else math.inf
        zeta2 = xi2 * xi2 + 1.0 if math.isfinite(xi2) else math.inf
        return DephasedSpectrum(etas=etas, xi1=xi1, xi2=xi2, zeta1=zeta1, zeta2=zeta2)

    if variant != "as_printed":
        raise ValueError(f"variant must be 'corrected' or 'as_printed', got {variant!r}")
    beta, z = s.beta, s.z
    ch2 = math.cosh(beta * s.r2)
    sh2 = math.sinh(beta * s.r2)
    ch3 = math.cosh(beta * s.r3)
    sr3 = _sinh_ratio(beta, s.r3)
    chi = math.hypot(2.0 * p.dz * ch2, (p.jx + p.jy) * sh2)
    ratio = chi / s.r2 if s.r2 > 0.0 else 0.0
    pref = math.exp(beta * p.jz) * one_mg / z
    emj = math.exp(-beta * p.jz)
    etas = np.array(
        [
            pref * (ch2 - ratio),
            pref * (ch2 + ratio),
            emj * (ch3 - sr3 * big_r) / z,
            emj * (ch3 + sr3 * big_r) / z,
        ]
    )
    denom = s.r1 * (gamma - 1.0)
    if denom != 0.0:
        xi1 = (2.0 * p.b - big_r) / denom
        rad2 = 4.0 * p.b * p.b - r1g * r1g
        xi2 = (2.0 * p.b - math.sqrt(rad2)) / denom if rad2 >= 0.0 else math.nan
    else:
        xi1 = math.nan
        xi2 = math.nan
    zeta1 = math.sqrt(xi1 * xi1 + 1.0) if math.isfinite(xi1) else math.nan
    zeta2 = math.sqrt(xi2 * xi2 + 1.0) if math.isfinite(xi2) else math.nan
    return DephasedSpectrum(etas=etas, xi1=xi1, xi2=xi2, zeta1=zeta1, zeta2=zeta2)


def dephased_pt_eigen_closed(
    p: ModelParams, gamma: float, variant: str = "corrected"
) -> DephasedPTSpectrum:
    """Closed-form partial-transpose eigenvalues of the dephased state.

    corrected: the transpose swaps the two coherences, so
    e1,2 = (a1+a4)/2 -+ sqrt((a1-a4)^2/4 + (1-gamma)^2 v^2) and
    e3,4 = a2 -+ (1-gamma)*u.

    as_printed: the published forms with
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
    state, _ = thermal_state_closed(p, "corrected")
    one_mg = 1.0 - gamma

    if variant == "corrected":
        e1, e2 = block_pair(state.a1, state.a4, one_mg * state.v)
        u_dc = one_mg * state.u
        es = np.array([e1, e2, state.a2 - u_dc, state.a2 + u_dc])
        return DephasedPTSpectrum(es=es, p_aux=math.nan)

    if variant != "as_printed":
        raise ValueError(f"variant must be 'corrected' or 'as_printed', got {variant!r}")
    s = derived_scales(p)
    if s.r2 == 0.0 or s.r3 == 0.0:
        raise ValueError("as_printed dephased e1/e2 are singular at r2*r3 = 0")
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
    es = np.array(
        [
            emj * (ch3 - math.sqrt(p_rad) / rr) / z,
            emj * (ch3 + p_rad / rr) / z,
            one_mg * (ej * ch2 - emj * s.r1 * sh3 / s.r3) / z,
            one_mg * (ej * ch2 + emj * s.r1 * sh3 / s.r3) / z,
        ]
    )
    return DephasedPTSpectrum(es=es, p_aux=p_rad)
