"""Two-qubit XYZ Heisenberg chain with z-axis DM and KSEA couplings in a field.

The model lives in the product basis {|00>, |01>, |10>, |11>} with natural
units (hbar = k_B = 1, beta = 1/T).  The Hamiltonian, its closed-form
spectrum and the oracle Gibbs state (eigendecomposition of the Hamiltonian,
robust for any finite parameters) are the first-principles reference.

``thermal_state_closed`` and ``x_eigenvalues`` evaluate the published
closed forms of the thermal state's elements and eigenvalues verbatim.  A
few of them carry misprints (a cosh that should be a sinh, a stray
sqrt(2), a flipped sign), and keeping them as printed is what lets the
audit module quantify each discrepancy instead of silently fixing it.
The production closed form is ``engine.canonical_state``.

The thermal state is always of X shape: the only nonzero off-diagonal
entries connect |00> with |11> and |01> with |10>.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import ModelParams
from .numkernel import gibbs_exp

__all__ = [
    "ModelParams",
    "DerivedScales",
    "PrintedState",
    "build_hamiltonian",
    "closed_spectrum",
    "derived_scales",
    "thermal_state_oracle",
    "thermal_state_closed",
    "x_eigenvalues",
    "block_pair",
]


@dataclass(frozen=True)
class DerivedScales:
    """Energy scales and partition function derived from ModelParams.

    r1 = sqrt(4*gz^2 + (jx-jy)^2)        couples to the |00>/|11> coherence
    r2 = sqrt(4*dz^2 + (jx+jy)^2)        couples to the |01>/|10> block
    r3 = sqrt(4*gz^2 + 4*b^2 + (jx-jy)^2) spread of the |00>/|11> block
    z      : partition function
    beta   : inverse temperature
    """

    r1: float
    r2: float
    r3: float
    z: float
    beta: float


class PrintedState(NamedTuple):
    """Published thermal elements: populations, coherence magnitudes, phases.

    a1, a2 (= a3), a4 are the populations of |00>, |01> (and |10>), |11>;
    u = |rho_14| with phase phi14 and v = |rho_23| with phase phi23, each
    phase in (-pi, pi] and zero where its coherence vanishes.
    """

    a1: float
    a2: float
    a4: float
    u: float
    v: float
    phi14: float
    phi23: float


def _principal_angle(z: complex) -> float:
    """Phase of z in (-pi, pi]; zero for z == 0."""
    phi = cmath.phase(z)
    if phi <= -math.pi:
        phi += 2.0 * math.pi
    return phi


def _sinh_ratio(beta: float, r: float) -> float:
    """sinh(beta*r)/r with the removable singularity at r -> 0 handled.

    Below |beta*r| < 1e-6 the series sinh(x)/x = 1 + x^2/6 + O(x^4) is exact
    to double precision.
    """
    x = beta * r
    if abs(x) < 1e-6:
        return beta * (1.0 + x * x / 6.0)
    return math.sinh(x) / r


def block_pair(p00: float, p11: float, coh: float) -> tuple[float, float]:
    """Eigenvalues (minus, plus) of the 2x2 block [[p00, coh], [coh, p11]]."""
    mid = (p00 + p11) / 2.0
    half = math.hypot((p00 - p11) / 2.0, coh)
    return mid - half, mid + half


def build_hamiltonian(p: ModelParams) -> np.ndarray:
    """Hamiltonian matrix in the product basis {|00>, |01>, |10>, |11>}.

    The diagonal carries the field and the zz exchange; the DM term sits on
    the |01>/|10> block (imaginary part 2*dz) and the KSEA term on the
    |00>/|11> block (imaginary part 2*gz).  Hermitian by construction.
    """
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = 2.0 * p.b + p.jz
    h[1, 1] = -p.jz
    h[2, 2] = -p.jz
    h[3, 3] = p.jz - 2.0 * p.b
    h[2, 1] = complex(p.jx + p.jy, 2.0 * p.dz)
    h[1, 2] = h[2, 1].conjugate()
    h[0, 3] = complex(p.jx - p.jy, 2.0 * p.gz)
    h[3, 0] = h[0, 3].conjugate()
    return h


def closed_spectrum(p: ModelParams) -> np.ndarray:
    """Hamiltonian eigenvalues {-jz+m1, -jz-m1, jz+m2, jz-m2} (fixed order).

    m1 = sqrt(4*dz^2 + (jx+jy)^2), m2 = sqrt(4*b^2 + 4*gz^2 + (jx-jy)^2).
    """
    m1 = math.hypot(2.0 * p.dz, p.jx + p.jy)
    m2 = math.hypot(2.0 * p.gz, 2.0 * p.b, p.jx - p.jy)
    return np.array([-p.jz + m1, -p.jz - m1, p.jz + m2, p.jz - m2])


def derived_scales(p: ModelParams) -> DerivedScales:
    """Energy scales r1, r2, r3 and the partition function."""
    r1 = math.hypot(2.0 * p.gz, p.jx - p.jy)
    r2 = math.hypot(2.0 * p.dz, p.jx + p.jy)
    r3 = math.hypot(2.0 * p.gz, 2.0 * p.b, p.jx - p.jy)
    beta = 1.0 / p.t
    z = 2.0 * math.exp(beta * p.jz) * math.cosh(beta * r2) + 2.0 * math.exp(
        -beta * p.jz
    ) * math.cosh(beta * r3)
    return DerivedScales(r1=r1, r2=r2, r3=r3, z=z, beta=beta)


def thermal_state_oracle(p: ModelParams) -> np.ndarray:
    """Gibbs state exp(-beta*H)/Z by eigendecomposition (the ground truth).

    Robust for any finite parameters (the spectrum is shifted before
    exponentiating) and exactly X-shaped up to roundoff, because the
    Hamiltonian never mixes the {|00>,|11>} and {|01>,|10>} sectors.
    """
    return gibbs_exp(build_hamiltonian(p), 1.0 / p.t)


def thermal_state_closed(p: ModelParams) -> PrintedState:
    """The published thermal state elements, verbatim.

    Populations and the |00>/|11> coherence u = r1 * exp(-beta*jz) *
    sinh(beta*r3) / (r3*Z) are exact.  The |01>/|10> coherence carries a
    cosh^2 term under the radical, sqrt(4*dz^2*cosh^2 + (jx+jy)^2*sinh^2)/r2,
    which only agrees with the oracle at dz = 0 (exact: sinh(beta*r2)).
    The printed phase of the |00>/|11> coherence flips the sign of its
    imaginary part; its magnitude is unaffected.
    """
    s = derived_scales(p)
    beta, z = s.beta, s.z
    ej = math.exp(beta * p.jz)
    emj = math.exp(-beta * p.jz)
    ch2 = math.cosh(beta * s.r2)
    sh2 = math.sinh(beta * s.r2)
    ch3 = math.cosh(beta * s.r3)
    sr3 = _sinh_ratio(beta, s.r3)

    u = s.r1 * emj * sr3 / z
    if s.r2 > 0.0:
        v = ej * math.hypot(2.0 * p.dz * ch2, (p.jx + p.jy) * sh2) / (s.r2 * z)
    else:
        v = 0.0
    phi14 = _principal_angle(complex(-(p.jx - p.jy), 2.0 * p.gz)) if u != 0.0 else 0.0
    phi23 = (
        _principal_angle(complex(-(p.jx + p.jy) * sh2, 2.0 * p.dz * ch2))
        if v != 0.0
        else 0.0
    )
    return PrintedState(
        a1=emj * (ch3 - 2.0 * p.b * sr3) / z,
        a2=ej * ch2 / z,
        a4=emj * (ch3 + 2.0 * p.b * sr3) / z,
        u=u,
        v=v,
        phi14=phi14,
        phi23=phi23,
    )


def x_eigenvalues(
    p: ModelParams, scales: DerivedScales
) -> tuple[float, float, float, float, float]:
    """The published thermal eigenvalues, verbatim, as (eta1..eta4, xi).

    eta1, eta2 belong to the {|01>,|10>} block and use the auxiliary
    xi = sqrt(4*dz^2 - (jx+jy)^2 + r2^2*cosh(2*beta*r2)); that xi is too
    large by a factor sqrt(2) (and carries the cosh/sinh mixup).  eta3,
    eta4 = exp(-beta*(r3 +- jz))/Z belong to the {|00>,|11>} block; the
    second has the sign of its exponent flipped.  ``scales`` are those of
    ``p``.  xi is returned so the audit can see the quantity that entered
    eta1 and eta2.
    """
    beta, z, r2, r3 = scales.beta, scales.z, scales.r2, scales.r3
    ej = math.exp(beta * p.jz)
    ch2 = math.cosh(beta * r2)
    jxy = p.jx + p.jy
    # The argument is >= 8*dz^2 in exact arithmetic; clamp roundoff dust.
    xi = math.sqrt(
        max(4.0 * p.dz**2 - jxy**2 + r2 * r2 * math.cosh(2.0 * beta * r2), 0.0)
    )
    ratio = xi / r2 if r2 > 0.0 else 0.0
    return (
        ej * (ch2 - ratio) / z,
        ej * (ch2 + ratio) / z,
        math.exp(-beta * (r3 + p.jz)) / z,
        math.exp(-beta * (r3 - p.jz)) / z,
        xi,
    )
