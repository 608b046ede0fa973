"""Two-qubit XYZ Heisenberg chain with z-axis DM and KSEA couplings in a field.

The model lives in the product basis {|00>, |01>, |10>, |11>} with natural
units (hbar = k_B = 1, beta = 1/T).  Two routes produce the thermal Gibbs
state:

* an oracle route (eigendecomposition of the Hamiltonian, robust for any
  finite parameters), and
* closed-form matrix elements, available in two variants.  ``corrected``
  follows from the 2x2 block exponentials and matches the oracle to machine
  precision.  ``as_printed`` evaluates the published form of the same
  elements verbatim; a few of those carry typos (a cosh that should be a
  sinh, a stray sqrt(2)), and keeping them callable is what lets the audit
  module quantify each discrepancy instead of silently fixing it.

The thermal state is always of X shape: the only nonzero off-diagonal
entries connect |00> with |11> and |01> with |10>.  Local phase rotations on
each qubit remove the phases of those two coherences, so every quantifier
downstream only ever needs the populations and the coherence magnitudes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .engine import ModelParams, NotHermitianError, NotXStateError
from .numkernel import gibbs_exp

__all__ = [
    "NotXStateError",
    "ModelParams",
    "DerivedScales",
    "XState",
    "PhaseInfo",
    "XSpectrum",
    "build_hamiltonian",
    "closed_spectrum",
    "derived_scales",
    "thermal_state_oracle",
    "thermal_state_closed",
    "remove_phases",
    "x_eigenvalues",
    "block_pair",
    "X_STRUCTURE_TOL",
    "VARIANTS",
]

X_STRUCTURE_TOL = 1e-12
VARIANTS = ("corrected", "as_printed")

# Off-diagonal index pairs that must vanish for an X-shaped operator.
_NON_X_ENTRIES = ((0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2))


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


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


@dataclass(frozen=True)
class XState:
    """Canonical (phase-free) X-state: populations plus coherence magnitudes.

    a1..a4 are the populations of |00>, |01>, |10>, |11>; u = |rho_14| links
    |00> and |11>, v = |rho_23| links |01> and |10>.
    """

    a1: float
    a2: float
    a3: float
    a4: float
    u: float
    v: float

    def __post_init__(self) -> None:
        pops = (self.a1, self.a2, self.a3, self.a4)
        total = sum(pops)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"populations must sum to 1, got {total!r}")
        if min(pops) < -1e-12:
            raise ValueError(f"negative population: {min(pops)!r}")
        if self.u < 0.0 or self.v < 0.0:
            raise ValueError("coherence magnitudes must be >= 0")
        if self.u * self.u > self.a1 * self.a4 + 1e-12:
            raise ValueError("u^2 exceeds a1*a4: |00>/|11> block not PSD")
        if self.v * self.v > self.a2 * self.a3 + 1e-12:
            raise ValueError("v^2 exceeds a2*a3: |01>/|10> block not PSD")

    def to_matrix(self, phases: "PhaseInfo | None" = None) -> np.ndarray:
        """Assemble the 4x4 density matrix, optionally restoring phases."""
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0], mat[1, 1], mat[2, 2], mat[3, 3] = self.a1, self.a2, self.a3, self.a4
        c14 = self.u * cmath.exp(1j * phases.phi14) if phases else complex(self.u)
        c23 = self.v * cmath.exp(1j * phases.phi23) if phases else complex(self.v)
        mat[0, 3] = c14
        mat[3, 0] = c14.conjugate()
        mat[1, 2] = c23
        mat[2, 1] = c23.conjugate()
        return mat


@dataclass(frozen=True)
class PhaseInfo:
    """Coherence phases removed by the local unitary, each in (-pi, pi]."""

    phi14: float
    phi23: float


@dataclass(frozen=True)
class XSpectrum:
    """Eigenvalues of an X-state; xi is a diagnostic scalar (audit only).

    The corrected variant fills xi with NaN (it has no role there); the
    as_printed variant stores the published xi auxiliary so audits can see
    the quantity that actually entered eta1 and eta2.
    """

    eta1: float
    eta2: float
    eta3: float
    eta4: float
    xi: float

    def etas(self) -> np.ndarray:
        return np.array([self.eta1, self.eta2, self.eta3, self.eta4])


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


def thermal_state_closed(
    p: ModelParams, variant: str = "corrected"
) -> tuple[XState, PhaseInfo]:
    """Closed-form thermal state elements as (XState, PhaseInfo).

    Populations are the same in both variants.  The |00>/|11> coherence is
    u = r1 * exp(-beta*jz) * sinh(beta*r3) / (r3*Z) in both.  The |01>/|10>
    coherence differs:

    * corrected: v = exp(beta*jz) * sinh(beta*r2) / Z, phase from
      -(jx+jy) + 2i*dz — this is what the block exponential gives;
    * as_printed: v carries a cosh^2 term under the radical,
      sqrt(4*dz^2*cosh^2 + (jx+jy)^2*sinh^2)/r2, which only agrees with the
      oracle at dz = 0.

    The as_printed phase of the |00>/|11> coherence also flips the sign of
    its imaginary part; magnitudes agree either way.
    """
    _check_variant(variant)
    s = derived_scales(p)
    beta, z = s.beta, s.z
    ej = math.exp(beta * p.jz)
    emj = math.exp(-beta * p.jz)
    ch2 = math.cosh(beta * s.r2)
    sh2 = math.sinh(beta * s.r2)
    ch3 = math.cosh(beta * s.r3)
    sr3 = _sinh_ratio(beta, s.r3)

    a1 = emj * (ch3 - 2.0 * p.b * sr3) / z
    a4 = emj * (ch3 + 2.0 * p.b * sr3) / z
    a2 = ej * ch2 / z
    u = s.r1 * emj * sr3 / z

    if variant == "corrected":
        v = ej * sh2 / z
        phi14 = _principal_angle(complex(-(p.jx - p.jy), -2.0 * p.gz))
        phi23 = _principal_angle(complex(-(p.jx + p.jy), 2.0 * p.dz))
    else:
        if s.r2 > 0.0:
            v = ej * math.hypot(2.0 * p.dz * ch2, (p.jx + p.jy) * sh2) / (s.r2 * z)
        else:
            v = 0.0
        phi14 = _principal_angle(complex(-(p.jx - p.jy), 2.0 * p.gz))
        phi23 = _principal_angle(complex(-(p.jx + p.jy) * sh2, 2.0 * p.dz * ch2))

    if u == 0.0:
        phi14 = 0.0
    if v == 0.0:
        phi23 = 0.0
    return XState(a1=a1, a2=a2, a3=a2, a4=a4, u=u, v=v), PhaseInfo(phi14, phi23)


def remove_phases(rho: np.ndarray) -> tuple[XState, PhaseInfo]:
    """Strip coherence phases from an X-shaped density matrix.

    The returned XState is the canonical form reached by the diagonal local
    unitary that rotates both coherences onto the positive real axis; the
    PhaseInfo records the removed phases (each in (-pi, pi]).  Populations
    are untouched.
    """
    arr = np.asarray(rho, dtype=complex)
    if arr.shape != (4, 4):
        raise ValueError(f"rho must be 4x4, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("rho contains non-finite entries")
    herm_dev = float(np.max(np.abs(arr - arr.conj().T)))
    if herm_dev > 1e-10:
        raise NotHermitianError(
            f"rho is not Hermitian: max |rho - rho^H| = {herm_dev:.3e}"
        )
    worst = 0.0
    worst_idx = (0, 1)
    for i, j in _NON_X_ENTRIES:
        mag = abs(arr[i, j])
        if mag > worst:
            worst, worst_idx = mag, (i, j)
    if worst > X_STRUCTURE_TOL:
        raise NotXStateError(
            f"entry {worst_idx} has magnitude {worst:.3e} > {X_STRUCTURE_TOL:.1e}; "
            "not an X-state"
        )
    state = XState(
        a1=arr[0, 0].real,
        a2=arr[1, 1].real,
        a3=arr[2, 2].real,
        a4=arr[3, 3].real,
        u=abs(arr[0, 3]),
        v=abs(arr[1, 2]),
    )
    phases = PhaseInfo(
        phi14=_principal_angle(arr[0, 3]) if abs(arr[0, 3]) > 0.0 else 0.0,
        phi23=_principal_angle(arr[1, 2]) if abs(arr[1, 2]) > 0.0 else 0.0,
    )
    return state, phases


def x_eigenvalues(
    x: XState,
    scales: DerivedScales | None = None,
    variant: str = "corrected",
    params: ModelParams | None = None,
) -> XSpectrum:
    """Eigenvalues of an X-state.

    corrected: exact 2x2 block eigenvalues of the assembled matrix —
    eta1,2 from the {|01>,|10>} block, eta3,4 from the {|00>,|11>} block,
    each pair ordered (minus, plus).  Works for any XState and needs
    neither ``scales`` nor ``params``.

    as_printed: evaluates the published eta expressions, whose eta1,2 use
    the auxiliary xi = sqrt(4*dz^2 - (jx+jy)^2 + r2^2*cosh(2*beta*r2));
    that xi is too large by a factor sqrt(2) (and carries the cosh/sinh
    mixup), which the audit quantifies.  This variant needs both ``scales``
    and ``params`` because xi and the exp(-beta*(r3 +- jz)) pair are not
    functions of the XState alone.
    """
    _check_variant(variant)
    if variant == "corrected":
        eta1, eta2 = block_pair(x.a2, x.a3, x.v)
        eta3, eta4 = block_pair(x.a1, x.a4, x.u)
        return XSpectrum(eta1=eta1, eta2=eta2, eta3=eta3, eta4=eta4, xi=math.nan)
    if scales is None or params is None:
        raise ValueError("as_printed x_eigenvalues needs both scales and params")
    beta, z, r2, r3 = scales.beta, scales.z, scales.r2, scales.r3
    ej = math.exp(beta * params.jz)
    ch2 = math.cosh(beta * r2)
    jxy = params.jx + params.jy
    # The argument is >= 8*dz^2 in exact arithmetic; clamp roundoff dust.
    xi = math.sqrt(
        max(4.0 * params.dz**2 - jxy**2 + r2 * r2 * math.cosh(2.0 * beta * r2), 0.0)
    )
    ratio = xi / r2 if r2 > 0.0 else 0.0
    return XSpectrum(
        eta1=ej * (ch2 - ratio) / z,
        eta2=ej * (ch2 + ratio) / z,
        eta3=math.exp(-beta * (r3 + params.jz)) / z,
        eta4=math.exp(-beta * (r3 - params.jz)) / z,
        xi=xi,
    )
