"""Closed-form production engine: parameters, input checks and the triple.

``qcorr compute``, ``sweep`` and ``figures`` need nothing beyond this
module, and it imports only the standard library, so those commands start
without loading numpy.  It holds the model parameters, the error classes
and argument checks shared with the dense layers (``model``,
``numkernel``, ``quantifiers``, ``decoherence``), and the closed forms of
negativity, LQU and LQFI of the thermal (optionally dephased) state on
the canonical X-state, in two stages: the state stage
``canonical_state`` turns the seven couplings into Boltzmann weights and
block quantities, and the quantifier stage ``state_triple`` applies the
dephasing and evaluates the three quantifiers.  ``canonical_triple`` is
their composition.  The dense route in ``quantifiers.correlations`` is
the reference it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "NotHermitianError",
    "NotPSDError",
    "ModelParams",
    "CorrelationTriple",
    "CanonicalState",
    "CONVENTIONS",
    "canonical_state",
    "state_triple",
    "canonical_triple",
]

CONVENTIONS = ("halved", "doubled")

# The smallest positive float: a subnormal temperature that the overflow
# rescaling of ``canonical_state`` would round to zero stays at this.
_TINY = math.ulp(0.0)


class NotHermitianError(ValueError):
    """Input matrix deviates from its conjugate transpose beyond tolerance."""


class NotPSDError(ValueError):
    """Input matrix has an eigenvalue below the PSD clamp tolerance."""


def _finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _check_param(name: str, value: float) -> float:
    """A model parameter as a float: finite, and > 0 for the temperature t."""
    value = _finite(value, name)
    if name == "t" and value <= 0.0:
        raise ValueError(f"t must be > 0, got {value}")
    return value


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not math.isfinite(gamma) or not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma!r}")
    return gamma


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")


@dataclass(frozen=True)
class ModelParams:
    """Couplings, field and temperature of the two-qubit chain.

    jx, jy, jz : exchange couplings (energy units)
    dz         : DM interaction strength along z
    gz         : KSEA interaction strength along z
    b          : magnetic field along z
    t          : temperature (energy units, k_B = 1), strictly positive
    """

    jx: float
    jy: float
    jz: float
    dz: float
    gz: float
    b: float
    t: float

    def __post_init__(self) -> None:
        for name in ("jx", "jy", "jz", "dz", "gz", "b", "t"):
            object.__setattr__(self, name, _check_param(name, getattr(self, name)))


@dataclass(frozen=True)
class CorrelationTriple:
    """Negativity, LQU and LQFI of one state, in that order."""

    negativity: float
    lqu: float
    lqfi: float


def _block_root(a: float, b: float, s: float, coh: float) -> tuple[float, float, float]:
    """sqrt of the PSD block [[a, coh], [coh, b]] as (diagonal a, diagonal b, off).

    s is sqrt(det); sqrt(M) = (M + s*I)/sqrt(tr M + 2s) (Higham, Functions
    of Matrices, 2008).  An empty block (a = b = 0) has the zero root.
    """
    t = math.sqrt(a + b + 2.0 * s)
    if t == 0.0:
        return 0.0, 0.0, 0.0
    return (a + s) / t, (b + s) / t, coh / t


def _fisher_pair(a: float, b: float) -> float:
    """(a - b)^2 / (a + b) for eigenvalues a, b >= 0; 0 when both vanish."""
    total = a + b
    return (a - b) * ((a - b) / total) if total > 0.0 else 0.0


class CanonicalState(NamedTuple):
    """The thermal state in canonical X form, as the state stage returns it.

    Block A is {|00>, |11>}, block B {|01>, |10>}.  m_a, m_b are each
    block's half-sum of weights; det_a, det_b the product of its two
    weights and root_a, root_b that product's square root; u0 and d_b the
    A and B coherences before dephasing; pop_lo, pop_hi the smaller and
    larger of the A populations a1, a4, and delta half their difference.
    """

    m_a: float
    m_b: float
    d_b: float
    u0: float
    delta: float
    pop_lo: float
    pop_hi: float
    det_a: float
    det_b: float
    root_a: float
    root_b: float


def canonical_state(
    jx: float, jy: float, jz: float, dz: float, gz: float, b: float, t: float
) -> CanonicalState:
    """State stage: the canonical thermal state at seven checked couplings.

    The four levels jz -+ r3 (block A) and -jz -+ r2 (block B) are
    exponentiated relative to the lowest level, so no finite input
    overflows.  Each block has the half-sum m and half-difference d of its
    two weights; then u0 = d_A*r1/r3, a2 = a3 = m_B, and a1, a4 weigh block
    A's lower and upper level by (1 -+ 2b/r3)/2 and (1 +- 2b/r3)/2, the
    small factor written as (r1/r3)*(r1/(r3 + 2|b|)) to keep its relative
    accuracy.  The inputs are not validated: ``ModelParams`` (or the sweep's
    per-point check) does that.

    Couplings near the float maximum can overflow 2*r2, 2*r3 or the gap
    between the blocks' lowest levels.  The state depends on H/T only, so
    it is then evaluated at all seven inputs divided by 32: the checked sum
    stays below 18 times the float maximum, so one rescaling makes it
    finite, and the divisions are exact outside the subnormal range.
    """
    r1 = math.hypot(2.0 * gz, jx - jy)
    r2 = math.hypot(2.0 * dz, jx + jy)
    r3 = math.hypot(2.0 * gz, 2.0 * b, jx - jy)
    low_a, low_b = jz - r3, -jz - r2
    if not 2.0 * (r2 + r3) + abs(low_a - low_b) < math.inf:
        s = 1.0 / 32.0
        return canonical_state(
            jx * s, jy * s, jz * s, dz * s, gz * s, b * s, max(t * s, _TINY)
        )
    floor = min(low_a, low_b)
    g_a = math.exp(-(low_a - floor) / t)
    g_b = math.exp(-(low_b - floor) / t)
    e_a, e_b = -2.0 * r3 / t, -2.0 * r2 / t
    x_a, x_b = math.exp(e_a), math.exp(e_b)
    z = g_a * (1.0 + x_a) + g_b * (1.0 + x_b)
    # Each block's (lower-level, upper-level) weights, half-sum, half-difference.
    wa0, wa1 = g_a / z, g_a * x_a / z
    wb0, wb1 = g_b / z, g_b * x_b / z
    d_a = -g_a * math.expm1(e_a) / (2.0 * z)
    d_b = -g_b * math.expm1(e_b) / (2.0 * z)

    if r3 > 0.0:
        ratio = r1 / r3
        small = ratio * (r1 / (r3 + 2.0 * abs(b)))  # 1 - 2|b|/r3
        big = 1.0 + 2.0 * abs(b) / r3
        delta = d_a * (2.0 * abs(b) / r3)  # |a1 - a4| / 2
    else:
        ratio, small, big, delta = 0.0, 1.0, 1.0, 0.0
    # Positional: keyword arguments would double the cost of this call.
    return CanonicalState(
        (wa0 + wa1) / 2.0,  # m_a
        (wb0 + wb1) / 2.0,  # m_b
        d_b,
        d_a * ratio,  # u0
        delta,
        (wa0 * small + wa1 * big) / 2.0,  # pop_lo = min(a1, a4)
        (wa0 * big + wa1 * small) / 2.0,  # pop_hi = max(a1, a4)
        wa0 * wa1,  # det_a
        wb0 * wb1,  # det_b
        math.sqrt(wa0) * math.sqrt(wa1),  # root_a
        math.sqrt(wb0) * math.sqrt(wb1),  # root_b
    )


def state_triple(
    state: CanonicalState,
    gamma: float | None = None,
    convention: str = "halved",
) -> tuple[float, float, float]:
    """Quantifier stage: (negativity, LQU, LQFI) of a canonical state.

    Dephasing scales the coherences u0 and d_b by (1 - gamma); a block's
    determinant is then its weight product plus gamma*(2 - gamma)*coh^2,
    and its small eigenvalue is det/lam_plus.

    LQU (Girolami, Tufarelli & Adesso, PRL 110, 240402 (2013)) and LQFI
    (Kim, Li, Kumar & Wu, PRA 97, 032326 (2018)) both reduce to the
    smallest diagonal entry of 1 - W and 1 - M, which are diagonal in
    canonical form.  Each entry is kept as a sum of non-negative terms
    instead of 1 minus a large number:

    * LQU = min(4(q^2 + r^2), (p1 - p2)^2 + (p4 - p2)^2 + 2(q - r)^2) from
      sqrt(rho) = [[p1, q], [q, p4]] + [[p2, r], [r, p2]] (the y entry never
      wins for q, r >= 0);
    * LQFI = min over x, y, z of sum (lam_m - lam_n)^2/(2(lam_m + lam_n))
      * |sigma_mn|^2.  For z only within-block pairs count and the sum is
      2u^2/m_A + 2v^2/m_B exactly.  x pairs the blocks, the (plus, plus)
      and (minus, minus) pairs with weight (1 + sin 2theta_A)/2 and the
      crossed ones with (1 - sin 2theta_A)/2, the latter written as
      delta^2/(2h(h + u)) to avoid cancellation.  y swaps the two weights
      and never wins: 2ab/(a + b) is supermodular, so the crossed pairs
      carry the larger sum.

    A block whose weight underflows to zero contributes nothing.
    """
    _check_convention(convention)
    keep, spread = 1.0, 0.0
    if gamma is not None:
        g = _check_gamma(gamma)
        keep, spread = 1.0 - g, g * (2.0 - g)
    m_a, m_b, d_b, u0, delta, pop_lo, pop_hi, det_a, det_b, root_a, root_b = state
    u, v = keep * u0, keep * d_b

    # Eigenvalues: lam_a, lam_b the larger of each block, mu_a, mu_b the smaller.
    h = math.hypot(delta, u)
    det_a += spread * u0 * u0
    det_b += spread * d_b * d_b
    lam_a = m_a + h
    lam_b = m_b + v
    mu_a = det_a / lam_a if lam_a > 0.0 else 0.0
    mu_b = det_b / lam_b if lam_b > 0.0 else 0.0

    neg = max(0.0, math.hypot(delta, v) - m_a) + max(0.0, u - m_b)
    if convention == "doubled":
        neg *= 2.0

    s_a = math.hypot(root_a, math.sqrt(spread) * u0)
    s_b = math.hypot(root_b, math.sqrt(spread) * d_b)
    p1, p4, q = _block_root(pop_lo, pop_hi, s_a, u)
    p2, _, r = _block_root(m_b, m_b, s_b, v)
    # The exact LQU never exceeds 1; at nearly pure states the rounded sums
    # can reach 1 + 2^-52 (13 of 300k random extreme inputs), which the
    # bound removes.
    lqu_value = min(
        1.0,
        4.0 * (q * q + r * r),
        (p1 - p2) ** 2 + (p4 - p2) ** 2 + 2.0 * (q - r) ** 2,
    )

    if h > 0.0:
        w_same, w_cross = (1.0 + u / h) / 2.0, (delta / h) * (delta / (h + u)) / 2.0
    else:
        w_same = w_cross = 0.5
    same = _fisher_pair(lam_a, lam_b) + _fisher_pair(mu_a, mu_b)
    cross = _fisher_pair(lam_a, mu_b) + _fisher_pair(mu_a, lam_b)
    f_z = (2.0 * u * (u / m_a) if m_a > 0.0 else 0.0) + (
        2.0 * v * (v / m_b) if m_b > 0.0 else 0.0
    )
    lqfi_value = min(w_same * same + w_cross * cross, f_z)
    return neg, lqu_value, lqfi_value


def canonical_triple(
    p: ModelParams,
    gamma: float | None = None,
    convention: str = "halved",
) -> CorrelationTriple:
    """All three quantifiers of the thermal state in closed form.

    Production route of sweeps and ``qcorr compute``; ``correlations`` is
    the dense reference.  The state is taken in canonical X form (both
    coherences real and >= 0), which local unitaries reach, so all three
    values are those of the dense state.  It is the composition of the two
    stages: ``canonical_state`` builds the Boltzmann weights and block
    quantities of ``p``, and ``state_triple`` dephases them by ``gamma``
    and evaluates negativity, LQU and LQFI.  A sweep over gamma runs the
    state stage once per series.
    """
    state = canonical_state(p.jx, p.jy, p.jz, p.dz, p.gz, p.b, p.t)
    return CorrelationTriple(*state_triple(state, gamma, convention))
