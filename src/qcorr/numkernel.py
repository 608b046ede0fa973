"""Dense linear-algebra kernel for 4x4 Hermitian and 3x3 symmetric matrices.

Everything downstream (thermal states, entanglement and discord-type
quantifiers) reduces to eigendecompositions of very small matrices.  A cyclic
Jacobi rotation scheme is used instead of a general LAPACK driver: at this
size it is accurate to machine precision, has no workspace heuristics, and is
branch-stable, so repeated runs produce bit-identical output.  Eigenvalues are
returned in ascending order; ties keep the order produced by the sweep
(stable sort), which keeps golden fixtures reproducible.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .engine import NotHermitianError, NotPSDError

__all__ = [
    "NotHermitianError",
    "NotPSDError",
    "EigResult",
    "hermitian_eig",
    "psd_sqrt",
    "gibbs_exp",
    "partial_transpose_first",
    "embed_pauli_first",
    "sym3_eig",
    "sym3_eig_max",
    "HERMITICITY_TOL",
    "PSD_CLAMP_TOL",
]

# Matrices are compared in the max-entry (infinity-like) norm throughout: the
# tolerances below are absolute bounds on single entries.
HERMITICITY_TOL = 1e-10
PSD_CLAMP_TOL = 1e-10

_SIGMA = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

_EYE2 = np.eye(2, dtype=complex)


class EigResult(NamedTuple):
    """Eigendecomposition: ``values`` ascending, ``vectors`` as columns."""

    values: np.ndarray
    vectors: np.ndarray


def _jacobi_eig(mat: list[list[complex]]) -> tuple[list[float], list[list[complex]]]:
    """Cyclic Jacobi diagonalization of a Hermitian matrix given as nested lists.

    Operates on plain Python complex scalars; at n <= 4 this is faster than
    dispatching dozens of tiny numpy kernels and keeps the rotation order
    (hence the result bits) fully deterministic.
    """
    n = len(mat)
    a = [row[:] for row in mat]
    v: list[list[complex]] = [
        [1.0 + 0.0j if i == j else 0.0 + 0.0j for j in range(n)] for i in range(n)
    ]
    scale = max(abs(a[i][j]) for i in range(n) for j in range(n))
    if scale == 0.0:
        return [0.0] * n, v
    stop = scale * 1e-15
    skip = scale * 1e-18

    for _ in range(60):
        off = max(abs(a[p][q]) for p in range(n - 1) for q in range(p + 1, n))
        if off <= stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                mag = abs(apq)
                if mag <= skip:
                    continue
                app = a[p][p].real
                aqq = a[q][q].real
                phase = apq / mag
                tau = (aqq - app) / (2.0 * mag)
                # Smaller-magnitude root of t^2 - 2*tau*t - 1 = 0.
                if tau >= 0.0:
                    t = -1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                sph = s * phase
                sphc = s * phase.conjugate()
                # A <- A U with U = [[c, -s*phase], [s*conj(phase), c]] on (p, q).
                for i in range(n):
                    aip = a[i][p]
                    aiq = a[i][q]
                    a[i][p] = c * aip + sphc * aiq
                    a[i][q] = c * aiq - sph * aip
                # A <- U^dagger A.
                for j in range(n):
                    apj = a[p][j]
                    aqj = a[q][j]
                    a[p][j] = c * apj + sph * aqj
                    a[q][j] = c * aqj - sphc * apj
                a[p][q] = 0.0 + 0.0j
                a[q][p] = 0.0 + 0.0j
                a[p][p] = complex(a[p][p].real, 0.0)
                a[q][q] = complex(a[q][q].real, 0.0)
                # V <- V U accumulates the eigenvectors.
                for i in range(n):
                    vip = v[i][p]
                    viq = v[i][q]
                    v[i][p] = c * vip + sphc * viq
                    v[i][q] = c * viq - sph * vip
    else:  # pragma: no cover - quadratic convergence makes this unreachable
        raise ArithmeticError("Jacobi sweep failed to converge in 60 sweeps")

    return [a[i][i].real for i in range(n)], v


def _as_square_complex(m: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def hermitian_eig(m: np.ndarray, tol: float = HERMITICITY_TOL) -> EigResult:
    """Eigendecomposition of a small Hermitian matrix.

    Parameters
    ----------
    m : ndarray
        Square complex matrix, Hermitian within ``tol`` in the max-entry norm.
    tol : float
        Largest tolerated entry of ``|m - m^H|``.

    Returns
    -------
    EigResult
        ``values`` (real, ascending) and ``vectors`` (orthonormal columns,
        ``vectors[:, k]`` belongs to ``values[k]``).

    Raises
    ------
    NotHermitianError
        If the Hermiticity deviation exceeds ``tol``.
    """
    arr = _as_square_complex(m, "m")
    dev = float(np.max(np.abs(arr - arr.conj().T)))
    if dev > tol:
        raise NotHermitianError(
            f"matrix is not Hermitian: max |m - m^H| = {dev:.3e} > {tol:.1e}"
        )
    sym = (arr + arr.conj().T) / 2.0
    vals, vecs = _jacobi_eig(sym.tolist())
    order = np.argsort(np.asarray(vals), kind="stable")
    values = np.asarray(vals, dtype=float)[order]
    vectors = np.asarray(vecs, dtype=complex)[:, order]
    return EigResult(values, vectors)


def psd_sqrt(m: np.ndarray, rel_dust: float = 0.0) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in ``[-1e-10, 0)`` are treated as numerical dust and clamped
    to zero; anything below that raises :class:`NotPSDError`.

    ``rel_dust`` additionally zeroes eigenvalues below ``rel_dust * max(values)``
    before taking the root.  An eigenvalue near the roundoff floor carries an
    absolute error of order machine epsilon, which the square root amplifies
    to ~1e-8; callers whose output is dominated by such amplified dust (the
    uncertainty quantifier is) pass a small positive ``rel_dust`` to trade
    that noise for a far smaller one-sided truncation bias.
    """
    values, vectors = hermitian_eig(m)
    if values[0] < -PSD_CLAMP_TOL:
        raise NotPSDError(
            f"matrix is not PSD: smallest eigenvalue {values[0]:.3e} < -{PSD_CLAMP_TOL:.1e}"
        )
    floor = rel_dust * values[-1] if values[-1] > 0.0 else 0.0
    clamped = np.where(values < max(floor, 0.0), 0.0, values)
    root = (vectors * np.sqrt(clamped)) @ vectors.conj().T
    return (root + root.conj().T) / 2.0


def gibbs_exp(h: np.ndarray, beta: float) -> np.ndarray:
    """Normalized matrix exponential ``exp(-beta*h) / Tr exp(-beta*h)``.

    The spectrum is shifted by its minimum before exponentiating, so the
    result stays finite for any inverse temperature ``beta >= 0``.
    """
    if not (isinstance(beta, (int, float)) and math.isfinite(beta)):
        raise ValueError(f"beta must be a finite number, got {beta!r}")
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    values, vectors = hermitian_eig(h)
    weights = np.exp(-float(beta) * (values - values[0]))
    weights /= weights.sum()
    rho = (vectors * weights) @ vectors.conj().T
    return (rho + rho.conj().T) / 2.0


def partial_transpose_first(m: np.ndarray) -> np.ndarray:
    """Partial transpose over the first qubit of a two-qubit operator.

    Entry ``(2a+b, 2c+d)`` of the result equals entry ``(2c+b, 2a+d)`` of the
    input.  The operation is an involution and preserves the trace and
    Hermiticity; it does not preserve positivity, which is exactly what the
    negativity quantifier exploits.
    """
    arr = _as_square_complex(m, "m")
    if arr.shape != (4, 4):
        raise ValueError(f"m must be 4x4, got shape {arr.shape}")
    return np.ascontiguousarray(arr.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4))


def embed_pauli_first(axis: str) -> np.ndarray:
    """Pauli operator on the first qubit: ``sigma_axis (x) identity``."""
    try:
        sigma = _SIGMA[axis]
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None
    return np.kron(sigma, _EYE2)


def sym3_eig(m: np.ndarray, tol: float = HERMITICITY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric 3x3 matrix.

    Returns ``(values, vectors)`` with values ascending and real orthonormal
    column vectors.  Symmetry is required within ``tol`` in the max-entry
    norm; the symmetrized average is what gets diagonalized.
    """
    arr = np.asarray(m, dtype=float)
    if arr.shape != (3, 3):
        raise ValueError(f"m must be 3x3 real symmetric, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("m contains non-finite entries")
    dev = float(np.max(np.abs(arr - arr.T)))
    if dev > tol:
        raise NotHermitianError(
            f"matrix is not symmetric: max |m - m^T| = {dev:.3e} > {tol:.1e}"
        )
    sym = (arr + arr.T) / 2.0
    vals, vecs = _jacobi_eig([[complex(x) for x in row] for row in sym.tolist()])
    order = np.argsort(np.asarray(vals), kind="stable")
    values = np.asarray(vals, dtype=float)[order]
    vectors = np.asarray(vecs, dtype=complex).real[:, order]
    return values, vectors


def sym3_eig_max(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of a real symmetric 3x3 matrix.

    Returns ``(largest, values)`` so callers that need the full spectrum (the
    closed-form cross-checks do) avoid a second decomposition.
    """
    values, _ = sym3_eig(m)
    return float(values[-1]), values
