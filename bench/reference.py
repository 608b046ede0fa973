"""Independent reference for the benchmark's correctness checks.

Nothing here imports qcorr.  The Hamiltonian is assembled from Pauli
products, the Gibbs state and every quantifier come from
``numpy.linalg.eigh`` (LAPACK), and whole batches of points are evaluated
at once, so checking a pass costs little next to running it.

For an undephased point the reference never diagonalises the formed
density matrix: sqrt(rho) and the spectral data for LQFI are taken from
the Hamiltonian's eigenvectors and the shifted Boltzmann weights, which
keep full relative accuracy down to the smallest weight.  That is what
lets the LQU report show the clamp bias of the program under test instead
of the reference's own roundoff.  A dephased state has no such shortcut and
is diagonalised after it is formed.
"""

from __future__ import annotations

import numpy as np

# Largest accepted |program - reference| per quantifier.  Negativity and
# LQFI are well conditioned, so any miss above roundoff is a defect.  LQU
# takes the square root of the state, and the program zeroes eigenvalues
# below 1e-11 of the largest before doing so.  Each zeroed eigenvalue moves
# an entry of W by at most 2*sqrt(1e-11), and at most three are zeroed, so
# the bias stays below 6*sqrt(1e-11) = 1.9e-5.  The tolerance admits that
# known bias; the per-quantifier maximum deviation reports it.
TOLERANCES = {"negativity": 1e-9, "lqu": 2e-5, "lqfi": 1e-9}
QUANTIFIERS = tuple(TOLERANCES)

# Verdicts the formula audit must reach on any grid: the known misprints
# are flagged, the formulas that are exact as printed pass.
AUDIT_MUST_FLAG = frozenset(
    {
        "Eq10_rho23",
        "Eq17_abs_rho23",
        "Eq57_kraus_completeness",
        "Eq59_diagonal_scaling",
        "Eq60_eta12_DC",
    }
)
AUDIT_MUST_PASS = frozenset(
    {
        "Eq3_spectrum",
        "Eq5_partition_Z",
        "Eq7_rho11",
        "Eq11_rho44",
        "Eq16_abs_rho14",
        "Eq25_e34",
        "Eq62_eta34_DC",
    }
)

_I2 = np.eye(2)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_XX = np.kron(_SX, _SX)
_YY = np.kron(_SY, _SY)
_ZZ = np.kron(_SZ, _SZ)
_XY = np.kron(_SX, _SY)
_YX = np.kron(_SY, _SX)
_FIELD = np.kron(_SZ, _I2) + np.kron(_I2, _SZ)
# Pauli operators on the first qubit, stacked (3, 4, 4).
_LOCAL = np.stack([np.kron(s, _I2) for s in (_SX, _SY, _SZ)])
# Entries coupling the two sectors of the first qubit; dephasing scales them.
_CROSS = np.zeros((4, 4), dtype=bool)
_CROSS[:2, 2:] = True
_CROSS[2:, :2] = True

PARAM_NAMES = ("jx", "jy", "jz", "dz", "gz", "b", "t")
_CHUNK = 256


def hamiltonian(params: np.ndarray) -> np.ndarray:
    """Batch of Hamiltonians from rows (jx, jy, jz, dz, gz, b, t).

    H = jx XX + jy YY + jz ZZ + dz (YX - XY) - gz (XY + YX) + b (Z1 + Z2):
    the XYZ exchange, the z-axis DM and KSEA couplings and the field.
    """
    jx, jy, jz, dz, gz, b = (params[:, k, None, None] for k in range(6))
    return (
        jx * _XX
        + jy * _YY
        + jz * _ZZ
        + dz * (_YX - _XY)
        - gz * (_XY + _YX)
        + b * _FIELD
    )


def _quantifiers(
    vals: np.ndarray, vecs: np.ndarray, rho: np.ndarray
) -> np.ndarray:
    """(negativity, LQU, LQFI) from rho's spectral data and rho itself."""
    n = rho.shape[0]
    pt = rho.reshape(n, 2, 2, 2, 2).transpose(0, 3, 2, 1, 4).reshape(n, 4, 4)
    pt_vals = np.linalg.eigvalsh(pt)
    neg = -np.where(pt_vals < 0.0, pt_vals, 0.0).sum(axis=1)

    # Local Pauli operators in rho's eigenbasis: B[k, i] = V^H sigma_i V.
    basis = np.einsum("kam,iab,kbn->kimn", vecs.conj(), _LOCAL, vecs)
    # |B_i[m,n]|^2 summed with weights; B_i Hermitian makes W and M real.
    prod = np.einsum("kimn,kjmn->kijmn", basis, basis.conj()).real

    root = np.sqrt(vals)
    w = np.einsum("kmn,kijmn->kij", root[:, :, None] * root[:, None, :], prod)
    pair = vals[:, :, None] + vals[:, None, :]
    fisher = np.divide(
        2.0 * vals[:, :, None] * vals[:, None, :],
        pair,
        out=np.zeros_like(pair),
        where=pair > 0.0,
    )
    m = np.einsum("kmn,kijmn->kij", fisher, prod)
    lqu = 1.0 - np.linalg.eigvalsh(w)[:, -1]
    lqfi = 1.0 - np.linalg.eigvalsh(m)[:, -1]
    return np.column_stack([neg, lqu, lqfi])


def reference_triples(params: np.ndarray, gammas: np.ndarray | None = None) -> np.ndarray:
    """Reference (negativity, LQU, LQFI) per point, halved convention.

    ``params`` has rows (jx, jy, jz, dz, gz, b, t); ``gammas`` holds the
    dephasing strength per row, NaN for an undephased point.  Rows are
    evaluated _CHUNK at a time so the temporaries stay small.
    """
    params = np.asarray(params, dtype=float).reshape(-1, len(PARAM_NAMES))
    if gammas is None:
        gammas = np.full(len(params), np.nan)
    gammas = np.asarray(gammas, dtype=float)
    out = np.empty((len(params), 3))
    for lo in range(0, len(params), _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        out[sl] = _chunk_triples(params[sl], gammas[sl])
    return out


def _chunk_triples(params: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    energies, states = np.linalg.eigh(hamiltonian(params))
    beta = 1.0 / params[:, 6]
    weights = np.exp(-beta[:, None] * (energies - energies[:, :1]))
    weights /= weights.sum(axis=1, keepdims=True)
    rho = np.einsum("kam,km,kbm->kab", states, weights, states.conj())
    rho = (rho + rho.conj().transpose(0, 2, 1)) / 2.0

    vals, vecs = weights, states
    dephased = ~np.isnan(gammas)
    if dephased.any():
        scale = np.where(_CROSS, 1.0 - gammas[dephased, None, None], 1.0)
        rho[dephased] = rho[dephased] * scale
        d_vals, d_vecs = np.linalg.eigh(rho[dephased])
        vals, vecs = vals.copy(), vecs.copy()
        vals[dephased] = np.maximum(d_vals, 0.0)
        vecs[dephased] = d_vecs
    return _quantifiers(vals, vecs, rho)


class Deviations:
    """Largest |program - reference| per quantifier."""

    def __init__(self) -> None:
        self.max_dev = {q: 0.0 for q in QUANTIFIERS}

    def check(self, got: np.ndarray, ref: np.ndarray) -> np.ndarray:
        """Compare (n, 3) triples; record deviations; return a miss mask."""
        got = np.asarray(got, dtype=float).reshape(-1, 3)
        dev = np.abs(got - ref)
        bad = ~np.isfinite(dev)
        for k, q in enumerate(QUANTIFIERS):
            col = dev[:, k]
            finite = col[np.isfinite(col)]
            if finite.size:
                self.max_dev[q] = max(self.max_dev[q], float(finite.max()))
            bad[:, k] |= col > TOLERANCES[q]
        return bad.any(axis=1)


def audit_verdict_errors(records: list[dict]) -> list[str]:
    """Known-verdict violations in an audit report given as dicts."""
    verdicts = {r["formula_id"]: r["verdict"] for r in records}
    errors = []
    for fid in sorted(AUDIT_MUST_FLAG):
        if verdicts.get(fid) != "inconsistent":
            errors.append(f"{fid} should be inconsistent, got {verdicts.get(fid)}")
    for fid in sorted(AUDIT_MUST_PASS):
        if verdicts.get(fid) != "consistent":
            errors.append(f"{fid} should be consistent, got {verdicts.get(fid)}")
    return errors
