"""Numerical audit of the published closed forms against the oracle.

Every published closed form that ``model``, ``quantifiers`` and
``decoherence`` carry verbatim is evaluated on a seeded random parameter
grid and compared against a reference computed from first principles
(Hamiltonian eigendecomposition, brute-force channel application, exact
2x2 block eigenvalues of the resulting matrices).  Each formula gets one
DiscrepancyRecord with the maximum and mean absolute deviation over the
grid; a record is consistent when its maximum deviation stays at or below
CONSISTENCY_TOL.

The point is to quantify typos rather than hide them: a cosh where a sinh
belongs (the |01>/|10> coherence), a sign flip in a phase or an exponent,
Kraus operators that sum to gamma*I instead of I, population scaling that
breaks the trace, and a radicand that mixes chi with squared energy
scales.  Formulas that are exact as printed (populations, |rho_14|, the
partial-transpose pair e3/e4, the dephased eta3/eta4) audit clean at
roundoff level.

One non-numerical record is included: the figure-1 caption assigns jz = +2
to the ferromagnetic panel while the surrounding analysis uses jz = -2 for
that regime, so the preset uses -2 and the conflict is logged here with
deviation |(+2) - (-2)| = 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoherence import (
    apply_dephasing,
    dephased_pt_eigen_closed,
    dephased_spectrum_closed,
)
from .model import (
    ModelParams,
    block_pair,
    build_hamiltonian,
    closed_spectrum,
    derived_scales,
    thermal_state_closed,
    x_eigenvalues,
)
from .numkernel import gibbs_exp, hermitian_eig
from .quantifiers import pt_eigen_closed

__all__ = [
    "CONSISTENCY_TOL",
    "AuditGrid",
    "DiscrepancyRecord",
    "DiscrepancyReport",
    "audit_formulas",
    "FORMULA_IDS",
]

CONSISTENCY_TOL = 1e-9

# Fixed report order.  The float-comparison records cover the thermal
# matrix elements, both eigenvalue sets, and their dephased counterparts;
# the final entry is the figure-caption sign conflict.
FORMULA_IDS = (
    "Eq3_spectrum",
    "Eq5_partition_Z",
    "Eq7_rho11",
    "Eq8_rho14",
    "Eq9_rho22_rho33",
    "Eq10_rho23",
    "Eq11_rho44",
    "Eq16_abs_rho14",
    "Eq17_abs_rho23",
    "Eq18_eta12",
    "Eq19_eta34",
    "Eq20_xi",
    "Eq23_e12",
    "Eq25_e34",
    "Eq57_kraus_completeness",
    "Eq59_diagonal_scaling",
    "Eq59_offdiag_scaling",
    "Eq60_eta12_DC",
    "Eq62_eta34_DC",
    "Eq69_e12_DC",
    "Eq71_e34_DC",
    "Fig1_caption_jz_sign",
)


@dataclass(frozen=True)
class AuditGrid:
    """Seeded random grid over couplings, temperature and channel strength."""

    count: int = 100
    seed: int = 42
    coupling_range: tuple[float, float] = (-3.0, 3.0)
    temperature_range: tuple[float, float] = (0.1, 5.0)
    gamma_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        if self.count < 100:
            raise ValueError(f"count must be >= 100, got {self.count}")
        for name in ("coupling_range", "temperature_range", "gamma_range"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"{name} must be a finite (lo, hi) with lo < hi")
        if self.temperature_range[0] <= 0.0:
            raise ValueError("temperature_range must be positive")
        glo, ghi = self.gamma_range
        if glo < 0.0 or ghi > 1.0:
            raise ValueError("gamma_range must lie within [0, 1]")


@dataclass(frozen=True)
class DiscrepancyRecord:
    formula_id: str
    grid_size: int
    max_abs_dev: float
    mean_abs_dev: float
    verdict: str

    def to_dict(self) -> dict:
        return {
            "formula_id": self.formula_id,
            "grid_size": self.grid_size,
            "max_abs_dev": self.max_abs_dev,
            "mean_abs_dev": self.mean_abs_dev,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class DiscrepancyReport:
    grid: AuditGrid
    records: tuple[DiscrepancyRecord, ...]

    def record(self, formula_id: str) -> DiscrepancyRecord:
        for rec in self.records:
            if rec.formula_id == formula_id:
                return rec
        raise KeyError(formula_id)

    def inconsistent_ids(self) -> list[str]:
        return [r.formula_id for r in self.records if r.verdict == "inconsistent"]

    def to_dicts(self) -> list[dict]:
        return [rec.to_dict() for rec in self.records]


def _record_from(formula_id: str, devs: list[float]) -> DiscrepancyRecord:
    if not devs:
        return DiscrepancyRecord(formula_id, 0, 0.0, 0.0, "consistent")
    max_dev = float(max(devs))
    verdict = "consistent" if max_dev <= CONSISTENCY_TOL else "inconsistent"
    return DiscrepancyRecord(
        formula_id, len(devs), max_dev, float(np.mean(devs)), verdict
    )


def _pair_dev(lo: float, hi: float, ref_lo: float, ref_hi: float) -> float:
    return max(abs(lo - ref_lo), abs(hi - ref_hi))


def audit_formulas(grid: AuditGrid | None = None) -> DiscrepancyReport:
    """Evaluate every audited formula over the grid and report deviations.

    Deterministic for a fixed grid: parameters are drawn one point at a
    time in the order jx, jy, jz, dz, gz, b, t, gamma from a seeded
    generator.  Where a printed expression is singular on a measure-zero
    set (r2 = 0 or r3 = 0), that point is skipped for the affected record
    and its grid_size shrinks accordingly.
    """
    grid = grid or AuditGrid()
    rng = np.random.default_rng(grid.seed)
    lo, hi = grid.coupling_range
    tlo, thi = grid.temperature_range
    glo, ghi = grid.gamma_range
    devs: dict[str, list[float]] = {fid: [] for fid in FORMULA_IDS}

    for _ in range(grid.count):
        jx = float(rng.uniform(lo, hi))
        jy = float(rng.uniform(lo, hi))
        jz = float(rng.uniform(lo, hi))
        dz = float(rng.uniform(lo, hi))
        gz = float(rng.uniform(lo, hi))
        b = float(rng.uniform(lo, hi))
        t = float(rng.uniform(tlo, thi))
        gamma = float(rng.uniform(glo, ghi))

        p = ModelParams(jx=jx, jy=jy, jz=jz, dz=dz, gz=gz, b=b, t=t)
        s = derived_scales(p)
        beta = s.beta
        ham = build_hamiltonian(p)
        h_vals, _ = hermitian_eig(ham)
        devs["Eq3_spectrum"].append(
            float(np.max(np.abs(np.sort(closed_spectrum(p)) - np.asarray(h_vals))))
        )
        z_ref = float(np.sum(np.exp(-beta * np.asarray(h_vals))))
        devs["Eq5_partition_Z"].append(abs(s.z - z_ref) / z_ref)

        rho = gibbs_exp(ham, beta)
        r11, r22 = rho[0, 0].real, rho[1, 1].real
        r33, r44 = rho[2, 2].real, rho[3, 3].real
        state = thermal_state_closed(p)
        devs["Eq7_rho11"].append(abs(state.a1 - r11))
        devs["Eq8_rho14"].append(abs(state.u * np.exp(1j * state.phi14) - rho[0, 3]))
        devs["Eq9_rho22_rho33"].append(max(abs(state.a2 - r22), abs(state.a2 - r33)))
        devs["Eq10_rho23"].append(abs(state.v * np.exp(1j * state.phi23) - rho[1, 2]))
        devs["Eq11_rho44"].append(abs(state.a4 - r44))
        devs["Eq16_abs_rho14"].append(abs(state.u - abs(rho[0, 3])))
        devs["Eq17_abs_rho23"].append(abs(state.v - abs(rho[1, 2])))

        lo23, hi23 = block_pair(r22, r33, abs(rho[1, 2]))
        lo14, hi14 = block_pair(r11, r44, abs(rho[0, 3]))
        eta1, eta2, eta3, eta4, xi = x_eigenvalues(p, s)
        devs["Eq18_eta12"].append(_pair_dev(eta1, eta2, lo23, hi23))
        devs["Eq19_eta34"].append(_pair_dev(eta3, eta4, lo14, hi14))
        # xi enters eta1/eta2 only through xi/r2, whose exact counterpart is
        # sinh(beta*r2); normalize by cosh to keep the record finite at
        # large beta*r2.
        xi_ratio = xi / s.r2 if s.r2 > 0.0 else 0.0
        devs["Eq20_xi"].append(
            abs(xi_ratio - math.sinh(beta * s.r2)) / math.cosh(beta * s.r2)
        )

        # Partial transpose swaps the coherences between the two blocks.
        pt_lo12, pt_hi12 = block_pair(r11, r44, abs(rho[1, 2]))
        pt_lo34, pt_hi34 = block_pair(r22, r33, abs(rho[0, 3]))
        try:
            e1, e2, e3, e4 = pt_eigen_closed(p)
        except ValueError:
            pass
        else:
            devs["Eq23_e12"].append(_pair_dev(e1, e2, pt_lo12, pt_hi12))
            devs["Eq25_e34"].append(_pair_dev(e3, e4, pt_lo34, pt_hi34))

        # Printed Kraus pair: sqrt(gamma)*diag(1,0) and sqrt(gamma)*diag(0,1)
        # on the first qubit.  Their completeness sum is gamma * identity.
        k1 = math.sqrt(gamma) * np.kron(np.diag([1.0, 0.0]), np.eye(2))
        k2 = math.sqrt(gamma) * np.kron(np.diag([0.0, 1.0]), np.eye(2))
        ksum = k1.conj().T @ k1 + k2.conj().T @ k2
        devs["Eq57_kraus_completeness"].append(
            float(np.max(np.abs(ksum - np.eye(4))))
        )

        rho_dc = apply_dephasing(rho, gamma)
        one_mg = 1.0 - gamma
        printed_diag = (r11, one_mg * r22, one_mg * r33, r44)
        devs["Eq59_diagonal_scaling"].append(
            max(abs(pr - rho_dc[i, i].real) for i, pr in enumerate(printed_diag))
        )
        devs["Eq59_offdiag_scaling"].append(
            max(
                abs(one_mg * abs(rho[0, 3]) - abs(rho_dc[0, 3])),
                abs(one_mg * abs(rho[1, 2]) - abs(rho_dc[1, 2])),
            )
        )

        dlo23, dhi23 = block_pair(r22, r33, abs(rho_dc[1, 2]))
        dlo14, dhi14 = block_pair(r11, r44, abs(rho_dc[0, 3]))
        eta1, eta2, eta3, eta4 = dephased_spectrum_closed(p, gamma)
        devs["Eq60_eta12_DC"].append(_pair_dev(eta1, eta2, dlo23, dhi23))
        devs["Eq62_eta34_DC"].append(_pair_dev(eta3, eta4, dlo14, dhi14))

        dpt_lo12, dpt_hi12 = block_pair(r11, r44, abs(rho_dc[1, 2]))
        dpt_lo34, dpt_hi34 = block_pair(r22, r33, abs(rho_dc[0, 3]))
        try:
            e1, e2, e3, e4 = dephased_pt_eigen_closed(p, gamma)
        except ValueError:
            pass
        else:
            devs["Eq69_e12_DC"].append(_pair_dev(e1, e2, dpt_lo12, dpt_hi12))
            devs["Eq71_e34_DC"].append(_pair_dev(e3, e4, dpt_lo34, dpt_hi34))

    # Caption conflict: the ferromagnetic panel is captioned jz = +2 but the
    # analysis convention for that regime is jz = -2.
    devs["Fig1_caption_jz_sign"].append(abs(2.0 - (-2.0)))

    records = tuple(_record_from(fid, devs[fid]) for fid in FORMULA_IDS)
    return DiscrepancyReport(grid=grid, records=records)
