"""Instantaneous Floquet operator: dense matrix, complex quasienergies, fidelity.

The one-kick operator U(t) = U_f U_K(t) is assembled column by column through
the same propagator code that drives time evolution, so matrix and evolution
agree bit for bit. Eigenvalues u are reported as quasienergies via
u = e^(-i*eps): eps_r = -arg(u) folded to (-pi, pi], eps_i = ln|u|.

The FFT propagator makes momentum periodic, and the truncated ring supports
eigenstates pinned to the n = +-M/2 seam whose eps_i can exceed every
physical state's. Each eigenstate therefore carries its edge-tail weight on
the outer 5% of sites, the band `lattice.edge_sites` that the propagator's
tail-safety check also uses, and max-eps_i queries can be restricted to
tail-safe states.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .lattice import MomentumLattice, WaveFunction, edge_sites, ground_state
from .propagator import SimConfig, step

SPECTRUM_DIM_BUDGET = 2048
RESIDUAL_TOLERANCE = 1e-8
EIGENSTATE_TAIL_LIMIT = 1e-10


class SpectrumError(RuntimeError):
    """Dense eigendecomposition failed or was refused."""


@dataclass
class QuasiSpectrum:
    """Complex quasienergies and quasi-eigenstates of one instantaneous operator.

    eigenstates holds one unit-norm column per quasienergy, phase-fixed so the
    largest-magnitude component is real positive. residuals are ||U phi - u phi||
    per pair; tail_weights the probability each state puts on the outer 5% of
    lattice sites. Entries are sorted by descending eps_i.
    """

    t: int
    lattice: MomentumLattice
    quasienergies: np.ndarray
    eigenstates: np.ndarray
    residuals: np.ndarray
    tail_weights: np.ndarray

    @property
    def eps_r(self) -> np.ndarray:
        return self.quasienergies.real

    @property
    def eps_i(self) -> np.ndarray:
        return self.quasienergies.imag

    def valid_mask(self, tail_limit: float = EIGENSTATE_TAIL_LIMIT) -> np.ndarray:
        """States that do not lean on the truncation seam."""
        return self.tail_weights < tail_limit

    def flagged_mask(self, tol: float = RESIDUAL_TOLERANCE) -> np.ndarray:
        """Pairs whose residual exceeds tol (ill-conditioned, not trustworthy)."""
        return self.residuals > tol

    def top_valid_index(self, tail_limit: float = EIGENSTATE_TAIL_LIMIT) -> int:
        """Index of the max-eps_i state among tail-safe states."""
        valid = self.valid_mask(tail_limit)
        if not np.any(valid):
            raise SpectrumError("no tail-safe eigenstates; enlarge the dimension")
        idx = np.flatnonzero(valid)
        return int(idx[np.argmax(self.eps_i[idx])])

    def state(self, index: int) -> WaveFunction:
        """One quasi-eigenstate as a WaveFunction on the spectrum's lattice."""
        return WaveFunction(self.lattice, self.eigenstates[:, index].copy(), 0.0)


@dataclass
class FidelityRecord:
    """Overlap of one evolved state with every quasi-eigenstate.

    F = |<psi_hat | phi_hat>| between unit-normalized states, so F lies in
    [0, 1] and F = 1 means identical rays. overlaps pairs each state's eps_i
    with its F; best is the argmax-F entry.
    """

    t: int
    eps_i: np.ndarray
    fidelity: np.ndarray
    best_index: int

    @property
    def best(self) -> tuple[float, float]:
        return float(self.eps_i[self.best_index]), float(self.fidelity[self.best_index])


def build_floquet_matrix(config: SimConfig, t: int, m_spec: int) -> np.ndarray:
    """Dense m_spec x m_spec matrix of U_f U_K(t) on the truncated lattice.

    Column j is one propagator step applied to basis vector |n_j>, with the
    step's renormalization undone analytically via its log_norm bookkeeping.
    """
    if m_spec % 2 != 0 or m_spec < 2:
        raise ValueError(f"spectrum dimension must be even and >= 2, got {m_spec}")
    if m_spec > SPECTRUM_DIM_BUDGET:
        raise SpectrumError(
            f"dimension {m_spec} exceeds the dense eigensolver budget "
            f"{SPECTRUM_DIM_BUDGET}"
        )
    lattice = MomentumLattice(m_spec, config.lattice.hbar_eff)
    cfg = replace(config, lattice=lattice)
    matrix = np.empty((m_spec, m_spec), dtype=np.complex128)
    basis = ground_state(lattice)
    for j in range(m_spec):
        basis.amps = np.zeros(m_spec, dtype=np.complex128)
        basis.amps[j] = 1.0
        basis.log_norm = 0.0
        step(basis, cfg, t)
        matrix[:, j] = basis.amps * np.exp(basis.log_norm / 2.0)
    return matrix


def quasi_spectrum(
    matrix: np.ndarray,
    t: int = 0,
    lattice: MomentumLattice | None = None,
) -> QuasiSpectrum:
    """Full dense eigendecomposition, sorted by descending eps_i.

    t and lattice are carried through for bookkeeping; lattice defaults to
    hbar = 1 if the matrix arrives without context.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.complex128)
    m = matrix.shape[0]
    if matrix.shape != (m, m):
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    if not np.all(np.isfinite(matrix.view(np.float64))):
        raise ValueError("matrix has non-finite entries")
    if lattice is None:
        lattice = MomentumLattice(m, 1.0)
    if lattice.size != m:
        raise ValueError("lattice size does not match matrix dimension")

    try:
        eigvals, eigvecs = np.linalg.eig(matrix)
    except np.linalg.LinAlgError as exc:
        norm1 = float(np.linalg.norm(matrix, 1))
        norm_inf = float(np.linalg.norm(matrix, np.inf))
        raise SpectrumError(
            f"eigensolver failed to converge (dim {m}, 1-norm {norm1:.3e}, "
            f"inf-norm {norm_inf:.3e}): {exc}"
        ) from exc

    eps_i = np.log(np.abs(eigvals))
    eps_r = -np.angle(eigvals)
    # fold the branch to (-pi, pi]; -angle() lands in [-pi, pi)
    eps_r = np.where(eps_r <= -np.pi, eps_r + 2.0 * np.pi, eps_r)

    order = np.lexsort((eps_r, -eps_i))
    eigvals = eigvals[order]
    eps = (eps_r + 1j * eps_i)[order]
    vecs = eigvecs[:, order]

    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    # deterministic phase: largest-magnitude component real positive
    lead = np.argmax(np.abs(vecs), axis=0)
    lead_vals = vecs[lead, np.arange(m)]
    vecs = vecs * np.exp(-1j * np.angle(lead_vals))[np.newaxis, :]

    residuals = np.linalg.norm(matrix @ vecs - vecs * eigvals[np.newaxis, :], axis=0)
    edge = edge_sites(m)
    prob = np.abs(vecs) ** 2
    tails = prob[:edge].sum(axis=0) + prob[-edge:].sum(axis=0)

    spec = QuasiSpectrum(t, lattice, eps, vecs, residuals, tails)
    worst = float(residuals.max()) if m else 0.0
    if worst > RESIDUAL_TOLERANCE:
        warnings.warn(
            f"{int(np.count_nonzero(spec.flagged_mask()))} eigenpairs have "
            f"residual above {RESIDUAL_TOLERANCE:g} (worst {worst:.3e}); "
            "they are flagged, not silently accepted",
            stacklevel=2,
        )
    return spec


def spectrum_at(config: SimConfig, t: int, m_spec: int) -> QuasiSpectrum:
    """Build U(t) on an m_spec lattice and decompose it."""
    matrix = build_floquet_matrix(config, t, m_spec)
    lattice = MomentumLattice(m_spec, config.lattice.hbar_eff)
    return quasi_spectrum(matrix, t=t, lattice=lattice)


def mean_abs_imag(spec: QuasiSpectrum) -> float:
    """Arithmetic mean of |eps_i| over all eigenvalues."""
    return float(np.mean(np.abs(spec.eps_i)))


def fidelity_profile(psi: WaveFunction, spec: QuasiSpectrum) -> FidelityRecord:
    """F = |<psi_hat|phi_hat>| against every quasi-eigenstate."""
    if psi.lattice.size != spec.lattice.size:
        raise ValueError(
            f"state dimension {psi.lattice.size} does not match spectrum "
            f"dimension {spec.lattice.size}"
        )
    normed = psi.amps / np.linalg.norm(psi.amps)
    fid = np.abs(spec.eigenstates.conj().T @ normed)
    return FidelityRecord(spec.t, spec.eps_i.copy(), fid, int(np.argmax(fid)))
