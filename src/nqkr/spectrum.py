"""Instantaneous Floquet operator: matrix, parity-block eigensolver, fidelity.

The one-kick operator U(t) = U_f U_K(t) is assembled column by column through
the same propagator code that drives time evolution, so matrix and evolution
agree bit for bit. Eigenvalues u are reported as quasienergies via
u = e^(-i*eps): eps_r = -arg(u) folded to (-pi, pi], eps_i = ln|u|.

U(t) = diag(e^(-i*n^2*hbar/2)) C_kick commutes exactly with momentum parity
n -> -n, on the truncated ring too: the free phase is even in n, and the kick
depends on theta only through cos(theta), so C_kick is an even circulant.
Parity maps storage index j to (M - j) mod M, whose fixed points are n = 0 and
n = -M/2. U therefore splits into an even block of size M/2 + 1 on the basis
|0>, |-M/2>, (|k> + |-k>)/sqrt(2) for k = 1..M/2-1, and an odd block of size
M/2 - 1 on (|k> - |-k>)/sqrt(2); `_fold` and its inverse `_unfold` are the
one definition of that basis. `quasi_spectrum` solves the two blocks in one
stacked eig, about a quarter of the work of the full matrix, so every
eigenstate it returns has definite parity. Residuals are still measured
against the full matrix, and one that overflows double range is a
SpectrumError.

`quasi_spectrum` and `fidelity_profile` run on one BLAS thread
(`_blas.one_thread`): the stacked eig, the blocked residual products
U @ phi and the fidelity overlaps. On a 2-CPU host a second OpenBLAS thread
cut the dim-1024 eig's wall time by only 5-10% while doubling its CPU time,
gave nothing at dim 512, and moved the last digits of eps with the thread
count. Threaded, the residual and fidelity products took about a sixth of the
spectrum benchmark's CPU time to save about 4% of its wall time
(`BENCH_20.json`). On one thread the spectrum files do not depend on
OPENBLAS_NUM_THREADS. A BLAS other than OpenBLAS keeps its own threading.

Memory: beside the input U, the spectrum path holds the (2, M/2+1, M/2+1)
block stack and its eigenvectors, then one (M, M) eigenvector array, built
straight in sorted order from views of the block eigenvectors and normalized
in place, plus working blocks of at most (M, M/2+1) while the stack is built
and (M, _BLOCK) after it. quasi_spectrum's allocations above U peak at
1.57 x U.nbytes at M = 512 and 1.52 x at M = 1024, and a fidelity profile
allocates only vectors.

The FFT propagator makes momentum periodic, and the truncated ring supports
eigenstates pinned to the n = +-M/2 seam whose eps_i can exceed every
physical state's. Each eigenstate therefore carries its weight on the two
edge bands, `lattice.tail_probability` of its unit-norm column, and it is
tail-safe below `lattice.TAIL_PROBABILITY_LIMIT`: the weight and the limit of
the propagator's wrap-around check. max-eps_i queries can be restricted to
tail-safe states.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import _blas
from .lattice import MomentumLattice, WaveFunction, _runs, ground_state
from .lattice import TAIL_PROBABILITY_LIMIT, tail_probability
from .propagator import SimConfig, step

SPECTRUM_DIM_BUDGET = 2048
RESIDUAL_TOLERANCE = 1e-8
# Largest coupling between the parity sectors, relative to max|U|, that
# quasi_spectrum accepts; the assembled U(t) measures ~1e-15.
PARITY_TOLERANCE = 1e-12
# States are sorted by eps_i rounded to a multiple of this, then by eps_r, so
# eps_i that agree to roundoff tie instead of swapping rows whenever the last
# digits move. Builds and thread counts move eps by ~7e-14, and fig4's top
# multiplet is 1e-3 wide. Two states can still swap if roundoff carries an
# eps_i across an odd multiple of EPS_I_TIE / 2.
EPS_I_TIE = 1e-10
_SQRT_HALF = np.sqrt(0.5)
# Rows or columns per pass of the blocked loops over U and its eigenvectors;
# their temporaries are a few (M, _BLOCK) arrays, 1 MB each at M = 1024.
_BLOCK = 64


class SpectrumError(RuntimeError):
    """The eigensolver failed to converge, or no eigenstate is tail-safe."""


@dataclass
class QuasiSpectrum:
    """Complex quasienergies and quasi-eigenstates of one instantaneous operator.

    eigenstates holds one unit-norm column per quasienergy, phase-fixed so the
    largest-magnitude component is real positive. residuals are ||U phi - u phi||
    per pair; tail_weights the probability each state puts on the two edge
    bands, `lattice.tail_probability`. Entries are sorted by descending eps_i
    rounded to a multiple of EPS_I_TIE, then by ascending eps_r, so roundoff in
    eps_i does not reorder states. residual_scale is max(1, max|U|), the scale
    of the roundoff any eigensolver leaves in U.
    """

    t: int
    lattice: MomentumLattice
    quasienergies: np.ndarray
    eigenstates: np.ndarray
    residuals: np.ndarray
    tail_weights: np.ndarray
    residual_scale: float = 1.0

    @property
    def eps_r(self) -> np.ndarray:
        return self.quasienergies.real

    @property
    def eps_i(self) -> np.ndarray:
        return self.quasienergies.imag

    def valid_mask(self) -> np.ndarray:
        """States that do not lean on the truncation seam."""
        return self.tail_weights < TAIL_PROBABILITY_LIMIT

    def flagged_mask(self) -> np.ndarray:
        """Pairs whose residual exceeds RESIDUAL_TOLERANCE * residual_scale.

        Backward-stable solvers leave ||U phi - u phi|| <= p(n) * eps * ||U||
        (LAPACK Users' Guide, 3rd ed., sec. 4.8); for |U_ij| <= 1 the limit is
        RESIDUAL_TOLERANCE itself.
        """
        return self.residuals > RESIDUAL_TOLERANCE * self.residual_scale

    def top_valid_index(self) -> int:
        """Index of the max-eps_i state among tail-safe states."""
        valid = self.valid_mask()
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
    Raises ValueError if m_spec exceeds SPECTRUM_DIM_BUDGET or is not a valid
    lattice size.
    """
    if m_spec > SPECTRUM_DIM_BUDGET:
        raise ValueError(
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


def _fold(x: np.ndarray, sign: int, out: np.ndarray) -> None:
    """out = x in the parity basis of one sector, along axis 0 (row j is n = j - M/2).

    sign = +1 is the even basis |0>, |-M/2>, (|k> + |-k>)/sqrt(2) for
    k = 1..M/2-1, and sign = -1 the odd basis (|k> - |-k>)/sqrt(2); out has
    M/2 + 1 or M/2 - 1 rows. Folding x.T into out.T folds columns instead.
    """
    h = x.shape[0] // 2
    if sign > 0:
        out[0] = x[h]
        out[1] = x[0]
        out = out[2:]
    (np.add if sign > 0 else np.subtract)(x[h + 1:], x[h - 1:0:-1], out=out)
    out *= _SQRT_HALF


def _unfold(y: np.ndarray, sign: int, out: np.ndarray, columns: np.ndarray) -> None:
    """out[:, columns] = the sector coordinates y in the storage basis; inverts _fold.

    Scales y in place, so it needs no temporary of y's size.
    """
    h = out.shape[0] // 2
    if sign > 0:
        out[h, columns] = y[0]
        out[0, columns] = y[1]
        y = y[2:]
    y *= _SQRT_HALF
    out[h + 1:, columns] = y
    if sign < 0:
        np.negative(y, out=y)
    out[h - 1:0:-1, columns] = y


def _parity_blocks(matrix: np.ndarray, max_abs: float) -> np.ndarray:
    """The (2, M/2+1, M/2+1) stack of U's even block and zero-padded odd block.

    One sector at a time, U's columns are folded into a reused (M, M/2+1)
    buffer, and its rows are folded straight into the stack. The coupling to
    the other sector is folded _BLOCK columns at a time into a reused band,
    reduced to its max and dropped. Raises ValueError if
    that coupling exceeds PARITY_TOLERANCE * max_abs, where max_abs = max|U|.
    """
    m = matrix.shape[0]
    h = m // 2
    limit = PARITY_TOLERANCE * max_abs
    stack = np.zeros((2, h + 1, h + 1), dtype=np.complex128)
    buffer = np.empty((m, h + 1), dtype=np.complex128)
    band = np.empty((h + 1, _BLOCK), dtype=np.complex128)
    leak = 0.0
    for sector, sign in enumerate((1, -1)):
        size = h + sign
        cols = buffer[:, :size]
        _fold(matrix.T, sign, cols.T)
        _fold(cols, sign, stack[sector, :size, :size])
        for start in range(0, size, _BLOCK):
            coupling = band[:m - size, :min(_BLOCK, size - start)]
            _fold(cols[:, start:start + _BLOCK], -sign, coupling)
            leak = max(leak, float(np.abs(coupling).max(initial=0.0)))
    if leak > limit:
        raise ValueError(
            f"matrix does not commute with momentum parity n -> -n: the "
            f"even-odd coupling reaches {leak:.3e}"
        )
    return stack


def _max_abs(matrix: np.ndarray) -> float:
    """max|U_ij|, taken over blocks of rows."""
    return max(float(np.abs(matrix[i:i + _BLOCK]).max()) for i in range(0, len(matrix), _BLOCK))


def _eps_parts(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eps_r, eps_i) of eigenvalues u = e^(-i*eps), eps_r folded to (-pi, pi]."""
    eps_r = -np.angle(vals)
    # -angle() lands in [-pi, pi)
    eps_r = np.where(eps_r <= -np.pi, eps_r + 2.0 * np.pi, eps_r)
    return eps_r, np.log(np.abs(vals))


def _parity_eig(matrix: np.ndarray, max_abs: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and storage-basis eigenvectors of U from its parity blocks.

    One eig call solves the block stack; max_abs is max|U|, for the parity
    check. The odd slice's two padding pairs are dropped by their support on
    the padded coordinates. The pairs come out sorted by descending eps_i (to
    EPS_I_TIE), then eps_r: each block eigenvector is embedded once, straight
    into its sorted column of the M x M output. The odd slice's kept columns
    are embedded as views, one per run of consecutive columns (at most three
    around the two padding pairs), so no copy of them is made.
    """
    m = matrix.shape[0]
    h = m // 2
    vals, vecs = np.linalg.eig(_parity_blocks(matrix, max_abs))

    padding_support = np.sum(np.abs(vecs[1, h - 1:]) ** 2, axis=0)
    keep = np.sort(np.argsort(padding_support, kind="stable")[:h - 1])
    vals = np.concatenate((vals[0], vals[1, keep]))
    eps_r, eps_i = _eps_parts(vals)
    order = np.lexsort((eps_r, np.round(-eps_i / EPS_I_TIE)))
    column = np.argsort(order)  # the sorted column of each pair

    out = np.zeros((m, m), dtype=np.complex128)
    _unfold(vecs[0], 1, out, column[:h + 1])
    done = h + 1
    for start, stop in _runs(keep, 1):
        _unfold(vecs[1, :h - 1, start:stop], -1, out, column[done:done + stop - start])
        done += stop - start
    return vals[order], out


def quasi_spectrum(
    matrix: np.ndarray,
    t: int = 0,
    lattice: MomentumLattice | None = None,
) -> QuasiSpectrum:
    """Eigendecomposition of a parity-symmetric U, sorted by descending eps_i.

    U is solved as its even (M/2 + 1) and odd (M/2 - 1) momentum-parity
    blocks in one stacked eig, and each eigenvector is embedded back into
    the M-dimensional storage basis, so it is exactly even or odd in n.
    Eigenvectors are normalized and phase-fixed in place, and residuals
    ||U phi - u phi|| are measured against the full input matrix, both in
    blocks of _BLOCK columns; pairs above RESIDUAL_TOLERANCE *
    max(1, max|U|) are flagged with a warning. Raises ValueError if U has
    non-finite entries, or if it couples the two parity sectors by more than
    PARITY_TOLERANCE * max|U|, and SpectrumError if a residual overflows.
    max|U|, the eig and the residuals run on one BLAS thread.

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

    with _blas.one_thread():
        max_abs = _max_abs(matrix)
        scale = max(1.0, max_abs)
        try:
            eigvals, vecs = _parity_eig(matrix, max_abs)
        except np.linalg.LinAlgError as exc:
            norm1 = float(np.linalg.norm(matrix, 1))
            norm_inf = float(np.linalg.norm(matrix, np.inf))
            raise SpectrumError(
                f"eigensolver failed to converge (dim {m}, 1-norm {norm1:.3e}, "
                f"inf-norm {norm_inf:.3e}): {exc}"
            ) from exc
        eps_r, eps_i = _eps_parts(eigvals)

        residuals = np.empty(m)
        for start in range(0, m, _BLOCK):
            cols = slice(start, start + _BLOCK)
            block = vecs[:, cols]
            block /= np.linalg.norm(block, axis=0)
            # deterministic phase: largest-magnitude component real positive
            lead = np.argmax(np.abs(block), axis=0)
            block *= np.exp(-1j * np.angle(block[lead, np.arange(block.shape[1])]))
            defect = matrix @ block
            # an overflowing residual is reported below, not warned about here
            with np.errstate(over="ignore", invalid="ignore"):
                defect -= block * eigvals[cols]
                residuals[cols] = np.linalg.norm(defect, axis=0)
    if not np.all(np.isfinite(residuals)):
        raise SpectrumError(
            f"eigenpair residuals overflow double range (dim {m}, max|U| {scale:.3e}); "
            "U(t) grows too fast at this lambda, hbar and t"
        )
    spec = QuasiSpectrum(t, lattice, eps_r + 1j * eps_i, vecs, residuals,
                         tail_probability(vecs), scale)
    flagged = int(np.count_nonzero(spec.flagged_mask()))
    if flagged:
        warnings.warn(
            f"{flagged} eigenpairs have residual above {RESIDUAL_TOLERANCE:g} * "
            f"max(1, max|U|) = {RESIDUAL_TOLERANCE * scale:.3e} (worst "
            f"{float(residuals.max()):.3e}); they are flagged, not silently accepted",
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
    """F = |<psi_hat|phi_hat>| against every quasi-eigenstate, on one BLAS thread."""
    if psi.lattice.size != spec.lattice.size:
        raise ValueError(
            f"state dimension {psi.lattice.size} does not match spectrum "
            f"dimension {spec.lattice.size}"
        )
    with _blas.one_thread():
        normed = psi.amps / np.linalg.norm(psi.amps)
        fid = np.abs(normed.conj() @ spec.eigenstates)
    return FidelityRecord(spec.t, spec.eps_i.copy(), fid, int(np.argmax(fid)))
