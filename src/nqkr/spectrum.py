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
eigenstate it returns has definite parity. Residuals are still taken in the
full space. A config's U(t) is applied to each block of eigenvectors by one
FFT pair (`propagator.apply_floquet`), which agrees with U @ phi to
1e-14 * max(1, max|U|) and took 16 ms instead of 139 ms at M = 1024 on a
2-CPU host; a bare matrix is multiplied in full. A column of U(t), a parity
block or a residual that overflows double range is a SpectrumError.

`quasi_spectrum` and `fidelity_profile` run on one BLAS thread
(`_blas.one_thread`): the stacked eig, the blocked residual products
U @ phi of a bare matrix and the fidelity overlaps. On a 2-CPU host a second
OpenBLAS thread cut the dim-1024 eig's wall time by only 5-10% while doubling
its CPU time, gave nothing at dim 512, and moved the last digits of eps with
the thread count. Threaded, the residual and fidelity products took about a
sixth of the spectrum benchmark's CPU time to save about 4% of its wall time
(`BENCH_20.json`). On one thread the spectrum files do not depend on
OPENBLAS_NUM_THREADS. A BLAS other than OpenBLAS keeps its own threading.

Memory: the spectrum path holds at most about 1.8 x U.nbytes at a time, in
three stages, whoever holds the config. Building the block stack holds U, the
(2, M/2+1, M/2+1) stack (half of U) and (M, _BLOCK) bands: `_parity_blocks`
folds _BLOCK columns of U at a time into one band and that band's rows into
the stack, and reduces the parity leak band by band in the same loop. eig
holds the stack, its eigenvectors and LAPACK's copy of one block. The
embedding holds the block eigenvectors and the (M, M) eigenvector array,
built straight in sorted order from views of them and normalized in place;
it is column-major, so the embedding, the per-block normalization and the
FFT residual run on contiguous columns. A config's U(t) lives only in
quasi_spectrum's frame and is freed once the stack is built; the stack is
freed once eig returns. Traced allocations of quasi_spectrum(config), U
included, peak at M = 512 / M = 1024 at 1.00 / 1.00 x U.nbytes while U is
built, 1.79 / 1.62 x while it is folded, 1.01 / 1.01 x in eig and
1.58 / 1.52 x in the embedding (tracemalloc sees numpy's arrays, not
LAPACK's work space; a process's first call also fills the propagator's
kick-table and free-phase caches, 0.06 / 0.02 x more). The one pass for
max|U| holds U and |U|, 1.5 x, below the fold's peak. The seed-0 spectrum
benchmark peaks at 63 MB RSS on a 2-CPU host (`BENCH_38.json`). A bare
matrix stays alive for its dense residuals; quasi_spectrum's allocations
above it peak in the embedding, at 1.58 x at M = 512 and 1.52 x at
M = 1024. A fidelity profile allocates only vectors. Three devices still
bind, each measured against its plain form on that host: the fold takes
_BLOCK columns at a time, where one column at a time took 43 ms, not 16 ms,
at M = 1024; `_unfold` scales y in place, where scaling a copy raised the
embedding to 1.79 / 1.76 x; and the odd slice is embedded from views, where
copying its kept columns raised the embedding to 1.76 / 1.76 x.

The FFT propagator makes momentum periodic, and the truncated ring supports
eigenstates pinned to the n = +-M/2 seam whose eps_i can exceed every
physical state's. Each eigenstate therefore carries its weight on the two
edge bands, `lattice.tail_probability` of its unit-norm column, and it is
tail-safe below `lattice.TAIL_PROBABILITY_LIMIT`: the weight and the limit of
the propagator's wrap-around check. max-eps_i queries can be restricted to
tail-safe states.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import _blas
from .lattice import MomentumLattice, WaveFunction, _runs, ground_state
from .lattice import TAIL_PROBABILITY_LIMIT, tail_probability
from .propagator import SimConfig, apply_floquet, step

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
# Columns per pass of the banded fold of U and the blocked loop over its
# eigenvectors; their temporaries are a few (M, _BLOCK) arrays, 1 MB each at
# M = 1024.
_BLOCK = 64


class SpectrumError(RuntimeError):
    """The eigensolver failed to converge, U(t) overflows double range, or no
    eigenstate is tail-safe."""


@dataclass
class QuasiSpectrum:
    """Complex quasienergies and quasi-eigenstates of one instantaneous operator.

    eigenstates holds one unit-norm column per quasienergy, stored
    column-major, phase-fixed so the largest-magnitude component is real
    positive. residuals are ||U phi - u phi|| per pair; tail_weights the
    probability each state puts on the two edge bands,
    `lattice.tail_probability`. Entries are sorted by descending eps_i rounded
    to a multiple of EPS_I_TIE, then by ascending eps_r, so roundoff in eps_i
    does not reorder states. residual_scale is max(1, max|U|), the scale of
    the roundoff any eigensolver leaves in U.
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
    lattice size, and SpectrumError if a column's gain overflows double range,
    so every entry of the matrix it returns is finite.
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
    # an overflowing gain is raised below; the unit-norm amplitudes times a
    # finite gain stay finite
    with np.errstate(over="ignore"):
        for j in range(m_spec):
            basis.amps = np.zeros(m_spec, dtype=np.complex128)
            basis.amps[j] = 1.0
            basis.log_norm = 0.0
            step(basis, cfg, t)
            gain = np.exp(basis.log_norm / 2.0)
            if gain == np.inf:
                raise SpectrumError(
                    f"U(t) overflows double range (dim {m_spec}, column {j}); "
                    "U(t) grows too fast at this lambda, hbar and t"
                )
            matrix[:, j] = basis.amps * gain
    return matrix


def _fold(x: np.ndarray, sign: int, out: np.ndarray, start: int = 0) -> None:
    """out = x in the parity basis of one sector, along axis 0 (row j is n = j - M/2).

    sign = +1 is the even basis |0>, |-M/2>, (|k> + |-k>)/sqrt(2) for
    k = 1..M/2-1, and sign = -1 the odd basis (|k> - |-k>)/sqrt(2); out's rows
    are the sector coordinates start, start + 1, ..., all M/2 + 1 or M/2 - 1
    of them from the default start 0. start is 0 or a multiple of _BLOCK,
    which is at least 2, so the even sector's unpaired coordinates 0 and 1
    fold in one call. Folding x.T into out.T folds columns instead.
    """
    h = x.shape[0] // 2
    # coordinate c pairs n = +-k with k = c - sign; the even sector's first
    # two coordinates are the unpaired n = 0 and n = -M/2
    k0, k1 = start - sign, start + len(out) - sign
    if sign > 0 and start == 0:
        out[0] = x[h]
        out[1] = x[0]
        out = out[2:]
        k0 = 1
    (np.add if sign > 0 else np.subtract)(x[h + k0:h + k1], x[h - k0:h - k1:-1], out=out)
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

    One sector at a time, _BLOCK columns of U are folded into a reused
    (M, _BLOCK) band, whose rows are folded straight into the stack and, with
    the other sector's sign, into a reused coupling band that is reduced to
    its max and dropped. No (M, M/2+1) fold buffer is made, and each entry
    takes the same operations as in a fold of all columns, then all rows.
    Raises ValueError if that coupling exceeds PARITY_TOLERANCE * max_abs,
    where max_abs = max|U|.
    """
    m = matrix.shape[0]
    h = m // 2
    limit = PARITY_TOLERANCE * max_abs
    stack = np.zeros((2, h + 1, h + 1), dtype=np.complex128)
    band = np.empty((m, _BLOCK), dtype=np.complex128)
    leak_band = np.empty((h + 1, _BLOCK), dtype=np.complex128)
    leak = 0.0
    for sector, sign in enumerate((1, -1)):
        size = h + sign
        for start in range(0, size, _BLOCK):
            stop = min(start + _BLOCK, size)
            cols = band[:, :stop - start]
            _fold(matrix.T, sign, cols.T, start)
            _fold(cols, sign, stack[sector, :size, start:stop])
            coupling = leak_band[:m - size, :stop - start]
            _fold(cols, -sign, coupling)
            leak = max(leak, float(np.abs(coupling).max(initial=0.0)))
    if leak > limit:
        raise ValueError(
            f"matrix does not commute with momentum parity n -> -n: the "
            f"even-odd coupling reaches {leak:.3e}"
        )
    return stack


def _max_abs(matrix: np.ndarray) -> float:
    """max|U_ij|; nan or inf if an entry is."""
    return float(np.abs(matrix).max(initial=0.0))


def _eps_parts(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eps_r, eps_i) of eigenvalues u = e^(-i*eps), eps_r folded to (-pi, pi]."""
    eps_r = -np.angle(vals)
    # -angle() lands in [-pi, pi)
    eps_r = np.where(eps_r <= -np.pi, eps_r + 2.0 * np.pi, eps_r)
    return eps_r, np.log(np.abs(vals))


def _embed_pairs(vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and storage-basis eigenvectors of U from the eig of its block stack.

    vals and vecs are np.linalg.eig's output for `_parity_blocks`' stack. The
    odd slice's two padding pairs are dropped by their support on the padded
    coordinates. The pairs come out sorted by descending eps_i (to
    EPS_I_TIE), then eps_r: each block eigenvector is embedded once, straight
    into its sorted column of the column-major M x M output. The odd slice's
    kept columns are embedded as views, one per run of consecutive columns (at
    most three around the two padding pairs), so no copy of them is made.
    """
    h = vecs.shape[1] - 1
    m = 2 * h
    padding_support = np.sum(np.abs(vecs[1, h - 1:]) ** 2, axis=0)
    keep = np.sort(np.argsort(padding_support, kind="stable")[:h - 1])
    vals = np.concatenate((vals[0], vals[1, keep]))
    eps_r, eps_i = _eps_parts(vals)
    order = np.lexsort((eps_r, np.round(-eps_i / EPS_I_TIE)))
    column = np.argsort(order)  # the sorted column of each pair

    out = np.zeros((m, m), dtype=np.complex128, order="F")
    _unfold(vecs[0], 1, out, column[:h + 1])
    done = h + 1
    for start, stop in _runs(keep, 1):
        _unfold(vecs[1, :h - 1, start:stop], -1, out, column[done:done + stop - start])
        done += stop - start
    return vals[order], out


def quasi_spectrum(operator: np.ndarray | SimConfig) -> QuasiSpectrum:
    """Eigendecomposition of a parity-symmetric U, sorted by descending eps_i.

    operator is either U itself, an (M, M) array read as U at t = 0 on an
    hbar = 1 lattice, or a SimConfig, which names U(t) at t = kick_count on
    its lattice. A config's U(t) is built here (`build_floquet_matrix`),
    applied by `propagator.apply_floquet` for the residuals, and freed once
    its parity blocks are built, before eig, whoever holds the config; a
    bare matrix is multiplied in full for them.

    U is solved as its even (M/2 + 1) and odd (M/2 - 1) momentum-parity
    blocks in one stacked eig, and each eigenvector is embedded back into
    the M-dimensional storage basis, so it is exactly even or odd in n.
    Eigenvectors are normalized and phase-fixed in place, and residuals
    ||U phi - u phi|| are taken, both in blocks of _BLOCK columns. The block
    stack is released once eig returns. Pairs above
    RESIDUAL_TOLERANCE * max(1, max|U|) are flagged with a warning. Raises
    ValueError if U has non-finite entries, or if it couples the two parity
    sectors by more than PARITY_TOLERANCE * max|U|, and SpectrumError if U(t),
    a parity block or a residual overflows double range or eig fails to
    converge.
    One pass reads max|U|, which is nan or inf if an entry is,
    so the entries are checked one by one only when max|U| is not finite.
    The eig and the residuals run on one BLAS thread.
    """
    if isinstance(operator, SimConfig):
        t, lattice = operator.kick_count, operator.lattice
        matrix = build_floquet_matrix(operator, t, lattice.size)
        apply_u = functools.partial(apply_floquet, lattice=lattice,
                                    schedule=operator.schedule, t=t)
    else:
        t, lattice = 0, None
        matrix = np.ascontiguousarray(operator, dtype=np.complex128)
        apply_u = matrix.__matmul__
    m = matrix.shape[0]
    if matrix.shape != (m, m):
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    max_abs = _max_abs(matrix)
    # a finite entry whose modulus overflows also makes max|U| inf
    if not np.isfinite(max_abs) and not np.all(np.isfinite(matrix.view(np.float64))):
        raise ValueError("matrix has non-finite entries")
    if lattice is None:
        lattice = MomentumLattice(m, 1.0)

    scale = max(1.0, max_abs)
    with _blas.one_thread():
        try:
            # a fold of two entries near the top of double range overflows;
            # raising here keeps it from reaching eig as an inf
            with np.errstate(over="raise"):
                blocks = _parity_blocks(matrix, max_abs)
                # apply_u stands in for U from here on: a bare matrix stays
                # alive in it, a built U(t) is freed here
                del matrix
                vals, vecs = np.linalg.eig(blocks)
                del blocks  # before the (M, M) eigenvector array is allocated
                eigvals, vecs = _embed_pairs(vals, vecs)
        except FloatingPointError as exc:
            raise SpectrumError(
                f"parity blocks of U overflow double range (dim {m}, max|U| {scale:.3e}); "
                "U(t) grows too fast at this lambda, hbar and t"
            ) from exc
        except np.linalg.LinAlgError as exc:
            raise SpectrumError(
                f"eigensolver failed to converge (dim {m}, max|U| {scale:.3e}): {exc}"
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
            # an overflowing residual is reported below, not warned about here
            with np.errstate(over="ignore", invalid="ignore"):
                defect = apply_u(block)
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
    """`quasi_spectrum` of config's U(t) on an m_spec lattice; t < 0 is config's ValueError."""
    lattice = MomentumLattice(m_spec, config.lattice.hbar_eff)
    return quasi_spectrum(replace(config, lattice=lattice, kick_count=t))


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
