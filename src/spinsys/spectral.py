"""Dense and ARPACK Hermitian eigensolvers, sector blocking, spectral gaps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .hilbert import (SpinSpace, SectorBasis, magnetization_sector, momentum_blocks, restrict,
                      translation_orbits)
from .models import TERM_HERMITICITY_TOL, assemble
from .util import ordered_map, require_memory

DEGENERACY_TOL = 1e-8      # levels this close to the lowest are one degenerate level
RESIDUAL_TOL = 1e-9
# The one dense/ARPACK choice for k-lowest sector solves: dense eigvalsh up
# to this dimension, ARPACK above.  Timed with one BLAS thread on real AKLT
# (L = 7-9) and spin-1/2 Heisenberg (L = 12, 14) ring sectors, k = 2 and 6:
# dense is faster below dim 400, the two are even at dims 393-504 (dense
# 10-16 ms, ARPACK 9-36 ms), and ARPACK is 2-8x faster at dims 784-1554
# and 45x at 3139 (2.8 s against 0.06 s).
KRYLOV_CROSSOVER = 512
# The fixed cost of a momentum split (``_momentum_levels``), in the n^3 units
# of its cost rule.  Timed with one BLAS thread on the perturbed AKLT ring
# sectors of L = 8 and 10: the split of a 1-state sector takes 0.8-1.0 ms
# (its orbits, its shift check and one 1 x 1 block) against 0.02 ms whole,
# and a real dense eigvalsh takes 2.0-3.5e-10 s per n^3 at n = 200-350
# (2.7 ms at 200, 8.7 ms at 350), so the fixed part is about 4e6 n^3.
MOMENTUM_SPLIT_COST = 4_000_000


class ConvergenceError(RuntimeError):
    """The Krylov eigensolver failed to converge; carries the best residual reached."""

    def __init__(self, message, best_residual):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray] = None     # columns
    residuals: Optional[np.ndarray] = None
    block: Optional[sp.csr_matrix] = None         # the CSR block ``sector_spectrum`` solved
    # the lowest level on the complement of an ARPACK solve's vectors
    complement_level: Optional[float] = None

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if ev.size > 1 and np.any(np.diff(ev) < -1e-12):
            raise ValueError("eigenvalues must be ascending")
        self.eigenvalues = ev


@dataclass
class GapReport:
    ground_energy: float
    ground_degeneracy: int
    gap: float


def _residuals(mat, evals, vecs):
    r = mat @ vecs - vecs * evals[None, :]
    return np.linalg.norm(r, axis=0)


def full_spectrum(H, want_vectors=False) -> SpectrumReport:
    """All eigenpairs by dense Hermitian diagonalization.  A sparse H is made
    dense after the memory check; values peak at 2, vectors at 5.2 times dense H."""
    mat = getattr(H, "matrix", H)
    n = mat.shape[0]
    require_memory((6 if want_vectors else 3) * n * n * mat.dtype.itemsize,
                   f"the dense {mat.dtype} solve of dimension {n}")
    dense = mat.toarray() if sp.issparse(mat) else np.asarray(mat)
    if want_vectors:
        return SpectrumReport(*np.linalg.eigh(dense))
    return SpectrumReport(np.linalg.eigvalsh(dense))


def extremal_eigs(H, k, want_vectors=True) -> SpectrumReport:
    """k lowest eigenpairs by implicitly restarted Lanczos (ARPACK, through
    ``scipy.sparse.linalg.eigsh``), each ARPACK answer checked on the
    complement of its vectors.

    ARPACK runs on H - sigma 1 with sigma = ||H||_1 + 1, so every level it
    sees is at most -1: with an exact zero level (frustration-free models)
    and an exhausted Krylov space, the unshifted run can return wrong
    levels with tiny residuals.  It asks for the k wanted levels only, and
    always runs at machine precision (``tol=0``).

    Lanczos finds a second copy of a degenerate level only through
    rounding, so ARPACK can return a wrong level with tiny residuals, and
    spare Ritz values do not prevent it (with k + 6 of them it returned 7 of
    the 8 copies of a level of the 18-site XX ring at k = 16).  The
    complement check catches that: when the k returned vectors V are
    eigenvectors, H maps their orthogonal complement into itself and
    carries there every level not returned.  A k = 1 ARPACK run on
    (1 - V V^H)(H - sigma)(1 - V V^H), started from a projected random
    vector, finds its lowest level lambda_perp (the shift keeps the zero
    levels of the span of V on top).  When lambda_perp < E_k - RESIDUAL_TOL
    * max(1, |E_k|), a level was missed: the new pair replaces the top one
    and the check runs again; a check that still finds a level after k
    such rounds raises ``ConvergenceError``.  The guarantee is one-sided.  A
    Ritz value lies above the level it approximates, so a lambda_perp below
    E_k proves a miss; that none was missed rests on Lanczos finding the
    lowest level from a random start, which can miss it only when the
    start has almost no component on that level's eigenspace.  The last
    lambda_perp is the report's ``complement_level``.

    Both start vectors and ARPACK's restart vectors come from one fixed
    seed, so repeated runs agree bit for bit.  A residual above
    RESIDUAL_TOL * max(1, |E|) raises ``ConvergenceError``.  Only a matrix
    of fewer than k + 8 states is diagonalised densely.

    A matrix whose stored entries all lie on the diagonal (such as a sum of
    S3 S3 terms on the full space) runs neither: its k lowest diagonal
    entries, in stable order, are returned with unit eigenvectors and zero
    residuals, which is exact.
    """
    import scipy.sparse.linalg as spla

    # sparse even for dense input: numpy's and scipy's BLAS are separate
    # libraries, and alternating their thread pools stalls ARPACK
    mat = sp.csr_matrix(getattr(H, "matrix", H))
    dim = mat.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if mat.nnz <= dim and np.array_equal(
            mat.indices, np.repeat(np.arange(dim), np.diff(mat.indptr))):
        diag = mat.diagonal().real
        order = np.argsort(diag, kind="stable")[:k]
        vecs = None
        if want_vectors:
            vecs = np.zeros((dim, order.size), dtype=mat.dtype)
            vecs[order, np.arange(order.size)] = 1.0
        return SpectrumReport(diag[order], vecs, residuals=np.zeros(order.size))
    if dim < k + 8:
        rep = full_spectrum(mat, want_vectors=True)
        evals, vecs = rep.eigenvalues[:k], rep.eigenvectors[:, :k]
        return SpectrumReport(evals, vecs, residuals=_residuals(mat, evals, vecs))
    if not np.any(mat.data.imag):
        mat = mat.real              # ARPACK's real symmetric routines are faster
    # |H|, the shifted copy and its buffer; then the larger of the two runs:
    # eigsh's ncv Lanczos vectors, work and k Ritz vectors, or the complement
    # run's (at most ncv) vectors and work beside V, V's copy at a lock-in,
    # the new vector and two projection temporaries
    ncv, item = min(dim, max(2 * k + 1, 20)), mat.dtype.itemsize
    require_memory(3 * (mat.nnz + dim) * (item + 4) + (ncv + 2 * k + 7) * dim * item,
                   f"ARPACK on {dim} states")
    sigma = float(abs(mat).sum(axis=0).max()) + 1.0
    shifted = mat - sigma * sp.identity(dim, format="csr")
    rng = np.random.default_rng(0)

    def lowest(op, nev, v0):
        try:
            return spla.eigsh(op, k=nev, which="SA", tol=0, v0=v0.astype(mat.dtype), rng=rng)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"ARPACK converged {len(exc.eigenvalues)} of {nev} levels", np.inf) from exc

    vals, vecs = lowest(shifted, k, rng.uniform(-1.0, 1.0, dim))

    def project(x):             # onto the complement of the current vecs
        return x - vecs @ (vecs.conj().T @ x)

    complement = spla.LinearOperator((dim, dim), dtype=mat.dtype,
                                     matvec=lambda x: project(shifted @ project(x)))
    for rounds in range(k + 1):
        order = np.argsort(vals, kind="stable")
        vals, vecs = vals[order], vecs[:, order]
        perp, u = lowest(complement, 1, project(rng.uniform(-1.0, 1.0, dim)))
        top = vals[-1] + sigma
        if perp[0] + sigma >= top - RESIDUAL_TOL * max(1.0, abs(top)):
            break
        if rounds == k:
            raise ConvergenceError(
                f"the complement of the {k} ARPACK levels still holds {perp[0] + sigma!r}, "
                f"below E_k = {top!r}, after {k} rounds", np.inf)
        # a missed level: lock the new pair in and drop the top one
        vals, vecs = np.r_[vals[:-1], perp], np.column_stack([vecs[:, :-1], u])
    evals = vals + sigma
    res = _residuals(mat, evals, vecs)
    if res.max() > RESIDUAL_TOL * max(1.0, abs(evals).max()):
        raise ConvergenceError("ARPACK returned inaccurate eigenpairs", res.max())
    return SpectrumReport(evals, vecs if want_vectors else None, residuals=res,
                          complement_level=float(perp[0] + sigma))


def sector_spectrum(H, sector: SectorBasis, k="all", want_vectors=False,
                    momenta=False) -> SpectrumReport:
    """Spectrum of H restricted to a sector (leak-checked restriction).

    ``k="all"`` and sectors of dimension up to KRYLOV_CROSSOVER are
    diagonalised densely and return every level; a larger sector returns
    its k lowest levels from ``extremal_eigs``.  With ``momenta=True`` and
    values only, a real block that commutes with the one-site shift and the
    reflection may instead be solved by its momentum blocks
    (``_momentum_levels``), which return every level.  The report carries
    the CSR block it solved as ``block``; for a real H built on the sector
    it shares the arrays of H.
    """
    block = restrict(H, sector, dense=False)
    rep = _momentum_levels(block, sector, k) if momenta and not want_vectors else None
    if rep is None and (k == "all" or sector.dim <= KRYLOV_CROSSOVER):
        rep = full_spectrum(block, want_vectors=want_vectors)
    elif rep is None:
        rep = extremal_eigs(block, k=k, want_vectors=want_vectors)
    rep.block = block
    return rep


def _commutes(block, perm, cols=None) -> bool:
    """Whether h[perm t, perm s] = h[t, s] at every nonzero (t, s) of the
    columns ``cols`` (default all) of the sector block h, to
    TERM_HERMITICITY_TOL of its largest entry as in the terms' flip check;
    ``perm`` maps state s to ``perm[s]``, and the moved entries are gathered
    from h.  Over all columns this is perm h perm^T = h up to the tolerance
    times the length of a cycle of perm (at most L for the shift, 2 for the
    reflection): a nonzero moved onto a zero is itself within the tolerance,
    and so, one tolerance further each, are the nonzeros before it on its
    cycle.

    For the reflection P of a block that commutes with the one-site shift T
    the representative columns suffice: P h P^T commutes with T as h does
    (P T P = T^-1), two such blocks agree when their representative columns
    do, and the columns P r_a (those of r_a' shifted) hold as many nonzeros
    as the columns r_a."""
    coo = (block if cols is None else block[:, cols]).tocoo()
    col = coo.col if cols is None else cols[coo.col]
    moved = np.asarray(block[perm[coo.row], perm[col]]).ravel()
    return not (coo.nnz and np.abs(moved - coo.data).max()
                > TERM_HERMITICITY_TOL * abs(block.data).max())


def momentum_spectra(block, orbits, slots):
    """The spectra of the momentum blocks k = 0..L - 1 of a real sector block
    that commutes with the one-site shift T and the reflection P, or None
    when the block is complex or breaks either symmetry (``_commutes``, on
    every column for T and on the representative columns for P).  ``slots``
    is ``orbits.slots(range(L // 2 + 1))``.

    The blocks k <= L/2 are solved (``hilbert.momentum_blocks``, by
    ``full_spectrum`` in ascending k), each real in the J-real basis of
    J = P K and k = 0 and L/2 in their two parity halves; k > L/2 takes the
    levels of L - k (h_(L-k) = conj h_k)."""
    L = orbits.n_sites
    if (np.iscomplexobj(block.data) or not _commutes(block, orbits.shift)
            or not _commutes(block, orbits.reflect, orbits.reps)):
        return None
    slots = [slot for slot in slots if sum(slot[2])]
    solved = {q: np.sort(np.concatenate([full_spectrum(h).eigenvalues for h in halves if h.size]))
              for (q, *_), halves in zip(slots, momentum_blocks(block, orbits, slots))}
    return [solved.get(min(q, L - q), np.empty(0)) for q in range(L)]


def _momentum_levels(block, sector: SectorBasis, k):
    """Every level of the sector block, as the sorted union of the spectra of
    its momentum blocks (``momentum_spectra``), or None when the sector does
    not split.

    Only a sector of equal sites that the reflection maps onto itself
    splits, and only when its blocks are cheaper than the sector's own path:
    MOMENTUM_SPLIT_COST + sum n^3 over the real blocks ``momentum_spectra``
    solves, against min(dim, KRYLOV_CROSSOVER)^3 (dim^3 for ``k="all"``),
    so a sector whose own cost is at most MOMENTUM_SPLIT_COST is refused
    before its orbits are built.  A block that is complex or breaks the
    shift or the reflection is not split either."""
    own = (sector.dim if k == "all" else min(sector.dim, KRYLOV_CROSSOVER)) ** 3
    if own <= MOMENTUM_SPLIT_COST or len(set(sector.site_dims)) != 1:
        return None
    orbits = translation_orbits(sector)
    if orbits.reflect is None:
        return None
    slots = orbits.slots(range(orbits.n_sites // 2 + 1))
    if MOMENTUM_SPLIT_COST + sum(d ** 3 for *_, sizes in slots for d in sizes) > own:
        return None
    spectra = momentum_spectra(block, orbits, slots)
    return None if spectra is None else SpectrumReport(np.sort(np.concatenate(spectra)))


def spectral_gap(report: SpectrumReport) -> GapReport:
    """Gap = first eigenvalue above ground + DEGENERACY_TOL, minus the ground energy."""
    ev = report.eigenvalues
    if ev.size < 2:
        raise ValueError("need at least 2 eigenvalues to define a gap")
    e0 = float(ev[0])
    above = ev[ev > e0 + DEGENERACY_TOL]
    if above.size == 0:
        raise ValueError("spectrum is fully degenerate within tolerance; no gap defined")
    degeneracy = int(np.sum(ev <= e0 + DEGENERACY_TOL))
    return GapReport(ground_energy=e0, ground_degeneracy=degeneracy,
                     gap=float(above[0] - e0))


def sector_sweep_lowest(phi, space: SpinSpace, k=4, threads=1):
    """Lowest-k levels of the interaction ``phi`` over the magnetization
    sectors of ``space``, merged ascending; each block is assembled on its
    sector alone (``assemble(phi, sector)``).

    Returns (merged SpectrumReport, dict label -> per-sector SpectrumReport,
    each carrying the block it was solved from as ``block``).
    A sector solved densely (see ``sector_spectrum``) contributes all its
    levels.  On a space of equal sites a sector whose real block commutes
    with the one-site shift and the reflection is solved by its momentum
    blocks when they are cheaper than its own dense or ARPACK solve
    (``_momentum_levels``); it too contributes all its levels, and its
    report holds their sorted union and the sector block.  The merge order is canonical (descending
    M), independent of any parallelism.

    When every term commutes with the global spin flip
    (``phi.flip_invariant()``), the sector -M has the spectrum of M: only the
    sectors M >= 0 are solved, the merged report lists each M > 0 level
    twice, and the dict holds only the sectors solved.

    An interaction that passes ``phi.su2_invariant(space)`` goes through
    ``symmetry.su2_sweep_lowest``: it solves the lowest sector M = 0 (or
    1/2), with eigenvectors, and the dense top sectors, and returns those.
    """
    if phi.su2_invariant(space):
        from .symmetry import su2_sweep_lowest
        return su2_sweep_lowest(phi, space, k=k, threads=threads)

    def solve(M):
        sector = magnetization_sector(space, M)
        return sector.label, sector_spectrum(assemble(phi, sector), sector, k=k,
                                             momenta=True)

    flip = phi.flip_invariant()
    values = [M for M in space.magnetization_values() if M >= 0 or not flip]
    per_sector = dict(ordered_map(solve, values, threads))
    # under the flip, each solved M > 0 also stands for -M
    merged = np.sort(np.concatenate([np.tile(r.eigenvalues, 2 if flip and lab[1] > 0 else 1)
                                     for lab, r in per_sector.items()]))
    return SpectrumReport(merged), per_sector
