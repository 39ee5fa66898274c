"""Total-spin structure: SU(2) and SU_q(2) ladder totals, per-sector
Casimirs, and the classification of eigenstates by total spin.

A ladder (``su2_totals`` or ``suq2_generators``) is the one description of
its algebra: ``plus(source, target)`` and ``minus(source, target)`` build
the block of the S+/S- total between any two bases (the sum over x of one
``embed_at`` product per site, so only the sectors involved are touched;
no full-space ladder is formed unless both bases are the space; the SU(2)
S- block is the transpose of an S+ block),
``casimir_shift`` (the Casimir is S+ S- plus this on a sector),
``casimir_value`` (the Casimir on a spin-S multiplet) and
``hermitian_casimir`` (whether the Casimir is Hermitian).
Both algebras are labelled by one function, ``sector_spin_levels``: every
multiplet of total spin S contributes exactly one vector to the sector
M = S, so labelling that sector's eigenvectors by the Casimir gives the
spin-S levels.  The labels are read from C' = V^H C_M V, the sector
Casimir in the eigenbasis V of H, built once per sector: a nondegenerate
level's value is a diagonal entry of C', and only H-degenerate clusters
diagonalise their block of C'.  ``classify_total_spin(phi, ladder, space)``
runs it over the spin grid, on H assembled sector by sector, and keeps every
level of the sectors it solved.  ``su2_sweep_lowest`` labels the Ritz
vectors of the lowest sector M = 0 (or 1/2) the same way, so that the gap
sweep of a model declared SU(2)-invariant solves that sector alone.
Internally S is carried as the integer 2S to keep half-integers exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import takewhile
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .hilbert import SpinSpace, SparseOperator, spin_matrices, embed_at, \
    magnetization_sector
from . import spectral
from .models import XxzParams, assemble
from .spectral import SpectrumReport, sector_spectrum
from .util import ordered_map

CLASSIFY_DEGENERACY_TOL = 1e-8
CASIMIR_RESIDUAL_TOL = 1e-8
DOMINANCE_FACTOR = 1e3
SU2_CHECK_TOL = 1e-10
# A block commutator H_(M+1) S+ - S+ H_M is formed in this many row slices.
# On the AKLT L=12 ring the whole M = 0 -> 1 commutator takes 365 MB of
# sparse products at once and 0.41 s; in 8 slices, 52 MB and 0.39 s.
COMMUTATOR_SLICES = 8


class ClassificationError(RuntimeError):
    pass


def _ladder_block(terms, source, target) -> SparseOperator:
    """sum over the factor lists ``terms`` of embed_at(source, factors,
    target=target): one ladder total between two bases."""
    total = sp.csr_matrix((target.total_dim, source.total_dim))
    for factors in terms:
        total = total + embed_at(source, factors, target=target).matrix
    return SparseOperator(total, basis=source, target=target)


class TotalSpinOps(NamedTuple):
    """The SU(2) ladder totals S+ = sum_x S+_x and S- = (S+)^H on ``space``,
    built as blocks between two bases on demand."""

    space: SpinSpace

    hermitian_casimir = True

    def plus(self, source, target) -> SparseOperator:
        """The block of S+ from the basis ``source`` to ``target``."""
        return _ladder_block([[(x, spin_matrices(self.space.spin_at(x)).plus)]
                              for x in range(self.space.n_sites)], source, target)

    def minus(self, source, target) -> SparseOperator:
        """The block of S- from the basis ``source`` to ``target``: S+ is real
        and no two sites share a matrix element, so S- is S+ transposed, bit
        for bit."""
        return SparseOperator(self.plus(target, source).matrix.T, basis=source,
                              target=target)

    def casimir_shift(self, twice_m):
        """S.S = S+ S- + M(M - 1) on the sector M."""
        m = twice_m / 2
        return m * (m - 1)

    def casimir_value(self, twice_s):
        """S(S + 1) on a spin-S multiplet."""
        s = twice_s / 2
        return s * (s + 1)


def su2_totals(space: SpinSpace) -> TotalSpinOps:
    """The SU(2) ladder of ``space``."""
    return TotalSpinOps(space)


class SuqOps(NamedTuple):
    """Twisted SU_q(2) ladder totals on the L-site spin-1/2 chain, built as
    blocks between two bases on demand (see ``suq2_generators``)."""

    L: int
    q: float

    hermitian_casimir = False

    def plus(self, source, target) -> SparseOperator:
        """The block of S+ = sum_x S+_x t_(x+1) ... t_L from ``source`` to ``target``."""
        t = np.diag([1 / self.q, self.q])
        return _ladder_block([[(x, spin_matrices(0.5).plus)]
                              + [(y, t) for y in range(x + 1, self.L)]
                              for x in range(self.L)], source, target)

    def minus(self, source, target) -> SparseOperator:
        """The block of S- = sum_x t_1^-1 ... t_(x-1)^-1 S-_x from ``source`` to ``target``."""
        t_inv = np.diag([self.q, 1 / self.q])
        return _ladder_block([[(y, t_inv) for y in range(x)]
                              + [(x, spin_matrices(0.5).minus)]
                              for x in range(self.L)], source, target)

    def casimir_shift(self, twice_m):
        """((qT)^-1 + qT) / (1/q - q)^2 on the sector M, where T = q^(-2M):
        the q-Casimir is S+ S- plus this."""
        q = self.q
        return (q ** (twice_m - 1) + q ** (1 - twice_m)) / (1 / q - q) ** 2

    def casimir_value(self, twice_s):
        """(q^-(2S+1) + q^(2S+1)) / (1/q - q)^2 on a deformed spin-S multiplet."""
        q = self.q
        return (q ** (-(twice_s + 1)) + q ** (twice_s + 1)) / (1 / q - q) ** 2


def suq2_generators(p: XxzParams) -> SuqOps:
    """Twisted SU_q(2) ladder of the spin-1/2 chain.

    S+ carries the t = diag(1/q, q) tail on the sites after the raising
    site and S- the inverse tail before the lowering site; this is the
    spatial mirror of the more common left-tail convention and is the
    chirality that commutes with the boundary field -A(S3_L - S3_1).
    The tails are ordinary diagonal factors of each term's product.  With
    T = q^(-2 S3) the product of all t_x, the q-Casimir is S+ S- +
    ((qT)^-1 + qT) / (1/q - q)^2 (see ``sector_casimir``), and
    [S+, S-] = (q^(2 S3) - q^(-2 S3)) / (q - 1/q).
    """
    if not (0 < p.q < 1):
        raise ValueError(f"q must lie in (0,1), got {p.q}")
    return SuqOps(p.L, p.q)


def _casimir_factors(ladder, sector):
    """The rectangular ladder blocks S+|(M-1 -> M) and S-|(M -> M-1) of the
    Casimir on ``sector`` (M above the lowest sector); see ``sector_casimir``."""
    below = magnetization_sector(sector.parent, sector.label[1] - 1)
    return ladder.plus(below, sector).matrix, ladder.minus(sector, below).matrix


def _sparse_casimir(ladder, space: SpinSpace, twice_m: int):
    """``sector_casimir`` as a sparse CSR matrix, built from the rectangular
    ladder blocks."""
    sector = magnetization_sector(space, twice_m / 2)
    c = ladder.casimir_shift(twice_m) * sp.identity(sector.dim, format="csr")
    if twice_m > -space.twice_m_total_max():
        up, down = _casimir_factors(ladder, sector)
        c = c + up @ down
    return c


def sector_casimir(ladder, space: SpinSpace, twice_m: int) -> np.ndarray:
    """Dense Casimir block on the sector M = twice_m / 2 of either algebra:
    C_M = S+|(M-1 -> M) S-|(M -> M-1) + ladder.casimir_shift(twice_m) 1.
    No full-space Casimir is formed."""
    return _sparse_casimir(ladder, space, twice_m).toarray()


def spin_multiplicities(space: SpinSpace, lowest=0) -> dict:
    """2S -> number of spin-S multiplets, dim(M=S) - dim(M=S+1) from the
    counted sector dimensions (``SpinSpace.magnetization_dims``), for every
    2S >= ``lowest``; no closed formula, so mixed spin magnitudes are
    handled uniformly."""
    tmax = space.twice_m_total_max()
    dims = dict(zip(range(tmax, -tmax - 1, -2), space.magnetization_dims()))
    mult = {t: dims[t] - dims.get(t + 2, 0) for t in reversed(range(tmax, lowest - 1, -2))}
    return {t: m for t, m in mult.items() if m > 0}


@dataclass
class SpinResolvedLevels:
    """E(H,S) (and the largest energy per S) over the total-spin grid."""

    entries: dict                 # 2S -> min energy among spin-S states
    max_entries: dict             # 2S -> max energy among spin-S states
    counts: dict                  # 2S -> number of spin-S multiplets found
    twice_s_max: int
    casimir_residuals: dict = field(default_factory=dict)
    sector_levels: dict = field(default_factory=dict)  # 2S -> every level of M = S

    def spins(self):
        return sorted(self.entries)


def _label_levels(evals, c_rot, candidates, hermitian_c, basis=None):
    """Casimir labels and residuals of the eigenpairs of H (ascending evals)
    from C' = V^H C V, V orthonormal eigenvectors of H.  A nondegenerate
    level has value C'_ii; an H-degenerate cluster (adjacent gaps <=
    CLASSIFY_DEGENERACY_TOL) is split by diagonalising its block of C'.
    When V is the full eigenbasis (``basis`` None), the residual
    ||C v - c v|| of v = V u is ||C' u - c u||, as V is unitary, and C' is
    overwritten.  For a partial basis, ``basis`` is (V, C V) and the
    residual is computed from them directly."""
    starts = np.flatnonzero(np.diff(evals, prepend=-np.inf) > CLASSIFY_DEGENERACY_TOL)
    sizes = np.diff(starts, append=evals.size)
    cvals = np.diagonal(c_rot).astype(complex)
    vecs = {}
    solve = np.linalg.eigh if hermitian_c else np.linalg.eig
    for i, k in zip(starts[sizes > 1], sizes[sizes > 1]):
        cvals[i:i + k], vecs[i] = solve(c_rot[i:i + k, i:i + k])
    imag = np.repeat(np.maximum.reduceat(np.abs(cvals.imag), starts), sizes)
    magnitude = np.repeat(np.maximum.reduceat(np.abs(cvals), starts), sizes)
    imag_bad = (not hermitian_c) & (imag > 1e-8 * np.maximum(1.0, magnitude))
    cand_ts = np.array(sorted(candidates))
    cand_vals = np.array([candidates[t] for t in cand_ts])
    # the inf column gives every level a second-nearest distance
    dists = np.abs(np.append(cand_vals, np.inf) - cvals.real[:, None])
    best = dists.argmin(axis=1)
    d1, d2 = np.sort(dists, axis=1)[:, :2].T
    target = cand_vals[best]
    scale = np.maximum(1.0, np.abs(target))
    ambiguous = (d1 > 0) & (d2 < DOMINANCE_FACTOR * d1) & (d1 > 1e-14 * scale)
    if basis is not None:
        v, cv = basis
        rot = np.identity(evals.size, dtype=complex)
        for i, u in vecs.items():
            rot[i:i + u.shape[1], i:i + u.shape[1]] = u
        resid = np.linalg.norm(cv @ rot - (v @ rot) * target, axis=0)
    else:
        single = np.flatnonzero(np.repeat(sizes == 1, sizes))
        c_rot[single, single] -= target[single]
        resid = np.sqrt(np.vecdot(c_rot, c_rot, axis=0).real)
        for i, u in vecs.items():
            j = i + u.shape[1]
            r = c_rot[:, i:j] @ u
            r[i:j] -= u * target[i:j]
            resid[i:j] = np.linalg.norm(r, axis=0)
    resid /= scale
    bad = imag_bad | ambiguous | (resid > CASIMIR_RESIDUAL_TOL)
    if bad.any():               # the first failing level, as a walk would find it
        p = bad.argmax()
        if imag_bad[p]:
            raise ClassificationError(
                f"q-Casimir eigenvalues acquired imaginary parts up to {imag[p]:.3e}")
        if ambiguous[p]:
            raise ClassificationError(
                f"ambiguous Casimir label: value {cvals[p].real:.6g} sits between "
                f"candidates (distances {d1[p]:.3e}, {d2[p]:.3e})")
        raise ClassificationError(
            f"Casimir residual {resid[p]:.3e} above tolerance after "
            f"simultaneous diagonalization (label 2S={cand_ts[best[p]]})")
    return cand_ts[best], resid


def sector_spin_levels(phi, ladder, space: SpinSpace, twice_s: int, spins):
    """The spin-S states of an interaction commuting with ``ladder``'s
    algebra, S = twice_s / 2: their energies (ascending) and Casimir
    residuals, and every eigenvalue of the sector M = S.

    H is assembled on that sector alone and diagonalized densely by
    ``sector_spectrum``, and the Casimir rotated into its eigenbasis once;
    degenerate H-eigenspaces are split by the Casimir rather than trusting
    solver bases, and each eigenvector is labeled by the nearest
    ``ladder.casimir_value(t)`` over the spins t >= 2S in ``spins`` (the 2S
    present in the space, as ``spin_multiplicities`` gives them).
    """
    sector = magnetization_sector(space, twice_s / 2)
    rep = sector_spectrum(assemble(phi, sector), sector, want_vectors=True)
    evals, vecs = rep.eigenvalues, rep.eigenvectors
    c_rot = vecs.conj().T @ (_sparse_casimir(ladder, space, twice_s) @ vecs)
    del rep, vecs               # C' is all the labelling needs
    candidates = {t: ladder.casimir_value(t) for t in spins if t >= twice_s}
    labels, residuals = _label_levels(evals, c_rot, candidates,
                                      ladder.hermitian_casimir)
    mine = labels == twice_s
    if not mine.any():
        raise ClassificationError(
            f"no state labeled 2S={twice_s} found in its own sector")
    return evals[mine], residuals[mine], evals


def _unmatched_level(upper, lower, tol):
    """The first level of ``upper`` without a level of its own in ``lower``
    within tol (both ascending, matched as multisets), or None."""
    j = 0
    for e in upper:
        while j < lower.size and lower[j] < e - tol:
            j += 1
        if j == lower.size or lower[j] > e + tol:
            return e
        j += 1
    return None


def su2_sweep_lowest(phi, space: SpinSpace, k=4, threads=1):
    """``spectral.sector_sweep_lowest`` for a ``phi`` declared SU(2)-invariant.

    Every level of the sector M > 0 also lies in M - 1, so the lowest
    sector M0 = 0 (or 1/2) holds every distinct level.  The declaration is
    checked first, and a failed check raises ``ValueError``:

    - ||H_(M+1) S+ - S+ H_M|| (largest entry of the sparse block
      commutator, ``su2_totals`` ladder) is at most SU2_CHECK_TOL times the
      largest entries of H and S+, for every adjacent pair of the blocks
      formed: M0, M0 + 1, and the top sectors up to dimension
      ``spectral.KRYLOV_CROSSOVER``;
    - those top sectors, solved densely, nest: spec(M + 1) is contained,
      as a multiset, in spec(M) to SU2_CHECK_TOL (M0 joins the chain when
      it is dense too).

    Each block is assembled once, for the check and the solve.  M0 is then
    solved with eigenvectors through ``sector_spectrum`` (its k lowest
    levels, or all of them when dense), each vector is labelled by the
    sector Casimir (``_label_levels``, residuals from the sparse C_M0),
    and the merged report lists each level 2S + 1 times.  Returns (merged
    report, label -> report of each sector solved, M0's with eigenvectors).
    """
    tmax = space.twice_m_total_max()
    low = tmax % 2
    dims = space.magnetization_dims()           # of 2M = tmax - 2i at index i
    top = list(takewhile(lambda t: dims[(tmax - t) // 2] <= spectral.KRYLOV_CROSSOVER,
                         range(tmax, low, -2)))  # the dense top run, above M0
    sectors = {t: magnetization_sector(space, t / 2)
               for t in dict.fromkeys(top + [low + 2, low]) if t <= tmax}

    ladder = su2_totals(space)
    ups = {t: ladder.plus(sectors[t], sectors[t + 2]).matrix
           for t in sectors if t + 2 in sectors}
    # C_M0 is applied to M0's eigenvectors as up (down V) + shift V, unformed
    up_c, down_c = _casimir_factors(ladder, sectors[low])
    shift = ladder.casimir_shift(low)
    candidates = {t: ladder.casimir_value(t) for t in range(low, tmax + 1, 2)}
    blocks = {t: assemble(phi, sec) for t, sec in sectors.items()}
    largest = {t: np.abs(b.matrix.data).max(initial=1.0) for t, b in blocks.items()}
    for t, up in sorted(ups.items()):
        edges = np.linspace(0, up.shape[0], COMMUTATOR_SLICES + 1).astype(int)
        dev = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            comm = blocks[t + 2].matrix[a:b] @ up - up[a:b] @ blocks[t].matrix
            dev = max(dev, np.abs(comm.data).max(initial=0.0))
        scale = max(largest[t], largest[t + 2]) * np.abs(up.data).max(initial=0.0)
        if dev > SU2_CHECK_TOL * scale:
            raise ValueError(
                f"H is declared SU(2)-invariant, but ||H S+ - S+ H|| = {dev:.3e} "
                f"from M = {t / 2} to M = {t / 2 + 1}")
    order = [low] + top
    blocks = {t: blocks[t] for t in order}      # M0 + 1, if not dense, was only checked
    del ups

    def solve(t):
        return sector_spectrum(blocks[t], sectors[t], k=k, want_vectors=t == low)

    reports = dict(zip(order, ordered_map(solve, order, threads)))
    full = {t for t, r in reports.items() if r.eigenvalues.size == sectors[t].dim}
    for t in sorted(full):
        if t + 2 not in full:
            continue
        lower = reports[t].eigenvalues
        e = _unmatched_level(reports[t + 2].eigenvalues, lower,
                             SU2_CHECK_TOL * max(1.0, np.abs(lower).max()))
        if e is not None:
            raise ValueError(
                f"H is declared SU(2)-invariant, but the level {e!r} of "
                f"M = {t / 2 + 1} has no partner in M = {t / 2}")

    rep = reports[low]
    vecs = rep.eigenvectors
    cv = up_c @ (down_c @ vecs) + shift * vecs
    labels, _ = _label_levels(rep.eigenvalues, vecs.conj().T @ cv, candidates, True,
                              basis=None if low in full else (vecs, cv))
    merged = SpectrumReport(np.repeat(rep.eigenvalues, labels + 1))
    return merged, {sectors[t].label: reports[t] for t in top + [low]}


def classify_total_spin(phi, ladder, space: SpinSpace) -> SpinResolvedLevels:
    """Build the spin-resolved level table of an interaction commuting with
    the Casimir of ``ladder`` (``su2_totals`` or ``suq2_generators``), one
    ``sector_spin_levels`` call per spin S, each on its sector M = S alone;
    the number of states labeled 2S must equal the multiplet count the
    sector dimensions imply."""
    mult = spin_multiplicities(space)
    entries, max_entries, counts, residuals, sector_levels = {}, {}, {}, {}, {}
    for twice_s in sorted(mult):
        energies, res, sector_levels[twice_s] = sector_spin_levels(
            phi, ladder, space, twice_s, mult)
        if energies.size != mult[twice_s]:
            raise ClassificationError(
                f"multiplet count mismatch at 2S={twice_s}: found {energies.size}, "
                f"sector dimensions imply {mult[twice_s]}")
        entries[twice_s] = energies[0]
        max_entries[twice_s] = energies[-1]
        counts[twice_s] = energies.size
        residuals[twice_s] = res.max()
    return SpinResolvedLevels(entries=entries, max_entries=max_entries,
                              counts=counts,
                              twice_s_max=space.twice_m_total_max(),
                              casimir_residuals=residuals,
                              sector_levels=sector_levels)


@dataclass
class OrderingVerdict:
    property: str                   # "FOEL" or "LiebMattis"
    holds: bool
    witness: Optional[tuple] = None  # (2S, 2S', E(S), E(S')) violating pair
    margin: Optional[float] = None   # min adjacent energy difference


def foel_check(levels: SpinResolvedLevels, strict_tol=1e-9) -> OrderingVerdict:
    """E(H,S) strictly decreasing in S: E(S) < E(S') whenever S' < S."""
    grid = levels.spins()
    lo = grid[0]
    if set(grid) != set(range(lo, levels.twice_s_max + 1, 2)):
        raise ValueError("level table does not cover a contiguous spin grid")
    margin = np.inf
    witness = None
    for t_lo, t_hi in zip(grid[:-1], grid[1:]):
        diff = levels.entries[t_lo] - levels.entries[t_hi]   # E(S') - E(S), S' < S
        margin = min(margin, diff)
        if diff <= strict_tol and witness is None:
            witness = (t_hi, t_lo, levels.entries[t_hi], levels.entries[t_lo])
    return OrderingVerdict("FOEL", witness is None, witness, float(margin))


def lieb_mattis_hamiltonian(g, part_a, part_b, intra_a=None, intra_b=None):
    """H = -H_V + H_A + H_B with every piece a ferromagnetic Heisenberg model.

    ``g`` must be bipartite with respect to the declared parts; ``intra_a`` /
    ``intra_b`` are optional SpinGraph-compatible edge lists inside the parts.
    """
    from .models import heisenberg, Interaction

    part_a, part_b = set(part_a), set(part_b)
    if part_a & part_b or part_a | part_b != set(range(g.n_vertices)):
        raise ValueError("parts must partition the vertex set")
    for (x, y, _) in g.edges:
        if (x in part_a) == (y in part_a):
            raise ValueError(f"edge ({x},{y}) does not cross the declared parts; "
                             "graph is not bipartite for them")
    terms = heisenberg(g).scaled(-1).terms  # -H_V = +sum J S.S
    for edges, part in ((intra_a, part_a), (intra_b, part_b)):
        if not edges:
            continue
        for (x, y, w) in edges:
            if x not in part or y not in part:
                raise ValueError(f"intra-part edge ({x},{y}) leaves its part")
        from .lattice import build_graph
        sub = build_graph(g.n_vertices, edges,
                          spins={x: g.spins[x] for x in range(g.n_vertices)})
        terms = terms + heisenberg(sub).terms
    return Interaction(terms, name="lieb_mattis", params={"su2_invariant": True})


def lieb_mattis_levels(g, part_a, part_b, intra_a=None, intra_b=None) -> SpinResolvedLevels:
    """Spin-resolved level table of ``lieb_mattis_hamiltonian``."""
    phi = lieb_mattis_hamiltonian(g, part_a, part_b, intra_a, intra_b)
    space = SpinSpace.from_graph(g)
    return classify_total_spin(phi, su2_totals(space), space)


def lieb_mattis_order(levels: SpinResolvedLevels, g, part_a, part_b,
                      strict_tol=1e-9) -> OrderingVerdict:
    """The bipartite ordering on a level table: ground at S = |S_A - S_B| and
    E(H,S) strictly increasing above it."""
    twice_sa = int(round(2 * sum(g.spins[x] for x in part_a)))
    twice_sb = int(round(2 * sum(g.spins[x] for x in part_b)))
    twice_s0 = abs(twice_sa - twice_sb)
    grid = levels.spins()
    ground = min(levels.entries.values())
    margin = np.inf
    witness = None
    if abs(levels.entries.get(twice_s0, np.inf) - ground) > strict_tol:
        s_at_ground = min(levels.entries, key=levels.entries.get)
        witness = (twice_s0, s_at_ground, levels.entries.get(twice_s0),
                   levels.entries[s_at_ground])
    upper = [t for t in grid if t >= twice_s0]
    for t_lo, t_hi in zip(upper[:-1], upper[1:]):
        diff = levels.entries[t_hi] - levels.entries[t_lo]
        margin = min(margin, diff)
        if diff <= strict_tol and witness is None:
            witness = (t_lo, t_hi, levels.entries[t_lo], levels.entries[t_hi])
    return OrderingVerdict("LiebMattis", witness is None, witness, float(margin))


def lieb_mattis_check(g, part_a, part_b, intra_a=None, intra_b=None,
                      strict_tol=1e-9) -> OrderingVerdict:
    """Verify the bipartite ordering: ground at S = |S_A - S_B| and E(H,S)
    strictly increasing above it."""
    levels = lieb_mattis_levels(g, part_a, part_b, intra_a, intra_b)
    return lieb_mattis_order(levels, g, part_a, part_b, strict_tol)
