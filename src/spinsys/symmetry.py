"""Total-spin structure: SU(2) and SU_q(2) ladder totals and the
classification of levels by total spin.

Both ladders (``su2_totals``, ``suq2_generators``) are one ``Ladder``: the
name of the algebra and the factor lists of its S+ total, whose block
between any two bases ``plus(source, target)`` builds (one ``embed_at``
product per term, so only the sectors involved are touched).  S+ is real,
so the SU(2) lowering block is the transpose of an S+ block.
Both algebras are classified by one method, ``sector_spin_levels``: when
H commutes with S+ (H_(M+1) S+ = S+ H_M, checked on the blocks by
``_checked_plus``), S+ maps the orthogonal complement of ker S+ in the
sector M = S onto the sector M = S + 1 and intertwines H there, so the
spin-S levels are the multiset difference spec(H|M=S) minus spec(H|M=S+1)
(``_level_difference``, which refuses a level of M = S + 1 without a
partner).  Both checks raise ``ClassificationError`` naming the ladder.
No Casimir is formed and every sector is solved for its values alone.
``classify_total_spin(phi, ladder, space)`` walks the sectors M = S >= 0
up from the lowest, solving each once, and keeps every level of each.
``su2_sweep_lowest`` labels the Ritz vectors of the lowest sector M0 = 0
(or 1/2) instead, by the SU(2) Casimir (S+)^T S+ + M0(M0 + 1) applied
from the S+ block M0 -> M0 + 1 it checks anyway (``_label_levels``), so
that the gap sweep of a model whose terms commute with the total spin
(``Interaction.su2_invariant``) solves that sector alone.
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
from .lattice import build_graph
from .models import XxzParams, assemble, heisenberg
from .spectral import SpectrumReport, sector_spectrum
from .util import ordered_map

ORDERING_STRICT_TOL = 1e-9     # the margin of a strict step in E(S)
CASIMIR_RESIDUAL_TOL = 1e-8
SU2_CHECK_TOL = 1e-10
# A block commutator H_(M+1) S+ - S+ H_M is formed in row slices whose two
# sparse products take at most this many bytes, counted from above as one
# value and one index per multiply-add.  The products take 0.17 MB on the
# largest droplet block (one slice), 4.5 MB on the M = 0 -> 1 block of the
# AKLT L=9 ring (two slices) and 187 MB on that of L=12 (52 slices of 2.7
# to 4.7 MB: 0.33 s, against 0.37 s in 8 slices and 0.47 s in 220, one BLAS
# thread); every slice has a fixed cost of the width of S+.
COMMUTATOR_SLICE_BYTES = 4 * 2 ** 20


class ClassificationError(RuntimeError):
    pass


class Ladder(NamedTuple):
    """A raising total S+ = the sum over ``terms`` of one product of
    single-site factors each ([(site, matrix), ...]), of the algebra
    ``name`` ("SU(2)" or "SU_q(2)")."""

    name: str
    terms: list

    def plus(self, source, target) -> SparseOperator:
        """The block of S+ from the basis ``source`` to ``target``: one
        ``embed_at`` per term, their elements converted to CSR once."""
        shape = (target.total_dim, source.total_dim)
        # empty to start with, so that a ladder without terms gives a zero block
        rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0)]
        for factors in self.terms:
            block = embed_at(source, factors, target=target).matrix
            rows.append(np.repeat(np.arange(shape[0]), np.diff(block.indptr)))
            cols.append(block.indices)
            vals.append(block.data)
        total = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                              shape=shape)
        return SparseOperator(total, basis=source, target=target)


def su2_totals(space: SpinSpace) -> Ladder:
    """The SU(2) ladder of ``space``, S+ = sum_x S+_x; S- = (S+)^T, bit for
    bit, as S+ is real and no two sites share a matrix element."""
    return Ladder("SU(2)", [[(x, spin_matrices(space.spin_at(x)).plus)]
                            for x in range(space.n_sites)])


def suq2_generators(p: XxzParams) -> Ladder:
    """Twisted SU_q(2) ladder of the spin-1/2 chain.

    S+ = sum_x S+_x t_(x+1) ... t_L carries the t = diag(1/q, q) tail on the
    sites after the raising site (and S- = sum_x t_1^-1 ... t_(x-1)^-1 S-_x
    the inverse tail before the lowering site); this is the spatial mirror
    of the more common left-tail convention and is the chirality that
    commutes with the boundary field -J A(S3_L - S3_1).  The tails are
    ordinary diagonal factors of each term's product.  With T = q^(-2 S3)
    the product of all t_x, [S+, S-] = (q^(2 S3) - q^(-2 S3)) / (q - 1/q).
    For 0 < q < 1 the representation theory is that of SU(2), which is all
    the classification uses of it.  ``XxzParams`` has checked 0 < q < 1.
    """
    t = np.diag([1 / p.q, p.q])
    return Ladder("SU_q(2)", [[(x, spin_matrices(0.5).plus)]
                              + [(y, t) for y in range(x + 1, p.L)] for x in range(p.L)])


def spin_multiplicities(space: SpinSpace, lowest=0) -> dict:
    """2S -> number of spin-S multiplets, dim(M=S) - dim(M=S+1) from the
    counted sector dimensions (``SpinSpace.magnetization_dims``), for every
    2S >= ``lowest``; no closed formula, so mixed spin magnitudes are
    handled uniformly.  A test oracle: no campaign calls it."""
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
    sector_levels: dict = field(default_factory=dict)  # 2S -> every level of M = S

    def spins(self):
        return sorted(self.entries)


def _label_levels(evals, V, CV, twice_m0):
    """The total-spin labels 2S and the Casimir residuals of the eigenvectors
    V of H (columns, ascending ``evals``), from CV = C V, C the Hermitian
    SU(2) Casimir on the sector M0 = twice_m0 / 2.

    A nondegenerate level v is labelled by its value <v, C v>; an
    H-degenerate cluster (adjacent gaps <= spectral.DEGENERACY_TOL) is split
    by diagonalising V_c^H C V_c over its columns, and its columns of V and
    CV are rotated into those vectors.  Each vector takes the nearest
    S(S+1) on the grid 2S >= 2M0 of M0's parity, and its residual is
    ||C v - S(S+1) v|| / max(1, S(S+1)).  A residual above
    CASIMIR_RESIDUAL_TOL raises ``ClassificationError``.

    The residual check is the only one needed.  For a unit v,
    ||C v - c v|| >= |<v, C v> - c|, so every vector that passes lies within
    CASIMIR_RESIDUAL_TOL * max(1, c) of its label.  Adjacent values of S(S+1)
    on the grid lie at least 2 apart, so a value that sits between two of
    them (at least 2/1001 from either, for a second-nearest distance under
    1000 times the nearest) is refused by the residual long before it could
    be mislabelled."""
    starts = np.flatnonzero(np.diff(evals, prepend=-np.inf) > spectral.DEGENERACY_TOL)
    sizes = np.diff(starts, append=evals.size)
    cvals = np.vecdot(V, CV, axis=0).real
    V, CV = V.copy(), CV.copy()
    for i, k in zip(starts[sizes > 1], sizes[sizes > 1]):
        cvals[i:i + k], u = np.linalg.eigh(V[:, i:i + k].conj().T @ CV[:, i:i + k])
        V[:, i:i + k], CV[:, i:i + k] = V[:, i:i + k] @ u, CV[:, i:i + k] @ u
    # the grid reaches past sqrt(1 + 4c) - 1, the real 2S of the largest value
    grid = np.arange(twice_m0, np.sqrt(1 + 4 * max(cvals.max(), 0.0)) + 2, 2)
    casimir = grid / 2 * (grid / 2 + 1)
    best = np.abs(casimir - cvals[:, None]).argmin(axis=1)
    target = casimir[best]
    resid = np.linalg.norm(CV - V * target, axis=0) / np.maximum(1.0, target)
    bad = resid > CASIMIR_RESIDUAL_TOL
    if bad.any():               # the first failing level, as a walk would find it
        p = bad.argmax()
        raise ClassificationError(
            f"Casimir residual {resid[p]:.3e} above tolerance after "
            f"simultaneous diagonalization (label 2S={int(grid[best[p]])})")
    return grid[best].astype(int), resid


def _commutator_deviation(h_low, h_up, up) -> float:
    """The largest entry of the block commutator H_(M+1) S+ - S+ H_M, from
    the CSR blocks of H on M and M + 1 and of S+ from M to M + 1, relative
    to the largest entries of H and S+.  It is formed in row slices of at
    most COMMUTATOR_SLICE_BYTES of products."""
    pairs = (np.diff(up.indptr)[h_up.indices].sum()
             + np.diff(h_low.indptr)[up.indices].sum())
    size = np.result_type(h_up.dtype, up.dtype).itemsize + up.indices.itemsize
    count = max(1, -(-int(pairs) * size // COMMUTATOR_SLICE_BYTES))
    edges = np.linspace(0, up.shape[0], count + 1).astype(int)
    dev = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        comm = h_up[a:b] @ up - up[a:b] @ h_low
        dev = max(dev, np.abs(comm.data).max(initial=0.0))
    largest = max(np.abs(h.data).max(initial=1.0) for h in (h_low, h_up))
    return dev / (largest * np.abs(up.data).max(initial=1.0))


def _checked_plus(ladder, below, above, h_below, h_above):
    """The CSR block of ``ladder``'s S+ from the sector ``below`` (M) to
    ``above`` (M + 1), checked against the CSR blocks of H on both:
    ||H_(M+1) S+ - S+ H_M|| above SU2_CHECK_TOL (``_commutator_deviation``)
    raises ``ClassificationError``."""
    up = ladder.plus(below, above).matrix
    dev = _commutator_deviation(h_below, h_above, up)
    if dev > SU2_CHECK_TOL:
        raise ClassificationError(
            f"H does not commute with S+: ||H S+ - S+ H|| = {dev:.3e} (relative) "
            f"from M = {below.label[1]} to M = {above.label[1]} ({ladder.name} ladder)")
    return up


def _level_difference(lower, upper, ladder, m):
    """The levels of the ascending spectrum ``lower`` of the sector M = m
    without a partner in ``upper``, that of M + 1, levels matched within
    SU2_CHECK_TOL * max(1, |E|): a multiset difference.  A level of
    ``upper`` without a partner in ``lower`` raises ``ClassificationError``."""
    tol = SU2_CHECK_TOL * max(1.0, np.abs(lower).max())
    matched = np.zeros(lower.size, dtype=bool)
    j = 0
    for e in upper:
        while j < lower.size and lower[j] < e - tol:
            j += 1
        if j == lower.size or lower[j] > e + tol:
            raise ClassificationError(f"the level {float(e)!r} of M = {m + 1} has no partner "
                                      f"in M = {m} ({ladder.name} ladder)")
        matched[j] = True
        j += 1
    return lower[~matched]


def _nested_spin_levels(phi, ladder, space: SpinSpace, twice_spins):
    """2S -> (the spin-S levels, every level of the sector M = S) for each
    2S >= 0 in ``twice_spins``.  The sectors M = S and M = S + 1 are walked
    up from the lowest, each assembled (``assemble(phi, sector)``) and
    solved for its values (``sector_spectrum``) once; each step is checked
    (``_checked_plus``) before M = S + 1 is solved, and the spin-S levels
    are spec(M = S) minus spec(M = S + 1) (``_level_difference``)."""
    tmax = space.twice_m_total_max()
    wanted = set(twice_spins)
    out, last = {}, None        # (2M, sector, block, levels) of the last sector solved
    for t in sorted(wanted | {t + 2 for t in wanted if t < tmax}):
        sector = magnetization_sector(space, t / 2)
        block = assemble(phi, sector)
        paired = last is not None and last[0] == t - 2 and t - 2 in wanted
        if paired:
            _, sector_below, block_below, lower = last
            _checked_plus(ladder, sector_below, sector, block_below.matrix, block.matrix)
        levels = sector_spectrum(block, sector).eigenvalues
        if paired:
            out[t - 2] = _level_difference(lower, levels, ladder, t / 2 - 1), lower
        if t == tmax and t in wanted:
            out[t] = levels, levels
        last = t, sector, block, levels
    return out


def sector_spin_levels(phi, ladder, space: SpinSpace, twice_s: int):
    """The spin-S levels (ascending) of an interaction commuting with
    ``ladder``'s S+, S = twice_s / 2, and every level of the sector M = S.
    Only the sectors M = S and M = S + 1 are assembled and solved
    (``_nested_spin_levels``)."""
    own, levels = _nested_spin_levels(phi, ladder, space, [twice_s])[twice_s]
    if not own.size:
        raise ClassificationError(f"no spin-S level with 2S={twice_s} in its own sector")
    return own, levels


def su2_sweep_lowest(phi, space: SpinSpace, k=4, threads=1):
    """``spectral.sector_sweep_lowest`` for a ``phi`` whose terms commute with
    the total spin (``Interaction.su2_invariant``).

    Every level of the sector M > 0 also lies in M - 1, so the lowest
    sector M0 = 0 (or 1/2) holds every distinct level.  The blocks formed
    cross-check the term check by the two checks of the nested walk: the
    commutator (``_checked_plus``) on the sweep's one S+ block, M0 -> M0 + 1
    (``su2_totals``), and the nesting (``_level_difference``) of the top
    sectors up to dimension ``spectral.KRYLOV_CROSSOVER``, each solved for
    every level, densely or by its momentum blocks where those are cheaper
    (``spectral._momentum_levels``; M0 joins when dense too).

    Each block is assembled once, for the check and the solve.  M0 is then
    solved with eigenvectors through ``sector_spectrum`` (its k lowest
    levels, or all of them when dense), each vector is labelled by the
    SU(2) Casimir of the sector, C = (S+)^T S+ + M0(M0 + 1), applied from the
    checked S+ block (C = M0(M0 + 1) where no M0 + 1 exists;
    ``_label_levels``), and the merged report lists each level 2S + 1 times.
    Returns (merged report, label -> report of each sector solved, M0's
    with eigenvectors; each carries its sparse block as ``block``).
    """
    tmax = space.twice_m_total_max()
    low = tmax % 2
    dims = space.magnetization_dims()           # of 2M = tmax - 2i at index i
    top = list(takewhile(lambda t: dims[(tmax - t) // 2] <= spectral.KRYLOV_CROSSOVER,
                         range(tmax, low, -2)))  # the dense top run, above M0
    sectors = {t: magnetization_sector(space, t / 2)
               for t in dict.fromkeys(top + [low + 2, low]) if t <= tmax}
    blocks = {t: assemble(phi, sec) for t, sec in sectors.items()}
    ladder, up = su2_totals(space), None        # S+ from M0 to M0 + 1, for the Casimir
    if low + 2 in sectors:
        up = _checked_plus(ladder, sectors[low], sectors[low + 2],
                           blocks[low].matrix, blocks[low + 2].matrix)
    order = [low] + top
    blocks = {t: blocks[t] for t in order}      # M0 + 1, if not dense, was only checked

    def solve(t):
        return sector_spectrum(blocks[t], sectors[t], k=k, want_vectors=t == low,
                               momenta=t != low)

    reports = dict(zip(order, ordered_map(solve, order, threads)))
    full = {t for t, r in reports.items() if r.eigenvalues.size == sectors[t].dim}
    for t in sorted(t for t in full if t + 2 in full):
        _level_difference(reports[t].eigenvalues, reports[t + 2].eigenvalues, ladder, t / 2)

    rep = reports[low]
    vecs = rep.eigenvectors
    cv = low / 2 * (low / 2 + 1) * vecs
    if up is not None:
        cv += up.T @ (up @ vecs)
    labels, _ = _label_levels(rep.eigenvalues, vecs, cv, low)
    merged = SpectrumReport(np.repeat(rep.eigenvalues, labels + 1))
    return merged, {sectors[t].label: reports[t] for t in top + [low]}


def classify_total_spin(phi, ladder, space: SpinSpace) -> SpinResolvedLevels:
    """The spin-resolved level table of an interaction commuting with the S+
    of ``ladder`` (``su2_totals`` or ``suq2_generators``), from the nested
    spectra of the sectors M = S >= 0, each solved once
    (``_nested_spin_levels``).  A spin with no level (possible with mixed
    spin magnitudes) has no entry; every sector's levels are kept."""
    tmax = space.twice_m_total_max()
    nested = _nested_spin_levels(phi, ladder, space, range(tmax % 2, tmax + 1, 2))
    own = {t: e for t, (e, _) in sorted(nested.items()) if e.size}
    return SpinResolvedLevels(entries={t: e[0] for t, e in own.items()},
                              max_entries={t: e[-1] for t, e in own.items()},
                              counts={t: e.size for t, e in own.items()},
                              twice_s_max=tmax,
                              sector_levels={t: lv for t, (_, lv) in nested.items()})


@dataclass
class OrderingVerdict:
    property: str                   # "FOEL" or "LiebMattis"
    holds: bool
    witness: Optional[tuple] = None  # (2S, 2S', E(S), E(S')) violating pair
    margin: Optional[float] = None   # min adjacent energy difference


def _strict_steps(entries, pairs):
    """The smallest step E(b) - E(a) over the spin pairs (a, b), walked in
    order, and the first pair whose step is at most ORDERING_STRICT_TOL as
    the witness (a, b, E(a), E(b)), or None."""
    margin, witness = np.inf, None
    for a, b in pairs:
        diff = entries[b] - entries[a]
        margin = min(margin, diff)
        if diff <= ORDERING_STRICT_TOL and witness is None:
            witness = (a, b, float(entries[a]), float(entries[b]))
    return float(margin), witness


def foel_check(levels: SpinResolvedLevels) -> OrderingVerdict:
    """E(H,S) strictly decreasing in S: E(S) < E(S') whenever S' < S, by more
    than ORDERING_STRICT_TOL."""
    grid = levels.spins()
    if set(grid) != set(range(grid[0], levels.twice_s_max + 1, 2)):
        raise ValueError("level table does not cover a contiguous spin grid")
    margin, witness = _strict_steps(levels.entries, [(hi, lo) for lo, hi in zip(grid, grid[1:])])
    return OrderingVerdict("FOEL", witness is None, witness, margin)


def lieb_mattis_hamiltonian(g, part_a, part_b, intra_a=None, intra_b=None):
    """H = -H_V + H_A + H_B with every piece a ferromagnetic Heisenberg model.

    ``g`` must be bipartite with respect to the declared parts; ``intra_a`` /
    ``intra_b`` are optional SpinGraph-compatible edge lists inside the parts.
    """
    part_a, part_b = set(part_a), set(part_b)
    if part_a & part_b or part_a | part_b != set(range(g.n_vertices)):
        raise ValueError("parts must partition the vertex set")
    for (x, y, _) in g.edges:
        if (x in part_a) == (y in part_a):
            raise ValueError(f"edge ({x},{y}) does not cross the declared parts; "
                             "graph is not bipartite for them")
    phi = heisenberg(g).scaled(-1)          # -H_V = +sum J S.S
    for edges, part in ((intra_a, part_a), (intra_b, part_b)):
        for (x, y, _) in edges or ():
            if x not in part or y not in part:
                raise ValueError(f"intra-part edge ({x},{y}) leaves its part")
        if edges:
            phi = phi + heisenberg(build_graph(g.n_vertices, edges, dict(enumerate(g.spins))))
    return phi


def lieb_mattis_order(levels: SpinResolvedLevels, g, part_a, part_b) -> OrderingVerdict:
    """The bipartite ordering on a level table: ground at S = |S_A - S_B| and
    E(H,S) strictly increasing above it, both to ORDERING_STRICT_TOL."""
    twice_sa = int(round(2 * sum(g.spins[x] for x in part_a)))
    twice_sb = int(round(2 * sum(g.spins[x] for x in part_b)))
    twice_s0 = abs(twice_sa - twice_sb)
    ground = min(levels.entries.values())
    witness = None
    if abs(levels.entries.get(twice_s0, np.inf) - ground) > ORDERING_STRICT_TOL:
        s_at_ground = min(levels.entries, key=levels.entries.get)
        e_s0 = levels.entries.get(twice_s0)
        witness = (twice_s0, s_at_ground, None if e_s0 is None else float(e_s0),
                   float(levels.entries[s_at_ground]))
    upper = [t for t in levels.spins() if t >= twice_s0]
    margin, step = _strict_steps(levels.entries, zip(upper, upper[1:]))
    witness = witness or step
    return OrderingVerdict("LiebMattis", witness is None, witness, margin)
