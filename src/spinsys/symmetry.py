"""Total-spin structure: SU(2) and SU_q(2) ladder totals, per-sector
Casimirs, and the classification of eigenstates by total spin.

A ladder (``su2_totals`` or ``suq2_generators``) is the one description of
its algebra: it carries the S+/S- totals, ``casimir_shift`` (the Casimir is
S+ S- plus this on a sector), ``casimir_value`` (the Casimir on a spin-S
multiplet) and ``hermitian_casimir`` (whether the Casimir is Hermitian).
Both algebras are labelled by one function, ``sector_spin_levels``: every
multiplet of total spin S contributes exactly one vector to the sector
M = S, so labelling that sector's eigenvectors by the Casimir gives the
spin-S levels.  ``classify_total_spin(H, ladder, space)`` runs it over the
spin grid.  Internally S is carried as the integer 2S to keep half-integers
exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .hilbert import SpinSpace, SparseOperator, spin_matrices, embed_at, \
    magnetization_sector, restrict
from .models import XxzParams
from .spectral import sector_spectrum

CLASSIFY_DEGENERACY_TOL = 1e-8
CASIMIR_RESIDUAL_TOL = 1e-8
DOMINANCE_FACTOR = 1e3


class ClassificationError(RuntimeError):
    pass


class TotalSpinOps(NamedTuple):
    plus: SparseOperator
    minus: SparseOperator

    hermitian_casimir = True

    def casimir_shift(self, twice_m):
        """S.S = S+ S- + M(M - 1) on the sector M."""
        m = twice_m / 2
        return m * (m - 1)

    def casimir_value(self, twice_s):
        """S(S + 1) on a spin-S multiplet."""
        s = twice_s / 2
        return s * (s + 1)


def su2_totals(space: SpinSpace) -> TotalSpinOps:
    """The ladder totals S+ = sum_x S+_x and S- = (S+)^H."""
    local = [spin_matrices(space.spin_at(x)) for x in range(space.n_sites)]
    plus = sum(embed_at(space, [(x, s.plus)]).matrix for x, s in enumerate(local))
    minus = sum(embed_at(space, [(x, s.minus)]).matrix for x, s in enumerate(local))
    return TotalSpinOps(SparseOperator(plus), SparseOperator(minus))


class SuqOps(NamedTuple):
    plus: SparseOperator
    minus: SparseOperator
    t_total: SparseOperator
    q: float

    hermitian_casimir = False

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
    """Twisted SU_q(2) ladder totals on the spin-1/2 chain.

    S+ carries the t = diag(1/q, q) tail on the sites after the raising
    site and S- the inverse tail before the lowering site; this is the
    spatial mirror of the more common left-tail convention and is the
    chirality that commutes with the boundary field -A(S3_L - S3_1).
    T is the product of all t_x.  The q-Casimir S+ S- + ((qT)^-1 + qT) /
    (1/q - q)^2 (see ``sector_casimir``) and the commutator relation
    [S+, S-] = (q^(2 S3) - q^(-2 S3)) / (q - 1/q) are unchanged.
    """
    if not (0 < p.q < 1):
        raise ValueError(f"q must lie in (0,1), got {p.q}")
    L = p.L
    space = SpinSpace((2,) * L)
    s = spin_matrices(0.5)
    t = np.diag([1 / p.q, p.q])
    t_inv = np.diag([p.q, 1 / p.q])
    plus = sum(embed_at(space, [(x, s.plus)] + [(y, t) for y in range(x + 1, L)]).matrix
               for x in range(L))
    minus = sum(embed_at(space, [(y, t_inv) for y in range(x)] + [(x, s.minus)]).matrix
                for x in range(L))
    t_total = embed_at(space, [(x, t) for x in range(L)]).matrix
    return SuqOps(SparseOperator(plus), SparseOperator(minus),
                  SparseOperator(t_total, hermitian=True), p.q)


def sector_casimir(ladder, space: SpinSpace, twice_m: int) -> np.ndarray:
    """Dense Casimir block on the sector M = twice_m / 2 of either algebra:
    C_M = S+|(M-1 -> M) S-|(M -> M-1) + ladder.casimir_shift(twice_m) 1.
    No full-space Casimir is formed."""
    sector = magnetization_sector(space, twice_m / 2)
    c = ladder.casimir_shift(twice_m) * np.eye(sector.dim)
    if twice_m > -space.twice_m_total_max():
        below = magnetization_sector(space, twice_m / 2 - 1)
        up = restrict(ladder.plus, below, dense=False, target=sector)
        down = restrict(ladder.minus, sector, dense=False, target=below)
        c = c + (up @ down).toarray()
    return c


def spin_multiplicities(space: SpinSpace) -> dict:
    """2S -> number of spin-S multiplets, from magnetization sector dimensions.

    The grid is derived from the data (dim(M=S) - dim(M=S+1)), not from a
    closed formula, so mixed spin magnitudes are handled uniformly.
    """
    tmax = space.twice_m_total_max()
    dims = {}
    for twice_m in range(tmax, -1, -2):
        dims[twice_m] = magnetization_sector(space, twice_m / 2).dim
    mult = {}
    for twice_s in range(tmax % 2, tmax + 1, 2):
        d_here = dims[twice_s]
        d_above = dims.get(twice_s + 2, 0)
        m = d_here - d_above
        if m > 0:
            mult[twice_s] = m
    return mult


@dataclass
class SpinResolvedLevels:
    """E(H,S) (and the largest energy per S) over the total-spin grid."""

    entries: dict                 # 2S -> min energy among spin-S states
    max_entries: dict             # 2S -> max energy among spin-S states
    counts: dict                  # 2S -> number of spin-S multiplets found
    twice_s_max: int
    casimir_residuals: dict = field(default_factory=dict)

    def spins(self):
        return sorted(self.entries)

    def energy(self, twice_s):
        return self.entries[twice_s]


def _label_cluster(h_vecs, c_block, candidates, hermitian_c):
    """Diagonalize the Casimir restricted to one H-eigenspace and label each
    resulting vector by the nearest candidate Casimir value."""
    sub = h_vecs.conj().T @ (c_block @ h_vecs)
    if hermitian_c:
        cvals, cvecs = np.linalg.eigh(sub)
    else:
        cvals, cvecs = np.linalg.eig(sub)
        if np.abs(cvals.imag).max(initial=0.0) > 1e-8 * max(1.0, np.abs(cvals).max()):
            raise ClassificationError(
                f"q-Casimir eigenvalues acquired imaginary parts up to "
                f"{np.abs(cvals.imag).max():.3e}")
        cvals = cvals.real
    labels = []
    residuals = []
    cand_ts = sorted(candidates)
    cand_vals = np.array([candidates[t] for t in cand_ts])
    for i in range(cvals.size):
        dists = np.abs(cand_vals - cvals[i])
        order = np.argsort(dists)
        d1 = dists[order[0]]
        scale = max(1.0, abs(cand_vals[order[0]]))
        if len(order) > 1:
            d2 = dists[order[1]]
            if d1 > 0 and d2 < DOMINANCE_FACTOR * d1 and d1 > 1e-14 * scale:
                raise ClassificationError(
                    f"ambiguous Casimir label: value {cvals[i]:.6g} sits between "
                    f"candidates (distances {d1:.3e}, {d2:.3e})")
        twice_s = cand_ts[order[0]]
        vec = h_vecs @ (cvecs[:, i] / np.linalg.norm(cvecs[:, i]))
        resid = np.linalg.norm(c_block @ vec - candidates[twice_s] * vec) / scale
        if resid > CASIMIR_RESIDUAL_TOL:
            raise ClassificationError(
                f"Casimir residual {resid:.3e} above tolerance after "
                f"simultaneous diagonalization (label 2S={twice_s})")
        labels.append(twice_s)
        residuals.append(resid)
    return labels, residuals


def _label_levels(evals, evecs, c_block, candidates, hermitian_c):
    """Casimir label and residual of every eigenpair of H (ascending evals,
    eigenvector columns): levels are grouped into H-degenerate clusters,
    adjacent gaps <= CLASSIFY_DEGENERACY_TOL, and each cluster is labeled by
    ``_label_cluster``."""
    labels, residuals = [], []
    i = 0
    while i < evals.size:
        j = i + 1
        while j < evals.size and evals[j] - evals[j - 1] <= CLASSIFY_DEGENERACY_TOL:
            j += 1
        lab, res = _label_cluster(evecs[:, i:j], c_block, candidates, hermitian_c)
        labels.extend(lab)
        residuals.extend(res)
        i = j
    return labels, residuals


def sector_spin_levels(H, ladder, space: SpinSpace, twice_s: int):
    """Energies (ascending) and Casimir residuals of the spin-S states of an
    H commuting with ``ladder``'s algebra, S = twice_s / 2.

    The sector M = S is diagonalized densely by ``sector_spectrum``;
    degenerate H-eigenspaces are split by the restricted Casimir rather than
    trusting solver bases, and each eigenvector is labeled by the nearest
    ``ladder.casimir_value(t)`` over the spins t >= 2S present in the space.
    """
    rep = sector_spectrum(H, magnetization_sector(space, twice_s / 2),
                          want_vectors=True)
    evals, evecs = rep.eigenvalues, rep.eigenvectors
    c_block = sector_casimir(ladder, space, twice_s)
    candidates = {t: ladder.casimir_value(t)
                  for t in spin_multiplicities(space) if t >= twice_s}
    labels, residuals = _label_levels(evals, evecs, c_block, candidates,
                                      ladder.hermitian_casimir)
    mine = np.array(labels) == twice_s
    if not mine.any():
        raise ClassificationError(
            f"no state labeled 2S={twice_s} found in its own sector")
    return evals[mine], np.array(residuals)[mine]


def classify_total_spin(H, ladder, space: SpinSpace) -> SpinResolvedLevels:
    """Build the spin-resolved level table of an H commuting with the Casimir
    of ``ladder`` (``su2_totals`` or ``suq2_generators``), one
    ``sector_spin_levels`` call per spin; the number of states labeled 2S
    must equal the multiplet count the sector dimensions imply."""
    mult = spin_multiplicities(space)
    entries, max_entries, counts, residuals = {}, {}, {}, {}
    for twice_s in sorted(mult):
        energies, res = sector_spin_levels(H, ladder, space, twice_s)
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
                              casimir_residuals=residuals)


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
    return Interaction(terms, name="lieb_mattis")


def lieb_mattis_levels(g, part_a, part_b, intra_a=None, intra_b=None) -> SpinResolvedLevels:
    """Spin-resolved level table of ``lieb_mattis_hamiltonian``."""
    from .models import assemble

    phi = lieb_mattis_hamiltonian(g, part_a, part_b, intra_a, intra_b)
    space = SpinSpace.from_graph(g)
    H = assemble(phi, space)
    return classify_total_spin(H, su2_totals(space), space)


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
