"""Symmetric simple exclusion process on a finite graph.

Configurations of n particles are bitmasks over the vertex set, listed in
ascending integer order; the exchange move eta -> eta^xy is a bit swap.
Edge weights of the underlying graph are read as exchange rates r_xy > 0.
A particle is a down spin: the generator on n particles is, entry for entry,
the n-down-spin block of the spin-1/2 Hamiltonian sum_edges r_xy (1 - swap_xy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from .lattice import SpinGraph, is_connected
from .hilbert import SpinSpace, SparseOperator, down_spin_sector, spin_matrices
from .models import Interaction, assemble, _two_site_dot
from .spectral import sector_spectrum

GAP_ZERO_TOL = 1e-10
CONJUGACY_TOL = 1e-10      # largest entry deviation of the generator from the spin block


@dataclass(frozen=True)
class ExclusionSpace:
    graph: SpinGraph
    n: int
    configs: tuple = field(init=False)

    def __post_init__(self):
        if not (0 <= self.n <= self.graph.n_vertices):
            raise ValueError(f"particle number {self.n} outside 0..{self.graph.n_vertices}")
        if any(w <= 0 for (_, _, w) in self.graph.edges):
            raise ValueError("all exchange rates must be strictly positive")
        masks = sorted(sum(1 << v for v in occ)
                       for occ in combinations(range(self.graph.n_vertices), self.n))
        object.__setattr__(self, "configs", tuple(masks))

    @property
    def dim(self) -> int:
        return len(self.configs)


def ssep_generator(space: ExclusionSpace) -> SparseOperator:
    """L f(eta) = sum_edges r_xy (f(eta) - f(eta^xy)); symmetric, L >= 0, L1 = 0."""
    index = {m: i for i, m in enumerate(space.configs)}
    rows, cols, data = [], [], []
    for i, eta in enumerate(space.configs):
        diag = 0.0
        for (x, y, r) in space.graph.edges:
            if ((eta >> x) ^ (eta >> y)) & 1:
                rows.append(i)
                cols.append(index[eta ^ (1 << x) ^ (1 << y)])
                data.append(-r)
                diag += r
        if diag:
            rows.append(i)
            cols.append(i)
            data.append(diag)
    mat = sp.coo_matrix((data, (rows, cols)), shape=(space.dim, space.dim))
    return SparseOperator(mat, hermitian=True)


@dataclass
class GeneratorReport:
    gaps: dict                  # n -> lambda(n)
    dims: dict                  # n -> |Omega_n|
    stationary_checks: dict     # n -> ||L 1||_inf deviation
    aldous_margin: float


def check_exclusion_graph(g: SpinGraph):
    """Refuse, in one line, a graph without exclusion gaps: fewer than two
    vertices, a rate that is not positive, or a disconnected edge set."""
    if g.n_vertices < 2:
        raise ValueError(f"the exclusion process needs at least 2 vertices, got {g.n_vertices}")
    if any(not w > 0 for (_, _, w) in g.edges):
        raise ValueError("all exchange rates must be strictly positive")
    if not is_connected(g):
        raise ValueError("graph is disconnected: lambda(1) = 0 and the gaps degenerate")


def _spin_blocks(g: SpinGraph, ns):
    """(n, sector, H_n) per n: ``ssep_spin_interaction(g)`` assembled on n down spins."""
    space = SpinSpace.from_spins([0.5] * g.n_vertices)
    phi = ssep_spin_interaction(g)
    for n in ns:
        sector = down_spin_sector(space, n)
        yield n, sector, assemble(phi, sector)


def ssep_gaps(g: SpinGraph) -> GeneratorReport:
    """lambda(n), 1 <= n <= |V|-1, and the Aldous margin: one values solve of H_n per n.

    The particle-hole swap n <-> |V| - n is the spin flip M <-> -M, so when
    the spin Hamiltonian passes the flip check (``flip_invariant``; its
    r (1 - swap) bonds do) only n <= |V|/2 is solved and the rows of
    |V| - n repeat those of n."""
    check_exclusion_graph(g)
    V = g.n_vertices
    flip = ssep_spin_interaction(g).flip_invariant()
    gaps, dims, stat = {}, {}, {}
    for n, sector, block in _spin_blocks(g, range(1, V // 2 + 1 if flip else V)):
        stat[n] = float(np.abs(block.matrix @ np.ones(sector.dim)).max())
        evals = sector_spectrum(block, sector).eigenvalues
        positive = evals[evals > GAP_ZERO_TOL * max(1.0, abs(evals).max())]
        if positive.size == 0:
            raise ValueError(f"the generator on {n} particles has no positive eigenvalue")
        gaps[n], dims[n] = float(positive[0]), sector.dim
    gaps, dims, stat = ({n: t[n] if n in t else t[V - n] for n in range(1, V)}
                        for t in (gaps, dims, stat))
    margin = max(abs(gaps[n] - gaps[1]) for n in gaps)
    return GeneratorReport(gaps=gaps, dims=dims, stationary_checks=stat,
                           aldous_margin=float(margin))


def ssep_spin_interaction(g: SpinGraph) -> Interaction:
    """The conjugate spin-1/2 Hamiltonian sum_edges [-2 r S.S + r/2] = sum_edges r (1 - swap)."""
    dot = _two_site_dot(spin_matrices(0.5), spin_matrices(0.5))
    return Interaction([((x, y), -2 * r * dot + (r / 2) * np.eye(4)) for (x, y, r) in g.edges])


@dataclass
class ConjugacyReport:
    max_deviation: float
    per_n: dict                 # n -> max |L - H_n| entrywise, L the looped generator
    uniform_rayleigh: dict      # n -> quotient of the uniform vector


def xxx_conjugacy_check(g: SpinGraph) -> ConjugacyReport:
    """Verify, for every n, that the looped generator on Omega_n equals the
    block H_n on n down spins entry for entry (to CONJUGACY_TOL), on the same
    ascending bitmasks: the identity map of the bases conjugates them.
    Nothing is diagonalised."""
    per_n, uniform = {}, {}
    for n, sector, block in _spin_blocks(g, range(g.n_vertices + 1)):
        space = ExclusionSpace(g, n)
        if not np.array_equal(space.configs, sector.states):
            raise ValueError(f"conjugacy failure at n={n}: configurations differ "
                             "from the down-spin sector states")
        gen = ssep_generator(space).matrix
        dev = abs(gen - block.matrix)
        per_n[n] = float(dev.max()) if dev.nnz else 0.0
        ones = np.ones(space.dim) / np.sqrt(space.dim)
        uniform[n] = float(np.real(ones @ (gen @ ones)))
    worst = max(per_n.values())
    if worst > CONJUGACY_TOL:
        bad = max(per_n, key=per_n.get)
        raise ValueError(
            f"conjugacy failure at n={bad}: max entry deviation {worst:.3e}")
    return ConjugacyReport(max_deviation=worst, per_n=per_n, uniform_rayleigh=uniform)
