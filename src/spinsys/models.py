"""Interactions (sets of local Hermitian terms) and assembled Hamiltonians.

``assemble(phi, basis)`` builds H on the full space or straight on one
sector, in one call of the embedding kernel of ``hilbert``, so a sector
block never needs the 2^L (or d^L) states around it.

Sign conventions follow the ferromagnetic normalization: the Heisenberg
bond is -J S.S with J > 0 ferromagnetic, the XXZ bond carries its -1/4
shift and the AKLT bond its +1/3 shift so that spectra sit exactly where
the droplet and gap formulas expect them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import SpinGraph, diameter
from .hilbert import SectorBasis, SpinSpace, SparseOperator, spin_matrices, embed_local
from .util import require_memory

TERM_HERMITICITY_TOL = 1e-12
# CSR copies of H at the peak: the gathered elements and their CSR, or H and
# its adjoint in the Hermiticity check.  The ru_maxrss growth of Heisenberg
# (L = 18, 20; M = 0 at L = 20, 22) and AKLT (L = 11, 12) rings: 1.14-1.47.
ASSEMBLY_COPIES = 2


def _flip_sign(m) -> int:
    """s = +1 or -1 where F m F = s m for the flip F that reverses the basis
    (m[::-1, ::-1] = s m) to TERM_HERMITICITY_TOL of the largest entry of
    m, dense or sparse; 0 where neither holds."""
    rev = np.arange(m.shape[0])[::-1]
    flipped, scale = m[rev][:, rev], TERM_HERMITICITY_TOL * abs(m).max()
    for s in (1, -1):
        if abs(flipped - s * m).max() <= scale:
            return s
    return 0


@dataclass
class Interaction:
    """A list of (support, local Hermitian matrix) terms, and nothing else.

    Both symmetries the sweeps use are checked on the terms, never declared:
    the global spin flip m -> -m (``flip_invariant``) and the total spin
    (``su2_invariant``), so both survive ``+`` and ``scaled``.  The space an
    interaction acts on is passed alongside it wherever one is needed.
    """

    terms: list                      # [(support tuple, ndarray), ...]

    def __post_init__(self):
        canon = []
        for support, mat in self.terms:
            support = tuple(sorted(set(support)))
            if not support:
                raise ValueError("term support must be nonempty")
            mat = np.asarray(mat, dtype=complex)
            if not np.isfinite(mat).all():
                raise ValueError(f"term on {support} is not finite")
            if np.abs(mat - mat.conj().T).max() >= TERM_HERMITICITY_TOL:
                raise ValueError(f"term on {support} is not Hermitian")
            canon.append((support, mat))
        self.terms = canon

    def flip_invariant(self) -> bool:
        """Whether every term commutes with the global spin flip m -> -m, so
        that the sector M and the sector -M have the same spectrum.

        Reversing a mixed-radix index reverses every site's digit, d -> n - 1 - d,
        which is m -> -m on every site: a term is flip-invariant when its local
        matrix equals ``m[::-1, ::-1]`` to TERM_HERMITICITY_TOL relative to its
        largest entry, ``_flip_sign(m) == 1`` (S.S, S3 S3 and the XXZ bond
        are; a one-site S3 is not)."""
        return all(_flip_sign(m) == 1 for _, m in self.terms)

    def su2_invariant(self, space) -> bool:
        """Whether the sum commutes with the total spin on ``space``: on every
        support X the sum of its terms (``_support_sums``) commutes with S+_X
        and S3_X (``embed_local`` on the support's own ``SpinSpace``, built
        once per tuple of spins) to TERM_HERMITICITY_TOL of the largest
        entries of term and generator."""
        generators = {}                     # spins of X -> [S+_X, S3_X]
        for support, m in _support_sums(self.terms, space).items():
            spins = tuple(space.spin_at(x) for x in support)
            if spins not in generators:
                generators[spins] = [embed_local(SpinSpace.from_spins(spins),
                                                 [((i,), getattr(spin_matrices(s), op))
                                                  for i, s in enumerate(spins)]).toarray()
                                     for op in ("plus", "s3")]
            for gen in generators[spins]:
                if (np.abs(m @ gen - gen @ m).max()
                        > TERM_HERMITICITY_TOL * np.abs(m).max() * np.abs(gen).max()):
                    return False
        return True

    def scaled(self, factor) -> "Interaction":
        return Interaction([(s, factor * m) for s, m in self.terms])

    def __add__(self, other: "Interaction") -> "Interaction":
        return Interaction(self.terms + other.terms)


def _two_site_dot(sa, sb) -> np.ndarray:
    """S.S on the two-site space, first site innermost (little-endian)."""
    out = np.zeros((sa.s1.shape[0] * sb.s1.shape[0],) * 2, dtype=complex)
    for a, b in zip((sa.s1, sa.s2, sa.s3), (sb.s1, sb.s2, sb.s3)):
        out += np.kron(b, a)
    return out


def heisenberg(g: SpinGraph) -> Interaction:
    """-sum_edges J_xy S_x . S_y with the edge weights as couplings."""
    terms = []
    for (x, y, w) in g.edges:
        dot = _two_site_dot(spin_matrices(g.spins[x]), spin_matrices(g.spins[y]))
        terms.append(((x, y), -w * dot))
    return Interaction(terms)


def aklt(L: int, periodic=False) -> Interaction:
    """Spin-1 chain of bond projectors: (1/2) S.S + (1/6)(S.S)^2 + 1/3 per bond."""
    if L < 2:
        raise ValueError("AKLT chain needs at least 2 sites")
    s = spin_matrices(1.0)
    dot = _two_site_dot(s, s)
    bond = dot / 2 + (dot @ dot) / 6 + np.eye(9) / 3
    bonds = [(x, x + 1) for x in range(L - 1)]
    if periodic:
        if L < 3:
            raise ValueError("periodic AKLT needs at least 3 sites")
        bonds.append((L - 1, 0))
    return Interaction([(b, bond) for b in bonds])


@dataclass(frozen=True)
class XxzParams:
    """Anisotropic chain parameters; exactly one of Delta, q determines the other
    via Delta = (q + 1/q)/2 with q in (0, 1)."""

    L: int
    Delta: float
    q: float
    J: float = 1.0
    boundary: str = "open_with_field"   # or "periodic"

    def __post_init__(self):
        if self.L < 2:
            raise ValueError("chain length must be at least 2")
        if not (0 < self.q < 1):
            raise ValueError(f"q must lie in (0,1), got {self.q}")
        if not self.Delta > 1:
            raise ValueError(f"Delta must exceed 1, got {self.Delta}")
        if abs(self.Delta - (self.q + 1 / self.q) / 2) >= 1e-12 * self.Delta:
            raise ValueError("Delta and q violate Delta = (q + 1/q)/2")
        if not 0 < self.J < math.inf:
            raise ValueError(f"J must be positive and finite, got {self.J}")
        if self.boundary not in ("open_with_field", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")

    @classmethod
    def from_q(cls, L, q, J=1.0, boundary="open_with_field"):
        return cls(L=L, Delta=(q + 1 / q) / 2, q=q, J=J, boundary=boundary)

    @classmethod
    def from_delta(cls, L, Delta, J=1.0, boundary="open_with_field"):
        if not 1 < Delta < math.inf:
            raise ValueError(f"Delta must be finite and exceed 1, got {Delta}")
        q = 1 / (Delta + math.sqrt(Delta ** 2 - 1))   # the root in (0,1), without cancellation
        return cls(L=L, Delta=Delta, q=q, J=J, boundary=boundary)

    @property
    def A_Delta(self) -> float:
        return 0.5 * math.sqrt(1 - 1 / self.Delta ** 2)


def xxz(p: XxzParams) -> Interaction:
    """Bond terms -J [ (S1S1 + S2S2)/Delta + (S3S3 - 1/4) ]; the open variant
    adds the boundary field -J A(Delta)(S3_L - S3_1), so that J scales the
    whole chain, the periodic one closes the ring and drops the field."""
    s = spin_matrices(0.5)
    bond = -p.J * ((np.kron(s.s1, s.s1) + np.kron(s.s2, s.s2)) / p.Delta
                   + (np.kron(s.s3, s.s3) - np.eye(4) / 4))
    bonds = [(x, x + 1) for x in range(p.L - 1)]
    terms = [(b, bond) for b in bonds]
    if p.boundary == "periodic":
        if p.L < 3:
            raise ValueError("periodic chain needs at least 3 sites")
        terms.append(((p.L - 1, 0), bond))
    else:
        A = p.J * p.A_Delta
        terms.append(((0,), A * np.asarray(s.s3)))       # +J A S3_1
        terms.append(((p.L - 1,), -A * np.asarray(s.s3)))  # -J A S3_L
    return Interaction(terms)


def custom(terms) -> Interaction:
    """Store user terms verbatim (after Hermiticity validation)."""
    return Interaction(list(terms))


def lambda_norm(phi: Interaction, lam: float, g: SpinGraph) -> float:
    """sup over x of sum_{X containing x} |X| ||Phi(X)|| N^(2|X|) e^(lam D(X));
    a lam for which it overflows a float raises ``ValueError``."""
    if not lam > 0:
        raise ValueError("the decay rate lambda must be positive")
    space = SpinSpace.from_graph(g)
    n_big = space.n_max
    per_vertex = [0.0] * g.n_vertices
    with np.errstate(over="ignore"):
        for support, mat in phi.terms:
            dia = diameter(g, support)
            if math.isinf(dia):
                raise ValueError(f"support {support} is disconnected; D(X) undefined")
            try:
                decay = math.exp(lam * dia)
            except OverflowError:
                decay = math.inf
            weight = (len(support) * np.linalg.norm(mat, 2)
                      * n_big ** (2 * len(support)) * decay)
            for x in support:
                per_vertex[x] += weight
    norm = max(per_vertex) if per_vertex else 0.0
    if not math.isfinite(norm):
        raise ValueError(f"the interaction norm at lam = {lam!r} overflows a float")
    return norm


def _support_sums(terms, space) -> dict:
    """support -> the sum of its terms, added in canonical term order; a
    support with a site outside ``space`` raises ``ValueError``."""
    local = {}
    for support, mat in sorted(terms, key=lambda t: (t[0], t[1].tobytes())):
        if any(not 0 <= x < space.n_sites for x in support):
            raise ValueError(f"term support {support} outside the space")
        local[support] = local[support] + mat if support in local else mat
    return local


def assemble(phi: Interaction, space) -> SparseOperator:
    """Hermitian sum of the terms on the basis ``space`` (a ``SpinSpace`` or a
    ``SectorBasis``) by one ``embed_local`` call, in canonical term order with
    the terms on one support added locally first: bit-identical for any input
    term order, and on a sector equal to that block of the full-space sum to
    rounding.  A sector block is float64 when every term is real; a term that
    does not conserve a sector raises the leak ``ValueError``."""
    local = _support_sums(phi.terms, space)
    # a column of H: one diagonal entry plus each support's most off-diagonal local ones
    per_column = 1 + sum(int(((m != 0).sum(0) - (m.diagonal() != 0)).max())
                         for m in local.values())
    real = isinstance(space, SectorBasis) and not any(m.imag.any() for m in local.values())
    require_memory(ASSEMBLY_COPIES * space.total_dim * per_column * (4 + (8 if real else 16)),
                   f"assembling H on {space.total_dim} states")
    return SparseOperator(embed_local(space, local.items()).matrix, hermitian=True,
                          basis=space)
