"""Tensor-product spin Hilbert spaces and sector bases.

Basis states are mixed-radix integers over the site dimensions,
little-endian in the vertex id (site 0 is the fastest index).  Digit d at
site x means the S^3 eigenvalue m = s_x - d, i.e. digit 0 is "spin up".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

HERMITICITY_TOL = 1e-12
PRUNE_TOL = 1e-15


class SpinMatrices(NamedTuple):
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    plus: np.ndarray
    minus: np.ndarray


def spin_matrices(s) -> SpinMatrices:
    """Standard spin-s matrices, basis ordered by descending S^3 eigenvalue."""
    s = float(s)
    if s <= 0 or round(2 * s) != 2 * s:
        raise ValueError(f"spin magnitude must be a positive half-integer, got {s}")
    dim = int(round(2 * s + 1))
    m = s - np.arange(dim)          # m values, descending
    s3 = np.diag(m).astype(complex)
    # S+ |s,m> = sqrt(s(s+1) - m(m+1)) |s,m+1>; column j holds m = s - j
    amp = np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))
    plus = np.zeros((dim, dim), dtype=complex)
    plus[np.arange(dim - 1), np.arange(1, dim)] = amp
    minus = plus.conj().T
    s1 = (plus + minus) / 2
    s2 = (plus - minus) / (2j)
    return SpinMatrices(s1, s2, s3, plus, minus)


class SparseOperator:
    """A sparse matrix on a tensor-product space with a verified Hermitian flag.

    ``su2_invariant`` is the model's declaration that the operator commutes
    with the total spin (``models.assemble`` carries it over); it is not
    verified here, and sums and products drop it.
    """

    def __init__(self, matrix, hermitian=False, su2_invariant=False):
        mat = sp.csr_matrix(matrix, dtype=complex)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("operator must be square")
        mat.data[np.abs(mat.data) < PRUNE_TOL] = 0.0
        mat.eliminate_zeros()
        mat.sort_indices()
        if hermitian:
            dev = abs(mat - mat.conj().T)
            leak = dev.max() if dev.nnz else 0.0
            if leak >= HERMITICITY_TOL:
                raise ValueError(f"hermitian flag asserted but max |M - M*| = {leak:.3e}")
        self.matrix = mat
        self.hermitian = bool(hermitian)
        self.su2_invariant = bool(su2_invariant)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def __add__(self, other):
        herm = self.hermitian and getattr(other, "hermitian", False)
        mat = self.matrix + (other.matrix if isinstance(other, SparseOperator) else other)
        return SparseOperator(mat, hermitian=herm)

    def __matmul__(self, other):
        mat = self.matrix @ (other.matrix if isinstance(other, SparseOperator) else other)
        return SparseOperator(mat, hermitian=False)

    def __repr__(self):
        return f"SparseOperator(dim={self.dim}, nnz={self.matrix.nnz}, hermitian={self.hermitian})"


@dataclass(frozen=True)
class SpinSpace:
    """Tensor product of local spin spaces over graph vertices."""

    site_dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.site_dims)
        if any(d < 2 for d in dims):
            raise ValueError("every local dimension must be >= 2")
        object.__setattr__(self, "site_dims", dims)

    @classmethod
    def from_spins(cls, spins):
        return cls(tuple(int(round(2 * float(s) + 1)) for s in spins))

    @classmethod
    def from_graph(cls, g):
        return cls.from_spins(g.spins)

    @property
    def n_sites(self) -> int:
        return len(self.site_dims)

    @property
    def total_dim(self) -> int:
        out = 1
        for d in self.site_dims:
            out *= d
        return out

    @property
    def n_max(self) -> int:
        return max(self.site_dims)

    @property
    def strides(self):
        st = []
        acc = 1
        for d in self.site_dims:
            st.append(acc)
            acc *= d
        return tuple(st)

    def spin_at(self, x) -> float:
        return (self.site_dims[x] - 1) / 2

    def encode(self, digits) -> int:
        idx = 0
        for d, n, st in zip(digits, self.site_dims, self.strides):
            if not 0 <= d < n:
                raise ValueError(f"digit {d} out of range for local dimension {n}")
            idx += d * st
        return idx

    def decode(self, idx) -> tuple:
        digits = []
        for n in self.site_dims:
            digits.append(idx % n)
            idx //= n
        return tuple(digits)

    def twice_m_total_max(self) -> int:
        return sum(d - 1 for d in self.site_dims)

    def magnetization_values(self):
        """Achievable total-S^3 eigenvalues, descending."""
        tmax = self.twice_m_total_max()
        return [(tmax - 2 * k) / 2 for k in range(tmax + 1)]


@dataclass(frozen=True)
class SectorBasis:
    """Ordered basis (full-space indices, strictly increasing) of a symmetry sector."""

    parent: SpinSpace
    label: tuple          # ("M", value) or ("n", value)
    states: np.ndarray

    def __post_init__(self):
        st = np.asarray(self.states, dtype=np.int64)
        if st.size and not np.all(np.diff(st) > 0):
            raise ValueError("sector states must be strictly increasing")
        object.__setattr__(self, "states", st)

    @property
    def dim(self) -> int:
        return self.states.size


def _digit_twice_m(space: SpinSpace):
    """Per site, the array of 2m values indexed by digit."""
    return [np.array([n - 1 - 2 * d for d in range(n)]) for n in space.site_dims]


def total_sz_diagonal(space: SpinSpace) -> np.ndarray:
    """Vector of total S^3 eigenvalues over the full basis, in index order."""
    tm = np.zeros(1, dtype=np.int64)
    for col in _digit_twice_m(space):
        # earlier sites stay fastest: new index = old + old_size * digit
        tm = (tm[:, None] + col[None, :]).ravel(order="F")
    return tm / 2.0


def magnetization_sector(space: SpinSpace, M) -> SectorBasis:
    """All product basis states with total S^3 = M, canonical (ascending) order.

    Built site by site: each site's digits are broadcast against the partial
    indices of the earlier sites, and partial states whose 2m the remaining
    sites can no longer bring to 2M are dropped.  Every stride exceeds all
    indices of the earlier sites, so digit-major order is ascending.
    """
    twice_m = int(round(2 * float(M)))
    if abs(twice_m) > space.twice_m_total_max() or (twice_m - space.twice_m_total_max()) % 2 != 0:
        raise ValueError(f"magnetization {M} is not achievable on this space")
    idx = tm = np.zeros(1, dtype=np.int64)
    reach = space.twice_m_total_max()       # |2m| the remaining sites can add
    for col, stride, n in zip(_digit_twice_m(space), space.strides, space.site_dims):
        reach -= n - 1
        idx = (np.arange(n)[:, None] * stride + idx).ravel()
        tm = (col[:, None] + tm).ravel()
        keep = np.abs(twice_m - tm) <= reach
        idx, tm = idx[keep], tm[keep]
    if idx.size == 0:
        raise ValueError(f"magnetization sector M={M} is empty")
    return SectorBasis(space, ("M", twice_m / 2), idx)


def down_spin_sector(space: SpinSpace, n) -> SectorBasis:
    """Spin-1/2 convenience: the sector with n down spins (M = L/2 - n)."""
    if any(d != 2 for d in space.site_dims):
        raise ValueError("down-spin sectors are defined for spin-1/2 spaces")
    basis = magnetization_sector(space, space.n_sites / 2 - n)
    return SectorBasis(space, ("n", int(n)), basis.states)


def _embed(space: SpinSpace, factors) -> SparseOperator:
    """Product of local matrices on disjoint sites, identity elsewhere.

    ``factors`` lists (sorted sites, matrix on their little-endian tensor
    product).  The row and column offsets of each factor's nonzeros, and the
    diagonal offsets of each run of free sites, are summed by broadcasting
    into one COO array, converted once to CSR.  Values are multiplied in
    ascending site order, as a chain of Kronecker products would.
    """
    dims, strides = space.site_dims, space.strides
    rows = cols = np.zeros(1, dtype=np.int64)
    data = np.ones(1, dtype=complex)
    for sites, mat in sorted(factors, key=lambda f: f[0]):
        off = np.zeros(1, dtype=np.int64)
        for x in sites:
            off = (off[:, None] + np.arange(dims[x]) * strides[x]).ravel(order="F")
        mat = np.asarray(mat, dtype=complex)
        r, c = np.nonzero(mat)
        rows = (off[r][:, None] + rows).ravel()
        cols = (off[c][:, None] + cols).ravel()
        data = (mat[r, c][:, None] * data).ravel()
    covered = {x for sites, _ in factors for x in sites}
    for free, run in groupby(range(space.n_sites), lambda x: x not in covered):
        if free:
            run = list(run)
            off = np.arange(math.prod(dims[run[0]:run[-1] + 1])) * strides[run[0]]
            rows = (off[:, None] + rows).ravel()
            cols = (off[:, None] + cols).ravel()
            data = np.tile(data, off.size)
    n = space.total_dim
    return SparseOperator(sp.coo_matrix((data, (rows, cols)), shape=(n, n)))


def kron_chain(space: SpinSpace, site_ops: dict) -> SparseOperator:
    """Kronecker product over all sites; ``site_ops`` maps site -> local matrix,
    identity elsewhere.  Little-endian: site 0 is the innermost factor."""
    dims = space.site_dims
    for x, m in site_ops.items():
        if not 0 <= x < space.n_sites:
            raise ValueError(f"site {x} is not a site of the {space.n_sites}-site space")
        m = np.asarray(m)
        if m.shape != (dims[x], dims[x]):
            raise ValueError(f"matrix at site {x} has shape {m.shape}, "
                             f"expected square of dim {dims[x]}")
    return _embed(space, [((x,), m) for x, m in site_ops.items()])


def embed_at(space: SpinSpace, ops) -> SparseOperator:
    """Embed single-site matrices at distinct sites (identity elsewhere).

    ``ops`` is a list of (vertex, matrix); supports mixed products with a
    different matrix on many sites, as needed by twisted symmetry sums.
    """
    sites = [x for x, _ in ops]
    if len(set(sites)) != len(sites):
        raise ValueError("embedding sites must be distinct")
    return kron_chain(space, {x: m for x, m in ops})


def embed_local(space: SpinSpace, support, matrix) -> SparseOperator:
    """Embed a multi-site local matrix given on the tensor product of the
    (sorted) support sites, little-endian within the support."""
    support = tuple(sorted(set(support)))
    if not support:
        raise ValueError("empty support")
    sub_dim = math.prod(space.site_dims[x] for x in support)
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (sub_dim, sub_dim):
        raise ValueError(f"local matrix has shape {matrix.shape}, "
                         f"expected dim {sub_dim} for support {support}")
    return _embed(space, [(support, matrix)])


def restrict(op: SparseOperator, sector: SectorBasis, leak_tol=1e-10, dense=True,
             target=None):
    """Block of ``op`` from ``sector`` (columns) to ``target`` (rows, default
    ``sector``); errors if matrix elements leak out of ``target``.

    Returns a dense array by default (sector blocks are the dense workhorse),
    float64 when the block has no imaginary part.
    """
    target = sector if target is None else target
    cols = op.matrix[:, sector.states]      # gathered from CSR: no full-matrix copy
    mask = np.zeros(op.dim, dtype=bool)
    mask[target.states] = True
    outside = cols[~mask, :]
    if outside.nnz:
        leak = abs(outside).max()
        if leak > leak_tol:
            coo = abs(outside).tocoo()
            k = int(np.argmax(coo.data))
            raise ValueError(
                f"operator leaks out of sector {target.label}: "
                f"|element| = {leak:.3e} at outside-row {coo.row[k]}, sector-col {coo.col[k]}"
            )
    block = cols[mask, :]
    if not np.any(block.data.imag):
        block = block.real
    return block.toarray() if dense else sp.csr_matrix(block)
