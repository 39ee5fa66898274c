"""Tensor-product spin Hilbert spaces, sector bases, and the one embedding
kernel that builds operators on either.

Basis states are mixed-radix integers over the site dimensions,
little-endian in the vertex id (site 0 is the fastest index).  Digit d at
site x means the S^3 eigenvalue m = s_x - d, i.e. digit 0 is "spin up".

A basis is either the whole ``SpinSpace`` or a ``SectorBasis`` (a sorted
subset of its states).  ``embed_local`` (a sum of local terms), ``embed_at``
and ``kron_chain`` (one product) build an operator from any source basis to
any target basis (default the source), converted to CSR once, without
touching the states outside them, so a sector block never needs the full
space.  Their one kernel, ``_embed``, costs per distinct local matrix of a
call rather than per term: it checks each matrix once, embeds the products
that share their matrices in one pass, and lets a diagonal one-site factor
only scale the values.  A block touching a sector is float64 when every
local matrix is real (a full-space operator stays complex128), and records
the bases it maps between; ``restrict`` takes the block between sub-bases
of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .util import require_memory

HERMITICITY_TOL = 1e-12
PRUNE_TOL = 1e-15
LEAK_TOL = 1e-10


class SpinMatrices(NamedTuple):
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    plus: np.ndarray
    minus: np.ndarray


def check_spin(s) -> float:
    """s as a float; ``ValueError`` unless a positive half-integer (NaN, inf are not)."""
    s = float(s)
    if not (s > 0 and (2 * s).is_integer()):
        raise ValueError(f"spin magnitude must be a positive half-integer, got {s}")
    return s


def spin_matrices(s) -> SpinMatrices:
    """Standard spin-s matrices, basis ordered by descending S^3 eigenvalue."""
    s = check_spin(s)
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
    """A sparse matrix with a verified Hermitian flag.

    ``basis`` is the basis of its columns (a ``SpinSpace`` or a
    ``SectorBasis``; None when unknown, which ``restrict`` reads as the full
    space) and ``target`` that of its rows, default ``basis``.  Only an
    operator between two different bases may be rectangular.  An operator
    touching a sector keeps float64 or complex128 as given; one on the full
    space is complex128, the arithmetic of the full-space dynamics.
    """

    def __init__(self, matrix, hermitian=False, basis=None, target=None):
        full = not isinstance(basis, SectorBasis) and not isinstance(target, SectorBasis)
        mat = sp.csr_matrix(matrix, dtype=np.complex128 if full else None)
        if mat.dtype not in (np.float64, np.complex128):
            mat = mat.astype(np.result_type(mat.dtype, np.float64))
        if target is None and mat.shape[0] != mat.shape[1]:
            raise ValueError("operator must be square")
        tiny = np.abs(mat.data) < PRUNE_TOL
        if tiny.any() or not mat.has_sorted_indices:
            if sp.issparse(matrix) and matrix.format == "csr":
                mat = mat.copy()        # it shares arrays with the caller's matrix
            mat.data[tiny] = 0.0
            mat.eliminate_zeros()
            mat.sort_indices()
        if hermitian:           # against M* formed once, conjugated in place
            adj = mat.T.tocsr()
            np.conjugate(adj.data, out=adj.data)
            dev = abs(mat - adj)
            leak = dev.max() if dev.nnz else 0.0
            if leak >= HERMITICITY_TOL:
                raise ValueError(f"hermitian flag asserted but max |M - M*| = {leak:.3e}")
        self.matrix = mat
        self.hermitian = bool(hermitian)
        self.basis = basis
        self.target = basis if target is None else target

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

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
        return math.prod(self.site_dims)

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
        if acc > 2 ** 63:
            raise ValueError(f"the {self.n_sites}-site space has {acc} states, above 2^63")
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

    def magnetization_dims(self):
        """The exact dimension of each sector, as ``magnetization_values``
        orders them, counted without enumerating a state."""
        counts = np.ones(1, dtype=object)
        for n in self.site_dims:
            counts = np.convolve(counts, np.ones(n, dtype=object))
        return counts.tolist()


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

    # A sector stands wherever a space does as the basis of an operator.
    @property
    def site_dims(self) -> tuple:
        return self.parent.site_dims

    @property
    def n_sites(self) -> int:
        return self.parent.n_sites

    @property
    def total_dim(self) -> int:
        """The number of basis states, as ``SpinSpace.total_dim`` is for the space."""
        return self.dim


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
    indices of the earlier sites, so digit-major order is ascending.  Its
    counted dimension refuses a sector beyond the physical memory first.
    """
    twice_m = int(round(2 * float(M)))
    tmax = space.twice_m_total_max()
    if abs(twice_m) > tmax or (twice_m - tmax) % 2 != 0:
        raise ValueError(f"magnetization {M} is not achievable on this space")
    dim = space.magnetization_dims()[(tmax - twice_m) // 2]
    require_memory(48 * space.n_max * dim,
                   f"the M = {twice_m / 2:g} sector of the {space.n_sites}-site space")
    idx = tm = np.zeros(1, dtype=np.int64)
    reach = tmax                            # |2m| the remaining sites can add
    for col, stride, n in zip(_digit_twice_m(space), space.strides, space.site_dims):
        reach -= n - 1
        idx = (np.arange(n)[:, None] * stride + idx).ravel()
        tm = (col[:, None] + tm).ravel()
        keep = np.abs(twice_m - tm) <= reach
        idx, tm = idx[keep], tm[keep]
    return SectorBasis(space, ("M", twice_m / 2), idx)


def down_spin_sector(space: SpinSpace, n) -> SectorBasis:
    """Spin-1/2 convenience: the sector with n down spins (M = L/2 - n)."""
    if any(d != 2 for d in space.site_dims):
        raise ValueError("down-spin sectors are defined for spin-1/2 spaces")
    basis = magnetization_sector(space, space.n_sites / 2 - n)
    return SectorBasis(space, ("n", int(n)), basis.states)


class TranslationOrbits(NamedTuple):
    """Orbits of the one-site shift T (site x -> x + 1 mod L) on a sector.

    State s (a sector index) lies on orbit ``orbit[s]`` at position
    ``pos[s]``, the j in 0..m - 1 with s = T^j r; orbit a has period
    ``period[a]`` = m and its representative r, its smallest state, at
    sector index ``reps[a]``; orbits are numbered by ascending r.
    ``shift[s]`` is the sector index of T s, and ``reflect[s]`` that of
    P s under the reflection P (site x -> L - 1 - x), or ``reflect`` is None
    when P leaves the sector."""

    orbit: np.ndarray
    pos: np.ndarray
    period: np.ndarray
    reps: np.ndarray
    shift: np.ndarray
    n_sites: int
    reflect: np.ndarray | None

    def slots(self, ks):
        """The J-real columns of momentum block k (``momentum_blocks``) that
        each orbit enters, as a list of (k, table, sizes), one for each k of
        ``ks``.  ``table`` has a row of columns for each slot, then a row of
        turns for each slot, and one entry per orbit: column c of block k is
        sum_a amp_a e^(2 pi i turn / 4L) |a,k> over the slots (column, turn)
        of the orbits a with that column (``slot_amps``), and an empty slot
        holds the block dimension.  ``sizes`` lists the sizes of the
        diagonal blocks the columns fall into, in order; they add up to n_k,
        the number of orbits a with k m_a = 0 (mod L).  ``reflect`` must be
        set.

        The columns are real under J = P K (P the reflection, K complex
        conjugation), which maps |a,k> to w_a |a',k>, where
        P r_a = T^l r_a' and w_a = e^(2 pi i k l / L): a self-reflected orbit
        (a' = a) takes e^(i pi k l / L) |a,k>, and a pair a < a' the two
        columns (|a,k> + w_a |a',k>) / sqrt 2 and
        i (|a,k> - w_a |a',k>) / sqrt 2.  The first of each pair and the
        self-reflected orbits with w_a != -1 come first, in ascending a.  At
        k = 0 and L/2, where w_a = +-1, they are the reflection-even columns
        and the rest the odd ones, which h does not mix: sizes is (even, odd)
        there, (n_k,) at any other k."""
        L, n = self.n_sites, self.period.size
        ks = np.asarray(ks, dtype=np.int64).reshape(-1, 1)
        keep = ks * self.period % L == 0
        size = keep.sum(axis=1, keepdims=True)
        ref = self.reflect[self.reps]
        mirror, lag, a = self.orbit[ref], self.pos[ref], np.arange(n)
        pair = np.sign(mirror - a)             # 0 self-reflected, +1 first, -1 second of a pair
        odd = (pair == 0) & (2 * ks * lag % (2 * L) == L)          # w_a = -1
        first, second = keep & (pair >= 0) & ~odd, keep & ((pair > 0) | odd)
        even = first.sum(axis=1, keepdims=True)
        columns = np.stack([np.where(first, np.cumsum(first, axis=1) - 1, size),
                            np.where(second, even + np.cumsum(second, axis=1) - 1, size)],
                           axis=1).take(np.minimum(a, mirror), axis=2)
        turns = ((2 - 2 * pair) * ks * lag)[:, None] + np.array([[0], [L]]) * pair
        dims = [(int(e), int(d - e)) if 2 * k % L == 0 else (int(d),)
                for k, e, d in zip(ks[:, 0], even[:, 0], size[:, 0])]
        return list(zip(ks[:, 0].tolist(), np.concatenate([columns, turns % (4 * L)], axis=1),
                        dims))

    def slot_amps(self) -> np.ndarray:
        """The amplitude of each orbit in its ``slots``: 1 for a
        self-reflected orbit, 1 / sqrt 2 for one of a pair."""
        return np.where(self.orbit[self.reflect[self.reps]] == np.arange(self.period.size),
                        1.0, math.sqrt(0.5))


def translation_orbits(sector: SectorBasis) -> TranslationOrbits:
    """The orbits of the one-site shift on a sector of a space whose L sites
    share one dimension d.  T^j s is the rotation
    rot_j(s) = (s mod d^(L-j)) d^j + s div d^(L-j) (for d = 2 a left rotation
    of the bitmask), taken for one j at a time: the representative is the
    smallest rotation, the period L over the number of rotations that fix s.
    The reflection reverses the L digits of s.  A sector that T does not map
    onto itself raises ``ValueError``."""
    dims = set(sector.site_dims)
    if len(dims) != 1:
        raise ValueError("translation orbits need sites of one local dimension")
    d, L, states = dims.pop(), sector.n_sites, sector.states
    low, first = states.copy(), np.zeros(states.size, dtype=np.int64)
    fixed = np.ones(states.size, dtype=np.int64)        # T^0 fixes every state
    shift = np.arange(states.size)
    for j in range(1, L):
        rot = states % d ** (L - j) * d ** j + states // d ** (L - j)
        if j == 1:
            shift = np.minimum(np.searchsorted(states, rot), states.size - 1)
            if not np.array_equal(states[shift], rot):
                raise ValueError(f"the one-site shift leaves sector {sector.label}")
        fixed += rot == states
        smaller = rot < low
        low[smaller], first[smaller] = rot[smaller], j
    period = L // fixed
    rep_states, orbit = np.unique(low, return_inverse=True)
    reps = np.searchsorted(states, rep_states)
    rest, mirrored = states, np.zeros(states.size, dtype=np.int64)
    for _ in range(L):
        rest, digit = np.divmod(rest, d)
        mirrored = mirrored * d + digit
    reflect = np.minimum(np.searchsorted(states, mirrored), states.size - 1)
    if not np.array_equal(states[reflect], mirrored):
        reflect = None
    return TranslationOrbits(orbit, -first % period, period[reps], reps, shift, L, reflect)


def momentum_blocks(h, orbits: TranslationOrbits, slots):
    """For each (k, table, sizes) of ``slots`` (``orbits.slots(ks)``) in
    turn, the tuple of real dense blocks whose spectra together are that of
    momentum block k of a real sector block ``h`` that commutes with the
    shift T and the reflection P, which the caller has checked
    (``spectral._commutes``).

    Block k is spanned by |a,k> = m_a^(-1/2) sum_j e^(-2 pi i k j / L) |T^j r_a>
    over the orbits a with k m_a = 0 (mod L), so its entries need only the
    representative columns of the sparse h:
    <b,k|h|a,k> = sqrt(m_a / m_b) sum_(t in orbit b) h[t, r_a] e^(2 pi i k pos(t) / L).
    It is written in the J-real columns of ``TranslationOrbits.slots``,
    where each orbit enters at most two columns: every nonzero of h[:, reps]
    scatters into at most four entries conj(C[b, i]) C[a, j] <b,k|h|a,k>, by
    one ``bincount`` (empty slots into one spare bin).  Each block is real
    and keeps the size of h_k, and at k = 0 and L/2 it is the pair of its
    reflection-even and odd halves.  A complex h raises ``ValueError``."""
    L = orbits.n_sites
    cols = sp.csr_matrix(h)[:, orbits.reps].tocoo()
    if np.iscomplexobj(cols.data):
        raise ValueError("momentum blocks need a real h")
    t, a = cols.row, cols.col
    b = orbits.orbit[t]
    amps = orbits.slot_amps()
    weight = cols.data * np.sqrt(orbits.period[a] / orbits.period[b]) * (amps[a] * amps[b])
    # the real part of e^(2 pi i j / 4L) at index j + 4L, for the turns
    # -4L < j < 8L of an entry
    phases = np.exp(2j * np.pi * np.arange(-4 * L, 8 * L) / (4 * L)).real
    pos4 = 4 * orbits.pos[t]
    for k, table, sizes in slots:
        slots, n = len(table) // 2, sum(sizes) + 1      # and one spare bin for empty slots
        at_b, at_a = table.take(b, axis=1), table.take(a, axis=1)
        flat = (at_b[:slots, None] * n + at_a[None, :slots]).ravel()
        turn = k * pos4 % (4 * L) + 4 * L + at_a[None, slots:] - at_b[slots:, None]
        block = np.bincount(flat, (weight * phases[turn]).ravel(), n * n)
        block, edges = block.reshape(n, n), np.cumsum((0,) + sizes)
        yield tuple(block[i:j, i:j] for i, j in zip(edges, edges[1:]))


def _states(basis):
    """(space, states) of a basis; states is None for the whole space."""
    if isinstance(basis, SectorBasis):
        return basis.parent, basis.states
    return basis, None


class SectorLeakError(ValueError):
    """An operator has an element above LEAK_TOL outside a sector."""


def _leak_error(label, leak, state, col):
    return SectorLeakError(f"operator leaks out of sector {label}: |element| = {leak:.3e} "
                           f"at state {state}, sector-col {col}")


def _local(space, sites, mat):
    """A factor's local matrix, checked against the dimensions of its sites
    (``_embed`` checks the sites), as ``_embed`` uses it: real when it has
    no imaginary part, elements below PRUNE_TOL zero.  A matrix that is not
    finite raises ``ValueError``."""
    sub = math.prod(space.site_dims[x] for x in sites)
    mat = np.asarray(mat)
    if mat.shape != (sub, sub):
        raise ValueError(f"local matrix has shape {mat.shape}, expected dim {sub} for "
                         f"sites {sites}")
    if not np.isfinite(mat).all():
        raise ValueError(f"local matrix on sites {sites} is not finite")
    if np.iscomplexobj(mat) and not mat.imag.any():
        mat = mat.real
    return np.where(np.abs(mat) >= PRUNE_TOL, mat, 0)


def _embed(basis, products, target=None) -> SparseOperator:
    """Sum of products of local matrices on disjoint sites, identity
    elsewhere, from ``basis`` (columns) to ``target`` (rows, default
    ``basis``); either is a ``SpinSpace`` or a ``SectorBasis``.

    Each product lists (sorted sites, matrix on their little-endian tensor
    product).  Every site is checked, and each distinct (matrix, site
    dimensions) once (``_local``).  Products whose factors carry equal
    matrices on sites of equal dimensions form a group, embedded in passes
    over (product, state) rows, at most 2^15 rows or one product a pass.
    Factor by factor, the digits of a row's state on its product's sites
    give its local column, and the row is repeated once per nonzero of that
    column with its digits replaced by the nonzero's row; a one-site factor
    that is diagonal with no zero only scales the values.  Values are
    multiplied in ascending site order, as a chain of Kronecker products
    would.  The final states are found in ``target`` by ``np.searchsorted``;
    an element above LEAK_TOL that leaves it raises ``SectorLeakError`` for
    the first product that has one.  From a basis to itself, the diagonals
    of one-factor products add up in product order.  The other elements are
    placed in product order and converted to CSR once, which adds the ones
    at the same position, so the grouping changes no bit; those of a single
    product, which never share a position, are sorted into CSR directly.  A
    block touching a sector is float64 when every factor is real.
    """
    target = basis if target is None else target
    same = target is basis
    space, first = _states(basis)
    _, inside = _states(target)
    dims, strides, size = space.site_dims, space.strides, basis.total_dim
    first = np.arange(size) if first is None else first
    checked, groups, n_sites = {}, {}, len(dims)
    for p, factors in enumerate(products):
        values, found, sites_of = (), [], ()
        for sites, m in sorted(factors, key=lambda f: f[0]):
            if not sites:
                raise ValueError("empty support")
            for x in sites:
                if not 0 <= x < n_sites:
                    raise ValueError(f"site {x} is not a site of the {n_sites}-site space")
            at = tuple([dims[x] for x in sites])
            if (id(m), at) not in checked:          # m is kept, so no other object takes its id
                mat = _local(space, sites, m)
                d = np.diagonal(mat)
                scale = len(at) == 1 and np.count_nonzero(mat) == np.count_nonzero(d) == d.size
                checked[id(m), at] = (m, (at, mat.dtype.str, mat.tobytes()),
                                      (at, mat, d if scale else None))
            _, value, factor = checked[id(m), at]
            values, sites_of = values + (value,), sites_of + sites
            found.append(factor)
        groups.setdefault((same and len(found) == 1, values), (found, []))[1].append((p, sites_of))
    shape = (target.total_dim, size)
    idx = np.int32 if max(shape) < 2 ** 31 else np.int64
    digits, parts, leaks, adds = {}, [], [], {}
    # the one-factor products, last first, whose diagonals add up in this order
    ones = sorted((p for (one, _), (_, members) in groups.items() if one for p, _ in members),
                  reverse=True)
    diag = np.zeros(size if ones else 0,
                    np.result_type(float, *(f[1] for _, _, f in checked.values())))
    step = max(1, 2 ** 15 // max(size, 1))
    for (one, _), (factors, members) in groups.items():
        for lo in range(0, len(members), step):
            pids, sites_of = zip(*members[lo:lo + step])
            n, at = len(pids), 0
            origin, new, data = np.arange(n * size), np.concatenate([first] * n), np.ones(n * size)

            def digit(j):
                """The digit of each row's state on the j-th site of its product."""
                if n == 1:
                    return new // strides[sites_of[0][j]] % dims[sites_of[0][j]]
                for x in {s[j] for s in sites_of} - digits.keys():
                    digits[x] = first // strides[x] % dims[x]
                return np.array([digits[s[j]] for s in sites_of]).ravel()[origin]

            for at_dims, mat, scale in factors:
                place = [math.prod(at_dims[:i]) for i in range(len(at_dims) + 1)]
                loc = digit(at)
                for i in range(1, len(at_dims)):
                    loc = loc + digit(at + i) * place[i]
                if one:
                    d = np.diagonal(mat)
                    adds.update(zip(pids, d[loc].reshape(n, size)))
                    while ones and ones[-1] in adds:
                        diag += adds.pop(ones.pop())
                    mat = mat - np.diag(d)
                elif scale is not None:
                    data, at = scale[loc] * data, at + 1      # moves no row
                    continue
                c, r = np.nonzero(mat.T)            # by column, rows ascending within it
                counts = np.bincount(c, minlength=place[-1])
                n_out = counts[loc]
                pick = np.repeat(np.arange(loc.size), n_out)
                entry = np.arange(pick.size) + np.repeat(
                    (np.cumsum(counts) - counts)[loc] - np.cumsum(n_out) + n_out, n_out)
                # each product's move of the state for each nonzero, (n, nonzeros)
                move = sum(np.multiply.outer([strides[s[at + i]] for s in sites_of],
                                             r // w % d - c // w % d)
                           for i, (d, w) in enumerate(zip(at_dims, place)))
                origin, at = origin[pick], at + len(at_dims)
                prod = origin // size if n > 1 else 0
                new = new[pick] + move[prod, entry]
                data = mat[r, c][entry] * data[pick]
            if inside is not None:
                pos = np.minimum(np.searchsorted(inside, new), inside.size - 1)
                hit = inside[pos] == new
                if not hit.all():
                    mag = np.where(hit, -1.0, np.abs(data))
                    k = int(np.argmax(mag > LEAK_TOL))
                    if mag[k] > LEAK_TOL:       # the largest of the first leaking product
                        k = int(np.argmax(np.where(origin // size == origin[k] // size, mag, -1)))
                        leaks.append((pids[origin[k] // size], mag[k], new[k], origin[k] % size))
                    pos, origin, data = pos[hit], origin[hit], data[hit]
                new = pos
            ends = np.searchsorted(origin, np.arange(n + 1) * size)     # rows in product order
            new, origin = new.astype(idx), (origin % size if n > 1 else origin).astype(idx)
            parts += [(p, new[i:j], origin[i:j], data[i:j]) for p, i, j in zip(pids, ends, ends[1:])]
    if leaks:
        raise _leak_error(target.label, *min(leaks)[1:])
    head = np.arange(diag.size, dtype=idx)
    _, rows, cols, vals = zip((-1, head, head, diag), *sorted(parts, key=lambda a: a[0]))
    single = len(parts) == 1
    del parts                       # rows, cols and vals hold the parts until joined
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    if single:      # its elements lie at distinct positions, so sorting them is the CSR
        order = np.lexsort((cols, rows))
        indptr = np.zeros(shape[0] + 1, idx)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        mat = sp.csr_matrix((vals[order], cols[order], indptr), shape=shape)
    else:
        mat = sp.csr_matrix((vals, (rows, cols)), shape=shape)
    del rows, cols, vals
    mat.eliminate_zeros()           # so that SparseOperator has nothing to prune
    return SparseOperator(mat, basis=basis, target=None if same else target)


def kron_chain(space, site_ops: dict, target=None) -> SparseOperator:
    """Kronecker product over all sites; ``site_ops`` maps site -> local matrix,
    identity elsewhere.  Little-endian: site 0 is the innermost factor.
    ``space`` and ``target`` are bases as in ``_embed``."""
    return _embed(space, [[((x,), m) for x, m in site_ops.items()]], target)


def embed_at(space, ops, target=None) -> SparseOperator:
    """Embed single-site matrices at distinct sites (identity elsewhere), from
    the basis ``space`` to ``target`` (default ``space``).

    ``ops`` is a list of (vertex, matrix); supports mixed products with a
    different matrix on many sites, as needed by twisted symmetry sums.
    """
    sites = [x for x, _ in ops]
    if len(set(sites)) != len(sites):
        raise ValueError("embedding sites must be distinct")
    return kron_chain(space, {x: m for x, m in ops}, target)


def embed_local(space, terms, target=None) -> SparseOperator:
    """The sum of local terms (support, matrix on the tensor product of the
    sorted support sites, little-endian within it) from the basis ``space``
    to ``target`` (default ``space``), built by one kernel call."""
    return _embed(space, [[(tuple(sorted(set(s))), m)] for s, m in terms], target)


def _positions(basis, sub: SectorBasis):
    """Positions of the states of ``sub`` in ``basis`` (a space, None for the
    full space, or a sector), or None when ``sub`` is all of ``basis``."""
    if not isinstance(basis, SectorBasis):
        return sub.states
    if basis is sub or np.array_equal(basis.states, sub.states):
        return None
    pos = np.minimum(np.searchsorted(basis.states, sub.states), basis.dim - 1)
    if not np.array_equal(basis.states[pos], sub.states):
        raise ValueError(f"sector {sub.label} is not part of the operator's "
                         f"basis {basis.label}")
    return pos


def restrict(op: SparseOperator, sector: SectorBasis, dense=True, target=None):
    """Block of ``op`` from ``sector`` (columns) to ``target`` (rows, default
    ``sector``), each part of the basis the operator has on that side;
    errors if matrix elements leak out of ``target``.  On an operator built
    on exactly these bases it is a plain conversion.

    Returns a dense array by default and CSR with ``dense=False``, float64
    when the block has no imaginary part.
    """
    target = sector if target is None else target
    cols, rows = _positions(op.basis, sector), _positions(op.target, target)
    block = op.matrix if cols is None else op.matrix[:, cols]
    if rows is not None:
        mask = np.zeros(block.shape[0], dtype=bool)
        mask[rows] = True
        outside = abs(block[~mask, :]).tocoo()
        if outside.nnz and outside.data.max() > LEAK_TOL:
            k = int(np.argmax(outside.data))
            row = np.flatnonzero(~mask)[outside.row[k]]
            _, states = _states(op.target)
            raise _leak_error(target.label, outside.data[k],
                              row if states is None else states[row], outside.col[k])
        block = block[mask, :]
    if np.iscomplexobj(block.data) and not block.data.imag.any():
        block = block.real
    return block.toarray() if dense else sp.csr_matrix(block)
