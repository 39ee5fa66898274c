"""Heisenberg dynamics, commutator light cones, and ground-state clustering.

Real-time evolution goes through the eigendecomposition of H, taken block
by block over the invariant blocks of H: the connected components of its
sparsity pattern, which on the Heisenberg and AKLT chains are the
magnetization sectors.  Only the eigenvector blocks are stored.
Light-cone commutator norms are taken in that eigenbasis, one connected
component of the block pattern of the commutator at a time.  One kernel
moves B and every single-site unit there by gathering eigenvector rows,
with no embedding (``HeisenbergDynamics._rotated``).  Every time step is
handled at once: tau_t(A), tau_t(A) B and the commutator are (T, n, m)
stacks, formed by real products where A and B are real, and each
component's norm is one stacked ``eigvalsh`` or, for a largest singular
value, one Gram solve per step (``flip._top_singular``).  A unit whose norm
another fixes exactly is not solved: one whose traceless part is
+-(that of an earlier unit), or, where the global spin flip F (every site
digit i -> d - 1 - i) commutes with H and F B F = +-B, +-(its site-flip
image), and i(E_ij - E_ji) = W (E_ij + E_ji) W^* where a phase W, a power
of i on each invariant block of H, commutes with B (``commutator_grid``).
F also halves the solves: a block and its mirror image share one ``eigh``
(V_mirror = V[::-1]), a self-mirrored block is solved by its two parity
halves, and where F K F = +-K for the commutator K, of two mirror-image
components one is solved and a self-mirrored one by its parity halves; a
component solved whole is the parity split of the trivial flip, so one
kernel takes every norm (``flip``).
Imaginary-time weights e^(-b(H-E0)) are applied by spectral decomposition on
the dense path and, inside one sector, by a Lanczos recursion on the sparse
block (``SectorCorrelator.propagate``): one recursion from A* Omega gives
e^(-b(H-E0)) A* Omega at every b asked for, so the clustering check runs
one per observable site A and reads every partner B from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .lattice import SpinGraph, set_distance, distances_from
from .hilbert import SpinSpace, SparseOperator, embed_at, magnetization_sector
from .models import Interaction, _flip_sign, lambda_norm
from .spectral import (DEGENERACY_TOL, ConvergenceError, extremal_eigs, full_spectrum,
                       sector_sweep_lowest, spectral_gap)
from .util import require_memory
from .flip import (_block_components, _component_norm, _component_plans, _flip_mirror,
                   _parity_eigh, _traceless)

# SectorCorrelator.propagate.  The one run of the AKLT ring's clustering
# check stops after 20 Lanczos steps (L = 6), 32 (L = 9), 40 (L = 12) and
# 44 (L = 14, 616227 states), the oracle tests after at most 32: the cap is
# almost three times the largest.
LANCZOS_MAX_STEPS = 128
LANCZOS_CHECK_EVERY = 4
PROPAGATION_TOL = 1e-14
CLUSTERING_WINDOW_STEPS = 4    # equal steps across each pair's window [0, b_max]
CLUSTERING_LARGE_B = (1.0, 3.0, 6.0)   # the b of the trivial large-b check


def hermitian_unit_basis(n: int):
    """A Hermitian spanning set of M_n, each element of operator norm 1:
    the diagonal units E_ii, the symmetric pairs E_ij + E_ji, and the
    antisymmetric pairs i(E_ij - E_ji), in the order of ``_unit_pair``."""
    basis = []
    for u in range(n * n):
        i, j, w = _unit_pair(u, n)
        m = np.zeros((n, n), dtype=complex)
        m[i, j], m[j, i] = w, np.conj(w)
        basis.append(m)
    return basis


def _block_labels(mat) -> np.ndarray:
    """The invariant blocks of a Hermitian matrix: the connected components of
    its sparsity pattern, found by label propagation with pointer jumping.
    Entry i is the block of basis state i; blocks are numbered in the order
    of their first state.  (``scipy.sparse.csgraph`` would load scipy.linalg
    and its own BLAS library, about 11 MB of resident memory.)"""
    rows, cols = mat.nonzero()
    label = np.arange(mat.shape[0])
    while True:
        hooked = label.copy()
        np.minimum.at(hooked, rows, label[cols])
        hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            return np.unique(label, return_inverse=True)[1]
        label = hooked


class HeisenbergDynamics:
    """Caches the eigendecomposition of a Hamiltonian for repeated evolutions.

    H is split into its invariant blocks, the connected components of its
    sparsity pattern (the magnetization sectors of a Heisenberg chain; a
    single block once a transverse field couples them), and the blocks of
    each size are diagonalised together by one stacked ``eigh``.  Where the
    global flip F: s -> dim - 1 - s commutes with H (``_flip_mirror``), F
    maps block b onto block ``mirror[b]`` with its states in reverse order:
    of a block pair b < mirror[b] only b is solved, and V_mirror[b] =
    V_b[::-1] exactly, so that in the eigenbasis F swaps the two blocks'
    columns; a self-mirrored block is solved by two half-size ``eigh``
    calls in its parity basis (``_parity_eigh``), and ``parity`` holds the
    parity +-1 of each of its columns (0 on every other column; ``mirror``
    is None and ``parity`` all 0 where F does not commute with H).
    ``blocks[b]`` holds the eigenvectors of block b, with
    ``evals[bounds[b]:bounds[b + 1]]`` their eigenvalues: its rows are
    the states ``order[bounds[b]:bounds[b + 1]]``, and state s is row
    ``position[s]`` of the block ``labels[s]``.  These blocks are the only
    store of the eigenbasis; ``vecs`` assembles the dense one from them.  H
    is diagonalised as real float64 when it has no imaginary part, so the
    eigenvectors of every real model come from the real solver.  It refuses
    an H whose eigenvector blocks, with the dense solve of its largest block
    as ``full_spectrum`` counts it, would exceed the physical memory; the
    dense result of ``evolve`` is counted there."""

    def __init__(self, H):
        mat = sp.csr_matrix(H.matrix if isinstance(H, SparseOperator) else H)
        dim = mat.shape[0]
        if not np.any(mat.data.imag):
            mat = mat.real
        self.labels = _block_labels(mat)
        self.order = np.argsort(self.labels, kind="stable")
        sizes = np.bincount(self.labels)
        require_memory((np.sum(sizes.astype(float) ** 2) + 6.0 * sizes.max() ** 2)
                       * mat.dtype.itemsize,
                       f"the eigenvector blocks of the {dim}-state Hamiltonian")
        self.bounds = np.concatenate(([0], np.cumsum(sizes)))
        self.position = np.empty(dim, dtype=np.intp)
        self.position[self.order] = np.arange(dim) - np.repeat(self.bounds[:-1],
                                                               np.diff(self.bounds))
        self.evals = np.empty(dim)
        self.blocks = [None] * sizes.size
        self.mirror = _flip_mirror(mat, self.labels, self.order, self.bounds)
        self.parity = np.zeros(dim, dtype=np.int8)
        mirror = np.arange(sizes.size) if self.mirror is None else self.mirror
        # the blocks of each size that are not the mirror image of a block
        # before them, scattered from the block-ordered entries into one
        # stack and solved by one stacked eigh; a self-mirrored block is
        # solved by its two parity halves instead
        coo = mat[self.order][:, self.order].tocoo()
        coo.sum_duplicates()
        blk = self.labels[self.order[coo.row]]
        row, col = coo.row - self.bounds[blk], coo.col - self.bounds[blk]
        rank = np.empty(sizes.size, dtype=np.intp)
        solved = mirror >= np.arange(sizes.size)
        for m in np.unique(sizes[solved]):
            ids = np.flatnonzero(solved & (sizes == m))
            rank[ids] = np.arange(ids.size)
            sel = solved[blk] & (sizes[blk] == m)
            stack = np.zeros((ids.size, m, m), mat.dtype)
            stack[rank[blk[sel]], row[sel], col[sel]] = coo.data[sel]
            halved = (mirror[ids] == ids) & (self.mirror is not None)
            if not halved.all():
                vals, vecs = np.linalg.eigh(stack[~halved])
                self.evals[self.bounds[ids[~halved]][:, None] + np.arange(m)] = vals
                for b, vb in zip(ids[~halved].tolist(), vecs):
                    self.blocks[b] = vb
            for b, h in zip(ids[halved].tolist(), stack[halved]):
                s = self.bounds[b]
                self.evals[s:s + m], self.blocks[b], self.parity[s:s + m] = _parity_eigh(h)
        for b in np.flatnonzero(~solved).tolist():
            a = mirror[b]
            self.blocks[b] = self.blocks[a][::-1]
            self.evals[self.bounds[b]:self.bounds[b + 1]] = \
                self.evals[self.bounds[a]:self.bounds[a + 1]]
        self.dim = dim

    @property
    def vecs(self) -> np.ndarray:
        """The dense eigenbasis in the site basis, assembled from ``blocks``:
        columns ``bounds[b]`` to ``bounds[b + 1]`` are the eigenvectors of
        block b, zero off its states."""
        V = np.zeros((self.dim, self.dim), self.blocks[0].dtype)
        for b, vb in enumerate(self.blocks):
            s, e = self.bounds[b], self.bounds[b + 1]
            V[self.order[s:e], s:e] = vb
        return V

    def phases(self, t: float) -> np.ndarray:
        """e^(-itE) over the eigenvalues E."""
        return np.exp(-1j * t * self.evals)

    def _pattern(self, targets, sources) -> np.ndarray:
        """The key r n + c of the block pair (r, c) of each element
        |targets_k><sources_k|, from the block labels alone."""
        return self.labels[targets] * len(self.blocks) + self.labels[sources]

    def _block_pairs(self, targets, sources) -> list:
        """(r, c, sel) for each block pair (r, c) of the elements
        |targets_k><sources_k|, in increasing key order (``_pattern``):
        ``sel`` holds the positions k of its elements."""
        key = self._pattern(targets, sources)
        perm = np.argsort(key, kind="stable")
        keys, starts = np.unique(key[perm], return_index=True)
        return [(*divmod(k, len(self.blocks)), sel)
                for k, sel in zip(keys.tolist(), np.split(perm, starts[1:]))]

    def _rotated(self, targets, sources, weights=None) -> dict:
        """The blocks of V^H A V for A = sum_k w_k |targets_k><sources_k|
        (every w_k = 1 without ``weights``), keyed by (row block, column
        block) in increasing key order (``_pattern``); every other block is
        exactly zero.  Block (r, c) is V_r[targets]^H (w V_c[sources]) over
        its elements: one gather of eigenvector rows and one product.  On a
        real eigenbasis complex weights enter as their real and imaginary
        parts, so every product is real."""
        if np.iscomplexobj(weights) and not np.iscomplexobj(self.blocks[0]):
            re, im = (self._rotated(targets, sources, w) for w in (weights.real, weights.imag))
            return {key: re[key] + 1j * im[key] for key in re}
        V, pos = self.blocks, self.position
        out = {}
        for r, c, sel in self._block_pairs(targets, sources):
            right = V[c][pos[sources[sel]]]
            if weights is not None:
                right = weights[sel, None] * right
            out[r, c] = V[r][pos[targets[sel]]].conj().T @ right
        return out

    def unit_blocks(self, space: SpinSpace, x: int, units=None) -> list:
        """The blocks of V^H A V, as ``_rotated`` gives them, for the A of
        ``hermitian_unit_basis`` at site x at the positions ``units`` (every
        one by default), in that order; nothing is embedded, and a unit not
        asked for is not rotated.  The site unit E_ij enters ``_rotated`` as
        its elements (``_unit_elements``); V^H E_ji V is the conjugate
        transpose of V^H E_ij V."""
        if space.total_dim != self.dim:
            raise ValueError(f"a {space.total_dim}-state space for a "
                             f"{self.dim}-state Hamiltonian")
        d = space.site_dims[x]
        rotated = {}
        out = []
        for u in range(d * d) if units is None else units:
            i, j, w = _unit_pair(u, d)
            if (i, j) not in rotated:
                rotated[i, j] = self._rotated(*_unit_elements(self, space, x, i, j))
            G = rotated[i, j]
            if i == j:
                out.append(G)
                continue
            unit = {}
            for (r, c), m in G.items():
                for key, term in (((r, c), w * m), ((c, r), np.conj(w) * m.conj().T)):
                    unit[key] = unit[key] + term if key in unit else term
            out.append(unit)
        return out

    def evolve(self, A, t: float) -> np.ndarray:
        """tau_t(A) = U^H A U, dense in the site basis, for U = e^(-itH) kept
        as its invariant blocks U_b = V_b e^(-itE_b) V_b^H (two real
        products where the eigenvectors are real).  U is block diagonal, so
        block (a, c) of the result is U_a^H A_ac U_c, formed only for the
        block pairs (a, c) of the nonzero entries of A (``_block_pairs``),
        each A_ac scattered from its entries; every other block is exactly
        zero.  The result, the blocks U_b and three arrays the size of the
        largest block pair are counted against the physical memory before
        any is formed."""
        A = A.matrix if isinstance(A, SparseOperator) else A
        if sp.issparse(A):
            A = A.tocoo()
            A.sum_duplicates()
            rows, cols, data = A.row, A.col, A.data
        else:
            A = np.asarray(A)
            rows, cols = np.nonzero(A)
            data = A[rows, cols]
        pairs = self._block_pairs(rows, cols)
        sizes = np.diff(self.bounds)
        largest = max((sizes[a] * sizes[c] for a, c, _ in pairs), default=0)
        require_memory(16 * (float(self.dim) ** 2 + np.sum(sizes.astype(float) ** 2)
                             + 3.0 * largest),
                       f"real-time evolution in the dense {self.dim}-state eigenbasis")
        p = self.phases(t)
        U = []
        for b, vb in enumerate(self.blocks):
            pb = p[self.bounds[b]:self.bounds[b + 1]]
            if np.iscomplexobj(vb):
                U.append((vb * pb) @ vb.conj().T)
            else:
                U.append((vb * pb.real) @ vb.T + 1j * ((vb * pb.imag) @ vb.T))
        pos = self.position
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for a, c, sel in pairs:
            block = np.zeros((sizes[a], sizes[c]), data.dtype)
            block[pos[rows[sel]], pos[cols[sel]]] = data[sel]
            states = [self.order[self.bounds[b]:self.bounds[b + 1]] for b in (a, c)]
            out[np.ix_(*states)] = U[a].conj().T @ (block @ U[c])
        return out


def _unit_pair(u: int, d: int):
    """(i, j, w) of the unit w E_ij + conj(w) E_ji (E_ii for i = j) at
    position u of ``hermitian_unit_basis(d)``: E_ii, then for each pair
    i < j, E_ij + E_ji (w = 1) and i(E_ij - E_ji) (w = i)."""
    if u < d:
        return u, u, 1
    i, j = [(i, j) for i in range(d) for j in range(i + 1, d)][(u - d) // 2]
    return i, j, 1j if (u - d) % 2 else 1


def _unit_elements(dyn: HeisenbergDynamics, space: SpinSpace, x: int, i: int, j: int):
    """(targets, sources) of the site unit E_ij at site x: each state s whose
    site-x digit is j goes to s + (i - j) stride_x."""
    d, stride = space.site_dims[x], space.strides[x]
    s = np.flatnonzero(np.arange(dyn.dim) // stride % d == j)
    return s + (i - j) * stride, s


def _repeated_units(dyn: HeisenbergDynamics, space: SpinSpace, x: int, b_pairs,
                    b_sign=0) -> set:
    """The positions, in ``hermitian_unit_basis`` order, of the units at
    site x that ``commutator_grid`` skips by its two identities: each unit
    whose traceless part is plus or minus that of an earlier unit, or, where
    the flip commutes with H and F B F = ``b_sign`` B (nonzero), plus or
    minus its site-flip image; and i(E_ij - E_ji) for each pair i < j whose
    block walk, over the block pairs (r, c) of E_ij with weight 1, from the
    block labels alone (``_pattern``), and the block pairs ``b_pairs`` of B
    with weight 0, is consistent mod 4."""
    d = space.site_dims[x]
    units = [_traceless(m) for m in hermitian_unit_basis(d)]
    flips = (False, True) if b_sign and dyn.mirror is not None else (False,)
    out = {u for u, m in enumerate(units)
           if any(np.array_equal(m[::-1, ::-1] if f else m, s * units[v])
                  for f in flips for v in range(u) for s in (1, -1))}
    n, b_edges = len(dyn.blocks), [(a, c, 0) for a, c in b_pairs]
    for k, (i, j) in enumerate((i, j) for i in range(d) for j in range(i + 1, d)):
        pairs = np.unique(dyn._pattern(*_unit_elements(dyn, space, x, i, j))).tolist()
        walk = _block_components([(*divmod(p, n), 1) for p in pairs] + b_edges, 4)
        if all(theta is not None for _, theta in walk):
            out.add(d + 2 * k + 1)        # the antisymmetric unit of the pair
    return out


def commutator_grid(dyn: HeisenbergDynamics, B, space: SpinSpace, xs, ts) -> np.ndarray:
    """Certified lower estimates of C_B(x,t) for every x in ``xs`` (rows) and
    t in ``ts`` (columns): the max of ||[tau_t(A), B]|| over the
    unit-operator-norm Hermitian basis of the site-x matrix algebra.

    B must be Hermitian.  The work happens in the eigenbasis of H, block by
    invariant block of H (``HeisenbergDynamics``): there tau_t(A) is the
    phase conjugation conj(p) * A * p with p = e^(-itE), which keeps the
    block pattern of A.  With X = tau_t(A) B, K = i[tau_t(A), B] = i(X - X^H)
    is Hermitian, and its blocks can be nonzero only where the block patterns
    PA of A and PB of B allow: on PA.PB and its transpose PB.PA.  Only the
    blocks of X on PA.PB are formed, each from the block products that enter
    it.  ||K|| is the max over the connected components of that pattern: the
    largest |eigenvalue| of the component, or, where the component is
    2-coloured R | S with no diagonal block, the largest singular value of its
    off-diagonal part K_RS.  The norm is unitarily invariant, so nothing is
    rotated back.  One kernel, ``HeisenbergDynamics._rotated``, moves B from
    its nonzero entries and each local A from its elements, never embedded
    (``HeisenbergDynamics.unit_blocks``), into the eigenbasis, and each unit
    takes one pass: its blocks, its components, their norms.
    tau_t(A), X and K are (T, n, m) stacks over all T time steps; each block
    of X is formed when it is added into its component's K.  The phases of
    all T steps, and then the size of each unit's largest K, are counted
    against the physical memory before they are formed.

    A unit whose norm equals, at every t, that of a unit solved before is
    skipped (``_repeated_units``), and never rotated.  (a) The traceless
    part A_0 = A - (tr A / d) 1 has the commutators of A, so a unit with
    A_0 = +-(that of an earlier unit) is skipped (E_11 after E_00 on a site
    of dimension 2), for any H and B.  Where the global flip F (every site
    digit i -> d - 1 - i) commutes with H (``HeisenbergDynamics.mirror``)
    and F B F = e_B B with e_B = +1 or -1, F [tau_t(A), B] F =
    e_B [tau_t(F A F), B], so the site-flip image of A_0 counts too (E_22
    after E_00 on a spin-1 site).  (b) For a pair i < j, let theta be a
    whole number on each invariant block of H with theta_r - theta_c = 1
    (mod 4) on every block pair (r, c) of E_ij and theta_a = theta_c (mod 4)
    on every block pair (a, c) of B.  Then W = (+) i^theta_a 1_a is a scalar
    on each block of H, so it commutes with H; it commutes with B; and
    W E_ij W^* = i E_ij, so W maps E_ij + E_ji to i(E_ij - E_ji), whose norm
    is then that of the symmetric unit.  The theta come from one walk over
    the blocks of both patterns; they exist on the magnetization sectors
    when B keeps the magnetization, and not when H is one block (a
    transverse field) or B moves the magnetization (sigma^1), where both
    units are solved.

    With such an F, a unit A with F A_0 F = e_A A_0 gives F K F = eps K,
    eps = e_A e_B.  X is then formed from A_0, and F maps each component of
    the pattern onto a component of equal norm: of a component and its
    mirror image only the first is solved, and a component that is its own
    image is solved by its parity halves, from only the blocks of X that
    are not the mirror image of another (``_component_plans``).  Where
    eps = 0 (H breaks the flip, B or A_0 has no flip sign) every component
    is solved whole, by the same kernel (``_component_norm``).
    """
    Bs = sp.csr_matrix(B.matrix if isinstance(B, SparseOperator) else B)
    if abs(Bs - Bs.conj().T).max() > 1e-10 * max(1.0, abs(Bs).max()):
        raise ValueError("B must be Hermitian")
    coo = Bs.tocoo()
    nonzero = coo.data != 0
    w = coo.data[nonzero]
    Bd = dyn._rotated(coo.row[nonzero], coo.col[nonzero], w if np.any(w.imag) else w.real)
    b_row = {}
    for a, c in Bd:
        b_row.setdefault(a, []).append(c)
    sizes = np.diff(dyn.bounds).tolist()
    mirror = None if dyn.mirror is None else dyn.mirror.tolist()
    b_sign = 0
    if mirror is not None and all((mirror[a], mirror[c]) in Bd for a, c in Bd):
        b_sign = _flip_sign(Bs)
        plus = [int(np.count_nonzero(dyn.parity[dyn.bounds[a]:dyn.bounds[a + 1]] > 0))
                for a in range(len(sizes))]
    steps = len(ts)
    require_memory(16 * steps * dyn.dim,
                   f"the phase stack of {steps} time steps on {dyn.dim} states")
    phases = np.split(np.fromiter(map(dyn.phases, ts), np.dtype((complex, dyn.dim)), steps),
                      dyn.bounds[1:-1], axis=1)

    out = np.zeros((len(xs), steps))
    for i, x in enumerate(xs):
        d = space.site_dims[x]
        repeated = _repeated_units(dyn, space, x, Bd, b_sign)
        units = [u for u in range(d * d) if u not in repeated]
        local = hermitian_unit_basis(d)
        for u, Ad in zip(units, dyn.unit_blocks(space, x, units)):
            eps = b_sign * _flip_sign(_traceless(local[u])) if b_sign else 0
            if eps and u < d:                 # E_uu: the traceless part
                for a in range(len(sizes)):
                    Ad[a, a] = Ad.get((a, a), 0.0) - np.eye(sizes[a]) / d
            terms = {}                # (a, c) -> the b with A[a, b] B[b, c] in X[a, c]
            for a, b in Ad:
                for c in b_row.get(b, ()):
                    terms.setdefault((a, c), []).append(b)
            comps = _component_plans(list(terms), sizes, (mirror, plus, eps) if eps else None)
            # K and the temporaries of one block of X, four arrays the size
            # of the largest component's stacks (at L = 10 and 21 steps 336
            # MiB for a whole 512 x 512 component, where ru_maxrss grew by
            # 149 MiB), next to the phases
            entries = max(sum(r * c for *_, (r, c) in stacks) for _, (*_, stacks) in comps)
            require_memory(16 * steps * (dyn.dim + 4 * entries),
                           f"the light-cone stack of {steps} time steps at site {x}")

            def X(a, c):
                """Block (a, c) of X = tau_t(A) B at every t, formed when asked
                for: conj(p_a) times the sum over b of A[a, b] p_b B[b, c].
                Where A[a, b] and B[b, c] are real, the real and imaginary
                parts of p_b enter two stacked real products.  Every complex
                product is taken one time step at a time: its rounding can
                depend on the shape of the stack, and no point of the grid may
                depend on the other times asked for."""
                block = np.zeros((steps, sizes[a], sizes[c]), dtype=complex)
                for b in terms[a, c]:
                    ab, bc = Ad[a, b], Bd[b, c]
                    if np.iscomplexobj(ab) or np.iscomplexobj(bc):
                        for step, pb in zip(block, phases[b]):
                            step += (ab * pb) @ bc
                    else:
                        pb = phases[b][:, None, :]
                        block.real += (ab * pb.real) @ bc
                        block.imag += (ab * pb.imag) @ bc
                for step, pa in zip(block, phases[a]):
                    step *= pa.conj()[:, None]
                return block

            for keys, plan in comps:
                np.maximum(out[i], _component_norm(plan, keys, X, steps), out=out[i])
    return out


def commutator_growth(dyn: HeisenbergDynamics, B, x: int, t: float,
                      space: SpinSpace) -> float:
    """C_B(x,t) at one grid point: ``commutator_grid`` on [x] x [t]."""
    return float(commutator_grid(dyn, B, space, [x], [t])[0, 0])


def _lr_growth(lam: float, phi_norm: float, t: float) -> float:
    """e^(2|t| ||Phi||), or inf where it overflows a float; the decay rate
    lambda of the bound that grows with it must be positive."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    try:
        return math.exp(2.0 * abs(t) * phi_norm)
    except OverflowError:
        return math.inf


def lr_bound_rhs(g: SpinGraph, lam: float, phi_norm: float, x: int,
                 support, b_norm: float, t: float) -> float:
    """Right-hand side of the commutator bound:
    e^(2|t| ||Phi||) C_B(x,0) + sum_{y != x} e^(-lam d(x,y)) (e^(2|t| ||Phi||) - 1) C_B(y,0),
    with C_B(y,0) = 2 ||B|| on the support of B and 0 off it.

    Once e^(2|t| ||Phi||) overflows a float the bound is vacuous: inf.
    """
    support, c0 = set(support), 2.0 * b_norm
    grow = _lr_growth(lam, phi_norm, t)
    if grow == math.inf:
        return math.inf
    dist = distances_from(g, x)
    total = grow * c0 if x in support else 0.0
    for y in support:
        if y != x:
            total += math.exp(-lam * dist[y]) * (grow - 1.0) * c0
    return total


def lr_corollary_bound(g: SpinGraph, lam: float, phi_norm: float, x: int,
                       support, a_norm: float, b_norm: float, t: float) -> float:
    """2 |Y| ||A|| ||B|| (e^(2|t| ||Phi||) - 1) e^(-lam d(x,Y)), for x outside Y;
    inf once e^(2|t| ||Phi||) overflows a float."""
    grow = _lr_growth(lam, phi_norm, t)
    support = set(support)
    if x in support:
        raise ValueError("the corollary form requires x outside the support of B")
    d = set_distance(g, x, support)
    if grow == math.inf:
        return math.inf
    return (2.0 * len(support) * a_norm * b_norm
            * (grow - 1.0) * math.exp(-lam * d))


@dataclass(frozen=True)
class ClusteringRates:
    gamma: float
    lam: float
    phi_norm: float

    def __post_init__(self):
        if not (self.gamma > 0 and self.lam > 0 and self.phi_norm > 0):
            raise ValueError("gamma, lambda and the interaction norm must be positive")

    @property
    def mu(self) -> float:
        return self.gamma * self.lam / (4.0 * self.phi_norm + self.gamma)

    def b_max(self, distance) -> float:
        """Validity ceiling of the decay bound: 0 <= gamma b <= 2 mu d."""
        return 2.0 * self.mu * distance / self.gamma

    def envelope(self, distance, b) -> float:
        """e^(-mu d (1 + gamma^2 b^2 / (4 mu^2 d^2))) without the constant, as
        e^(-mu d - gamma^2 b^2 / (4 mu d)): no mu^2, which underflows."""
        mu = self.mu
        return math.exp(-mu * distance - self.gamma ** 2 * b ** 2 / (4.0 * mu * distance))


def ground_correlation(H, A, B, b: float) -> complex:
    """<Omega, A tau_{ib}(B) Omega> with B centered (its ground expectation
    subtracted), by full dense eigendecomposition; the ground state must be
    unique (no second level within DEGENERACY_TOL).  The dense reference
    for ``SectorCorrelator``, kept for the tests; no campaign calls it."""
    if b < 0:
        raise ValueError("imaginary time b must be nonnegative")
    rep = full_spectrum(H, want_vectors=True)
    ev = rep.eigenvalues
    degeneracy = spectral_gap(rep).ground_degeneracy
    if degeneracy != 1:
        raise ValueError(f"ground state is {degeneracy}-fold degenerate; "
                         "correlations need a unique ground state")
    omega = rep.eigenvectors[:, 0]
    Aa = A.toarray() if isinstance(A, SparseOperator) else np.asarray(A)
    Bb = B.toarray() if isinstance(B, SparseOperator) else np.asarray(B)
    b_mean = np.vdot(omega, Bb @ omega)
    w = Bb @ omega - b_mean * omega
    weights = np.exp(-b * (ev - ev[0]))
    coeffs = rep.eigenvectors.conj().T @ w
    evolved = rep.eigenvectors @ (weights * coeffs)
    return complex(np.vdot(Aa.conj().T @ omega, evolved))


class SectorCorrelator:
    """Imaginary-time ground correlations inside one magnetization sector,
    with an ARPACK ground state (``extremal_eigs``) and Lanczos propagation
    (``propagate``), for sectors too large to diagonalise densely.

    ``h_block`` is the sparse block of H on the sector; it is only ever
    multiplied into vectors, so H - E0 is applied as h v - E0 v and never
    formed.  ``lowest`` is an existing solve of the same block: a
    SpectrumReport whose first two levels are its two lowest.  Its ground
    vector, the first column of its eigenvectors, is used as it is; without
    it, or when the report kept no eigenvectors, the block is solved here.
    The two lowest levels must lie more than DEGENERACY_TOL apart."""

    def __init__(self, h_block, lowest=None):
        self.h = sp.csr_matrix(h_block)
        rep = lowest
        if rep is None or rep.eigenvectors is None:
            rep = extremal_eigs(self.h, k=2)
        if rep.eigenvalues[1] - rep.eigenvalues[0] <= DEGENERACY_TOL:
            raise ValueError("ground state degenerate within its sector")
        self.e0 = float(rep.eigenvalues[0])
        self.omega = rep.eigenvectors[:, 0]

    def propagate(self, w, b) -> np.ndarray:
        """e^(-b (H - E0)) w for each b of the sequence ``b``, one row per b,
        in the order given.  Every b must be nonnegative.

        One Lanczos recursion from w on H - E0, with full reorthogonalisation
        (Saad, SIAM J. Numer. Anal. 29, 209 (1992)), serves every b: with the
        tridiagonal T_m = U diag(lam) U^T of the orthonormal Krylov basis V_m,
        e^(-b (H - E0)) w is ||w|| V_m U e^(-b lam) U^T e_1.  Every
        LANCZOS_CHECK_EVERY steps the a posteriori estimate
        beta_m ||w|| |e_m^T U e^(-b lam) U^T e_1| (Hochbruck & Lubich, SIAM J.
        Numer. Anal. 34, 1911 (1997)) is taken for every b, and the recursion
        stops once all are below PROPAGATION_TOL max(1, ||w||), at an
        invariant subspace (beta_m = 0), or when the basis spans the sector.
        Running past LANCZOS_MAX_STEPS raises ``ConvergenceError``; the basis
        of that many vectors, the rows returned and a step's temporaries are
        counted against the physical memory before any is allocated.  No
        random numbers are drawn."""
        # imported here: scipy.linalg loads scipy's own BLAS library, which
        # the campaigns without sector dynamics never load
        from scipy.linalg import eigh_tridiagonal

        bs = np.array(b, dtype=float)
        if not np.all(bs >= 0):
            raise ValueError("imaginary time b must be nonnegative")
        w = np.asarray(w)
        dim = w.size
        dtype = np.result_type(self.h.dtype, w.dtype, np.float64)
        norm = float(np.linalg.norm(w))
        if norm == 0:
            return np.zeros((bs.size, dim), dtype)
        # the basis, the rows returned and four vectors of a step's products
        require_memory((LANCZOS_MAX_STEPS + bs.size + 4) * dim * np.dtype(dtype).itemsize,
                       f"the Lanczos basis of {LANCZOS_MAX_STEPS} vectors, {bs.size} rows and "
                       f"4 temporaries of {dim} states")
        steps = min(LANCZOS_MAX_STEPS, dim)
        V = np.empty((steps, dim), dtype)
        V[0] = w / norm
        alpha, beta = np.empty(steps), np.empty(steps)
        for j in range(steps):
            u = self.h @ V[j] - self.e0 * V[j]
            alpha[j] = np.vdot(V[j], u).real
            u -= alpha[j] * V[j]
            if j:
                u -= beta[j - 1] * V[j - 1]
            u -= (V[:j + 1] @ u.conj()).conj() @ V[:j + 1]
            beta[j] = np.linalg.norm(u)
            m = j + 1
            if m % LANCZOS_CHECK_EVERY == 0 or not beta[j] or m == steps:
                lam, U = eigh_tridiagonal(alpha[:m], beta[:m - 1])
                coeffs = U @ (np.exp(-np.outer(lam, bs)) * U[0][:, None])
                err = beta[j] * norm * np.abs(coeffs[-1]).max()
                if err <= PROPAGATION_TOL * max(1.0, norm) or m == dim:
                    break
                if m == steps:
                    raise ConvergenceError(
                        f"Lanczos propagation of {dim} states did not converge in "
                        f"{steps} steps", err)
            V[m] = u / beta[j]
        return (norm * coeffs.T) @ V[:m]

    def correlations(self, a_block, b_blocks, b) -> np.ndarray:
        """<Omega, A e^(-b(H-E0)) B_c Omega>, B centred in the ground state, one
        row per B of ``b_blocks`` and one column per b of ``b``, from one
        ``propagate`` call: e^(-b(H-E0)) is Hermitian and fixes Omega, so it is
        sum_i conj(v_i) w_i with v = e^(-b(H-E0)) (A* Omega - <Omega, A* Omega>
        Omega) and w = B_c Omega, which is orthogonal to Omega."""
        omega = self.omega
        a = np.conj(a_block).T @ omega
        w = np.array([blk @ omega for blk in b_blocks])
        w -= np.outer(w @ omega.conj(), omega)
        return (self.propagate(a - np.vdot(omega, a) * omega, b) @ w.conj().T).conj().T


@dataclass
class ClusteringRow:
    x: int
    y: int
    distance: int
    b: float
    corr_abs: float
    bound: Optional[float]
    in_window: bool


@dataclass
class ClusteringReport:
    gamma: float
    ground_energy: float
    ground_degeneracy: int
    rates: ClusteringRates
    c_constant: float
    rows: list
    checked_rows: int              # in-window rows beyond the fitted distance
    bound_holds: bool              # checked_rows > 0 and none exceeds its bound
    large_b: list = field(default_factory=list)   # (y, b, corr_abs, trivial_bound)


def clustering_report(g: SpinGraph, phi: Interaction, local_op, lam: float,
                      threads=1) -> ClusteringReport:
    """Tabulate |<Omega, A tau_{ib}(B) Omega>| for single-site observables
    against the decay bound, for vertex 0 and one vertex at each distance
    from it: the constant is fitted at the smallest distance and the bound
    asserted at every larger one inside the validity window.  With no such
    row (every vertex at the fitted distance) the bound does not hold.

    ``local_op`` is the single-site matrix used at both ends (centered in the
    ground state before evaluation).

    The gap and the ground sector come from ``sector_sweep_lowest``, whose
    reports carry the block each sector was solved from: the correlator
    propagates on the ground sector's block, so no sector is assembled
    twice.  For a model whose terms commute with the total spin the report
    also holds the eigenvectors of the sector M = 0 (or 1/2), which the
    correlator reuses; otherwise the sweep kept values only and the
    correlator solves the block again for its ground vector.  The
    observable blocks are embedded on the ground sector directly.  All pairs
    share A at vertex 0 and one ``SectorCorrelator.correlations`` call, at the
    union of their CLUSTERING_WINDOW_STEPS + 1 equally spaced b (written in the
    rows) and CLUSTERING_LARGE_B (the trivial large-b check); each reads its b.
    """
    space = SpinSpace.from_graph(g)
    merged, per_sector = sector_sweep_lowest(phi, space, k=2, threads=threads)
    gap_rep = spectral_gap(merged)
    if gap_rep.ground_degeneracy != 1:
        raise ValueError(f"ground state is {gap_rep.ground_degeneracy}-fold degenerate")
    gamma = gap_rep.gap
    ground_label = min(per_sector,
                       key=lambda lab: per_sector[lab].eigenvalues[0])
    sector = magnetization_sector(space, ground_label[1])
    ground = per_sector[ground_label]
    corr = SectorCorrelator(ground.block, lowest=ground)

    phi_norm = lambda_norm(phi, lam, g)
    rates = ClusteringRates(gamma, lam, phi_norm)

    dist = distances_from(g, 0)
    by_d = {}                       # distance -> the first vertex at it
    for y in g.vertices:
        if y != 0 and not math.isinf(dist[y]):
            by_d.setdefault(int(dist[y]), y)
    blocks = {site: embed_at(sector, [(site, local_op)]).matrix
              for site in {0, *by_d.values()}}

    # trivial large-b bound ||A|| ||B|| e^(-gamma b)
    op_norm = float(np.linalg.norm(np.asarray(local_op, dtype=complex), 2))
    large_bs = list(CLUSTERING_LARGE_B)
    # every pair (0, y) has A at vertex 0: one propagation serves them all
    windows = {d: [rates.b_max(d) * k / CLUSTERING_WINDOW_STEPS
                   for k in range(CLUSTERING_WINDOW_STEPS + 1)] for d in sorted(by_d)}
    union = sorted(set(large_bs).union(*windows.values()))
    out = np.abs(corr.correlations(blocks[0], [blocks[by_d[d]] for d in windows],
                                   union)).tolist()
    rows, large_rows = [], []
    per_distance = {}
    for (d, bs), row in zip(windows.items(), out):
        y, val = by_d[d], dict(zip(union, row))
        per_distance[d] = [ClusteringRow(0, y, d, b, val[b], None, b <= rates.b_max(d) + 1e-15)
                           for b in bs]
        rows.extend(per_distance[d])
        large_rows.extend((y, b, val[b], op_norm * op_norm * math.exp(-gamma * b))
                          for b in large_bs)

    d_ref = min(per_distance)
    c_constant = max(r.corr_abs / rates.envelope(r.distance, r.b)
                     for r in per_distance[d_ref] if r.in_window)
    for r in rows:
        r.bound = c_constant * rates.envelope(r.distance, r.b)
    checked = [r for r in rows if r.distance > d_ref and r.in_window]
    bound_holds = bool(checked) and all(r.corr_abs <= r.bound + 1e-12 for r in checked)

    return ClusteringReport(gamma=gamma, ground_energy=gap_rep.ground_energy,
                            ground_degeneracy=gap_rep.ground_degeneracy,
                            rates=rates, c_constant=c_constant, rows=rows,
                            checked_rows=len(checked), bound_holds=bound_holds,
                            large_b=large_rows)
