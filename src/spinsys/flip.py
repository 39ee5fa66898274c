"""The global spin flip F: s -> dim - 1 - s, which reverses every site digit
(i -> d - 1 - i), and the parity halves it splits a solve into.

Every symmetry is checked on the matrices, never declared: ``_flip_sign``
reads F m F = +-m, and ``_flip_mirror`` the block that F maps each invariant
block of H onto.  A self-mirrored block is solved in the parity basis
(e_i + p e_(n-1-i)) / sqrt 2 (``_parity_eigh``), its columns of parity +1
first; ``_parity_plan`` and ``_parity_norm`` use that layout to take the norm
of a commutator K with F K F = +-K on a component of the light-cone grid
(``dynamics.commutator_grid``) from its parity halves.
"""

from __future__ import annotations

import math

import numpy as np

from .models import TERM_HERMITICITY_TOL


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


def _flip_mirror(mat, labels, order, bounds):
    """The block that the global flip F: s -> dim - 1 - s (every site digit
    i -> d - 1 - i) maps each invariant block of H onto, or None when F does
    not commute with H: H[::-1, ::-1] must equal H (``_flip_sign``), and F
    must map every block onto one block."""
    if _flip_sign(mat) != 1:
        return None
    rev = np.arange(mat.shape[0])[::-1]
    mirror = labels[rev[order[bounds[:-1]]]]
    return mirror if np.array_equal(labels[rev], mirror[labels]) else None


def _traceless(m) -> np.ndarray:
    """m - (tr m / d) 1, which has the commutators of m."""
    return m - np.trace(m) / len(m) * np.eye(len(m))


def _parity_eigh(h):
    """(eigenvalues, eigenvectors, parities) of a block h with
    h[::-1, ::-1] = h, from two half-size ``eigh`` calls in the basis
    (e_i + p e_(n-1-i)) / sqrt 2, i < n/2, of parity p = +1 and -1; a middle
    state of an odd block is in the + half.  The columns of parity +1 come
    first, and every column v has v[::-1] = p v exactly."""
    n = len(h)
    k = n // 2
    vals, vecs, parity = [], [], []
    for p in (1, -1):
        g = h + p * h[::-1] + p * h[:, ::-1] + h[::-1, ::-1]
        m = k + n % 2 if p > 0 else k
        w = np.full(m, math.sqrt(0.5))
        w[k:] = 0.5                                  # the middle state
        e, u = np.linalg.eigh(w[:, None] * g[:m, :m] * w)
        half = u[:k] * math.sqrt(0.5)
        v = np.zeros((n, m), u.dtype)
        v[:k], v[n - k:] = half, p * half[::-1]
        if p > 0:
            v[k:n - k] = u[k:]
        vals.append(e)
        vecs.append(v)
        parity.append(np.full(m, p))
    return np.concatenate(vals), np.hstack(vecs), np.concatenate(parity)


def _parity_plan(blocks, colour, mirror, plus, sizes, eps):
    """The parity stacks that ``_parity_norm`` forms on a component of the
    block pattern of K that the flip maps onto itself, where F K F = eps K:
    (colour, [(s, rows, cols, shape)]).  ``rows`` and ``cols`` place each
    representative block a <= mirror[a] in the half of parity s and s eps:
    a self-mirrored block takes its columns of that parity (``plus[a]`` of
    them are +1), a block paired with its mirror all of its columns.  The
    halves are K^(++) and K^(--) (eps = 1) or K^(+-) (eps = -1), or, for a
    2-coloured R | S that the flip keeps (it may swap R and S instead, and
    is then treated as uncoloured), K_RS^(s, s eps) for both s."""
    if colour is not None and colour[mirror[blocks[0]]] != colour[blocks[0]]:
        colour = None
    reps = [a for a in blocks if a <= mirror[a]]

    def layout(group, s):
        widths = [sizes[a] if mirror[a] != a else plus[a] if s > 0 else sizes[a] - plus[a]
                  for a in group]
        ends = np.cumsum([0] + widths).tolist()
        return {a: slice(ends[k], ends[k + 1]) for k, a in enumerate(group)}, ends[-1]

    row_group = reps if colour is None else [a for a in reps if colour[a] == 0]
    col_group = reps if colour is None else [a for a in reps if colour[a] == 1]
    stacks = []
    for s in ((1,) if colour is None and eps < 0 else (1, -1)):
        (rows, nr), (cols, nc) = layout(row_group, s), layout(col_group, s * eps)
        stacks.append((s, rows, cols, (nr, nc)))
    return colour, stacks


def _parity_norm(plan, keys, X, mirror, plus, sizes, eps, steps) -> np.ndarray:
    """||K_t|| at each time step on a component that the flip maps onto
    itself, from its parity stacks (``_parity_plan``).  F is the identity
    swap of V_a and V_mirror[a] = V_a[::-1] and the column parity on a
    self-mirrored block, so F X F = eps X gives X(mirror[a], mirror[c]) =
    eps S_a X(a, c) S_c (S the parity signs, or 1): only the blocks of
    ``keys`` with (a, c) <= (mirror[a], mirror[c]) are formed, and each
    counts twice where its mirror block is another.  In the parity basis
    (e_a + s e_mirror[a]) / sqrt 2 a block term Y at (p, q) enters the half
    s at the representatives of p and q, times 1/sqrt 2 (or s/sqrt 2 from the
    mirror side) on each paired side, and cut to the columns of parity s on
    a self-mirrored side.  The norm is the largest |eigvalsh| of K^(++) and
    K^(--), or the largest singular value of K^(+-) or of the two K_RS
    halves."""
    colour, stacks = plan
    K = [np.zeros((steps,) + shape, dtype=complex) for *_, shape in stacks]

    def part(a, s):
        """(representative, columns of parity s, factor) of block a."""
        if mirror[a] == a:
            return a, slice(0, plus[a]) if s > 0 else slice(plus[a], sizes[a]), 1.0
        return min(a, mirror[a]), slice(None), (1.0 if a < mirror[a] else s) * math.sqrt(0.5)

    for a, c in keys:
        m = X(a, c)
        twice = 1 if (mirror[a], mirror[c]) == (a, c) else 2
        terms = []
        if colour is None or colour[a] == 0:
            terms.append((a, c, m, 1j * twice))
        if colour is None or colour[c] == 0:
            terms.append((c, a, m.conj().swapaxes(-1, -2), -1j * twice))
        for (s, rows, cols, _), Ks in zip(stacks, K):
            for p, q, Y, w in terms:
                rp, rsel, rf = part(p, s)
                cp, csel, cf = part(q, s * eps)
                Ks[:, rows[rp], cols[cp]] += (w * rf * cf) * Y[:, rsel, csel]
    norm = np.zeros(steps)
    for Ks in K:
        if Ks.size == 0:
            continue
        if colour is None and eps > 0:
            half = np.abs(np.linalg.eigvalsh(Ks)).max(axis=1)
        else:
            half = np.linalg.svd(Ks, compute_uv=False)[:, 0]
        np.maximum(norm, half, out=norm)
    return norm
