"""The global spin flip F: s -> dim - 1 - s, which reverses every site digit
(i -> d - 1 - i), and the components of a light-cone commutator
K = i(X - X^H) in the eigenbasis of H (``dynamics.commutator_grid``).

Every symmetry is checked on the matrices, never declared: ``_flip_sign``
(in ``models``) reads F m F = +-m, and ``_flip_mirror`` the block that F maps
each invariant block of H onto.  A self-mirrored block is solved in the
parity basis (e_i + p e_(n-1-i)) / sqrt 2 (``_parity_eigh``), its columns of
parity +1 first.  The block pattern of K splits into connected components
over the invariant blocks of H (``_block_components``); ``_component_plans``
picks the ones to solve, and one kernel takes the norm of each
(``_component_plan``, ``_component_norm``): from its parity halves where
F K F = +-K and F maps the component onto itself, and whole otherwise, as
the parity halves of the trivial flip.
"""

from __future__ import annotations

import math

import numpy as np

from .models import _flip_sign


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


def _block_components(edges, modulus=2):
    """Connected components of the graph on blocks with an edge a - c for
    every (a, c, w) in ``edges``.  Each is (blocks, theta): ``theta`` maps
    the blocks to 0, ..., modulus - 1 so that theta_a - theta_c = w (mod
    ``modulus``) on every edge, or is None when no such numbers exist.  With
    every w = 1 and modulus 2 it is a 2-colouring, None on an odd cycle or a
    loop a - a."""
    adj = {}
    for a, c, w in edges:
        adj.setdefault(a, set()).add((c, -w))
        adj.setdefault(c, set()).add((a, w))
    seen = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        theta = {start: 0}
        queue = [start]
        consistent = True
        for a in queue:
            for c, w in adj[a]:
                if c not in theta:
                    theta[c] = (theta[a] + w) % modulus
                    queue.append(c)
                elif (theta[c] - theta[a] - w) % modulus:
                    consistent = False
        seen.update(theta)
        comps.append((sorted(theta), theta if consistent else None))
    return comps


def _component_plans(keys, sizes, flip=None) -> list:
    """(keys, plan) of each component of the block pattern of K, over the
    blocks ``keys`` of X, that is solved.  With ``flip`` = (mirror, plus,
    eps), where F K F = eps K, of a component and its mirror image only the
    first is solved, and a component that is its own image by its parity
    halves, from only its blocks (a, c) <= (mirror[a], mirror[c]); every
    other component is solved whole."""
    mirror = None if flip is None else flip[0]
    comps, solved = [], set()
    for blocks, colour in _block_components([(a, c, 1) for a, c in keys]):
        own = [k for k in keys if k[0] in blocks]
        image = frozenset(blocks if mirror is None else (mirror[a] for a in blocks))
        if image in solved:                   # the mirror image of a solved one
            continue
        solved.add(frozenset(blocks))
        halved = mirror is not None and image == frozenset(blocks)
        if halved:
            own = [(a, c) for a, c in own if (a, c) <= (mirror[a], mirror[c])]
        comps.append((own, _component_plan(blocks, colour, sizes, flip if halved else None)))
    return comps


def _component_plan(blocks, colour, sizes, flip=None):
    """The stacks that ``_component_norm`` forms on one component of the
    block pattern of K: (colour, eps, mirror, [(rows, cols, shape)]).  With
    ``flip`` = (mirror, plus, eps), F maps the component onto itself and
    F K F = eps K: each stack is a parity half of K, K^(++) and K^(--)
    (eps = 1) or K^(+-) (eps = -1), or, for a 2-coloured R | S that the flip
    keeps (it may swap R and S instead, and is then treated as uncoloured),
    K_RS^(s, s eps) for both s.  Without, the component is solved whole, as
    the parity halves of the trivial flip (every block its own mirror, all
    ``sizes[a]`` columns of parity +1, eps = 1): one stack, K, or K_RS for a
    2-coloured R | S.  ``rows`` and ``cols`` map each block a of their side
    to (the slice of its representative min(a, mirror[a]) in the half, the
    columns of a that enter it, their factor): a self-mirrored block enters
    with its columns of the half's parity (``plus[a]`` of them are +1), a
    block paired with its mirror with all of them, times 1/sqrt 2, or
    s/sqrt 2 from the mirror side, in the parity basis
    (e_a + s e_mirror[a]) / sqrt 2.  Empty halves are left out."""
    mirror, plus, eps = flip or ({a: a for a in blocks}, sizes, 1)
    if colour is not None and colour[mirror[blocks[0]]] != colour[blocks[0]]:
        colour = None

    def layout(side, s):
        out, n = {}, 0
        for a in blocks:
            if a > mirror[a] or colour is not None and colour[a] != side:
                continue
            if mirror[a] == a:
                cut = slice(0, plus[a]) if s > 0 else slice(plus[a], sizes[a])
                out[a] = (slice(n, n + cut.stop - cut.start), cut, 1.0)
            else:
                out[a] = (slice(n, n + sizes[a]), slice(None), math.sqrt(0.5))
                out[mirror[a]] = (out[a][0], slice(None), s * math.sqrt(0.5))
            n = out[a][0].stop
        return out, n

    stacks = []
    for s in ((1,) if colour is None and eps < 0 else (1, -1)):
        (rows, nr), (cols, nc) = layout(0, s), layout(1, s * eps)
        if nr * nc:
            stacks.append((rows, cols, (nr, nc)))
    return colour, eps, mirror, stacks


def _component_norm(plan, keys, X, steps) -> np.ndarray:
    """||K_t|| for K_t = i(X_t - X_t^H) at each of the ``steps`` time steps t
    on one component, from the stacks of its plan (``_component_plan``) and
    the (steps, n_a, n_c) stacks X(a, c) of its ``keys``, each formed only
    when it is added in.  Where F X F = eps X, X(mirror[a], mirror[c]) =
    eps S_a X(a, c) S_c (S the parity signs, or 1): a key whose mirror block
    is another counts twice.  A key's term Y = X(a, c) enters every stack at
    its rows and columns, and so does -Y^H at the transposed place, each on
    its side of a 2-coloured R | S only.  The norm is the largest |eigvalsh|
    of each Hermitian stack (uncoloured, eps = 1), one stacked call over
    every t, or else the largest singular value, K_RS being the
    off-diagonal part of [[0, K_RS], [K_RS^H, 0]], from one Gram solve per
    t (``_top_singular``)."""
    colour, eps, mirror, stacks = plan
    K = [np.zeros((steps,) + shape, dtype=complex) for *_, shape in stacks]
    for a, c in keys:
        m = X(a, c)
        twice = 1 if (mirror[a], mirror[c]) == (a, c) else 2
        terms = []
        if colour is None or colour[a] == 0:
            terms.append((a, c, m, 1j * twice))
        if colour is None or colour[c] == 0:
            terms.append((c, a, m.conj().swapaxes(-1, -2), -1j * twice))
        for (rows, cols, _), Ks in zip(stacks, K):
            for p, q, Y, w in terms:
                (rp, rsel, rf), (cp, csel, cf) = rows[p], cols[q]
                Ks[:, rp, cp] += (w * rf * cf) * Y[:, rsel, csel]
    norm = np.zeros(steps)
    for Ks in K:
        if colour is None and eps > 0:
            half = np.abs(np.linalg.eigvalsh(Ks)).max(axis=1)
        else:
            half = np.array([_top_singular(k) for k in Ks])
        np.maximum(norm, half, out=norm)
    return norm


def _top_singular(k) -> float:
    """The largest singular value of the matrix k, as s sqrt(lambda_max(g))
    with s = max |k_ij| and g the Gram matrix of k / s on its smaller side:
    an n x n ``eigvalsh`` in place of the SVD.  lambda_max(g) >= 1 is
    accurate to rounding relative to itself, and the scaling keeps the
    squares of entries of 1e-200 or 1e170 finite and nonzero."""
    s = float(np.abs(k).max())
    if s == 0:
        return 0.0
    k = k / s
    g = k @ k.conj().T if k.shape[0] <= k.shape[1] else k.conj().T @ k
    return s * math.sqrt(np.linalg.eigvalsh(g)[-1])
