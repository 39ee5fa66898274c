"""The block pattern of a light-cone commutator K = i(X - X^H) in the
eigenbasis of H (``dynamics.commutator_grid``): its connected components
over the invariant blocks of H (``_block_components``), the rows of the
unit each component reads (``_rows_read``), and the norm of a component
solved whole (``_component_norm``).  ``flip`` solves a component that the
global spin flip maps onto itself by its parity halves instead.
"""

from __future__ import annotations

import numpy as np


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


def _slices(blocks, sizes):
    """The slice each of ``blocks`` takes in their concatenation, and its length."""
    out, n = {}, 0
    for a in blocks:
        out[a] = slice(n, n + sizes[a])
        n += sizes[a]
    return out, n


def _adjoint(m):
    """The conjugate transpose of every matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _component_size(blocks, colour, sizes) -> int:
    """The number of entries of the matrix whose norm ``_component_norm``
    takes on one component: n x n, or nR x nS for a 2-coloured R | S."""
    n = sum(sizes[a] for a in blocks)
    if colour is None:
        return n * n
    nr = sum(sizes[a] for a in blocks if colour[a] == 0)
    return nr * (n - nr)


def _component_norm(blocks, colour, keys, X, sizes, steps) -> np.ndarray:
    """||K_t|| for K_t = i(X_t - X_t^H) at each of the ``steps`` time steps t,
    on one component of the block pattern, from the (steps, n_a, n_c) stacks
    X(a, c) of its ``keys``, each formed only when it is added in; one
    stacked ``eigvalsh`` or SVD call takes every t.  A 2-coloured component
    R | S is [[0, K_RS], [K_RS^H, 0]], whose norm is the largest singular
    value of K_RS = i(X_RS - X_SR^H).  Any other, a one-block component
    among them, is the largest |eigvalsh| of the assembled component."""
    if colour is None:
        at, n = _slices(blocks, sizes)
        K = np.zeros((steps, n, n), dtype=complex)
        for a, c in keys:
            m = X(a, c)
            K[:, at[a], at[c]] += m
            K[:, at[c], at[a]] -= _adjoint(m)
        K *= 1j
        return np.abs(np.linalg.eigvalsh(K)).max(axis=1)
    row, nr = _slices([a for a in blocks if colour[a] == 0], sizes)
    col, nc = _slices([a for a in blocks if colour[a] == 1], sizes)
    K = np.zeros((steps, nr, nc), dtype=complex)
    for a, c in keys:
        if a in row:
            K[:, row[a], col[c]] += X(a, c)
        else:
            K[:, row[c], col[a]] -= _adjoint(X(a, c))
    return np.linalg.svd(K, compute_uv=False)[:, 0]


def _rows_read(comps) -> set:
    """The row blocks of A whose blocks the components ``comps`` read: the
    rows of the blocks of X that they form."""
    return {a for *_, keys, _ in comps for a, _ in keys}
