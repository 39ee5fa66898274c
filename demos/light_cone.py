"""Commutator light cone on a spin-1/2 chain.

||[tau_t(A), B]|| is measured for single-site observables A at every site
against the interaction-norm bound: inside the cone the commutator is O(1),
outside it is suppressed by e^(-lambda d) with a growth factor e^(2|t| |Phi|).
At t = 0 the commutator vanishes identically away from the support of B.
"""

import numpy as np

from spinsys import (HeisenbergDynamics, SpinSpace, assemble, commutator_grid,
                     embed_at, heisenberg, lambda_norm, lr_bound_rhs,
                     path_graph, spin_matrices)

L = 8
g = path_graph(L)
space = SpinSpace.from_graph(g)
phi = heisenberg(g)
H = assemble(phi, space)

lam = 1.0
phi_norm = lambda_norm(phi, lam, g)
print(f"|Phi|_lambda at lambda=1: {phi_norm:.6f}  (48e = {48 * np.e:.6f})")

bsite = L // 2
sigma3 = 2.0 * np.asarray(spin_matrices(0.5).s3)
B = embed_at(space, [(bsite, sigma3)])
dyn = HeisenbergDynamics(H)

# one call for the whole table: B is rotated into the eigenbasis of H once,
# block by magnetization block; each local unit A is gathered there from
# eigenvector rows, without embedding it; and all times are taken at once, a
# phase conjugation and one stacked eigvalsh or SVD per connected component
# of the block pattern of the commutator
ts = (0.2, 0.5, 1.0)
grid = commutator_grid(dyn, B, space, range(L), ts)

print(f"B = sigma^3 at site {bsite}; rows are sites, columns t = 0.2, 0.5, 1.0")
for x in range(L):
    cells = []
    for t, m in zip(ts, grid[x]):
        bd = lr_bound_rhs(g, lam, phi_norm, x, {bsite}, 1.0, t)
        cells.append(f"{m:9.5f} <= {min(bd, 2.0):7.3f}")
    print(f"  x={x}: " + "   ".join(cells))

# the trivial bound 2||A|| ||B|| = 2 caps everything; the printed bound is
# clipped there so the table stays readable
