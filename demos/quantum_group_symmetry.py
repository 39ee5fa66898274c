"""Quantum-group symmetry of the anisotropic chain with boundary field.

The open chain with the compensating boundary field commutes with a
deformed SU(2): twisted raising/lowering totals whose q-Casimir takes the
value (q^-(2S+1) + q^(2S+1)) / (1/q - q)^2 on a deformed spin-S multiplet.
The Casimir is what lets a sector eigenstate be assigned a definite S even
though plain total spin is not conserved at Delta > 1.
"""

import numpy as np

from spinsys import (SpinSpace, XxzParams, assemble, magnetization_sector,
                     open_chain_spin_level, restrict, sector_casimir,
                     suq2_generators, xxz)

p = XxzParams.from_q(6, 0.5)
space = SpinSpace((2,) * p.L)
H = assemble(xxz(p), space)
ops = suq2_generators(p)

h = H.toarray()
for name, op in (("S+", ops.plus), ("S-", ops.minus)):
    m = op(space, space).toarray()      # the ladder's block from the space to itself
    comm = h @ m - m @ h
    print(f"|[H, {name}]| = {np.abs(comm).max():.2e}")

# The q-Casimir is never formed on the full space: on the sector M it is
# the dense block S+ S- + (q^(2M-1) + q^(1-2M)) / (1/q - q)^2, and its
# eigenvalues there are the formula at every S >= |M|.
print("\nq-Casimir per magnetization sector vs formula (L = 6, q = 0.5)")
for M in space.magnetization_values():
    twice_m = int(round(2 * M))
    c = sector_casimir(ops, space, twice_m)
    h_m = restrict(H, magnetization_sector(space, M))
    ev = np.unique(np.round(np.linalg.eigvals(c).real, 8))
    expect = [round(ops.casimir_value(t), 8) for t in range(abs(twice_m), p.L + 1, 2)]
    print(f"  M = {M:+.0f}: |[H_M, C_M]| = {np.abs(h_m @ c - c @ h_m).max():.2e}")
    print("    computed:", ev)
    print("    formula: ", np.array(expect))

# the label in action: lowest level with deformed spin S_max - n
for n in (1, 2):
    e = open_chain_spin_level(p, n)
    print(f"E(H, S_max - {n}) on the open chain: {e:.8f}")
