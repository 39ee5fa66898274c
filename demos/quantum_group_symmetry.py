"""Quantum-group symmetry of the anisotropic chain with boundary field.

The open chain with the compensating boundary field commutes with the
twisted raising total S_q+ of a deformed SU(2), although plain total spin
is not conserved at Delta > 1.  S_q+ maps the sector M onto M + 1, and
maps the part of M outside its kernel one to one, so every level of the
sector M + 1 is also a level of M.  The levels of M without a partner above
are those of deformed spin S = M, with no Casimir needed.
"""

import numpy as np

from spinsys import (SpinSpace, XxzParams, assemble, classify_total_spin,
                     magnetization_sector, open_chain_spin_level, suq2_generators, xxz)

p = XxzParams.from_q(6, 0.5)
space = SpinSpace((2,) * p.L)
phi = xxz(p)
ops = suq2_generators(p)

h = assemble(phi, space).toarray()
s_plus = ops.plus(space, space).toarray()   # the ladder's block from the space to itself
print(f"|[H, S_q+]| = {np.abs(h @ s_plus - s_plus @ h).max():.2e}")

# On the sectors: H_(M+1) S_q+ = S_q+ H_M, and spec(M + 1) nests in spec(M);
# classify_total_spin checks both and keeps the levels left over as spin M.
levels = classify_total_spin(phi, ops, space)
print("\nnested sector spectra (L = 6, q = 0.5)")
for t in sorted(levels.sector_levels):
    lower, M = levels.sector_levels[t], t / 2
    print(f"  M = {M:.0f}: {lower.size:2d} levels, {levels.counts[t]:2d} of spin {M:.0f}, "
          f"lowest {levels.entries[t]:.8f}")
    if t + 2 in levels.sector_levels:
        below, above = (magnetization_sector(space, m) for m in (M, M + 1))
        up = ops.plus(below, above).toarray()
        h_below, h_above = (assemble(phi, s).toarray() for s in (below, above))
        upper = levels.sector_levels[t + 2]
        print(f"    |H S_q+ - S_q+ H| to M = {M + 1:.0f}: "
              f"{np.abs(h_above @ up - up @ h_below).max():.2e}; each of its "
              f"{upper.size} levels lies within "
              f"{max(np.abs(lower - e).min() for e in upper):.1e} of one here")

# the lowest level with deformed spin S_max - n, from the library
for n in (1, 2):
    e = open_chain_spin_level(p, n)
    print(f"E(H, S_max - {n}) on the open chain: {e:.8f}")
