"""Droplet states of the anisotropic ferromagnetic chain.

With n down spins on the periodic chain the lowest levels form a band of
bound droplets.  Finite chains are compared against the closed-form limit
of the droplet energy, and the band is read off momentum sector by momentum
sector, because at larger L it interleaves with two-magnon scattering
levels and naive level counting mislabels it.  The lowest level of each
momentum block approaches the bound-state dispersion E_n(k), whose k = 0
value is the droplet energy E(n).
"""

import numpy as np

from spinsys import XxzParams, bound_state_dispersion, convergence_table, momentum_band

q = 0.5

for n in (1, 2):
    table = convergence_table(q, n, range(2 * n + 4, 15, 2))
    print(f"n = {n} droplet, q = {q}, formula E(n) = {table.formula_energy:.6f}")
    print("  L   periodic      open(SU_q)    |dev periodic|  max_k |E_L(k) - E_n(k)|")
    for r in table.rows:
        print(f"  {r.L:2d}  {r.e_periodic:.8f}  {r.e_open_suq:.8f}  "
              f"{r.dev_periodic:.2e}        {r.band_dev:.2e}")
# at n = 1 the dispersion is the one-magnon band J (1 - cos k / Delta)
print("E_1(0) =", bound_state_dispersion(q, 1, 0.0), " (equals J(1 - 1/Delta))")

L = 14
k = 2 * np.pi * np.arange(L) / L
for q in (0.3, 0.5):
    print(f"\nn = 2 band at L = {L}, q = {q}: per-k deviation from E_2(k)")
    band = momentum_band(XxzParams.from_q(L, q, boundary="periodic"), 2)
    dev = band - bound_state_dispersion(q, 2, k)
    for j in range(L // 2 + 1):
        print(f"  k = 2 pi {j:2d}/{L}  E_L(k) = {band[j]:.6f}  deviation {dev[j]:+.2e}")
