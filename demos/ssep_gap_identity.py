"""Symmetric exclusion dynamics and its spin-chain double.

Two statements are probed numerically.  First, the generator of the
symmetric exclusion process with n particles has the same spectral gap as
the single-particle random walk (the interchange/Aldous identity; proved on
trees, data elsewhere).  Second, the generator on n-particle configurations
is, entry for entry, the n-down-spin sector block of the ferromagnetic
spin-1/2 Hamiltonian sum_xy r_xy (1 - swap_xy): a particle is a down spin,
both bases are the ascending bitmasks, and so the identity map of the bases
conjugates the two and their spectra agree.
"""

import numpy as np

from spinsys import build_graph, complete_graph, ring_graph, ssep_gaps, xxx_conjugacy_check

rng = np.random.default_rng(11)

print("paths with random rates")
for L in range(3, 7):
    edges = [(x, x + 1, float(rng.uniform(0.2, 2.0))) for x in range(L - 1)]
    rep = ssep_gaps(build_graph(L, edges))
    gaps = " ".join(f"{rep.gaps[n]:.6f}" for n in sorted(rep.gaps))
    print(f"  L={L}: lambda(n) = {gaps}   margin {rep.aldous_margin:.1e}")

print("\na random connected graph on 6 vertices")
edges = [(0, 1, 1.3), (1, 2, 0.4), (2, 3, 2.0), (3, 4, 0.9), (4, 5, 1.1),
         (0, 3, 0.6), (1, 4, 1.7)]
rep = ssep_gaps(build_graph(6, edges))
for n in sorted(rep.gaps):
    print(f"  n={n}  dim {rep.dims[n]:3d}  lambda {rep.gaps[n]:.8f}")
print("  margin:", rep.aldous_margin)

# unit rates on the complete graph K_6: lambda(n) = 6 for every n
rep = ssep_gaps(complete_graph(6))
print("\ncomplete graph K_6:", " ".join(f"{rep.gaps[n]:.10f}" for n in sorted(rep.gaps)))

print("\nconjugacy with the spin chain (ring of 5)")
conj = xxx_conjugacy_check(ring_graph(5))
print("  worst entrywise deviation |L - H_n| over all particle numbers:",
      conj.max_deviation)
