"""Ferromagnetic ordering of energy levels on a short spin-1 chain.

E(H, S) denotes the lowest energy among total-spin-S states.  For the
ferromagnetic chain the claim is strict decrease of E(H, S) in S, so the
ground state is maximally polarized and the gap is E(H, S_max - 1) - E(H, S_max).
The spin-S levels are those of the sector M = S that the sector M = S + 1
lacks: H commutes with the ladder total S+ (checked on the sector blocks),
so S+ carries every other level of M = S onto one of M = S + 1.
"""

from spinsys import (SpinSpace, classify_total_spin, foel_check,
                     heisenberg, lieb_mattis_hamiltonian, lieb_mattis_order,
                     path_graph, star_graph, su2_totals)

g = path_graph(5, spin=1.0)
space = SpinSpace.from_graph(g)
levels = classify_total_spin(heisenberg(g), su2_totals(space), space)

print("spin-1 chain, L = 5, ferromagnetic J = 1")
print(" 2S   multiplets   E(H,S)        top level")
for t in levels.spins():
    print(f" {t:2d}   {levels.counts[t]:4d}        {levels.entries[t]:+.6f}    "
          f"{levels.max_entries[t]:+.6f}")

verdict = foel_check(levels)
print("ordered:", verdict.holds, " smallest margin:", verdict.margin)
gap = levels.entries[8] - levels.entries[10]
print("gap E(H,4) - E(H,5):", gap)

# the antiferromagnetic counterpart on a star: ground spin |S_A - S_B|
star = star_graph(3)
star_space = SpinSpace.from_graph(star)
star_levels = classify_total_spin(lieb_mattis_hamiltonian(star, [0], [1, 2, 3]),
                                  su2_totals(star_space), star_space)
lm = lieb_mattis_order(star_levels, star, [0], [1, 2, 3])
print("bipartite ordering on the 3-leaf star:", lm.holds, " margin:", lm.margin)
