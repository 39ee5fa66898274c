"""Spectral gap of a frustration-free chain under an Ising perturbation.

The unperturbed bond terms are projectors, so H >= 0 with a zero-energy
ground state; the sweep adds lambda sum S^3 S^3 over the bonds and tracks
the gap over the lambda grid.  A crude a priori estimate: eigenvalues move
by at most 2 |lambda| |sum Phi_x|, which the measured gaps respect easily.
"""

import numpy as np

from spinsys import (SpinSpace, aklt, frustration_free_check, gap_sweep,
                     spin_matrices)
from spinsys.models import custom

L = 6
ff = frustration_free_check(aklt(L, periodic=True), SpinSpace((3,) * L),
                            v0_size=1)
print(f"unperturbed ring, L = {L}: E0 = {ff.ground_energy:.2e}, "
      f"degeneracy {ff.ground_degeneracy}, c = {ff.c:.4f}")

s3 = np.asarray(spin_matrices(1.0).s3)
szsz = np.kron(s3, s3)
pert = custom([((x, (x + 1) % L), szsz) for x in range(L)])

lams = [round(-0.1 + 0.025 * i, 10) for i in range(9)]
sweep = gap_sweep(aklt(L, periodic=True), pert, SpinSpace((3,) * L), lams, threads=2)

print(" lambda    gap        |gap - gap0|   Weyl cap")
gap0 = sweep.gaps[0.0]
for lam in lams:
    gap = sweep.gaps[lam]
    print(f" {lam:+.3f}   {gap:.6f}   {abs(gap - gap0):.6f}      "
          f"{sweep.weyl_bound(lam):.4f}")
print("gap stays open on the whole grid:",
      all(sweep.gaps[lam] > 0 for lam in lams))
