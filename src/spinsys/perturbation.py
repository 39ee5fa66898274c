"""Finite-size probes of gap stability under perturbations.

The frustration-free check verifies H >= 0, H Omega = 0 and measures the
constant c in H >= c (1 - |Omega><Omega|); the sweep tracks the spectral
gap of base + lambda * perturbation over a lambda grid on one space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import SectorBasis, SectorLeakError, SpinSpace, magnetization_sector
from .models import Interaction, assemble
from .spectral import extremal_eigs, sector_sweep_lowest, spectral_gap

PSD_TOL = 1e-12
ZERO_ENERGY_TOL = 1e-9     # E0 = 0 and c >= |V0| in frustration_free_check


@dataclass
class FrustrationFreeReport:
    ground_energy: float
    ground_degeneracy: int
    psd: bool                  # H >= 0 up to tolerance
    zero_energy: bool          # ground energy = 0 up to tolerance
    c: float                   # largest c with H >= c (1 - P_ground)
    v0_size: int
    condition_holds: bool      # c >= |V0|


def frustration_free_check(phi: Interaction, space: SpinSpace,
                           v0_size: int) -> FrustrationFreeReport:
    """Check the unperturbed-model assumption at finite volume.

    c is the energy of the first level above the ground space, i.e. the
    second excitation scale entering H >= c (1 - |Omega><Omega|); the report
    states whether c reaches |V0| as the stability framework demands.  The
    ground space is the levels within ``spectral.DEGENERACY_TOL`` of the
    lowest; zero energy and c >= |V0| are judged to ZERO_ENERGY_TOL.
    """
    levels, _ = sector_sweep_lowest(phi, space, k=6)
    gap_rep = spectral_gap(levels)
    e0 = gap_rep.ground_energy
    psd = e0 >= -PSD_TOL * max(1.0, abs(levels.eigenvalues).max())
    zero = abs(e0) <= ZERO_ENERGY_TOL
    c = gap_rep.gap if zero else math.nan
    return FrustrationFreeReport(
        ground_energy=e0, ground_degeneracy=gap_rep.ground_degeneracy,
        psd=bool(psd), zero_energy=bool(zero), c=float(c), v0_size=v0_size,
        condition_holds=bool(zero and psd and gap_rep.ground_degeneracy == 1
                             and c >= v0_size - ZERO_ENERGY_TOL))


@dataclass
class StabilitySweep:
    lambdas: list
    gaps: dict                      # lambda -> gap
    ground_energies: dict           # lambda -> E0
    ground_degeneracies: dict       # lambda -> count
    pert_norm: float                # || sum_x Phi_x ||
    stable_lambdas: list

    def weyl_bound(self, lam):
        """2 |lambda| ||sum Phi_x||: an upper bound on the gap change."""
        return 2.0 * abs(lam) * self.pert_norm


def _largest_level(H) -> float:
    """The largest |eigenvalue| of a Hermitian operator, from its two
    extremal levels (read off the diagonal of a diagonal one)."""
    top = extremal_eigs(-1 * H.matrix, k=1).eigenvalues[0]
    bot = extremal_eigs(H.matrix, k=1).eigenvalues[0]
    return float(max(abs(top), abs(bot)))


def _operator_norm(phi: Interaction, space: SpinSpace) -> float:
    """|| sum_x Phi_x ||, the largest |level| over the magnetization sectors
    (only M >= 0 when the terms are flip-invariant, as -M has the spectrum
    of M), from one block on the union of their states.  When no entry
    leaves the union, the union is invariant and the block's largest |level|
    is the norm: for flip-invariant terms the rest, M < 0, is the flip image
    of a compression of the block.  Only a leak sends the norm to the full
    space.  The largest sector, M = 0 (or 1/2), is enumerated first, so its
    memory pre-flight refuses a space too large before any work."""
    flip = phi.flip_invariant()
    sectors = [magnetization_sector(space, M) for M in sorted(
        (M for M in space.magnetization_values() if M >= 0 or not flip), key=abs)]
    union = SectorBasis(space, ("M", tuple(sector.label[1] for sector in sectors)),
                        np.sort(np.concatenate([sector.states for sector in sectors])))
    try:
        return _largest_level(assemble(phi, union))
    except SectorLeakError:
        return _largest_level(assemble(phi, space))


def gap_sweep(base: Interaction, pert: Interaction, space: SpinSpace, lambdas,
              threads=1) -> StabilitySweep:
    """Gaps and ground degeneracies of base + lambda * pert on ``space`` for
    every lambda of ``lambdas``.

    The lambda = 0 row is computed from the base interaction alone, so it
    matches an unperturbed run exactly.  The sweeps and the perturbation norm
    (``_operator_norm``) assemble sectors only, unless the perturbation leaks
    out of them.  A lambda is stable when its gap exceeds half the reference
    gap: the lambda = 0 gap, or the largest one when 0 is not on the grid.
    """
    lambdas = [float(v) for v in lambdas]
    gaps, energies, degs = {}, {}, {}
    pert_norm = _operator_norm(pert, space)
    for lam in lambdas:
        phi = base if lam == 0.0 else base + pert.scaled(lam)
        levels, _ = sector_sweep_lowest(phi, space, k=6, threads=threads)
        rep = spectral_gap(levels)
        gaps[lam] = rep.gap
        energies[lam] = rep.ground_energy
        degs[lam] = rep.ground_degeneracy
    ref = gaps[0.0] if 0.0 in gaps else max(gaps.values())
    return StabilitySweep(lambdas=lambdas, gaps=gaps, ground_energies=energies,
                          ground_degeneracies=degs, pert_norm=pert_norm,
                          stable_lambdas=[lam for lam in lambdas if gaps[lam] > ref / 2])
