"""Droplet spectroscopy of the ferromagnetic XXZ chain.

E_L(n) is the sector ground energy of the periodic chain with n down spins;
the open chain with boundary fields carries the quantum-group symmetry and
its level E(H_L, S_max - n) is identified through the q-Casimir.  Both
finite-L sequences are compared with the closed-form limit
E(n) = (1 - q^2)(1 - q^n) / ((1 + q^2)(1 + q^n)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .hilbert import SpinSpace, down_spin_sector, restrict
from .models import XxzParams, xxz, assemble
from .spectral import SpectrumReport, full_spectrum, sector_spectrum
from .symmetry import sector_spin_levels, suq2_generators

SECTOR_DIM_LIMIT = 200_000


def droplet_energy_formula(q: float, n: int) -> float:
    """Limiting droplet energy (1 - q^2)(1 - q^n) / ((1 + q^2)(1 + q^n))."""
    if not 0 < q < 1:
        raise ValueError(f"q must lie in (0,1), got {q}")
    if n < 0:
        raise ValueError("droplet size must be nonnegative")
    return (1 - q ** 2) * (1 - q ** n) / ((1 + q ** 2) * (1 + q ** n))


def bandwidth_formula(q: float, n: int) -> float:
    """Printed droplet band width 4 q^n (1 - q^2) / (1 - q^(2n)); n >= 1."""
    if not 0 < q < 1:
        raise ValueError(f"q must lie in (0,1), got {q}")
    if n < 1:
        raise ValueError("band width formula is singular at n = 0")
    return 4 * q ** n * (1 - q ** 2) / (1 - q ** (2 * n))


def _check_sector(p: XxzParams, n: int):
    if not 0 <= n <= p.L:
        raise ValueError(f"down-spin number {n} outside 0..{p.L}")
    dim = comb(p.L, n)
    if dim > SECTOR_DIM_LIMIT:
        raise ValueError(f"sector dimension {dim} is out of reach")


def _sector_report(p: XxzParams, n: int) -> SpectrumReport:
    _check_sector(p, n)
    space = SpinSpace((2,) * p.L)
    H = assemble(xxz(p), space)
    sector = down_spin_sector(space, n)
    return sector_spectrum(H, sector, k="all")


def sector_ground_energy(p: XxzParams, n: int) -> float:
    """Lowest energy of the chosen variant in the n-down-spin sector.

    For the periodic chain this is E_L(n) directly.  For the open chain the
    sector also holds one state from every multiplet with S > S_max - n, so
    eigenstates are classified by the q-Casimir and the minimum is taken over
    the states labeled exactly S = S_max - n.
    """
    if n == 0:
        return 0.0
    if p.boundary == "periodic":
        return float(_sector_report(p, n).eigenvalues[0])
    return open_chain_spin_level(p, n)


def open_chain_spin_level(p: XxzParams, n: int) -> float:
    """E(H_L, S_max - n) for the boundary-field chain via q-Casimir labels."""
    _check_sector(p, n)
    space = SpinSpace((2,) * p.L)
    H = assemble(xxz(p), space)
    energies, _ = sector_spin_levels(H, suq2_generators(p), space, p.L - 2 * n)
    return float(energies[0])


@dataclass
class BandReport:
    band_min: float
    band_max: float
    width: float
    isolation: float      # separation from the (L+1)-th level


def band_extract(report: SpectrumReport, L: int) -> BandReport:
    """The lowest L sector eigenvalues (one per momentum class) as the droplet
    band; isolation is the gap to the next level."""
    ev = report.eigenvalues
    if ev.size < L:
        raise ValueError(f"need at least {L} levels to form an L-state band, "
                         f"got {ev.size}")
    band = ev[:L]
    # n = 1 sector has dimension exactly L: the band is the whole sector
    iso = float(ev[L] - band[-1]) if ev.size > L else math.inf
    return BandReport(band_min=float(band[0]), band_max=float(band[-1]),
                      width=float(band[-1] - band[0]),
                      isolation=iso)


def _translation_cycles(p: XxzParams, sector):
    """Orbits of the one-site shift acting on the sector bitmasks."""
    states = sector.states
    full_mask = (1 << p.L) - 1
    # rotate the occupation pattern left by one site
    shifted = ((states << 1) | (states >> (p.L - 1))) & full_mask
    perm = np.searchsorted(states, shifted)
    seen = np.zeros(states.size, dtype=bool)
    cycles = []
    for start in range(states.size):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        i = int(perm[start])
        while i != start:
            cyc.append(i)
            seen[i] = True
            i = int(perm[i])
        cycles.append(cyc)
    return cycles


def momentum_band(p: XxzParams, n: int) -> np.ndarray:
    """Lowest sector energy at each of the L momenta of the periodic chain.

    The n-droplet band interleaves with scattering levels at larger L, so
    picking the lowest ``L`` sector eigenvalues mislabels the band.  The
    shift symmetry separates them: one bound state per momentum lies at the
    bottom of its translation block.
    """
    if p.boundary != "periodic":
        raise ValueError("momentum resolution needs the periodic chain")
    space = SpinSpace((2,) * p.L)
    H = assemble(xxz(p), space)
    sector = down_spin_sector(space, n)
    if comb(p.L, n) > SECTOR_DIM_LIMIT:
        raise ValueError("sector dimension is out of reach")
    h = restrict(H, sector)
    cycles = _translation_cycles(p, sector)
    out = np.empty(p.L)
    for k in range(p.L):
        cols = []
        for cyc in cycles:
            m = len(cyc)
            if (k * m) % p.L:
                continue            # momentum not supported on this orbit
            v = np.zeros(sector.dim, dtype=complex)
            phase = np.exp(-2j * np.pi * k / p.L)
            v[cyc] = phase ** np.arange(m) / np.sqrt(m)
            cols.append(v)
        basis = np.column_stack(cols)
        block = basis.conj().T @ h @ basis
        out[k] = np.linalg.eigvalsh(block)[0]
    return out


def one_magnon_dispersion(p: XxzParams) -> np.ndarray:
    """Closed-form periodic n=1 spectrum J (1 - cos(2 pi j / L) / Delta)."""
    k = 2 * np.pi * np.arange(p.L) / p.L
    return np.sort(p.J * (1 - np.cos(k) / p.Delta))


@dataclass
class DropletRow:
    L: int
    e_periodic: float
    e_open_suq: float
    dev_periodic: float
    dev_open: float


@dataclass
class DropletTable:
    q: float
    n: int
    formula_energy: float
    formula_width: float
    rows: list


def convergence_table(q: float, n: int, Ls, J=1.0) -> DropletTable:
    """Both finite-L sequences (periodic E_L(n), open-chain E(H_L, S_max - n))
    against the closed-form E(n)."""
    e_formula = droplet_energy_formula(q, n)
    w_formula = bandwidth_formula(q, n) if n >= 1 else 0.0
    rows = []
    for L in sorted(int(L) for L in Ls):
        pp = XxzParams.from_q(L, q, J=J, boundary="periodic")
        po = XxzParams.from_q(L, q, J=J, boundary="open_with_field")
        ep = sector_ground_energy(pp, n)
        eo = sector_ground_energy(po, n)
        rows.append(DropletRow(L=L, e_periodic=ep, e_open_suq=eo,
                               dev_periodic=abs(ep - e_formula),
                               dev_open=abs(eo - e_formula)))
    return DropletTable(q=q, n=n, formula_energy=e_formula,
                        formula_width=w_formula, rows=rows)


@dataclass
class WidthComparison:
    measured: float
    printed: float
    printed_over_delta: float
    rel_dev_printed: float
    rel_dev_over_delta: float
    closer: str               # "printed" or "printed/Delta"


def compare_band_width(p: XxzParams, n: int) -> WidthComparison:
    """Measured droplet band width against the printed formula and the printed
    formula divided by Delta; the closer reading is flagged, not assumed."""
    if p.boundary != "periodic":
        raise ValueError("band extraction is defined for the periodic chain")
    band_levels = momentum_band(p, n)
    width = float(band_levels.max() - band_levels.min())
    printed = bandwidth_formula(p.q, n)
    over_delta = printed / p.Delta
    dev_p = abs(width - printed) / printed
    dev_d = abs(width - over_delta) / over_delta
    return WidthComparison(measured=width, printed=printed,
                           printed_over_delta=over_delta,
                           rel_dev_printed=dev_p, rel_dev_over_delta=dev_d,
                           closer="printed" if dev_p < dev_d else "printed/Delta")
