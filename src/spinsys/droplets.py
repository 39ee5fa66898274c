"""Droplet spectroscopy of the ferromagnetic XXZ chain.

E_L(n) is the sector ground energy of the periodic chain with n down spins,
read as the lowest level over the momentum blocks of that sector (the
blocks partition it), so one pass per length also gives the band width.
Block k reads only the columns of the shift orbits' representatives r_a in
the sparse sector block h (``hilbert.momentum_blocks``), and is real: the
ring commutes with the shift and the reflection, which
``spectral.momentum_spectra`` checks, so each block has a real basis.
The open chain with boundary fields commutes with the SU_q(2) raising
total S_q+, so its level E(H_L, S_max - n) is the lowest level of the
sector M = S_max - n without a partner in the sector above.  H and the S_q+ block are built on the
sectors alone, never on the 2^L space.
Both finite-L sequences are compared with the closed-form limit E(n), and
the band momentum by momentum with the bound-state dispersion E_n(k)
(``bound_state_dispersion``), whose k = 0 value is E(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd

import numpy as np

from .hilbert import SpinSpace, down_spin_sector, translation_orbits
from .models import XxzParams, xxz, assemble
from .spectral import momentum_spectra
from .symmetry import sector_spin_levels, suq2_generators
from .util import require_memory


def bound_state_dispersion(q: float, n: int, k, J=1.0):
    """Energy of the n-magnon bound state (the n-droplet) of the infinite
    chain at momentum k, in the normalization of ``models.xxz``:

        E_n(k) = J (1 - q^2)/(1 + q^2) (1 + q^(2n) - 2 q^n cos k)/(1 - q^(2n)),

    summed as E(n) + W sin^2(k/2), so that k = 0 gives the droplet energy
    E(n) = J (1 - q^2)(1 - q^n) / ((1 + q^2)(1 + q^n)) of Nachtergaele & Starr,
    Commun. Math. Phys. 218, 569 (2001), to the last bit.  The k dependence is
    that of the n-string solution of the Bethe equations (Takahashi,
    Thermodynamics of One-Dimensional Solvable Models, 1999): with q = e^-eta,
    E_n(k) = J sinh(eta) (cosh(n eta) - cos k) / (Delta sinh(n eta)).  The band
    width is W = E_n(pi) - E_n(0) = J 4 q^n (1 - q^2) / ((1 + q^2)(1 - q^(2n))),
    and n = 1 is the one-magnon band J (1 - cos k / Delta).
    """
    if not 0 < q < 1:
        raise ValueError(f"q must lie in (0,1), got {q}")
    if n < 1:
        raise ValueError(f"a droplet needs at least one down spin, got n = {n}")
    bottom = (1 - q ** 2) * (1 - q ** n) / ((1 + q ** 2) * (1 + q ** n))
    width = 4 * q ** n * (1 - q ** 2) / ((1 + q ** 2) * (1 - q ** (2 * n)))
    return J * (bottom + width * np.sin(np.asarray(k) / 2) ** 2)


def _check_sector(p: XxzParams, n: int, nbytes) -> None:
    """Reject n before any basis is enumerated.  The periodic chain has a band
    at every momentum for 1 <= n <= L - 1 (the n = 0 and n = L sectors hold
    one state each); the open chain's spin S_max - n = L/2 - n needs
    0 <= n <= L/2.  A pass whose own estimate ``nbytes(dim)`` of its arrays on
    the dim = C(L, n)-state sector exceeds the physical memory is refused
    too."""
    lo, hi = (1, p.L - 1) if p.boundary == "periodic" else (0, p.L // 2)
    if not lo <= n <= hi:
        raise ValueError(f"down-spin number {n} outside {lo}..{hi} for the "
                         f"{p.L}-site {p.boundary} chain")
    require_memory(nbytes(comb(p.L, n)), f"the {p.L}-site sector with {n} down spins")


def open_chain_spin_level(p: XxzParams, n: int) -> float:
    """E(H_L, S_max - n) for the boundary-field chain.

    The sector M = S_max - n also holds one state from every multiplet with
    S > S_max - n, and those are the levels of the sector above, so the
    minimum is taken over spec(M) minus spec(M + 1) (``sector_spin_levels``
    with the S_q+ of ``suq2_generators``).  H is assembled on those two
    sectors alone.  Its pre-flight counts the bases (64 bytes per state of
    C(L, n) and C(L, n - 1)) and three dense sector arrays (a values-only
    eigensolve, as ``full_spectrum`` counts it).
    """
    _check_sector(p, n, lambda dim: 3 * 8 * dim * dim
                  + 64 * (dim + comb(p.L, max(n - 1, 0))))
    energies, _ = sector_spin_levels(xxz(p), suq2_generators(p), SpinSpace((2,) * p.L),
                                     p.L - 2 * n)
    return float(energies[0])


def momentum_band(p: XxzParams, n: int) -> np.ndarray:
    """Lowest sector energy at each of the L momenta of the periodic chain.

    The n-droplet band interleaves with scattering levels at larger L, so
    picking the lowest ``L`` sector eigenvalues mislabels the band.  The
    shift symmetry separates them: one bound state per momentum lies at the
    bottom of its translation block.  The blocks come from the orbits of the
    shift on the sector (``hilbert.translation_orbits``) and are solved by
    ``spectral.momentum_spectra``: h is real and commutes with the shift
    and the reflection, so only k <= L/2, each block real, k = 0 and L/2 in
    their two parity halves.  A block that fails those checks raises
    ``ValueError``.  The pre-flight counts the basis with room for its L
    rotations, the sparse block (a diagonal and L hops per column), the
    representative columns with their four-slot scatter (at most 171 bytes
    per orbit and nonzero measured at L = 16 and 18) and three real arrays
    of the k = 0 block, which holds every orbit.
    """
    if p.boundary != "periodic":
        raise ValueError("momentum resolution needs the periodic chain")
    L = p.L

    def nbytes(dim):
        # orbits by Burnside: T^j fixes the C(g, n g / L) states of period
        # g = gcd(j, L) when L divides n g, that is when L / gcd(n, L) divides j
        orbits = sum(comb(g, n * g // L)
                     for g in (gcd(j, L) for j in range(0, L, L // gcd(n, L)))) // L
        return ((64 + 9 * L + 12 * (L + 1)) * dim + 256 * (L + 1) * orbits
                + 3 * 8 * orbits ** 2)

    _check_sector(p, n, nbytes)
    sector = down_spin_sector(SpinSpace((2,) * L), n)
    orbits = translation_orbits(sector)
    spectra = momentum_spectra(assemble(xxz(p), sector).matrix, orbits,
                               orbits.slots(range(L // 2 + 1)))
    if spectra is None:
        raise ValueError(f"the {L}-site chain's sector block is complex or breaks the shift "
                         "or the reflection")
    return np.array([levels[0] for levels in spectra])


@dataclass
class DropletRow:
    L: int
    e_periodic: float
    band_width: float         # spread of the lowest momentum-block levels
    band_dev: float           # largest |E_L(k) - E_n(k)| over the L momenta
    e_open_suq: float
    dev_periodic: float
    dev_open: float


@dataclass
class DropletTable:
    q: float
    n: int
    formula_energy: float
    rows: list


def convergence_table(q: float, n: int, Ls, J=1.0) -> DropletTable:
    """Both finite-L sequences (periodic E_L(n), open-chain E(H_L, S_max - n))
    against the closed-form E(n), for n >= 1: one row for each length of
    the sequence ``Ls``, in its order.

    Each length takes one periodic pass, ``momentum_band``, whose lowest
    level is E_L(n), whose spread is the band width, and whose level at
    k = 2 pi j / L is compared with ``bound_state_dispersion``; and one open
    pass, ``open_chain_spin_level``.  The lengths are solved from the last
    back, so a range of increasing lengths is refused by the memory
    pre-flights of its longest before it is listed.
    """
    e_formula = float(bound_state_dispersion(q, n, 0.0, J))
    rows = []
    for L in map(int, reversed(Ls)):
        pp = XxzParams.from_q(L, q, J=J, boundary="periodic")
        po = XxzParams.from_q(L, q, J=J, boundary="open_with_field")
        band = momentum_band(pp, n)
        ep = float(band.min())
        eo = open_chain_spin_level(po, n)
        dispersion = bound_state_dispersion(q, n, 2 * np.pi * np.arange(L) / L, J)
        rows.append(DropletRow(L=L, e_periodic=ep,
                               band_width=float(band.max() - band.min()),
                               band_dev=float(np.abs(band - dispersion).max()),
                               e_open_suq=eo,
                               dev_periodic=abs(ep - e_formula),
                               dev_open=abs(eo - e_formula)))
    return DropletTable(q=q, n=n, formula_energy=e_formula, rows=rows[::-1])
