import itertools

import numpy as np
import pytest

from spinsys import SpinSpace, assemble, xxz
from spinsys.hilbert import down_spin_sector


def _cycle_basis_blocks(p, n):
    """The translation blocks of the n-down-spin sector the direct way: each
    orbit's states collected by applying the left rotation until it closes,
    a dense complex m^(-1/2) e^(-2 pi i k j / L) vector per orbit and
    momentum, and basis^H h basis against the whole sector block."""
    L = p.L
    sector = down_spin_sector(SpinSpace((2,) * L), n)
    h = assemble(xxz(p), sector).matrix
    index = {s: i for i, s in enumerate(sector.states.tolist())}
    seen, orbits = set(), []
    for s in sector.states.tolist():
        if s in seen:
            continue
        orb, t = [], s
        while t not in orb:
            orb.append(t)
            t = ((t << 1) | (t >> (L - 1))) & ((1 << L) - 1)
        seen.update(orb)
        orbits.append([index[t] for t in orb])
    blocks = []
    for k in range(L):
        basis = []
        for orb in orbits:
            if (k * len(orb)) % L:
                continue
            v = np.zeros(sector.dim, dtype=complex)
            v[orb] = np.exp(-2j * np.pi * k * np.arange(len(orb)) / L) / np.sqrt(len(orb))
            basis.append(v)
        basis = np.array(basis).T
        blocks.append(basis.conj().T @ (h @ basis))
    return blocks


@pytest.fixture
def cycle_basis_blocks():
    """``_cycle_basis_blocks``, the dense momentum-block oracle of the
    periodic XXZ chain, for the tests that check momentum blocks against it."""
    return _cycle_basis_blocks


def _free_fermion_levels(L, n, k, periodic):
    """The k lowest levels of the spin-1/2 XX chain H = sum (S1 S1 + S2 S2)
    on L sites in the sector of n up spins (M = n - L/2), from its free
    fermions (Lieb, Schultz & Mattis, Ann. Phys. 16, 407 (1961)): every sum
    of n distinct one-particle energies cos(pi j / (L + 1)), j = 1..L, on the
    open chain, and cos(2 pi (j + phi) / L), j = 0..L - 1, on the ring, where
    the Jordan-Wigner string makes phi = 0 for odd n and 1/2 for even n."""
    if periodic:
        phi = 0.0 if n % 2 else 0.5
        energies = np.cos(2 * np.pi * (np.arange(L) + phi) / L)
    else:
        energies = np.cos(np.pi * np.arange(1, L + 1) / (L + 1))
    sums = np.fromiter((sum(c) for c in itertools.combinations(energies, n)), float)
    return np.sort(sums)[:k]


@pytest.fixture
def free_fermion_levels():
    """``_free_fermion_levels``, the XX chain's exact levels in any sector,
    for the Krylov tests past the sizes of a dense oracle."""
    return _free_fermion_levels
