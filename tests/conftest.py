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
