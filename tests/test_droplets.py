from math import comb

import numpy as np
import pytest

import spinsys.hilbert

from spinsys import (SpinSpace, XxzParams, assemble, bandwidth_formula,
                     compare_band_width, convergence_table, down_spin_sector,
                     droplet_energy_formula, momentum_band,
                     one_magnon_dispersion, open_chain_spin_level,
                     sector_spectrum, xxz)
from spinsys.hilbert import translation_orbits


def whole_sector_levels(p, n):
    """Every level of the chain's n-down-spin sector, from one solve of the
    whole sector: the oracle for the momentum-block reading of E_L(n) and
    for the raw minimum under the open chain's labelled level."""
    space = SpinSpace((2,) * p.L)
    H = assemble(xxz(p), space)
    return sector_spectrum(H, down_spin_sector(space, n)).eigenvalues


def test_formula_values():
    # q = 1/2: E(1) = (3/4)(1/2) / ((5/4)(3/2)) = 1/5
    assert droplet_energy_formula(0.5, 1) == pytest.approx(0.2, abs=1e-15)
    assert droplet_energy_formula(0.5, 0) == 0.0
    # monotone increasing in n, bounded by the n -> inf limit
    vals = [droplet_energy_formula(0.5, n) for n in range(8)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    limit = (1 - 0.25) / (1 + 0.25)
    assert vals[-1] < limit
    with pytest.raises(ValueError):
        droplet_energy_formula(1.5, 1)
    with pytest.raises(ValueError):
        bandwidth_formula(0.5, 0)


def test_one_magnon_band_exact():
    # periodic n=1 sector: E(k) = J (1 - cos k / Delta), k = 2 pi j / L
    p = XxzParams.from_q(8, 0.5, boundary="periodic")
    levels = whole_sector_levels(p, 1)
    disp = one_magnon_dispersion(p)
    assert np.abs(np.sort(levels) - disp).max() < 1e-10
    # lowest one-magnon level equals E(1) = J(1 - 1/Delta) at every L
    assert levels[0] == pytest.approx(0.2, abs=1e-9)


def test_one_magnon_width_closed_form():
    p = XxzParams.from_q(10, 0.5, boundary="periodic")
    wc = compare_band_width(p, 1)
    # measured width = 2J/Delta = 4q/(1+q^2)
    assert wc.measured == pytest.approx(4 * 0.5 / (1 + 0.25), abs=1e-6)
    assert wc.closer == "printed/Delta"


def test_momentum_band_matches_dispersion_for_one_magnon():
    p = XxzParams.from_q(9, 0.5, boundary="periodic")
    mb = np.sort(momentum_band(p, 1))
    assert np.abs(mb - one_magnon_dispersion(p)).max() < 1e-12


def test_momentum_blocks_cover_the_sector():
    # every state is T^pos of its orbit's representative, every period
    # divides L, and the block dimensions over all momenta add up to C(L, n)
    for L, n in ((8, 3), (12, 4)):
        sector = down_spin_sector(SpinSpace((2,) * L), n)
        orbit, pos, period, reps, _, _ = translation_orbits(sector)
        for s, state in enumerate(sector.states.tolist()):
            r = int(sector.states[reps[orbit[s]]])
            for _ in range(int(pos[s])):
                r = ((r << 1) | (r >> (L - 1))) & ((1 << L) - 1)
            assert r == state
        assert np.all(L % period == 0)
        total = sum(sum(1 for k in range(L) if (k * int(m)) % L == 0) for m in period)
        assert total == comb(L, n)


def cycle_basis_blocks(p, n):
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


@pytest.mark.parametrize("L, n", [(6, 3), (8, 3), (9, 3), (12, 4), (12, 6), (15, 5)])
@pytest.mark.parametrize("q", [0.3, 0.5])
def test_momentum_band_matches_cycle_basis_blocks(L, n, q, monkeypatch):
    # orbits of length 2, 3, 4 and 6 besides L: the representative-column
    # blocks k <= L/2 against the dense cycle basis entry by entry (a flipped
    # phase conjugates a block and keeps its spectrum), the band momentum by
    # momentum against all L blocks, and the block spectra together, those
    # of 0 < k < L/2 twice, against one whole-sector solve
    p = XxzParams.from_q(L, q, boundary="periodic")
    blocks = []
    eigvalsh = np.linalg.eigvalsh

    def spy(block):
        blocks.append(block)
        return eigvalsh(block)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    band = momentum_band(p, n)
    monkeypatch.undo()
    oracle = cycle_basis_blocks(p, n)
    assert len(oracle) == L and len(blocks) == L // 2 + 1
    for k, (b, o) in enumerate(zip(blocks, oracle)):
        assert b.shape == o.shape and np.abs(b - o).max() < 1e-12
        assert np.isrealobj(b) == (2 * k % L == 0)
    assert np.abs(band - [eigvalsh(o)[0] for o in oracle]).max() < 1e-12
    union = np.sort(np.concatenate([np.tile(eigvalsh(b), 2 if 0 < 2 * k < L else 1)
                                    for k, b in enumerate(blocks)]))
    assert np.abs(union - whole_sector_levels(p, n)).max() < 1e-10


def test_two_droplet_band_below_scattering_reading():
    # at L=14 the lowest-91-levels reading underestimates the band; the
    # momentum-resolved width sits near the printed formula divided by Delta
    p = XxzParams.from_q(14, 0.5, boundary="periodic")
    w = compare_band_width(p, 2)
    assert w.closer == "printed/Delta"
    assert w.rel_dev_over_delta < 0.05


def test_open_chain_agrees_with_periodic_in_the_limit():
    table = convergence_table(0.5, 2, [8, 10, 12])
    devs_p = [r.dev_periodic for r in table.rows]
    devs_o = [r.dev_open for r in table.rows]
    # both sequences approach the formula from their own side
    assert devs_p[-1] < devs_p[0]
    assert devs_o[-1] < devs_o[0]
    assert devs_p[-1] < 2e-2
    assert devs_o[-1] < 4e-2


def test_sector_ground_energy_open_uses_casimir_label():
    # L=4, n=1: the M = 1 sector holds one state from the S=2 multiplet;
    # the S=1 minimum must exceed the raw sector minimum when the S=2 state
    # lies lowest, and never be below it
    p = XxzParams.from_q(4, 0.5)
    labeled = open_chain_spin_level(p, 1)
    raw = float(whole_sector_levels(p, 1)[0])
    assert labeled >= raw - 1e-12
    assert labeled > 0


def test_periodic_energy_is_lowest_whole_sector_level():
    # the momentum blocks partition the sector, so the lowest block level
    # is the whole sector's ground energy; the width is compare_band_width's
    for q in (0.3, 0.5):
        for n in (1, 2, 3):
            table = convergence_table(q, n, range(8, 15))
            for r in table.rows:
                p = XxzParams.from_q(r.L, q, boundary="periodic")
                assert abs(r.e_periodic - whole_sector_levels(p, n)[0]) < 1e-12
                assert r.band_width == compare_band_width(p, n).measured


def test_sector_dimension_guard():
    # the C(60, 8) = 2.6e9-state sector's dense arrays exceed any memory:
    # both passes refuse before a basis is enumerated
    with pytest.raises(ValueError, match="60-site sector with 8 down spins needs about .* GiB"):
        momentum_band(XxzParams.from_q(60, 0.5, boundary="periodic"), 8)
    with pytest.raises(ValueError, match="60-site sector with 8 down spins needs about .* GiB"):
        open_chain_spin_level(XxzParams.from_q(60, 0.5), 8)


def test_one_magnon_sectors_at_L40():
    # the one-down-spin sectors of 40 sites hold 40 (and, below the open
    # chain's, 780) states; H and the ladders are built on them alone
    p = XxzParams.from_q(40, 0.5, boundary="periodic")
    mb = np.sort(momentum_band(p, 1))
    assert np.abs(mb - one_magnon_dispersion(p)).max() < 1e-12
    e_open = open_chain_spin_level(XxzParams.from_q(40, 0.5), 1)
    assert abs(e_open - droplet_energy_formula(0.5, 1)) < 2e-2


def test_droplet_campaign_builds_nothing_beyond_its_sectors(monkeypatch):
    # every embedding of a droplet table (H, the S_q+ block) stays on sectors:
    # the largest is the n = 3 sector itself at L = 12, C(12, 3); the open
    # chain's other sector, n - 1 = 2, is smaller
    seen = []
    embed = spinsys.hilbert._embed

    def spy(basis, factors, target=None):
        seen.append(max(basis.total_dim, (basis if target is None else target).total_dim))
        return embed(basis, factors, target)

    monkeypatch.setattr(spinsys.hilbert, "_embed", spy)
    convergence_table(0.5, 3, [8, 10, 12])
    assert seen and max(seen) == comb(12, 3) == 220


def test_down_spin_range_guard():
    # spin S_max - n = 2 - 3 does not exist on the 4-site open chain
    with pytest.raises(ValueError, match="outside 0..2"):
        open_chain_spin_level(XxzParams.from_q(4, 0.5), 3)
    # the n = 0 sector has no state at momenta k != 0
    with pytest.raises(ValueError, match="outside 1..5"):
        momentum_band(XxzParams.from_q(6, 0.5, boundary="periodic"), 0)
    with pytest.raises(ValueError):
        convergence_table(0.5, 0, [8])
