from math import comb

import numpy as np
import pytest

import spinsys.hilbert

from spinsys import (SpinSpace, XxzParams, assemble, bound_state_dispersion,
                     convergence_table, down_spin_sector, momentum_band,
                     open_chain_spin_level, sector_spectrum, xxz)
from spinsys.hilbert import translation_orbits


def whole_sector_levels(p, n):
    """Every level of the chain's n-down-spin sector, from one solve of the
    whole sector: the oracle for the momentum-block reading of E_L(n) and
    for the raw minimum under the open chain's labelled level."""
    space = SpinSpace((2,) * p.L)
    H = assemble(xxz(p), space)
    return sector_spectrum(H, down_spin_sector(space, n)).eigenvalues


def momenta(L):
    return 2 * np.pi * np.arange(L) / L


def test_formula_values():
    # q = 1/2: E(1) = (3/4)(1/2) / ((5/4)(3/2)) = 1/5
    assert bound_state_dispersion(0.5, 1, 0.0) == pytest.approx(0.2, abs=1e-15)
    # the k = 0 value is the droplet energy to the last bit, and J scales it
    for q in (0.3, 0.5, 0.7):
        for n in range(1, 8):
            e = (1 - q ** 2) * (1 - q ** n) / ((1 + q ** 2) * (1 + q ** n))
            assert bound_state_dispersion(q, n, 0.0) == e
            assert bound_state_dispersion(q, n, 0.0, J=2.0) == 2 * e
    # the n-string form J sinh(eta) (cosh(n eta) - cos k) / (Delta sinh(n eta)),
    # q = e^-eta, at every momentum of the 12-ring
    k = momenta(12)
    for q in (0.3, 0.5, 0.7):
        eta = -np.log(q)
        for n in (1, 2, 3, 5):
            string = np.sinh(eta) * (np.cosh(n * eta) - np.cos(k)) / (
                np.cosh(eta) * np.sinh(n * eta))
            assert np.abs(bound_state_dispersion(q, n, k, J=0.5) - 0.5 * string).max() < 1e-14
    # the band bottom increases with n, below the n -> inf limit
    vals = [bound_state_dispersion(0.5, n, 0.0) for n in range(1, 8)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < (1 - 0.25) / (1 + 0.25)
    with pytest.raises(ValueError):
        bound_state_dispersion(1.5, 1, 0.0)
    with pytest.raises(ValueError):
        bound_state_dispersion(0.5, 0, 0.0)


def test_one_magnon_band_exact():
    # periodic n = 1 sector: E(k) = J (1 - cos k / Delta), k = 2 pi j / L,
    # for the whole sector's levels and for J = 2
    for q in (0.3, 0.5):
        for J in (1.0, 2.0):
            p = XxzParams.from_q(8, q, J=J, boundary="periodic")
            levels = whole_sector_levels(p, 1)
            magnon = J * (1 - np.cos(momenta(8)) / p.Delta)
            assert np.abs(levels - np.sort(magnon)).max() < 1e-10
            assert np.abs(bound_state_dispersion(q, 1, momenta(8), J) - magnon).max() < 1e-15
    # lowest one-magnon level equals E(1) = J(1 - 1/Delta) at every L
    assert whole_sector_levels(XxzParams.from_q(8, 0.5, boundary="periodic"), 1)[0] \
        == pytest.approx(0.2, abs=1e-9)


def test_one_magnon_width_closed_form():
    # the one-magnon band spans E_1(pi) - E_1(0) = 2J/Delta = 4 J q/(1 + q^2)
    for q in (0.3, 0.5, 0.7):
        width = bound_state_dispersion(q, 1, np.pi) - bound_state_dispersion(q, 1, 0.0)
        assert width == pytest.approx(4 * q / (1 + q * q), abs=1e-15)
        band = momentum_band(XxzParams.from_q(10, q, boundary="periodic"), 1)
        assert band.max() - band.min() == pytest.approx(width, abs=1e-12)


def test_momentum_band_matches_dispersion_for_one_magnon():
    # momentum by momentum on an odd ring, where k = pi is not a momentum and
    # k > L/2 takes the levels of L - k
    p = XxzParams.from_q(9, 0.5, boundary="periodic")
    assert np.abs(momentum_band(p, 1) - bound_state_dispersion(0.5, 1, momenta(9))).max() < 1e-12


# the largest per-k deviation at L = 16 stays below this; slower for larger q
BAND_TOL_AT_16 = {0.3: 1e-3, 0.5: 1e-2, 0.7: 3e-2}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
def test_momentum_band_converges_to_the_bound_state_dispersion(q, n):
    # every block's lowest level approaches E_n(k) at its own momentum: the
    # largest deviation falls from each L to L + 2 (n = 1 is exact at every L)
    # and lies below the bound at L = 16.  A band width off by a factor, such
    # as the printed 4 q^n (1 - q^2) / (1 - q^(2n)), fails the bound at q = 0.3.
    devs = []
    for L in range(2 * n + 4, 17, 2):
        band = momentum_band(XxzParams.from_q(L, q, boundary="periodic"), n)
        devs.append(float(np.abs(band - bound_state_dispersion(q, n, momenta(L))).max()))
    if n == 1:
        assert max(devs) <= 1e-12
    else:
        assert all(b < a for a, b in zip(devs, devs[1:])), devs
    assert devs[-1] < BAND_TOL_AT_16[q]


def test_momentum_blocks_cover_the_sector():
    # every state is T^pos of its orbit's representative, every period
    # divides L, and the block dimensions over all momenta add up to C(L, n)
    for L, n in ((8, 3), (12, 4)):
        sector = down_spin_sector(SpinSpace((2,) * L), n)
        orbit, pos, period, reps, *_ = translation_orbits(sector)
        for s, state in enumerate(sector.states.tolist()):
            r = int(sector.states[reps[orbit[s]]])
            for _ in range(int(pos[s])):
                r = ((r << 1) | (r >> (L - 1))) & ((1 << L) - 1)
            assert r == state
        assert np.all(L % period == 0)
        total = sum(sum(1 for k in range(L) if (k * int(m)) % L == 0) for m in period)
        assert total == comb(L, n)


@pytest.mark.parametrize("L, n", [(6, 3), (8, 3), (9, 3), (12, 4), (12, 6), (15, 5)])
@pytest.mark.parametrize("q", [0.3, 0.5])
def test_momentum_band_matches_cycle_basis_blocks(L, n, q, monkeypatch, cycle_basis_blocks):
    # orbits of length 2, 3, 4 and 6 besides L: the real blocks the band
    # solves, the two parity halves of k = 0 and L/2 and one block for each
    # other k, against the spectrum of the dense cycle-basis block;
    # the band momentum by momentum against all L blocks, and the block
    # spectra together, those of 0 < k < L/2 twice, against one whole-sector
    # solve
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
    assert len(oracle) == L
    assert all(np.isrealobj(b) for b in blocks)
    at, solved = 0, []
    for k in range(L // 2 + 1):
        pieces = []
        while sum(b.shape[0] for b in pieces) < oracle[k].shape[0]:
            pieces.append(blocks[at])
            at += 1
        assert len(pieces) == (2 if 2 * k % L == 0 else 1)
        levels = np.sort(np.concatenate([eigvalsh(b) for b in pieces]))
        assert np.abs(levels - eigvalsh(oracle[k])).max() < 1e-12
        solved.append(levels)
    assert at == len(blocks)
    assert np.abs(band - [eigvalsh(o)[0] for o in oracle]).max() < 1e-12
    union = np.sort(np.concatenate([np.tile(levels, 2 if 0 < 2 * k < L else 1)
                                    for k, levels in enumerate(solved)]))
    assert np.abs(union - whole_sector_levels(p, n)).max() < 1e-10


def test_two_droplet_band_below_scattering_reading():
    # at L = 14 scattering levels interleave with the band, so the lowest
    # L levels of the sector span much less than the band; the momentum-
    # resolved band follows E_2(k) at every k and has its width
    q, L = 0.5, 14
    p = XxzParams.from_q(L, q, boundary="periodic")
    band = momentum_band(p, 2)
    dispersion = bound_state_dispersion(q, 2, momenta(L))
    width = dispersion.max() - dispersion.min()
    assert np.abs(band - dispersion).max() < 1e-2
    assert abs(band.max() - band.min() - width) < 0.02 * width
    lowest = whole_sector_levels(p, 2)[:L]
    assert lowest.max() - lowest.min() < 0.75 * width


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
    # is the whole sector's ground energy; the width and the deviation from
    # E_n(k) are read from the same band
    for q in (0.3, 0.5):
        for n in (1, 2, 3):
            table = convergence_table(q, n, range(8, 15))
            assert table.formula_energy == bound_state_dispersion(q, n, 0.0)
            for r in table.rows:
                p = XxzParams.from_q(r.L, q, boundary="periodic")
                assert abs(r.e_periodic - whole_sector_levels(p, n)[0]) < 1e-12
                band = momentum_band(p, n)
                assert r.band_width == band.max() - band.min()
                assert r.band_dev == np.abs(
                    band - bound_state_dispersion(q, n, momenta(r.L))).max()


def test_coupling_scales_every_droplet_column_exactly():
    # J scales the bonds and the open chain's boundary field alike, so every
    # column at J = 2 is twice the J = 1 value, bit for bit
    one, two = (convergence_table(0.3, 2, range(6, 13), J=J) for J in (1.0, 2.0))
    assert two.formula_energy == 2 * one.formula_energy
    for a, b in zip(one.rows, two.rows):
        assert b.L == a.L
        for name in ("e_periodic", "band_width", "band_dev", "e_open_suq",
                     "dev_periodic", "dev_open"):
            assert getattr(b, name) == 2 * getattr(a, name), (a.L, name)


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
    mb = momentum_band(p, 1)
    assert np.abs(mb - bound_state_dispersion(0.5, 1, momenta(40))).max() < 1e-12
    e_open = open_chain_spin_level(XxzParams.from_q(40, 0.5), 1)
    assert abs(e_open - bound_state_dispersion(0.5, 1, 0.0)) < 2e-2


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
