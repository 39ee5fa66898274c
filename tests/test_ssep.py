import numpy as np
import pytest
from numpy.testing import assert_allclose

import spinsys.spectral
import spinsys.ssep
from spinsys import (SpinSpace, assemble, build_graph, complete_graph, down_spin_sector,
                     path_graph, ring_graph, ssep_gaps, ssep_generator,
                     ssep_spin_interaction, xxx_conjugacy_check)
from spinsys.ssep import ExclusionSpace


def chorded_ring(L, chords, seed):
    """A ring of L vertices plus chords, every rate seeded in [0.5, 1.5]."""
    rng = np.random.default_rng(seed)
    pairs = [(x, (x + 1) % L) for x in range(L)] + list(chords)
    return build_graph(L, [(x, y, float(rng.uniform(0.5, 1.5))) for x, y in pairs])


def grid_patch(rows, cols, seed):
    """A rows x cols square-lattice patch, every rate seeded in [0.5, 1.5]."""
    rng = np.random.default_rng(seed)
    pairs = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    pairs += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return build_graph(rows * cols, [(x, y, float(rng.uniform(0.5, 1.5))) for x, y in pairs])


NON_TREES = {"ring10_chords": chorded_ring(10, [(0, 4), (2, 7)], seed=10),
             "grid3x3": grid_patch(3, 3, seed=9)}


def test_exclusion_space_dims():
    g = path_graph(4)
    assert ExclusionSpace(g, 0).dim == 1
    assert ExclusionSpace(g, 2).dim == 6
    with pytest.raises(ValueError):
        ExclusionSpace(g, 5)
    with pytest.raises(ValueError):
        ExclusionSpace(build_graph(2, [(0, 1, -1.0)]), 1)


def test_generator_rows_sum_to_zero():
    g = build_graph(4, [(0, 1, 0.7), (1, 2, 1.3), (2, 3, 0.5), (0, 3, 2.0)])
    for n in range(1, 4):
        gen = ssep_generator(ExclusionSpace(g, n))
        m = gen.toarray()
        assert np.abs(m.sum(axis=1)).max() < 1e-13
        assert np.abs(m - m.T).max() < 1e-13         # symmetric rates
        offdiag = m - np.diag(np.diag(m))
        assert offdiag.max() <= 1e-13                # -L convention: off-diagonal <= 0
        assert np.all(np.diag(m) >= 0)


def test_single_particle_gap_is_graph_laplacian_gap():
    g = path_graph(5)
    gen = ssep_generator(ExclusionSpace(g, 1))
    ev = np.sort(np.linalg.eigvalsh(gen.toarray()))
    # n=1 generator is the weighted graph Laplacian
    lap = np.zeros((5, 5))
    for (x, y, r) in g.edges:
        lap[x, x] += r
        lap[y, y] += r
        lap[x, y] -= r
        lap[y, x] -= r
    assert_allclose(ev, np.sort(np.linalg.eigvalsh(lap)), atol=1e-12)


def test_complete_graph_gaps():
    rep = ssep_gaps(complete_graph(3))
    # K_n with unit rates: lambda = n for every particle number
    assert rep.gaps[1] == pytest.approx(3.0, abs=1e-10)
    assert rep.gaps[2] == pytest.approx(3.0, abs=1e-10)
    assert rep.aldous_margin < 1e-10


def test_gap_independent_of_particle_number_on_paths():
    rng = np.random.default_rng(7)
    for L in range(3, 7):
        edges = [(x, x + 1, float(rng.uniform(0.2, 2.0))) for x in range(L - 1)]
        rep = ssep_gaps(build_graph(L, edges))
        assert rep.aldous_margin < 1e-9, f"L={L}"


def test_disconnected_graph_rejected():
    g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(ValueError):
        ssep_gaps(g)


def test_conjugate_interaction_edge_terms():
    g = path_graph(3, weight=0.5)
    phi = ssep_spin_interaction(g)
    for (support, mat) in phi.terms:
        # -2r S.S + r/2 annihilates the triplet, eigenvalue 2r on the singlet
        ev = np.sort(np.linalg.eigvalsh(mat))
        assert_allclose(ev, [0, 0, 0, 1.0], atol=1e-12)


@pytest.mark.parametrize("g", [path_graph(4), path_graph(5), ring_graph(4),
                               ring_graph(5)])
def test_xxx_conjugacy(g):
    rep = xxx_conjugacy_check(g)
    assert rep.max_deviation < 1e-10
    assert max(abs(v) for v in rep.uniform_rayleigh.values()) < 1e-12


@pytest.mark.parametrize("g", list(NON_TREES.values()), ids=list(NON_TREES))
def test_generator_is_the_assembled_down_spin_block(g):
    # a particle is a down spin: the same ascending bitmasks, the same matrix
    space = SpinSpace.from_spins([0.5] * g.n_vertices)
    phi = ssep_spin_interaction(g)
    for n in range(g.n_vertices + 1):
        configs = ExclusionSpace(g, n)
        sector = down_spin_sector(space, n)
        assert np.array_equal(configs.configs, sector.states)
        block = assemble(phi, sector)
        assert block.matrix.dtype == np.float64
        assert np.abs(ssep_generator(configs).toarray() - block.toarray()).max() < 1e-13, n
    rep = xxx_conjugacy_check(g)
    assert set(rep.per_n) == set(range(g.n_vertices + 1)) and rep.max_deviation < 1e-13


def test_conjugacy_check_catches_one_changed_rate(monkeypatch):
    g = NON_TREES["ring10_chords"]
    honest = spinsys.ssep.ssep_spin_interaction

    def one_rate_off(graph):
        (x, y, r), *rest = graph.edges
        return honest(build_graph(graph.n_vertices, [(x, y, r * (1 + 1e-6)), *rest]))

    monkeypatch.setattr(spinsys.ssep, "ssep_spin_interaction", one_rate_off)
    with pytest.raises(ValueError, match="conjugacy failure"):
        xxx_conjugacy_check(g)


def test_gaps_match_dense_generator_oracle_with_one_solve_per_n(monkeypatch):
    g = chorded_ring(9, [(0, 4), (2, 6)], seed=9)
    oracle = {}
    for n in range(1, g.n_vertices):
        ev = np.linalg.eigvalsh(ssep_generator(ExclusionSpace(g, n)).toarray())
        oracle[n] = ev[ev > 1e-10][0]
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    # ssep solves through sector_spectrum alone; spectral holds both
    for module, name in ((spinsys.ssep, "sector_spectrum"),
                         (spinsys.spectral, "full_spectrum"),
                         (spinsys.spectral, "sector_spectrum")):
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    xxx_conjugacy_check(g)
    assert calls == []
    rep = ssep_gaps(g)
    # one solve per n <= |V|/2; the particle-hole mirror gives the rest
    assert calls.count("sector_spectrum") == g.n_vertices // 2
    assert calls.count("full_spectrum") == g.n_vertices // 2      # each sector_spectrum's one
    for n, lam in oracle.items():
        assert rep.gaps[n] == pytest.approx(lam, rel=1e-12, abs=0), n


@pytest.mark.parametrize("name", sorted(NON_TREES))
def test_mirrored_gap_rows_match_direct_solves(name):
    # the rows n > |V|/2 repeat those of |V| - n: each against a solve of its own block
    g = NON_TREES[name]
    V = g.n_vertices
    assert ssep_spin_interaction(g).flip_invariant()
    rep = ssep_gaps(g)
    assert list(rep.gaps) == list(rep.dims) == list(rep.stationary_checks) == list(range(1, V))
    space = SpinSpace.from_spins([0.5] * V)
    for n in range(V // 2 + 1, V):
        sector = down_spin_sector(space, n)
        block = assemble(ssep_spin_interaction(g), sector)
        ev = np.linalg.eigvalsh(block.toarray())
        assert rep.gaps[n] == pytest.approx(ev[ev > 1e-10][0], rel=1e-12, abs=0), n
        assert rep.dims[n] == sector.dim
        assert rep.stationary_checks[n] < 1e-12
