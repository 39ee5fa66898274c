import numpy as np
import pytest
import scipy.sparse as sps
from numpy.testing import assert_allclose

import spinsys.dynamics
import spinsys.flip
import spinsys.spectral
import spinsys.symmetry
import spinsys.util
from spinsys import (ClusteringRates, HeisenbergDynamics, SpinSpace, aklt, assemble, build_graph,
                     commutator_grid, commutator_growth, custom, embed_at,
                     embed_local, full_spectrum, ground_correlation,
                     heisenberg, hermitian_unit_basis, lambda_norm,
                     lr_bound_rhs, lr_corollary_bound,
                     path_graph, ring_graph, spin_matrices)
from spinsys.cli import _commutator_by_definition, run
from spinsys.dynamics import SectorCorrelator
from spinsys.hilbert import magnetization_sector, restrict
from spinsys.spectral import ConvergenceError, sector_spectrum


def chain_setup(L=6):
    g = path_graph(L)
    space = SpinSpace.from_graph(g)
    H = assemble(heisenberg(g), space)
    return g, space, H


def test_hermitian_unit_basis():
    basis = hermitian_unit_basis(3)
    assert len(basis) == 9
    for m in basis:
        assert np.abs(m - m.conj().T).max() < 1e-14
        assert np.linalg.norm(m, 2) == pytest.approx(1.0, abs=1e-12)


def test_evolution_is_unitary_conjugation():
    g, space, H = chain_setup(4)
    dyn = HeisenbergDynamics(H)
    sz = np.asarray(spin_matrices(0.5).s3)
    A = embed_at(space, [(1, sz)]).toarray()
    At = dyn.evolve(A, 0.7)
    # norm and trace preserved
    assert np.linalg.norm(At, 2) == pytest.approx(np.linalg.norm(A, 2), abs=1e-10)
    assert np.trace(At) == pytest.approx(np.trace(A), abs=1e-10)
    # cocycle: tau_s(tau_t(A)) = tau_{s+t}(A)
    two_step = dyn.evolve(dyn.evolve(A, 0.3), 0.4)
    assert np.abs(two_step - At).max() < 1e-10


def test_commutator_zero_at_t0_outside_support():
    g, space, H = chain_setup(6)
    dyn = HeisenbergDynamics(H)
    sz = np.asarray(spin_matrices(0.5).s3)
    B = embed_at(space, [(3, sz)]).toarray()
    assert commutator_growth(dyn, B, 0, 0.0, space) < 1e-12
    # on the support it saturates 2 ||B||
    assert commutator_growth(dyn, B, 3, 0.0, space) == pytest.approx(1.0, abs=1e-10)


def test_commutator_below_bound_on_grid():
    g, space, H = chain_setup(6)
    dyn = HeisenbergDynamics(H)
    lam = 1.0
    phi_norm = lambda_norm(heisenberg(g), lam, g)
    sz = np.asarray(spin_matrices(0.5).s3)
    B = embed_at(space, [(3, sz)]).toarray()
    for x in range(6):
        for t in (0.0, 0.1, 0.3):
            measured = commutator_growth(dyn, B, x, t, space)
            bound = lr_bound_rhs(g, lam, phi_norm, x, (3,), 0.5, t)
            assert measured <= bound + 1e-10, (x, t)


def growth_by_definition(dyn, B, x, t, space):
    """max over the Hermitian unit basis at x of the SVD norm of
    tau_t(A) B - B tau_t(A), with tau_t(A) from the full unitary."""
    Bm = B.toarray()
    best = 0.0
    for local in hermitian_unit_basis(space.site_dims[x]):
        At = dyn.evolve(embed_at(space, [(x, local)]).toarray(), t)
        best = max(best, np.linalg.norm(At @ Bm - Bm @ At, 2))
    return best


def model_cases():
    """(space, H, B, whether H is real) on model Hamiltonians; no B is an
    involution."""
    s, s1 = spin_matrices(0.5), spin_matrices(1.0)
    g, space, H = chain_setup(6)
    two_site = 0.6 * np.kron(s.s3, s.s3) + 0.3 * np.kron(s.s1, s.s2)
    B = embed_local(space, [((2, 3), two_site), ((2,), s.s3)])
    yield space, H, B, True

    space = SpinSpace((3,) * 4)
    H = assemble(aklt(4), space)
    B = embed_at(space, [(1, s1.s3 + 0.5 * s1.s1 @ s1.s1)])
    yield space, H, B, True

    # z-axis Dzyaloshinskii-Moriya bonds i(S+S- - S-S+)/2 make H complex
    g = path_graph(5)
    space = SpinSpace.from_graph(g)
    dm = 0.35j * (np.kron(s.plus, s.minus) - np.kron(s.minus, s.plus))
    H = assemble(heisenberg(g) + custom([((x, x + 1), dm) for x in range(4)]), space)
    B = embed_at(space, [(1, np.diag([0.8, -0.3]))])
    yield space, H, B, False

    # a transverse field couples every magnetization sector: H is one block
    g = path_graph(5)
    space = SpinSpace.from_graph(g)
    H = assemble(heisenberg(g) + custom([((x,), 0.4 * s.s1) for x in range(5)]), space)
    B = embed_at(space, [(2, np.diag([0.8, -0.3]))])
    yield space, H, B, True

    # B = 2S^3 keeps every sector; the charge +-1 and +-2 units of a spin-1
    # site give 2-coloured components of the block pattern of [tau_t(A), B]
    g = path_graph(4, spin=1.0)
    space = SpinSpace.from_graph(g)
    H = assemble(heisenberg(g), space)
    B = embed_at(space, [(1, 2.0 * np.asarray(s1.s3))])
    yield space, H, B, True

    # B ~ sigma^1 moves the magnetization by one, so the charge +-1 units give
    # components with diagonal blocks (scaled so B is no involution)
    g, space, H = chain_setup(5)
    B = embed_at(space, [(2, 1.2 * np.asarray(s.s1))])
    yield space, H, B, True


CASE_IDS = ["heisenberg_L6", "aklt_L4", "dm_chain_L5", "transverse_field_L5",
            "spin1_chain_L4", "sigma1_chain_L5"]


@pytest.mark.parametrize("case", range(len(CASE_IDS)), ids=CASE_IDS)
def test_commutator_grid_matches_definition(case):
    space, H, B, real = list(model_cases())[case]
    dyn = HeisenbergDynamics(H)
    assert np.isrealobj(dyn.vecs) == real
    Bm = B.toarray()
    assert np.abs(Bm @ Bm - np.eye(space.total_dim)).max() > 0.1   # not an involution
    xs = list(range(space.n_sites))
    ts = [0.0, 0.35, 1.1]
    grid = commutator_grid(dyn, B, space, xs, ts)
    expect = np.array([[growth_by_definition(dyn, B, x, t, space) for t in ts] for x in xs])
    assert_allclose(grid, expect, rtol=0, atol=1e-12)
    assert grid[:, 1:].min() > 1e-6           # every site sees B by t = 0.35
    for i, j in ((0, 2), (len(xs) - 1, 1), (1, 0)):
        assert commutator_growth(dyn, B, xs[i], ts[j], space) == grid[i, j]


@pytest.mark.parametrize("case", range(len(CASE_IDS)), ids=CASE_IDS)
def test_eigenbasis_is_block_structured(case):
    space, H, B, real = list(model_cases())[case]
    dyn = HeisenbergDynamics(H)
    h = H.toarray()
    V, E = dyn.vecs, dyn.evals
    assert np.linalg.norm(h @ V - V * E, 2) <= 1e-12 * np.linalg.norm(h, 2)
    assert np.linalg.norm(V.conj().T @ V - np.eye(len(E)), 2) <= 1e-12
    # H couples no two blocks, and no eigenvector leaves its block
    column_block = np.repeat(np.arange(len(dyn.bounds) - 1), np.diff(dyn.bounds))
    assert np.all(h[dyn.labels[:, None] != dyn.labels[None, :]] == 0)
    assert np.all(V[dyn.labels[:, None] != column_block[None, :]] == 0)
    assert np.array_equal(dyn.labels[dyn.order], column_block)
    # every other model splits into exactly its magnetization sectors
    expect = 1 if CASE_IDS[case] == "transverse_field_L5" else len(space.magnetization_values())
    assert len(dyn.bounds) - 1 == expect


def mixed_radix_case():
    """A Heisenberg chain of spins 1/2, 1, 1/2, 3/2: site dimensions 2, 3, 2, 4."""
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 0.7), (2, 3, 1.3)],
                    spins={1: 1.0, 3: 1.5})
    space = SpinSpace.from_graph(g)
    assert space.site_dims == (2, 3, 2, 4)
    return space, assemble(heisenberg(g), space)


def entries(B):
    """(targets, sources, weights) of the stored entries of the operator B."""
    coo = B.matrix.tocoo()
    return coo.row, coo.col, coo.data


def assert_dense_rotation(dyn, got, A):
    """The blocks ``got`` against V^H A V from the dense eigenbasis
    ``dyn.vecs``, sliced by ``dyn.bounds``: each given block to 1e-14, and
    every block left out exactly zero."""
    V, b, n = dyn.vecs, dyn.bounds, len(dyn.blocks)
    full = V.conj().T @ A @ V
    for r in range(n):
        for c in range(n):
            want = full[b[r]:b[r + 1], b[c]:b[c + 1]]
            if (r, c) in got:
                assert_allclose(got[r, c], want, rtol=0, atol=1e-14)
            else:
                assert not want.any(), (r, c)


@pytest.mark.parametrize("case", range(len(CASE_IDS) + 1), ids=CASE_IDS + ["mixed_radix_L4"])
def test_gathered_units_match_embedded_rotation(case):
    # the one kernel that moves operators into the eigenbasis, for B (the
    # two-site-plus-one-site B of the first case among them) and for every
    # unit at every site, against the dense rotation of the embedded operator
    if case < len(CASE_IDS):
        space, H, B, _ = list(model_cases())[case]
    else:
        space, H = mixed_radix_case()
        B = embed_at(space, [(3, np.diag([1.7, 0.4, -0.6, -1.5]))])
    dyn = HeisenbergDynamics(H)
    assert_dense_rotation(dyn, dyn._rotated(*entries(B)), B.toarray())
    for x in range(space.n_sites):
        units = dyn.unit_blocks(space, x)
        basis = hermitian_unit_basis(space.site_dims[x])
        assert len(units) == len(basis)
        for got, local in zip(units, basis):
            assert_dense_rotation(dyn, got, embed_at(space, [(x, local)]).toarray())


def test_commutator_grid_matches_definition_on_mixed_radix_chain():
    # units of dimension 2, 3 and 4: identity (a), with no flip sign of B,
    # at the spin-1/2 sites only, identity (b) at every pair of every site
    space, H = mixed_radix_case()
    dyn = HeisenbergDynamics(H)
    B = embed_at(space, [(3, np.diag([1.7, 0.4, -0.6, -1.5]))])
    b_pairs = dyn._rotated(*entries(B))
    repeated = [spinsys.dynamics._repeated_units(dyn, space, x, b_pairs) for x in range(4)]
    assert repeated == [{1, 3}, {4, 6, 8}, {1, 3}, {5, 7, 9, 11, 13, 15}]
    ts = [0.0, 0.35, 1.1]
    grid = commutator_grid(dyn, B, space, range(4), ts)
    expect = np.array([[growth_by_definition(dyn, B, x, t, space) for t in ts] for x in range(4)])
    assert_allclose(grid, expect, rtol=0, atol=1e-12)
    assert grid[:, 1:].min() > 1e-6


@pytest.mark.parametrize("case, repeated", [("sigma3_chain_L6", {1, 3}),
                                            ("transverse_field_L5", {1}),
                                            ("sigma1_chain_L5", {1})])
def test_phase_identity_needs_quarter_phases(case, repeated):
    # identity (b) needs a block phase W with W E_01 W^* = i E_01 that
    # commutes with B: the light-cone campaign's sigma^3 keeps every sector,
    # a transverse field makes H one block, and sigma^1 joins the sectors
    # that E_01 joins with no phase step
    if case == "sigma3_chain_L6":
        g, space, H = chain_setup(6)
        B = embed_at(space, [(3, 2.0 * np.asarray(spin_matrices(0.5).s3))])
    else:
        space, H, B, _ = list(model_cases())[CASE_IDS.index(case)]
    dyn = HeisenbergDynamics(H)
    b_pairs = dyn._rotated(*entries(B))
    for x in range(space.n_sites):
        assert spinsys.dynamics._repeated_units(dyn, space, x, b_pairs) == repeated


# case -> (whether the global flip commutes with H, the flip sign e_B of B,
# the signs eps = e_A e_B of the components solved by parity halves)
FLIP_SIGNS = {"heisenberg_L6": (True, 0, set()), "aklt_L4": (True, 0, set()),
              "dm_chain_L5": (False, 0, set()), "transverse_field_L5": (True, 0, set()),
              # of the units solved at spin 1 only E_11 and E_02 + E_20 have a
              # flip sign, +1
              "spin1_chain_L4": (True, -1, {-1}),
              # the flip swaps the two components of E_01 + E_10, so only
              # E_00 - 1/2 (e_A = -1) is solved by parity halves
              "sigma1_chain_L5": (True, 1, {-1}),
              "transverse_field_sigma3_L5": (True, -1, {1, -1})}


@pytest.mark.parametrize("case", range(len(CASE_IDS) + 1), ids=CASE_IDS + ["mixed_radix_L4"])
def test_flip_mirrors_the_eigenvector_blocks(case):
    # the Dzyaloshinskii-Moriya bonds break the flip; every other H keeps it
    space, H = (list(model_cases())[case][:2] if case < len(CASE_IDS)
                else mixed_radix_case())
    dyn = HeisenbergDynamics(H)
    flip = FLIP_SIGNS[CASE_IDS[case]][0] if case < len(CASE_IDS) else True
    assert (dyn.mirror is not None) == flip
    if not flip:
        assert not dyn.parity.any()
        return
    odd = False
    for b, a in enumerate(dyn.mirror.tolist()):
        s, e = dyn.bounds[b], dyn.bounds[b + 1]
        assert dyn.mirror[a] == b
        if a < b:                     # solved once, mirrored exactly
            assert np.array_equal(dyn.blocks[b], dyn.blocks[a][::-1])
            assert np.array_equal(dyn.evals[s:e], dyn.evals[dyn.bounds[a]:dyn.bounds[a + 1]])
        if a != b:
            assert not dyn.parity[s:e].any()
            continue
        p = dyn.parity[s:e]
        assert set(p.tolist()) <= {1, -1}
        assert np.abs(dyn.blocks[b][::-1] - dyn.blocks[b] * p).max() <= 1e-14
        odd |= (e - s) % 2 == 1
    # the M = 0 sector of a 4-site spin-1 chain has 19 states; its middle
    # state is in the + half
    assert odd == (CASE_IDS[case:case + 1] in (["aklt_L4"], ["spin1_chain_L4"]))


def transverse_field_sigma3_case():
    """The transverse-field chain, one block that the flip maps onto itself,
    with B = 2 S^3 of flip sign -1."""
    s = spin_matrices(0.5)
    space, H, _, _ = list(model_cases())[CASE_IDS.index("transverse_field_L5")]
    return space, H, embed_at(space, [(2, 2.0 * np.asarray(s.s3))])


def recorded_plans(monkeypatch) -> list:
    """(flip, plan) of every component plan the grid makes, in order."""
    plans, plan = [], spinsys.flip._component_plan

    def recorded(blocks, colour, sizes, flip=None):
        got = plan(blocks, colour, sizes, flip)
        plans.append((flip, got))
        return got

    monkeypatch.setattr(spinsys.flip, "_component_plan", recorded)
    return plans


@pytest.mark.parametrize("case", CASE_IDS + ["transverse_field_sigma3_L5"])
def test_flip_parity_solves_where_b_has_a_flip_sign(case, monkeypatch):
    # F K F = eps K with eps = e_A e_B; e_B = 0 (the first four cases, where
    # B has no flip sign or H breaks the flip) solves every component whole
    if case in CASE_IDS:
        space, H, B, _ = list(model_cases())[CASE_IDS.index(case)]
    else:
        space, H, B = transverse_field_sigma3_case()
    _, b_sign, eps = FLIP_SIGNS[case]
    dyn = HeisenbergDynamics(H)
    assert spinsys.dynamics._flip_sign(B.matrix) == b_sign
    plans = recorded_plans(monkeypatch)
    ts = [0.0, 0.35, 1.1]
    grid = commutator_grid(dyn, B, space, range(space.n_sites), ts)
    assert {plan[1] for flip, plan in plans if flip is not None} == eps
    # a whole component is the parity split of the trivial flip: one stack
    assert all(plan[1] == 1 and len(plan[3]) == 1 for flip, plan in plans if flip is None)
    if case == "transverse_field_sigma3_L5":
        expect = np.array([[growth_by_definition(dyn, B, x, t, space) for t in ts]
                           for x in range(space.n_sites)])
        assert_allclose(grid, expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", ["spin1_chain_L4", "sigma1_chain_L5",
                                  "transverse_field_sigma3_L5", "sigma3_chain_L6",
                                  "sigma3_chain_L5", "spin3/2_chain_L3", "spin1_sigma1_L3",
                                  "dm_chain_L5"])
def test_parity_halves_match_the_whole_component(case, monkeypatch):
    # every component solve against the largest |eigvalsh| of the dense K of
    # the whole component it stands for, built here from the blocks of X and,
    # for a parity solve, their mirror images: the grid keeps only the
    # largest unit, which hides an error in the others (the charge-2 units
    # of a spin-1 site, whose blocks join a representative to a mirror
    # block).  The Dzyaloshinskii-Moriya chain breaks the flip, so its
    # uncoloured and 2-coloured components are solved whole.
    s = spin_matrices(0.5)
    if case in CASE_IDS:
        space, H, B, _ = list(model_cases())[CASE_IDS.index(case)]
    elif case == "transverse_field_sigma3_L5":
        space, H, B = transverse_field_sigma3_case()
    elif case in ("spin3/2_chain_L3", "spin1_sigma1_L3"):
        spin = 1.5 if case.startswith("spin3/2") else 1.0
        g = path_graph(3, spin=spin)
        space = SpinSpace.from_graph(g)
        H = assemble(heisenberg(g), space)
        s_spin = spin_matrices(spin)
        # 2 S^3 keeps the sectors; 1.2 S^1 with the charge-2 units gives
        # blocks of X that join a representative to a mirror block across M = 0
        local = 2.0 * s_spin.s3 if spin == 1.5 else 1.2 * s_spin.s1
        B = embed_at(space, [(1, np.asarray(local))])
    else:
        g, space, H = chain_setup(int(case[-1]))
        B = embed_at(space, [(2, 2.0 * np.asarray(s.s3))])
    dyn = HeisenbergDynamics(H)
    norm, checked, plans = spinsys.dynamics._component_norm, set(), recorded_plans(monkeypatch)

    def compared(plan, keys, X, steps):
        got = norm(plan, keys, X, steps)
        colour, _, mirror, _ = plan
        every = sorted(set(keys) | {(mirror[a], mirror[c]) for a, c in keys})
        blocks = sorted({a for key in every for a in key})
        at = np.cumsum([0] + [len(dyn.blocks[a]) for a in blocks]).tolist()
        at = {a: slice(at[k], at[k + 1]) for k, a in enumerate(blocks)}
        K = np.zeros((steps, at[blocks[-1]].stop, at[blocks[-1]].stop), dtype=complex)
        for a, c in every:
            m = X(a, c)
            K[:, at[a], at[c]] += 1j * m
            K[:, at[c], at[a]] -= 1j * m.conj().swapaxes(-1, -2)
        assert_allclose(got, np.abs(np.linalg.eigvalsh(K)).max(axis=1), rtol=0, atol=1e-12)
        checked.add(colour is not None)
        return got

    monkeypatch.setattr(spinsys.dynamics, "_component_norm", compared)
    commutator_grid(dyn, B, space, range(space.n_sites), [0.0, 0.35, 1.1])
    assert any(flip is not None for flip, _ in plans) == (case != "dm_chain_L5")
    if case == "dm_chain_L5":
        assert checked == {False, True}


def test_flip_skips_mirror_components(monkeypatch):
    # spin-1/2 chain of 6 sites, B = 2 S^3: E_00 - 1/2 has one component per
    # sector, the 7 sectors are 3 mirror pairs and M = 0, so 3 are solved
    # whole and M = 0 by its parity halves; E_01 + E_10 has one 2-coloured
    # path through all 7, which the flip maps onto itself
    g, space, H = chain_setup(6)
    dyn = HeisenbergDynamics(H)
    B = embed_at(space, [(3, 2.0 * np.asarray(spin_matrices(0.5).s3))])
    plans, solves = recorded_plans(monkeypatch), []
    norm = spinsys.dynamics._component_norm
    monkeypatch.setattr(spinsys.dynamics, "_component_norm",
                        lambda *args: solves.append(args[0]) or norm(*args))
    commutator_grid(dyn, B, space, range(6), [0.0, 0.7])
    assert [flip is None for flip, _ in plans].count(True) == 6 * 3
    assert [flip is None for flip, _ in plans].count(False) == 6 * 2
    assert solves == [plan for _, plan in plans]


@pytest.mark.parametrize("spin, solved, skipped", [
    (0.5, [(0, 0), (0, 1)], {1, 3}),
    (1.0, [(0, 0), (1, 1), (0, 1), (0, 2)], {2, 4, 6, 7, 8}),
    (1.5, [(0, 0), (1, 1), (0, 1), (0, 2), (0, 3), (1, 2)],
     {2, 3, 5, 7, 9, 11, 12, 13, 14, 15})])
def test_skipped_units_are_never_gathered(spin, solved, skipped, monkeypatch):
    # identity (a) with the flip: the site flip maps E_22 to E_00 and the
    # pair (1, 2) to (0, 1) on a spin-1 site, so with B = 2 S^3 neither is
    # gathered
    g = path_graph(3, spin=spin)
    space = SpinSpace.from_graph(g)
    dyn = HeisenbergDynamics(assemble(heisenberg(g), space))
    B = embed_at(space, [(1, 2.0 * np.asarray(spin_matrices(spin).s3))])
    b_pairs = dyn._rotated(*entries(B))
    for x in range(3):
        assert spinsys.dynamics._repeated_units(dyn, space, x, b_pairs, -1) == skipped
    rotated, rotate = [], HeisenbergDynamics._rotated
    monkeypatch.setattr(HeisenbergDynamics, "_rotated",
                        lambda self, *args: rotated.append(args) or rotate(self, *args))
    ts = [0.0, 0.35, 1.1]
    grid = commutator_grid(dyn, B, space, range(3), ts)
    # B from its entries and their weights, then each solved E_ij once
    want = [spinsys.dynamics._unit_elements(dyn, space, x, i, j)
            for x in range(3) for i, j in solved]
    assert len(rotated) == 1 + len(want) and len(rotated[0]) == 3
    for got, elements in zip(rotated[1:], want):
        assert len(got) == 2 and all(map(np.array_equal, got, elements))
    expect = np.array([[growth_by_definition(dyn, B, x, t, space) for t in ts] for x in range(3)])
    assert_allclose(grid, expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", range(len(CASE_IDS) + 1), ids=CASE_IDS + ["mixed_radix_L4"])
def test_check_by_definition_evolves_b_backwards(case):
    # ||[tau_t(A), B]|| = ||[A, tau_-t(B)]||: the campaign's check by
    # definition against the forward evolution of every unit
    if case < len(CASE_IDS):
        space, H, B, _ = list(model_cases())[case]
    else:
        space, H = mixed_radix_case()
        B = embed_at(space, [(3, np.diag([1.7, 0.4, -0.6, -1.5]))])
    dyn = HeisenbergDynamics(H)
    for x in range(space.n_sites):
        for t in (0.35, 1.1):
            got = _commutator_by_definition(dyn, B.matrix, x, t, space)
            assert abs(got - growth_by_definition(dyn, B, x, t, space)) <= 1e-12


@pytest.mark.parametrize("spin, L, svds, eigvalsh", [(0.5, 6, 3, 0), (1.0, 4, 3, 6)])
def test_check_by_definition_takes_two_valued_units_by_svd(spin, L, svds, eigvalsh,
                                                           monkeypatch):
    # a unit with two eigenvalues is one SVD of the off-diagonal block
    # P X (1 - P): E_00 and both pair units on spin 1/2, where E_11 reuses the
    # projector pair of E_00, and each E_ii on spin 1; the six pair units of
    # spin 1, of eigenvalues 1, 0 and -1, are each one eigvalsh
    g = path_graph(L, spin=spin)
    space = SpinSpace.from_graph(g)
    dyn = HeisenbergDynamics(assemble(heisenberg(g), space))
    B = embed_at(space, [(L // 2, 2.0 * np.asarray(spin_matrices(spin).s3))])
    calls = {"svd": 0, "eigvalsh": 0}

    def counted(name):
        solve = getattr(np.linalg, name)
        return lambda *args, **kw: calls.__setitem__(name, calls[name] + 1) or solve(*args, **kw)

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    got = _commutator_by_definition(dyn, B.matrix, 0, 0.7, space)
    assert calls == {"svd": svds, "eigvalsh": eigvalsh}
    monkeypatch.undo()
    assert abs(got - growth_by_definition(dyn, B, 0, 0.7, space)) <= 1e-12


def test_eigenbasis_blocks_of_a_complex_operator_are_real_products(monkeypatch):
    # a complex B on a real eigenbasis is rotated as its real and imaginary
    # parts, two rotations with real weights
    g, space, H = chain_setup(5)
    dyn = HeisenbergDynamics(H)
    s = spin_matrices(0.5)
    B = embed_local(space, [((1, 2), np.kron(s.s1, s.s2) + np.kron(s.s2, s.s1)),
                            ((3,), s.s2)])
    assert np.any(B.matrix.data.imag) and np.isrealobj(dyn.blocks[0])
    weights, rotate = [], HeisenbergDynamics._rotated
    monkeypatch.setattr(HeisenbergDynamics, "_rotated", lambda self, targets, sources, w=None:
                        weights.append(w) or rotate(self, targets, sources, w))
    got = dyn._rotated(*entries(B))
    assert [np.iscomplexobj(w) for w in weights] == [True, False, False]
    assert_dense_rotation(dyn, got, B.toarray())


@pytest.mark.parametrize("case", CASE_IDS)
def test_evolve_matches_expm(case):
    # the block-wise U^H A U against the dense exponential, for B, a complex
    # Hermitian unit at site 0, and 2 S^1 at site 0, which moves the
    # magnetization: where H has several blocks, 2 S^1 joins no block to
    # itself, so every block (r, r) of its evolution is exactly zero
    from scipy.linalg import expm
    space, H, B, real = list(model_cases())[CASE_IDS.index(case)]
    dyn = HeisenbergDynamics(H)
    assert np.isrealobj(dyn.blocks[0]) == real
    h = H.toarray()
    d = space.site_dims[0]
    local = np.diag(np.linspace(0.2, -0.7, d)).astype(complex)
    local[0, -1], local[-1, 0] = 1 - 0.5j, 1 + 0.5j
    s1 = 2.0 * np.asarray(spin_matrices((d - 1) / 2).s1)
    sigma1 = embed_at(space, [(0, s1)])
    same_block = dyn.labels[:, None] == dyn.labels[None, :]
    for A in (B, embed_at(space, [(0, local)]), sigma1):
        for t in (0.35, -1.1):
            expect = expm(1j * t * h) @ A.toarray() @ expm(-1j * t * h)
            got = dyn.evolve(A, t)
            assert_allclose(got, expect, rtol=0, atol=1e-12)
            if A is sigma1 and len(dyn.blocks) > 1:
                assert not got[same_block].any()
    assert_allclose(dyn.evolve(sigma1.toarray(), 0.35), dyn.evolve(sigma1, 0.35),
                    rtol=0, atol=1e-14)


@pytest.mark.parametrize("shape", [(6, 6), (4, 9), (9, 4)])
@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e150, 1e170])
def test_gram_top_singular_value_matches_svd(shape, scale):
    # s sqrt(lambda_max) of the Gram matrix of k / s, s = max |k_ij|, against
    # the SVD on random complex steps, a rank-1 step and an all-zero one
    rng = np.random.default_rng(40)
    n, m = shape

    def cplx(*size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    steps = [cplx(n, m), cplx(n, m), np.outer(cplx(n), cplx(m)), np.zeros((n, m), complex)]
    for k in np.array(steps) * scale:
        got = spinsys.flip._top_singular(k)
        want = np.linalg.svd(k, compute_uv=False)[0]
        if k.any():
            assert abs(got - want) <= 1e-12 * want
        else:
            assert got == want == 0.0


def test_commutator_grid_embeds_nothing(monkeypatch):
    space, H, B, _ = list(model_cases())[CASE_IDS.index("spin1_chain_L4")]
    dyn = HeisenbergDynamics(H)
    expect = commutator_grid(dyn, B, space, range(space.n_sites), [0.0, 0.7])

    def forbidden(*args, **kwargs):
        raise AssertionError("commutator_grid embedded an operator")

    for name in ("embed_at", "kron_chain", "embed_local", "_embed"):
        monkeypatch.setattr(spinsys.hilbert, name, forbidden)
    monkeypatch.setattr(spinsys.dynamics, "embed_at", forbidden)
    grid = commutator_grid(dyn, B, space, range(space.n_sites), [0.0, 0.7])
    assert grid.tobytes() == expect.tobytes()


def test_commutator_grid_counts_its_stacks_before_forming_them(monkeypatch):
    # the 256-state eigenbasis fits in 10 MB; the stacks of 400 time steps do not
    g, space, H = chain_setup(8)
    dyn = HeisenbergDynamics(H)
    B = embed_at(space, [(4, np.asarray(spin_matrices(0.5).s3))])
    monkeypatch.setattr(spinsys.util, "PHYSICAL_MEMORY", 10 * 2 ** 20)
    HeisenbergDynamics(H)
    norm, formed = spinsys.dynamics._component_norm, []
    monkeypatch.setattr(spinsys.dynamics, "_component_norm",
                        lambda *args: formed.append(args) or norm(*args))
    with pytest.raises(ValueError, match=r"the light-cone stack of 400 time steps at site 0 "
                                         r"needs about [0-9.]+ GiB, above the 0.00977 GiB"):
        commutator_grid(dyn, B, space, range(8), np.linspace(0.0, 1.0, 400))
    assert not formed
    assert commutator_grid(dyn, B, space, range(8), [0.0, 1.0]).shape == (8, 2)
    assert formed


def test_commutator_grid_counts_its_phases_before_forming_them(monkeypatch):
    # the 256-state eigenbasis fits in 52 MB; the phases of 20000 time steps
    # (78 MiB) do not, and are refused before the first is formed
    g, space, H = chain_setup(8)
    dyn = HeisenbergDynamics(H)
    B = embed_at(space, [(4, np.asarray(spin_matrices(0.5).s3))])
    monkeypatch.setattr(spinsys.util, "PHYSICAL_MEMORY", 52 * 2 ** 20)
    monkeypatch.setattr(dyn, "phases", lambda t: pytest.fail("a phase formed before the count"))
    with pytest.raises(ValueError, match=r"the phase stack of 20000 time steps on 256 states "
                                         r"needs about 0.0763 GiB"):
        commutator_grid(dyn, B, space, range(8), np.linspace(0.0, 1.0, 20000))


def test_commutator_grid_rejects_non_hermitian_b():
    g, space, H = chain_setup(4)
    dyn = HeisenbergDynamics(H)
    B = embed_at(space, [(1, np.asarray(spin_matrices(0.5).plus))])
    with pytest.raises(ValueError, match="Hermitian"):
        commutator_grid(dyn, B, space, [0], [0.5])


def test_dense_refusals_give_dimension_and_memory():
    # a diagonal H on 2^15 states: its eigenvector blocks are 2^15 numbers,
    # but the dense unitary of evolve would take 64 GiB, so evolve refuses
    # before allocating it
    H = sps.identity(2 ** 15, format="csr")
    dyn = HeisenbergDynamics(H)
    assert len(dyn.blocks) == 2 ** 15
    with pytest.raises(ValueError, match=r"dense 32768-state eigenbasis needs about "
                                         r"[0-9.e+]+ GiB, above the [0-9.]+ GiB of physical"):
        dyn.evolve(H, 0.1)
    # on 10^6 states, the dense solve of full_spectrum would take terabytes
    H = sps.identity(10 ** 6, format="csr")
    with pytest.raises(ValueError, match=r"dense float64 solve of dimension 1000000 "
                                         r"needs about [0-9.e+]+ GiB"):
        full_spectrum(H)


def test_corollary_bound_requires_exterior_site():
    g = path_graph(5)
    with pytest.raises(ValueError):
        lr_corollary_bound(g, 1.0, 10.0, 2, (2,), 1.0, 1.0, 0.1)
    val = lr_corollary_bound(g, 1.0, 10.0, 0, (3, 4), 1.0, 1.0, 0.1)
    assert val > 0
    # farther site gives a smaller bound
    closer = lr_corollary_bound(g, 1.0, 10.0, 2, (3, 4), 1.0, 1.0, 0.1)
    assert val < closer


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan")])
def test_decay_rate_must_be_positive(lam):
    g = path_graph(4)
    with pytest.raises(ValueError):
        lambda_norm(heisenberg(g), lam, g)
    with pytest.raises(ValueError):
        lr_bound_rhs(g, lam, 5.0, 0, (3,), 1.0, 0.2)
    with pytest.raises(ValueError):
        lr_corollary_bound(g, lam, 5.0, 0, (3,), 1.0, 1.0, 0.2)
    with pytest.raises(ValueError):
        ClusteringRates(0.4, lam, 10.0)


def test_clustering_rates_window():
    rates = ClusteringRates(0.4, 1.0, 10.0)
    assert rates.mu == pytest.approx(0.4 / 40.4)
    assert rates.b_max(3) == pytest.approx(2 * rates.mu * 3 / 0.4)
    # envelope at b=0 reduces to exp(-mu d)
    assert rates.envelope(3, 0.0) == pytest.approx(np.exp(-3 * rates.mu))


def test_ground_correlation_matches_direct_formula():
    # antiferromagnetic sign for a unique ground state
    g = path_graph(4)
    space = SpinSpace.from_graph(g)
    H = assemble(heisenberg(g).scaled(-1.0), space)
    h = H.toarray()
    w, v = np.linalg.eigh(h)
    omega = v[:, 0]
    sz = np.asarray(spin_matrices(0.5).s3)
    A = embed_at(space, [(0, sz)]).toarray()
    B = embed_at(space, [(3, sz)]).toarray()
    b = 0.8
    bc = B - omega @ (B @ omega) * np.eye(len(omega))
    prop = v @ np.diag(np.exp(-b * (w - w[0]))) @ v.conj().T
    expect = omega.conj() @ (A @ (prop @ (bc @ omega)))
    got = ground_correlation(H, A, B, b)
    assert got == pytest.approx(expect, abs=1e-10)


def test_sector_correlator_matches_dense():
    # antiferromagnetic chain so the ground state sits in M = 0
    g = path_graph(6)
    space = SpinSpace.from_graph(g)
    phi = heisenberg(g).scaled(-1.0)
    H = assemble(phi, space)
    sector = magnetization_sector(space, 0.0)
    h_block = restrict(H, sector, dense=False)
    corr = SectorCorrelator(h_block)
    sz = np.asarray(spin_matrices(0.5).s3)
    a_block = restrict(embed_at(space, [(0, sz)]), sector, dense=False)
    b_block = restrict(embed_at(space, [(4, sz)]), sector, dense=False)
    (got,), = corr.correlations(a_block, [b_block], [0.5])

    A = restrict(embed_at(space, [(0, sz)]), sector)
    B = restrict(embed_at(space, [(4, sz)]), sector)
    hb = h_block.toarray()
    w, v = np.linalg.eigh(hb)
    omega = v[:, 0]
    bc = B - (omega.conj() @ (B @ omega)) * np.eye(len(omega))
    prop = v @ np.diag(np.exp(-0.5 * (w - w[0]))) @ v.conj().T
    expect = omega.conj() @ (A.conj().T @ (prop @ (bc @ omega)))
    assert abs(got - expect) < 1e-8


def aklt_ring_block(L=8):
    space = SpinSpace((3,) * L)
    sector = magnetization_sector(space, 0.0)
    h_block = restrict(assemble(aklt(L, periodic=True), space), sector, dense=False)
    sz = np.asarray(spin_matrices(1.0).s3)
    b_block = restrict(embed_at(space, [(3, sz)]), sector, dense=False)
    return h_block, b_block


def test_sector_propagation_matches_dense_on_aklt_ring():
    h_block, b_block = aklt_ring_block()
    corr = SectorCorrelator(h_block)
    w = b_block @ corr.omega
    evals, vecs = np.linalg.eigh(h_block.toarray())
    for b, row in zip((0.5, 6.0), corr.propagate(w, (0.5, 6.0))):
        expect = vecs @ (np.exp(-b * (evals - evals[0])) * (vecs.T @ w))
        assert_allclose(row, expect, atol=1e-12)


@pytest.mark.parametrize("b_max", [0.7, 40.0])
def test_correlation_window_matches_per_b_path(b_max):
    h_block, b_block = aklt_ring_block()
    corr = SectorCorrelator(h_block)
    sector = magnetization_sector(SpinSpace((3,) * 8), 0.0)
    a_block = embed_at(sector, [(0, np.asarray(spin_matrices(1.0).s3))]).matrix
    window = [b_max * k / 4 for k in range(5)]
    rows, = corr.correlations(a_block, [b_block], window)
    per_b = [corr.correlations(a_block, [b_block], [b])[0, 0] for b in window]
    assert rows.shape == (5,)
    assert_allclose(rows, per_b, rtol=0, atol=1e-12)
    state = np.random.get_state()[1].copy()
    corr.correlations(a_block, [b_block], window)
    assert np.array_equal(np.random.get_state()[1], state)


def test_sector_propagation_ignores_global_random_state():
    # at b ||H - E0||_1 this large scipy estimates 1-norms from random vectors
    h_block, b_block = aklt_ring_block()
    corr = SectorCorrelator(h_block)
    w = b_block @ corr.omega
    outs = set()
    for seed in range(10):
        np.random.seed(seed)
        outs.add(corr.propagate(w, [200.0]).tobytes())
    assert len(outs) == 1


ORACLE_BS = [6.0, 0.0, 200.0, 0.5, 40.0, 6.0]      # unsorted, with a repeat


def dense_propagation(h_block, e0, w, bs):
    evals, vecs = np.linalg.eigh(h_block.toarray())
    return [vecs @ (np.exp(-b * (evals - e0)) * (vecs.conj().T @ w)) for b in bs]


def expm_propagation(h_block, e0, w, b):
    from scipy.sparse.linalg import expm_multiply
    shifted = h_block - e0 * sps.identity(h_block.shape[0], format="csr")
    return expm_multiply(-b * shifted, w)


@pytest.mark.parametrize("centred", [True, False])
def test_lanczos_propagation_matches_eigh_and_expm_multiply(centred):
    # AKLT L=8 M=0 (1107 states); the uncentred vector keeps its ground
    # component, which only the largest b isolates
    h_block, b_block = aklt_ring_block()
    corr = SectorCorrelator(h_block)
    w = b_block @ corr.omega
    if centred:
        w = w - np.vdot(corr.omega, w) * corr.omega
    rows = corr.propagate(w, ORACLE_BS)
    assert rows.shape == (len(ORACLE_BS), w.size)
    dense = dense_propagation(h_block, corr.e0, w, ORACLE_BS)
    for b, row, want in zip(ORACLE_BS, rows, dense):
        assert_allclose(row, want, rtol=0, atol=1e-12)
        assert_allclose(row, expm_propagation(h_block, corr.e0, w, b), rtol=0, atol=1e-12)
    assert rows[0].tobytes() == rows[-1].tobytes()          # the repeated b
    assert_allclose(rows[1], w, rtol=0, atol=1e-14)          # b = 0


def test_lanczos_propagation_on_a_complex_hermitian_block():
    # antiferromagnetic Heisenberg chain plus a Dzyaloshinskii-Moriya term
    # D (S1_i S2_j - S2_i S1_j), which conserves M and makes the block complex
    g = path_graph(8)
    space = SpinSpace.from_graph(g)
    s = spin_matrices(0.5)
    dm = 0.4 * (np.kron(s.s1, s.s2) - np.kron(s.s2, s.s1))
    phi = heisenberg(g).scaled(-1.0) + custom([((x, x + 1), dm) for x in range(7)])
    sector = magnetization_sector(space, 0.0)
    h_block = assemble(phi, sector).matrix
    assert h_block.dtype == np.complex128 and abs(h_block.imag).max() > 0.1
    corr = SectorCorrelator(h_block)
    sz = np.asarray(s.s3)
    a_block = embed_at(sector, [(1, sz)]).matrix
    b_block = embed_at(sector, [(6, sz)]).matrix
    w = b_block @ corr.omega
    w -= np.vdot(corr.omega, w) * corr.omega
    rows = corr.propagate(w, ORACLE_BS)
    dense = dense_propagation(h_block, corr.e0, w, ORACLE_BS)
    for b, row, want in zip(ORACLE_BS, rows, dense):
        assert_allclose(row, want, rtol=0, atol=1e-12)
        assert_allclose(row, expm_propagation(h_block, corr.e0, w, b), rtol=0, atol=1e-12)
    vals, = corr.correlations(a_block, [b_block], ORACLE_BS)
    assert_allclose(vals, rows @ (a_block.conj().T @ corr.omega).conj(), rtol=0, atol=1e-12)


class CountedMatvecs:
    """A sparse matrix that counts the vectors multiplied into it."""

    def __init__(self, mat):
        self.mat, self.dtype, self.calls = mat, mat.dtype, 0

    def __matmul__(self, v):
        self.calls += 1
        return self.mat @ v


def test_lanczos_breaks_down_on_an_eigenvector_start():
    # ground level 1 on (e1 - e2)/sqrt 2; e0 is an exact eigenvector of
    # level 3, so the first residual is exactly zero and one step is exact
    h_block = sps.csr_matrix(np.array([[3.0, 0, 0], [0, 2, 1], [0, 1, 2]]))
    corr = SectorCorrelator(h_block)
    corr.h = CountedMatvecs(corr.h)
    w = np.array([2.0, 0.0, 0.0])
    rows = corr.propagate(w, [0.0, 0.5, 7.0])
    assert corr.h.calls == 1
    expect = [2.0 * np.exp(-b * (3.0 - corr.e0)) for b in (0.0, 0.5, 7.0)]
    assert_allclose(rows[:, 0], expect, rtol=1e-14)
    assert not rows[:, 1:].any()


def test_lanczos_propagation_of_zero_is_zero():
    h_block, _ = aklt_ring_block()
    corr = SectorCorrelator(h_block)
    corr.h = CountedMatvecs(corr.h)
    zero = np.zeros(h_block.shape[0])
    assert corr.propagate(zero, [3.0]).shape == (1, zero.size)
    assert not corr.propagate(zero, [3.0]).any()
    assert corr.propagate(zero, (0.0, 1.0)).shape == (2, zero.size)
    assert corr.h.calls == 0


def test_lanczos_propagation_is_bitwise_repeatable():
    h_block, b_block = aklt_ring_block()
    corr = SectorCorrelator(h_block)
    w = b_block @ corr.omega
    first = corr.propagate(w, ORACLE_BS)
    assert first.tobytes() == corr.propagate(w, ORACLE_BS).tobytes()


@pytest.mark.parametrize("b", [[-0.1], [0.0, 1.0, -1e-300], (float("nan"),)])
def test_propagation_rejects_negative_imaginary_time(b):
    h_block, b_block = aklt_ring_block()
    corr = SectorCorrelator(h_block)
    with pytest.raises(ValueError, match="nonnegative"):
        corr.propagate(b_block @ corr.omega, b)


def test_lanczos_step_cap_raises_convergence_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(spinsys.dynamics, "LANCZOS_MAX_STEPS", 4)
    h_block, b_block = aklt_ring_block()
    corr = SectorCorrelator(h_block)
    with pytest.raises(ConvergenceError, match="did not converge in 4 steps"):
        corr.propagate(b_block @ corr.omega, [1.0])
    out = tmp_path / "c.csv"
    assert run(["cluster", "--L", "6", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: Lanczos propagation") and err.count("\n") == 1
    assert not out.exists()


def test_lanczos_basis_is_counted_before_it_is_allocated(monkeypatch):
    # the basis, one returned row per b and four temporaries, each a vector
    # of the sector (26 b at cluster --L 14, where the rows alone are 128 MB)
    h_block, b_block = aklt_ring_block()
    corr = SectorCorrelator(h_block)
    w = b_block @ corr.omega
    empty = np.empty
    for n_b in (1, 26):
        bs = np.linspace(0.0, 2.0, n_b)
        need = (spinsys.dynamics.LANCZOS_MAX_STEPS + n_b + 4) * w.size * 8
        monkeypatch.setattr(spinsys.util, "PHYSICAL_MEMORY", need)
        monkeypatch.setattr(spinsys.dynamics.np, "empty", empty)
        assert corr.propagate(w, bs).shape == (n_b, w.size)
        monkeypatch.setattr(spinsys.util, "PHYSICAL_MEMORY", need - 1)
        monkeypatch.setattr(spinsys.dynamics.np, "empty", None)     # nothing is allocated
        with pytest.raises(ValueError, match=f"^the Lanczos basis of .*, {n_b} rows and 4 "
                                             f"temporaries of {w.size} states .* above the"):
            corr.propagate(w, bs)


@pytest.mark.parametrize("L", [6, 9])
def test_cluster_assembles_each_sector_once(L, tmp_path, monkeypatch):
    sectors = []
    for name in ("spectral", "symmetry", "dynamics"):
        module = getattr(spinsys, name)
        if not hasattr(module, "assemble"):
            continue
        orig = module.assemble

        def spy(phi, basis, _orig=orig):
            sectors.append(getattr(basis, "label", "full space"))
            return _orig(phi, basis)

        monkeypatch.setattr(module, "assemble", spy)
    assert run(["cluster", "--L", str(L), "--out", str(tmp_path / "c.csv")]) == 0
    assert ("M", 0.0) in sectors
    assert len(sectors) == len(set(sectors))


def test_cluster_without_su2_assembles_the_ground_sector_once(monkeypatch):
    # a model whose terms do not commute with the total spin: the correlator
    # propagates on the block the sweep solved, and its rows are those of a
    # correlator built on a fresh assembly of the ground sector, bit for bit
    L = 6
    s3 = np.asarray(spin_matrices(1.0).s3)
    phi = aklt(L, periodic=True) + custom([((x, (x + 1) % L), np.kron(s3, s3))
                                           for x in range(L)]).scaled(0.05)
    g = ring_graph(L, spin=1.0)
    assert not phi.su2_invariant(SpinSpace.from_graph(g))
    sectors = []
    orig = spinsys.spectral.assemble

    def spy(phi, basis):
        sectors.append(basis.label)
        return orig(phi, basis)

    for module in (spinsys.spectral, spinsys.dynamics):
        if hasattr(module, "assemble"):
            monkeypatch.setattr(module, "assemble", spy)
    rep = spinsys.dynamics.clustering_report(g, phi, s3, 1.0)
    assert sectors.count(("M", 0.0)) == 1
    sector = magnetization_sector(SpinSpace.from_graph(g), 0.0)
    corr = SectorCorrelator(orig(phi, sector).matrix)
    block = {x: embed_at(sector, [(x, s3)]).matrix for x in range(L)}
    # one propagation for every pair, at the union of the windows' b and the
    # large-b checks, with the partners in row order
    ys = list(dict.fromkeys(r.y for r in rep.rows))
    union = sorted({r.b for r in rep.rows} | {1.0, 3.0, 6.0})
    want = np.abs(corr.correlations(block[0], [block[y] for y in ys], union)).tolist()
    for y, row in zip(ys, want):
        rows = [r for r in rep.rows if r.y == y]
        large = [v for (yy, _, v, _) in rep.large_b if yy == y]
        assert [r.corr_abs for r in rows] + large == \
            [row[union.index(b)] for b in [r.b for r in rows] + [1.0, 3.0, 6.0]]


def test_bounds_are_infinite_once_the_growth_overflows():
    g = path_graph(5)
    assert lr_bound_rhs(g, 1.0, 1761.0, 0, (3,), 1.0, 1.0) == float("inf")
    assert lr_corollary_bound(g, 1.0, 1761.0, 0, (3,), 1.0, 1.0, 1.0) == float("inf")
    assert lr_bound_rhs(g, 1.0, 1761.0, 0, (3,), 1.0, 0.0) == 0.0
    assert lr_bound_rhs(g, 1.0, 1761.0, 3, (3,), 1.0, 0.1) < float("inf")


def test_large_b_steps_match_one_correlation_per_b(monkeypatch):
    # the large-b values of the pairs' one propagation, rows in the given order
    g = ring_graph(6, spin=1.0)
    phi = aklt(6, periodic=True)
    s3 = np.asarray(spin_matrices(1.0).s3)
    made = []
    monkeypatch.setattr(spinsys.dynamics, "SectorCorrelator",
                        lambda *a, **kw: made.append(SectorCorrelator(*a, **kw)) or made[-1])
    large_bs = (3.0, 1.0, 6.0, 0.0)
    monkeypatch.setattr(spinsys.dynamics, "CLUSTERING_LARGE_B", large_bs)
    rep = spinsys.dynamics.clustering_report(g, phi, s3, 1.0)
    corr, = made
    sector = magnetization_sector(SpinSpace.from_graph(g), 0.0)
    a_block = embed_at(sector, [(0, s3)]).matrix
    ys = sorted({y for (y, _, _, _) in rep.large_b})
    assert [(y, b) for (y, b, _, _) in rep.large_b] == [(y, b) for y in ys for b in large_bs]
    for (y, b, val, _) in rep.large_b:
        want = abs(corr.correlations(a_block, [embed_at(sector, [(y, s3)]).matrix], [b])[0, 0])
        assert val == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_one_propagation_matches_ground_correlation_on_the_aklt_6_ring():
    # every partner's window and large-b values, read from the one propagation
    # from A* Omega, against the dense oracle on the ground sector
    g = ring_graph(6, spin=1.0)
    phi = aklt(6, periodic=True)
    s3 = np.asarray(spin_matrices(1.0).s3)
    rep = spinsys.dynamics.clustering_report(g, phi, s3, 1.0)
    sector = magnetization_sector(SpinSpace.from_graph(g), 0.0)
    h_block = assemble(phi, sector).toarray()
    block = {x: embed_at(sector, [(x, s3)]).toarray() for x in range(6)}
    got = [(r.y, r.b, r.corr_abs) for r in rep.rows] + [(y, b, v) for (y, b, v, _) in rep.large_b]
    assert {y for y, _, _ in got} == {1, 2, 3} and len(got) == 3 * (5 + 3)
    for y, b, val in got:
        want = abs(ground_correlation(h_block, block[0], block[y], b))
        assert val == pytest.approx(want, rel=0, abs=1e-12)


def test_correlations_on_a_complex_block_with_a_non_real_observable():
    # the Dzyaloshinskii-Moriya chain's complex M = 0 block, with a diagonal
    # non-real A and B (so A* differs from A^T): against the dense oracle
    g = path_graph(8)
    s = spin_matrices(0.5)
    dm = 0.4 * (np.kron(s.s1, s.s2) - np.kron(s.s2, s.s1))
    phi = heisenberg(g).scaled(-1.0) + custom([((x, x + 1), dm) for x in range(7)])
    sector = magnetization_sector(SpinSpace.from_graph(g), 0.0)
    h_block = assemble(phi, sector).matrix
    corr = SectorCorrelator(h_block)
    a_local, b_local = np.diag([1.0 + 2.0j, -0.5j]), np.diag([0.3 + 1.0j, -1.0])
    a_block = embed_at(sector, [(1, a_local)]).matrix
    b_blocks = [embed_at(sector, [(y, b_local)]).matrix for y in (6, 2, 4)]
    vals = corr.correlations(a_block, b_blocks, ORACLE_BS)
    assert vals.shape == (3, len(ORACLE_BS))
    evals, vecs = np.linalg.eigh(h_block.toarray())
    omega = vecs[:, 0]
    A = a_block.toarray()
    for row, b_block in zip(vals, b_blocks):
        B = b_block.toarray()
        bc = B - np.vdot(omega, B @ omega) * np.eye(omega.size)
        for b, val in zip(ORACLE_BS, row):
            prop = (vecs * np.exp(-b * (evals - evals[0]))) @ vecs.conj().T
            assert val == pytest.approx(np.vdot(omega, A @ prop @ bc @ omega),
                                        rel=0, abs=1e-12)


@pytest.mark.parametrize("L", [6, 9])
def test_clustering_propagates_once_per_observable_site(L, monkeypatch):
    calls = []
    propagate = SectorCorrelator.propagate

    def counted(self, w, b):
        calls.append(len(b))
        return propagate(self, w, b)

    monkeypatch.setattr(SectorCorrelator, "propagate", counted)
    rep = spinsys.dynamics.clustering_report(ring_graph(L, spin=1.0), aklt(L, periodic=True),
                                             np.asarray(spin_matrices(1.0).s3), 1.0)
    assert len(calls) == len({r.x for r in rep.rows}) == 1
    # the union of the windows (b = 0 shared) and the large-b checks
    assert calls == [len({r.b for r in rep.rows} | {1.0, 3.0, 6.0})]
    assert len({r.y for r in rep.rows}) == L // 2


def test_tiny_decay_rate_gives_a_finite_constant(tmp_path):
    # mu is about 1e-204 at lam = 1e-200: mu^2 underflows to 0, and the
    # envelope must not divide by it
    rep = spinsys.dynamics.clustering_report(ring_graph(5, spin=1.0), aklt(5, periodic=True),
                                             np.asarray(spin_matrices(1.0).s3), 1e-200)
    assert 0 < rep.rates.mu < 1e-200 and rep.rates.mu ** 2 == 0
    assert np.isfinite(rep.c_constant) and rep.bound_holds
    assert all(np.isfinite(r.bound) for r in rep.rows)
    out = tmp_path / "c.csv"
    assert run(["cluster", "--L", "5", "--lam", "1e-200", "--out", str(out)]) == 0
    assert "nan" not in out.read_text()


def test_nan_envelope_fails_the_decay_bound(monkeypatch):
    monkeypatch.setattr(ClusteringRates, "envelope", lambda self, d, b: float("nan"))
    rep = spinsys.dynamics.clustering_report(ring_graph(6, spin=1.0), aklt(6, periodic=True),
                                             np.asarray(spin_matrices(1.0).s3), 1.0)
    assert rep.checked_rows > 0 and not rep.bound_holds


def test_clustering_reuses_the_sweep_ground_state_bit_for_bit(tmp_path, monkeypatch):
    # AKLT L=9: the ground sector (dim 3139) is above the Krylov crossover,
    # so the sweep's solve is the k=2 ARPACK call SectorCorrelator would make
    calls = []
    eigs = spinsys.spectral.extremal_eigs

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        return eigs(*args, **kwargs)

    monkeypatch.setattr(spinsys.spectral, "extremal_eigs", counted)
    monkeypatch.setattr(spinsys.dynamics, "extremal_eigs", counted)
    reused, solved = tmp_path / "reused.csv", tmp_path / "solved.csv"
    assert run(["cluster", "--L", "9", "--out", str(reused)]) == 0
    assert calls == [3139]              # one solve of the ground sector

    class OwnSolve(SectorCorrelator):
        def __init__(self, h_block, lowest=None):
            super().__init__(h_block)

    monkeypatch.setattr(spinsys.dynamics, "SectorCorrelator", OwnSolve)
    assert run(["cluster", "--L", "9", "--out", str(solved)]) == 0
    assert calls == [3139] * 3          # the sweep's, then the correlator's own
    assert reused.read_bytes() == solved.read_bytes()
