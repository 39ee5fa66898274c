import numpy as np
import pytest
from numpy.testing import assert_allclose

import spinsys.symmetry
from spinsys import (ClassificationError, SparseOperator, SpinSpace, XxzParams,
                     assemble, build_graph, classify_total_spin, custom,
                     embed_at, foel_check, heisenberg, magnetization_sector,
                     path_graph, restrict, ring_graph, sector_spectrum, spin_matrices,
                     spin_multiplicities, star_graph, su2_totals, suq2_generators, xxz)
from spinsys.droplets import open_chain_spin_level
from spinsys.spectral import DEGENERACY_TOL
from spinsys.symmetry import (SpinResolvedLevels, _checked_plus,
                              _commutator_deviation, _label_levels, lieb_mattis_hamiltonian,
                              lieb_mattis_order, sector_spin_levels)


def spin_levels(g):
    space = SpinSpace.from_graph(g)
    return classify_total_spin(heisenberg(g), su2_totals(space), space)


def su2_totals_full(space):
    """S1, S2, S3 summed over the sites, on the full space."""
    return [sum(embed_at(space, [(x, spin_matrices(space.spin_at(x))[i])]).matrix
                for x in range(space.n_sites)) for i in range(3)]


def su2_casimir_block(space, sector):
    """The dense SU(2) Casimir S.S on ``sector``, restricted from the full space."""
    s1, s2, s3 = su2_totals_full(space)
    return restrict(SparseOperator(s1 @ s1 + s2 @ s2 + s3 @ s3), sector)


def suq_total_t(p):
    """The full-space T, the product of t = diag(1/q, q) over the sites."""
    space = SpinSpace((2,) * p.L)
    return embed_at(space, [(x, np.diag([1 / p.q, p.q])) for x in range(p.L)]).matrix


def suq_minus(p, space):
    """S- = sum_x t_1^-1 ... t_(x-1)^-1 S-_x on the full space, the partner
    of the library's S_q+, built here from its definition."""
    t_inv = np.diag([p.q, 1 / p.q])
    return sum(embed_at(space, [(y, t_inv) for y in range(x)]
                        + [(x, spin_matrices(0.5).minus)]).matrix for x in range(p.L))


def test_su2_totals_algebra():
    for dims in [(2, 3, 2), (2, 3, 2, 4, 2)]:
        space = SpinSpace(dims)
        t = su2_totals(space)
        s1, s2, _ = su2_totals_full(space)
        plus = t.plus(space, space).matrix
        assert_allclose(plus.toarray(), (s1 + 1j * s2).toarray(), atol=1e-15)
        # S- is the transpose of S+, bit for bit on the real entries
        assert_allclose(plus.T.toarray(), (s1 - 1j * s2).toarray(), atol=1e-15)
        # the sector Casimir (S+)^T S+ + M(M + 1) that labels the su2 sweep's
        # Ritz vectors, from the block M -> M + 1 (M(M + 1) alone at the top)
        values = space.magnetization_values()
        for upper, lower in zip([None] + values, values):
            sector = magnetization_sector(space, lower)
            c = lower * (lower + 1) * np.eye(sector.dim)
            if upper is not None:
                up = t.plus(sector, magnetization_sector(space, upper)).matrix
                c += (up.T @ up).toarray()
            assert_allclose(c, su2_casimir_block(space, sector), rtol=0, atol=1e-12)


@pytest.mark.parametrize("ladder,space", [
    (su2_totals(SpinSpace((2, 3, 2, 4, 2))), SpinSpace((2, 3, 2, 4, 2))),
    (su2_totals(SpinSpace((3,) * 5)), SpinSpace((3,) * 5)),
    (suq2_generators(XxzParams.from_q(7, 0.3)), SpinSpace((2,) * 7))],
    ids=["su2_mixed", "su2_spin1", "suq_L7"])
def test_ladder_blocks_match_restricted_full_space_ladders(ladder, space):
    plus = ladder.plus(space, space)
    if ladder.name == "SU(2)":
        s1, s2, _ = su2_totals_full(space)
        minus = SparseOperator(s1 - 1j * s2)
    values = space.magnetization_values()
    for upper, lower in zip(values, values[1:]):
        sector, below = (magnetization_sector(space, M) for M in (upper, lower))
        block = ladder.plus(below, sector)
        checks = [(block.matrix, plus, below, sector)]
        if ladder.name == "SU(2)":
            # the SU(2) lowering block is the transpose of the S+ block
            checks.append((block.matrix.T, minus, sector, below))
        for mat, full, src, dst in checks:
            ref = restrict(full, src, target=dst)
            assert mat.dtype == np.float64
            assert mat.shape == (dst.dim, src.dim)
            assert_allclose(mat.toarray(), ref, rtol=0,
                            atol=1e-14 * max(1.0, np.abs(ref).max()))
        assert np.array_equal(restrict(block, below, target=sector), block.toarray())


def test_spin_multiplicities_from_a_lowest_spin():
    space = SpinSpace((2, 3, 2, 4, 2))
    mult = spin_multiplicities(space)
    for lowest in range(space.twice_m_total_max() % 2, space.twice_m_total_max() + 1, 2):
        assert spin_multiplicities(space, lowest) == {t: m for t, m in mult.items()
                                                      if t >= lowest}


def test_spin_multiplicities_spin_half_chain():
    # four spin-1/2: 2 singlets, 3 triplets, 1 quintet
    mult = spin_multiplicities(SpinSpace((2,) * 4))
    assert mult == {0: 2, 2: 3, 4: 1}


def test_spin_multiplicities_mixed_spins():
    # spin-1 x spin-1/2 decomposes as S = 1/2 + 3/2
    mult = spin_multiplicities(SpinSpace((3, 2)))
    assert mult == {1: 1, 3: 1}


def test_classification_two_sites():
    levels = spin_levels(path_graph(2))
    # ferromagnetic: triplet at -1/4 below singlet at 3/4
    assert levels.entries[2] == pytest.approx(-0.25, abs=1e-12)
    assert levels.entries[0] == pytest.approx(0.75, abs=1e-12)
    assert levels.counts == {0: 1, 2: 1}


def test_classification_mixed_spin_pair():
    g = build_graph(2, [(0, 1, 1.0)], spins={0: 1.0, 1: 0.5})
    levels = spin_levels(g)
    # -J S.S on (1, 1/2): E(3/2) = -1/2, E(1/2) = 1
    assert levels.entries[3] == pytest.approx(-0.5, abs=1e-12)
    assert levels.entries[1] == pytest.approx(1.0, abs=1e-12)


def test_foel_ferromagnetic_chain():
    levels = spin_levels(path_graph(4, spin=1.0))
    verdict = foel_check(levels)
    assert verdict.property == "FOEL"
    assert verdict.holds
    assert verdict.margin > 1e-6
    # E(S) strictly decreasing up to S_max
    energies = [levels.entries[t] for t in levels.spins()]
    assert all(a > b for a, b in zip(energies, energies[1:]))


def test_foel_detects_violation():
    from spinsys.symmetry import SpinResolvedLevels
    fake = SpinResolvedLevels(entries={0: -1.0, 2: -0.5, 4: -0.7},
                              max_entries={0: -1.0, 2: -0.5, 4: -0.7},
                              counts={0: 1, 2: 1, 4: 1}, twice_s_max=4)
    verdict = foel_check(fake)
    assert not verdict.holds
    assert verdict.witness is not None


def test_lieb_mattis_star():
    # the liebmattis campaign's three calls: Hamiltonian, spin table, ordering
    g = star_graph(3)
    space = SpinSpace.from_graph(g)
    levels = classify_total_spin(lieb_mattis_hamiltonian(g, [0], [1, 2, 3]),
                                 su2_totals(space), space)
    verdict = lieb_mattis_order(levels, g, [0], [1, 2, 3])
    assert verdict.holds
    assert verdict.margin > 1e-6


def test_lieb_mattis_hamiltonian_sign_structure():
    g = path_graph(4)
    phi = lieb_mattis_hamiltonian(g, [0, 2], [1, 3])
    # every cross-edge term is antiferromagnetic (+S.S), none intra here
    assert len(phi.terms) == len(g.edges)
    with pytest.raises(ValueError):
        lieb_mattis_hamiltonian(g, [0, 1], [2, 3])   # edge inside part A


def test_suq_generators_commute_with_hamiltonian():
    p = XxzParams.from_q(4, 0.5)
    space = SpinSpace((2,) * 4)
    H = assemble(xxz(p), space)
    ops = suq2_generators(p)
    h = H.toarray()
    for name, m in (("plus", ops.plus(space, space).toarray()),
                    ("minus", suq_minus(p, space).toarray())):
        assert np.abs(h @ m - m @ h).max() < 1e-12, name
    # the sliced block check the classification runs, on every sector pair
    values = space.magnetization_values()
    for upper, lower in zip(values, values[1:]):
        sector, below = (magnetization_sector(space, M) for M in (upper, lower))
        dev = _commutator_deviation(assemble(xxz(p), below).matrix,
                                    assemble(xxz(p), sector).matrix,
                                    ops.plus(below, sector).matrix)
        assert dev < 1e-14, upper


@pytest.mark.parametrize("J", [0.5, 2.0])
def test_suq_block_commutator_holds_at_any_coupling(J):
    # the boundary field scales with J as the bonds do: every block pair of
    # the open chain passes the checked S_q+ step, and the walk classifies it
    p = XxzParams.from_q(6, 0.3, J=J)
    space = SpinSpace((2,) * p.L)
    ladder = suq2_generators(p)
    values = space.magnetization_values()
    for upper, lower in zip(values, values[1:]):
        sector, below = (magnetization_sector(space, M) for M in (upper, lower))
        _checked_plus(ladder, below, sector, assemble(xxz(p), below).matrix,
                      assemble(xxz(p), sector).matrix)
    assert classify_total_spin(xxz(p), ladder, space).counts == spin_multiplicities(space)


def test_suq_deformed_commutator():
    # [S+, S-] = (q^(2 S3) - q^(-2 S3)) / (q - 1/q), with T = q^(-2 S3)
    p = XxzParams.from_q(3, 0.4)
    ops = suq2_generators(p)
    q = p.q
    space = SpinSpace((2,) * 3)
    sp_ = ops.plus(space, space).toarray()
    sm = suq_minus(p, space).toarray()
    t = suq_total_t(p).toarray()
    lhs = sp_ @ sm - sm @ sp_
    rhs = (np.linalg.inv(t) - t) / (q - 1 / q)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_suq_reduces_to_su2():
    # q -> 1 limit: S_q+ tends to the SU(2) S+, and the open chain (Delta -> 1,
    # field -> 0) to the ferromagnetic Heisenberg chain shifted by J (L - 1) / 4
    L, q = 4, 0.999999
    p = XxzParams.from_q(L, q)
    space = SpinSpace((2,) * L)
    assert_allclose(suq2_generators(p).plus(space, space).toarray(),
                    su2_totals(space).plus(space, space).toarray(), atol=1e-5)
    deformed = classify_total_spin(xxz(p), suq2_generators(p), space)
    plain = spin_levels(path_graph(L))
    assert deformed.counts == plain.counts
    for t in plain.spins():
        assert deformed.entries[t] == pytest.approx(plain.entries[t] + (L - 1) / 4, abs=1e-5)


def test_ring_levels_cover_su2_grid():
    levels = spin_levels(ring_graph(5))
    assert levels.spins() == [1, 3, 5]
    mult = spin_multiplicities(SpinSpace((2,) * 5))
    assert levels.counts == mult


def staggered_field_chain(h):
    """L=4 Heisenberg chain plus the staggered field h (-1)^x S3_x, which
    breaks SU(2)."""
    g = path_graph(4)
    s3 = np.asarray(spin_matrices(0.5).s3)
    field = custom([((x,), h * (-1) ** x * s3) for x in range(4)])
    return heisenberg(g) + field, SpinSpace.from_graph(g)


COMMUTATOR_ERROR = r"H does not commute with S\+: \|\|H S\+ - S\+ H\|\| = .* from M = "


def test_block_commutator_does_not_depend_on_its_slices(monkeypatch):
    # the deviation of a broken SU(2) is the same in one slice as in one
    # slice per row: 66 multiply-adds of 12 bytes in a 256-byte budget
    phi, space = staggered_field_chain(0.3)
    below, above = (magnetization_sector(space, M) for M in (0, 1))
    args = (assemble(phi, below).matrix, assemble(phi, above).matrix,
            su2_totals(space).plus(below, above).matrix)
    devs = []
    for budget in (2 ** 8, 2 ** 30):
        monkeypatch.setattr(spinsys.symmetry, "COMMUTATOR_SLICE_BYTES", budget)
        devs.append(_commutator_deviation(*args))
    assert devs[0] == devs[1] > 1e-2


def test_classification_rejects_broken_symmetry():
    phi, space = staggered_field_chain(0.3)
    with pytest.raises(ClassificationError, match=COMMUTATOR_ERROR):
        classify_total_spin(phi, su2_totals(space), space)


def test_classification_rejects_weakly_broken_symmetry():
    # a field far below any level spacing still fails the block commutator
    phi, space = staggered_field_chain(1e-7)
    with pytest.raises(ClassificationError, match=COMMUTATOR_ERROR):
        classify_total_spin(phi, su2_totals(space), space)


def test_classification_rejects_periodic_xxz_with_suq_ladder():
    p = XxzParams.from_q(6, 0.5, boundary="periodic")
    space = SpinSpace((2,) * p.L)
    with pytest.raises(ClassificationError, match=COMMUTATOR_ERROR):
        classify_total_spin(xxz(p), suq2_generators(p), space)


def test_classification_rejects_unnested_spectra(monkeypatch):
    # H passes the commutator check, but the sector above holds a level the
    # sector below lacks: M = 1 of H + 0.5 S3 is shifted by 0.5 against M = 0
    # (S3 commutes with every block of H, not with S+; a spy drops the check)
    g = path_graph(4)
    space = SpinSpace.from_graph(g)
    s3 = np.asarray(spin_matrices(0.5).s3)
    phi = heisenberg(g) + custom([((x,), 0.5 * s3) for x in range(4)])
    monkeypatch.setattr(spinsys.symmetry, "_commutator_deviation", lambda *a: 0.0)
    with pytest.raises(ClassificationError, match="has no partner in M = "):
        classify_total_spin(phi, su2_totals(space), space)


def test_classification_rejects_sector_without_its_spin():
    # a single spin-1 site: its M = 0 sector holds only the S = 1 state
    g = path_graph(1, spin=1.0)
    space = SpinSpace.from_graph(g)
    with pytest.raises(ClassificationError, match="no spin-S level with 2S=0"):
        sector_spin_levels(heisenberg(g), su2_totals(space), space, 0)
    # the table has no spin-0 entry, but keeps the sector's level
    levels = classify_total_spin(heisenberg(g), su2_totals(space), space)
    assert levels.spins() == [2] and sorted(levels.sector_levels) == [0, 2]


@pytest.mark.parametrize("case", ["heisenberg_ring6", "xxz_open_L7"])
def test_classification_solves_each_sector_once(case, monkeypatch):
    if case == "heisenberg_ring6":
        g = ring_graph(6)
        space = SpinSpace.from_graph(g)
        phi, ladder = heisenberg(g), su2_totals(space)
    else:
        p = XxzParams.from_q(7, 0.4)
        space = SpinSpace((2,) * 7)
        phi, ladder = xxz(p), suq2_generators(p)
    calls = []
    solve = spinsys.symmetry.sector_spectrum

    def spy(H, sector, k="all", want_vectors=False):
        calls.append((sector.label[1], k, want_vectors))
        return solve(H, sector, k=k, want_vectors=want_vectors)

    monkeypatch.setattr(spinsys.symmetry, "sector_spectrum", spy)
    levels = classify_total_spin(phi, ladder, space)
    nonnegative = [M for M in space.magnetization_values() if M >= 0]
    assert sorted(M for M, _, _ in calls) == sorted(nonnegative)
    assert all(k == "all" and not vectors for _, k, vectors in calls)
    assert sorted(levels.sector_levels) == sorted(int(2 * M) for M in nonnegative)


def test_ordering_witnesses_are_plain_floats():
    e = {t: np.float64(v) for t, v in {0: -1.0, 2: -0.5, 4: -0.7}.items()}
    fake = SpinResolvedLevels(entries=e, max_entries=e, counts={0: 1, 2: 1, 4: 1},
                              twice_s_max=4)
    g = path_graph(4)
    for verdict in (foel_check(fake), lieb_mattis_order(fake, g, [0, 2], [1, 3])):
        assert not verdict.holds
        assert all(type(x) in (int, float) for x in verdict.witness), verdict.witness


def label_by_walk(evals, evecs, c_block, candidates):
    """The direct walk that labelling in the H eigenbasis replaced, kept as
    its oracle: per H-degenerate cluster the dense Casimir block is
    restricted to the cluster's eigenvectors and diagonalised, each vector is
    labeled by the nearest candidate, and its residual ||C v - c v|| /
    max(1, |c|) is taken with the dense C."""
    cand_ts = sorted(candidates)
    cand_vals = np.array([candidates[t] for t in cand_ts])
    labels, residuals = [], []
    i = 0
    while i < evals.size:
        j = i + 1
        while j < evals.size and evals[j] - evals[j - 1] <= DEGENERACY_TOL:
            j += 1
        h_vecs = evecs[:, i:j]
        sub = h_vecs.conj().T @ (c_block @ h_vecs)
        cvals, cvecs = np.linalg.eigh(sub)
        for k in range(cvals.size):
            best = int(np.argmin(np.abs(cand_vals - cvals[k].real)))
            vec = h_vecs @ (cvecs[:, k] / np.linalg.norm(cvecs[:, k]))
            resid = np.linalg.norm(c_block @ vec - cand_vals[best] * vec)
            labels.append(cand_ts[best])
            residuals.append(resid / max(1.0, abs(cand_vals[best])))
        i = j
    return np.array(labels), np.array(residuals)


def su2_case(g):
    space = SpinSpace.from_graph(g)
    return heisenberg(g), su2_totals(space), space


@pytest.mark.parametrize("case", [
    lambda: su2_case(ring_graph(8)), lambda: su2_case(path_graph(5, spin=1.0))],
    ids=["spin_half_ring_L8", "spin1_chain_L5"])
def test_eigenbasis_labels_match_direct_walk(case):
    phi, ladder, space = case()
    H = assemble(phi, space)            # the walk's oracle runs on the full space
    spins = spin_multiplicities(space)
    clustered = False
    for twice_s in spins:
        sector = magnetization_sector(space, twice_s / 2)
        rep = sector_spectrum(H, sector, want_vectors=True)
        evals, vecs = rep.eigenvalues, rep.eigenvectors
        c_block = su2_casimir_block(space, sector)
        candidates = {t: t / 2 * (t / 2 + 1) for t in spins if t >= twice_s}
        ref_labels, ref_res = label_by_walk(evals, vecs, c_block, candidates)
        labels, res = _label_levels(evals, vecs, c_block @ vecs, twice_s)
        assert np.array_equal(labels, ref_labels), twice_s
        assert_allclose(res, ref_res, rtol=0, atol=1e-12)
        # the library path, which takes the nested sector spectra instead
        energies, sector_levels = sector_spin_levels(phi, ladder, space, twice_s)
        mine = ref_labels == twice_s
        assert_allclose(energies, evals[mine], rtol=0, atol=1e-12)
        assert_allclose(sector_levels, evals, rtol=0, atol=1e-12)
        clustered |= bool(np.any(np.diff(evals) <= DEGENERACY_TOL))
    if space.n_sites == 8:
        assert clustered        # the ring's +-k pairs give multi-vector clusters


def test_label_refuses_a_casimir_value_between_two_spins():
    # a Rayleigh value of 1, midway between S(S+1) = 0 and 2 on the grid of
    # the sector M0 = 0, is no label: its residual is 1 against either
    V = np.eye(3)[:, :2]
    CV = np.diag([0.0, 1.0, 2.0])[:, :2]
    with pytest.raises(ClassificationError, match="Casimir residual 1.000e"):
        _label_levels(np.array([0.0, 1.0]), V, CV, 0)
    labels, res = _label_levels(np.array([0.0, 1.0]), V, np.diag([0.0, 2.0, 0.0])[:, :2], 0)
    assert labels.tolist() == [0, 2] and res.max() == 0.0


def highest_weight_levels(H, ladder, space):
    """Oracle for E(H,S): H restricted to ker S+ on the sector M = S, with
    the kernel taken from the SVD of the dense S+ block (M -> M+1).
    Returns 2S -> (lowest eigenvalue, kernel dimension)."""
    out = {}
    tmax = space.twice_m_total_max()
    for twice_s in range(tmax % 2, tmax + 1, 2):
        sector = magnetization_sector(space, twice_s / 2)
        if twice_s < tmax:
            above = magnetization_sector(space, twice_s / 2 + 1)
            up = restrict(ladder.plus(space, space), sector, target=above)
            _, sv, vh = np.linalg.svd(up)
            rank = int(np.sum(sv > 1e-10 * sv.max()))
            kernel = vh[rank:].conj().T
        else:
            kernel = np.eye(sector.dim)
        if kernel.shape[1]:
            h_hw = kernel.conj().T @ restrict(H, sector) @ kernel
            out[twice_s] = (np.linalg.eigvalsh(h_hw)[0], kernel.shape[1])
    return out


def assert_levels_match_highest_weights(phi, ladder, space):
    # oracle: the highest weights of the full-space H
    levels = classify_total_spin(phi, ladder, space)
    oracle = highest_weight_levels(assemble(phi, space), ladder, space)
    assert sorted(oracle) == levels.spins()
    for twice_s, (e_hw, dim_hw) in oracle.items():
        assert abs(levels.entries[twice_s] - e_hw) <= 1e-10, twice_s
        assert levels.counts[twice_s] == dim_hw, twice_s
    return levels


@pytest.mark.parametrize("g", [path_graph(8), path_graph(5, spin=1.0)],
                         ids=["spin_half_L8", "spin1_L5"])
def test_su2_levels_match_highest_weight_oracle(g):
    space = SpinSpace.from_graph(g)
    assert_levels_match_highest_weights(heisenberg(g), su2_totals(space), space)


# (q, L) = (0.2, 12) failed the q-Casimir residual check that labelled the
# levels before the nested spectra replaced it
@pytest.mark.parametrize("q,L", [(0.3, 6), (0.3, 8), (0.5, 6), (0.5, 8), (0.2, 12)])
def test_suq_levels_match_highest_weight_oracle(q, L):
    p = XxzParams.from_q(L, q)
    space = SpinSpace((2,) * L)
    levels = assert_levels_match_highest_weights(xxz(p), suq2_generators(p), space)
    for n in range(L // 2 + 1):
        assert levels.entries[L - 2 * n] == open_chain_spin_level(p, n)
