import numpy as np
import pytest
import scipy.sparse as sps
from numpy.testing import assert_allclose

from spinsys import (ClassificationError, SparseOperator, SpinSpace, XxzParams,
                     assemble, build_graph, classify_total_spin, custom,
                     embed_at, foel_check, heisenberg, lieb_mattis_check,
                     magnetization_sector, path_graph, restrict, ring_graph,
                     sector_casimir, sector_spectrum, spin_matrices, spin_multiplicities,
                     star_graph, su2_totals, suq2_generators, xxz)
from spinsys.droplets import open_chain_spin_level
from spinsys.symmetry import (CLASSIFY_DEGENERACY_TOL, TotalSpinOps, _label_levels,
                              lieb_mattis_hamiltonian, sector_spin_levels)


def spin_levels(g):
    space = SpinSpace.from_graph(g)
    return classify_total_spin(heisenberg(g), su2_totals(space), space)


def sector_blocks(ladder, space):
    """(2M, sector, C_M) on every magnetization sector."""
    for M in space.magnetization_values():
        twice_m = int(round(2 * M))
        yield twice_m, magnetization_sector(space, M), sector_casimir(ladder, space, twice_m)


def assert_sector_casimirs_match(ladder, space, c_full):
    """C_M from the ladder equals the restricted full-space Casimir on every
    sector, to 1e-12 relative."""
    for _, sector, c in sector_blocks(ladder, space):
        ref = restrict(SparseOperator(c_full), sector)
        assert_allclose(c, ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))


def suq_total_t(ops):
    """The full-space T, the product of t = diag(1/q, q) over the sites."""
    space = SpinSpace((2,) * ops.L)
    return embed_at(space, [(x, np.diag([1 / ops.q, ops.q])) for x in range(ops.L)]).matrix


def suq_casimir_oracle(ops):
    """The full-space q-Casimir S+ S- + ((qT)^-1 + qT) / (1/q - q)^2."""
    q = ops.q
    space = SpinSpace((2,) * ops.L)
    t = suq_total_t(ops).diagonal()
    t_terms = sps.diags((1 / (q * t) + q * t) / (1 / q - q) ** 2)
    return ops.plus(space, space).matrix @ ops.minus(space, space).matrix + t_terms


def test_su2_totals_algebra():
    for dims in [(2, 3, 2), (2, 3, 2, 4, 2)]:
        space = SpinSpace(dims)
        t = su2_totals(space)
        s1, s2, s3 = (sum(embed_at(space, [(x, spin_matrices(space.spin_at(x))[i])]).matrix
                          for x in range(space.n_sites)) for i in range(3))
        assert_allclose(t.plus(space, space).toarray(), (s1 + 1j * s2).toarray(), atol=1e-15)
        assert_allclose(t.minus(space, space).toarray(), (s1 - 1j * s2).toarray(), atol=1e-15)
        assert_sector_casimirs_match(t, space, s1 @ s1 + s2 @ s2 + s3 @ s3)


@pytest.mark.parametrize("ladder,space", [
    (su2_totals(SpinSpace((2, 3, 2, 4, 2))), SpinSpace((2, 3, 2, 4, 2))),
    (su2_totals(SpinSpace((3,) * 5)), SpinSpace((3,) * 5)),
    (suq2_generators(XxzParams.from_q(7, 0.3)), SpinSpace((2,) * 7))],
    ids=["su2_mixed", "su2_spin1", "suq_L7"])
def test_ladder_blocks_match_restricted_full_space_ladders(ladder, space):
    plus, minus = ladder.plus(space, space), ladder.minus(space, space)
    values = space.magnetization_values()
    for upper, lower in zip(values, values[1:]):
        sector, below = (magnetization_sector(space, M) for M in (upper, lower))
        for block, full, src, dst in ((ladder.plus(below, sector), plus, below, sector),
                                      (ladder.minus(sector, below), minus, sector, below)):
            ref = restrict(full, src, target=dst)
            assert block.matrix.dtype == np.float64
            assert block.matrix.shape == (dst.dim, src.dim)
            assert_allclose(block.toarray(), ref, rtol=0,
                            atol=1e-14 * max(1.0, np.abs(ref).max()))
            assert np.array_equal(restrict(block, src, target=dst), block.toarray())


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
    assert max(levels.casimir_residuals.values()) < 1e-8


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
    g = star_graph(3)
    verdict = lieb_mattis_check(g, [0], [1, 2, 3])
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
    for name, op in (("plus", ops.plus), ("minus", ops.minus)):
        m = op(space, space).toarray()
        assert np.abs(h @ m - m @ h).max() < 1e-12, name
    for twice_m, sector, c in sector_blocks(ops, space):
        h_m = restrict(H, sector)
        assert np.abs(h_m @ c - c @ h_m).max() < 1e-12, twice_m
    assert_sector_casimirs_match(ops, space, suq_casimir_oracle(ops))


def test_suq_deformed_commutator():
    # [S+, S-] = (q^(2 S3) - q^(-2 S3)) / (q - 1/q), with T = q^(-2 S3)
    p = XxzParams.from_q(3, 0.4)
    ops = suq2_generators(p)
    q = p.q
    space = SpinSpace((2,) * 3)
    sp_ = ops.plus(space, space).toarray()
    sm = ops.minus(space, space).toarray()
    t = suq_total_t(ops).toarray()
    lhs = sp_ @ sm - sm @ sp_
    rhs = (np.linalg.inv(t) - t) / (q - 1 / q)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_suq_casimir_eigenvalues():
    p = XxzParams.from_q(2, 0.5)
    ops = suq2_generators(p)
    space = SpinSpace((2,) * 2)
    assert_sector_casimirs_match(ops, space, suq_casimir_oracle(ops))
    ev = np.sort(np.concatenate([np.linalg.eigvals(c).real
                                 for _, _, c in sector_blocks(ops, space)]))
    expect = np.sort([ops.casimir_value(0)] + [ops.casimir_value(2)] * 3)
    assert_allclose(ev, expect, atol=1e-10)


def test_suq_reduces_to_su2():
    # q -> 1 limit: compare against the undeformed Casimir on two sites
    p = XxzParams.from_q(2, 0.999999)
    ops = suq2_generators(p)
    space = SpinSpace((2,) * 2)
    assert_sector_casimirs_match(ops, space, suq_casimir_oracle(ops))
    ev = np.sort(np.concatenate([np.linalg.eigvals(c).real
                                 for _, _, c in sector_blocks(ops, space)]))
    # shifted convention: eigenvalue (q^-(2S+1) + q^(2S+1)) / (q^-1 - q)^2
    expect = np.sort([ops.casimir_value(0)] + [ops.casimir_value(2)] * 3)
    assert_allclose(ev, expect, atol=1e-6)


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


def test_classification_rejects_broken_symmetry():
    phi, space = staggered_field_chain(0.3)
    with pytest.raises(ClassificationError, match="ambiguous Casimir label"):
        classify_total_spin(phi, su2_totals(space), space)


def test_classification_rejects_casimir_residual():
    phi, space = staggered_field_chain(1e-7)
    with pytest.raises(ClassificationError, match="Casimir residual .* above tolerance"):
        classify_total_spin(phi, su2_totals(space), space)


def test_classification_rejects_multiplet_count_mismatch():
    class SwappedLadder(TotalSpinOps):
        """SU(2) totals whose Casimir values of S=0 and S=1 are exchanged."""

        def casimir_value(self, twice_s):
            return super().casimir_value({0: 2, 2: 0}.get(twice_s, twice_s))

    g = path_graph(4)
    space = SpinSpace.from_graph(g)
    with pytest.raises(ClassificationError, match="multiplet count mismatch"):
        classify_total_spin(heisenberg(g), SwappedLadder(*su2_totals(space)), space)


def test_classification_rejects_periodic_xxz_with_suq_ladder():
    p = XxzParams.from_q(6, 0.5, boundary="periodic")
    space = SpinSpace((2,) * p.L)
    with pytest.raises(ClassificationError, match="ambiguous Casimir label"):
        classify_total_spin(xxz(p), suq2_generators(p), space)


def test_classification_rejects_sector_without_its_spin():
    # a single spin-1 site: its M = 0 sector holds only the S = 1 state
    g = path_graph(1, spin=1.0)
    space = SpinSpace.from_graph(g)
    with pytest.raises(ClassificationError, match="no state labeled 2S=0"):
        sector_spin_levels(heisenberg(g), su2_totals(space), space, 0,
                           spin_multiplicities(space))


def test_classification_rejects_complex_q_casimir_values():
    # an H-degenerate pair whose block of C' is a rotation: eigenvalues e^(+-0.3i)
    c, s = np.cos(0.3), np.sin(0.3)
    rotation = np.array([[c, -s], [s, c]])
    with pytest.raises(ClassificationError, match="q-Casimir eigenvalues acquired imaginary"):
        _label_levels(np.zeros(2), rotation, {0: 1.0, 2: 3.0}, hermitian_c=False)


def label_by_walk(evals, evecs, c_block, candidates, hermitian_c):
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
        while j < evals.size and evals[j] - evals[j - 1] <= CLASSIFY_DEGENERACY_TOL:
            j += 1
        h_vecs = evecs[:, i:j]
        sub = h_vecs.conj().T @ (c_block @ h_vecs)
        cvals, cvecs = np.linalg.eigh(sub) if hermitian_c else np.linalg.eig(sub)
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


def suq_case(L, q):
    p = XxzParams.from_q(L, q)
    return xxz(p), suq2_generators(p), SpinSpace((2,) * L)


@pytest.mark.parametrize("case", [
    lambda: su2_case(ring_graph(8)), lambda: su2_case(path_graph(5, spin=1.0)),
    lambda: suq_case(8, 0.3), lambda: suq_case(8, 0.5)],
    ids=["spin_half_ring_L8", "spin1_chain_L5", "xxz_open_L8_q0.3", "xxz_open_L8_q0.5"])
def test_eigenbasis_labels_match_direct_walk(case):
    phi, ladder, space = case()
    H = assemble(phi, space)            # the walk's oracle runs on the full space
    spins = spin_multiplicities(space)
    clustered = False
    for twice_s in spins:
        rep = sector_spectrum(H, magnetization_sector(space, twice_s / 2), want_vectors=True)
        evals, vecs = rep.eigenvalues, rep.eigenvectors
        c_block = sector_casimir(ladder, space, twice_s)
        candidates = {t: ladder.casimir_value(t) for t in spins if t >= twice_s}
        ref_labels, ref_res = label_by_walk(evals, vecs, c_block, candidates,
                                            ladder.hermitian_casimir)
        labels, res = _label_levels(evals, vecs.conj().T @ c_block @ vecs, candidates,
                                    ladder.hermitian_casimir)
        assert np.array_equal(labels, ref_labels), twice_s
        assert_allclose(res, ref_res, rtol=0, atol=1e-12)
        # the library path, which builds C' from the sparse Casimir block
        energies, mine_res, sector_levels = sector_spin_levels(phi, ladder, space, twice_s,
                                                               spins)
        mine = ref_labels == twice_s
        assert np.array_equal(energies, evals[mine]) and np.array_equal(sector_levels, evals)
        assert_allclose(mine_res, ref_res[mine], rtol=0, atol=1e-12)
        clustered |= bool(np.any(np.diff(evals) <= CLASSIFY_DEGENERACY_TOL))
    if ladder.hermitian_casimir and space.n_sites == 8:
        assert clustered        # the ring's +-k pairs give multi-vector clusters


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


@pytest.mark.parametrize("L", [6, 8])
@pytest.mark.parametrize("q", [0.3, 0.5])
def test_suq_levels_match_highest_weight_oracle(L, q):
    p = XxzParams.from_q(L, q)
    space = SpinSpace((2,) * L)
    levels = assert_levels_match_highest_weights(xxz(p), suq2_generators(p), space)
    for n in range(L // 2 + 1):
        assert levels.entries[L - 2 * n] == open_chain_spin_level(p, n)
