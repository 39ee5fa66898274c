import numpy as np
import pytest
import scipy.sparse as sps
from numpy.testing import assert_allclose

import spinsys.spectral
import spinsys.symmetry
import spinsys.util
from spinsys import (SparseOperator, SpinSpace, XxzParams, aklt, assemble, build_graph, custom,
                     extremal_eigs, frustration_free_check, full_spectrum, heisenberg,
                     magnetization_sector, path_graph, restrict, ring_graph,
                     sector_spectrum, sector_sweep_lowest, spectral_gap, spin_matrices,
                     star_graph, xxz)
from spinsys.models import Interaction
from spinsys.spectral import SpectrumReport
from spinsys.ssep import ssep_spin_interaction
from spinsys.util import require_memory
from spinsys.symmetry import (ClassificationError, Ladder, _level_difference,
                              classify_total_spin, lieb_mattis_hamiltonian)


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def test_full_spectrum_sorted_with_residuals():
    rng = np.random.default_rng(0)
    h = random_hermitian(rng, 40)
    rep = full_spectrum(h, want_vectors=True)
    assert np.all(np.diff(rep.eigenvalues) >= -1e-12)
    vecs = rep.eigenvectors
    residuals = np.linalg.norm(h @ vecs - vecs * rep.eigenvalues, axis=0)
    assert residuals.max() < 1e-10


def test_lanczos_matches_dense_small():
    rng = np.random.default_rng(1)
    h = random_hermitian(rng, 120)
    dense = np.sort(np.linalg.eigvalsh(h))
    rep = extremal_eigs(h, k=5)
    assert_allclose(rep.eigenvalues, dense[:5], atol=1e-9)
    assert rep.residuals.max() < 1e-8


def test_lanczos_degenerate_spectrum():
    # the Krylov space of any start vector is at most 3-dimensional here,
    # and the lowest level is an exact zero; the rotation keeps the matrix
    # off the diagonal shortcut, on ARPACK
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((100, 100)))
    h = q @ np.diag([0.0] * 5 + [1.0] * 60 + [2.0] * 35) @ q.T
    rep = extremal_eigs(h, k=4)
    assert_allclose(rep.eigenvalues, [0, 0, 0, 0], atol=1e-10)


def szsz_ring(L):
    """The S3 S3 ring perturbation of the ``perturb`` campaign (spin 1)."""
    s3 = np.asarray(spin_matrices(1.0).s3)
    return custom([((x, (x + 1) % L), np.kron(s3, s3)) for x in range(L)])


def test_forced_krylov_matches_dense_on_aklt_ring(monkeypatch):
    # a start vector invariant under the ring's symmetries stays in the
    # symmetric subspace and misses levels in most sectors; every sector is
    # solved on its own, as the declared AKLT ring's sweep solves only M = 0
    monkeypatch.setattr(spinsys.spectral, "KRYLOV_CROSSOVER", 100)
    space = SpinSpace((3,) * 8)
    H = assemble(aklt(8, periodic=True), space)
    for M in space.magnetization_values():
        sec = magnetization_sector(space, M)
        dense = np.linalg.eigvalsh(restrict(H, sec))[:3]
        got = sector_spectrum(H, sec, k=3).eigenvalues[:3]   # dense sectors give all
        assert_allclose(got, dense[:got.size], atol=1e-9, err_msg=str(sec.label))


def test_krylov_finds_degenerate_copy_heisenberg_afm_ring():
    # the second and third levels are degenerate, and Lanczos finds a second copy of a level only through rounding
    g = ring_graph(12, weight=-1.0)
    space = SpinSpace.from_graph(g)
    block = restrict(assemble(heisenberg(g), space), magnetization_sector(space, 4),
                     dense=False)
    rep = extremal_eigs(block, k=3)
    assert_allclose(rep.eigenvalues, np.linalg.eigvalsh(block.toarray())[:3], atol=1e-9)


def xx_chain(L, periodic):
    """H = sum (S1 S1 + S2 S2) on the spin-1/2 chain of L sites."""
    s = spin_matrices(0.5)
    bond = (np.kron(s.s1, s.s1) + np.kron(s.s2, s.s2)).real
    pairs = [(x, x + 1) for x in range(L - 1)] + [(L - 1, 0)] * periodic
    return custom([(p, bond) for p in pairs])


@pytest.mark.parametrize("L, M, k, periodic", [
    # ARPACK alone returned 5 of the 6 copies of -4.60731 here (and -4.48650
    # as the 16th level), and 7 of the 8 copies of -5.08512 on the even ring
    (17, 0.5, 16, True), (18, 0.0, 16, True),
    (18, 0.0, 12, False), (18, 1.0, 8, False)])
def test_krylov_matches_free_fermions(L, M, k, periodic, free_fermion_levels):
    sector = magnetization_sector(SpinSpace((2,) * L), M)
    rep = extremal_eigs(assemble(xx_chain(L, periodic), sector), k=k)
    want = free_fermion_levels(L, int(M + L / 2), k, periodic)
    assert_allclose(rep.eigenvalues, want, rtol=0, atol=1e-11)
    assert rep.residuals.max() < 1e-11
    # nothing below E_k is left on the complement of the returned vectors
    assert rep.complement_level >= want[-1] - 1e-9


def planted_miss(monkeypatch, lower=0.0):
    """Patch ``eigsh`` so that its first call asks for one level more and
    drops the second-lowest (a copy of the degenerate level 1 of the matrix
    below), and its n-th call for n > 1 returns its level moved down by
    n ``lower``, below every level before it.  Returns the list of the ``k``
    of each call."""
    import scipy.sparse.linalg as spla
    eigsh, calls = spla.eigsh, []

    def planted(A, k, **kwargs):
        calls.append(k)
        if len(calls) > 1:
            vals, vecs = eigsh(A, k=k, **kwargs)
            return vals - lower * len(calls), vecs
        vals, vecs = eigsh(A, k=k + 1, **kwargs)
        keep = np.r_[0, 2:k + 1]
        return vals[keep], vecs[:, keep]

    monkeypatch.setattr(spla, "eigsh", planted)
    return calls


def degenerate_rotated(n=60):
    """A dense rotation of diag(0, 1, 1, 1, 2, 3, ...): a threefold level 1."""
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((n, n)))
    return q @ np.diag(np.r_[0.0, 1.0, 1.0, np.arange(1.0, n - 2)]) @ q.T


def test_complement_check_locks_in_a_missed_copy(monkeypatch):
    calls = planted_miss(monkeypatch)
    rep = extremal_eigs(degenerate_rotated(), k=4)
    # ARPACK returned [0, 1, 1, 2]; the complement held the third 1, and
    # after it was locked in the lowest level left there is 2
    assert calls == [4, 1, 1]
    assert_allclose(rep.eigenvalues, [0, 1, 1, 1], atol=1e-10)
    assert rep.complement_level == pytest.approx(2.0, abs=1e-10)
    assert rep.residuals.max() < 1e-10


def test_complement_check_gives_up_after_k_rounds(monkeypatch):
    calls = planted_miss(monkeypatch, lower=100.0)
    with pytest.raises(spinsys.spectral.ConvergenceError, match="after 4 rounds"):
        extremal_eigs(degenerate_rotated(), k=4)
    assert calls == [4] + [1] * 5


def test_krylov_is_bitwise_repeatable(monkeypatch):
    space = SpinSpace((3,) * 6)
    H = assemble(aklt(6, periodic=True), space)
    block = restrict(H, magnetization_sector(space, 0), dense=False)
    a = extremal_eigs(block, k=3)
    b = extremal_eigs(block, k=3)
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
    assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()
    # concurrent ARPACK runs, one per sector, give the same bytes (on the
    # perturbed ring, which is not SU(2)-invariant, and whose one-site S3
    # field breaks the spin flip, so every sector is solved)
    monkeypatch.setattr(spinsys.spectral, "KRYLOV_CROSSOVER", 100)
    field = custom([((0,), 0.03 * np.asarray(spin_matrices(1.0).s3))])
    phi = aklt(6, periodic=True) + szsz_ring(6).scaled(0.05) + field
    one, per_sector = sector_sweep_lowest(phi, space, k=3, threads=1)
    four, _ = sector_sweep_lowest(phi, space, k=3, threads=4)
    assert sum(rep.eigenvalues.size == 3 for rep in per_sector.values()) >= 3
    assert one.eigenvalues.tobytes() == four.eigenvalues.tobytes()


def test_require_memory_compares_with_physical_memory(monkeypatch):
    monkeypatch.setattr(spinsys.util, "PHYSICAL_MEMORY", 2 ** 30)
    require_memory(2 ** 30, "one GiB")
    with pytest.raises(ValueError, match=r"^two GiB needs about 2 GiB, above the "
                                         r"1 GiB of physical memory$"):
        require_memory(2 ** 31, "two GiB")


def test_arpack_refuses_before_eigsh(monkeypatch):
    # the AKLT ring's M = 0 block (1107 states, 11907 nonzeros) against 100 kB
    space = SpinSpace((3,) * 8)
    block = assemble(aklt(8, periodic=True), magnetization_sector(space, 0)).matrix

    def eigsh(*args, **kwargs):
        raise AssertionError("eigsh ran")

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", eigsh)
    monkeypatch.setattr(spinsys.util, "PHYSICAL_MEMORY", 10 ** 5)
    with pytest.raises(ValueError, match="ARPACK on 1107 states needs about .* GiB"):
        extremal_eigs(block, k=2)


def test_sector_spectrum_union_is_full_spectrum():
    g = ring_graph(6)
    space = SpinSpace.from_graph(g)
    H = assemble(heisenberg(g), space)
    whole = np.sort(full_spectrum(H).eigenvalues)
    parts = []
    for M in space.magnetization_values():
        parts.append(sector_spectrum(H, magnetization_sector(space, M)).eigenvalues)
    union = np.sort(np.concatenate(parts))
    assert union.size == whole.size
    assert np.abs(union - whole).max() < 1e-10


def test_spectral_gap_degeneracy_counting():
    rep = SpectrumReport(np.array([-1.0, -1.0 + 1e-12, 0.5, 0.7]))
    gap = spectral_gap(rep)
    assert gap.ground_degeneracy == 2
    assert gap.gap == pytest.approx(1.5, abs=1e-9)


def test_sector_sweep_matches_dense():
    # a boundary field breaks SU(2), so every sector is solved
    g = path_graph(8)
    space = SpinSpace.from_graph(g)
    field = custom([((0,), 0.3 * np.asarray(spin_matrices(0.5).s3))])
    phi = heisenberg(g) + field
    merged, per_sector = sector_sweep_lowest(phi, space, k=3, threads=2)
    dense = np.sort(np.linalg.eigvalsh(assemble(phi, space).toarray()))
    assert_allclose(merged.eigenvalues[:3], dense[:3], atol=1e-9)
    assert set(per_sector) == {("M", M) for M in space.magnetization_values()}


def test_sweep_thread_counts_agree_bitwise():
    g = path_graph(7)
    space = SpinSpace.from_graph(g)
    a, _ = sector_sweep_lowest(heisenberg(g), space, k=2, threads=1)
    b, _ = sector_sweep_lowest(heisenberg(g), space, k=2, threads=4)
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()


def test_lanczos_random_matrix_battery():
    # infrastructure guarantee: Lanczos extremal values match dense eigh
    # to 1e-9 across sizes and seeds
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(16, 513))
        h = random_hermitian(rng, n)
        dense = np.sort(np.linalg.eigvalsh(h))
        k = int(rng.integers(1, 4))
        rep = extremal_eigs(h, k=k)
        worst = max(worst, np.abs(rep.eigenvalues - dense[:k]).max())
    assert worst < 1e-9, f"worst deviation {worst:.3e}"


def star_lieb_mattis(n_leaves, spin):
    g = star_graph(n_leaves, spin=spin)
    return lieb_mattis_hamiltonian(g, [0], range(1, n_leaves + 1)), SpinSpace.from_graph(g)


def bilinear_biquadratic_ring(L, theta):
    """cos(theta) S.S + sin(theta) (S.S)^2 on the spin-1 ring."""
    s = spin_matrices(1.0)
    dot = sum(np.kron(a, a) for a in (s.s1, s.s2, s.s3))
    bond = np.cos(theta) * dot + np.sin(theta) * dot @ dot
    return custom([((x, (x + 1) % L), bond) for x in range(L)]), SpinSpace((3,) * L)


def seeded_chorded_ring(L, chords, seed):
    """A ring of L vertices plus chords, every rate seeded in [0.5, 1.5]."""
    rng = np.random.default_rng(seed)
    pairs = [(x, (x + 1) % L) for x in range(L)] + chords
    return build_graph(L, [(x, y, float(rng.uniform(0.5, 1.5))) for x, y in pairs])


# the last three are plain sums of custom-built terms
REDUCED_SWEEP_CASES = {
    "aklt_ring_6": lambda: (aklt(6, periodic=True), SpinSpace((3,) * 6)),
    "aklt_ring_8": lambda: (aklt(8, periodic=True), SpinSpace((3,) * 8)),
    "aklt_open_6": lambda: (aklt(6), SpinSpace((3,) * 6)),    # S = 0 and 1 at E = 0
    "heisenberg_afm_ring_10": lambda: (heisenberg(ring_graph(10)).scaled(-1.0),
                                       SpinSpace((2,) * 10)),
    "heisenberg_afm_ring_9": lambda: (heisenberg(ring_graph(9)).scaled(-1.0),
                                      SpinSpace((2,) * 9)),
    "heisenberg_ferro_ring_8": lambda: (heisenberg(ring_graph(8)), SpinSpace((2,) * 8)),
    "lieb_mattis_star_9": lambda: star_lieb_mattis(9, 0.5),
    "lieb_mattis_star_spin1_5": lambda: star_lieb_mattis(5, 1.0),
    "heisenberg_sum_8": lambda: (
        heisenberg(ring_graph(8)).scaled(-1.0)
        + heisenberg(build_graph(8, [(0, 1, 0.3), (0, 4, 0.5), (2, 6, -0.7)])),
        SpinSpace((2,) * 8)),
    "ssep_chorded_ring_10": lambda: (
        ssep_spin_interaction(seeded_chorded_ring(10, [(0, 4), (2, 7)], seed=10)),
        SpinSpace((2,) * 10)),
    "bilinear_biquadratic_ring_6": lambda: bilinear_biquadratic_ring(6, -0.3),
}


@pytest.mark.parametrize("case", sorted(REDUCED_SWEEP_CASES))
@pytest.mark.parametrize("k", [2, 6])
def test_reduced_sweep_matches_full_sweep(case, k):
    phi, space = REDUCED_SWEEP_CASES[case]()
    assert phi.su2_invariant(space)
    merged, per_sector = sector_sweep_lowest(phi, space, k=k)
    # the reference solves every sector, each on its own block
    full = np.sort(np.concatenate([
        sector_spectrum(assemble(phi, sector), sector, k=k).eigenvalues
        for sector in (magnetization_sector(space, M) for M in space.magnetization_values())]))
    got, want = spectral_gap(merged), spectral_gap(SpectrumReport(full))
    assert abs(got.ground_energy - want.ground_energy) <= 1e-10
    assert abs(got.gap - want.gap) <= 1e-10
    assert got.ground_degeneracy == want.ground_degeneracy
    # the lowest sector comes back with its eigenvectors
    low = ("M", space.twice_m_total_max() % 2 / 2)
    assert per_sector[low].eigenvectors is not None
    assert min(per_sector, key=lambda lab: abs(lab[1])) == low


@pytest.mark.parametrize("phi, space", [
    (aklt(6, periodic=True), SpinSpace((3,) * 6)),
    (heisenberg(ring_graph(9)).scaled(-1.0), SpinSpace((2,) * 9))],
    ids=["aklt_ring_6", "heisenberg_afm_ring_9"])
def test_reduced_sweep_builds_one_ladder_block(phi, space, monkeypatch):
    # the one S+ block is M0 -> M0 + 1, which both the block commutator check
    # and the Casimir of M0 use; no sector below M0 or twice is enumerated
    enumerated, ladders = [], []
    real_sector = spinsys.symmetry.magnetization_sector
    real_plus = Ladder.plus

    def sector_spy(space, M):
        enumerated.append(M)
        return real_sector(space, M)

    def plus_spy(ladder, source, target):
        ladders.append((source.label, target.label))
        return real_plus(ladder, source, target)

    monkeypatch.setattr(spinsys.symmetry, "magnetization_sector", sector_spy)
    monkeypatch.setattr(Ladder, "plus", plus_spy)
    sector_sweep_lowest(phi, space, k=2)
    m0 = space.twice_m_total_max() % 2 / 2
    assert min(enumerated) == m0 and len(enumerated) == len(set(enumerated))
    assert ladders == [(("M", m0), ("M", m0 + 1))]


def test_reduced_sweep_lists_each_level_by_its_multiplicity():
    # the whole spin-1/2 ring of 8 fits the dense path: the merged report is
    # the full spectrum, every level 2S + 1 times
    space = SpinSpace((2,) * 8)
    phi = heisenberg(ring_graph(8)).scaled(-1.0)
    merged, per_sector = sector_sweep_lowest(phi, space, k=2)
    whole = np.linalg.eigvalsh(assemble(phi, space).toarray())
    assert merged.eigenvalues.size == whole.size
    assert_allclose(merged.eigenvalues, whole, atol=1e-10)
    assert set(per_sector) == {("M", M) for M in space.magnetization_values() if M >= 0}


def test_frustration_free_report_unchanged_by_the_reduction(monkeypatch):
    # the reference fails the SU(2) term check by force and solves every sector
    for phi, L in ((aklt(6, periodic=True), 6), (aklt(5), 5)):
        space = SpinSpace((3,) * L)
        got = frustration_free_check(phi, space, v0_size=1)
        with monkeypatch.context() as patch:
            patch.setattr(Interaction, "su2_invariant", lambda self, space: False)
            want = frustration_free_check(phi, space, v0_size=1)
        assert abs(got.ground_energy - want.ground_energy) <= 1e-12
        assert abs(got.c - want.c) <= 1e-10 or (np.isnan(got.c) and np.isnan(want.c))
        for name in ("ground_degeneracy", "psd", "zero_energy", "v0_size",
                     "condition_holds"):
            assert getattr(got, name) == getattr(want, name), name


def test_wrong_declaration_fails_the_commutator_check(monkeypatch):
    # the SU(2) term check forced to pass: the block commutator M0 -> M0 + 1 refuses
    space = SpinSpace((3,) * 6)
    phi = aklt(6, periodic=True) + szsz_ring(6).scaled(0.05)
    assert not phi.su2_invariant(space)
    monkeypatch.setattr(Interaction, "su2_invariant", lambda self, space: True)
    with pytest.raises(ClassificationError,
                       match=r"S\+ - S\+ H.*from M = 0\.0 to M = 1\.0 \(SU\(2\) ladder\)"):
        sector_sweep_lowest(phi, space, k=2)


def test_wrong_declaration_fails_the_nesting_check(monkeypatch):
    # with a ladder of no terms the commutator check sees nothing; the
    # spectra of the dense top sectors still refuse the declaration
    monkeypatch.setattr(spinsys.symmetry, "su2_totals", lambda space: Ladder("SU(2)", []))
    monkeypatch.setattr(Interaction, "su2_invariant", lambda self, space: True)
    space = SpinSpace((3,) * 6)
    phi = aklt(6, periodic=True) + szsz_ring(6).scaled(0.05)
    with pytest.raises(ClassificationError, match="has no partner"):
        sector_sweep_lowest(phi, space, k=2)


@pytest.mark.parametrize("blind, failure", [(False, "H does not commute with S+"),
                                            (True, "has no partner")],
                         ids=["commutator", "nesting"])
def test_nested_walk_and_reduced_sweep_refuse_alike(blind, failure, monkeypatch):
    # the perturbed AKLT ring with the SU(2) term check forced to pass: the
    # nested walk and the reduced sweep take the same checked S+ step from
    # M = 0 and refuse with one message, at the commutator for the SU(2)
    # ladder and at the nesting for a ladder with no terms
    space = SpinSpace((3,) * 6)
    phi = aklt(6, periodic=True) + szsz_ring(6).scaled(0.05)
    if blind:
        monkeypatch.setattr(spinsys.symmetry, "su2_totals", lambda space: Ladder("SU(2)", []))
    monkeypatch.setattr(Interaction, "su2_invariant", lambda self, space: True)
    with pytest.raises(ClassificationError) as walk:
        classify_total_spin(phi, spinsys.symmetry.su2_totals(space), space)
    with pytest.raises(ClassificationError) as sweep:
        sector_sweep_lowest(phi, space, k=2)
    assert str(walk.value) == str(sweep.value)
    assert failure in str(walk.value) and str(walk.value).endswith("(SU(2) ladder)")


def test_unmatched_level_matches_multisets():
    # levels within SU2_CHECK_TOL * max(1, |E|) = 2e-10 of each other match
    ladder = Ladder("SU(2)", [])
    lower = np.array([0.0, 1.0, 1.0, 2.0])
    assert np.array_equal(_level_difference(lower, np.array([1.0, 1.0 + 1e-12]), ladder, 0.0),
                          [0.0, 2.0])
    assert np.array_equal(_level_difference(lower, np.array([0.0 - 1e-11, 2.0]), ladder, 0.0),
                          [1.0, 1.0])
    assert np.array_equal(_level_difference(lower, np.empty(0), ladder, 0.0), lower)
    for upper, e in (([1.0, 1.0, 1.0], 1.0), ([1.5], 1.5), ([3.0], 3.0)):
        with pytest.raises(ClassificationError,
                           match=rf"the level {e!r} of M = 1\.5 has no partner in "
                                 rf"M = 0\.5 \(SU\(2\) ladder\)"):
            _level_difference(lower, np.array(upper), ladder, 0.5)


def szsz_chain(L):
    """The S3 S3 perturbation on the open spin-1 chain."""
    s3 = np.asarray(spin_matrices(1.0).s3)
    return custom([((x, x + 1), np.kron(s3, s3)) for x in range(L - 1)])


def xxz_ring(L):
    return xxz(XxzParams.from_delta(L, 1.5, boundary="periodic")), SpinSpace((2,) * L)


def perturbed_aklt_ring(L):
    return aklt(L, periodic=True) + szsz_ring(L).scaled(0.05), SpinSpace((3,) * L)


# (interaction, space, crossover, whether the sweep reaches ARPACK): the
# rings split every sector into momentum blocks, which give every level
# (``test_split_sweep_matches_whole_sector_spectra``); the open chains keep
# the dense and the ARPACK path: L = 6 at crossover 100 puts M = 0 and 1 on
# ARPACK and the rest dense, as L = 8 does at the default 512
MIRROR_CASES = {
    "aklt_szsz_6": lambda: (*perturbed_aklt_ring(6), 100, False),
    "aklt_szsz_8": lambda: (*perturbed_aklt_ring(8), 512, False),
    # the test fails the SU(2) term check of the Heisenberg cases by force
    "heisenberg_ring_10": lambda: (heisenberg(ring_graph(10)), SpinSpace((2,) * 10), 100, False),
    "xxz_ring_10": lambda: (*xxz_ring(10), 100, False),
    "aklt_szsz_open_6": lambda: (aklt(6) + szsz_chain(6).scaled(0.05), SpinSpace((3,) * 6),
                                 100, True),
    "aklt_szsz_open_8": lambda: (aklt(8) + szsz_chain(8).scaled(0.05), SpinSpace((3,) * 8),
                                 512, True),
    "heisenberg_path_10": lambda: (heisenberg(path_graph(10)), SpinSpace((2,) * 10), 100, True),
}


@pytest.mark.parametrize("case", sorted(MIRROR_CASES))
def test_mirrored_sectors_match_direct_solves(case, monkeypatch):
    phi, space, crossover, arpack = MIRROR_CASES[case]()
    # small rings in place of large ones: a lower crossover, and no fixed
    # cost per momentum split
    monkeypatch.setattr(spinsys.spectral, "KRYLOV_CROSSOVER", crossover)
    monkeypatch.setattr(spinsys.spectral, "MOMENTUM_SPLIT_COST", 0)
    monkeypatch.setattr(Interaction, "su2_invariant", lambda self, space: False)
    assert phi.flip_invariant() and not phi.su2_invariant(space)
    merged, per_sector = sector_sweep_lowest(phi, space, k=3)
    assert set(per_sector) == {("M", M) for M in space.magnetization_values() if M >= 0}
    paths = set()
    direct = []
    for M in space.magnetization_values():
        sector = magnetization_sector(space, M)
        want = sector_spectrum(assemble(phi, sector), sector, k=3).eigenvalues
        got = per_sector[("M", abs(M))].eigenvalues
        # every level of a dense or split sector, the lowest 3 of an ARPACK one
        n = min(got.size, want.size)
        assert n in (3, sector.dim)
        assert_allclose(got[:n], want[:n], rtol=1e-12, atol=0)
        paths.add(got.size < sector.dim)
        direct.append(want)
    assert paths == ({True, False} if arpack else {False})
    assert_allclose(merged.eigenvalues[:3], np.sort(np.concatenate(direct))[:3],
                    rtol=1e-12, atol=0)


def off_flip_bond():
    # the Heisenberg bond plus 1e-9 on |up up>: Hermitian, conserves M, and
    # differs from its reversal by 1e-9
    s = spin_matrices(0.5)
    bond = -(np.kron(s.s1, s.s1) + np.kron(s.s2, s.s2) + np.kron(s.s3, s.s3))
    return bond + 1e-9 * np.diag([1.0, 0.0, 0.0, 0.0])


FLIP_BREAKING_CASES = {
    "xxz_open_with_field": lambda: (xxz(XxzParams.from_delta(8, 1.5)), SpinSpace((2,) * 8)),
    "heisenberg_one_site_field": lambda: (
        heisenberg(path_graph(8)) + custom([((3,), 0.2 * np.asarray(spin_matrices(0.5).s3))]),
        SpinSpace((2,) * 8)),
    "bond_off_by_1e-9": lambda: (
        custom([((x, x + 1), off_flip_bond()) for x in range(7)]), SpinSpace((2,) * 8)),
}


@pytest.mark.parametrize("case", sorted(FLIP_BREAKING_CASES))
def test_flip_breaking_terms_solve_every_sector(case):
    phi, space = FLIP_BREAKING_CASES[case]()
    assert not phi.flip_invariant()
    merged, per_sector = sector_sweep_lowest(phi, space, k=3)
    assert set(per_sector) == {("M", M) for M in space.magnetization_values()}
    dense = np.linalg.eigvalsh(assemble(phi, space).toarray())
    assert merged.eigenvalues.size == dense.size     # every sector is dense here
    assert_allclose(merged.eigenvalues, dense, atol=1e-10)


@pytest.mark.parametrize("dtype", [float, complex])
def test_extremal_eigs_reads_a_diagonal_matrix(dtype, monkeypatch):
    import scipy.sparse.linalg as spla

    def no_arpack(*args, **kwargs):
        raise AssertionError("ARPACK ran on a diagonal matrix")

    monkeypatch.setattr(spla, "eigsh", no_arpack)
    diag = np.array([2.0, -1.0, 0.5, -1.0, 3.0, 0.5, -1.0, 2.0] * 8)
    mat = sps.diags(diag).astype(dtype).tocsr()
    rep = extremal_eigs(mat, k=5)
    dense_vals, dense_vecs = np.linalg.eigh(mat.toarray())
    assert_allclose(rep.eigenvalues, dense_vals[:5], atol=1e-14)
    # the stable order: the three copies of -1 by index, then the first 0.5
    stable = np.argsort(diag, kind="stable")[:5]
    assert rep.eigenvectors.dtype == mat.dtype
    assert np.array_equal(rep.eigenvectors, np.eye(diag.size, dtype=dtype)[:, stable])
    assert np.array_equal(rep.residuals, np.zeros(5))
    assert np.array_equal(mat @ rep.eigenvectors, rep.eigenvectors * rep.eigenvalues)
    # the threefold lowest level spans the space of dense eigh's vectors for it
    ours, theirs = rep.eigenvectors[:, :3], dense_vecs[:, :3]
    assert_allclose(ours @ ours.conj().T, theirs @ theirs.conj().T, atol=1e-12)
    assert extremal_eigs(mat, k=2, want_vectors=False).eigenvectors is None


def test_extremal_eigs_keeps_arpack_off_the_diagonal():
    # one off-diagonal pair in place of two diagonal entries: no more stored
    # entries than rows, yet not diagonal
    mat = sps.diags(np.r_[0.0, 0.0, np.arange(2.0, 40.0)]).tocsr().tolil()
    mat[0, 1] = mat[1, 0] = -0.5
    assert mat.tocsr().nnz == 40
    rep = extremal_eigs(mat.tocsr(), k=2)
    assert_allclose(rep.eigenvalues, np.linalg.eigvalsh(mat.toarray())[:2], atol=1e-12)


def momentum_spy(monkeypatch):
    """The sector dimension and the momenta of each ``momentum_blocks`` call
    the sweep makes."""
    calls = []
    blocks = spinsys.spectral.momentum_blocks

    def spy(h, orbits, slots):
        calls.append((h.shape[0], [k for k, *_ in slots]))
        return blocks(h, orbits, slots)

    monkeypatch.setattr(spinsys.spectral, "momentum_blocks", spy)
    return calls


def whole_sector_levels(phi, space, M):
    return np.linalg.eigvalsh(assemble(phi, magnetization_sector(space, M)).toarray())


def chiral_ring(L):
    """The spin-1/2 Heisenberg ring plus a chiral bond S1_x S2_x+1 - S2_x S1_x+1:
    complex, shift-invariant, and not flip-invariant."""
    s = spin_matrices(0.5)
    s1, s2 = np.asarray(s.s1), np.asarray(s.s2)
    chiral = np.kron(s2, s1) - np.kron(s1, s2)
    swap = np.eye(4)[[0, 2, 1, 3]]
    terms = [((x, x + 1), 0.4 * chiral) for x in range(L - 1)]
    terms.append(((0, L - 1), 0.4 * swap @ chiral @ swap))    # site L - 1 before site 0
    return heisenberg(ring_graph(L)) + custom(terms), SpinSpace((2,) * L)


SPLIT_CASES = {
    "aklt_szsz_6": lambda: perturbed_aklt_ring(6),
    "aklt_szsz_7": lambda: perturbed_aklt_ring(7),
    "aklt_szsz_8": lambda: perturbed_aklt_ring(8),
    "xxz_ring_10": lambda: xxz_ring(10),
    "chiral_ring_9": lambda: chiral_ring(9),
}


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_split_sweep_matches_whole_sector_spectra(case, monkeypatch):
    # without the fixed cost per split, every sector of the real rings splits
    # into momentum blocks k <= L/2 and returns all its levels; the complex
    # chiral ring splits only its two one-state sectors, which are real
    monkeypatch.setattr(spinsys.spectral, "MOMENTUM_SPLIT_COST", 0)
    phi, space = SPLIT_CASES[case]()
    L = space.n_sites
    calls = momentum_spy(monkeypatch)
    merged, per_sector = sector_sweep_lowest(phi, space, k=6)
    for (_, M), rep in per_sector.items():
        want = whole_sector_levels(phi, space, M)
        assert rep.eigenvalues.size == want.size
        assert np.abs(rep.eigenvalues - want).max() <= 1e-12
    real = all(np.isrealobj(rep.block.data) for rep in per_sector.values())
    assert real == (case != "chiral_ring_9") == phi.flip_invariant()
    assert len(calls) == (len(per_sector) if real else 2)
    assert max(max(ks) for _, ks in calls) == (L // 2 if real else 0)
    flip = 2 if phi.flip_invariant() else 1
    assert merged.eigenvalues.size == sum(
        (flip if M > 0 else 1) * rep.eigenvalues.size for (_, M), rep in per_sector.items())


def test_small_sectors_stay_whole_under_the_split_cost(monkeypatch):
    # the fixed cost per split keeps the sectors of 1, 8, 36 and 112 states of
    # the perturbed AKLT ring of 8 sites whole; those of 266 states and more
    # split; every level agrees with the whole-sector solve
    phi, space = perturbed_aklt_ring(8)
    calls = momentum_spy(monkeypatch)
    merged, per_sector = sector_sweep_lowest(phi, space, k=6)
    assert sorted(dim for dim, _ in calls) == [266, 504, 784, 1016, 1107]
    for (_, M), rep in per_sector.items():
        want = whole_sector_levels(phi, space, M)
        assert rep.eigenvalues.size == want.size
        assert np.abs(rep.eigenvalues - want).max() <= 1e-12


def test_su2_top_run_splits_by_momentum(monkeypatch):
    # the dense top run of the SU(2) sweep feeds only the nesting check, so
    # its sectors are solved values-only and may split: on the AKLT 9-ring
    # the 414-state M = 5 sector does (M = 6 and above are too small to pay
    # for a split, M = 0 needs its vectors and M <= 4 exceed the crossover)
    phi, space = aklt(9, periodic=True), SpinSpace((3,) * 9)
    assert phi.su2_invariant(space)
    calls = momentum_spy(monkeypatch)
    _, per_sector = sector_sweep_lowest(phi, space, k=4)
    assert [dim for dim, _ in calls] == [414]
    top = {M: rep for (_, M), rep in per_sector.items() if M > 0}
    assert sorted(top) == [5, 6, 7, 8, 9]
    for M, rep in top.items():
        want = whole_sector_levels(phi, space, M)
        assert rep.eigenvalues.size == want.size
        assert np.abs(rep.eigenvalues - want).max() <= 1e-12


def xxz_ring_with(L, extra):
    """The XXZ ring plus the terms ``extra(ring)``."""
    phi, space = xxz_ring(L)
    return phi + custom(extra(phi)), space


NO_SPLIT_CASES = {
    # the bond (3, 4) 1e-9 stronger than the others
    "bond_off_by_1e-9": lambda: xxz_ring_with(10, lambda ring: [
        (support, 1e-9 * bond) for support, bond in ring.terms if support == (3, 4)]),
    "one_site_field": lambda: xxz_ring_with(10, lambda ring: [
        ((3,), 0.2 * np.asarray(spin_matrices(0.5).s3))]),
}


@pytest.mark.parametrize("case", sorted(NO_SPLIT_CASES))
def test_broken_translation_does_not_split(case, monkeypatch):
    phi, space = NO_SPLIT_CASES[case]()
    calls = momentum_spy(monkeypatch)
    monkeypatch.setattr(spinsys.spectral, "MOMENTUM_SPLIT_COST", 0)
    merged, per_sector = sector_sweep_lowest(phi, space, k=3)
    # only the one-state sectors (all spins up or all down) commute with the
    # shift, and without the fixed cost per split they split
    assert len(calls) == sum(magnetization_sector(space, M).dim == 1 for _, M in per_sector)
    for (_, M), rep in per_sector.items():
        sector = magnetization_sector(space, M)
        want = sector_spectrum(assemble(phi, sector), sector, k=3).eigenvalues
        assert rep.eigenvalues.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["aklt_szsz_7", "xxz_ring_10"])
def test_split_sweep_threads_agree_bitwise(case, monkeypatch):
    # both rings split their largest sectors under the default split cost
    phi, space = SPLIT_CASES[case]()
    calls = momentum_spy(monkeypatch)
    one, per_one = sector_sweep_lowest(phi, space, k=6, threads=1)
    split = len(calls)
    two, per_two = sector_sweep_lowest(phi, space, k=6, threads=2)
    assert split and len(calls) == 2 * split
    assert one.eigenvalues.tobytes() == two.eigenvalues.tobytes()
    assert list(per_one) == list(per_two)
    for label, rep in per_one.items():
        assert rep.eigenvalues.tobytes() == per_two[label].eigenvalues.tobytes()


def three_site_term(L):
    """S3_x (S+_x+1 S-_x+2 + h.c.) on the spin-1/2 ring: real,
    shift-invariant, and broken by the reflection, which moves S3 to the
    other end of the three sites."""
    s = spin_matrices(0.5)
    s3, plus, minus = (np.asarray(m).real for m in (s.s3, s.plus, s.minus))

    def product(ops):          # little-endian over the sorted sites
        mat = np.ones((1, 1))
        for x in sorted(ops):
            mat = np.kron(ops[x], mat)
        return tuple(sorted(ops)), mat

    terms = []
    for x in range(L):
        y, z = (x + 1) % L, (x + 2) % L
        (sites, one), (_, two) = product({x: s3, y: plus, z: minus}), product({x: s3, y: minus,
                                                                               z: plus})
        terms.append((sites, 0.3 * (one + two)))
    return custom(terms)


def three_site_ring(L):
    """The spin-1/2 Heisenberg ring plus ``three_site_term``."""
    return heisenberg(ring_graph(L)) + three_site_term(L), SpinSpace((2,) * L)


# (interaction, space, the largest sector that splits, None for every one)
REFLECTION_CASES = {
    "aklt_szsz_6": lambda: (aklt(6, periodic=True) + szsz_ring(6).scaled(0.06),
                            SpinSpace((3,) * 6), None),
    "aklt_szsz_7": lambda: (aklt(7, periodic=True) + szsz_ring(7).scaled(0.06),
                            SpinSpace((3,) * 7), None),
    "aklt_szsz_8": lambda: (aklt(8, periodic=True) + szsz_ring(8).scaled(0.06),
                            SpinSpace((3,) * 8), None),
    "heisenberg_ring_10": lambda: (heisenberg(ring_graph(10)), SpinSpace((2,) * 10), None),
    "three_site_ring_10": lambda: (*three_site_ring(10), 10),
    "chiral_ring_9": lambda: (*chiral_ring(9), 1),
}


@pytest.mark.parametrize("case", sorted(REFLECTION_CASES))
def test_reflected_blocks_match_whole_sector_spectra(case, monkeypatch):
    # without the fixed cost per split, a real ring that the reflection maps
    # onto itself splits every sector and is solved by real blocks alone; a
    # ring that breaks the reflection, or a complex one, splits no sector but
    # those that are real and reflected by chance (the one-state sectors,
    # and the one-magnon sectors of the three-site ring), and only the
    # complex one makes a complex solve; every level agrees with the
    # whole-sector solve
    monkeypatch.setattr(spinsys.spectral, "MOMENTUM_SPLIT_COST", 0)
    monkeypatch.setattr(Interaction, "su2_invariant", lambda self, space: False)
    phi, space, most = REFLECTION_CASES[case]()
    calls = momentum_spy(monkeypatch)
    solved = []
    full = spinsys.spectral.full_spectrum
    monkeypatch.setattr(spinsys.spectral, "full_spectrum",
                        lambda H, **kw: solved.append(np.iscomplexobj(H)) or full(H, **kw))
    _, per_sector = sector_sweep_lowest(phi, space, k=6)
    dims = [rep.block.shape[0] for rep in per_sector.values()]
    assert [dim for dim, _ in calls] == [d for d in dims if most is None or d <= most]
    assert (True in solved) == (case == "chiral_ring_9")
    for (_, M), rep in per_sector.items():
        want = whole_sector_levels(phi, space, M)
        assert rep.eigenvalues.size == want.size
        assert np.abs(rep.eigenvalues - want).max() <= 1e-12


# (interaction, space, whether it commutes with the shift, with the
# reflection): a complex ring, a real one that breaks the reflection, and a
# real one that breaks the shift alone (the reflection maps the bond (4, 5)
# of the 10-ring onto itself)
BROKEN_SYMMETRY_CASES = {
    "chiral_ring_9": lambda: (*chiral_ring(9), True, False),
    "three_site_ring_10": lambda: (*three_site_ring(10), True, False),
    "bond_off_by_1e-9": lambda: (*xxz_ring_with(10, lambda ring: [
        (support, 1e-9 * bond) for support, bond in ring.terms if support == (4, 5)]),
        False, True),
}


@pytest.mark.parametrize("case", sorted(BROKEN_SYMMETRY_CASES))
def test_broken_symmetry_blocks_take_the_sector_path(case, monkeypatch):
    # momentum_spectra declines every sector of more than L states, and
    # without the fixed cost per split the sweep makes no momentum_blocks
    # call on one: its levels are those of the sector's own dense solve bit
    # for bit (the smaller sectors that split are real and symmetric by
    # chance: the one-state sectors, and the one-magnon sectors of the
    # three-site ring)
    from spinsys.hilbert import translation_orbits
    monkeypatch.setattr(spinsys.spectral, "MOMENTUM_SPLIT_COST", 0)
    phi, space, shifted, reflected = BROKEN_SYMMETRY_CASES[case]()
    L = space.n_sites
    calls = momentum_spy(monkeypatch)
    _, per_sector = sector_sweep_lowest(phi, space, k=3)
    assert calls and max(dim for dim, _ in calls) <= L
    large = 0
    for (_, M), rep in per_sector.items():
        sector = magnetization_sector(space, M)
        if sector.dim > L:
            large += 1
            orbits = translation_orbits(sector)
            assert spinsys.spectral._commutes(rep.block, orbits.shift) == shifted
            assert spinsys.spectral._commutes(rep.block, orbits.reflect, orbits.reps) == reflected
            slots = orbits.slots(range(L // 2 + 1))
            assert spinsys.spectral.momentum_spectra(rep.block, orbits, slots) is None
            want = sector_spectrum(assemble(phi, sector), sector, k=3).eigenvalues
            assert rep.eigenvalues.tobytes() == want.tobytes()
    assert large >= 3


def test_momentum_band_refuses_a_block_that_breaks_the_reflection(monkeypatch):
    import spinsys.droplets
    from spinsys import momentum_band
    p = XxzParams.from_q(10, 0.3, boundary="periodic")
    assert momentum_band(p, 3).size == 10
    monkeypatch.setattr(spinsys.droplets, "xxz", lambda p: xxz(p) + three_site_term(p.L))
    with pytest.raises(ValueError, match="breaks the shift or the reflection"):
        momentum_band(p, 3)


@pytest.mark.parametrize("L", [9, 12])
def test_reflected_momentum_spectra_match_plain_blocks(L, cycle_basis_blocks):
    # the periodic XXZ ring at odd L (no k = pi) and even L: the levels of
    # every momentum from the real blocks against the spectrum of the dense
    # cycle-basis block h_k, and all of them against one whole-sector solve
    from spinsys.hilbert import down_spin_sector, translation_orbits
    p = XxzParams.from_q(L, 0.4, boundary="periodic")
    for n in range(1, L):
        sector = down_spin_sector(SpinSpace((2,) * L), n)
        h = assemble(xxz(p), sector).matrix
        orbits = translation_orbits(sector)
        spectra = spinsys.spectral.momentum_spectra(h, orbits, orbits.slots(range(L // 2 + 1)))
        oracle = cycle_basis_blocks(p, n)
        assert len(spectra) == len(oracle) == L
        for levels, block in zip(spectra, oracle):
            want = np.linalg.eigvalsh(block)
            assert levels.size == want.size
            assert np.abs(levels - want).max() <= 1e-12
        union = np.sort(np.concatenate(spectra))
        assert np.abs(union - np.linalg.eigvalsh(h.toarray())).max() <= 1e-12


def solve_spy(monkeypatch):
    """The dense solves (dimension, complex) of ``full_spectrum``, with a
    ("split", momenta, block dims) entry where each momentum split begins."""
    calls = []
    full, blocks = spinsys.spectral.full_spectrum, spinsys.spectral.momentum_blocks

    def solve(H, **kw):
        calls.append((H.shape[0], np.iscomplexobj(H)))
        return full(H, **kw)

    def split(h, orbits, slots):
        calls.append(("split", [k for k, *_ in slots], [sum(sizes) for *_, sizes in slots]))
        return blocks(h, orbits, slots)

    monkeypatch.setattr(spinsys.spectral, "full_spectrum", solve)
    monkeypatch.setattr(spinsys.spectral, "momentum_blocks", split)
    return calls


def assert_halved(calls, L):
    """No complex solve, and after each split: two halves of k = 0 and L/2
    that add up to the block, one solve of each other k."""
    assert not [c for c in calls if c[0] != "split" and c[1]]
    starts = [i for i, c in enumerate(calls) if c[0] == "split"]
    assert starts
    for i in starts:
        _, ks, dims = calls[i]
        at = i + 1
        for k, dim in zip(ks, dims):
            halves = 2 if 2 * k % L == 0 else 1
            sizes = [c[0] for c in calls[at:at + halves]]
            assert all(size > 0 for size in sizes) and sum(sizes) == dim
            at += halves
    return len(starts)


def test_sweep_and_band_make_no_complex_dense_solve(monkeypatch, tmp_path):
    # the perturb sweep at L = 8 (lambda = 0.06) splits its five largest
    # sectors, and the droplet band at L = 16 its one sector: every dense
    # solve is real, and k = 0 and L/2 are solved in two halves
    import spinsys.cli
    from spinsys import momentum_band
    calls = solve_spy(monkeypatch)
    assert spinsys.cli.run(["perturb", "--L", "8", "--lambda_min", "0.06", "--lambda_max",
                            "0.06", "--out", str(tmp_path / "p.csv")]) == 0
    assert assert_halved(calls, 8) == 5
    calls.clear()
    band = momentum_band(XxzParams.from_q(16, 0.3, boundary="periodic"), 3)
    assert band.size == 16 and assert_halved(calls, 16) == 1
