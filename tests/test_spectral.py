import numpy as np
import pytest
import scipy.sparse as sps
from numpy.testing import assert_allclose

import spinsys.spectral
import spinsys.symmetry
import spinsys.util
from spinsys import (SparseOperator, SpinSpace, aklt, assemble, custom, extremal_eigs,
                     frustration_free_check, full_spectrum, heisenberg,
                     magnetization_sector, path_graph, restrict, ring_graph,
                     sector_spectrum, sector_sweep_lowest, spectral_gap, spin_matrices,
                     star_graph)
from spinsys.util import require_memory
from spinsys.symmetry import TotalSpinOps, _unmatched_level, lieb_mattis_hamiltonian


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
    # and the lowest level is an exact zero
    h = np.diag([0.0] * 5 + [1.0] * 60 + [2.0] * 35)
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


def test_krylov_is_bitwise_repeatable(monkeypatch):
    space = SpinSpace((3,) * 6)
    H = assemble(aklt(6, periodic=True), space)
    block = restrict(H, magnetization_sector(space, 0), dense=False)
    a = extremal_eigs(block, k=3)
    b = extremal_eigs(block, k=3)
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
    assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()
    # concurrent ARPACK runs, one per sector, give the same bytes (on the
    # perturbed ring, which is not SU(2)-invariant, so every sector is solved)
    monkeypatch.setattr(spinsys.spectral, "KRYLOV_CROSSOVER", 100)
    phi = aklt(6, periodic=True) + szsz_ring(6).scaled(0.05)
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
    from spinsys.spectral import SpectrumReport
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
}


@pytest.mark.parametrize("case", sorted(REDUCED_SWEEP_CASES))
@pytest.mark.parametrize("k", [2, 6])
def test_reduced_sweep_matches_full_sweep(case, k):
    phi, space = REDUCED_SWEEP_CASES[case]()
    assert phi.params["su2_invariant"]
    merged, per_sector = sector_sweep_lowest(phi, space, k=k)
    # ``+ custom([])`` drops the declaration: every sector is solved
    full, _ = sector_sweep_lowest(phi + custom([]), space, k=k)
    got, want = spectral_gap(merged), spectral_gap(full)
    assert abs(got.ground_energy - want.ground_energy) <= 1e-10
    assert abs(got.gap - want.gap) <= 1e-10
    assert got.ground_degeneracy == want.ground_degeneracy
    # the lowest sector comes back with its eigenvectors
    low = ("M", space.twice_m_total_max() % 2 / 2)
    assert per_sector[low].eigenvectors is not None
    assert min(per_sector, key=lambda lab: abs(lab[1])) == low


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


def test_frustration_free_report_unchanged_by_the_reduction():
    # ``+ custom([])`` drops the declaration and leaves the terms alone
    for phi, L in ((aklt(6, periodic=True), 6), (aklt(5), 5)):
        space = SpinSpace((3,) * L)
        got = frustration_free_check(phi, space, v0_size=1)
        want = frustration_free_check(phi + custom([]), space, v0_size=1)
        assert abs(got.ground_energy - want.ground_energy) <= 1e-12
        assert abs(got.c - want.c) <= 1e-10 or (np.isnan(got.c) and np.isnan(want.c))
        for name in ("ground_degeneracy", "psd", "zero_energy", "v0_size",
                     "condition_holds"):
            assert getattr(got, name) == getattr(want, name), name


def test_wrong_declaration_fails_the_commutator_check():
    space = SpinSpace((3,) * 6)
    phi = aklt(6, periodic=True) + szsz_ring(6).scaled(0.05)
    assert "su2_invariant" not in phi.params
    phi.params["su2_invariant"] = True
    with pytest.raises(ValueError, match=r"declared SU\(2\)-invariant.*S\+ - S\+ H"):
        sector_sweep_lowest(phi, space, k=2)


def test_wrong_declaration_fails_the_nesting_check(monkeypatch):
    # with a zero ladder the commutator check sees nothing; the spectra of
    # the dense top sectors still refuse the declaration
    class BlindLadder(TotalSpinOps):
        def plus(self, source, target):
            return SparseOperator(sps.csr_matrix((target.total_dim, source.total_dim)),
                                  basis=source, target=target)

        minus = plus

    monkeypatch.setattr(spinsys.symmetry, "su2_totals", BlindLadder)
    space = SpinSpace((3,) * 6)
    phi = aklt(6, periodic=True) + szsz_ring(6).scaled(0.05)
    phi.params["su2_invariant"] = True
    with pytest.raises(ValueError, match="has no partner"):
        sector_sweep_lowest(phi, space, k=2)


def test_unmatched_level_matches_multisets():
    lower = np.array([0.0, 1.0, 1.0, 2.0])
    assert _unmatched_level(np.array([1.0, 1.0 + 1e-12]), lower, 1e-10) is None
    assert _unmatched_level(np.array([1.0, 1.0, 1.0]), lower, 1e-10) == 1.0
    assert _unmatched_level(np.array([1.5]), lower, 1e-10) == 1.5
    assert _unmatched_level(np.array([3.0]), lower, 1e-10) == 3.0
