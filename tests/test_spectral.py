import numpy as np
import pytest
from numpy.testing import assert_allclose

import spinsys.spectral
from spinsys import (SpinSpace, aklt, assemble, extremal_eigs, full_spectrum,
                     heisenberg, magnetization_sector, path_graph, restrict,
                     ring_graph, sector_spectrum, sector_sweep_lowest, spectral_gap)


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


def test_forced_krylov_matches_dense_on_aklt_ring(monkeypatch):
    # a start vector invariant under the ring's symmetries stays in the
    # symmetric subspace and misses levels in most sectors
    monkeypatch.setattr(spinsys.spectral, "KRYLOV_CROSSOVER", 100)
    space = SpinSpace((3,) * 8)
    H = assemble(aklt(8, periodic=True), space)
    _, per_sector = sector_sweep_lowest(H, space, k=3)
    for M in space.magnetization_values():
        sec = magnetization_sector(space, M)
        dense = np.linalg.eigvalsh(restrict(H, sec))[:3]
        got = per_sector[sec.label].eigenvalues[:3]     # dense sectors give all
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
    # concurrent ARPACK runs, one per sector, give the same bytes
    monkeypatch.setattr(spinsys.spectral, "KRYLOV_CROSSOVER", 100)
    one, _ = sector_sweep_lowest(H, space, k=3, threads=1)
    four, _ = sector_sweep_lowest(H, space, k=3, threads=4)
    assert one.eigenvalues.tobytes() == four.eigenvalues.tobytes()


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
    g = path_graph(8)
    space = SpinSpace.from_graph(g)
    H = assemble(heisenberg(g), space)
    merged, per_sector = sector_sweep_lowest(H, space, k=3, threads=2)
    dense = np.sort(np.linalg.eigvalsh(H.toarray()))
    assert_allclose(merged.eigenvalues[:3], dense[:3], atol=1e-9)
    assert set(per_sector) == {("M", M) for M in space.magnetization_values()}


def test_sweep_thread_counts_agree_bitwise():
    g = path_graph(7)
    space = SpinSpace.from_graph(g)
    H = assemble(heisenberg(g), space)
    a, _ = sector_sweep_lowest(H, space, k=2, threads=1)
    b, _ = sector_sweep_lowest(H, space, k=2, threads=4)
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
