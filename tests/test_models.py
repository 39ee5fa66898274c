import numpy as np
import pytest
from numpy.testing import assert_allclose

import spinsys.models
import spinsys.util

from spinsys import (SpinSpace, XxzParams, aklt, assemble, build_graph, custom, heisenberg,
                     lambda_norm, magnetization_sector, path_graph, restrict, ring_graph,
                     spin_matrices, star_graph, xxz)
from spinsys.models import ASSEMBLY_COPIES, _two_site_dot
from spinsys.ssep import ssep_spin_interaction
from spinsys.symmetry import lieb_mattis_hamiltonian


def test_two_site_heisenberg_eigenvalues():
    # singlet at 3/4, triplet at -1/4 for H = -J S.S
    g = path_graph(2)
    H = assemble(heisenberg(g), SpinSpace.from_graph(g)).toarray()
    ev = np.sort(np.linalg.eigvalsh(H))
    assert_allclose(ev, [-0.25, -0.25, -0.25, 0.75], atol=1e-12)


def test_two_site_dot_commutes_with_total_spin():
    s = spin_matrices(1.0)
    dot = _two_site_dot(s, s)
    for comp in ("s1", "s2", "s3"):
        m = np.asarray(getattr(s, comp))
        total = np.kron(np.eye(3), m) + np.kron(m, np.eye(3))
        assert np.abs(dot @ total - total @ dot).max() < 1e-12


def test_aklt_bond_is_projector():
    phi = aklt(2)
    (support, mat), = phi.terms
    assert support == (0, 1)
    # projector onto the bond spin-2 subspace: P^2 = P, trace 5
    assert_allclose(mat @ mat, mat, atol=1e-12)
    assert np.trace(mat).real == pytest.approx(5.0, abs=1e-12)
    ev = np.sort(np.linalg.eigvalsh(mat))
    assert_allclose(ev, [0] * 4 + [1] * 5, atol=1e-12)


def test_aklt_open_chain_ground_degeneracy():
    space = SpinSpace((3,) * 4)
    H = assemble(aklt(4), space).toarray()
    ev = np.sort(np.linalg.eigvalsh(H))
    assert ev[:4].max() < 1e-10       # 4 edge states at zero energy
    assert ev[4] > 0.1


def test_xxz_params_consistency():
    p = XxzParams.from_q(6, 0.5)
    assert p.Delta == pytest.approx(1.25)
    p2 = XxzParams.from_delta(6, 1.25)
    assert p2.q == pytest.approx(0.5)
    assert p.A_Delta == pytest.approx(0.5 * np.sqrt(1 - 1 / 1.25 ** 2))
    with pytest.raises(ValueError):
        XxzParams(L=6, Delta=2.0, q=0.5)      # inconsistent pair
    with pytest.raises(ValueError):
        XxzParams.from_q(6, 1.5)


def test_xxz_ground_state_energy_zero():
    # all-up product state is a zero-energy ground state in both variants
    for boundary in ("open_with_field", "periodic"):
        p = XxzParams.from_q(6, 0.5, boundary=boundary)
        space = SpinSpace((2,) * 6)
        H = assemble(xxz(p), space)
        e0 = np.linalg.eigvalsh(H.toarray())[0]
        assert abs(e0) < 1e-12
        up = np.zeros(space.total_dim)
        up[0] = 1.0
        assert np.abs(H.matrix @ up).max() < 1e-12


def test_interaction_algebra():
    g = path_graph(3)
    phi = heisenberg(g)
    twice = phi + phi
    space = SpinSpace.from_graph(g)
    H1 = assemble(phi, space).toarray()
    H2 = assemble(twice, space).toarray()
    H3 = assemble(phi.scaled(2.0), space).toarray()
    assert_allclose(H2, 2 * H1, atol=1e-14)
    assert_allclose(H3, 2 * H1, atol=1e-14)


def test_custom_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        custom([((0,), bad)])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_custom_rejects_non_finite(value):
    # NaN passes a Hermiticity check that compares with ``>=``
    with pytest.raises(ValueError, match="not finite"):
        custom([((0,), np.diag([value, 0.0]))])


def test_lambda_norm_interior_value():
    # spin-1/2 chain, J=1, lambda=1: interior vertex carries two bond terms,
    # each contributing |X| ||Phi(X)|| N^(2|X|) e^lambda = 2 (3/4) 16 e = 24e
    g = path_graph(8)
    val = lambda_norm(heisenberg(g), 1.0, g)
    assert val == pytest.approx(48 * np.e, abs=1e-9)
    # two-site chain: single bond, 24e
    g2 = path_graph(2)
    assert lambda_norm(heisenberg(g2), 1.0, g2) == pytest.approx(24 * np.e, abs=1e-9)


def test_assemble_deterministic_bytes():
    g = ring_graph(5)
    space = SpinSpace.from_graph(g)
    a = assemble(heisenberg(g), space).matrix
    b = assemble(heisenberg(g), space).matrix
    assert a.data.tobytes() == b.data.tobytes()
    assert a.indices.tobytes() == b.indices.tobytes()


def test_su2_check_reads_the_terms():
    g, half, one = ring_graph(4), SpinSpace((2,) * 4), SpinSpace((3,) * 4)
    s, s1 = spin_matrices(0.5), spin_matrices(1.0)
    szsz = custom([((x, (x + 1) % 4), np.kron(s1.s3, s1.s3)) for x in range(4)])
    bond = -sum(np.kron(a, a) for a in (s.s1, s.s2, s.s3))
    mixed = build_graph(3, [(0, 1, 1.0), (1, 2, -0.7)], spins={0: 1.5, 2: 1.0})
    invariant = [(heisenberg(g), half), (heisenberg(g) + heisenberg(g), half),
                 (heisenberg(g).scaled(-2.0), half), (aklt(4, periodic=True), one),
                 (lieb_mattis_hamiltonian(star_graph(3), [0], [1, 2, 3]), half),
                 (heisenberg(mixed), SpinSpace.from_graph(mixed)), (custom([]), half)]
    assert all(phi.su2_invariant(space) for phi, space in invariant)
    # a uniform S3 field, AKLT + 0.04 S3 S3, the XXZ bond, and a Heisenberg
    # bond plus 1e-9 S1 S1
    off = bond + 1e-9 * np.kron(s.s1, s.s1)
    broken = [(custom([((x,), s.s3) for x in range(4)]), half),
              (aklt(4, periodic=True) + szsz.scaled(0.04), one),
              (xxz(XxzParams.from_q(4, 0.5, boundary="periodic")), half),
              (custom([((0, 1), off)]), half)]
    assert not any(phi.su2_invariant(space) for phi, space in broken)
    # the check is relative to the scale of the terms
    assert heisenberg(g).scaled(1e-20).su2_invariant(half)
    assert not custom([((0, 1), 1e-20 * off)]).su2_invariant(half)
    with pytest.raises(ValueError, match="outside the space"):
        heisenberg(ring_graph(5)).su2_invariant(half)


def test_su2_check_builds_each_total_once(monkeypatch):
    # S+_X and S3_X once per tuple of spins on the supports: the AKLT ring
    # has nine bonds of one kind, the mixed chain two bonds of two kinds
    mixed = build_graph(3, [(0, 1, 1.0), (1, 2, -0.7)], spins={0: 1.5, 2: 1.0})
    cases = [(aklt(9, periodic=True), SpinSpace((3,) * 9), 4),
             (heisenberg(mixed), SpinSpace.from_graph(mixed), 8)]
    calls = []
    real = spinsys.models.spin_matrices
    monkeypatch.setattr(spinsys.models, "spin_matrices",
                        lambda s: calls.append(s) or real(s))
    for phi, space, built in cases:
        calls.clear()
        assert phi.su2_invariant(space)
        assert len(calls) == built


def test_flip_check_reads_the_terms():
    g = ring_graph(4)
    s3 = np.asarray(spin_matrices(1.0).s3)
    szsz = custom([((x, (x + 1) % 4), np.kron(s3, s3)) for x in range(4)])
    flip = [heisenberg(g), heisenberg(star_graph(3, spin=1.0)), aklt(4, periodic=True),
            xxz(XxzParams.from_q(4, 0.5, boundary="periodic")), szsz,
            aklt(4, periodic=True) + szsz.scaled(0.04), custom([])]
    assert all(phi.flip_invariant() for phi in flip)
    # a one-site S3, the open XXZ boundary field, and a term off by 1e-9
    off = np.kron(s3, s3) + 1e-9 * np.diag(np.arange(9.0))
    for phi in (heisenberg(g) + custom([((0,), 0.1 * np.asarray(spin_matrices(0.5).s3))]),
                xxz(XxzParams.from_q(4, 0.5)), custom([((0, 1), off)])):
        assert not phi.flip_invariant()
    # the check is relative to the term's scale
    assert szsz.scaled(1e-20).flip_invariant()
    assert not custom([((0, 1), 1e-20 * off)]).flip_invariant()


@pytest.mark.parametrize("J", [float("inf"), float("nan"), 0.0, -1.0])
def test_xxz_params_refuse_a_coupling_that_is_not_positive_and_finite(J):
    with pytest.raises(ValueError, match="J must be positive and finite"):
        XxzParams.from_q(4, 0.5, J=J)


@pytest.mark.parametrize("delta", [17.5, 20.0, 1e3, 1e8])
def test_xxz_params_from_a_large_delta(delta):
    # the root q of Delta = (q + 1/q)/2 is taken without cancellation, so the
    # pair stays consistent however large Delta is
    p = XxzParams.from_delta(4, delta)
    assert p.Delta == delta
    assert (p.q + 1 / p.q) / 2 == pytest.approx(delta, rel=1e-14)


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), 1.0])
def test_xxz_delta_checks_name_delta(delta):
    with pytest.raises(ValueError, match="Delta"):
        XxzParams.from_delta(4, delta)
    with pytest.raises(ValueError, match="Delta"):
        XxzParams(L=4, Delta=delta, q=0.5)


def _szsz_ring(L):
    """The S3 S3 ring perturbation of the ``perturb`` campaign (spin 1)."""
    s3 = np.asarray(spin_matrices(1.0).s3)
    return custom([((x, (x + 1) % L), np.kron(s3, s3)) for x in range(L)])


def _mixed_chain():
    g = build_graph(5, [(0, 1, 1.0), (1, 2, 0.7), (2, 3, 1.3), (3, 4, 0.9), (4, 0, 0.4)],
                    spins={0: 0.5, 1: 1.0, 2: 0.5, 3: 1.5, 4: 0.5})
    return heisenberg(g), SpinSpace.from_graph(g)


BUILDER_CASES = {
    "heisenberg_spin_half_chain": lambda: (heisenberg(path_graph(7)), SpinSpace((2,) * 7)),
    "heisenberg_spin1_chain": lambda: (heisenberg(path_graph(5, spin=1.0)), SpinSpace((3,) * 5)),
    "aklt_open": lambda: (aklt(5), SpinSpace((3,) * 5)),
    "aklt_ring": lambda: (aklt(5, periodic=True), SpinSpace((3,) * 5)),
    "xxz_open": lambda: (xxz(XxzParams.from_q(8, 0.4)), SpinSpace((2,) * 8)),
    "xxz_periodic": lambda: (xxz(XxzParams.from_q(8, 0.4, boundary="periodic")),
                             SpinSpace((2,) * 8)),
    "lieb_mattis_star": lambda: (lieb_mattis_hamiltonian(star_graph(5), [0], range(1, 6)),
                                 SpinSpace((2,) * 6)),
    "lieb_mattis_star_spin1": lambda: (
        lieb_mattis_hamiltonian(star_graph(4, spin=1.0), [0], range(1, 5)), SpinSpace((3,) * 5)),
    "lieb_mattis_ring_intra": lambda: (
        lieb_mattis_hamiltonian(ring_graph(6), [0, 2, 4], [1, 3, 5],
                                intra_a=[(0, 2, 0.5)], intra_b=[(1, 5, 0.3)]),
        SpinSpace((2,) * 6)),
    "ssep_spin_interaction": lambda: (
        ssep_spin_interaction(build_graph(6, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0),
                                              (3, 4, 1.0), (4, 5, 0.7), (5, 0, 1.5), (1, 4, 0.3)])),
        SpinSpace((2,) * 6)),
    "aklt_plus_szsz": lambda: (aklt(5, periodic=True) + _szsz_ring(5).scaled(0.07),
                               SpinSpace((3,) * 5)),
    "mixed_spins": _mixed_chain,
}


@pytest.mark.parametrize("case", BUILDER_CASES.values(), ids=BUILDER_CASES.keys())
def test_sector_assembly_matches_restricted_full_space(case):
    # oracle: the block of the full-space H on each sector, gathered by restrict
    phi, space = case()
    H = assemble(phi, space)
    for M in space.magnetization_values():
        sector = magnetization_sector(space, M)
        block = assemble(phi, sector)
        assert block.basis is sector and block.matrix.dtype == np.float64
        ref = restrict(H, sector)
        assert ref.dtype == np.float64
        assert_allclose(block.toarray(), ref, rtol=0,
                        atol=1e-12 * max(1.0, np.abs(ref).max()))
        # on the operator built for it, restrict is a plain conversion
        assert np.array_equal(restrict(block, sector), block.toarray())


@pytest.mark.parametrize("case", BUILDER_CASES.values(), ids=BUILDER_CASES.keys())
def test_assembly_memory_bound(case, monkeypatch):
    # the CSR bound (one diagonal entry plus, per term, the most off-diagonal
    # nonzeros of a local column) holds on the space and on every sector, and
    # a physical memory one byte below the estimate refuses the assembly
    phi, space = case()
    local = {}
    for support, m in phi.terms:
        local[support] = local.get(support, 0) + m
    per_column = 1 + sum(int(np.count_nonzero(m - np.diag(np.diag(m)), axis=0).max())
                         for m in local.values())
    for basis in [space] + [magnetization_sector(space, M)
                            for M in space.magnetization_values()]:
        H = assemble(phi, basis).matrix
        assert H.nnz <= basis.total_dim * per_column
        need = ASSEMBLY_COPIES * basis.total_dim * per_column * (4 + H.dtype.itemsize)
        with monkeypatch.context() as m:
            m.setattr(spinsys.util, "PHYSICAL_MEMORY", need - 1)
            with pytest.raises(ValueError, match=f"assembling H on {basis.total_dim} "
                                                 "states needs about .* GiB"):
                assemble(phi, basis)
            m.setattr(spinsys.util, "PHYSICAL_MEMORY", need)
            assemble(phi, basis)


def test_assembly_beyond_any_memory_is_refused():
    with pytest.raises(ValueError, match="assembling H on 1125899906842624 states "
                                         "needs about .* GiB, above the"):
        assemble(heisenberg(path_graph(50)), SpinSpace((2,) * 50))


def test_real_terms_give_float64_and_complex_terms_complex128():
    space = SpinSpace((2,) * 3)
    assert assemble(heisenberg(path_graph(3)), space).matrix.dtype == np.complex128
    sector = magnetization_sector(space, 0.5)
    assert assemble(heisenberg(path_graph(3)), sector).matrix.dtype == np.float64
    s = spin_matrices(0.5)
    dm = custom([((0, 1), 0.3j * (np.kron(s.plus, s.minus) - np.kron(s.minus, s.plus)))])
    H = assemble(dm, magnetization_sector(space, 0.5))
    assert H.matrix.dtype == np.complex128 and np.abs(H.matrix.data.imag).max() > 0


def test_sector_breaking_term_is_refused():
    # a transverse S1 field does not conserve M: its sector block leaks
    s1 = np.asarray(spin_matrices(0.5).s1)
    phi = heisenberg(path_graph(4)) + custom([((2,), 0.1 * s1)])
    with pytest.raises(ValueError, match="leaks out of sector"):
        assemble(phi, magnetization_sector(SpinSpace((2,) * 4), 0.0))
