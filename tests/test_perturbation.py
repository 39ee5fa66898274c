import numpy as np
import pytest

from spinsys import SpinSpace, aklt, frustration_free_check, gap_sweep, spin_matrices
from spinsys.models import custom


def test_aklt_periodic_is_frustration_free():
    rep = frustration_free_check(aklt(6, periodic=True), SpinSpace((3,) * 6),
                                 v0_size=1)
    assert rep.psd and rep.zero_energy
    assert rep.ground_degeneracy == 1
    assert rep.c > 0.3


def test_open_chain_reports_degeneracy():
    rep = frustration_free_check(aklt(5), SpinSpace((3,) * 5), v0_size=1)
    assert rep.zero_energy
    assert rep.ground_degeneracy == 4     # two free edge spins-1/2
    assert not rep.condition_holds


def test_gap_sweep_small_grid():
    sz = np.asarray(spin_matrices(1.0).s3)
    pert = custom([((x,), sz @ sz) for x in range(6)])
    lams = [-0.05, 0.0, 0.05]
    sweep = gap_sweep(aklt(6, periodic=True), pert, SpinSpace((3,) * 6), lams)
    assert sweep.ground_degeneracies[0.0] == 1
    g0 = sweep.gaps[0.0]
    assert g0 > 0.3
    for lam in lams:
        assert sweep.gaps[lam] > 0
        assert abs(sweep.gaps[lam] - g0) <= sweep.weyl_bound(lam) + 1e-10
    assert sweep.stable_lambdas == lams
    # perturbation norm is L for Sum (S^3)^2 on a spin-1 ring
    assert sweep.pert_norm == pytest.approx(6.0, abs=1e-6)


@pytest.mark.parametrize("L", [5, 6])
def test_gap_sweep_szsz_norm_is_exactly_L(L, monkeypatch):
    # the S3 S3 ring is diagonal: its extremes, L (every m = 1) and -L or
    # 2 - L, are read off the diagonal with no Krylov rounding and no ARPACK
    import scipy.sparse.linalg as spla

    def no_arpack(*args, **kwargs):
        raise AssertionError("ARPACK ran on a diagonal operator")

    monkeypatch.setattr(spla, "eigsh", no_arpack)
    s3 = np.asarray(spin_matrices(1.0).s3)
    pert = custom([((x, (x + 1) % L), np.kron(s3, s3)) for x in range(L)])
    sweep = gap_sweep(aklt(L, periodic=True), pert, SpinSpace((3,) * L), [0.0])
    assert sweep.pert_norm == float(L)


@pytest.mark.parametrize("name", ["szsz_ring", "one_site_field", "transverse_field"])
def test_perturbation_norm_from_the_sectors(name, monkeypatch):
    # one block on the sectors M >= 0 for the flip-invariant S3 S3 ring and
    # transverse field, on every sector for a one-site S3 field, and the full
    # space only for the transverse field, which leaks out of that block;
    # each against the dense full-space norm
    import spinsys.perturbation
    from spinsys import SectorBasis, assemble
    from spinsys.hilbert import total_sz_diagonal
    s = spin_matrices(1.0)
    s1, s3 = np.asarray(s.s1), np.asarray(s.s3)
    L = 5
    pert = {"szsz_ring": custom([((x, (x + 1) % L), np.kron(s3, s3)) for x in range(L)]),
            "one_site_field": custom([((2,), s3 + 0.3 * s3 @ s3)]),
            "transverse_field": custom([((x,), s1) for x in range(L)])}[name]
    space = SpinSpace((3,) * L)
    bases = []
    real = spinsys.perturbation.assemble

    def spy(phi, basis):
        bases.append(basis)
        return real(phi, basis)

    monkeypatch.setattr(spinsys.perturbation, "assemble", spy)
    sweep = gap_sweep(aklt(L, periodic=True), pert, space, [0.0])
    want = np.abs(np.linalg.eigvalsh(assemble(pert, space).toarray())).max()
    assert sweep.pert_norm == pytest.approx(want, rel=1e-12, abs=0)
    union, *rest = bases
    assert isinstance(union, SectorBasis)
    twice_m = 2 * total_sz_diagonal(space)
    want = np.flatnonzero(twice_m >= 0 if pert.flip_invariant() else twice_m == twice_m)
    assert np.array_equal(union.states, want)
    if name == "transverse_field":
        assert len(rest) == 1 and not isinstance(rest[0], SectorBasis)
    else:
        assert rest == []
