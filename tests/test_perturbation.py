import math

import numpy as np
import pytest

from spinsys import (SpinSpace, aklt, frustration_free_check, gap_sweep,
                     relative_bound_alpha, spin_matrices)
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


def test_relative_bound_alpha_basics():
    h = np.diag([0.0, 1.0, 4.0])
    # phi supported on the range of h
    phi = np.diag([0.0, 2.0, 2.0])
    assert relative_bound_alpha(phi, h) == pytest.approx(2.0)
    # overlap with ker h forces alpha = infinity
    assert math.isinf(relative_bound_alpha(np.diag([1.0, 0, 0]), h))
    # zero perturbation
    assert relative_bound_alpha(np.zeros((3, 3)), h) == 0.0


def test_relative_bound_alpha_validates_inputs():
    with pytest.raises(ValueError):
        relative_bound_alpha(np.array([[0, 1], [0, 0]]), np.eye(2))
    with pytest.raises(ValueError):
        relative_bound_alpha(np.eye(2), -np.eye(2))


def test_gap_sweep_small_grid():
    sz = np.asarray(spin_matrices(1.0).s3)

    def base(L):
        return aklt(L, periodic=True)

    def pert(L):
        return custom([((x,), sz @ sz) for x in range(L)])

    lams = [-0.05, 0.0, 0.05]
    sweep = gap_sweep(base, pert, lams, [6])
    assert sweep.ground_degeneracies[(6, 0.0)] == 1
    g0 = sweep.gaps[(6, 0.0)]
    assert g0 > 0.3
    for lam in lams:
        assert sweep.gaps[(6, lam)] > 0
        assert abs(sweep.gaps[(6, lam)] - g0) <= sweep.weyl_bound(6, lam) + 1e-10
    assert sweep.stable_lambdas == lams
    # perturbation norm is L for Sum (S^3)^2 on a spin-1 ring
    assert sweep.pert_norms[6] == pytest.approx(6.0, abs=1e-6)


@pytest.mark.parametrize("L", [5, 6])
def test_gap_sweep_szsz_norm_is_exactly_L(L):
    # the S3 S3 ring is diagonal: its extremes, L (every m = 1) and -L or
    # 2 - L, are read off the diagonal with no Krylov rounding
    s3 = np.asarray(spin_matrices(1.0).s3)

    def pert(LL):
        return custom([((x, (x + 1) % LL), np.kron(s3, s3)) for x in range(LL)])

    sweep = gap_sweep(lambda LL: aklt(LL, periodic=True), pert, [0.0], [L])
    assert sweep.pert_norms[L] == float(L)


def test_gap_sweep_needs_spins_in_base_params():
    assert aklt(4).params["spins"] == (1.0,) * 4
    sz = np.asarray(spin_matrices(1.0).s3)

    def base(L):
        return custom([((x, (x + 1) % L), np.kron(sz, sz)) for x in range(L)])

    with pytest.raises(ValueError, match="'spins'"):
        gap_sweep(base, base, [0.0], [4])
