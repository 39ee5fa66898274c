"""Acceptance gate: ten headline claims, each printed as one pass/fail line.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the verdict lines.
"""

import time

import numpy as np
import pytest

import spinsys as ss
from spinsys import (SpinSpace, XxzParams, assemble, heisenberg,
                     magnetization_sector, sector_spectrum, spin_matrices)
from spinsys.models import custom
from spinsys.spectral import extremal_eigs, full_spectrum
from spinsys.ssep import ssep_gaps
from spinsys.symmetry import classify_total_spin, foel_check, su2_totals


def verdict(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def spin_levels(g):
    space = SpinSpace.from_graph(g)
    phi = heisenberg(g)
    return classify_total_spin(phi, su2_totals(space), space), assemble(phi, space), space


def test_01_ferromagnetic_level_ordering_figure():
    started = time.time()
    g = ss.path_graph(5, spin=1.0)
    levels, H, space = spin_levels(g)
    v = foel_check(levels)
    gap_direct = levels.entries[8] - levels.entries[10]   # E(H,4) - E(H,5)
    ev = np.sort(full_spectrum(H).eigenvalues)
    gap_spectrum = ev[np.searchsorted(ev, ev[0] + 1e-8)] - ev[0]
    # caption side check: the top level per S is the reflected bipartite
    # ordering, strictly decreasing over S = 1..5 (ground of -H at S = 1)
    tops = [levels.max_entries[t] for t in range(2, 11, 2)]
    monotone = all(a > b for a, b in zip(tops, tops[1:]))
    elapsed = time.time() - started
    ok = (v.holds and v.margin > 1e-6
          and abs(gap_direct - gap_spectrum) < 1e-9
          and monotone and elapsed < 10.0)
    verdict("ordering_spin1_chain_L5", ok,
            f"margin={v.margin:.3e} gap_dev={abs(gap_direct - gap_spectrum):.1e} "
            f"caption_monotone={monotone} elapsed={elapsed:.1f}s")


def test_02_two_site_analytics():
    levels, H, _ = spin_levels(ss.path_graph(2))
    ev = np.sort(full_spectrum(H).eigenvalues)
    ok = (np.abs(ev - np.array([-0.25, -0.25, -0.25, 0.75])).max() < 1e-12
          and abs(levels.entries[2] + 0.25) < 1e-12
          and abs(levels.entries[0] - 0.75) < 1e-12)
    verdict("two_site_heisenberg_exact", ok,
            f"E(H,1)={levels.entries[2]!r} E(H,0)={levels.entries[0]!r}")


def test_03_aldous_gap_identity():
    rng = np.random.default_rng(20240817)
    worst_path = 0.0
    for L in range(3, 8):
        edges = [(x, x + 1, float(rng.uniform(0.1, 3.0))) for x in range(L - 1)]
        rep = ssep_gaps(ss.build_graph(L, edges))
        worst_path = max(worst_path, rep.aldous_margin)
    worst_rand = 0.0
    count = 0
    while count < 20:
        n = int(rng.integers(3, 7))
        mask = rng.random((n, n)) < 0.6
        edges = [(x, y, float(rng.uniform(0.1, 2.0)))
                 for x in range(n) for y in range(x + 1, n) if mask[x, y]]
        if not edges:
            continue
        g = ss.build_graph(n, edges)
        if not ss.is_connected(g):
            continue
        worst_rand = max(worst_rand, ssep_gaps(g).aldous_margin)
        count += 1
    ok = worst_path < 1e-9 and worst_rand < 1e-9
    verdict("aldous_gap_identity", ok,
            f"paths_margin={worst_path:.1e} random_graphs_margin={worst_rand:.1e} "
            "(identity asserted as data on the random family)")


def test_04_exclusion_process_conjugacy():
    worst = 0.0
    for g in (ss.path_graph(3), ss.path_graph(4), ss.path_graph(5),
              ss.ring_graph(3), ss.ring_graph(4), ss.ring_graph(5)):
        rep = ss.xxx_conjugacy_check(g)
        worst = max(worst, rep.max_deviation)
    verdict("ssep_spin_chain_conjugacy", worst < 1e-10,
            f"max entrywise deviation |L - H_n| {worst:.1e} between the generator "
            "and the n-down-spin block, over paths and rings L<=5")


def test_05_droplet_energy_convergence():
    started = time.time()
    q = 0.5
    details = []
    ok = True
    for n in (1, 2, 3):
        table = ss.convergence_table(q, n, range(2 * n + 2, 17, 2))
        last = table.rows[-1]
        ok &= last.dev_periodic < 1e-2 and last.dev_open < 2e-2
        details.append(f"n={n}: per={last.dev_periodic:.4f} open={last.dev_open:.4f}")
        if n == 1:
            # E_L(1) = J(1 - 1/Delta) = 0.2 exactly at every L
            ok &= all(abs(r.e_periodic - 0.2) < 1e-9 for r in table.rows)
    elapsed = time.time() - started
    ok &= elapsed < 300
    verdict("droplet_energies_L16", ok,
            "; ".join(details) + f"; elapsed={elapsed:.1f}s")


def test_06_droplet_band_width():
    # the lowest level of every momentum block against the bound-state
    # dispersion E_n(k): exact for one magnon, and within 1e-2 for the
    # two-droplet at L = 16, at q = 1/2 and away from it
    details = []
    ok = True
    for q in (0.3, 0.5):
        for n, L, tol in ((1, 12, 1e-12), (2, 16, 1e-2)):
            band = ss.momentum_band(XxzParams.from_q(L, q, boundary="periodic"), n)
            dispersion = ss.bound_state_dispersion(q, n, 2 * np.pi * np.arange(L) / L)
            dev = float(np.abs(band - dispersion).max())
            ok &= dev < tol
            details.append(f"q={q} n={n} L={L}: width {band.max() - band.min():.6f} "
                           f"(E_n(pi) - E_n(0) = {dispersion.max() - dispersion.min():.6f}), "
                           f"max_k dev {dev:.1e}")
    verdict("droplet_band_widths", ok, "; ".join(details))


def test_07_commutator_light_cone():
    g = ss.path_graph(8)
    space = SpinSpace.from_graph(g)
    phi = heisenberg(g)
    H = assemble(phi, space)
    lam = 1.0
    phi_norm = ss.lambda_norm(phi, lam, g)
    norm_ok = abs(phi_norm - 48 * np.e) < 1e-9
    bsite = 4
    sigma3 = 2.0 * np.asarray(spin_matrices(0.5).s3)
    B = ss.embed_at(space, [(bsite, sigma3)])
    dyn = ss.HeisenbergDynamics(H)
    ts = [float(t) for t in np.linspace(0.0, 1.0, 21)]
    grid = ss.commutator_grid(dyn, B, space, range(8), ts)
    violations = 0
    t0_outside = 0.0
    for x in range(8):
        for t, measured in zip(ts, grid[x]):
            bound = ss.lr_bound_rhs(g, lam, phi_norm, x, {bsite}, 1.0, t)
            if measured > bound + 1e-9:
                violations += 1
            if t == 0.0 and x != bsite:
                t0_outside = max(t0_outside, measured)
    ok = norm_ok and violations == 0 and t0_outside < 1e-12
    verdict("lieb_robinson_bound_L8", ok,
            f"|Phi|_lambda dev={abs(phi_norm - 48 * np.e):.1e} "
            f"violations={violations} t0_outside={t0_outside:.1e}")


def test_08_exponential_clustering():
    g = ss.ring_graph(10, spin=1.0)
    phi = ss.aklt(10, periodic=True)
    s3 = np.asarray(spin_matrices(1.0).s3)
    rep = ss.clustering_report(g, phi, s3, 1.0, threads=4)
    zero_b = [r for r in rep.rows if r.b == 0.0 and r.distance > 1]
    zero_ok = all(r.corr_abs <= r.bound + 1e-12 for r in zero_b)
    large_ok = all(v <= bd + 1e-12 for (_, _, v, bd) in rep.large_b)
    ok = (rep.ground_degeneracy == 1 and rep.gamma > 0.1
          and rep.bound_holds and zero_ok and large_ok)
    verdict("clustering_aklt_L10", ok,
            f"gamma={rep.gamma:.4f} degeneracy={rep.ground_degeneracy} "
            f"window_bound={rep.bound_holds} b0={zero_ok} large_b={large_ok}")


def test_09_gap_stability_sweep():
    s3 = np.asarray(spin_matrices(1.0).s3)
    szsz = np.kron(s3, s3)
    base = ss.aklt(8, periodic=True)
    pert = custom([((x, (x + 1) % 8), szsz) for x in range(8)])
    space = SpinSpace((3,) * 8)
    lams = [round(-0.1 + 0.02 * i, 10) for i in range(11)]
    sweep = ss.gap_sweep(base, pert, space, lams, threads=4)
    gap0 = sweep.gaps[0.0]
    positive = all(sweep.gaps[lam] > 0 for lam in lams)
    weyl = all(abs(sweep.gaps[lam] - gap0) <= sweep.weyl_bound(lam) + 1e-8
               for lam in lams)
    # lambda = 0 row must coincide with a standalone unperturbed run of
    # the same solve (gap_sweep keeps the 6 lowest levels per sector)
    ref = ss.spectral_gap(ss.sector_sweep_lowest(base, space, k=6, threads=4)[0]).gap
    exact0 = gap0 == ref
    verdict("gap_sweep_perturbed_aklt", positive and weyl and exact0,
            f"gap range [{min(sweep.gaps.values()):.4f}, "
            f"{max(sweep.gaps.values()):.4f}] weyl={weyl} "
            f"lambda0_matches_unperturbed={exact0}")


def test_10_infrastructure_guarantees(tmp_path):
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(16, 513))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (a + a.conj().T) / 2
        dense = np.sort(np.linalg.eigvalsh(h))
        k = int(rng.integers(1, 4))
        rep = extremal_eigs(h, k=k)
        worst = max(worst, float(np.abs(rep.eigenvalues - dense[:k]).max()))

    union_dev = 0.0
    for g in (ss.path_graph(8), ss.ring_graph(9),
              ss.path_graph(6, spin=1.0), ss.star_graph(5)):
        space = SpinSpace.from_graph(g)
        H = assemble(heisenberg(g), space)
        assert space.total_dim <= 1024
        whole = np.sort(full_spectrum(H).eigenvalues)
        parts = np.sort(np.concatenate(
            [sector_spectrum(H, magnetization_sector(space, M)).eigenvalues
             for M in space.magnetization_values()]))
        union_dev = max(union_dev, float(np.abs(whole - parts).max()))

    from spinsys.cli import run
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(["cluster", "--L", "6", "--threads", "1", "--out", str(a)])
    run(["cluster", "--L", "6", "--threads", "4", "--out", str(b)])
    bytes_equal = a.read_bytes() == b.read_bytes()

    ok = worst < 1e-9 and union_dev < 1e-10 and bytes_equal
    verdict("infrastructure_guarantees", ok,
            f"lanczos_dev={worst:.1e} sector_union_dev={union_dev:.1e} "
            f"cli_bytes_identical={bytes_equal}")
