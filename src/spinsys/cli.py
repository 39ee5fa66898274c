"""Configuration-driven experiment runner.

Every campaign is a subcommand emitting a CSV or JSON table plus a JSON
manifest (config echo, versions, wall time, per-assertion verdicts).  The
process exits 0 iff every assertion passed; 2 on config errors, 3 on solver
failures, 4 on unwritable output paths.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

from . import __version__
from .lattice import load_graph, path_graph, ring_graph, distances_from
from .hilbert import SpinSpace, check_spin, embed_at, magnetization_sector, spin_matrices
from .models import XxzParams, aklt, assemble, custom, heisenberg, lambda_norm, xxz
from .spectral import DEGENERACY_TOL, ConvergenceError, sector_spectrum
from .symmetry import classify_total_spin, foel_check, lieb_mattis_hamiltonian, \
    lieb_mattis_order, su2_totals, suq2_generators
from .ssep import check_exclusion_graph, ssep_gaps, xxx_conjugacy_check
from .dynamics import ClusteringRates, HeisenbergDynamics, clustering_report, \
    commutator_grid, commutator_growth, hermitian_unit_basis, lr_bound_rhs, lr_corollary_bound
from .perturbation import gap_sweep
from .droplets import convergence_table
from .util import fmt_float, require_memory

COMMON_KEYS = {
    "out": str, "format": str, "threads": int, "config": str,
}

MODEL_KEYS = {
    "model": str, "L": int, "J": float, "spin": float, "Delta": float,
    "q": float, "graph": str,
}

SUB_KEYS = {
    "spectrum": dict(MODEL_KEYS),
    "foel": dict(MODEL_KEYS),
    "liebmattis": {"graph": str},
    "ssep": {"graph": str},
    "droplet": {"q": float, "Delta": float, "n": int, "Lmin": int, "Lmax": int,
                "J": float},
    "lightcone": {"L": int, "J": float, "spin": float, "lam": float,
                  "tmax": float, "tsteps": int, "bsite": int},
    "cluster": {"L": int, "lam": float},
    "perturb": {"L": int, "lambda_min": float, "lambda_max": float,
                "lambda_step": float},
}


class ConfigError(ValueError):
    pass


def _graph(cfg, sub):
    """The graph file of ``sub``; one that does not parse is a config error."""
    if "graph" not in cfg:
        raise ConfigError(f"{sub} needs a graph file")
    try:
        return load_graph(cfg["graph"])
    except ValueError as exc:
        raise ConfigError(f"{cfg['graph']}: {exc}") from exc


def parse_config_file(path):
    """Plain-text ``key = value`` file with optional [section] headers; only
    sections named 'common' or a subcommand are accepted."""
    sections = {"common": {}}
    current = "common"
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for ln_no, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current != "common" and current not in SUB_KEYS:
                raise ConfigError(f"line {ln_no}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln_no}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        sections[current][key] = value
    return sections


def merge_config(sub, file_sections, flag_values):
    """Defaults <- config file <- command-line flags; unknown keys are errors."""
    allowed = dict(COMMON_KEYS)
    allowed.update(SUB_KEYS[sub])
    merged = {"format": "csv", "threads": 1, "out": f"spinsys_{sub}.csv"}
    for section in ("common", sub):
        for key, value in file_sections.get(section, {}).items():
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                merged[key] = allowed[key](value)
            except ValueError:
                raise ConfigError(f"[{section}] {key} = {value!r} is not a "
                                  f"{allowed[key].__name__}") from None
    for key, value in flag_values.items():
        if value is None:
            continue
        if key not in allowed:
            raise ConfigError(f"unknown flag {key!r}")
        merged[key] = value
    if merged["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {merged['format']!r}")
    if merged["threads"] < 1:
        raise ConfigError(f"threads must be at least 1, got {merged['threads']}")
    return merged


@dataclass
class Assertion:
    name: str
    passed: bool
    detail: str = ""


def emit(columns, rows, fmt, path):
    """Write a table; floats go out with 17 significant digits.  JSON has no
    NaN or infinity, so a JSON table holds a non-finite float as the text of
    its CSV cell ("nan", "inf", "-inf"), which ``float`` reads back alike.
    Each CSV line is written as it is formed and the JSON text is dumped to
    the file, so the table's text is never held whole."""

    def cell(v):
        if isinstance(v, float):
            return fmt_float(v)
        return str(v)

    def value(v):
        return cell(v) if isinstance(v, float) and not math.isfinite(v) else v

    try:
        with open(path, "w") as fh:
            if fmt == "csv":
                fh.write(",".join(columns) + "\n")
                for row in rows:
                    fh.write(",".join(cell(row[c]) for c in columns) + "\n")
            else:
                json.dump({c: [value(row[c]) for row in rows] for c in columns}, fh,
                          indent=1, sort_keys=True, allow_nan=False)
                fh.write("\n")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


class OutputError(OSError):
    pass


def _model_space_and_interaction(cfg):
    """(space, interaction, total-spin ladder) of the configured model; the
    ladder is None for the periodic XXZ chain, which commutes with neither
    the SU(2) nor the SU_q(2) raising total."""
    model = cfg.get("model", "heisenberg")
    L = cfg.get("L", 6)
    J = cfg.get("J", 1.0)
    spin = cfg.get("spin", 0.5)
    smallest_L = {"heisenberg": 1, "aklt": 2, "xxz_open": 2, "xxz_periodic": 3}
    if model not in smallest_L:
        raise ConfigError(f"unknown model {model!r}")
    if L < smallest_L[model]:
        raise ConfigError(f"the {model} model needs L >= {smallest_L[model]}, got {L}")
    _check_spin_and_coupling(spin, J)
    if model == "heisenberg":
        if "graph" in cfg:
            g = _graph(cfg, "the heisenberg model")
        else:
            g = path_graph(L, weight=J, spin=spin)
        space = SpinSpace.from_graph(g)
        return space, heisenberg(g), su2_totals(space)
    if model == "aklt":
        g = path_graph(L, spin=1.0)
        space = SpinSpace.from_graph(g)
        return space, aklt(L), su2_totals(space)
    if model in ("xxz_open", "xxz_periodic"):
        boundary = "periodic" if model == "xxz_periodic" else "open_with_field"
        p = _xxz_params(cfg, L, J, boundary)
        ladder = None if boundary == "periodic" else suq2_generators(p)
        return SpinSpace((2,) * L), xxz(p), ladder


def _xxz_params(cfg, L, J, boundary="open_with_field") -> XxzParams:
    """The XXZ chain of the configured Delta or q (exactly one); a value that
    ``XxzParams`` refuses is a config error.  ``droplet`` reads q alone."""
    if ("Delta" in cfg) == ("q" in cfg):
        raise ConfigError("give exactly one of Delta, q")
    try:
        if "q" in cfg:
            return XxzParams.from_q(L, cfg["q"], J=J, boundary=boundary)
        return XxzParams.from_delta(L, cfg["Delta"], J=J, boundary=boundary)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def run_spectrum(cfg):
    space, phi, _ = _model_space_and_interaction(cfg)
    H = assemble(phi, space)
    rows = []
    trace = float(np.real(H.matrix.diagonal().sum()))
    total = 0.0
    for M in space.magnetization_values():
        sector = magnetization_sector(space, M)
        rep = sector_spectrum(H, sector)
        total += float(rep.eigenvalues.sum())
        for i, e in enumerate(rep.eigenvalues):
            rows.append({"sector_M": M, "index": i, "energy": float(e)})
    ok = abs(total - trace) <= 1e-9 * max(1.0, abs(trace))
    asserts = [Assertion("eigenvalue_sum_matches_trace", ok,
                         f"sum={total!r} trace={trace!r}")]
    return ["sector_M", "index", "energy"], rows, asserts, {}


def run_foel(cfg):
    space, phi, ladder = _model_space_and_interaction(cfg)
    if ladder is None:
        raise ConfigError("foel needs a total-spin ladder, and the periodic XXZ "
                          "chain has neither SU(2) nor SU_q(2) symmetry")
    levels = classify_total_spin(phi, ladder, space)
    verdict = foel_check(levels)
    e0 = min(levels.entries.values())
    # the sectors M = S >= 0 were solved by the classification, and under the
    # global spin flip the sector M < 0 has the levels of -M
    flip = phi.flip_invariant()
    rows = []
    for M in space.magnetization_values():
        twice_m = int(round(2 * M))
        energies = levels.sector_levels.get(abs(twice_m) if flip else twice_m)
        if energies is None:
            sector = magnetization_sector(space, M)
            energies = sector_spectrum(assemble(phi, sector), sector).eigenvalues
        for e in energies:
            rows.append({"S3": M, "energy_offset": float(e - e0)})
    table_rows = [{"twice_S": t, "S": t / 2,
                   "E_min": levels.entries[t], "E_max": levels.max_entries[t]}
                  for t in levels.spins()]
    asserts = [Assertion("foel_holds", verdict.holds,
                         f"margin={verdict.margin!r} witness={verdict.witness}")]
    extra = {"levels": (["twice_S", "S", "E_min", "E_max"], table_rows)}
    return ["S3", "energy_offset"], rows, asserts, extra


def run_liebmattis(cfg):
    g = _graph(cfg, "liebmattis")
    # 2-color by BFS from vertex 0
    dist = distances_from(g, 0)
    if any(math.isinf(d) for d in dist):
        raise ConfigError("graph must be connected for the bipartition")
    part_a = [x for x in g.vertices if int(dist[x]) % 2 == 0]
    part_b = [x for x in g.vertices if int(dist[x]) % 2 == 1]
    try:
        phi = lieb_mattis_hamiltonian(g, part_a, part_b)
    except ValueError as exc:
        raise ConfigError(f"{cfg['graph']}: {exc}") from exc
    space = SpinSpace.from_graph(g)
    levels = classify_total_spin(phi, su2_totals(space), space)
    verdict = lieb_mattis_order(levels, g, part_a, part_b)
    rows = [{"twice_S": t, "S": t / 2, "E_min": levels.entries[t],
             "E_max": levels.max_entries[t]} for t in levels.spins()]
    asserts = [Assertion("lieb_mattis_holds", verdict.holds,
                         f"margin={verdict.margin!r} witness={verdict.witness}")]
    return ["twice_S", "S", "E_min", "E_max"], rows, asserts, {}


def run_ssep(cfg):
    g = _graph(cfg, "ssep")
    try:
        check_exclusion_graph(g)
    except ValueError as exc:
        raise ConfigError(f"{cfg['graph']}: {exc}") from exc
    report = ssep_gaps(g)
    rows = [{"n": n, "dim": report.dims[n], "lambda_n": report.gaps[n],
             "aldous_margin": report.aldous_margin}
            for n in sorted(report.gaps)]
    asserts = [
        Assertion("uniform_is_stationary",
                  max(report.stationary_checks.values()) < 1e-12,
                  f"max |L 1| = {max(report.stationary_checks.values())!r}"),
        Assertion("aldous_margin_small", report.aldous_margin < 1e-9,
                  f"margin={report.aldous_margin!r}"),
    ]
    try:
        conj = xxx_conjugacy_check(g)
        asserts.append(Assertion("xxx_conjugacy", True,
                                 f"max entry deviation {conj.max_deviation!r}"))
    except ValueError as exc:
        asserts.append(Assertion("xxx_conjugacy", False, str(exc)))
    return ["n", "dim", "lambda_n", "aldous_margin"], rows, asserts, {}


def run_droplet(cfg):
    n = cfg.get("n", 1)
    J = cfg.get("J", 1.0)
    Lmax = cfg.get("Lmax", 12)
    Lmin = cfg.get("Lmin", max(4, 2 * n + 2))
    q = _xxz_params(cfg, 2, J).q
    if n < 1:
        raise ConfigError(f"n must be at least 1, got {n}")
    # the ring needs 3 sites, and the open chain's spin S_max - n = L/2 - n
    # must not be negative
    if Lmin < max(3, 2 * n):
        raise ConfigError(f"Lmin {Lmin} is below max(3, 2n) = {max(3, 2 * n)}")
    if Lmin > Lmax:
        raise ConfigError(f"Lmin {Lmin} exceeds Lmax {Lmax}")
    table = convergence_table(q, n, range(Lmin, Lmax + 1, 2), J=J)
    rows = [{"q": q, "n": n, "L": r.L,
             "E_L_periodic": r.e_periodic, "E_open_suq": r.e_open_suq,
             "E_formula": table.formula_energy,
             "abs_dev": r.dev_periodic,
             "band_width_measured": r.band_width,
             "band_dev": r.band_dev}
            for r in table.rows]
    last = table.rows[-1]
    # the band deviation must fall from each L to L + 2 while it is above
    # the round-off floor (the n = 1 band is exact at every L)
    rises = [b.L for a, b in zip(table.rows, table.rows[1:])
             if a.band_dev > 1e-8 and not b.band_dev < a.band_dev]
    # every energy scales with J (> 0), so the deviations are bounded in units of J
    asserts = [
        Assertion("periodic_converges", last.dev_periodic / J < 1e-2,
                  f"|E_L(n) - E(n)| = {last.dev_periodic!r} at L={last.L}"),
        Assertion("open_suq_converges", last.dev_open / J < 2e-2,
                  f"|E_open - E(n)| = {last.dev_open!r} at L={last.L}"),
        Assertion("band_matches_dispersion", last.band_dev / J < 1e-2 and not rises,
                  f"max_k |E_L(k) - E_n(k)| = {last.band_dev!r} at L={last.L}"
                  + (f"; no fall from L - 2 at L = {rises}" if rises else "")),
    ]
    cols = ["q", "n", "L", "E_L_periodic", "E_open_suq", "E_formula",
            "abs_dev", "band_width_measured", "band_dev"]
    return cols, rows, asserts, {}


def run_lightcone(cfg):
    L = cfg.get("L", 8)
    J = cfg.get("J", 1.0)
    spin = cfg.get("spin", 0.5)
    lam = cfg.get("lam", 1.0)
    tmax = cfg.get("tmax", 1.0)
    tsteps = cfg.get("tsteps", 21)
    bsite = cfg.get("bsite", L // 2)
    _check_lam(lam)
    _check_spin_and_coupling(spin, J)
    if L < 1:
        raise ConfigError(f"L must be at least 1, got L={L}")
    if tsteps < 2:
        raise ConfigError(f"tsteps must be at least 2, got {tsteps}")
    if not math.isfinite(tmax):
        raise ConfigError(f"tmax must be finite, got {tmax}")
    if not 0 <= bsite < L:
        raise ConfigError(f"bsite {bsite} is not a site of the {L}-site chain")
    # the time grid, and about 1 KiB a table row: the row and its CSV or JSON text
    require_memory(32 * tsteps + 1024 * L * tsteps, f"the light-cone table of {L * tsteps} rows")
    g = path_graph(L, weight=J, spin=spin)
    space = SpinSpace.from_graph(g)
    phi = heisenberg(g)
    phi_norm = _lambda_norm(phi, lam, g)
    H = assemble(phi, space)
    dyn = HeisenbergDynamics(H)
    s = spin_matrices(spin)
    b_local = 2.0 * np.asarray(s.s3)      # sigma^3 for spin 1/2
    B = embed_at(space, [(bsite, b_local)])
    b_norm = float(np.linalg.norm(b_local, 2))
    ts = [tmax * i / (tsteps - 1) for i in range(tsteps)]
    # Spot check of the eigenbasis norms against the definition at the site
    # farthest from B at the last time: tau_-t(B) = U B U^H from the full
    # unitary, its commutator with each embedded unit A in the site basis,
    # and its norm.  It runs first, so that the memory refusal of its dense
    # unitary comes before the grid.
    far = max(range(L), key=lambda x: abs(x - bsite))
    spot = commutator_growth(dyn, B, far, ts[-1], space)
    direct = _commutator_by_definition(dyn, B.matrix, far, ts[-1], space)
    grid = commutator_grid(dyn, B, space, range(L), ts)
    rows = []
    violations = 0
    for x in range(L):
        for t, measured in zip(ts, grid[x].tolist()):
            bound = lr_bound_rhs(g, lam, phi_norm, x, {bsite}, b_norm, t)
            corollary = (lr_corollary_bound(g, lam, phi_norm, x, {bsite},
                                            1.0, b_norm, t)
                         if x != bsite else float("nan"))
            if measured > bound + 1e-9:
                violations += 1
            rows.append({"x": x, "t": t, "measured": measured,
                         "bound_thm1": bound, "bound_corollary": corollary})
    asserts = [Assertion("commutator_below_bound", violations == 0,
                         f"{violations} grid points violate the bound"),
               Assertion("eigenbasis_norm_matches_definition",
                         abs(spot - direct) <= 1e-9 * max(1.0, direct),
                         f"x={far} t={ts[-1]!r}: {spot!r} vs {direct!r}")]
    return ["x", "t", "measured", "bound_thm1", "bound_corollary"], rows, asserts, {}


def _commutator_by_definition(dyn, B, x, t, space):
    # [tau_t(A), B] = U^H [A, tau_-t(B)] U, so one backward evolution of B
    # serves every unit A at x, and the unitary invariance of the norm
    # leaves ||[A, tau_-t(B)]||.  With the unit a = W diag(lam) W^H, X =
    # tau_-t(B) is rotated by W on site x alone, a reshape to (hi, d, lo)
    # rows and columns; there i[A, X] is i(lam_r - lam_c) X_rc.  Where lam
    # takes two values lam_1 < lam_2, with P the projector of lam_1 and Q = 1 - P,
    # i[A, X] = i(lam_2 - lam_1)(Q X P - P X Q), of norm
    # (lam_2 - lam_1) sigma_max(P X Q); a unit whose pair {P, Q} was taken
    # before (E_11 = 1 - E_00 on spin 1/2) reuses it.  Any other unit is the
    # largest |eigenvalue| of the Hermitian i(lam_r - lam_c) X_rc.
    d, lo = space.site_dims[x], space.strides[x]
    hi = dyn.dim // (d * lo)
    X = dyn.evolve(B, -t).reshape(hi, d, lo * dyn.dim)

    def rotated(left, right):
        """left^H X right on the digits of site x, as a matrix."""
        Y = np.matmul(left.conj().T, X).reshape(-1, d, lo)
        return np.matmul(right.T, Y).reshape(hi * left.shape[1] * lo, -1)

    taken = []                   # (P, sigma_max(P X Q)) of each pair taken
    best = 0.0
    for local in hermitian_unit_basis(d):
        lam, W = np.linalg.eigh(local)
        cuts = np.flatnonzero(np.diff(lam) > 1e-9) + 1
        if cuts.size == 1:
            low, high = W[:, :cuts[0]], W[:, cuts[0]:]
            P = low @ low.conj().T
            sigma = next((s for Pt, s in taken if np.allclose(P, Pt, rtol=0, atol=1e-12)
                          or np.allclose(P, np.eye(d) - Pt, rtol=0, atol=1e-12)), None)
            if sigma is None:
                sigma = float(np.linalg.svd(rotated(low, high), compute_uv=False)[0])
                taken.append((P, sigma))
            best = max(best, float(lam[-1] - lam[0]) * sigma)
        elif cuts.size > 1:
            gap = (lam[:, None] - lam)[None, :, None, None, :, None]
            K = 1j * gap * rotated(W, W).reshape(hi, d, lo, hi, d, lo)
            best = max(best, float(np.abs(np.linalg.eigvalsh(K.reshape(dyn.dim, -1))).max()))
    return best


def _check_spin_and_coupling(spin, J):
    if not math.isfinite(J):
        raise ConfigError(f"J must be finite, got {J}")
    try:
        check_spin(spin)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_lam(lam):
    if not 0 < lam < math.inf:
        raise ConfigError(f"lam must be positive and finite, got {lam}")


def _lambda_norm(phi, lam, g):
    """``lambda_norm``, taken before any solve: a lam at which it overflows
    a float is a config error."""
    try:
        return lambda_norm(phi, lam, g)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def run_cluster(cfg):
    L = cfg.get("L", 8)
    lam = cfg.get("lam", 1.0)
    _check_lam(lam)
    if L < 3:
        raise ConfigError(f"a ring needs at least 3 sites, got L={L}")
    g = ring_graph(L, spin=1.0)
    phi = aklt(L, periodic=True)
    # mu = gamma lam / (4 ||Phi||_lam + gamma) grows with the gap, and a gap
    # exceeds DEGENERACY_TOL: a lam whose mu is 0 even then is refused
    if ClusteringRates(DEGENERACY_TOL, lam, _lambda_norm(phi, lam, g)).mu == 0:
        raise ConfigError(f"lam = {lam!r} is too small: the decay rate mu underflows to 0")
    s3 = np.asarray(spin_matrices(1.0).s3)
    report = clustering_report(g, phi, s3, lam, threads=cfg["threads"])
    rows = [{"x": r.x, "y": r.y, "d": r.distance, "b": r.b,
             "corr_abs": r.corr_abs, "bound_decay": r.bound,
             "gamma": report.gamma, "mu": report.rates.mu}
            for r in report.rows]
    asserts = [
        Assertion("unique_gapped_ground", report.ground_degeneracy == 1
                  and report.gamma > 0, f"gamma={report.gamma!r}"),
        Assertion("decay_bound_holds", report.bound_holds,
                  f"c={report.c_constant!r} on {report.checked_rows} checked rows"),
        Assertion("trivial_large_b_bound",
                  all(v <= bd + 1e-12 for (_, _, v, bd) in report.large_b),
                  "corr <= |A||B| e^(-gamma b)"),
    ]
    return ["x", "y", "d", "b", "corr_abs", "bound_decay", "gamma", "mu"], \
        rows, asserts, {}


def run_perturb(cfg):
    L = cfg.get("L", 8)
    lo = cfg.get("lambda_min", -0.1)
    hi = cfg.get("lambda_max", 0.1)
    step = cfg.get("lambda_step", 0.02)
    if L < 3:
        raise ConfigError(f"the AKLT ring needs at least 3 sites, got L={L}")
    for name, value in (("lambda_min", lo), ("lambda_max", hi), ("lambda_step", step)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if step <= 0:
        raise ConfigError(f"lambda_step must be positive, got {step}")
    if hi < lo:
        raise ConfigError(f"lambda_max {hi} is below lambda_min {lo}")
    if not math.isfinite((hi - lo) / step):
        raise ConfigError(f"the lambda grid from {lo} to {hi} in steps of {step} "
                          "has no finite length")
    count = int(round((hi - lo) / step)) + 1
    # about 1 KiB a lambda: its row, its sweep records and its CSV or JSON text
    require_memory(1024 * count, f"the gap table of {count} lambda values")
    lambdas = [round(lo + i * step, 12) for i in range(count)]
    s3 = np.asarray(spin_matrices(1.0).s3)
    szsz = np.kron(s3, s3)
    pert = custom([((x, (x + 1) % L), szsz) for x in range(L)])
    sweep = gap_sweep(aklt(L, periodic=True), pert, SpinSpace((3,) * L), lambdas,
                      threads=cfg["threads"])
    rows = [{"L": L, "lambda": lam, "ground_energy": sweep.ground_energies[lam],
             "degeneracy": sweep.ground_degeneracies[lam],
             "gap": sweep.gaps[lam]} for lam in lambdas]
    gap0 = sweep.gaps.get(0.0)
    weyl_ok = gap0 is None or all(
        abs(sweep.gaps[lam] - gap0) <= sweep.weyl_bound(lam) + 1e-8 for lam in lambdas)
    asserts = [
        Assertion("gap_positive_throughout",
                  all(sweep.gaps[lam] > 0 for lam in lambdas),
                  f"min gap {min(sweep.gaps.values())!r}"),
        Assertion("weyl_estimate_respected", weyl_ok,
                  f"pert norm {sweep.pert_norm!r}"),
    ]
    return ["L", "lambda", "ground_energy", "degeneracy", "gap"], rows, asserts, {}


RUNNERS = {
    "spectrum": run_spectrum, "foel": run_foel, "liebmattis": run_liebmattis,
    "ssep": run_ssep, "droplet": run_droplet, "lightcone": run_lightcone,
    "cluster": run_cluster, "perturb": run_perturb,
}


@functools.cache
def build_parser():
    """The argument parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(prog="spinsys",
                                     description="spin-system campaigns")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUB_KEYS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", type=str, default=None, choices=["csv", "json"])
        p.add_argument("--threads", type=int, default=None)
        for key, typ in SUB_KEYS[name].items():
            p.add_argument(f"--{key}", type=typ, default=None)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    sub = args.subcommand
    started = time.time()
    try:
        file_sections = parse_config_file(args.config) if args.config else {}
        flag_values = {k: v for k, v in vars(args).items()
                       if k not in ("subcommand", "config")}
        cfg = merge_config(sub, file_sections, flag_values)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        cols, rows, asserts, extra = RUNNERS[sub](cfg)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ValueError, RuntimeError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"solver error: out of memory: {exc}", file=sys.stderr)
        return 3

    out = cfg["out"]
    fmt = cfg["format"]
    try:
        emit(cols, rows, fmt, out)
        for suffix, (xcols, xrows) in extra.items():
            stem, dot, ext = out.rpartition(".")
            xpath = f"{stem}.{suffix}.{ext}" if dot else f"{out}.{suffix}"
            emit(xcols, xrows, fmt, xpath)
        manifest = {
            "subcommand": sub,
            "config": {k: v for k, v in sorted(cfg.items())},
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "spinsys": __version__,
            },
            "wall_time_s": time.time() - started,
            "assertions": [{"name": a.name, "passed": a.passed, "detail": a.detail}
                           for a in asserts],
        }
        with open(out + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except (OutputError, OSError) as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4

    failed = [a for a in asserts if not a.passed]
    for a in asserts:
        status = "PASS" if a.passed else "FAIL"
        print(f"[{status}] {a.name}: {a.detail}")
    return 0 if not failed else 1


def main():  # pragma: no cover
    sys.exit(run())


if __name__ == "__main__":
    main()
