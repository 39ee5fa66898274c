"""Heisenberg dynamics, commutator light cones, and ground-state clustering.

Real-time evolution goes through the dense eigendecomposition of H (the
full unitary is needed anyway); light-cone commutator norms are taken in
its eigenbasis.  Imaginary-time weights e^(-b(H-E0)) are
applied by spectral decomposition on the dense path and, inside one sector,
by scipy's ``expm_multiply`` on the sparse block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .lattice import SpinGraph, graph_distance, set_distance, distances_from
from .hilbert import SpinSpace, SparseOperator, embed_at, magnetization_sector, restrict
from .models import Interaction, lambda_norm, assemble
from .spectral import DENSE_CUTOFF, dense_refusal, extremal_eigs, full_spectrum, \
    sector_sweep_lowest, spectral_gap

UNITARITY_TOL = 1e-10


def hermitian_unit_basis(n: int):
    """A Hermitian spanning set of M_n, each element of operator norm 1:
    the diagonal units E_ii, the symmetric pairs E_ij + E_ji, and the
    antisymmetric pairs i(E_ij - E_ji)."""
    basis = []
    for i in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[i, i] = 1.0
        basis.append(m)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = m[j, i] = 1.0
            basis.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1j
            m[j, i] = -1j
            basis.append(m)
    return basis


class HeisenbergDynamics:
    """Caches the eigendecomposition of a Hamiltonian for repeated evolutions.

    H is diagonalised as real float64 when it has no imaginary part, so the
    eigenvectors of every real model come from the real solver."""

    def __init__(self, H, cutoff=DENSE_CUTOFF):
        mat = H.matrix if isinstance(H, SparseOperator) else H
        dim = mat.shape[0]
        values = mat.data if sp.issparse(mat) else np.asarray(mat)
        dtype = np.complex128 if np.any(values.imag) else np.float64
        if dim > cutoff:
            raise ValueError(dense_refusal(
                dim, cutoff, dtype,
                "real-time evolution needs the full unitary, use a smaller system"))
        dense = mat.toarray() if sp.issparse(mat) else np.asarray(mat)
        if dtype is np.float64:
            dense = dense.real
        self.evals, self.vecs = np.linalg.eigh(dense)
        self.dim = dim

    def phases(self, t: float) -> np.ndarray:
        """e^(-itE) over the eigenvalues E."""
        return np.exp(-1j * t * self.evals)

    def to_eigenbasis(self, A) -> np.ndarray:
        """V^H A V for the eigenvectors V; a sparse A is applied to V first."""
        if isinstance(A, SparseOperator):
            A = A.matrix
        elif not sp.issparse(A):
            A = np.asarray(A)
        return self.vecs.conj().T @ (A @ self.vecs)

    def evolve(self, A, t: float) -> np.ndarray:
        """tau_t(A) = e^(itH) A e^(-itH)."""
        p = self.phases(t)
        out = p.conj()[:, None] * self.to_eigenbasis(A) * p
        return self.vecs @ out @ self.vecs.conj().T


def commutator_grid(dyn: HeisenbergDynamics, B, space: SpinSpace, xs, ts) -> np.ndarray:
    """Certified lower estimates of C_B(x,t) for every x in ``xs`` (rows) and
    t in ``ts`` (columns): the max of ||[tau_t(A), B]|| over the
    unit-operator-norm Hermitian basis of the site-x matrix algebra.

    B must be Hermitian.  The work happens in the eigenbasis of H, where
    tau_t(A) is the phase conjugation conj(p) * A * p with p = e^(-itE).
    With X = tau_t(A) B there, [tau_t(A), B] = X - X^H, and i(X - X^H) is
    Hermitian, so the norm is its largest |eigenvalue|.  The norm is
    unitarily invariant, so nothing is rotated back.  B is rotated once,
    and each local A is embedded and rotated once.
    """
    Bd = dyn.to_eigenbasis(B)
    if np.abs(Bd - Bd.conj().T).max() > 1e-10 * max(1.0, np.abs(Bd).max()):
        raise ValueError("B must be Hermitian")
    phases = [dyn.phases(t) for t in ts]
    out = np.zeros((len(xs), len(ts)))
    for i, x in enumerate(xs):
        for local in hermitian_unit_basis(space.site_dims[x]):
            Ad = dyn.to_eigenbasis(embed_at(space, [(x, local)]))
            for j, p in enumerate(phases):
                X = (p.conj()[:, None] * Ad * p) @ Bd
                norm = np.abs(np.linalg.eigvalsh(1j * (X - X.conj().T))).max()
                out[i, j] = max(out[i, j], norm)
    return out


def commutator_growth(dyn: HeisenbergDynamics, B, x: int, t: float,
                      space: SpinSpace) -> float:
    """C_B(x,t) at one grid point: ``commutator_grid`` on [x] x [t]."""
    return float(commutator_grid(dyn, B, space, [x], [t])[0, 0])


def lr_bound_rhs(g: SpinGraph, lam: float, phi_norm: float, x: int,
                 support, b_norm: float, t: float, profile=None) -> float:
    """Right-hand side of the commutator bound:
    e^(2|t| ||Phi||) C_B(x,0) + sum_{y != x} e^(-lam d(x,y)) (e^(2|t| ||Phi||) - 1) C_B(y,0).

    ``profile`` maps y -> C_B(y,0); default is 2 ||B|| on the support of B.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    support = set(support)
    if profile is None:
        profile = {y: 2.0 * b_norm for y in support}
    grow = math.exp(2.0 * abs(t) * phi_norm)
    dist = distances_from(g, x)
    total = grow * profile.get(x, 0.0)
    for y, c0 in profile.items():
        if y == x:
            continue
        total += math.exp(-lam * dist[y]) * (grow - 1.0) * c0
    return total


def lr_corollary_bound(g: SpinGraph, lam: float, phi_norm: float, x: int,
                       support, a_norm: float, b_norm: float, t: float) -> float:
    """2 |Y| ||A|| ||B|| (e^(2|t| ||Phi||) - 1) e^(-lam d(x,Y)), for x outside Y."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    support = set(support)
    if x in support:
        raise ValueError("the corollary form requires x outside the support of B")
    d = set_distance(g, x, support)
    return (2.0 * len(support) * a_norm * b_norm
            * (math.exp(2.0 * abs(t) * phi_norm) - 1.0) * math.exp(-lam * d))


def lr_multisite_bound(g: SpinGraph, lam: float, phi_norm: float, X,
                       support, a_norm: float, b_norm: float, t: float,
                       n_local: int) -> float:
    """N^(2|X|) ||A|| sum_{x in X} C_B(x,t) with each C_B(x,t) replaced by the
    single-site bound; the multi-site estimate for A supported on X."""
    X = set(X)
    total = sum(lr_bound_rhs(g, lam, phi_norm, x, support, b_norm, t) for x in X)
    return n_local ** (2 * len(X)) * a_norm * total


@dataclass(frozen=True)
class ClusteringRates:
    gamma: float
    lam: float
    phi_norm: float

    def __post_init__(self):
        if self.gamma <= 0 or self.lam <= 0 or self.phi_norm <= 0:
            raise ValueError("gamma, lambda and the interaction norm must be positive")

    @property
    def mu(self) -> float:
        return self.gamma * self.lam / (4.0 * self.phi_norm + self.gamma)

    def b_max(self, distance) -> float:
        """Validity ceiling of the decay bound: 0 <= gamma b <= 2 mu d."""
        return 2.0 * self.mu * distance / self.gamma

    def envelope(self, distance, b) -> float:
        """e^(-mu d (1 + gamma^2 b^2 / (4 mu^2 d^2))) without the constant."""
        mu = self.mu
        return math.exp(-mu * distance *
                        (1.0 + self.gamma ** 2 * b ** 2 / (4.0 * mu ** 2 * distance ** 2)))


def clustering_mu(gamma: float, lam: float, phi_norm: float) -> ClusteringRates:
    return ClusteringRates(gamma, lam, phi_norm)


def ground_correlation(H, A, B, b: float, degeneracy_tol=1e-8) -> complex:
    """<Omega, A tau_{ib}(B) Omega> with B centered (its ground expectation
    subtracted), by full dense eigendecomposition; the ground state must be
    unique."""
    if b < 0:
        raise ValueError("imaginary time b must be nonnegative")
    rep = full_spectrum(H, want_vectors=True)
    ev = rep.eigenvalues
    degeneracy = int(np.sum(ev <= ev[0] + degeneracy_tol))
    if degeneracy != 1:
        raise ValueError(f"ground state is {degeneracy}-fold degenerate; "
                         "correlations need a unique ground state")
    omega = rep.eigenvectors[:, 0]
    Aa = A.toarray() if isinstance(A, SparseOperator) else np.asarray(A)
    Bb = B.toarray() if isinstance(B, SparseOperator) else np.asarray(B)
    b_mean = np.vdot(omega, Bb @ omega)
    w = Bb @ omega - b_mean * omega
    weights = np.exp(-b * (ev - ev[0]))
    coeffs = rep.eigenvectors.conj().T @ w
    evolved = rep.eigenvectors @ (weights * coeffs)
    return complex(np.vdot(Aa.conj().T @ omega, evolved))


class SectorCorrelator:
    """Imaginary-time ground correlations inside one magnetization sector,
    with an ARPACK ground state (``extremal_eigs``) and sparse propagation
    (``expm_multiply``), for sectors too large to diagonalise densely."""

    def __init__(self, h_block, degeneracy_tol=1e-8):
        self.h = sp.csr_matrix(h_block)
        rep = extremal_eigs(self.h, k=2)
        if rep.eigenvalues[1] - rep.eigenvalues[0] <= degeneracy_tol:
            raise ValueError("ground state degenerate within its sector")
        self.e0 = float(rep.eigenvalues[0])
        self.omega = rep.eigenvectors[:, 0]
        self.shifted = self.h - self.e0 * sp.identity(self.h.shape[0], format="csr")

    def propagate(self, w, b: float) -> np.ndarray:
        """e^(-b (H - E0)) w by scipy's ``expm_multiply``: a truncated Taylor
        series with scaling (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
        488 (2011))."""
        from scipy.sparse.linalg import expm_multiply

        # When b ||H - E0||_1 is large, scipy picks the series length from a
        # 1-norm estimator that draws from numpy's global generator: seed it
        # for the call, so the result is reproducible, and restore it after.
        state = np.random.get_state()
        np.random.seed(0)
        try:
            return expm_multiply(-b * self.shifted, w)
        finally:
            np.random.set_state(state)

    def correlation(self, a_block, b_block, b: float) -> complex:
        """<Omega, A e^(-b(H-E0)) B_c Omega> with B centered in the ground state."""
        if b < 0:
            raise ValueError("imaginary time b must be nonnegative")
        omega = self.omega
        w = b_block @ omega
        w = w - np.vdot(omega, w) * omega
        a_vec = np.conj(a_block).T @ omega     # A* Omega, so <A Omega| = a_vec^dagger
        return complex(np.vdot(a_vec, self.propagate(w, b)))


@dataclass
class ClusteringRow:
    x: int
    y: int
    distance: int
    b: float
    corr_abs: float
    bound: Optional[float]
    in_window: bool


@dataclass
class ClusteringReport:
    gamma: float
    ground_energy: float
    ground_degeneracy: int
    rates: ClusteringRates
    c_constant: float
    rows: list
    bound_holds: bool
    large_b: list = field(default_factory=list)   # (y, b, corr_abs, trivial_bound)


def clustering_report(g: SpinGraph, phi: Interaction, local_op, lam: float,
                      x0=0, pairs=None, n_window=4, large_bs=(1.0, 3.0, 6.0),
                      threads=1) -> ClusteringReport:
    """Tabulate |<Omega, A tau_{ib}(B) Omega>| for single-site observables
    against the decay bound, fitting the constant at distance 1 and asserting
    the bound at every larger distance inside the validity window.

    ``local_op`` is the single-site matrix used at both ends (centered in the
    ground state before evaluation).
    """
    space = SpinSpace.from_graph(g)
    H = assemble(phi, space)
    merged, per_sector = sector_sweep_lowest(H, space, k=2, threads=threads)
    gap_rep = spectral_gap(merged)
    if gap_rep.ground_degeneracy != 1:
        raise ValueError(f"ground state is {gap_rep.ground_degeneracy}-fold degenerate")
    gamma = gap_rep.gap
    ground_label = min(per_sector,
                       key=lambda lab: per_sector[lab].eigenvalues[0])
    sector = magnetization_sector(space, ground_label[1])
    h_block = restrict(H, sector, dense=False)
    corr = SectorCorrelator(h_block)

    phi_norm = lambda_norm(phi, lam, g)
    rates = clustering_mu(gamma, lam, phi_norm)

    if pairs is None:
        dist = distances_from(g, x0)
        by_d = {}
        for y in g.vertices:
            d = dist[y]
            if y != x0 and not math.isinf(d) and d not in by_d:
                by_d[int(d)] = y
        pairs = [(x0, by_d[d]) for d in sorted(by_d)]

    blocks = {}
    for site in {x for p in pairs for x in p}:
        blocks[site] = restrict(embed_at(space, [(site, local_op)]), sector, dense=False)

    rows = []
    per_distance = {}
    for (x, y) in pairs:
        d = int(graph_distance(g, x, y))
        bmax = rates.b_max(d)
        bs = [0.0] + [bmax * k / n_window for k in range(1, n_window + 1)]
        for b in bs:
            val = abs(corr.correlation(blocks[x], blocks[y], b))
            rows.append(ClusteringRow(x, y, d, b, val, None, b <= bmax + 1e-15))
        per_distance.setdefault(d, []).extend(rows[-len(bs):])

    d_ref = min(per_distance)
    c_constant = max(r.corr_abs / rates.envelope(r.distance, r.b)
                     for r in per_distance[d_ref] if r.in_window)
    bound_holds = True
    for r in rows:
        r.bound = c_constant * rates.envelope(r.distance, r.b)
        if r.distance > d_ref and r.in_window and r.corr_abs > r.bound + 1e-12:
            bound_holds = False

    # trivial large-b bound ||A|| ||B|| e^(-gamma b)
    op_norm = float(np.linalg.norm(np.asarray(local_op, dtype=complex), 2))
    large_rows = []
    for (x, y) in pairs:
        for b in large_bs:
            val = abs(corr.correlation(blocks[x], blocks[y], b))
            large_rows.append((y, b, val, op_norm * op_norm * math.exp(-gamma * b)))

    return ClusteringReport(gamma=gamma, ground_energy=gap_rep.ground_energy,
                            ground_degeneracy=gap_rep.ground_degeneracy,
                            rates=rates, c_constant=c_constant, rows=rows,
                            bound_holds=bound_holds, large_b=large_rows)
