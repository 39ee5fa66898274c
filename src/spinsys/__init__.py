"""Exact diagonalization of quantum spin systems on finite graphs."""

__version__ = "0.1.0"

from .lattice import (SpinGraph, build_graph, complete_graph, diameter,
                      graph_distance, is_connected, load_graph, parse_graph_file,
                      path_graph, ring_graph, set_distance, star_graph)
from .hilbert import (SectorBasis, SparseOperator, SpinSpace, down_spin_sector,
                      embed_at, embed_local, kron_chain, magnetization_sector,
                      restrict, spin_matrices)
from .models import (Interaction, XxzParams, aklt, assemble, custom, heisenberg,
                     lambda_norm, xxz)
from .spectral import (ConvergenceError, GapReport, SpectrumReport, extremal_eigs,
                       full_spectrum, sector_spectrum, sector_sweep_lowest,
                       spectral_gap)
from .symmetry import (ClassificationError, OrderingVerdict, SpinResolvedLevels,
                       classify_total_spin, foel_check, lieb_mattis_hamiltonian,
                       lieb_mattis_order, sector_spin_levels, spin_multiplicities,
                       su2_totals, suq2_generators)
from .ssep import (ExclusionSpace, GeneratorReport, ssep_gaps, ssep_generator,
                   ssep_spin_interaction, xxx_conjugacy_check)
from .dynamics import (ClusteringRates, HeisenbergDynamics, clustering_report,
                       commutator_grid, commutator_growth, ground_correlation,
                       hermitian_unit_basis, lr_bound_rhs, lr_corollary_bound)
from .perturbation import frustration_free_check, gap_sweep
from .droplets import (bound_state_dispersion, convergence_table, momentum_band,
                       open_chain_spin_level)
