"""Random-walk trace laboratory for regular graphs.

Seeded walk simulation with cover, blanket, and visit statistics; spectral
summaries and the resistance/hitting/cover bound machinery they feed;
expander certification; Hamilton cycle search on walk traces; and a
reproducible experiment harness with a CLI front end.
"""

from ._accel import NUMBA_ENABLED
from .graphs import (Graph, GraphError, connectivity_profile,
                     format_edge_text, parse_edge_text, read_edge_file,
                     write_edge_file)
from .generate import (FAMILIES, GenSpec, GenerationError, complete_graph,
                       counterexample_expander, cycle_graph, path_graph,
                       petersen_graph, random_regular)
from .spectral import (SpectralError, SpectralSummary, effective_resistance,
                       eigen_extremes, empirical_mixing_time,
                       resistance_matrix, tv_distance_profile)
from .bounds import (BoundsReport, BudgetError, MixingCheckReport,
                     ResistanceHittingTable, SpectralCoverBound,
                     binomial_cdf, binomial_tail_bound, bounds_report,
                     build_table, cover_time_spectral_bound,
                     exact_binomial_ci, expander_mixing_check, foster_sum,
                     harmonic, hitting_time_tetali, hitting_times_to,
                     matthews_bounds, mixing_time_bound, paley_zygmund_lower,
                     resistance_bounds, visit_lower_bound)
from .walks import (CoverStats, SegmentedVisitReport, WalkTrace,
                    blanket_trial, cover_stats, cover_trial, default_budget,
                    return_probe_trial, segmented_visit_experiment,
                    simulate_walk, start_pool, trace_graph,
                    trace_prefix_graph, visits_trial)
from .hamilton import (CycleResult, ExpanderCertificate, ExpanderCheck,
                       HamiltonError, TauResult, certify_expander,
                       check_expansion, check_joinedness, hamiltonian_exact,
                       hamiltonian_posa, tau_times, verify_cycle)
from .harness import (ConfigError, CoverSummary, ExperimentConfig,
                      ExperimentResult, ReturnProbeResult, StrongCoverEstimate,
                      cover_time_empirical, evaluate_checks, load_config,
                      return_probe, run_experiment, strong_cover_estimate,
                      summarize, write_result)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
