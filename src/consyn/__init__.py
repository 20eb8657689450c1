"""Consensus protocol synthesis and simulation for nonlinear agent networks.

The package designs distributed state-feedback protocols for networks of
identical agents with Lipschitz nonlinearities coupled over directed graphs,
certifies the designs through matrix-inequality feasibility and graph
spectra, and simulates the closed loops with and without disturbances.
"""

__version__ = "0.1.0"

from .errors import BlowUpError, InfeasibleError, PreconditionError
from .graph import (DiGraph, GraphFlags, GraphSpectra, LeaderFollowerData,
                    adjacency, classify, generalized_connectivity, laplacian,
                    leader_follower_data, left_perron, parse_edge_list,
                    spectra)
from .lmi import (LmiCertificate, LmiKind, LmiProblem, MarginReport,
                  SolverOptions, assemble, solve, verify)
from .numkit import (SymEig, Tolerances, TOL, as_matrix, as_vector,
                     eigvals_general, is_positive_definite, kron, solve_linear,
                     sym_eig)
from .sim import (AgentModel, DisturbanceSpec, HinfCost, LipschitzReport,
                  LyapunovReport, Nonlinearity, Scenario, Trajectory,
                  check_lipschitz, closed_loop, hinf_cost, integrate,
                  lyapunov_diag, max_pairwise_distance, square_wave, write_csv)
from .synthesis import (DesignMode, ProtocolDesign, inject_certificate,
                        problem_for, synthesize)

__all__ = [
    "__version__",
    "BlowUpError", "InfeasibleError", "PreconditionError",
    "DiGraph", "GraphFlags", "GraphSpectra", "LeaderFollowerData",
    "adjacency", "classify", "generalized_connectivity", "laplacian",
    "leader_follower_data", "left_perron", "parse_edge_list", "spectra",
    "LmiCertificate", "LmiKind", "LmiProblem", "MarginReport",
    "SolverOptions", "assemble", "solve", "verify",
    "SymEig", "Tolerances", "TOL", "as_matrix", "as_vector",
    "eigvals_general", "is_positive_definite", "kron", "solve_linear",
    "sym_eig",
    "AgentModel", "DisturbanceSpec", "HinfCost", "LipschitzReport",
    "LyapunovReport", "Nonlinearity", "Scenario", "Trajectory",
    "check_lipschitz", "closed_loop", "hinf_cost", "integrate",
    "lyapunov_diag", "max_pairwise_distance", "square_wave", "write_csv",
    "DesignMode", "ProtocolDesign", "inject_certificate", "problem_for",
    "synthesize",
]
