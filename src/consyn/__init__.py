"""Consensus protocol synthesis and simulation for nonlinear agent networks.

The package designs distributed state-feedback protocols for networks of
identical agents with Lipschitz nonlinearities coupled over directed graphs,
certifies the designs through matrix-inequality feasibility and graph
spectra, and simulates the closed loops with and without disturbances.
"""

__version__ = "0.1.0"

from .errors import BlowUpError, InfeasibleError, PreconditionError
from .graph import (DiGraph, GraphAnalysis, GraphFlags, LeaderFollowerData,
                    adjacency, analyze, leader_follower_data,
                    parse_edge_list, spectra)
from .lmi import (LmiCertificate, LmiKind, LmiProblem, MarginReport,
                  ProbeRecord, SolveTrace, assemble, solve, verify)
from .numkit import as_matrix, solve_linear, sym_eigvals
from .sim import (AgentModel, DisturbanceSpec, HinfCost, LyapunovReport,
                  Nonlinearity, Scenario, Trajectory, closed_loop, hinf_cost,
                  integrate, lyapunov_diag, max_pairwise_distance, square_wave,
                  write_csv)
from .synthesis import DesignMode, ProtocolDesign, problem_for, synthesize

__all__ = [
    "__version__",
    "BlowUpError", "InfeasibleError", "PreconditionError",
    "DiGraph", "GraphAnalysis", "GraphFlags", "LeaderFollowerData",
    "adjacency", "analyze", "leader_follower_data", "parse_edge_list",
    "spectra",
    "LmiCertificate", "LmiKind", "LmiProblem", "MarginReport",
    "ProbeRecord", "SolveTrace", "assemble", "solve", "verify",
    "as_matrix", "solve_linear", "sym_eigvals",
    "AgentModel", "DisturbanceSpec", "HinfCost", "LyapunovReport",
    "Nonlinearity", "Scenario", "Trajectory", "closed_loop", "hinf_cost",
    "integrate", "lyapunov_diag", "max_pairwise_distance", "square_wave",
    "write_csv",
    "DesignMode", "ProtocolDesign", "problem_for", "synthesize",
]
