"""Protocol synthesis: compose a feasibility certificate with graph spectra.

All three modes share the gain rule K = -1/2 B^T P^{-1}. A mode only picks
the inequality kind the certificate (P, s) solves, the graph class it needs,
and the spectral quantity that divides s into the coupling threshold:

- leaderless consensus: consensus kind on a strongly connected graph,
  threshold s / a(L) with a(L) the generalized algebraic connectivity;
- disturbance attenuation at level gamma: attenuation kind on a balanced,
  strongly connected graph, threshold s / lambda2 with lambda2 the
  second-smallest eigenvalue of (L + L^T)/2;
- leader-follower tracking: consensus kind under a spanning tree rooted at
  a zero in-degree leader, threshold s / (lambda1(H) * min q) from the
  follower-block partition with G = diag(1/q).

:func:`synthesize` is the single entry point. It reads every spectral
quantity from one :func:`graph.analyze` of the graph and carries that
analysis on the design. The coupling strength defaults to the threshold
exactly; a multiplier >= 1 adds headroom.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from . import lmi, numkit
from .errors import InfeasibleError, PreconditionError
from .graph import DiGraph, GraphAnalysis, analyze

if TYPE_CHECKING:
    from .sim import AgentModel


class DesignMode(str, Enum):
    LEADERLESS = "leaderless"
    HINF = "hinf"
    LEADER_FOLLOWER = "leader-follower"


@dataclass(frozen=True)
class ProtocolDesign:
    """Complete synthesized protocol.

    k is the feedback gain, c the coupling strength, c_threshold the
    algorithmic lower bound on c. weights are the per-agent weights of the
    error energy V: the left null vector r of the Laplacian, or for tracking
    the diagonal of G = diag(1/q) on the followers with 0 at the leader, the
    weighting under which the threshold guarantees V decreases. analysis
    is the graph analysis the threshold was read from. leader is the
    leader's node number for tracking designs, None otherwise; it selects
    the error reference (leader offset instead of the r-weighted average).
    c_threshold_simplified carries the alternative leader-follower bound
    (smallest eigenvalue of the symmetrized follower block) when the
    follower subgraph is balanced and strongly connected, None otherwise.
    """

    k: NDArray[np.float64]
    c: float
    cert: lmi.LmiCertificate
    c_threshold: float
    mode: DesignMode
    weights: NDArray[np.float64]
    analysis: GraphAnalysis
    leader: Optional[int] = None
    gamma: Optional[float] = None
    c_threshold_simplified: Optional[float] = None


def problem_for(model: "AgentModel", mode, gamma: Optional[float] = None
                ) -> lmi.LmiProblem:
    """The inequality a mode's certificate must satisfy.

    gamma is required in hinf mode and ignored in the others.
    """
    if DesignMode(mode) is DesignMode.HINF:
        if gamma is None:
            raise PreconditionError(
                "hinf mode needs an attenuation level gamma")
        return lmi.LmiProblem(lmi.LmiKind.HINF, model, gamma=gamma)
    return lmi.LmiProblem(lmi.LmiKind.CONSENSUS, model)


def _certify(problem: lmi.LmiProblem,
             cert: Optional[lmi.LmiCertificate]) -> lmi.LmiCertificate:
    """Search for a certificate unless one is given; verify either way."""
    injected = cert is not None
    if not injected:
        cert = lmi.solve(problem)
        if not cert.feasible:
            raise InfeasibleError(
                "feasibility search exhausted its budget: no rung of the "
                f"scalar ladder, up to {cert.scalar:.3e}, had a strictly "
                "feasible Riccati point", trace=cert.trace)
    report = lmi.verify(problem, cert)
    if not report.passed:
        message = (
            f"{'injected' if injected else 'solver'} certificate fails "
            f"verification (p margin {report.p_margin:.3e}, rounding floor "
            f"{report.p_floor:.1e}; scalar {report.scalar_value:.3e}; "
            f"inequality margin {report.lmi_margin:.3e}, rounding floor "
            f"{report.lmi_floor:.1e})"
        )
        if injected:
            raise PreconditionError(message)
        raise InfeasibleError(message, trace=cert.trace)
    return cert


def inject_certificate(problem: lmi.LmiProblem, p, scalar: float
                       ) -> lmi.LmiCertificate:
    """Build a certificate from externally supplied (p, scalar).

    The margin is recomputed here; published designs are typically printed
    rounded, so any margin above the rounding floor of lmi.verify is
    accepted downstream.
    """
    pm = numkit.as_matrix(p, "p")
    margin = lmi.block_margin(problem, pm, scalar)
    return lmi.LmiCertificate(p=pm, scalar=float(scalar), margin=margin,
                              feasible=margin > 0)


def synthesize(model: "AgentModel", graph: DiGraph, mode,
               gamma: Optional[float] = None,
               cert: Optional[lmi.LmiCertificate] = None,
               c_multiplier: float = 1.0) -> ProtocolDesign:
    """Design the protocol of one mode on one graph.

    Checks the graph class the mode needs, solves the mode's inequality (or
    verifies an injected certificate; solver certificates are re-verified
    too), and divides the certificate scalar by the mode's spectral
    quantity. mode is a DesignMode or its string value; gamma is required
    in hinf mode.
    """
    mode = DesignMode(mode)
    if c_multiplier < 1.0:
        raise ValueError("c_multiplier must be >= 1")
    problem = problem_for(model, mode, gamma)
    analysis = analyze(graph)
    flags = analysis.flags
    leader = None
    simplified_divisor = None
    if mode is DesignMode.LEADER_FOLLOWER:
        lf = analysis.leader_follower
        if lf is None:
            raise PreconditionError(
                "leader-follower mode needs a zero in-degree root reaching "
                "all nodes"
            )
        if lf.lambda1_h <= 0:
            raise PreconditionError(
                "follower form H must be positive definite")
        leader = lf.leader
        weights = np.zeros(graph.n)
        weights[np.asarray(lf.followers) - 1] = np.diag(lf.bigG)
        divisor = lf.lambda1_h * lf.min_q
        if lf.simplified_applicable and lf.lambda1_sym and lf.lambda1_sym > 0:
            simplified_divisor = lf.lambda1_sym
    else:
        hinf = mode is DesignMode.HINF
        if not flags.strongly_connected or (hinf and not flags.balanced):
            need = "a balanced, strongly connected" if hinf \
                else "a strongly connected"
            raise PreconditionError(
                f"{mode.value} synthesis requires {need} graph")
        weights = analysis.r
        divisor = analysis.lambda2_sym if hinf else analysis.a_of_l
    cert = _certify(problem, cert)
    threshold = cert.scalar / divisor
    return ProtocolDesign(
        k=-0.5 * numkit.solve_linear(cert.p, model.b).T,
        c=threshold * c_multiplier,
        cert=cert,
        c_threshold=threshold,
        mode=mode,
        weights=weights,
        analysis=analysis,
        leader=leader,
        gamma=float(gamma) if mode is DesignMode.HINF else None,
        c_threshold_simplified=(cert.scalar / simplified_divisor
                                if simplified_divisor else None),
    )
