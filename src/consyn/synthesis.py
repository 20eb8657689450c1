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
analysis, which also holds the weights of the error energy V, on the
design. The coupling strength defaults to the threshold exactly; a
multiplier >= 1 adds headroom.
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
    algorithmic lower bound on c. analysis is the graph analysis the
    threshold was read from; its weights weight the error energy V, and
    its leader_follower is set exactly for tracking designs.
    c_threshold_simplified carries the alternative leader-follower bound
    (smallest eigenvalue of the symmetrized follower block) when the
    follower subgraph is balanced and strongly connected, None otherwise.
    model is the agent model the design was made for; with analysis.graph
    and analysis.laplacian it fixes the closed loop the simulator runs.
    """

    k: NDArray[np.float64]
    c: float
    cert: lmi.LmiCertificate
    c_threshold: float
    mode: DesignMode
    analysis: GraphAnalysis
    model: "AgentModel"
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


def _certify(problem: lmi.LmiProblem, cert) -> lmi.LmiCertificate:
    """Search for a certificate unless a (p, scalar) pair is given (a search
    whose ladder runs out raises InfeasibleError); verify either way and
    keep the margin verification measured."""
    injected = cert is not None
    if injected:
        p, scalar = cert
        scalar = float(scalar)
        if not np.isfinite(scalar):
            raise PreconditionError("the certificate scalar must be "
                                    f"finite, got scalar = {scalar}")
        cert = lmi.LmiCertificate(numkit.as_matrix(p, "p"), scalar,
                                  margin=np.nan, feasible=False)
    else:
        cert = lmi.solve(problem)
    report = lmi.verify(problem, cert)
    if not report.passed:
        message = (
            f"{'injected' if injected else 'solver'} certificate fails "
            f"verification (p margin {report.p_margin:.3e}, rounding floor "
            f"{report.p_floor:.1e}; scalar {cert.scalar:.3e}; "
            f"inequality margin {report.lmi_margin:.3e}, rounding floor "
            f"{report.lmi_floor:.1e})"
        )
        if injected:
            raise PreconditionError(message)
        raise InfeasibleError(message, trace=cert.trace)
    return lmi.LmiCertificate(cert.p, cert.scalar, margin=report.lmi_margin,
                              feasible=True, trace=cert.trace)


def synthesize(model: "AgentModel", graph: DiGraph, mode,
               gamma: Optional[float] = None,
               cert: Optional[tuple] = None,
               c_multiplier: float = 1.0) -> ProtocolDesign:
    """Design the protocol of one mode on one graph.

    Checks the graph class the mode needs, solves the mode's inequality or
    takes cert, a published (p, scalar) pair, and divides the certificate
    scalar by the mode's spectral quantity. Either certificate is verified
    against the mode's inequality, and the design's cert.margin is the
    margin lmi.verify measured there. mode is a DesignMode or its string
    value; gamma is required in hinf mode.
    """
    mode = DesignMode(mode)
    if not 1.0 <= c_multiplier < np.inf:
        raise ValueError(
            "c_multiplier must be finite and >= 1, got "
            f"c_multiplier = {c_multiplier}")
    problem = problem_for(model, mode, gamma)
    analysis = analyze(graph)
    flags = analysis.flags
    simplified_divisor = None
    if mode is DesignMode.LEADER_FOLLOWER:
        lf = analysis.leader_follower
        if lf is None:
            raise PreconditionError(
                "leader-follower mode needs a zero in-degree root reaching "
                "all nodes")
        if lf.lambda1_h <= 0:
            raise PreconditionError(
                "follower form H must be positive definite")
        divisor = lf.lambda1_h * lf.min_q
        if lf.lambda1_sym and lf.lambda1_sym > 0:
            simplified_divisor = lf.lambda1_sym
    else:
        hinf = mode is DesignMode.HINF
        if not flags.strongly_connected or (hinf and not flags.balanced):
            need = "a balanced, strongly connected" if hinf \
                else "a strongly connected"
            raise PreconditionError(
                f"{mode.value} synthesis requires {need} graph")
        divisor = analysis.lambda2_sym if hinf else analysis.a_of_l
    cert = _certify(problem, cert)
    threshold = cert.scalar / divisor
    return ProtocolDesign(
        k=-0.5 * numkit.solve_linear(cert.p, model.b).T,
        c=threshold * c_multiplier,
        cert=cert,
        c_threshold=threshold,
        mode=mode,
        analysis=analysis,
        model=model,
        gamma=float(gamma) if mode is DesignMode.HINF else None,
        c_threshold_simplified=(cert.scalar / simplified_divisor
                                if simplified_divisor else None),
    )
