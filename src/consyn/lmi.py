"""Strict-feasibility solver and checker for the synthesis matrix inequalities.

Two inequality kinds are supported. The consensus kind asks for P > 0 and a
scalar s > 0 making the bordered block

    [[A P + P A^T - s B B^T + alpha^2 D1 D1^T,  P],
     [P,                                       -I]]

negative definite. The disturbance-attenuation kind extends the border with
the performance output and the disturbance input channel at a given gamma:

    [[A P + P A^T - s B B^T + alpha^2 D1 D1^T,  P,  P C^T,      D2],
     [P,                                       -I,  0,          0 ],
     [C P,                                      0, -I,          0 ],
     [D2^T,                                     0,  0, -gamma^2 I]]

The solver minimizes a smoothed largest eigenvalue over the symmetric P at a
fixed scalar, laddering the scalar up until strictly feasible and then
descending it geometrically while feasibility holds. Among the visited
points it returns the smallest scalar whose verified margin meets the
relative strictness rule margin >= lmi_margin_rel * (1 + ||assembled||_F).
That rule caps the scalar from above (the requirement grows with the scalar
while the achievable margin saturates), so the feasible-with-margin region
is a window and a plain bisection would fail.

Infeasibility is reported, never certified: exhausting the scalar ladder
yields feasible=False with the best margin the smoothed descent reached.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray
from scipy.optimize import minimize

from . import numkit

if TYPE_CHECKING:
    from .sim import AgentModel


class LmiKind(str, Enum):
    CONSENSUS = "consensus"
    HINF = "hinf"


@dataclass(frozen=True)
class LmiProblem:
    """One feasibility instance over an agent model.

    gamma is required for the HINF kind and ignored otherwise.
    """

    kind: LmiKind
    model: "AgentModel"
    gamma: Optional[float] = None

    def __post_init__(self):
        m = self.model
        n = m.a.shape[0]
        if m.a.shape != (n, n):
            raise ValueError("A must be square")
        if m.b.shape[0] != n or m.d1.shape[0] != n:
            raise ValueError("B and D1 must have as many rows as A")
        if self.kind == LmiKind.HINF:
            if self.gamma is None or self.gamma <= 0:
                raise ValueError("the hinf kind needs gamma > 0")
            if m.d2.shape[0] != n:
                raise ValueError("D2 must have as many rows as A")
            if m.c_out.shape[1] != n:
                raise ValueError("C must have as many columns as A")


@dataclass(frozen=True)
class LmiCertificate:
    """Feasibility certificate: matrix p, scalar, verified margin.

    margin is the negated largest eigenvalue of the assembled block matrix.
    feasible certificates satisfy p > 0, scalar > 0, margin > 0.
    """

    p: NDArray[np.float64]
    scalar: float
    margin: float
    feasible: bool


@dataclass(frozen=True)
class MarginReport:
    """Recomputed strictness margins for a certificate."""

    p_margin: float
    scalar_value: float
    lmi_margin: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class SolverOptions:
    max_ladder: int = 7
    max_descents: int = 18
    inner_eval_budget: int = 6000
    inner_maxiter: int = 300
    mu_stages: int = 10
    bound_factor: float = 100.0
    margin_rel: float = numkit.TOL.lmi_margin_rel
    target_factor: float = 3.0


def assemble(problem: LmiProblem, p, scalar: float) -> NDArray[np.float64]:
    """Assemble the block matrix of the inequality at (p, scalar)."""
    m = problem.model
    a, b, d1 = m.a, m.b, m.d1
    n = a.shape[0]
    pm = numkit.as_matrix(p, "p")
    if pm.shape != (n, n):
        raise ValueError(f"p must be {n}x{n}, got {pm.shape}")
    b11 = (a @ pm + pm @ a.T - scalar * (b @ b.T)
           + m.alpha ** 2 * (d1 @ d1.T))
    eye = np.eye(n)
    if problem.kind == LmiKind.CONSENSUS:
        return np.block([[b11, pm], [pm, -eye]])
    d2, c = m.d2, m.c_out
    m2 = c.shape[0]
    m1 = d2.shape[1]
    gamma = float(problem.gamma)
    return np.block([
        [b11, pm, pm @ c.T, d2],
        [pm, -eye, np.zeros((n, m2)), np.zeros((n, m1))],
        [c @ pm, np.zeros((m2, n)), -np.eye(m2), np.zeros((m2, m1))],
        [d2.T, np.zeros((m1, n)), np.zeros((m1, m2)), -gamma ** 2 * np.eye(m1)],
    ])


def verify(problem: LmiProblem, cert: LmiCertificate,
           tolerance: float = numkit.TOL.verify_margin) -> MarginReport:
    """Recompute all strictness margins of a certificate from scratch.

    Passes iff p is positive definite, the scalar is positive, and the
    assembled block matrix is negative definite, each strictly and by at
    least ``tolerance``. Never raises on a failing certificate; the report
    carries the margins.
    """
    p_margin = float(numkit.sym_eig(cert.p).values[0])
    lmi_margin = float(-numkit.sym_eig(
        assemble(problem, cert.p, cert.scalar)).values[-1])
    margins = (p_margin, float(cert.scalar), lmi_margin)
    passed = all(v > 0 and v >= tolerance for v in margins)
    return MarginReport(
        p_margin=p_margin,
        scalar_value=float(cert.scalar),
        lmi_margin=lmi_margin,
        tolerance=tolerance,
        passed=passed,
    )


class _Stacker:
    """Affine map (vech(p), scalar) -> blockdiag(assembled, -p + delta I).

    The trailing block enforces positive definiteness of p through the same
    largest-eigenvalue objective as the inequality itself. The coefficient
    matrices of vech(p) are kept flattened as the rows of m_flat, so the map
    and the gradient of any linear functional of it are single products.
    """

    def __init__(self, problem: LmiProblem, delta_p: float):
        self.problem = problem
        self.n = problem.model.a.shape[0]
        # vech(p) order: the diagonal first, then the upper triangle row by row
        diag = np.arange(self.n)
        iu, ju = np.triu_indices(self.n, 1)
        self.rows = np.concatenate([diag, iu])
        self.cols = np.concatenate([diag, ju])
        self.delta_p = delta_p
        zero_p = np.zeros((self.n, self.n))
        self.m_zero = self._stack(zero_p, 0.0)
        self.m_scalar = self._stack(zero_p, 1.0) - self.m_zero
        self.dim = self.m_zero.shape[0]
        self.m_flat = np.array([
            (self._stack(self.unvech(e), 0.0) - self.m_zero).ravel()
            for e in np.eye(len(self.rows))])

    def vech(self, p):
        return p[self.rows, self.cols]

    def unvech(self, v):
        p = np.zeros((self.n, self.n))
        p[self.rows, self.cols] = v
        p[self.cols, self.rows] = v
        return p

    def _stack(self, p, scalar):
        m = assemble(self.problem, p, scalar)
        k = m.shape[0]
        out = np.zeros((k + self.n, k + self.n))
        out[:k, :k] = m
        out[k:, k:] = -p + self.delta_p * np.eye(self.n)
        return out

    def at(self, v, scalar):
        return (self.m_zero + scalar * self.m_scalar
                + (v @ self.m_flat).reshape(self.dim, self.dim))


def _objective(stacker: _Stacker, scalar: float, v, mu: float):
    """Smoothed largest eigenvalue mu * log(sum(exp(lam / mu))) at vech(p) = v.

    Returns the value, its exact gradient in v (through the eigenvectors)
    and the true largest eigenvalue.
    """
    lam, vec = np.linalg.eigh(stacker.at(v, scalar))
    top = lam[-1]
    e = np.exp((lam - top) / mu)
    total = e.sum()
    grad_mat = (vec * (e / total)) @ vec.T
    return top + mu * np.log(total), stacker.m_flat @ grad_mat.ravel(), top


def _inner_solve(stacker: _Stacker, scalar: float, p0: NDArray[np.float64],
                 target: float, rho: float, opts: SolverOptions):
    """Minimize the largest eigenvalue of the stacked matrix over vech(p).

    The smoothed objective is driven through a decreasing-mu continuation.
    Returns the best true largest eigenvalue seen and its p.
    """
    state = {"best": np.inf, "vbest": stacker.vech(p0), "evals": 0}

    def fg(v, mu):
        f, grad, top = _objective(stacker, scalar, v, mu)
        state["evals"] += 1
        if top < state["best"]:
            state["best"] = top
            state["vbest"] = v.copy()
        return f, grad

    v = stacker.vech(p0)
    lam0 = np.linalg.eigvalsh(stacker.at(v, scalar))[-1]
    scale = max(1.0, abs(float(lam0)))
    bounds = [(-rho, rho)] * len(v)
    for k in range(opts.mu_stages):
        if state["best"] <= target or state["evals"] > opts.inner_eval_budget:
            break
        mu = scale * 10.0 ** (-k)
        res = minimize(fg, v, args=(mu,), jac=True, method="L-BFGS-B",
                       bounds=bounds,
                       options={"maxiter": opts.inner_maxiter,
                                "ftol": 1e-15, "gtol": 1e-13})
        v = res.x
    return stacker.unvech(state["vbest"]), float(state["best"])


def _required_margin(problem: LmiProblem, p, scalar, margin_rel):
    """Relative strictness requirement margin_rel * (1 + ||assembled||_F)."""
    m = assemble(problem, p, scalar)
    return margin_rel * (1.0 + float(np.linalg.norm(m, "fro")))


def _margin_and_req(problem: LmiProblem, p, scalar, margin_rel):
    margin = -float(np.linalg.eigvalsh(assemble(problem, p, scalar))[-1])
    return margin, _required_margin(problem, p, scalar, margin_rel)


def solve(problem: LmiProblem, options: Optional[SolverOptions] = None
          ) -> LmiCertificate:
    """Search for a strictly feasible (p, scalar) pair.

    Deterministic: initialization p = ||A||_F I, scalar = 10 ||A||_F^2, the
    scalar laddered up tenfold until strictly feasible (the scalar enters
    through -s B B^T, so larger values enlarge the feasible set), then
    descended while feasibility persists. If no rung of the ladder reaches
    strict feasibility the point with the smallest largest eigenvalue is
    returned as infeasible.

    The returned margin is recomputed by a fresh eigensolve of the assembled
    matrix, independent of the solver's internal objective.
    """
    opts = options or SolverOptions()
    m = problem.model
    norm_a = max(1.0, float(np.linalg.norm(m.a, "fro")))
    delta_p = 1e-6 * (1.0 + norm_a)
    rho = opts.bound_factor * norm_a
    stacker = _Stacker(problem, delta_p)

    s0 = 10.0 * norm_a ** 2
    p_cur = norm_a * np.eye(stacker.n)
    s = s0
    feasible_pt = None
    best_lam = np.inf
    best_pt = (p_cur, s)
    for _ in range(opts.max_ladder):
        p_try, lam = _inner_solve(stacker, s, p_cur, target=-1e-12 * norm_a,
                                  rho=rho, opts=opts)
        if lam < best_lam:
            best_lam, best_pt = lam, (p_try, s)
        if lam < 0:
            feasible_pt = (s, p_try)
            break
        p_cur = p_try
        s *= 10.0

    if feasible_pt is None:
        p_best, s_best = best_pt
        margin, _ = _margin_and_req(problem, p_best, s_best, opts.margin_rel)
        return LmiCertificate(p=p_best, scalar=float(s_best),
                              margin=margin, feasible=False)

    s_cur, p_cur = feasible_pt
    probes = []
    margin, req = _margin_and_req(problem, p_cur, s_cur, opts.margin_rel)
    pmin = float(np.linalg.eigvalsh(p_cur)[0])
    probes.append((s_cur, p_cur, margin, req, pmin))
    for _ in range(opts.max_descents):
        s_next = s_cur / 10.0
        req_est = _required_margin(problem, p_cur, s_next, opts.margin_rel)
        p_try, lam = _inner_solve(stacker, s_next, p_cur,
                                  target=-opts.target_factor * req_est,
                                  rho=rho, opts=opts)
        if lam >= 0:
            break
        margin, req = _margin_and_req(problem, p_try, s_next, opts.margin_rel)
        pmin = float(np.linalg.eigvalsh(p_try)[0])
        probes.append((s_next, p_try, margin, req, pmin))
        s_cur, p_cur = s_next, p_try

    ok = [(s, p, mg) for (s, p, mg, rq, pm) in probes if mg >= rq and pm > 0]
    if ok:
        s_fin, p_fin, _ = min(ok, key=lambda t: t[0])
        s_try = s_fin / np.sqrt(10.0)
        req_est = _required_margin(problem, p_fin, s_try, opts.margin_rel)
        p_ref, lam = _inner_solve(stacker, s_try, p_fin,
                                  target=-opts.target_factor * req_est,
                                  rho=rho, opts=opts)
        if lam < 0:
            margin, req = _margin_and_req(problem, p_ref, s_try,
                                          opts.margin_rel)
            pmin = float(np.linalg.eigvalsh(p_ref)[0])
            if margin >= req and pmin > 0:
                s_fin, p_fin = s_try, p_ref
    else:
        # Strictly feasible points exist but none meets the relative rule;
        # return the one with the widest verified margin.
        strict = [(s, p, mg) for (s, p, mg, rq, pm) in probes
                  if mg > 0 and pm > 0]
        if not strict:
            p_best, s_best = best_pt
            margin, _ = _margin_and_req(problem, p_best, s_best,
                                        opts.margin_rel)
            return LmiCertificate(p=p_best, scalar=float(s_best),
                                  margin=margin, feasible=False)
        s_fin, p_fin, _ = max(strict, key=lambda t: t[2])

    final_margin = -float(numkit.sym_eig(
        assemble(problem, p_fin, s_fin)).values[-1])
    return LmiCertificate(p=p_fin, scalar=float(s_fin),
                          margin=final_margin, feasible=final_margin > 0)
