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

At each scalar the solver seeds P from the equivalent Riccati equation
(Gahinet and Apkarian 1994), solved with numpy alone through the matrix sign
function of its Hamiltonian (Roberts 1980; Byers 1987); a Cholesky factor
says if the seed is strictly feasible. The scalar is laddered up until it
is, then descended while it is. The feasible rungs are then centred, by
Newton steps sized by an exact line search (Vandenberghe, Boyd and Wu 1998)
to the analytic centre of the log-det barrier, in ascending order up to the
first whose margin meets margin >= MARGIN_REL * (1 + ||assembled||_F). That
rule caps the scalar from above (the requirement grows with the scalar
while the achievable margin saturates), so the feasible-with-margin region
is a window and a plain bisection would fail.

Infeasibility is reported, never certified: exhausting the scalar ladder
raises InfeasibleError carrying the search's trace.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from . import numkit
from .errors import InfeasibleError

if TYPE_CHECKING:
    from .sim import AgentModel

# The scalar ladder climbs at most MAX_LADDER rungs and descends at most
# MAX_DESCENTS times; a returned margin must reach MARGIN_REL * (1 + ||M||_F).
MAX_LADDER = 7
MAX_DESCENTS = 18
MARGIN_REL = 1e-6


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
        if self.kind == LmiKind.HINF and not (
                self.gamma is not None
                and 0 < self.gamma <= numkit.MODEL_MAX):
            raise ValueError(
                f"the hinf kind needs 0 < gamma <= {numkit.MODEL_MAX:.0e}, "
                f"got gamma = {self.gamma}")


@dataclass(frozen=True)
class ProbeRecord:
    """One scalar tried, and whether its Riccati seed was strictly feasible.
    A probe not centred (infeasible, or feasible above a lower rung that
    met the margin rule first) keeps the defaults: NaN, and 0 steps."""

    scalar: float
    feasible: bool
    margin: float = np.nan
    required: float = np.nan
    p_min: float = np.nan
    newton_steps: int = 0


@dataclass(frozen=True)
class SolveTrace:
    """The probes of one solve, in the order tried, and why the ladder
    stopped: "ladder_exhausted", "descent_infeasible" or "descent_budget"."""

    probes: tuple[ProbeRecord, ...]
    stop: str


@dataclass(frozen=True)
class LmiCertificate:
    """Feasibility certificate: matrix p, scalar, verified margin.

    margin is the negated largest eigenvalue of the assembled block matrix.
    feasible certificates satisfy p > 0, scalar > 0, margin > 0. trace is
    set on certificates from solve and None on injected ones.
    """

    p: NDArray[np.float64]
    scalar: float
    margin: float
    feasible: bool
    trace: Optional[SolveTrace] = None


@dataclass(frozen=True)
class MarginReport:
    """Recomputed margins of a certificate and the floors they must clear."""

    p_margin: float
    lmi_margin: float
    p_floor: float
    lmi_floor: float
    passed: bool


def assemble(problem: LmiProblem, p, scalar: float) -> NDArray[np.float64]:
    """Assemble the block matrix of the inequality at (p, scalar); a stack
    of p, shape (..., n, n), gives the stack of block matrices.

    Raises ValueError when a block overflows the float range.
    """
    m = problem.model
    a, b, d1 = m.a, m.b, m.d1
    n = a.shape[0]
    pm = numkit.as_matrix(p, "p") if np.ndim(p) <= 2 else np.asarray(p, float)
    if pm.shape[-2:] != (n, n):
        raise ValueError(f"p must be {n}x{n}, got {pm.shape}")
    # the consensus kind is the hinf block without its last two borders
    hinf = problem.kind == LmiKind.HINF
    c, d2 = (m.c_out, m.d2) if hinf else (np.zeros((0, n)), np.zeros((n, 0)))
    j, k = 2 * n, 2 * n + len(c)
    dim = k + d2.shape[1]
    out = np.zeros(pm.shape[:-2] + (dim, dim))
    try:
        with np.errstate(over="raise", invalid="raise"):
            out[..., :n, :n] = (a @ pm + pm @ a.T - scalar * (b @ b.T)
                                + m.alpha ** 2 * (d1 @ d1.T))
            out[..., :n, n:j] = out[..., n:j, :n] = pm
            out[..., :n, j:k], out[..., j:k, :n] = pm @ c.T, c @ pm
            out[..., :n, k:], out[..., k:, :n] = d2, d2.T
            weight = float(problem.gamma) ** 2 if hinf else 1.0
            for lo, hi, w in ((n, j, 1.0), (j, k, 1.0), (k, dim, weight)):
                out[..., lo:hi, lo:hi] = -w * np.eye(hi - lo)
            return out
    except FloatingPointError as exc:
        raise ValueError(
            f"the inequality overflows at scalar {scalar:.3e} and a p of "
            f"largest entry {np.abs(pm).max():.3e}") from exc


def _floor(values) -> float:
    """Rounding floor dim * eps * ||S||_2 of a symmetric S with eigenvalues
    values: a symmetric eigensolver returns each eigenvalue within a small
    multiple of eps ||S||_2 (Golub and Van Loan, Matrix Computations, 8.1),
    so a margin below it carries no sign."""
    return float(len(values) * np.finfo(float).eps * np.abs(values).max())


def verify(problem: LmiProblem, cert: LmiCertificate) -> MarginReport:
    """Recompute all strictness margins of a certificate from scratch.

    Passes iff the scalar is positive, lambda_min(p) exceeds the rounding
    floor dim(p) eps ||p||_2, and -lambda_max(M) of the assembled block M
    exceeds dim(M) eps ||M||_2. Never raises on a failing certificate; the
    report carries the margins and floors.
    """
    p_values = numkit.sym_eigvals(cert.p, "p")
    m_values = numkit.sym_eigvals(assemble(problem, cert.p, cert.scalar),
                                  "the assembled inequality")
    p_margin, lmi_margin = float(p_values[0]), -float(m_values[-1])
    p_floor, lmi_floor = _floor(p_values), _floor(m_values)
    return MarginReport(p_margin, lmi_margin, p_floor, lmi_floor,
                        passed=bool(cert.scalar > 0 and p_margin > p_floor
                                    and lmi_margin > lmi_floor))


class _Stacker:
    """Affine map (vech(p), scalar) -> blockdiag(assembled, -p + delta I).

    The trailing block keeps p positive definite inside the same barrier as
    the inequality. The coefficient matrices of vech(p) are the rows of
    m_flat, so the map is a single product; basis is their (k, d, d) view.
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
        # one stack: the zero p, then the unit p of each vech coordinate
        k = len(self.rows)
        units = self._stack(self.unvech(np.eye(k + 1, k, -1)), 0.0)
        self.m_zero = units[0]
        self.m_scalar = (self._stack(np.zeros((self.n, self.n)), 1.0)
                         - self.m_zero)
        self.basis = units[1:] - self.m_zero
        self.m_flat = self.basis.reshape(k, -1)

    def vech(self, p):
        return p[self.rows, self.cols]

    def unvech(self, v):
        p = np.zeros(np.shape(v)[:-1] + (self.n, self.n))
        p[..., self.rows, self.cols] = v
        p[..., self.cols, self.rows] = v
        return p

    def _stack(self, p, scalar):
        m = assemble(self.problem, p, scalar)
        k = m.shape[-1]
        out = np.zeros(m.shape[:-2] + (k + self.n, k + self.n))
        out[..., :k, :k] = m
        out[..., k:, k:] = -p + self.delta_p * np.eye(self.n)
        return out

    def at(self, v, scalar):
        return (self.m_zero + scalar * self.m_scalar
                + (v @ self.m_flat).reshape(self.m_zero.shape))


def _barrier_derivatives(stacker: _Stacker, v, scalar: float):
    """Gradient tr(W E_i) and Hessian tr(W E_i W E_j) of -log det(-S(v)),
    S = stacker.at(v, scalar), W = (-S)^-1, through G_i = L^-1 E_i L^-T with
    -S = L L^T, and the rows vec(G_i). None unless S is strictly negative
    definite."""
    try:
        chol = np.linalg.cholesky(-stacker.at(v, scalar))
    except np.linalg.LinAlgError:
        return None
    c_inv = np.linalg.inv(chol)
    g = c_inv @ stacker.basis @ c_inv.T
    flat = g.reshape(len(g), -1)
    return np.trace(g, axis1=1, axis2=2), flat @ flat.T, flat


@np.errstate(divide="ignore", invalid="ignore")
def _line_search(mu, t: float) -> float:
    """The t in [0, 1 / mu[-1]) minimising -sum log(1 - t mu), the change of
    the barrier along a Newton step dv, mu the sorted eigenvalues of sum
    dv_i G_i: Newton iterations from t, bisecting where one leaves bounds."""
    if mu[-1] <= 0:
        return t
    lo, hi = 0.0, 1.0 / mu[-1]
    for _ in range(8):
        r = mu / (1.0 - t * mu)
        slope, curvature = r.sum(), r @ r
        if slope * slope <= 1e-8 * curvature:
            break
        lo, hi = (t, hi) if slope < 0 else (lo, t)
        t_next = t - slope / curvature
        t = t_next if lo < t_next < hi else 0.5 * (lo + hi)
    return t


@np.errstate(over="raise", invalid="raise", divide="raise")
def _care(a, b, q, r_diag):
    """Stabilising X of A^T X + X A - X B R^-1 B^T X + Q = 0, R = diag(r_diag)
    and possibly indefinite, from the matrix sign function of the
    Hamiltonian H = [[A, -B R^-1 B^T], [-Q, -A^T]] (Roberts 1980; Byers
    1987). Newton steps Z <- (Z / mu + mu Z^-1) / 2 from Z = H, scaled by
    mu = |det Z|^(1/2n) while a step moves Z by more than 1%, converge to
    S = sign(H); the stable subspace [I; X] is the null space of S + I, so
    X is the least-squares solution of [S12; S22 + I] X = -[S11 + I; S21].

    Raises LinAlgError without a stabilising solution: a singular step, no
    convergence in 100 steps, or a residual above 1e-6 of the equation's
    largest term, which is what rounding leaves of eigenvalues of H on the
    imaginary axis (solvable random draws leave below 1e-7). Raises
    FloatingPointError where a value overflows, never a RuntimeWarning.
    """
    n = a.shape[0]
    g = (b / r_diag) @ b.T
    z = np.block([[a, -g], [-q, -a.T]])
    scale = True
    for _ in range(100):
        z_inv = np.linalg.inv(z)
        # the log keeps det Z from overflowing at large n or entries
        mu = np.exp(np.linalg.slogdet(z)[1] / (2 * n)) if scale else 1.0
        z_next = 0.5 * (z / mu + mu * z_inv)
        step = np.abs(z_next - z).max() / np.abs(z_next).max()
        z = z_next
        if step <= 1e-7:
            break
        scale = step > 1e-2
    else:
        raise np.linalg.LinAlgError("the sign function did not converge")
    w = z + np.eye(2 * n)
    x = np.linalg.lstsq(w[:, n:], -w[:, :n], rcond=None)[0]
    x = (x + x.T) / 2.0
    terms = (a.T @ x + x @ a, x @ g @ x, q)
    residual = np.abs(terms[0] - terms[1] + terms[2]).max()
    if not residual <= 1e-6 * max(np.abs(t).max() for t in terms):
        raise np.linalg.LinAlgError("no stabilising Riccati solution")
    return x


def _seed(stacker: _Stacker, scalar: float):
    """vech of the Riccati seed of p at a fixed scalar, None unless strictly
    feasible (-stacker.at(seed, scalar) has a Cholesky factor). With Y =
    P^-1 the consensus block's Schur complement is Y A + A^T Y - s Y B B^T Y
    + alpha^2 Y D1 D1^T Y + I (hinf adds C^T C + gamma^-2 Y D2 D2^T Y); the
    Riccati equation (indefinite R) sets it to -0.01 I."""
    problem, m = stacker.problem, stacker.problem.model
    cols, r = [m.b], [np.full(m.b.shape[1], 1.0 / scalar)]
    # an alpha^2 whose inverse overflows weighs nothing: solve as alpha = 0
    if m.alpha ** 2 > 1.0 / np.finfo(float).max:
        cols.append(m.d1)
        r.append(np.full(m.d1.shape[1], -1.0 / m.alpha ** 2))
    q = 1.01 * np.eye(stacker.n)
    if problem.kind == LmiKind.HINF:
        cols.append(m.d2)
        r.append(np.full(m.d2.shape[1], -problem.gamma ** 2))
        q = q + m.c_out.T @ m.c_out
    try:
        p0 = np.linalg.inv(_care(m.a, np.hstack(cols), q, np.concatenate(r)))
        v = stacker.vech((p0 + p0.T) / 2.0)
        np.linalg.cholesky(-stacker.at(v, scalar))
    except (np.linalg.LinAlgError, FloatingPointError):
        return None
    return v


def _center(stacker: _Stacker, v, scalar: float):
    """(p, Newton steps): the analytic centre at a fixed scalar, from a
    strictly feasible v = vech(p) such as _seed's, by Newton steps until
    the decrement lambda < 1e-7 or 60 steps: full below lambda = 1/4;
    above it, of the length _line_search finds from the damped
    1 / (1 + lambda) (Boyd and Vandenberghe, Convex Optimization, 9.6). A
    singular Hessian or a step to a point that fails its factorisation
    ends the iteration at the current point."""
    steps, derivs = 0, _barrier_derivatives(stacker, v, scalar)
    while derivs is not None and steps < 60:
        grad, hess, flat = derivs
        try:
            dv = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        dec = float(np.sqrt(max(-grad @ dv, 0.0)))
        if not 1e-7 <= dec < np.inf:
            break
        t = 1.0
        if dec >= 0.25:
            mu = np.linalg.eigvalsh((dv @ flat).reshape(stacker.m_zero.shape))
            t = _line_search(mu, 1.0 / (1.0 + dec))
        derivs = _barrier_derivatives(stacker, v + t * dv, scalar)
        if derivs is not None:
            v, steps = v + t * dv, steps + 1
    return stacker.unvech(v), steps


def solve(problem: LmiProblem) -> LmiCertificate:
    """Search for a strictly feasible (p, scalar) pair.

    Deterministic: the scalar starts at 10 ||A||_F^2, is laddered up tenfold
    until the Riccati seed is strictly feasible (-s B B^T grows the feasible
    set with s), then descended tenfold while it is; with no feasible rung
    it raises InfeasibleError with the trace. A centre depends on its scalar
    alone, so the feasible rungs are centred in ascending order up to the
    first whose margin meets the rule, which is refined once by sqrt(10).
    synthesize replaces the margin recorded there with lmi.verify's.

    When no rung meets the rule, all are centred and the widest margin is
    returned, feasible when positive: rare but live, as a model can have a
    single feasible rung whose margin stays under its requirement.
    """
    norm_a = max(1.0, float(np.linalg.norm(problem.model.a, "fro")))
    stacker = _Stacker(problem, 1e-6 * (1.0 + norm_a))
    records, seeds, points = [], {}, {}

    def probe(s):
        # seed p at s and record the probe; True when the seed is feasible
        seeds[s] = _seed(stacker, s)
        records.append(ProbeRecord(s, seeds[s] is not None))
        return seeds[s] is not None

    def centre(k):
        # centre feasible probe k and record it; True when it meets the rule
        r = records[k]
        p, steps = _center(stacker, seeds[r.scalar], r.scalar)
        points[r.scalar], m = p, assemble(problem, p, r.scalar)
        records[k] = r = replace(
            r, margin=-float(np.linalg.eigvalsh(m)[-1]), newton_steps=steps,
            required=MARGIN_REL * (1.0 + float(np.linalg.norm(m, "fro"))),
            p_min=float(np.linalg.eigvalsh(p)[0]))
        return r.margin >= r.required and r.p_min > 0

    s = 10.0 * norm_a ** 2
    while not probe(s):
        if len(records) >= MAX_LADDER:
            raise InfeasibleError(
                "feasibility search exhausted its budget: no rung of the "
                f"scalar ladder, up to {s:.3e}, had a strictly feasible "
                "Riccati point",
                trace=SolveTrace(tuple(records), "ladder_exhausted"))
        s *= 10.0

    stop = "descent_budget"
    for _ in range(MAX_DESCENTS):
        s /= 10.0
        if not probe(s):
            stop = "descent_infeasible"
            break

    # the feasible rungs, ascending: the last of the climb and the descent's
    rungs = [k for k, r in enumerate(records) if r.feasible][::-1]
    chosen = next((k for k in rungs if centre(k)), None)
    if chosen is None:  # all are centred: the widest margin
        chosen = int(np.nanargmax([r.margin for r in records]))
    elif probe(records[chosen].scalar / np.sqrt(10.0)) and centre(-1):
        chosen = len(records) - 1
    c = records[chosen]
    return LmiCertificate(p=points[c.scalar], scalar=float(c.scalar),
                          margin=c.margin, feasible=c.margin > 0,
                          trace=SolveTrace(tuple(records), stop))
