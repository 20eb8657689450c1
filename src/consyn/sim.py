"""Closed-loop network simulation, disturbances, run assessment and CSV.

RK4 over the one vector field closed_loop, deterministic by construction.
A run keeps one (T, N, n) array, its states, and O(T) series: about 8 T N
n bytes. The design fixes the model, the graph and the error reference:
e_i = x_i - sum_j r_j x_j for leaderless and disturbance runs, the leader
offset v_i = x_i - x_lead for tracking runs; e and the outputs z are
derived where used. integrate finishes the run a chunk at a time, and
CsvWriter formats each finished chunk's rows in forked children while
the next ones integrate, on a multi-CPU machine, with the same bytes.
"""
from __future__ import annotations

import contextlib
import math
import numbers
import os
import pickle
import shutil
import signal
import struct
import tempfile
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from . import numkit
from .errors import BlowUpError, PreconditionError
from .synthesis import ProtocolDesign

# Slack on alpha in the Lipschitz check, the state norm at which
# integrate aborts, the per-step rise of V, relative to V(0), that
# assess does not count, and the gap, relative to t_end, allowed
# between t_end and the last step of the time grid.
LIPSCHITZ_SLACK = 1e-9
BLOWUP_NORM = 1e9
V_STEP_REL = 1e-10
GRID_REL = 1e-9
# Samples per block of integrate's V and ||z||^2 pass, and values per block
# of CSV text: a few MB at any size.
CSV_BLOCK_ROWS = 256
CSV_BLOCK_VALUES = 256 * 64
# Values of final rows CsvWriter gives a child mid-run (a repro CSV: 61k).
CSV_FORK_VALUES = 2 ** 18


def _zero(x, out=None):
    """0 of x's shape, also where x is inf or NaN."""
    if out is None:
        return np.zeros_like(x)
    out.fill(0.0)
    return out


# The componentwise g of each nonlinearity kind, f(x) = C g(x), each a
# call g(x, out=None) like a ufunc's.
CATALOG = {
    "zero": _zero,
    "sine": np.sin,
    "saturation": lambda x, out=None: np.clip(x, -1.0, 1.0, out=out),
    "tanh": np.tanh,
}


@dataclass(frozen=True)
class Nonlinearity:
    """Agent nonlinearity from a closed catalog of componentwise forms.

    kind is one of zero, sine, saturation, tanh. terms is a tuple of
    (out_index, in_index, coefficient) triples, 0-based, of whole indices
    and numbers (a bool is neither) of magnitude at most MODEL_MAX: each
    adds coefficient * g(x[in_index]) to component out_index of the output,
    where g is the catalog function. The closed catalog keeps models
    serializable and their Lipschitz constant closed-form.
    """

    kind: str = "zero"
    terms: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        if self.kind not in CATALOG:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind == "zero" and self.terms:
            raise ValueError("zero nonlinearity takes no terms")
        norm = []
        for k, (o, i, c) in enumerate(self.terms, 1):
            # a bool is an int, and np.bool_ no Real
            if not all(isinstance(j, numbers.Real) and not isinstance(j, bool)
                       and float(j).is_integer() for j in (o, i)):
                raise ValueError("nonlinearity term indices must be integers "
                                 f"(term {k})")
            name = f"the coefficient of nonlinearity term {k}"
            c = numkit.as_numbers(c, name, scalar=True)
            numkit.check_model_numbers(c, name)
            norm.append((int(o), int(i), c))
        object.__setattr__(self, "terms", tuple(norm))

    @staticmethod
    def sine(terms) -> "Nonlinearity":
        return Nonlinearity("sine", tuple(terms))

    def matrix(self, n: int, out_dim: int) -> NDArray[np.float64]:
        """The (out_dim, n) matrix C of f(x) = C g(x): C[o, i] sums the
        signed coefficients of the terms from input i to output o.

        Every catalog g has slope 1 at 0, so C is also the Jacobian of f
        at 0. An index outside C is a ValueError that counts the term and
        the index from 1, as model files write them.
        """
        m = np.zeros((out_dim, n))
        for k, (o, i, c) in enumerate(self.terms, 1):
            if not 0 <= o < out_dim:
                raise ValueError(f"nonlinearity term {k}: output index {o + 1}"
                                 f" outside 1..{out_dim}, the columns of d1")
            if not 0 <= i < n:
                raise ValueError(f"nonlinearity term {k}: input index {i + 1}"
                                 f" outside 1..{n}, the states")
            m[o, i] += c
        return m

    def lipschitz_constant(self, n: int, out_dim: int) -> float:
        """Exact Lipschitz constant ||C||_2 of f on R^n, C = matrix(n, out_dim):
        each catalog g has slope in [-1, 1] and slope 1 at 0, so the Jacobian
        C diag(g'(x)) has norm at most ||C||_2 and reaches it at x = 0."""
        return float(np.linalg.norm(self.matrix(n, out_dim), 2))


@dataclass(frozen=True)
class AgentModel:
    """One agent's dynamics: dx = A x + D1 f(x) + B u (+ D2 w).

    c_out is the performance-output matrix C. d2 and c_out default to zero
    channels of width 1 so consensus-only models need not specify them.
    alpha is the declared Lipschitz constant of f; one below f's exact
    constant is rejected with a PreconditionError.
    """

    a: NDArray[np.float64]
    b: NDArray[np.float64]
    d1: NDArray[np.float64]
    d2: Optional[NDArray[np.float64]] = None
    c_out: Optional[NDArray[np.float64]] = None
    alpha: float = 0.0
    f: Nonlinearity = field(default_factory=Nonlinearity)

    def __post_init__(self):
        a = numkit.as_matrix(self.a, "a")
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("a must be square")
        b = numkit.as_matrix(self.b, "b")
        d1 = numkit.as_matrix(self.d1, "d1")
        if b.shape[0] != n or d1.shape[0] != n:
            raise ValueError("b and d1 must have as many rows as a")
        d2 = numkit.as_matrix(self.d2, "d2") if self.d2 is not None \
            else np.zeros((n, 1))
        c_out = numkit.as_matrix(self.c_out, "c_out") if self.c_out is not None \
            else np.zeros((1, n))
        if d2.shape[0] != n:
            raise ValueError("d2 must have as many rows as a")
        if c_out.shape[1] != n:
            raise ValueError("c_out must have as many columns as a")
        alpha = numkit.as_numbers(self.alpha, "alpha", scalar=True)
        if not 0 <= alpha < np.inf:
            raise ValueError(
                f"alpha must be finite and >= 0, got alpha = {alpha}")
        for name, val in (("a", a), ("b", b), ("d1", d1), ("d2", d2),
                          ("c_out", c_out), ("alpha", alpha)):
            numkit.check_model_numbers(val, name)
            object.__setattr__(self, name, val)
        lip = self.f.lipschitz_constant(n, d1.shape[1])
        if alpha + LIPSCHITZ_SLACK < lip:
            raise PreconditionError(
                f"nonlinearity f has Lipschitz constant {lip}, above the "
                f"declared alpha = {alpha}")

    @property
    def n(self) -> int:
        return self.a.shape[0]


class Disturbance(str, Enum):
    """The kind of a run's shared wave, which square_wave tabulates."""

    NONE = "none"
    BIPOLAR = "bipolar"
    UNIPOLAR = "unipolar"

    @property
    def kind(self) -> str:
        """The kind's string; perfbench's tracer reads it off a scenario."""
        return self.value


def square_wave(t, kind: str = "bipolar") -> NDArray[np.float64]:
    """The wave of a disturbance kind at the times t, an array of t's
    shape: bipolar is 1 on [0, 1) and -1 on [1, 2), unipolar 1 on [0, 2),
    both 0 elsewhere; none is 0 throughout. An unknown kind is a
    ValueError."""
    t, kind = np.asarray(t, dtype=float), Disturbance(kind)
    if kind == "none":
        return np.zeros_like(t)
    return np.where((0.0 <= t) & (t < 2.0),
                    np.where((kind == "unipolar") | (t < 1.0), 1.0, -1.0),
                    0.0)


def check_time_grid(dt: float, t_end: float) -> None:
    """Reject a time grid outside 0 < dt <= t_end < inf (NaN included), or
    one whose round(t_end / dt) steps of dt, the steps integrate takes, do
    not end at t_end (numpy's round keeps an overflowing quotient inf)."""
    if not 0 < dt <= t_end < np.inf:
        raise ValueError(
            f"need 0 < dt <= t_end < inf, got dt = {dt}, t_end = {t_end}")
    if abs(np.round(t_end / dt) * dt - t_end) > GRID_REL * t_end:
        raise ValueError(
            f"t_end = {t_end} is not a whole number of steps dt = {dt}")


@dataclass(frozen=True)
class Scenario:
    """One run of a design: x0 has a row per node of the design's graph,
    the numbers 0 < dt <= t_end < inf make a time grid that ends at t_end,
    and disturbance channel k of agent i carries the wave of the disturbance
    kind times scales[i, k]. scales has shape (N, m1); None: unit scales."""

    design: ProtocolDesign
    x0: NDArray[np.float64]
    disturbance: Disturbance = Disturbance.NONE
    scales: Optional[NDArray[np.float64]] = None
    t_end: float = 10.0
    dt: float = 1e-3

    def __post_init__(self):
        for name in ("dt", "t_end"):
            object.__setattr__(self, name, numkit.as_numbers(
                getattr(self, name), name, scalar=True))
        check_time_grid(self.dt, self.t_end)
        object.__setattr__(self, "disturbance", Disturbance(self.disturbance))
        n_agents, model = self.design.analysis.graph.n, self.design.model
        shapes = {"x0": (n_agents, model.n),
                  "scales": (n_agents, model.d2.shape[1])}
        if self.scales is None:
            object.__setattr__(self, "scales", np.ones(shapes["scales"]))
        for name, shape in shapes.items():
            value = numkit.as_matrix(getattr(self, name), name)
            if value.shape != shape:
                raise ValueError(
                    f"{name} shape {value.shape} does not match {shape}")
            object.__setattr__(self, name, value)


def _trapezoid_steps(y: NDArray[np.float64], t: NDArray[np.float64]
                     ) -> NDArray[np.float64]:
    """Trapezoid-rule integrals of the samples y over each step of grid t."""
    return np.diff(t) * (y[1:] + y[:-1]) / 2.0


@dataclass(frozen=True)
class Trajectory:
    """Sampled closed-loop run.

    states has shape (T, N, n); ref (T, n), the error reference, is the
    states' weighted mean or a view of the leader's row; e_and_z derives
    the errors and outputs from them and c_out. v_lyap is the error energy
    V = sum_i w_i e_i^T P^{-1} e_i, w = design.analysis.weights; j_running
    the running attenuation cost; z_sq and w_sq hold ||z(t)||^2, ||w(t)||^2.
    """

    times: NDArray[np.float64]
    states: NDArray[np.float64]
    ref: NDArray[np.float64]
    c_out: NDArray[np.float64]
    v_lyap: NDArray[np.float64]
    j_running: NDArray[np.float64]
    z_sq: NDArray[np.float64]
    w_sq: NDArray[np.float64]

    def e_and_z(self, rows: slice = slice(None)):
        """Errors e, (len, N, n), and outputs z = e C^T at the samples rows;
        NaN, with no warning, where an inf meets an inf or a 0."""
        with np.errstate(invalid="ignore"):
            e = self.states[rows] - self.ref[rows, None, :]
            return e, e @ self.c_out.T


def closed_loop(design: ProtocolDesign,
                scales: Optional[NDArray[np.float64]] = None
                ) -> Callable[..., NDArray[np.float64]]:
    """Closed-loop vector field f(x, w=0.0, out=None) of a design on (N, n)
    states, where w is the value of the shared wave.

    The protocol feeds back relative states only: u_i = c K sum_j a_ij
    (x_i - x_j), which is row i of c K L x, so

        dx = ((x A^T + g(x) C^T D1^T) + c (L x) (B K)^T) (+ w S D2^T)

    with the model and L read from the design, f(x) = C g(x) the agent
    nonlinearity and S the (N, m1) per-agent scales, a Scenario's; without
    scales f ignores w. Every matrix, F = S D2^T among them, and c, as a
    0-d array (numpy takes a Python number by a slower path), are formed
    once; w F once per bit pattern of w, and at the wave's 1, -1 and 0 it
    is (w S) D2^T bit for bit. f writes dx into out, which must not
    overlap x, or into a fresh array, through scratch arrays of its own,
    so one f is not thread-safe. A tracking design's leader has in-degree
    0, so its Laplacian row is zero and it evolves open loop.
    """
    model, lap = design.model, design.analysis.laplacian
    a_t, d1_t = model.a.T, model.d1.T
    g = CATALOG[model.f.kind]
    coef_t = model.f.matrix(model.n, model.d1.shape[1]).T
    coupling_t = (model.b @ design.k).T
    c = np.array(design.c, dtype=float)
    forcing = None if scales is None else scales @ model.d2.T
    shape = (lap.shape[0], model.n)
    gx, term, lx = np.empty((3,) + shape)
    gc = np.empty((shape[0], model.d1.shape[1]))
    products = {}

    # ndarray.dot reaches the same BLAS call as @ at less dispatch cost
    def f(x, w=0.0, out=None):
        dx = x.dot(a_t, out=np.empty(shape) if out is None else out)
        dx += g(x, out=gx).dot(coef_t, out=gc).dot(d1_t, out=term)
        dx += np.multiply(c, lap.dot(x, out=lx), out=lx).dot(
            coupling_t, out=term)
        if forcing is not None:
            key = struct.pack("d", w)
            if (product := products.get(key)) is None:
                product = products[key] = float(w) * forcing
            dx += product
        return dx
    return f


def integrate(scenario: Scenario,
              on_rows: Optional[Callable] = None) -> Trajectory:
    """Fixed-step RK4 integration of the scenario.

    Deterministic for fixed inputs. The wave is tabulated at the grid times
    and at each step's t + dt/2 and t + dt, which may differ from the next
    grid time in the last bit. Each step takes the textbook sum's
    operations in its order through preallocated arrays and 0-d constants,
    and is written straight into states. Aborts with BlowUpError when the
    state norm crosses BLOWUP_NORM or overflows, carrying the last valid
    time: a chunk of CSV_BLOCK_ROWS samples is checked row by row only if
    one of its values reaches BLOWUP_NORM / (2 sqrt(N n)), and the steps
    after a crossing are dropped. Each chunk is then finished: its
    reference, V (one e P^-1 product a sample, in an array kept for the
    run: the same bits in any chunk), ||z||^2 and J_running, carried on
    from the chunk before by cumsum; then on_rows(traj, chunk end), if given.
    """
    design, kind, dt = scenario.design, scenario.disturbance, scenario.dt
    scales, model = scenario.scales, design.model
    n_agents, n = scenario.x0.shape
    steps = int(round(scenario.t_end / dt))
    times = np.arange(steps + 1) * dt
    f = closed_loop(design, None if kind == Disturbance.NONE else scales)
    wave = square_wave(times, kind)
    w_mid = square_wave(times[:-1] + dt / 2, kind)
    w_end = square_wave(times[:-1] + dt, kind)

    states = np.empty((steps + 1, n_agents, n))
    states[0] = scenario.x0
    weights, lf = design.analysis.weights, design.analysis.leader_follower
    ref = (np.empty((steps + 1, n)) if lf is None
           else states[:, lf.leader - 1, :])
    v, j_running, z_sq = np.zeros((3, steps + 1))
    # w is -1, 0 or 1 times the scales, so ||w||^2 is theirs or 0
    traj = Trajectory(times, states, ref, model.c_out, v, j_running, z_sq,
                      np.where(wave == 0.0, 0.0, (scales ** 2).sum()))
    p_inv = numkit.solve_linear(design.cert.p, np.eye(n))
    h2, h, h6, two = (np.array(a) for a in (dt / 2, dt, dt / 6, 2.0))
    y, k1, k2, k3, k4 = np.empty((5, n_agents, n))
    ep = np.empty((CSV_BLOCK_ROWS, n_agents, n))
    # ||x|| <= sqrt(N n) max |x_ij|; the factor 2 covers the rounding
    peak = BLOWUP_NORM / 2 / math.sqrt(n_agents * n)
    for lo in range(0, steps + 1, CSV_BLOCK_ROWS):
        hi = min(lo + CSV_BLOCK_ROWS, steps + 1)
        # an overflow leaves inf or NaN states, which the norm check catches
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(max(lo - 1, 0), hi - 1):
                x = states[k]
                f(x, wave[k], k1)
                f(np.add(x, np.multiply(h2, k1, out=y), out=y), w_mid[k], k2)
                f(np.add(x, np.multiply(h2, k2, out=y), out=y), w_mid[k], k3)
                f(np.add(x, np.multiply(h, k3, out=y), out=y), w_end[k], k4)
                # ((k1 + 2 k2) + 2 k3) + k4, the order of the textbook sum
                k1 += np.multiply(two, k2, out=k2)
                k1 += np.multiply(two, k3, out=k3)
                k1 += k4
                np.add(x, np.multiply(h6, k1, out=k1), out=states[k + 1])
            new = states[max(lo, 1):hi]
            # a NaN compares false, so its chunk is checked row by row
            if not (-peak < new.min() and new.max() < peak):
                for r in range(max(lo, 1), hi):
                    # np.linalg.norm's sqrt(x . x)
                    xr = states[r].ravel()
                    if not math.sqrt(xr.dot(xr)) < BLOWUP_NORM:
                        t = float(times[r - 1])
                        raise BlowUpError(
                            f"state norm crossed {BLOWUP_NORM:.1e} at "
                            f"t = {t + dt:.6g}", last_valid_time=t)
        sl = slice(lo, hi)
        if lf is None:
            np.einsum("j,tjk->tk", weights, states[sl], out=ref[sl])
        e, z = traj.e_and_z(sl)
        ep_sl = np.matmul(e, p_inv, out=ep[:hi - lo])
        v[sl] = (np.einsum("tik,tik->ti", ep_sl, e) * weights).sum(axis=1)
        z_sq[sl] = (z ** 2).sum(axis=(1, 2))
        # the steps into samples max(lo, 1)..hi - 1, added to J_running[lo - 1]
        run = slice(max(lo, 1) - 1, hi)
        j_running[run][1:] = _trapezoid_steps(
            z_sq[run] - (design.gamma or 0.0) ** 2 * traj.w_sq[run],
            times[run])
        np.cumsum(j_running[run], out=j_running[run])
        if on_rows is not None:
            on_rows(traj, hi)
    return traj


def max_pairwise_distance(states: NDArray[np.float64]) -> float:
    """Largest inter-agent state distance at one sample (N, n)."""
    diffs = states[:, None, :] - states[None, :, :]
    return float(np.sqrt((diffs ** 2).sum(axis=2)).max())


@dataclass(frozen=True)
class Assessment:
    """The numbers a report states about one run.

    final_error is the largest pairwise state distance at t_end; v0 is
    V(0); v_increases counts the steps where V rose by more than
    V_STEP_REL * V(0), and v_fraction_increasing is their share of the
    steps. j and empirical_gain are set only for a gamma: J integrates
    ||z||^2 - gamma^2 ||w||^2 by the trapezoid rule on the sample grid
    (meaningful under zero initial conditions), and the empirical gain
    sqrt(int ||z||^2 / int ||w||^2) stays None for zero disturbance.
    """

    final_error: float
    v0: float
    v_increases: int
    v_fraction_increasing: float
    j: Optional[float]
    empirical_gain: Optional[float]


def assess(traj: Trajectory, gamma: Optional[float] = None) -> Assessment:
    """The Assessment of a run; gamma, when given, sets j and the gain.

    V, ||z||^2 and ||w||^2 are read from traj. Guaranteed decrease is a
    sufficient condition tied to the coupling threshold, so an increase
    under a weakened design is counted, not raised.
    """
    v = traj.v_lyap
    dv = np.diff(v)
    increasing = dv > V_STEP_REL * float(v[0])
    j = gain = None
    if gamma is not None:
        z_energy = float(_trapezoid_steps(traj.z_sq, traj.times).sum())
        w_energy = float(_trapezoid_steps(traj.w_sq, traj.times).sum())
        j = z_energy - gamma ** 2 * w_energy
        gain = float(np.sqrt(z_energy / w_energy)) if w_energy > 0 else None
    return Assessment(
        final_error=max_pairwise_distance(traj.states[-1]),
        v0=float(v[0]),
        v_increases=int(increasing.sum()),
        v_fraction_increasing=float(increasing.mean()) if dv.size else 0.0,
        j=j, empirical_gain=gain)


def _cpu_count() -> int:
    """The CPUs this process may run on; 1 where the OS cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _write_rows(traj: Trajectory, out, rows: range, decimation: int,
                cols: int) -> None:
    """Format the kept samples rows.start..rows.stop - 1, of cols values
    each, to the binary file out by numkit.format_g12, CSV_BLOCK_VALUES
    values a block, deriving each block's e and z."""
    per = max(1, CSV_BLOCK_VALUES // cols)
    for lo in range(rows.start, rows.stop, per):
        hi = min(lo + per, rows.stop)
        sl = slice(lo * decimation, (hi - 1) * decimation + 1, decimation)
        count = hi - lo
        e, z = traj.e_and_z(sl)
        block = np.concatenate(
            [traj.times[sl, None], traj.states[sl].reshape(count, -1),
             e.reshape(count, -1), z.reshape(count, -1),
             traj.v_lyap[sl, None], traj.j_running[sl, None]], axis=1)
        out.write(numkit.format_g12(block))


@dataclass
class _Children:
    """The one fork helper, which alone places a task: where a second CPU
    is usable (cpus, read once from _cpu_count), fork runs it in a child
    that pickles its value or exception back over a pipe, and else here,
    keeping its value or Exception alike; reap collects, in fork order,
    each task's outcome once it has ended (a ChildProcessError for a child
    that sent none), or waits for all; kill SIGKILLs and reaps the rest.
    A write to a page the children share copies it first (a 1.5 ms timer
    handler once took 36 ms), so work beside them writes fresh pages, as
    integrate's new samples and repro's consensus stage (2.6 MB) do."""

    outcomes: list = field(default_factory=list)
    running: dict = field(default_factory=dict)
    cpus: int = field(default_factory=lambda: _cpu_count())  # patched in tests

    def fork(self, task: Callable[[], object]) -> None:
        if self.cpus < 2:
            self.outcomes.append(_run(task))
            return
        r, w = os.pipe()
        try:
            if (pid := os.fork()) == 0:
                # a write then fails, not blocks, once no reader is left
                os.close(r)
                code = 1
                try:
                    outcome = _run(task)
                    with open(w, "wb") as out:
                        pickle.dump(outcome, out, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
        except BaseException:
            os.close(r)
            raise
        finally:
            os.close(w)
        self.running[pid] = (len(self.outcomes), open(r, "rb"))
        self.outcomes.append(None)

    def reap(self, wait: bool = True) -> list:
        for pid, (index, pipe) in list(self.running.items()):
            # a blocking read ends when the child has exited
            data = pipe.read() if wait else b""
            done, status = os.waitpid(pid, 0 if wait else os.WNOHANG)
            if done:
                del self.running[pid]
                with pipe:
                    data += pipe.read()
                self.outcomes[index] = _outcome(
                    data, os.waitstatus_to_exitcode(status))
        return self.outcomes

    def kill(self) -> None:
        for pid in self.running:
            os.kill(pid, signal.SIGKILL)
        self.reap()


def _run(task: Callable[[], object]):
    """task's value, or the Exception it raised."""
    try:
        return task()
    except Exception as exc:
        return exc


def _outcome(data: bytes, code: int):
    """What a child with exit code code reported in data, or the error."""
    if code == 0:
        return pickle.loads(data)
    how = (f"was killed by signal {signal.Signals(-code).name}" if code < 0
           else f"ended with status {code}")
    return ChildProcessError(f"a forked process {how}")


class CsvWriter(contextlib.AbstractContextManager):
    """The trajectory CSV at path, written as the run's rows become final:
    with CsvWriter(path) as csv: csv.finish(integrate(scenario, csv)).

    Header: t, x{agent}_{component}..., e{agent}_{component}...,
    z{agent}_{component}..., V, J_running (1-based); every decimation-th
    sample as "%.12g", the bytes of np.savetxt. The file is created at
    once, so an unwritable path fails before the run. On two or more CPUs,
    a forked child formats each CSV_FORK_VALUES values of final rows while
    fewer children than CPUs but one are busy; finish then splits the rest
    into a range per CPU, a child each, and appends their part files in
    order. Where no child took rows, finish writes every row itself: for a
    finished run, forking costs more than it saves. An OSError ending the
    block is raised naming path; no child or part file outlives the block,
    nor the CSV if it fails before finish."""

    def __init__(self, path, decimation: int = 1):
        # checked before the file is created: a bad value leaves no file
        d = numkit.as_numbers(decimation, "decimation", scalar=True)
        if not (d.is_integer() and d >= 1):
            raise ValueError(f"decimation is {decimation!r}, not a whole "
                             "number >= 1")
        self.path, self.decimation = path, int(d)
        self._children = _Children()
        self._parts, self._cols, self._finishing = [], 0, False
        try:
            self._out = open(path, "wb")
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc

    def __exit__(self, kind, exc, tb) -> None:
        self._children.kill()
        self._out.close()
        for _, part in self._parts:
            os.unlink(part)
        if kind is not None and not self._finishing:
            os.unlink(self.path)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {self.path}: {exc}") from exc

    def _next_row(self, traj: Trajectory) -> int:
        """Write the header once, flushed out of the buffer children
        inherit; return the first row not handed to a child yet."""
        if not self._cols:
            n_agents, n = traj.states.shape[1:]
            header = ["t"] + [
                f"{name}{i + 1}_{k + 1}" for name, width in
                (("x", n), ("e", n), ("z", traj.c_out.shape[0]))
                for i in range(n_agents) for k in range(width)]
            header += ["V", "J_running"]
            self._cols = len(header)
            self._out.write((",".join(header) + "\n").encode("ascii"))
            self._out.flush()
        return self._parts[-1][0].stop if self._parts else 0

    def _fork(self, traj: Trajectory, rows: range) -> None:
        fd, part = tempfile.mkstemp(
            suffix=".part", dir=os.path.dirname(os.path.abspath(self.path)))
        self._parts.append((rows, part))

        def task():
            with open(fd, "wb") as out:
                _write_rows(traj, out, rows, self.decimation, self._cols)
        try:
            self._children.fork(task)
        finally:
            os.close(fd)

    def __call__(self, traj: Trajectory, stop: int) -> None:
        """Take the samples before stop, which are final."""
        start = self._next_row(traj)
        batch = -(-CSV_FORK_VALUES // self._cols)
        self._children.reap(wait=False)
        while (-(-stop // self.decimation) - start >= batch
               and len(self._children.running) < self._children.cpus - 1):
            self._fork(traj, range(start, start + batch))
            start += batch

    def finish(self, traj: Trajectory) -> None:
        """Write the rows not handed out and wait for every child."""
        self._finishing = True
        rest = range(self._next_row(traj), len(traj.times[::self.decimation]))
        if not self._parts:
            _write_rows(traj, self._out, rest, self.decimation, self._cols)
        else:
            k = min(self._children.cpus, len(rest))
            for i in range(k):
                self._fork(traj, rest[len(rest) * i // k:
                                      len(rest) * (i + 1) // k])
        for (rows, _), outcome in zip(self._parts, self._children.reap()):
            if isinstance(outcome, BaseException):
                raise OSError(f"the process formatting rows {rows.start + 1}"
                              f"-{rows.stop} failed: {outcome}")
        for _, part in self._parts:
            with open(part, "rb") as src:
                shutil.copyfileobj(src, self._out)
        self._out.close()


def write_csv(traj: Trajectory, path, decimation: int = 1) -> None:
    """Write the trajectory as CSV (see CsvWriter) in this process."""
    with CsvWriter(path, decimation) as csv:
        csv.finish(traj)
