"""Closed-loop network simulation, disturbances, and run assessment.

The integrator is fixed-step classical Runge-Kutta (RK4) over the single
closed-loop vector field :func:`closed_loop`, deterministic by construction.
States are carried as an (N, n) array, one row per agent. The design fixes
the agent model, the graph and the error reference: the weighted average
e_i = x_i - sum_j r_j x_j for leaderless and disturbance runs, the leader
offset v_i = x_i - x_lead for tracking runs.
"""
from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
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
# Samples write_csv formats per block: a block's floats and text stay a
# few MB however long the run.
CSV_BLOCK_ROWS = 256
# The componentwise g of each nonlinearity kind: f(x) = C g(x).
CATALOG = {
    "zero": np.zeros_like,
    "sine": np.sin,
    "saturation": lambda x: np.clip(x, -1.0, 1.0),
    "tanh": np.tanh,
}


@dataclass(frozen=True)
class Nonlinearity:
    """Agent nonlinearity from a closed catalog of componentwise forms.

    kind is one of zero, sine, saturation, tanh. terms is a tuple of
    (out_index, in_index, coefficient) triples, 0-based: each adds
    coefficient * g(x[in_index]) to component out_index of the output,
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
        norm = tuple((int(o), int(i), float(c)) for (o, i, c) in self.terms)
        object.__setattr__(self, "terms", norm)

    @staticmethod
    def zero() -> "Nonlinearity":
        return Nonlinearity("zero", ())

    @staticmethod
    def sine(terms) -> "Nonlinearity":
        return Nonlinearity("sine", tuple(terms))

    def matrix(self, n: int, out_dim: int) -> NDArray[np.float64]:
        """The (out_dim, n) matrix C of f(x) = C g(x): C[o, i] sums the
        signed coefficients of the terms from input i to output o.

        Every catalog g has slope 1 at 0, so C is also the Jacobian of f
        at 0. Each term's indices and coefficient are checked first.
        """
        m = np.zeros((out_dim, n))
        for k, (o, i, c) in enumerate(self.terms):
            if not 0 <= o < out_dim:
                raise ValueError(f"nonlinearity output index {o} outside d1")
            if not 0 <= i < n:
                raise ValueError(f"nonlinearity input index {i} outside state")
            numkit.check_model_numbers(
                c, f"the coefficient of nonlinearity term {k + 1}")
            m[o, i] += c
        return m

    def apply(self, x: NDArray[np.float64], out_dim: int
              ) -> NDArray[np.float64]:
        """Evaluate on states of shape (..., n), returning (..., out_dim)."""
        return CATALOG[self.kind](x) @ self.matrix(x.shape[-1], out_dim).T

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
    f: Nonlinearity = field(default_factory=Nonlinearity.zero)

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
        if not 0 <= self.alpha < np.inf:
            raise ValueError(
                f"alpha must be finite and >= 0, got alpha = {self.alpha}")
        for name, val in (("a", a), ("b", b), ("d1", d1), ("d2", d2),
                          ("c_out", c_out), ("alpha", self.alpha)):
            numkit.check_model_numbers(val, name)
        lip = self.f.lipschitz_constant(n, d1.shape[1])
        if self.alpha + LIPSCHITZ_SLACK < lip:
            raise PreconditionError(
                f"nonlinearity f has Lipschitz constant {lip}, above the "
                f"declared alpha = {self.alpha}")
        for name, val in (("a", a), ("b", b), ("d1", d1), ("d2", d2),
                          ("c_out", c_out)):
            object.__setattr__(self, name, val)
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def n(self) -> int:
        return self.a.shape[0]


def square_wave(t, unipolar: bool = False) -> NDArray[np.float64]:
    """One-period square wave starting at t = 0 with width 2 and height 1.

    Bipolar (default): 1 on [0, 1), -1 on [1, 2), 0 afterwards.
    Unipolar: 1 on [0, 2), 0 afterwards. An array of t's shape.
    """
    t = np.asarray(t, dtype=float)
    return np.where((0.0 <= t) & (t < 2.0),
                    np.where(unipolar | (t < 1.0), 1.0, -1.0), 0.0)


@dataclass(frozen=True)
class DisturbanceSpec:
    """Per-agent disturbance: a shared scalar wave scaled per agent/channel.

    kind is none, bipolar, or unipolar. scales has shape (N, m1) and
    multiplies the wave value; None with a non-none kind means unit scales.
    """

    kind: str = "none"
    scales: Optional[NDArray[np.float64]] = None

    def __post_init__(self):
        if self.kind not in ("none", "bipolar", "unipolar"):
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if self.scales is not None:
            object.__setattr__(
                self, "scales", numkit.as_matrix(self.scales, "scales"))

    def resolve_scales(self, n_agents: int, m1: int) -> NDArray[np.float64]:
        """The (N, m1) scales, unit when none were given, checked in shape."""
        scales = self.scales
        if scales is None:
            scales = np.ones((n_agents, m1))
        if scales.shape != (n_agents, m1):
            raise ValueError(f"scales shape {scales.shape} does not match "
                             f"({n_agents}, {m1})")
        return scales

    def wave(self, t) -> NDArray[np.float64]:
        """The shared wave value at the times t, an array of t's shape."""
        if self.kind == "none":
            return np.zeros_like(np.asarray(t, dtype=float))
        return square_wave(t, unipolar=self.kind == "unipolar")


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
    and the time grid 0 < dt <= t_end < inf ends at t_end."""

    design: ProtocolDesign
    x0: NDArray[np.float64]
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    t_end: float = 10.0
    dt: float = 1e-3

    def __post_init__(self):
        check_time_grid(self.dt, self.t_end)
        x0 = numkit.as_matrix(self.x0, "x0")
        shape = (self.design.analysis.graph.n, self.design.model.n)
        if x0.shape != shape:
            raise ValueError(f"x0 shape {x0.shape} does not match {shape}")
        object.__setattr__(self, "x0", x0)


def _trapezoid_steps(y: NDArray[np.float64], t: NDArray[np.float64]
                     ) -> NDArray[np.float64]:
    """Trapezoid-rule integrals of the samples y over each step of grid t."""
    return np.diff(t) * (y[1:] + y[:-1]) / 2.0


@dataclass(frozen=True)
class Trajectory:
    """Sampled closed-loop run.

    states has shape (T, N, n); e holds consensus (or tracking) errors; z
    the performance outputs; v_lyap the error energy
    V = sum_i w_i e_i^T P^{-1} e_i with w = design.analysis.weights;
    j_running the running attenuation cost integral; omega the applied
    disturbance.
    """

    times: NDArray[np.float64]
    states: NDArray[np.float64]
    e: NDArray[np.float64]
    z: NDArray[np.float64]
    v_lyap: NDArray[np.float64]
    j_running: NDArray[np.float64]
    omega: NDArray[np.float64]


def closed_loop(design: ProtocolDesign,
                disturbance: DisturbanceSpec = DisturbanceSpec()
                ) -> Callable[..., NDArray[np.float64]]:
    """Closed-loop vector field f(x, w=0.0) of a design on (N, n) states,
    where w is the value of the shared wave.

    The protocol feeds back relative states only: u_i = c K sum_j a_ij
    (x_i - x_j), which is row i of c K L x, so

        dx = x A^T + g(x) C^T D1^T + c (L x) (B K)^T (+ w S D2^T)

    with the model and L read from the design, f(x) = C g(x) the agent
    nonlinearity and S the per-agent scales. Every matrix is formed once,
    F = S D2^T among them; w is 1, -1 or 0, so w F equals (w S) D2^T bit
    for bit. A tracking design's leader has in-degree 0, so its Laplacian
    row is zero and it evolves open loop.
    """
    model, lap = design.model, design.analysis.laplacian
    a_t, d1_t = model.a.T, model.d1.T
    g = CATALOG[model.f.kind]
    coef_t = model.f.matrix(model.n, model.d1.shape[1]).T
    coupling_t = (model.b @ design.k).T
    c = design.c
    forcing = disturbance.resolve_scales(
        design.analysis.graph.n, model.d2.shape[1]) @ model.d2.T
    disturbed = disturbance.kind != "none"

    def f(x, w=0.0):
        dx = x @ a_t + g(x) @ coef_t @ d1_t + c * (lap @ x) @ coupling_t
        if disturbed:
            dx = dx + w * forcing
        return dx
    return f


def integrate(scenario: Scenario) -> Trajectory:
    """Fixed-step RK4 integration of the scenario.

    Deterministic for fixed inputs. The wave is tabulated at the grid times
    and at each step's t + dt/2 and t + dt, which may differ from the next
    grid time in the last bit. Aborts with BlowUpError when the state norm
    crosses BLOWUP_NORM or overflows, carrying the last valid time.
    """
    design, dist, dt = scenario.design, scenario.disturbance, scenario.dt
    model = design.model
    n_agents, n = scenario.x0.shape
    steps = int(round(scenario.t_end / dt))
    times = np.arange(steps + 1) * dt
    f = closed_loop(design, dist)
    wave = dist.wave(times)
    w_mid = dist.wave(times[:-1] + dt / 2)
    w_end = dist.wave(times[:-1] + dt)

    states = np.empty((steps + 1, n_agents, n))
    x = scenario.x0.copy()
    states[0] = x
    # an overflow leaves inf or NaN states, which the norm check catches
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            k1 = f(x, wave[k])
            k2 = f(x + dt / 2 * k1, w_mid[k])
            k3 = f(x + dt / 2 * k2, w_mid[k])
            k4 = f(x + dt * k3, w_end[k])
            x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            # a NaN norm compares false, so NaN states abort too
            if not np.linalg.norm(x) < BLOWUP_NORM:
                t = float(times[k])
                raise BlowUpError(f"state norm crossed {BLOWUP_NORM:.1e} at "
                                  f"t = {t + dt:.6g}", last_valid_time=t)
            states[k + 1] = x

    weights, lf = design.analysis.weights, design.analysis.leader_follower
    if lf is None:
        mean = np.einsum("j,tjk->tk", weights, states)
        e = states - mean[:, None, :]
    else:
        e = states - states[:, lf.leader - 1: lf.leader, :]
    z = e @ model.c_out.T
    omega = wave[:, None, None] * dist.resolve_scales(
        n_agents, model.d2.shape[1])
    p_inv = numkit.solve_linear(design.cert.p, np.eye(n))
    v = np.einsum("i,tik,kl,til->t", weights, e, p_inv, e)
    gamma = design.gamma or 0.0
    integrand = (z ** 2).sum(axis=(1, 2)) - gamma ** 2 * (omega ** 2).sum(axis=(1, 2))
    j_running = np.concatenate(
        [[0.0], np.cumsum(_trapezoid_steps(integrand, times))])
    return Trajectory(times=times, states=states, e=e, z=z, v_lyap=v,
                      j_running=j_running, omega=omega)


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

    V is read from traj.v_lyap. Guaranteed decrease is a sufficient
    condition tied to the coupling threshold, so an increase under a
    weakened design is counted, not raised.
    """
    v = traj.v_lyap
    dv = np.diff(v)
    increasing = dv > V_STEP_REL * float(v[0])
    j = gain = None
    if gamma is not None:
        z2 = (traj.z ** 2).sum(axis=(1, 2))
        w2 = (traj.omega ** 2).sum(axis=(1, 2))
        z_energy = float(_trapezoid_steps(z2, traj.times).sum())
        w_energy = float(_trapezoid_steps(w2, traj.times).sum())
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
                row_fmt: str) -> None:
    """Format the kept samples rows.start..rows.stop - 1 to the binary file
    out, CSV_BLOCK_ROWS at a time, straight from the trajectory's arrays."""
    for lo in range(rows.start, rows.stop, CSV_BLOCK_ROWS):
        hi = min(lo + CSV_BLOCK_ROWS, rows.stop)
        sl = slice(lo * decimation, (hi - 1) * decimation + 1, decimation)
        count = hi - lo
        block = np.concatenate(
            [traj.times[sl, None], traj.states[sl].reshape(count, -1),
             traj.e[sl].reshape(count, -1), traj.z[sl].reshape(count, -1),
             traj.v_lyap[sl, None], traj.j_running[sl, None]], axis=1)
        out.write(((row_fmt * count) % tuple(block.ravel().tolist()))
                  .encode("ascii"))


def _write_part(fd: int, traj: Trajectory, rows: range, decimation: int,
                row_fmt: str) -> None:
    """Body of a forked worker: write its rows to fd, then end the process
    with code 0, or 1 on any exception. It never returns to the caller."""
    code = 1
    try:
        with open(fd, "wb") as part:
            _write_rows(traj, part, rows, decimation, row_fmt)
        code = 0
    finally:
        os._exit(code)


def _run_children(traj: Trajectory, fds: list[int], ranges: list[range],
                  decimation: int, row_fmt: str) -> list[int]:
    """Fork a child writing each range to the matching fd, and return
    their exit statuses once all have exited.

    While they run, this process does no work of its own: every page it
    wrote while the children still shared its memory would be copied
    first, which slowed all it did in that time (a 1.5 ms timer handler
    took up to 36 ms). It waits in a single read, which ends when the last
    child has exited and so closed its end of a pipe (the handler of a
    signal that restarts the read waits with it), and only then reaps them.
    """
    children = []
    done_r, done_w = os.pipe()
    try:
        for fd, rows in zip(fds, ranges):
            pid = os.fork()
            if pid == 0:
                _write_part(fd, traj, rows, decimation, row_fmt)
            children.append(pid)
    finally:
        os.close(done_w)
        try:
            os.read(done_r, 1)
        finally:
            os.close(done_r)
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                     for pid in children]
    return codes


def _write_ranges(traj: Trajectory, out, ranges: list[range],
                  decimation: int, row_fmt: str, folder: str) -> None:
    """Write the rows of every range to out, in order.

    A single range is written here. Otherwise a forked child writes each
    range, the first straight into out and the others into temporary files
    in folder, which are appended once every child has exited. Every child
    is reaped and every temporary file deleted, also on failure.
    """
    if len(ranges) == 1:
        _write_rows(traj, out, ranges[0], decimation, row_fmt)
        return
    fds, parts = [out.fileno()], []
    try:
        for _ in ranges[1:]:
            fd, part = tempfile.mkstemp(suffix=".part", dir=folder)
            fds.append(fd)
            parts.append(part)
        codes = _run_children(traj, fds, ranges, decimation, row_fmt)
        for rows, code in zip(ranges, codes):
            if code != 0:
                raise OSError(f"the process formatting rows {rows.start + 1}"
                              f"-{rows.stop} ended with status {code}")
        # the first child moved the file offset that out shares with it
        out.seek(0, os.SEEK_END)
        for part in parts:
            with open(part, "rb") as src:
                shutil.copyfileobj(src, out)
    finally:
        for fd in fds[1:]:
            os.close(fd)
        for part in parts:
            os.unlink(part)


def write_csv(traj: Trajectory, path, decimation: int = 1) -> None:
    """Write the trajectory as CSV.

    Header: t, x{agent}_{component}..., e{agent}_{component}...,
    z{agent}_{component}..., V, J_running. Agent and component indices are
    1-based. decimation keeps every decimation-th sample. Values are
    formatted "%.12g": the bytes are those np.savetxt writes for the table.

    The kept rows are split into one contiguous range per CPU the process
    may use. With one CPU this process writes them all. Otherwise a forked
    child formats each range, the first after the header in the output and
    the others into temporary files next to it, appended in order once all
    have exited. A failure to write raises OSError naming path, and no
    child or temporary file outlives the call.
    """
    if decimation < 1:
        raise ValueError("decimation must be >= 1")
    nt = len(range(0, traj.times.shape[0], decimation))
    n_agents, n = traj.states.shape[1], traj.states.shape[2]
    m2 = traj.z.shape[2]
    header = ["t"]
    for name, width in (("x", n), ("e", n), ("z", m2)):
        header += [f"{name}{i + 1}_{k + 1}"
                   for i in range(n_agents) for k in range(width)]
    header += ["V", "J_running"]
    row_fmt = ",".join(["%.12g"] * len(header)) + "\n"
    k = max(1, min(_cpu_count(), nt))
    ranges = [range(nt * i // k, nt * (i + 1) // k) for i in range(k)]
    with open(path, "wb") as out:
        try:
            out.write((",".join(header) + "\n").encode("ascii"))
            # in the file before a forked child writes after it, and out of
            # the buffer the children inherit
            out.flush()
            _write_ranges(traj, out, ranges, decimation, row_fmt,
                          os.path.dirname(os.path.abspath(path)))
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
