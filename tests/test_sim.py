import csv
import dataclasses
import functools
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from consyn import (
    AgentModel,
    BlowUpError,
    DiGraph,
    Disturbance,
    LmiCertificate,
    Nonlinearity,
    PreconditionError,
    ProtocolDesign,
    Scenario,
    Trajectory,
    analyze,
    assess,
    closed_loop,
    integrate,
    max_pairwise_distance,
    square_wave,
    synthesize,
    write_csv,
)
from consyn import benchmark, numkit, sim
from consyn.sim import BLOWUP_NORM, CATALOG, LIPSCHITZ_SLACK

from conftest import (path_graph, random_balanced_sc_digraph,
                      random_sc_digraph, scalar_model, two_node_graph)


def witness_design(model, g, p=1.0, scalar=1.0, c=None):
    design = synthesize(model, g, "leaderless", cert=([[p]], scalar))
    if c is not None:
        design = dataclasses.replace(design, c=c)
    return design


def apply(f, x, out_dim):
    """f on states of shape (..., n), returning (..., out_dim): the
    expression closed_loop evaluates."""
    return CATALOG[f.kind](x) @ f.matrix(x.shape[-1], out_dim).T


def test_nonlinearity_sine_single_term():
    f = Nonlinearity.sine([(3, 0, -0.333)])
    x = np.array([0.5, 1.0, -2.0, 0.1])
    out = apply(f, x, 4)
    expected = np.zeros(4)
    expected[3] = -0.333 * np.sin(0.5)
    assert_allclose(out, expected, atol=0.0)


def test_nonlinearity_batched_apply():
    f = Nonlinearity.sine([(1, 0, 2.0)])
    x = np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]])
    out = apply(f, x, 2)
    assert out.shape == (3, 2)
    assert_allclose(out[:, 1], 2.0 * np.sin(x[:, 0]), atol=0.0)
    assert_allclose(out[:, 0], 0.0, atol=0.0)


def test_nonlinearity_saturation_and_tanh():
    sat = Nonlinearity("saturation", [(0, 0, 1.0)])
    assert_allclose(apply(sat, np.array([3.0]), 1), [1.0], atol=0.0)
    assert_allclose(apply(sat, np.array([-3.0]), 1), [-1.0], atol=0.0)
    assert_allclose(apply(sat, np.array([0.4]), 1), [0.4], atol=0.0)
    th = Nonlinearity("tanh", [(0, 0, 2.0)])
    assert_allclose(apply(th, np.array([0.7]), 1), [2.0 * np.tanh(0.7)],
                    atol=0.0)


def test_nonlinearity_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Nonlinearity("cubic", [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        Nonlinearity("zero", [(0, 0, 1.0)])


def test_nonlinearity_lipschitz_bound():
    f = Nonlinearity.sine([(3, 0, -0.333)])
    assert f.lipschitz_constant(4, 4) == pytest.approx(0.333, abs=1e-15)
    assert Nonlinearity().lipschitz_constant(4, 4) == 0.0
    # sin x - sin x is identically zero; signed sums see it, abs sums do not
    cancel = Nonlinearity.sine([(0, 0, 1.0), (0, 0, -1.0)])
    assert cancel.lipschitz_constant(1, 1) == 0.0
    # signed sums over each (out, in) pair, then the spectral norm
    f = Nonlinearity("tanh", [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 0.5),
                              (1, 0, -1.0)])
    c = np.array([[1.0, 1.0], [-0.5, 0.0]])
    assert f.lipschitz_constant(2, 2) == pytest.approx(np.linalg.norm(c, 2),
                                                       rel=1e-15)


CATALOG_NONLINEARITY = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda dims: st.tuples(
        st.just(dims[0]), st.just(dims[1]),
        st.sampled_from(["sine", "tanh", "saturation"]),
        st.lists(st.tuples(st.integers(0, dims[1] - 1),
                           st.integers(0, dims[0] - 1), st.floats(-3, 3)),
                 min_size=1, max_size=5)))


@given(CATALOG_NONLINEARITY, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_lipschitz_constant_is_exact(spec, seed):
    """No difference ratio exceeds the constant, and one reaches it.

    Both sides allow LIPSCHITZ_SLACK, the rounding allowance of the model
    check, for coefficients that cancel to a C of rounding size.
    """
    n, out_dim, kind, terms = spec
    f = Nonlinearity(kind, terms)
    lip = f.lipschitz_constant(n, out_dim)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, size=(2000, n))
    y = rng.uniform(-3.0, 3.0, size=(2000, n))
    dx = np.linalg.norm(x - y, axis=1)
    df = np.linalg.norm(apply(f, x, out_dim) - apply(f, y, out_dim), axis=1)
    keep = dx > 0
    assert np.all(df[keep] / dx[keep] <= lip * (1 + 1e-9) + LIPSCHITZ_SLACK)
    # every catalog g has slope 1 at 0, so the central difference along
    # C's top right singular vector reaches ||C||_2 as h -> 0
    c = np.zeros((out_dim, n))
    for (o, i, coef) in f.terms:
        c[o, i] += coef
    v = np.linalg.svd(c)[2][0]
    h = 1e-4
    reach = np.linalg.norm(apply(f, h * v, out_dim)
                           - apply(f, -h * v, out_dim)) / (2 * h)
    assert reach >= (1 - 1e-6) * lip - LIPSCHITZ_SLACK


def test_agent_model_rejects_bad_term_indices():
    # checked before the Lipschitz constant, which would index C with them;
    # the message counts the term and its indices from 1, as files do
    for term, named in (
            ((2, 0, 1.0), "output index 3 outside 1..2, the columns of d1"),
            ((0, 5, 1.0), "input index 6 outside 1..2, the states"),
            ((-1, 0, 1.0), "output index 0 outside 1..2, the columns of d1"),
            ((0, -1, 1.0), "input index 0 outside 1..2, the states")):
        with pytest.raises(ValueError, match=re.escape(
                f"nonlinearity term 2: {named}") + "$"):
            AgentModel(a=np.eye(2), b=np.ones((2, 1)), d1=np.eye(2),
                       alpha=2.0, f=Nonlinearity.sine([(0, 0, 1.0), term]))
    # int() would read 0.5 as 0 and True as 1: Nonlinearity refuses them
    for index in (0.5, float("inf"), float("nan"), True, np.True_, "1"):
        for term in ((index, 0, 1.0), (0, index, 1.0)):
            with pytest.raises(ValueError, match="indices must be integers"):
                Nonlinearity.sine([term])
    # a whole number of any numeric type is its int
    terms = Nonlinearity.sine([(1.0, np.int64(0), 1)]).terms
    assert terms == ((1, 0, 1.0),) and type(terms[0][0]) is int


def test_nonlinearity_checks_its_coefficients_when_built(monkeypatch):
    """A coefficient too large for the certificate search is refused as the
    nonlinearity is built, naming its term; C, which the Lipschitz check
    and every closed loop read, checks no number again."""
    with pytest.raises(PreconditionError, match="^the coefficient of "
                       "nonlinearity term 2 is -2e\\+12, beyond 1e\\+12"):
        Nonlinearity.sine([(0, 0, 1.0), (0, 0, -2e12)])
    f = Nonlinearity.sine([(0, 0, 1.0), (1, 0, -0.5)])
    checked = []
    monkeypatch.setattr(numkit, "check_model_numbers",
                        lambda m, name: checked.append(name))
    assert f.lipschitz_constant(2, 2) == pytest.approx(np.sqrt(1.25))
    assert_allclose(f.matrix(2, 2), [[1.0, 0.0], [-0.5, 0.0]], atol=0.0)
    assert checked == []


def test_library_refuses_a_bool_as_a_number():
    """A bool is no number for library callers either, as for the CLI's
    file reader: in a model matrix, as alpha, or as a term coefficient."""
    with pytest.raises(ValueError, match="^the coefficient of nonlinearity "
                       "term 1 is true, not a number$"):
        Nonlinearity("sine", [(0, 0, True)])
    with pytest.raises(ValueError, match="not a number"):
        Nonlinearity.sine([(0, 0, 1.0), (0, 0, np.True_)])
    for kw in ({"a": [[True]]}, {"b": np.array([[True]])},
               {"d1": [[1.0, False]]}, {"d2": [[True]]},
               {"c_out": [[True]]}, {"alpha": True}):
        model = dict({"a": [[-1.0]], "b": [[1.0]], "d1": [[1.0]]}, **kw)
        with pytest.raises(ValueError, match="is (true|false|\"np.True_\"), "
                           "not a number"):
            AgentModel(**model)
    # a number of any numeric type still is one
    model = AgentModel(a=[[np.int64(-1)]], b=[[1]], d1=[[1.0]],
                       alpha=np.float32(1.5),
                       f=Nonlinearity.sine([(0, 0, np.int64(-1))]))
    assert model.alpha == 1.5 and type(model.alpha) is float
    assert model.f.terms == ((0, 0, -1.0),) and model.a.dtype == float


def test_check_lipschitz_benchmark(bench_model):
    lip = bench_model.f.lipschitz_constant(bench_model.n,
                                           bench_model.d1.shape[1])
    assert lip == pytest.approx(bench_model.alpha, rel=1e-15)


def test_check_lipschitz_flags_understated_constant():
    with pytest.raises(PreconditionError,
                       match="Lipschitz constant 1.0.*alpha = 0.1"):
        AgentModel(a=np.zeros((1, 1)), b=np.ones((1, 1)), d1=np.ones((1, 1)),
                   alpha=0.1, f=Nonlinearity.sine([(0, 0, 1.0)]))


def test_square_wave_bipolar_boundaries():
    assert square_wave(0.0) == 1.0
    assert square_wave(0.5) == 1.0
    assert square_wave(1.0) == -1.0
    assert square_wave(1.5) == -1.0
    assert square_wave(2.0) == 0.0
    assert square_wave(3.0) == 0.0


def test_square_wave_unipolar():
    assert square_wave(0.5, "unipolar") == 1.0
    assert square_wave(1.5, "unipolar") == 1.0
    assert square_wave(2.0, "unipolar") == 0.0
    # the none kind is zero everywhere, also where the wave is on
    assert square_wave(0.5, "none") == 0.0


def test_square_wave_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="'unipolr' is not a valid"):
        square_wave([0.5, 1.5], "unipolr")


@given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_square_wave_range(t):
    assert square_wave(t) in (-1.0, 0.0, 1.0)
    assert square_wave(t, "unipolar") in (0.0, 1.0)
    assert square_wave(t, Disturbance.NONE) == 0.0


def test_square_wave_array():
    out = square_wave(np.array([0.5, 1.5, 2.5]))
    assert_allclose(out, [1.0, -1.0, 0.0], atol=0.0)
    # at and around the edges, and a scalar t gives the array's value
    ts = np.array([-1.0, -0.0, 0.0, 0.999, 1.0, 1.999, 2.0, 2.5])
    for kind, want in (("bipolar", [0, 1, 1, 1, -1, -1, 0, 0]),
                       ("unipolar", [0, 1, 1, 1, 1, 1, 0, 0]),
                       ("none", [0] * 8)):
        assert square_wave(ts, kind).tolist() == want
        assert [float(square_wave(t, kind)) for t in ts] == want


def bench_scenario(design, kind="bipolar", t_end=10.0):
    """The published attenuation run of a design: zero state, the bundled
    per-agent scales."""
    return Scenario(design=design, x0=np.zeros((6, 4)), disturbance=kind,
                    scales=benchmark.DISTURBANCE_SCALES, t_end=t_end, dt=1e-3)


def test_disturbance_benchmark_scaling(hinf_design):
    # w is the wave at the grid times times the per-agent scales, so
    # ||w||^2 is the scales' squared norm while the wave is on, else 0
    traj = integrate(bench_scenario(hinf_design, t_end=2.5))
    on = (benchmark.DISTURBANCE_SCALES ** 2).sum()
    assert traj.w_sq[500] == on == traj.w_sq[1500]
    assert not traj.w_sq[2000:].any()


def test_disturbance_batched_shape():
    """Without scales the scenario stores unit (N, m1) scales."""
    model = AgentModel(a=-np.eye(2), b=np.ones((2, 1)), d1=np.eye(2),
                       d2=np.ones((2, 2)))
    ring = DiGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    design = synthesize(model, ring, "leaderless", cert=(np.eye(2), 1.0))
    scenario = Scenario(design=design, x0=np.zeros((4, 2)),
                        disturbance="bipolar", t_end=2.0, dt=1.0)
    assert scenario.disturbance is Disturbance.BIPOLAR
    assert_allclose(scenario.scales, np.ones((4, 2)), atol=0.0)
    # ||w||^2 over the 4 x 2 unit channels: on at t = 0 and 1, off at 2
    assert integrate(scenario).w_sq.tolist() == [8.0, 8.0, 0.0]


def test_disturbance_validation(consensus_design):
    """A wrong-shaped scales array or an unknown kind fails when the
    scenario is built, before any integration."""
    x0 = np.zeros((6, 4))
    with pytest.raises(ValueError, match="sawtooth"):
        Scenario(design=consensus_design, x0=x0, disturbance="sawtooth")
    with pytest.raises(ValueError,
                       match=re.escape("scales shape (3, 1) does not match "
                                       "(6, 1)")):
        Scenario(design=consensus_design, x0=x0, disturbance="bipolar",
                 scales=np.ones((3, 1)))
    for bad in ([1.0] * 6, np.ones((6, 2)), [[np.nan]] * 6):
        with pytest.raises(ValueError, match="scales"):
            Scenario(design=consensus_design, x0=x0, scales=bad)


def test_rhs_consensus_manifold_invariant(bench_model, consensus_design):
    xbar = np.array([0.3, -0.2, 0.5, 0.1])
    x = np.tile(xbar, (6, 1))
    dx = closed_loop(consensus_design)(x)
    open_loop = (bench_model.a @ xbar
                 + bench_model.d1 @ apply(bench_model.f, xbar, 4))
    for row in dx:
        assert_allclose(row, open_loop, atol=1e-12)


def test_rhs_two_node_arithmetic():
    model = scalar_model()
    g = two_node_graph()
    design = witness_design(model, g, c=1.0)  # K = -1/2
    dx = closed_loop(design)(np.array([[1.0], [0.0]]))
    # u1 = cK(x1 - x2) = -0.5, u2 = cK(x2 - x1) = +0.5
    assert_allclose(dx, [[-1.5], [0.5]], atol=1e-15)


def test_rhs_matches_kronecker_form(bench_model, bench_graph,
                                    consensus_design):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(24)
    eye = np.eye(6)
    lap = analyze(bench_graph).laplacian
    # the benchmark's sine, and tanh with two terms on the fourth output
    tanh = Nonlinearity("tanh", [(3, 0, -0.2), (3, 2, 0.25)])
    for model in (bench_model, dataclasses.replace(bench_model, f=tanh)):
        design = dataclasses.replace(consensus_design, model=model)
        dx = closed_loop(design)(x.reshape(6, 4)).reshape(-1)
        big_a = np.kron(eye, model.a)
        big_d1 = np.kron(eye, model.d1)
        coupling = np.kron(lap, model.b @ design.k)
        fx = apply(model.f, x.reshape(6, 4), 4).reshape(-1)
        expected = big_a @ x + big_d1 @ fx + design.c * coupling @ x
        assert_allclose(dx, expected, atol=1e-10)


def test_rhs_disturbed_reduces_to_leaderless(consensus_design):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 4))
    # the square wave is off after t = 2
    assert square_wave(3.0, "bipolar") == 0.0
    dx0 = closed_loop(consensus_design, benchmark.DISTURBANCE_SCALES)(
        x, square_wave(3.0, "bipolar"))
    assert_allclose(dx0, closed_loop(consensus_design)(x), atol=0.0)


def test_rhs_disturbed_zero_state(bench_model, hinf_design):
    scales = benchmark.DISTURBANCE_SCALES
    dx = closed_loop(hinf_design, scales)(np.zeros((6, 4)),
                                          square_wave(0.5, "bipolar"))
    assert_allclose(dx, scales @ bench_model.d2.T, atol=1e-15)


def textbook_rhs(design, scales):
    """f(x, w) as written: fresh arrays, @ products, Python-number operands."""
    model, lap = design.model, design.analysis.laplacian
    coef_t = model.f.matrix(model.n, model.d1.shape[1]).T
    forcing = scales @ model.d2.T

    def f(x, w):
        return (x @ model.a.T + CATALOG[model.f.kind](x) @ coef_t @ model.d1.T
                + design.c * (lap @ x) @ (model.b @ design.k).T) + w * forcing
    return f


def test_rhs_is_the_textbook_expression_for_any_w(bench_model, hinf_design):
    """f(x) and f(x, w) have the textbook expression's bytes (so the sign of
    a zero counts) for w of every type a caller may pass, one f serving
    every call, and a w seen before served from f's cached w F."""
    scales = benchmark.DISTURBANCE_SCALES
    rng = np.random.default_rng(6)
    for model in (bench_model, dataclasses.replace(
            bench_model, f=Nonlinearity("saturation", [(3, 0, -0.2)]))):
        design = dataclasses.replace(hinf_design, model=model)
        f, want = closed_loop(design, scales), textbook_rhs(design, scales)
        x = rng.standard_normal((6, 4))
        assert f(x).tobytes() == want(x, 0.0).tobytes()
        for w in (1.0, np.float64(-1.0), np.array(1.0), -0.0, 0.0,
                  np.array(-0.0), 0.3, 1, -1.0, 0.3):
            assert f(x, w).tobytes() == want(x, w).tobytes(), repr(w)
    # without scales f ignores w
    f = closed_loop(hinf_design)
    x = rng.standard_normal((6, 4))
    assert f(x, 1.0).tobytes() == f(x).tobytes() == textbook_rhs(
        hinf_design, np.zeros((6, 1)))(x, 0.0).tobytes()


def test_rhs_returns_a_fresh_array_or_out(hinf_design):
    """Each call returns a new array, or out when given; later calls leave
    earlier results alone, and no result shares memory with what f keeps
    between calls (its matrices, scratch arrays and cached w F)."""
    f = closed_loop(hinf_design, benchmark.DISTURBANCE_SCALES)
    x1, x2 = np.random.default_rng(7).standard_normal((2, 6, 4))
    first = f(x1, 1.0)
    kept = first.copy()
    second = f(x2, -1.0)
    assert second is not first and not np.shares_memory(first, second)
    buf = np.empty((6, 4))
    assert f(x2, 1.0, out=buf) is buf
    assert buf.tobytes() == f(x2, 1.0).tobytes()
    assert first.tobytes() == kept.tobytes()
    held = [cell.cell_contents for cell in f.__closure__]
    held = [a for v in held
            for a in (v.values() if isinstance(v, dict) else (v,))
            if isinstance(a, np.ndarray)]
    assert len(held) > 5
    assert not any(np.shares_memory(r, a)
                   for r in (first, second) for a in held)


def test_rhs_leader_follower_requires_source_leader(bench_model, bench_graph):
    # every node of the benchmark ring has inputs, so none can lead
    with pytest.raises(PreconditionError):
        synthesize(bench_model, bench_graph, "leader-follower")


def test_rhs_leader_follower_tracking_manifold():
    model = scalar_model()
    g = path_graph()
    design = synthesize(model, g, "leader-follower", cert=([[1.0]], 1.0))
    x = np.full((3, 1), 0.7)
    dx = closed_loop(design)(x)
    assert_allclose(dx, np.full((3, 1), -0.7), atol=1e-15)


def test_rhs_leader_follower_constant_leader():
    model = AgentModel(a=[[0.0]], b=[[1.0]], d1=[[1.0]])
    g = path_graph()
    design = synthesize(model, g, "leader-follower", cert=([[1.0]], 2.0))
    dx = closed_loop(design)(np.array([[1.0], [0.4], [0.2]]))
    assert dx[0, 0] == 0.0


def test_translation_leaves_protocol_unchanged(bench_graph):
    model = AgentModel(a=np.diag([-1.0, -2.0]), b=np.ones((2, 1)),
                       d1=np.zeros((2, 2)))
    cert = (np.eye(2), 1.0)
    design = synthesize(model, bench_graph, "leaderless", cert=cert)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 2))
    shift = np.array([0.8, -1.1])
    f = closed_loop(design)
    dx = f(x)
    dx_shifted = f(x + shift)
    assert_allclose(dx_shifted - dx, np.tile(model.a @ shift, (6, 1)),
                    atol=1e-12)


def test_integrate_scalar_decay():
    model = scalar_model()
    g = two_node_graph()
    design = witness_design(model, g)
    scenario = Scenario(design=design, x0=np.ones((2, 1)), t_end=1.0, dt=1e-3)
    traj = integrate(scenario)
    assert_allclose(traj.states[-1], np.exp(-1.0) * np.ones((2, 1)),
                    atol=1e-8)


def textbook_rk4(scenario):
    """The states of the textbook RK4 loop: stage arguments and the stage
    sum allocated afresh as written, @ products, and np.linalg.norm as the
    blow-up check. Raises BlowUpError as integrate does."""
    design, kind, dt = scenario.design, scenario.disturbance, scenario.dt
    model, lap = design.model, design.analysis.laplacian
    a_t, d1_t = model.a.T, model.d1.T
    g = CATALOG[model.f.kind]
    coef_t = model.f.matrix(model.n, model.d1.shape[1]).T
    coupling_t = (model.b @ design.k).T
    c = design.c
    forcing = scenario.scales @ model.d2.T
    disturbed = kind != "none"

    def f(x, w=0.0):
        dx = x @ a_t + g(x) @ coef_t @ d1_t + c * (lap @ x) @ coupling_t
        if disturbed:
            dx = dx + w * forcing
        return dx

    steps = int(round(scenario.t_end / dt))
    times = np.arange(steps + 1) * dt
    wave = square_wave(times, kind)
    w_mid = square_wave(times[:-1] + dt / 2, kind)
    w_end = square_wave(times[:-1] + dt, kind)
    states = np.empty((steps + 1,) + scenario.x0.shape)
    x = scenario.x0.copy()
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            k1 = f(x, wave[k])
            k2 = f(x + dt / 2 * k1, w_mid[k])
            k3 = f(x + dt / 2 * k2, w_mid[k])
            k4 = f(x + dt * k3, w_end[k])
            x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.linalg.norm(x) < BLOWUP_NORM:
                t = float(times[k])
                raise BlowUpError(f"state norm crossed {BLOWUP_NORM:.1e} at "
                                  f"t = {t + dt:.6g}", last_valid_time=t)
            states[k + 1] = x
    return states


def run_outcome(run, scenario):
    """The states of a run, or the message and last valid time of its
    blow-up."""
    try:
        return run(scenario)
    except BlowUpError as exc:
        return str(exc), exc.last_valid_time


def assert_same_outcome(scenario):
    got = run_outcome(lambda s: integrate(s).states, scenario)
    want = run_outcome(textbook_rk4, scenario)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.array_equal(got, want)


def test_integrate_blow_up_guard():
    """The guard aborts at the step where the textbook loop's np.linalg.norm
    first reaches BLOWUP_NORM, with the same message."""
    model = scalar_model(a=2.0)
    g = two_node_graph()
    design = witness_design(model, g, p=1.0, scalar=6.0)
    scenario = Scenario(
        design=design, x0=np.full((2, 1), 10.0), t_end=12.0, dt=1e-3)
    with pytest.raises(BlowUpError) as exc:
        integrate(scenario)
    assert exc.value.last_valid_time == 9037 * 1e-3
    assert str(exc.value) == "state norm crossed 1.0e+09 at t = 9.038"
    assert_same_outcome(scenario)
    # a NaN state has a NaN norm, which the guard catches at once
    nan_run = dataclasses.replace(
        scenario, design=dataclasses.replace(design, c=np.nan))
    with pytest.raises(BlowUpError) as exc:
        integrate(nan_run)
    assert exc.value.last_valid_time == 0.0
    assert str(exc.value) == "state norm crossed 1.0e+09 at t = 0.001"
    assert_same_outcome(nan_run)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", [1e150, 1e300])
def test_integrate_overflow_raises_blow_up(c):
    """A step whose arithmetic overflows to inf or NaN raises BlowUpError,
    with no RuntimeWarning on the way, at the textbook loop's step."""
    design = witness_design(scalar_model(), two_node_graph(), c=c)
    scenario = Scenario(design=design, x0=np.array([[1.0], [-1.0]]),
                        t_end=1.0, dt=1e-3)
    with pytest.raises(BlowUpError) as exc:
        integrate(scenario)
    assert exc.value.last_valid_time == 0.0
    assert type(exc.value.last_valid_time) is float
    assert str(exc.value) == "state norm crossed 1.0e+09 at t = 0.001"
    assert_same_outcome(scenario)


@pytest.mark.parametrize("step", [1, 255, 256, 257, 700])
def test_blow_up_at_each_side_of_a_chunk_boundary(step):
    """Norms are checked a chunk of CSV_BLOCK_ROWS rows at a time; the
    first crossing is still found at its own row, here the first new row,
    the last row of the first chunk, the first two of the second, and a row
    inside the third, with the textbook loop's message and time."""
    assert sim.CSV_BLOCK_ROWS == 256
    a, dt = 2.0, 1e-3
    design = witness_design(scalar_model(a=a), two_node_graph(), p=1.0,
                            scalar=6.0)
    # equal agents: L x = 0, so the norm is sqrt(2) |x0| e^(a t) to RK4's
    # order, and reaches BLOWUP_NORM half a step before row step
    x0 = BLOWUP_NORM / math.sqrt(2) / math.exp(a * dt * (step - 0.5))
    scenario = Scenario(design=design, x0=np.full((2, 1), x0),
                        t_end=(step + 300) * dt, dt=dt)
    with pytest.raises(BlowUpError) as exc:
        integrate(scenario)
    assert exc.value.last_valid_time == (step - 1) * dt
    assert str(exc.value) == (f"state norm crossed 1.0e+09 at "
                              f"t = {step * dt:.6g}")
    assert_same_outcome(scenario)


def test_states_just_below_the_blow_up_norm_complete():
    """States whose largest value is above the chunk check's BLOWUP_NORM /
    2 / sqrt(N n), so every row is checked, but whose norm stays below
    BLOWUP_NORM, complete as the textbook loop does, bit for bit."""
    design = witness_design(scalar_model(a=-0.1), two_node_graph())
    x0 = np.array([[0.7], [0.69]]) * BLOWUP_NORM
    scenario = Scenario(design=design, x0=x0, t_end=0.8, dt=1e-3)
    states = integrate(scenario).states
    norms = np.sqrt((states ** 2).sum(axis=(1, 2)))
    assert norms.max() < BLOWUP_NORM
    assert np.abs(states).max(axis=(1, 2)).min() > BLOWUP_NORM / 2 / 2 ** 0.5
    assert np.array_equal(states, textbook_rk4(scenario))


def reference_rk4(scenario):
    """The states of RK4 over f(t, x), which evaluates the wave at the
    Python float t of each stage and f by a loop over the sine terms."""
    design, kind, dt = scenario.design, scenario.disturbance, scenario.dt
    model, lap = design.model, design.analysis.laplacian
    forcing = scenario.scales @ model.d2.T

    def wave(t):
        if kind == "none" or not 0.0 <= t < 2.0:
            return 0.0
        return 1.0 if kind == "unipolar" or t < 1.0 else -1.0

    def f_by_terms(x):
        out = np.zeros(x.shape[:-1] + (model.d1.shape[1],))
        for (o, i, c) in model.f.terms:
            out[..., o] += c * np.sin(x[..., i])
        return out

    def f(t, x):
        dx = (x @ model.a.T + f_by_terms(x) @ model.d1.T
              + design.c * (lap @ x) @ (model.b @ design.k).T)
        if kind != "none":
            dx = dx + wave(t) * forcing
        return dx

    x = scenario.x0.copy()
    states = [x]
    for k in range(round(scenario.t_end / dt)):
        t = k * dt
        k1 = f(t, x)
        k2 = f(t + dt / 2, x + dt / 2 * k1)
        k3 = f(t + dt / 2, x + dt / 2 * k2)
        k4 = f(t + dt, x + dt * k3)
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(x)
    return np.array(states)


@pytest.mark.parametrize("kind", ["bipolar", "unipolar", "none"])
def test_integrate_matches_reference_rk4(kind):
    """integrate's tables give the per-stage formulation's states bit for
    bit. At dt = 1/3 step 5 ends at t + dt = 1.9999999999999998, where the
    wave is still on, while the grid holds 2.0, where it is off."""
    model = AgentModel(a=[[-1.0]], b=[[1.0]], d1=[[1.0]], d2=[[1.0]],
                       c_out=[[1.0]], alpha=0.5,
                       f=Nonlinearity.sine([(0, 0, 0.5)]))
    design = synthesize(model, two_node_graph(), "hinf", 2.0)
    scenario = Scenario(design=design, x0=np.array([[1.0], [-0.5]]),
                        disturbance=kind, scales=[[1.0], [-2.0]],
                        t_end=3.0, dt=1 / 3)
    assert 5 * scenario.dt + scenario.dt < 2.0 == 6 * scenario.dt
    traj = integrate(scenario)
    assert np.array_equal(traj.states, reference_rk4(scenario))


def random_leader_rooted(rng, n):
    """A graph whose node 1 roots a random spanning tree, plus random
    edges among the followers."""
    edges = {(int(rng.integers(1, v)), v) for v in range(2, n + 1)}
    mask = rng.random((n, n)) < 0.2
    edges |= {(i + 1, j + 1) for i in range(1, n) for j in range(1, n)
              if i != j and mask[i, j]}
    return DiGraph.from_edges(n, edges)


GRAPHS = {"leaderless": random_sc_digraph,
          "hinf": random_balanced_sc_digraph,
          "leader-follower": random_leader_rooted}


def random_design(rng, kind, mode, n_agents, n, out_dim, m1, m2, outputs=1):
    """A design of a random stable model: A has spectral abscissa -1/2 or
    less, f has catalog terms on distinct (out, in) pairs, C has outputs
    rows, and the gain follows K = -1/2 B^T P^-1 for a random P > 0."""
    m = rng.uniform(-0.5, 0.5, (n, n))
    a = m - (np.linalg.norm(m, 2) + 0.5) * np.eye(n)
    pairs = [(o, i) for o in range(out_dim) for i in range(n)]
    count = 0 if kind == "zero" else int(rng.integers(1, len(pairs) + 1))
    picked = rng.permutation(len(pairs))[:count]
    f = Nonlinearity(kind, [(*pairs[j], float(rng.uniform(-1.0, 1.0)))
                            for j in picked])
    model = AgentModel(a=a, b=rng.uniform(-1.0, 1.0, (n, m1)),
                       d1=rng.uniform(-1.0, 1.0, (n, out_dim)),
                       d2=rng.uniform(-1.0, 1.0, (n, m2)),
                       c_out=rng.uniform(-1.0, 1.0, (outputs, n)),
                       alpha=f.lipschitz_constant(n, out_dim), f=f)
    q = rng.uniform(-1.0, 1.0, (n, n))
    p = q @ q.T + np.eye(n)
    c = float(rng.uniform(0.0, 2.0))
    return ProtocolDesign(
        k=-0.5 * np.linalg.solve(p, model.b).T, c=c,
        cert=LmiCertificate(p=p, scalar=1.0, margin=0.0, feasible=False),
        c_threshold=c, mode=mode,
        analysis=analyze(GRAPHS[mode](rng, n_agents)), model=model,
        gamma=2.0 if mode == "hinf" else None)


@given(kind=st.sampled_from(sorted(CATALOG)),
       mode=st.sampled_from(sorted(GRAPHS)),
       n_agents=st.integers(2, 8), n=st.integers(1, 4),
       out_dim=st.integers(1, 3), m1=st.integers(1, 2), m2=st.integers(1, 2),
       disturbance=st.sampled_from(["none", "bipolar", "unipolar"]),
       dt=st.sampled_from([1 / 3, 1e-2]), steps=st.integers(1, 30),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_integrate_is_the_textbook_loop_bit_for_bit(
        kind, mode, n_agents, n, out_dim, m1, m2, disturbance, dt, steps,
        seed):
    """In-place stages, .dot products and the sqrt-of-dot guard give the
    textbook loop's states, or its blow-up, bit for bit, on every shape."""
    rng = np.random.default_rng(seed)
    design = random_design(rng, kind, mode, n_agents, n, out_dim, m1, m2)
    scenario = Scenario(
        design=design, x0=rng.uniform(-2.0, 2.0, (n_agents, n)),
        disturbance=disturbance,
        scales=rng.uniform(-2.0, 2.0, (n_agents, m2)),
        t_end=steps * dt, dt=dt)
    assert_same_outcome(scenario)


def test_integrate_is_the_textbook_loop_at_64_agents():
    rng = np.random.default_rng(64)
    model = benchmark.manipulator_model()
    design = dataclasses.replace(synthesize(
        model, random_balanced_sc_digraph(rng, 64), "hinf", benchmark.GAMMA,
        cert=(benchmark.REFERENCE_P, benchmark.REFERENCE_EPSILON)),
        c=benchmark.REFERENCE_C)
    scenario = Scenario(
        design=design, x0=rng.uniform(-1.0, 1.0, (64, 4)),
        disturbance="bipolar", scales=rng.uniform(-2.0, 2.0, (64, 1)),
        t_end=0.2, dt=1e-3)
    assert np.array_equal(integrate(scenario).states, textbook_rk4(scenario))


def whole_run_derivation(scenario, traj):
    """e, z, V, ||z||^2 and J_running of a run by the whole-run expressions:
    every (T, N, .) array at once, the disturbance w included."""
    design, model = scenario.design, scenario.design.model
    states, times = traj.states, traj.times
    weights, lf = design.analysis.weights, design.analysis.leader_follower
    if lf is None:
        mean = np.einsum("j,tjk->tk", weights, states)
        e = states - mean[:, None, :]
    else:
        e = states - states[:, lf.leader - 1: lf.leader, :]
    z = e @ model.c_out.T
    omega = (square_wave(times, scenario.disturbance)[:, None, None]
             * scenario.scales)
    p_inv = numkit.solve_linear(design.cert.p, np.eye(model.n))
    v = (np.einsum("tik,tik->ti", e @ p_inv, e) * weights).sum(axis=1)
    z2 = (z ** 2).sum(axis=(1, 2))
    gamma = design.gamma or 0.0
    integrand = z2 - gamma ** 2 * (omega ** 2).sum(axis=(1, 2))
    j_running = np.concatenate(
        [[0.0], np.cumsum(np.diff(times) * (integrand[1:] + integrand[:-1])
                          / 2.0)])
    return e, z, v, z2, j_running


BLOCK = sim.CSV_BLOCK_ROWS


@given(mode=st.sampled_from(sorted(GRAPHS)), n_agents=st.integers(2, 8),
       n=st.integers(1, 4), outputs=st.integers(1, 3),
       disturbance=st.sampled_from(["none", "bipolar", "unipolar"]),
       steps=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1,
                              3 * BLOCK + 17]),
       decimation=st.sampled_from([1, 10]), cpus=st.integers(1, 3),
       fork_values=st.sampled_from([1, 400, 5000]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_blockwise_derivation_is_the_whole_run_bit_for_bit(
        mode, n_agents, n, outputs, disturbance, steps, decimation, cpus,
        fork_values, seed):
    """V, ||z||^2 and J_running computed a chunk of samples at a time, and
    the CSV's e and z columns derived a block at a time by one to three
    writers, equal the whole-run expressions bit for bit, for weighted-mean
    and leader-row references, step counts below, at and across the chunk
    size (one sample past it included). So does the CSV streamed while the
    run integrates, whose batches of fork_values values here are a few
    rows, so that children take rows at every chunk."""
    rng = np.random.default_rng(seed)
    design = random_design(rng, "sine", mode, n_agents, n, 2, 1, 1, outputs)
    scenario = Scenario(
        design=design, x0=rng.uniform(-1.0, 1.0, (n_agents, n)),
        disturbance=disturbance, scales=rng.uniform(-2.0, 2.0, (n_agents, 1)),
        t_end=steps * 1e-2, dt=1e-2)
    with tempfile.TemporaryDirectory() as folder, \
            mock.patch.object(sim, "_cpu_count", lambda: cpus), \
            mock.patch.object(sim, "CSV_FORK_VALUES", fork_values):
        traj = integrate(scenario)
        write_csv(traj, os.path.join(folder, "out.csv"), decimation)
        with sim.CsvWriter(os.path.join(folder, "streamed.csv"),
                           decimation) as csv:
            streamed = integrate(scenario, csv)
            csv.finish(streamed)
        e, z, v, z2, j_running = whole_run_derivation(scenario, traj)
        savetxt_reference(traj, os.path.join(folder, "ref.csv"), decimation,
                          e, z)
        with open(os.path.join(folder, "ref.csv"), "rb") as ref:
            want = ref.read()
        for run, name in ((traj, "out.csv"), (streamed, "streamed.csv")):
            assert run.states.tobytes() == traj.states.tobytes()
            assert run.v_lyap.tobytes() == v.tobytes()
            assert run.z_sq.tobytes() == z2.tobytes()
            assert run.j_running.tobytes() == j_running.tobytes()
            with open(os.path.join(folder, name), "rb") as out:
                assert out.read() == want
        assert sorted(os.listdir(folder)) == ["out.csv", "ref.csv",
                                              "streamed.csv"]
    assert_no_child_left()


@pytest.mark.parametrize("mode", sorted(GRAPHS))
def test_lone_last_sample_is_the_whole_run_bit_for_bit(mode):
    """Runs whose last chunk holds one sample, at 2 agents with 2 states
    and at the network shape, 64 agents with 4: integrate derives that
    sample alone, and its reference, V and ||z||^2 still equal the
    whole-run expressions bit for bit."""
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n_agents, n = (2, 2) if seed % 2 else (64, 4)
        design = random_design(rng, "sine", mode, n_agents, n, 2, 1, 1)
        scenario = Scenario(
            design=design, x0=rng.uniform(-1.0, 1.0, (n_agents, n)),
            disturbance="bipolar" if seed % 4 < 2 else "none",
            scales=rng.uniform(-2.0, 2.0, (n_agents, 1)),
            t_end=BLOCK * 1e-3, dt=1e-3)
        traj = integrate(scenario)
        assert len(traj.times) % BLOCK == 1
        e, _, v, z2, _ = whole_run_derivation(scenario, traj)
        assert (traj.states - traj.ref[:, None, :]).tobytes() == e.tobytes()
        assert traj.v_lyap.tobytes() == v.tobytes()
        assert traj.z_sq.tobytes() == z2.tobytes()


@pytest.mark.parametrize("n_agents", [6, 64])
@pytest.mark.parametrize("disturbance", ["none", "bipolar"])
def test_v_is_the_weighted_quadratic_form_to_rounding(n_agents,
                                                      disturbance):
    """V(t) is sum_i w_i e_i^T P^-1 e_i to within a dot product's rounding
    bound (Higham 2002, section 3.1): of order (N + n) eps times the sum
    of the terms' magnitudes, against a math.fsum of the terms
    w_i e_ik (P^-1)_kl e_il, on the benchmark model at 6 and 64 agents."""
    rng = np.random.default_rng(n_agents)
    graph = (benchmark.benchmark_graph() if n_agents == 6
             else random_balanced_sc_digraph(rng, n_agents))
    design = dataclasses.replace(synthesize(
        benchmark.manipulator_model(), graph, "hinf", benchmark.GAMMA,
        cert=(benchmark.REFERENCE_P, benchmark.REFERENCE_EPSILON)),
        c=benchmark.REFERENCE_C)
    scenario = Scenario(
        design=design,
        x0=(rng.uniform(-1.0, 1.0, (n_agents, 4)) if disturbance == "none"
            else np.zeros((n_agents, 4))),
        disturbance=disturbance, scales=rng.uniform(-2.0, 2.0, (n_agents, 1)),
        t_end=1.0, dt=1e-3)
    traj = integrate(scenario)
    e, _ = traj.e_and_z()
    w = design.analysis.weights
    p_inv = numkit.solve_linear(design.cert.p, np.eye(4))
    bound = (n_agents + 4) * np.finfo(float).eps
    for t in range(0, len(traj.times), 37):
        terms = (w[:, None, None] * e[t][:, :, None] * p_inv
                 * e[t][:, None, :]).ravel()
        exact = math.fsum(terms.tolist())
        assert (abs(traj.v_lyap[t] - exact)
                <= bound * math.fsum(np.abs(terms).tolist()))


def test_run_memory_is_the_states_plus_a_few_blocks(tmp_path):
    """integrate, assess and write_csv of an N = 64 disturbed run hold no
    (T, N, .) array but the states. numpy reports its buffers to
    tracemalloc; write_csv formats the CSV in this process a block at a
    time, so the traced peak is the states, T-long series and a few
    blocks."""
    rng = np.random.default_rng(64)
    design = dataclasses.replace(synthesize(
        benchmark.manipulator_model(), random_balanced_sc_digraph(rng, 64),
        "hinf", benchmark.GAMMA,
        cert=(benchmark.REFERENCE_P, benchmark.REFERENCE_EPSILON)),
        c=benchmark.REFERENCE_C)
    scenario = Scenario(design=design, x0=np.zeros((64, 4)),
                        disturbance="bipolar",
                        scales=rng.uniform(-2.0, 2.0, (64, 1)),
                        t_end=2.0, dt=1e-3)
    tracemalloc.start()
    try:
        traj = integrate(scenario)
        assess(traj, design.gamma)
        write_csv(traj, tmp_path / "traj.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = sim.CSV_BLOCK_ROWS * traj.states[0].nbytes
    assert peak < traj.states.nbytes + 4 * block


@pytest.mark.parametrize("n_agents", [16, 128])
def test_csv_block_memory_does_not_grow_with_the_agents(tmp_path,
                                                        monkeypatch,
                                                        n_agents):
    """The text of one block, its Python floats, tuple, string and bytes,
    sets write_csv's memory on one CPU. Blocks of CSV_BLOCK_VALUES values,
    not of a fixed row count, keep one bound at 16 and at 128 agents
    (147 and 1,155 values a row): about 1.2 MB, where 256-row blocks
    peaked at 2.6 and 20.4 MB."""
    monkeypatch.setattr(sim, "_cpu_count", lambda: 1)
    rng = np.random.default_rng(n_agents)
    design = dataclasses.replace(synthesize(
        benchmark.manipulator_model(),
        random_balanced_sc_digraph(rng, n_agents), "hinf", benchmark.GAMMA,
        cert=(benchmark.REFERENCE_P, benchmark.REFERENCE_EPSILON)),
        c=benchmark.REFERENCE_C)
    traj = integrate(Scenario(
        design=design, x0=rng.uniform(-1.0, 1.0, (n_agents, 4)),
        disturbance="bipolar", t_end=0.3, dt=1e-3))
    tracemalloc.start()
    try:
        write_csv(traj, tmp_path / "traj.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * sim.CSV_BLOCK_VALUES


def test_scenario_validation(consensus_design):
    x0 = np.zeros((6, 4))
    with pytest.raises(ValueError):
        Scenario(design=consensus_design, x0=x0, dt=0.0)
    with pytest.raises(ValueError):
        Scenario(design=consensus_design, x0=x0, t_end=1e-4, dt=1e-3)
    with pytest.raises(ValueError):
        Scenario(design=consensus_design, x0=np.zeros((4, 6)))
    with pytest.raises(ValueError, match="t_end = inf"):
        Scenario(design=consensus_design, x0=x0, t_end=np.inf)
    with pytest.raises(ValueError, match="dt = nan"):
        Scenario(design=consensus_design, x0=x0, dt=np.nan)
    # 3 steps of 0.3 end at 0.9, 2 steps of 0.6 at 1.2
    for dt in (0.3, 0.6):
        with pytest.raises(ValueError, match=f"t_end = 1.0 .* dt = {dt}"):
            Scenario(design=consensus_design, x0=x0, t_end=1.0, dt=dt)
    # 3 * 0.1 misses 0.3 by one rounding step, far inside GRID_REL
    scenario = Scenario(design=consensus_design, x0=x0, t_end=0.3, dt=0.1)
    assert integrate(scenario).times[-1] == pytest.approx(0.3, rel=1e-15)


def test_trajectory_error_invariants(consensus_design, bench_spectra):
    scenario = Scenario(design=consensus_design,
                        x0=benchmark.initial_states(), t_end=0.3, dt=1e-3)
    traj = integrate(scenario)
    r = bench_spectra.r
    e, _ = traj.e_and_z()
    # e = ((I - 1 r^T) (x) I) x and (r^T (x) I) e = 0 at every sample
    weighted = np.einsum("j,tjk->tk", r, e)
    assert np.max(np.abs(weighted)) < 1e-9
    mean = np.einsum("j,tjk->tk", r, traj.states)
    assert_allclose(e, traj.states - mean[:, None, :], atol=1e-12)
    assert np.all(traj.v_lyap >= 0)


def test_error_dynamics_consistency(bench_model, bench_graph,
                                    consensus_design, bench_spectra):
    """Projecting the state derivative equals the error-coordinate form."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, 4))
    r = bench_spectra.r
    proj = np.eye(6) - np.outer(np.ones(6), r)
    e = proj @ x
    dx = closed_loop(consensus_design)(x)
    lap = analyze(bench_graph).laplacian
    coupling = bench_model.b @ consensus_design.k
    fx = apply(bench_model.f, x, 4)
    de = (e @ bench_model.a.T
          + consensus_design.c * (lap @ e) @ coupling.T
          + proj @ fx @ bench_model.d1.T)
    assert_allclose(proj @ dx, de, atol=1e-10)


def test_identical_initial_states_zero_error(consensus_design):
    x0 = np.tile([0.2, -0.4, 0.6, 0.0], (6, 1))
    scenario = Scenario(design=consensus_design, x0=x0, t_end=0.2, dt=1e-3)
    traj = integrate(scenario)
    e, z = traj.e_and_z()
    assert np.max(np.abs(e)) < 1e-12
    assert np.max(np.abs(z)) < 1e-12
    assert np.max(traj.v_lyap) < 1e-24


def energy_trajectory(samples, agents, z, w):
    """A run at rest on [0, 1] whose agents each carry the constant scalar
    output z and disturbance w."""
    times = np.linspace(0.0, 1.0, samples)
    return Trajectory(times=times, states=np.zeros((samples, agents, 1)),
                      ref=np.zeros((samples, 1)), c_out=np.zeros((1, 1)),
                      v_lyap=np.zeros(samples), j_running=np.zeros(samples),
                      z_sq=np.full(samples, agents * z ** 2),
                      w_sq=np.full(samples, agents * w ** 2))


def test_assess_cost_pure_disturbance():
    traj = energy_trajectory(101, 2, z=0.0, w=1.0)
    run = assess(traj, gamma=2.0)
    assert run.j == pytest.approx(-4.0 * 2.0, rel=1e-12)
    assert run.empirical_gain == pytest.approx(0.0, abs=1e-12)


def test_assess_gain_undefined_without_disturbance():
    traj = energy_trajectory(11, 1, z=1.0, w=0.0)
    run = assess(traj, gamma=2.0)
    assert run.empirical_gain is None
    # with no disturbance J is the output energy, int_0^1 1 dt
    assert run.j == pytest.approx(1.0, rel=1e-12)


def test_assess_cost_sign_flips_with_gamma():
    traj = energy_trajectory(101, 1, z=0.5, w=1.0)
    assert assess(traj, gamma=2.0).j < 0
    assert assess(traj, gamma=1e-3).j > 0


def test_assess_without_gamma_sets_no_cost():
    traj = energy_trajectory(11, 2, z=1.0, w=1.0)
    run = assess(traj)
    assert run.j is None
    assert run.empirical_gain is None


def test_running_cost_matches_batch_quadrature(hinf_design):
    traj = integrate(bench_scenario(hinf_design, t_end=0.5))
    run = assess(traj, benchmark.GAMMA)
    assert traj.j_running[-1] == pytest.approx(run.j, rel=1e-9)


def test_lyapunov_zero_on_manifold(consensus_design):
    x0 = np.tile([0.5, 0.1, -0.3, 0.2], (6, 1))
    scenario = Scenario(design=consensus_design, x0=x0, t_end=0.1, dt=1e-3)
    traj = integrate(scenario)
    assert assess(traj).v0 == pytest.approx(0.0, abs=1e-24)
    # V never leaves numerical zero; the per-step tolerance 1e-10 V(0)
    # degenerates here, so increase counts are not meaningful
    assert np.max(traj.v_lyap) < 1e-24
    assert np.diff(traj.v_lyap).max() < 1e-24


def test_lyapunov_decreases_on_benchmark(consensus_design):
    scenario = Scenario(design=consensus_design,
                        x0=benchmark.initial_states(), t_end=1.0, dt=1e-3)
    run = assess(integrate(scenario))
    assert run.v0 > 0
    assert run.v_increases == 0
    assert run.v_fraction_increasing == 0.0


def test_lyapunov_flags_weakened_coupling():
    # c far below the threshold on an unstable model: the sufficient
    # condition fails and V grows
    model = scalar_model(a=1.0)
    g = two_node_graph()
    design = witness_design(model, g, p=1.0, scalar=4.0, c=0.05)
    scenario = Scenario(
        design=design, x0=np.array([[1.0], [-1.0]]), t_end=1.0, dt=1e-3)
    traj = integrate(scenario)
    assert assess(traj).v_fraction_increasing > 0.5
    assert np.diff(traj.v_lyap).max() > 0


def test_lyapunov_leader_follower_weights():
    model = scalar_model()
    g = path_graph()
    design = synthesize(model, g, "leader-follower", cert=([[1.0]], 1.0))
    scenario = Scenario(design=design, x0=np.array([[1.0], [0.0], [-1.0]]),
                        t_end=2.0, dt=1e-3)
    traj = integrate(scenario)
    run = assess(traj)
    assert run.v0 > 0
    assert run.v_increases == 0
    # tracking errors are offsets from the leader state, the reference a
    # view of its row
    assert np.shares_memory(traj.ref, traj.states)
    assert_allclose(traj.e_and_z()[0], traj.states - traj.states[:, 0:1, :],
                    atol=0.0)


def test_lyapunov_tracking_weights_follow_g():
    # unstable scalar agent at c equal to the threshold s / (lambda1(H) min q)
    # = 12 on a leader-rooted tree: V weighted by G = diag(1/q) must not
    # increase, while weighting by q itself does on this start
    model = AgentModel(a=[[0.5]], b=[[1.0]], d1=[[0.0]])
    g = DiGraph.from_edges(5, [(1, 2), (2, 3), (2, 4), (2, 5)])
    design = synthesize(model, g, "leader-follower", cert=([[1.0]], 3.0))
    assert design.c == pytest.approx(12.0, rel=1e-12)
    assert_allclose(design.analysis.weights, [0.0, 1.0, 0.5, 0.5, 0.5],
                    atol=1e-12)
    scenario = Scenario(
        design=design, x0=np.array([[0.0], [2.0], [1.0], [1.0], [1.0]]),
        t_end=5.0, dt=1e-3)
    assert assess(integrate(scenario)).v_increases == 0


def test_max_pairwise_distance():
    states = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    assert max_pairwise_distance(states) == pytest.approx(5.0, abs=1e-12)


def test_write_csv_layout(tmp_path):
    model = scalar_model()
    g = two_node_graph()
    design = witness_design(model, g)
    scenario = Scenario(
        design=design, x0=np.array([[1.0], [0.0]]), t_end=0.01, dt=1e-3)
    traj = integrate(scenario)
    path = tmp_path / "traj.csv"
    write_csv(traj, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1_1", "x2_1", "e1_1", "e2_1",
                       "z1_1", "z2_1", "V", "J_running"]
    assert len(rows) == 1 + traj.times.size
    first = np.array(rows[1], dtype=float)
    assert first[0] == 0.0
    assert_allclose(first[1:3], traj.states[0].ravel(), atol=1e-10)


def test_write_csv_decimation(tmp_path):
    model = scalar_model()
    g = two_node_graph()
    design = witness_design(model, g)
    scenario = Scenario(design=design, x0=np.ones((2, 1)), t_end=0.1, dt=1e-3)
    traj = integrate(scenario)
    path = tmp_path / "traj.csv"
    write_csv(traj, path, decimation=10)
    with open(path) as fh:
        n_rows = sum(1 for _ in fh)
    assert n_rows == 1 + int(np.ceil(traj.times.size / 10))
    with pytest.raises(ValueError):
        write_csv(traj, path, decimation=0)


@pytest.mark.parametrize("decimation, named", [
    (2.5, "decimation is 2.5, not a whole number >= 1"),
    (0, "decimation is 0, not a whole number >= 1"),
    (math.nan, "decimation is nan, not a whole number >= 1"),
    (True, "decimation is true, not a number"),
    ("3", 'decimation is "3", not a number')])
def test_write_csv_rejects_a_decimation_before_the_file(tmp_path, decimation,
                                                        named):
    """A decimation that is no whole number >= 1 is a ValueError before
    the CSV is created; a whole float and a numpy integer are taken."""
    traj = special_trajectory(25)
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        write_csv(traj, tmp_path / "traj.csv", decimation=decimation)
    assert os.listdir(tmp_path) == []
    for whole in (10.0, np.int64(10)):
        write_csv(traj, tmp_path / "traj.csv", decimation=whole)
        assert (tmp_path / "traj.csv").read_text().count("\n") == 1 + 3


# 0.0, -0.0, subnormals, the extremes of the exponent range, integers, and
# values whose 12th significant digit rounds up (a carry into a new decade
# included) or down
CSV_VALUES = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308 / 3,
              1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308,
              3.0, -7.0, 123456789012.0, 1e15, -4503599627370497.0,
              0.1234567890125, 1.99999999999950, 9.9999999999995,
              -9.9999999999995e-5, 0.1, 2.0 / 3.0]


def special_trajectory(steps: int) -> Trajectory:
    """A 2-agent, 2-state, 1-output trajectory of steps samples whose
    stored entries are drawn from CSV_VALUES. Its reference is zero, so
    e = x exactly, and C = [1, 0], so z is the first state component."""
    rng = np.random.default_rng(steps)

    def fill(*shape):
        idx = rng.integers(0, len(CSV_VALUES), size=shape)
        return np.array(CSV_VALUES)[idx]
    return Trajectory(times=fill(steps), states=fill(steps, 2, 2),
                      ref=np.zeros((steps, 2)), c_out=np.array([[1.0, 0.0]]),
                      v_lyap=fill(steps), j_running=fill(steps),
                      z_sq=np.zeros(steps), w_sq=np.zeros(steps))


def bit_patterns(a):
    return set(np.asarray(a, dtype=float).view(np.int64).ravel().tolist())


def test_special_values_reach_every_column():
    """Every CSV_VALUES entry reaches the x and e columns, and every one
    but -0.0 the z columns: a sum of products starts from +0.0, so no
    output is -0.0."""
    traj = special_trajectory(2 * sim.CSV_BLOCK_ROWS * 10 + 3)
    e, z = traj.e_and_z()
    assert e.tobytes() == traj.states.tobytes()
    assert bit_patterns(e) == bit_patterns(CSV_VALUES)
    assert bit_patterns(z) == bit_patterns(CSV_VALUES) - bit_patterns(-0.0)


def savetxt_reference(traj, path, decimation, e, z):
    """The trajectory CSV as one np.savetxt call over the whole table,
    with the errors e and outputs z of the whole run."""
    t = traj.times[::decimation]
    cols = [t[:, None]]
    header = ["t"]
    for name, arr in (("x", traj.states), ("e", e), ("z", z)):
        cols.append(arr[::decimation].reshape(t.size, -1))
        header += [f"{name}{i + 1}_{k + 1}" for i in range(arr.shape[1])
                   for k in range(arr.shape[2])]
    cols += [traj.v_lyap[::decimation, None],
             traj.j_running[::decimation, None]]
    np.savetxt(path, np.column_stack(cols), fmt="%.12g", delimiter=",",
               header=",".join(header + ["V", "J_running"]), comments="")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_children_returns_each_outcome(monkeypatch):
    """The forked tasks' values, the exceptions they raise with their
    attributes, and a ChildProcessError for a child that ends without
    reporting, in fork order, on two CPUs: on one, the SIGKILL task would
    run in this process."""
    def blow_up():
        raise BlowUpError("too large", last_valid_time=0.25)

    monkeypatch.setattr(sim, "_cpu_count", lambda: 2)
    children = sim._Children()
    try:
        for task in [lambda: np.arange(3.0), blow_up, lambda: os._exit(3),
                     lambda: os.kill(os.getpid(), signal.SIGKILL)]:
            children.fork(task)
        outcomes = children.reap()
    finally:
        children.kill()
    assert outcomes[0].tolist() == [0.0, 1.0, 2.0]
    assert isinstance(outcomes[1], BlowUpError)
    assert (str(outcomes[1]), outcomes[1].last_valid_time) == \
        ("too large", 0.25)
    assert [str(e) for e in outcomes[2:]] == [
        "a forked process ended with status 3",
        "a forked process was killed by signal SIGKILL"]
    assert all(isinstance(e, ChildProcessError) for e in outcomes[2:])
    assert_no_child_left()


def test_children_run_each_task_in_process_on_one_cpu(monkeypatch):
    """With one usable CPU, read when the helper is built, fork runs each
    task in this process and forks nothing: reap gives the values and the
    exceptions raised, with their attributes, in fork order, and kill
    signals nothing and leaves them as they are."""
    def no_process(*args):
        raise AssertionError("started or signalled a process")

    def blow_up():
        raise BlowUpError("too large", last_valid_time=0.25)

    monkeypatch.setattr(sim, "_cpu_count", lambda: 1)
    children = sim._Children()
    monkeypatch.setattr(sim, "_cpu_count", lambda: 2)
    for name in ("fork", "kill", "waitpid"):
        monkeypatch.setattr(os, name, no_process)
    for task in [lambda: np.arange(3.0), blow_up, lambda: "last"]:
        children.fork(task)
    outcomes = children.reap()
    assert outcomes[0].tolist() == [0.0, 1.0, 2.0]
    assert isinstance(outcomes[1], BlowUpError)
    assert (str(outcomes[1]), outcomes[1].last_valid_time) == \
        ("too large", 0.25)
    assert outcomes[2] == "last"
    children.kill()
    assert children.reap() is outcomes and len(outcomes) == 3
    assert not children.running


def running(pid: int) -> bool:
    """Whether process pid exists and is not a zombie (Linux)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_children_child_ends_when_its_parent_is_killed(tmp_path):
    """A child whose parent was killed ends once it has a result to send,
    rather than blocking on a pipe that no process reads."""
    pid_file = tmp_path / "child.pid"
    script = f"""if True:
        import os, signal, time
        import numpy as np
        from consyn import sim

        def task():
            open({str(pid_file)!r}, "w").write(str(os.getpid()))
            time.sleep(0.5)
            return np.zeros(10 ** 6)

        def die():
            while not os.path.exists({str(pid_file)!r}):
                time.sleep(0.01)
            os.kill(os.getpid(), signal.SIGKILL)

        sim._cpu_count = lambda: 2
        sim._Children().fork(task)
        die()
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(sim.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == -signal.SIGKILL
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 30
    while running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not running(pid)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("decimation", [1, 10])
@pytest.mark.parametrize("steps", [1, 2, 7, 2 * sim.CSV_BLOCK_ROWS * 10 + 3])
def test_write_csv_matches_savetxt_bytes(tmp_path, monkeypatch, cpus,
                                         decimation, steps):
    """Byte for byte the np.savetxt table, on one, two and three CPUs, for
    row counts below, at and across the CPU count and the block size."""
    monkeypatch.setattr(sim, "_cpu_count", lambda: cpus)
    traj = special_trajectory(steps)
    out_dir, ref_dir = tmp_path / "out", tmp_path / "ref"
    out_dir.mkdir()
    ref_dir.mkdir()
    write_csv(traj, out_dir / "traj.csv", decimation=decimation)
    savetxt_reference(traj, ref_dir / "traj.csv", decimation,
                      traj.states, traj.states @ traj.c_out.T)
    assert (out_dir / "traj.csv").read_bytes() == \
        (ref_dir / "traj.csv").read_bytes()
    assert os.listdir(out_dir) == ["traj.csv"]
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("decimation", [1, 10])
def test_csv_with_inf_and_nan_rows_matches_savetxt_bytes(
        tmp_path, monkeypatch, cpus, decimation):
    """A hand-built trajectory (integrate raises before a non-finite
    state) with inf, -inf and NaN in a tenth of its rows: write_csv, and a
    CsvWriter whose children take its rows a chunk at a time, give the
    np.savetxt bytes. They sit in t, V, J_running and both state
    components: C = [1, 0] carries the first to z, and meets the second's
    inf with a 0, which makes z NaN, as in the table, with no warning."""
    monkeypatch.setattr(sim, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(sim, "CSV_FORK_VALUES", 400)
    steps = 2 * BLOCK * 10 + 3
    traj = special_trajectory(steps)
    rng = np.random.default_rng(steps)
    rows = rng.random(steps) < 0.1
    for column in (traj.times, traj.states[:, :, 0], traj.states[:, :, 1],
                   traj.v_lyap, traj.j_running):
        column[rows] = rng.choice([np.inf, -np.inf, np.nan],
                                  column[rows].shape)
    write_csv(traj, tmp_path / "out.csv", decimation)
    with sim.CsvWriter(tmp_path / "streamed.csv", decimation) as csv:
        for stop in range(BLOCK, steps, BLOCK):
            csv(traj, stop)
        csv.finish(traj)
    savetxt_reference(traj, tmp_path / "ref.csv", decimation,
                      *traj.e_and_z())
    want = (tmp_path / "ref.csv").read_bytes()
    assert want.count(b"inf") and want.count(b"nan")
    assert (tmp_path / "out.csv").read_bytes() == want
    assert (tmp_path / "streamed.csv").read_bytes() == want
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "ref.csv",
                                            "streamed.csv"]
    assert_no_child_left()


def fail_in(where: str, how: str, monkeypatch):
    """Make writing the CSV fail in the calling process's own rows
    ("parent": sim._write_rows there), in the forked workers ("child":
    sim._write_rows there) or in its appending of the workers' files
    ("append"), by raising OSError or RuntimeError, or by the worker
    killing itself. Return the writing that then fails, given the CSV's
    path: write_csv, which forks no worker, for "parent", and for the
    others a streamed run whose workers take one-row batches."""
    error = {"oserror": OSError, "error": RuntimeError, "kill": None}[how]

    def fail(*args):
        if how == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        raise error("no room")
    if where != "parent":
        in_children(monkeypatch, fail if where == "child" else sim._write_rows)
        if where == "append":
            monkeypatch.setattr(sim.shutil, "copyfileobj", fail)
        return streamed_run
    parent, write_rows = os.getpid(), sim._write_rows
    monkeypatch.setattr(sim, "_write_rows", lambda *args: fail() if
                        os.getpid() == parent else write_rows(*args))
    monkeypatch.setattr(sim, "_cpu_count", lambda: 3)
    return lambda path: write_csv(special_trajectory(50), path)


@pytest.mark.parametrize("where, how", [
    ("child", "oserror"), ("child", "error"), ("child", "kill"),
    ("parent", "oserror"), ("append", "oserror"),
])
def test_write_csv_failure_names_the_path(tmp_path, monkeypatch, where, how):
    """A worker, or the calling process, that cannot write its rows raises
    OSError naming the CSV, and leaves no child and no temporary file."""
    write = fail_in(where, how, monkeypatch)
    path = tmp_path / "traj.csv"
    with pytest.raises(OSError, match=re.escape(str(path))):
        write(path)
    assert os.listdir(tmp_path) == ["traj.csv"]
    assert_no_child_left()


@pytest.mark.parametrize("where", ["parent", "append"])
def test_write_csv_other_error_cleans_up(tmp_path, monkeypatch, where):
    """An error that is not an OSError in the calling process propagates
    as itself, after the workers are reaped and their files deleted."""
    write = fail_in(where, "error", monkeypatch)
    with pytest.raises(RuntimeError, match="no room"):
        write(tmp_path / "traj.csv")
    assert os.listdir(tmp_path) == ["traj.csv"]
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_csv_without_streamed_rows_forks_no_child(tmp_path, monkeypatch,
                                                  cpus):
    """write_csv, and a CsvWriter whose run handed no child a batch, write
    every row in the calling process on any CPU count: with forking made
    to fail, both still give the np.savetxt bytes."""
    def no_fork(children, task):
        raise AssertionError("forked a child")
    monkeypatch.setattr(sim, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(sim._Children, "fork", no_fork)
    runs = {"finished": special_trajectory(2 * BLOCK * 10 + 3)}
    write_csv(runs["finished"], tmp_path / "finished.csv")

    def take(csv, traj, stop):
        runs["streamed"] = traj
        csv(traj, stop)
    streamed_run(tmp_path / "streamed.csv", take)
    for name, traj in runs.items():
        savetxt_reference(traj, tmp_path / f"{name}-ref.csv", 1,
                          *traj.e_and_z())
        assert (tmp_path / f"{name}.csv").read_bytes() == \
            (tmp_path / f"{name}-ref.csv").read_bytes()


def streamed_run(path, on_rows=None):
    """Integrate a two-agent run of 3 chunks and 17 samples while a
    CsvWriter at path takes its rows: on_rows(csv, traj, stop) when given,
    in place of the writer."""
    design = witness_design(scalar_model(), two_node_graph())
    scenario = Scenario(design=design, x0=np.array([[1.0], [-1.0]]),
                        t_end=(3 * BLOCK + 17) * 1e-3, dt=1e-3)
    with sim.CsvWriter(path) as csv:
        take = csv if on_rows is None else functools.partial(on_rows, csv)
        csv.finish(integrate(scenario, take))


def in_children(monkeypatch, rows):
    """Replace sim._write_rows by rows(*args) in forked children only, and
    let the writer hand out one-row batches to two of them at a time."""
    parent, write_rows = os.getpid(), sim._write_rows

    def flaky_rows(*args):
        if os.getpid() == parent:
            return write_rows(*args)
        return rows(*args)
    monkeypatch.setattr(sim, "_write_rows", flaky_rows)
    monkeypatch.setattr(sim, "_cpu_count", lambda: 3)
    monkeypatch.setattr(sim, "CSV_FORK_VALUES", 1)


def test_streamed_worker_failure_names_the_csv(tmp_path, monkeypatch):
    """A child that cannot write the rows it took during the run makes
    finish raise OSError naming the CSV and the first failed rows, after
    every child is reaped and every part file deleted; the CSV keeps its
    header."""
    def no_room(*args):
        raise OSError("no room")
    in_children(monkeypatch, no_room)
    path = tmp_path / "traj.csv"
    with pytest.raises(OSError) as exc:
        streamed_run(path)
    assert str(exc.value) == (f"cannot write {path}: the process formatting "
                              "rows 1-1 failed: no room")
    assert os.listdir(tmp_path) == ["traj.csv"]
    assert path.read_text() == "t,x1_1,x2_1,e1_1,e2_1,z1_1,z2_1,V,J_running\n"
    assert_no_child_left()


def test_interrupted_run_leaves_no_child_and_no_file(tmp_path, monkeypatch):
    """A KeyboardInterrupt during integration, while two children still
    format the rows they took, kills and reaps them at once and removes
    their part file and the CSV."""
    in_children(monkeypatch, lambda *args: time.sleep(60))

    def interrupt(csv, traj, stop):
        csv(traj, stop)
        if stop > BLOCK:
            assert len(list(tmp_path.glob("*.part"))) == 2
            raise KeyboardInterrupt
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        streamed_run(tmp_path / "traj.csv", interrupt)
    assert time.monotonic() - start < 30
    assert os.listdir(tmp_path) == []
    assert_no_child_left()
