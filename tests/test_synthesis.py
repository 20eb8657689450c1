import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from consyn import (
    AgentModel,
    DesignMode,
    DiGraph,
    InfeasibleError,
    LmiCertificate,
    PreconditionError,
    Scenario,
    assemble,
    problem_for,
    synthesize,
    verify,
)
from consyn import benchmark, lmi
from consyn.lmi import LmiKind, LmiProblem

from conftest import path_graph, random_balanced_sc_digraph, scalar_model, \
    star_graph, three_cycle, two_node_graph

FAITHFUL_HINF_THRESHOLD = 36.448067376820456


def consensus_witness(p=1.0, scalar=1.0):
    return [[p]], scalar


def verify_pair(model, p, scalar):
    """lmi.verify's report on a (p, scalar) pair for the consensus kind."""
    cert = LmiCertificate(p=np.atleast_2d(np.asarray(p, dtype=float)),
                          scalar=scalar, margin=np.nan, feasible=False)
    return verify(LmiProblem(LmiKind.CONSENSUS, model), cert)


def test_leaderless_two_node_witness():
    model = scalar_model()
    design = synthesize(model, two_node_graph(), "leaderless",
                        cert=consensus_witness())
    assert design.mode == DesignMode.LEADERLESS
    assert_allclose(design.k, [[-0.5]], atol=1e-12)
    assert design.c_threshold == pytest.approx(0.5, abs=1e-12)
    assert design.c == design.c_threshold


def test_leaderless_three_cycle_witness():
    model = scalar_model()
    design = synthesize(model, three_cycle(), "leaderless",
                        cert=consensus_witness())
    assert design.c_threshold == pytest.approx(1.0 / 1.5, abs=1e-12)


def witness_design(mode="leaderless", cert=consensus_witness(), **kw):
    return synthesize(scalar_model(), two_node_graph(), mode, cert=cert, **kw)


def witness_run(**kw):
    return Scenario(witness_design(), np.zeros((2, 1)), **kw)


@pytest.mark.parametrize("call, named", [
    (lambda: witness_design(cert=([[1.0]], True)), "scalar is true"),
    (lambda: witness_design(cert=([[1.0]], "1.0")), 'scalar is "1.0"'),
    (lambda: witness_design("hinf", gamma=True), "gamma is true"),
    (lambda: witness_design("hinf", gamma="2"), 'gamma is "2"'),
    (lambda: witness_design(c_multiplier=True), "c_multiplier is true"),
    (lambda: witness_design(c_multiplier="2"), 'c_multiplier is "2"'),
    (lambda: witness_run(dt=True, t_end=1.0), "dt is true"),
    (lambda: witness_run(t_end=True), "t_end is true"),
], ids=["cert-scalar-true", "cert-scalar-string", "gamma-true",
        "gamma-string", "c-multiplier-true", "c-multiplier-string", "dt-true",
        "t-end-true"])
def test_library_scalars_are_numbers(call, named):
    """synthesize's gamma, c_multiplier and certificate scalar, and a
    Scenario's dt and t_end, refuse a bool or a string by name."""
    with pytest.raises(ValueError, match=f"^{re.escape(named)}, not a number$"):
        call()


def test_injected_reference_gain(injected_hinf_design):
    assert np.max(np.abs(injected_hinf_design.k
                         - benchmark.REFERENCE_GAIN)) < 5e-3


def test_injected_reference_threshold_full_precision(injected_hinf_design):
    # the certificate scalar over the full-precision lambda2; the rounded
    # published pair gives 36.4462, see the acceptance suite
    assert_allclose(injected_hinf_design.c_threshold,
                    FAITHFUL_HINF_THRESHOLD, atol=1e-6)


def test_gain_identity_on_solver_designs(consensus_design, hinf_design,
                                         bench_model):
    for design in (consensus_design, hinf_design):
        k_ref = -0.5 * bench_model.b.T @ np.linalg.inv(design.cert.p)
        scale = max(np.linalg.norm(k_ref), 1.0)
        assert np.linalg.norm(design.k - k_ref) <= 1e-9 * scale


def test_multiplier_inflates_c_only():
    model = scalar_model()
    cert = consensus_witness()
    base = synthesize(model, two_node_graph(), "leaderless", cert=cert)
    wide = synthesize(model, two_node_graph(), "leaderless", cert=cert,
                      c_multiplier=2.0)
    assert wide.c_threshold == base.c_threshold
    assert wide.c == pytest.approx(2.0 * base.c, abs=1e-15)
    with pytest.raises(ValueError):
        synthesize(model, two_node_graph(), "leaderless", cert=cert,
                   c_multiplier=0.5)


def test_infinite_coupling_is_a_precondition_error(bench_model, bench_graph):
    """A multiplier that takes the coupling past the float range is
    refused: the design would carry c = inf."""
    with pytest.raises(PreconditionError, match="overflows the coupling c"):
        synthesize(bench_model, bench_graph, "hinf", gamma=benchmark.GAMMA,
                   cert=(benchmark.REFERENCE_P, benchmark.REFERENCE_EPSILON),
                   c_multiplier=1e307)


def test_threshold_scales_with_certificate_scalar():
    model = scalar_model()
    g = two_node_graph()
    single = synthesize(model, g, "leaderless",
                        cert=consensus_witness(1, 1))
    double = synthesize(model, g, "leaderless",
                        cert=consensus_witness(1, 2))
    assert double.c_threshold == pytest.approx(2.0 * single.c_threshold,
                                               rel=1e-15)


def test_degenerate_hinf_spectrum_splits():
    # without disturbance inputs and outputs the attenuation block matrix
    # decouples into the consensus block plus -I and -gamma^2 I
    model = AgentModel(a=[[-1.0, 0.5], [0.0, -2.0]], b=[[1.0], [1.0]],
                       d1=np.zeros((2, 2)), d2=np.zeros((2, 1)),
                       c_out=np.zeros((1, 2)), alpha=0.0)
    gamma = 3.0
    p = np.array([[2.0, 0.3], [0.3, 1.0]])
    scalar = 1.7
    cons = assemble(LmiProblem(LmiKind.CONSENSUS, model), p, scalar)
    full = assemble(LmiProblem(LmiKind.HINF, model, gamma=gamma), p, scalar)
    expected = np.sort(np.concatenate([
        np.linalg.eigvalsh(cons), [-1.0, -gamma ** 2]]))
    assert_allclose(np.sort(np.linalg.eigvalsh(full)), expected, atol=1e-12)


def test_degenerate_hinf_threshold_matches_leaderless(bench_graph):
    model = AgentModel(a=[[-1.0]], b=[[1.0]], d1=[[1.0]],
                       d2=np.zeros((1, 1)), c_out=np.zeros((1, 1)))
    cert = ([[1.0]], 1.0)
    lead = synthesize(model, bench_graph, "leaderless", cert=cert)
    atten = synthesize(model, bench_graph, "hinf", gamma=2.0, cert=cert)
    # balanced graph: a(L) equals lambda2 of the symmetrized Laplacian
    assert atten.c_threshold == pytest.approx(lead.c_threshold, rel=1e-8)


def test_hinf_feasible_at_looser_gamma(bench_model, bench_graph,
                                       hinf_design):
    loose = synthesize(bench_model, bench_graph, "hinf", gamma=4.0)
    for design, gamma in ((hinf_design, 2.0), (loose, 4.0)):
        problem = LmiProblem(LmiKind.HINF, bench_model, gamma=gamma)
        assert design.cert.feasible
        assert verify(problem, design.cert).passed


def test_leader_follower_path_threshold():
    model = scalar_model()
    design = synthesize(model, path_graph(), "leader-follower",
                        cert=consensus_witness())
    lam1 = (3.0 - math.sqrt(2.0)) / 4.0
    assert design.mode == DesignMode.LEADER_FOLLOWER
    assert design.analysis.leader_follower.leader == 1
    # G = diag(1/q) with q = (1, 2) on the followers, 0 at the leader
    assert_allclose(design.analysis.weights, [0.0, 1.0, 0.5], atol=1e-12)
    assert_allclose(design.c_threshold, 1.0 / lam1, atol=1e-9)
    assert design.c_threshold == pytest.approx(2.523, abs=1e-3)
    # followers of a path do not form a strongly connected subgraph
    assert design.c_threshold_simplified is None


def test_leader_follower_star_threshold_is_kappa():
    model = scalar_model()
    kappa = 1.0
    design = synthesize(model, star_graph(), "leader-follower",
                        cert=consensus_witness(1, kappa))
    assert design.c_threshold == pytest.approx(kappa, abs=1e-12)


def test_leader_follower_simplified_threshold_agrees():
    g = DiGraph.from_edges(3, [(1, 2), (1, 3), (2, 3), (3, 2)])
    model = scalar_model()
    design = synthesize(model, g, "leader-follower",
                        cert=consensus_witness())
    assert design.c_threshold_simplified is not None
    # q = 1 makes G the identity, where both bounds coincide
    assert design.c_threshold_simplified == pytest.approx(
        design.c_threshold, rel=1e-12)


def test_closed_loop_quadratic_form(consensus_design, bench_model,
                                    bench_spectra):
    p = consensus_design.cert.p
    a, b, d1 = bench_model.a, bench_model.b, bench_model.d1
    form = (a @ p + p @ a.T + bench_model.alpha ** 2 * (d1 @ d1.T)
            + p @ p
            - consensus_design.c * bench_spectra.a_of_l * (b @ b.T))
    assert np.linalg.eigvalsh(form)[-1] < 0


def test_design_is_deterministic():
    model = scalar_model()
    g = two_node_graph()
    first = synthesize(model, g, "leaderless")
    second = synthesize(model, g, "leaderless")
    assert np.array_equal(first.k, second.k)
    assert first.c == second.c
    assert np.array_equal(first.cert.p, second.cert.p)


def test_leaderless_requires_strong_connectivity():
    model = scalar_model()
    with pytest.raises(PreconditionError, match="strongly connected"):
        synthesize(model, star_graph(), "leaderless")


def test_hinf_requires_balanced_graph():
    g = DiGraph.from_edges(3, [(1, 2), (2, 1), (2, 3), (3, 1)])
    model = scalar_model()
    with pytest.raises(PreconditionError, match="balanced"):
        synthesize(model, g, "hinf", gamma=2.0)


def test_infeasible_model_raises():
    model = scalar_model(a=1.0, b=0.0, d1=1.0, alpha=1.0)
    with pytest.raises(InfeasibleError, match="no rung") as info:
        synthesize(model, two_node_graph(), "leaderless")
    trace = info.value.trace
    assert trace.stop == "ladder_exhausted"
    assert f"up to {trace.probes[-1].scalar:.3e}," in str(info.value)


def test_injected_certificate_must_verify():
    model = scalar_model(a=1.0, b=0.0, d1=1.0, alpha=1.0)
    bad = consensus_witness()
    assert verify_pair(model, *bad).lmi_margin < 0
    with pytest.raises(PreconditionError):
        synthesize(model, two_node_graph(), "leaderless", cert=bad)


def test_injected_certificate_under_rounding_floor_is_rejected():
    # margin +9.99e-18 is positive, but it sits under the 4.4e-16 rounding
    # floor of its 2x2 block
    model = scalar_model(a=0.0, d1=0.0)
    cert = consensus_witness(p=1e-10, scalar=1e-17)
    report = verify_pair(model, *cert)
    assert 0 < report.lmi_margin < report.lmi_floor
    with pytest.raises(PreconditionError, match="rounding floor 4.4e-16"):
        synthesize(model, two_node_graph(), "leaderless", cert=cert)


def test_solver_certificate_is_reverified(monkeypatch):
    calls = []
    real_verify = lmi.verify

    def counting_verify(problem, cert, *args, **kwargs):
        calls.append(cert)
        return real_verify(problem, cert, *args, **kwargs)

    monkeypatch.setattr(lmi, "verify", counting_verify)
    model = scalar_model()
    design = synthesize(model, two_node_graph(), "leaderless")
    assert len(calls) == 1
    # the design holds a new certificate carrying the verified margin
    assert calls[0].p is design.cert.p


def test_solver_certificate_failing_verification_is_infeasible(monkeypatch):
    """A widest-margin certificate whose margin sits under the rounding
    floor ends the design in InfeasibleError with the solve's trace."""
    trace = lmi.SolveTrace((), "descent_budget")
    monkeypatch.setattr(lmi, "solve", lambda problem: LmiCertificate(
        p=np.array([[1e-10]]), scalar=1e-17, margin=9.99e-18, feasible=True,
        trace=trace))
    with pytest.raises(InfeasibleError,
                       match="solver certificate fails verification") as info:
        synthesize(scalar_model(a=0.0, d1=0.0), two_node_graph(),
                   "leaderless")
    assert info.value.trace is trace
    assert "scalar 1.000e-17" in str(info.value)


def test_hinf_needs_gamma():
    with pytest.raises(PreconditionError, match="gamma"):
        synthesize(scalar_model(), two_node_graph(), "hinf")


def test_leaderless_weights_are_left_null_vector(bench_spectra,
                                                 consensus_design):
    assert consensus_design.analysis.leader_follower is None
    assert np.array_equal(consensus_design.analysis.weights, bench_spectra.r)


def test_design_carries_the_graph_analysis(bench_spectra, bench_graph,
                                           consensus_design, hinf_design):
    for design in (consensus_design, hinf_design):
        analysis = design.analysis
        assert analysis.graph == bench_graph
        assert analysis.flags == bench_spectra.flags
        assert analysis.a_of_l == bench_spectra.a_of_l
        assert analysis.lambda2_sym == bench_spectra.lambda2_sym
    assert consensus_design.c_threshold == pytest.approx(
        consensus_design.cert.scalar / consensus_design.analysis.a_of_l,
        rel=1e-15)


@given(st.integers(0, 10_000), st.sampled_from(["leaderless", "hinf"]))
@settings(max_examples=20, deadline=None)
def test_design_margin_is_the_verified_margin(seed, mode):
    """A design reports the margin lmi.verify measures on its mode's
    inequality, and its (p, scalar) pair designs the same protocol again."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    r = rng.standard_normal((n, n))
    shift = np.linalg.eigvals(r).real.max() + rng.uniform(0.5, 2.0)
    model = AgentModel(a=r - shift * np.eye(n),
                       b=rng.standard_normal((n, 1)),
                       d1=0.3 * rng.standard_normal((n, n)),
                       d2=0.3 * rng.standard_normal((n, 1)),
                       c_out=0.3 * rng.standard_normal((1, n)),
                       alpha=float(rng.uniform(0.0, 0.3)))
    g = random_balanced_sc_digraph(rng)
    gamma = float(rng.uniform(2.0, 5.0))
    design = synthesize(model, g, mode, gamma)
    report = verify(problem_for(model, mode, gamma), design.cert)
    assert design.cert.margin == report.lmi_margin
    again = synthesize(model, g, mode, gamma,
                       cert=(design.cert.p, design.cert.scalar))
    assert np.array_equal(again.k, design.k)
    assert again.c_threshold == design.c_threshold
    assert again.cert.margin == design.cert.margin
    assert again.cert.trace is None
