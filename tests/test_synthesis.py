import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from consyn import (
    AgentModel,
    DesignMode,
    DiGraph,
    InfeasibleError,
    PreconditionError,
    assemble,
    inject_certificate,
    synthesize,
    verify,
)
from consyn import benchmark, lmi
from consyn.lmi import LmiKind, LmiProblem

from conftest import path_graph, scalar_model, star_graph, three_cycle, \
    two_node_graph

FAITHFUL_HINF_THRESHOLD = 36.448067376820456


def consensus_witness(model, p=1.0, scalar=1.0):
    problem = LmiProblem(LmiKind.CONSENSUS, model)
    return inject_certificate(problem, [[p]], scalar)


def test_leaderless_two_node_witness():
    model = scalar_model()
    design = synthesize(model, two_node_graph(), "leaderless",
                        cert=consensus_witness(model))
    assert design.mode == DesignMode.LEADERLESS
    assert_allclose(design.k, [[-0.5]], atol=1e-12)
    assert design.c_threshold == pytest.approx(0.5, abs=1e-12)
    assert design.c == design.c_threshold


def test_leaderless_three_cycle_witness():
    model = scalar_model()
    design = synthesize(model, three_cycle(), "leaderless",
                        cert=consensus_witness(model))
    assert design.c_threshold == pytest.approx(1.0 / 1.5, abs=1e-12)


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
    cert = consensus_witness(model)
    base = synthesize(model, two_node_graph(), "leaderless", cert=cert)
    wide = synthesize(model, two_node_graph(), "leaderless", cert=cert,
                      c_multiplier=2.0)
    assert wide.c_threshold == base.c_threshold
    assert wide.c == pytest.approx(2.0 * base.c, abs=1e-15)
    with pytest.raises(ValueError):
        synthesize(model, two_node_graph(), "leaderless", cert=cert,
                   c_multiplier=0.5)


def test_threshold_scales_with_certificate_scalar():
    model = scalar_model()
    g = two_node_graph()
    single = synthesize(model, g, "leaderless",
                        cert=consensus_witness(model, 1, 1))
    double = synthesize(model, g, "leaderless",
                        cert=consensus_witness(model, 1, 2))
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
    cert_cons = inject_certificate(
        LmiProblem(LmiKind.CONSENSUS, model), [[1.0]], 1.0)
    cert_hinf = inject_certificate(
        LmiProblem(LmiKind.HINF, model, gamma=2.0), [[1.0]], 1.0)
    lead = synthesize(model, bench_graph, "leaderless", cert=cert_cons)
    atten = synthesize(model, bench_graph, "hinf", gamma=2.0, cert=cert_hinf)
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
                        cert=consensus_witness(model))
    lam1 = (3.0 - math.sqrt(2.0)) / 4.0
    assert design.mode == DesignMode.LEADER_FOLLOWER
    assert design.leader == 1
    # q = (1, 2) on the followers, 0 at the leader
    assert_allclose(design.weights, [0.0, 1.0, 2.0], atol=1e-12)
    assert_allclose(design.c_threshold, 1.0 / lam1, atol=1e-9)
    assert design.c_threshold == pytest.approx(2.523, abs=1e-3)
    # followers of a path do not form a strongly connected subgraph
    assert design.c_threshold_simplified is None


def test_leader_follower_star_threshold_is_kappa():
    model = scalar_model()
    kappa = 1.0
    design = synthesize(model, star_graph(), "leader-follower",
                        cert=consensus_witness(model, 1, kappa))
    assert design.c_threshold == pytest.approx(kappa, abs=1e-12)


def test_leader_follower_simplified_threshold_agrees():
    g = DiGraph.from_edges(3, [(1, 2), (1, 3), (2, 3), (3, 2)])
    model = scalar_model()
    design = synthesize(model, g, "leader-follower",
                        cert=consensus_witness(model))
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
    with pytest.raises(InfeasibleError):
        synthesize(model, two_node_graph(), "leaderless")


def test_injected_certificate_must_verify():
    model = scalar_model(a=1.0, b=0.0, d1=1.0, alpha=1.0)
    problem = LmiProblem(LmiKind.CONSENSUS, model)
    bad = inject_certificate(problem, [[1.0]], 1.0)
    assert bad.margin < 0
    with pytest.raises(PreconditionError):
        synthesize(model, two_node_graph(), "leaderless", cert=bad)


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
    assert calls[0] is design.cert


def test_hinf_needs_gamma():
    with pytest.raises(PreconditionError, match="gamma"):
        synthesize(scalar_model(), two_node_graph(), "hinf")


def test_leaderless_weights_are_left_null_vector(bench_spectra,
                                                 consensus_design):
    assert consensus_design.leader is None
    assert np.array_equal(consensus_design.weights, bench_spectra.r)
