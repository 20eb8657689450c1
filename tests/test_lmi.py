import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from consyn import (AgentModel, LmiCertificate, Nonlinearity, assemble, solve,
                    verify)
from consyn import benchmark
from consyn.lmi import (MAX_LADDER, LmiKind, LmiProblem,
                        _barrier_derivatives, _center, _margin_and_req,
                        _Stacker)

from conftest import scalar_model


def witness_cert(p, scalar, problem):
    m = assemble(problem, p, scalar)
    margin = -float(np.linalg.eigvalsh(m)[-1])
    return LmiCertificate(p=np.atleast_2d(np.asarray(p, dtype=float)),
                          scalar=scalar, margin=margin, feasible=margin > 0)


def test_assemble_scalar_consensus():
    problem = LmiProblem(LmiKind.CONSENSUS, scalar_model())
    m = assemble(problem, [[1.0]], 1.0)
    assert_allclose(m, [[-3.0, 1.0], [1.0, -1.0]], atol=0.0)


def test_assemble_zero_model_block_structure():
    model = AgentModel(a=np.zeros((2, 2)), b=np.zeros((2, 1)),
                       d1=np.zeros((2, 2)))
    problem = LmiProblem(LmiKind.CONSENSUS, model)
    m = assemble(problem, np.eye(2), 0.0)
    expected = np.block([[np.zeros((2, 2)), np.eye(2)],
                         [np.eye(2), -np.eye(2)]])
    assert_allclose(m, expected, atol=0.0)


def test_assemble_hinf_shape_and_reference_margin(bench_model):
    problem = LmiProblem(LmiKind.HINF, bench_model, gamma=benchmark.GAMMA)
    m = assemble(problem, benchmark.REFERENCE_P, benchmark.REFERENCE_EPSILON)
    n = bench_model.n
    m1 = bench_model.d2.shape[1]
    m2 = bench_model.c_out.shape[0]
    assert m.shape == (2 * n + m2 + m1, 2 * n + m2 + m1)
    assert_allclose(m, m.T, atol=0.0)
    # printed certificate entries are rounded; accept strict feasibility or
    # a violation small next to the block norm
    top = float(np.linalg.eigvalsh(m)[-1])
    assert top < 0 or abs(top) < 1e-2 * np.linalg.norm(m, "fro")


def test_assemble_rejects_wrong_p_shape(bench_model):
    problem = LmiProblem(LmiKind.CONSENSUS, bench_model)
    with pytest.raises(ValueError):
        assemble(problem, np.eye(3), 1.0)


def test_problem_requires_gamma_for_hinf(bench_model):
    with pytest.raises(ValueError):
        LmiProblem(LmiKind.HINF, bench_model)
    with pytest.raises(ValueError):
        LmiProblem(LmiKind.HINF, bench_model, gamma=-1.0)
    # gamma^2 would overflow the float range
    with pytest.raises(ValueError, match="gamma <= 1e\\+12"):
        LmiProblem(LmiKind.HINF, bench_model, gamma=1e300)


def test_assemble_overflow_is_a_value_error():
    problem = LmiProblem(LmiKind.CONSENSUS, scalar_model())
    with pytest.raises(ValueError, match="overflows"):
        assemble(problem, [[1.7e308]], 1.0)


def test_verify_accepts_hand_witness():
    problem = LmiProblem(LmiKind.CONSENSUS, scalar_model())
    report = verify(problem, witness_cert([[1.0]], 1.0, problem))
    assert report.passed
    assert report.p_margin == pytest.approx(1.0)
    assert report.scalar_value == pytest.approx(1.0)
    assert report.lmi_margin > 0


def test_verify_rejects_zero_p():
    problem = LmiProblem(LmiKind.CONSENSUS, scalar_model())
    report = verify(problem, witness_cert([[0.0]], 1.0, problem))
    assert not report.passed
    assert report.p_margin <= 0


def test_verify_rejects_negative_scalar():
    problem = LmiProblem(LmiKind.CONSENSUS, scalar_model())
    report = verify(problem, witness_cert([[1.0]], -1.0, problem))
    assert not report.passed


def test_verify_rejects_margin_under_rounding_floor():
    # block [[-s, p], [p, -1]]: its top eigenvalue -s + p^2 is -9.99e-18,
    # positive as a margin but far under 2 eps ||M||_2 = 4.4e-16
    problem = LmiProblem(LmiKind.CONSENSUS, scalar_model(a=0.0, d1=0.0))
    cert = witness_cert([[1e-10]], 1e-17, problem)
    report = verify(problem, cert)
    assert 0 < report.lmi_margin < report.lmi_floor
    assert report.lmi_floor == pytest.approx(2 * np.finfo(float).eps)
    assert report.p_margin > report.p_floor
    assert not report.passed


def test_solve_scalar_feasible():
    problem = LmiProblem(LmiKind.CONSENSUS, scalar_model())
    cert = solve(problem)
    assert cert.feasible
    assert cert.scalar > 0
    assert verify(problem, cert).passed
    margin, req = _margin_and_req(problem, cert.p, cert.scalar)
    assert margin >= req


def test_solve_uncontrollable_reports_infeasible_within_budget():
    # top-left block is 2p + 1, positive for every p > 0
    problem = LmiProblem(
        LmiKind.CONSENSUS, scalar_model(a=1.0, b=0.0, d1=1.0, alpha=1.0))
    cert = solve(problem)
    assert not cert.feasible
    assert cert.margin < 0
    trace = cert.trace
    assert trace.stop == "ladder_exhausted"
    assert len(trace.probes) == MAX_LADDER
    assert cert.scalar == trace.probes[-1].scalar
    assert all(np.isnan(r.margin) and r.newton_steps == 0
               for r in trace.probes)


def assert_chosen_probe_in_trace(cert):
    assert cert.trace.stop in ("descent_infeasible", "descent_budget")
    chosen = [r for r in cert.trace.probes if r.scalar == cert.scalar]
    assert len(chosen) == 1
    assert chosen[0].margin >= chosen[0].required and chosen[0].p_min > 0
    assert chosen[0].newton_steps > 0


def test_solve_benchmark_consensus_certificate(consensus_design):
    cert = consensus_design.cert
    problem = LmiProblem(LmiKind.CONSENSUS, benchmark.manipulator_model())
    assert cert.feasible
    report = verify(problem, cert)
    assert report.passed
    margin, req = _margin_and_req(problem, cert.p, cert.scalar)
    assert margin >= req
    assert_chosen_probe_in_trace(cert)


def test_solve_benchmark_hinf_certificate(hinf_design, bench_model):
    cert = hinf_design.cert
    problem = LmiProblem(LmiKind.HINF, bench_model, gamma=benchmark.GAMMA)
    assert cert.feasible
    assert verify(problem, cert).passed
    margin, req = _margin_and_req(problem, cert.p, cert.scalar)
    assert margin >= req
    assert_chosen_probe_in_trace(cert)


def test_solve_returns_widest_margin_when_no_probe_meets_the_rule():
    # the only rung with a centre, s = 15420, has margin 0.00766 against a
    # required 0.0448; solve still returns it, feasible, and it verifies
    model = AgentModel(a=[[2.6, 0.9], [2.8, -0.1]], b=[[0.1], [-1.7]],
                       d1=np.eye(2), alpha=0.7,
                       f=Nonlinearity.sine([(1, 0, 0.7)]))
    problem = LmiProblem(LmiKind.CONSENSUS, model)
    cert = solve(problem)
    centred = [r for r in cert.trace.probes if not np.isnan(r.margin)]
    assert [r.scalar for r in centred] == [15420.0]
    assert 0 < centred[0].margin < centred[0].required
    assert cert.scalar == 15420.0 and cert.feasible
    assert cert.margin == centred[0].margin
    assert verify(problem, cert).passed


def assert_same_solve(problem):
    a = solve(problem)
    b = solve(problem)
    assert np.array_equal(a.p, b.p)
    assert a.scalar == b.scalar
    assert a.margin == b.margin


def test_solve_is_deterministic():
    assert_same_solve(LmiProblem(LmiKind.CONSENSUS, scalar_model()))


def test_solve_is_deterministic_on_manipulator_hinf(bench_model):
    assert_same_solve(LmiProblem(LmiKind.HINF, bench_model, gamma=2.0))


def test_stacker_vech_order():
    # diagonal first, then the upper triangle row by row
    model = AgentModel(a=np.zeros((3, 3)), b=np.zeros((3, 1)),
                       d1=np.zeros((3, 1)))
    stacker = _Stacker(LmiProblem(LmiKind.CONSENSUS, model), 0.0)
    p = np.array([[1.0, 4.0, 5.0], [4.0, 2.0, 6.0], [5.0, 6.0, 3.0]])
    assert_allclose(stacker.vech(p), [1, 2, 3, 4, 5, 6], atol=0.0)
    assert_allclose(stacker.unvech(stacker.vech(p)), p, atol=0.0)


@pytest.mark.parametrize("kind", [LmiKind.CONSENSUS, LmiKind.HINF])
def test_stacker_at_matches_stack(kind, bench_model):
    problem = LmiProblem(kind, bench_model, gamma=benchmark.GAMMA)
    stacker = _Stacker(problem, 1e-3)
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = rng.standard_normal(len(stacker.rows))
        s = float(rng.uniform(0.0, 10.0))
        expected = stacker._stack(stacker.unvech(v), s)
        assert_allclose(stacker.at(v, s), expected, rtol=0.0,
                        atol=1e-14 * np.abs(expected).max())


def test_barrier_derivatives_match_central_difference(bench_model):
    problem = LmiProblem(LmiKind.HINF, bench_model, gamma=benchmark.GAMMA)
    stacker = _Stacker(problem, 1e-3)
    # the centre at s is strictly feasible at 3 s too, and not central there
    s = benchmark.REFERENCE_EPSILON
    p, _ = _center(stacker, s)
    v, s = stacker.vech(p), 3.0 * s
    grad, hess = _barrier_derivatives(stacker, v, s)

    def f(w):
        return -np.linalg.slogdet(-stacker.at(w, s))[1]

    # the point is 1e-2 from the boundary in p, so the truncation error
    # (O(h^2)) stays below the tolerances only for h ~ 1e-7
    h = 1e-7
    steps = h * np.eye(len(v))
    fd_grad = np.array([(f(v + e) - f(v - e)) / (2 * h) for e in steps])
    fd_hess = np.array([
        (_barrier_derivatives(stacker, v + e, s)[0]
         - _barrier_derivatives(stacker, v - e, s)[0]) / (2 * h)
        for e in steps])
    assert_allclose(grad, fd_grad, rtol=1e-4)
    assert_allclose(hess, fd_hess, rtol=0.0, atol=1e-6 * np.abs(hess).max())


def test_alpha_whose_square_underflows_solves_as_alpha_zero():
    # 1e-200 ** 2 is 0 and 1e-160 ** 2 a subnormal whose inverse
    # overflows, so the Riccati seed must not divide by either
    scalars = [solve(LmiProblem(LmiKind.CONSENSUS,
                                scalar_model(a=0.0, alpha=alpha))).scalar
               for alpha in (0.0, 1e-200, 1e-160)]
    assert scalars[0] == scalars[1] == scalars[2]


def test_center_is_none_on_uncontrollable_scalar_model():
    problem = LmiProblem(
        LmiKind.CONSENSUS, scalar_model(a=1.0, b=0.0, d1=1.0, alpha=1.0))
    stacker = _Stacker(problem, 1e-6)
    for s in (1.0, 1e3, 1e6):
        assert _center(stacker, s) is None


def test_solve_manipulator_scalars_are_pinned(consensus_design, hinf_design):
    # the benchmark's cert_scalar_geomean on repro is built from these two
    assert consensus_design.cert.scalar == pytest.approx(0.4834112599999999,
                                                         rel=1e-12)
    assert hinf_design.cert.scalar == pytest.approx(1.5286806281718477,
                                                    rel=1e-12)


@pytest.mark.parametrize("kind", [LmiKind.CONSENSUS, LmiKind.HINF])
def test_gain_is_stable_under_last_bit_perturbation(kind, bench_model):
    def gain(model):
        cert = solve(LmiProblem(kind, model, gamma=benchmark.GAMMA))
        return cert.scalar, -0.5 * np.linalg.solve(cert.p, model.b).T

    s_ref, k_ref = gain(bench_model)
    rng = np.random.default_rng(3)
    for _ in range(3):
        a = bench_model.a * (1.0 + 1e-15 * rng.standard_normal(
            bench_model.a.shape))
        s, k = gain(dataclasses.replace(bench_model, a=a))
        assert s == pytest.approx(s_ref, rel=1e-12)  # same rungs
        assert np.linalg.norm(k - k_ref) <= 1e-9 * np.linalg.norm(k_ref)


def test_schur_equivalence_on_random_instances():
    """Bordered block matrix is negative definite exactly when the
    unbordered quadratic form AP + PA^T - s BB^T + a^2 D1 D1^T + PP is."""
    rng = np.random.default_rng(42)
    n_feasible = n_infeasible = 0
    for _ in range(40):
        n = int(rng.integers(1, 4))
        a = rng.standard_normal((n, n)) - rng.uniform(0, 2) * np.eye(n)
        b = rng.standard_normal((n, 1))
        d1 = rng.standard_normal((n, n)) * 0.3
        alpha = float(rng.uniform(0, 0.5))
        basis = rng.standard_normal((n, n))
        p = basis @ basis.T + 0.1 * np.eye(n)
        s = float(rng.uniform(0.1, 5.0))
        model = AgentModel(a=a, b=b, d1=d1, alpha=alpha)
        problem = LmiProblem(LmiKind.CONSENSUS, model)
        quad = (a @ p + p @ a.T - s * (b @ b.T)
                + alpha ** 2 * (d1 @ d1.T) + p @ p)
        lam_quad = float(np.linalg.eigvalsh(quad)[-1])
        lam_block = float(np.linalg.eigvalsh(assemble(problem, p, s))[-1])
        if abs(lam_quad) < 1e-8 or abs(lam_block) < 1e-8:
            continue
        assert (lam_quad < 0) == (lam_block < 0)
        if lam_quad < 0:
            n_feasible += 1
        else:
            n_infeasible += 1
    assert n_feasible >= 3
    assert n_infeasible >= 3
