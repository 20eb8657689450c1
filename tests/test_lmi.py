import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import solve_continuous_are

from consyn import (AgentModel, InfeasibleError, LmiCertificate, Nonlinearity,
                    assemble, solve, verify)
from consyn import benchmark, lmi
from consyn.lmi import (MARGIN_REL, MAX_DESCENTS, MAX_LADDER, LmiKind,
                        LmiProblem, ProbeRecord, SolveTrace,
                        _barrier_derivatives, _care, _center, _line_search,
                        _seed, _Stacker)

from conftest import scalar_model


def center(stacker: _Stacker, scalar: float):
    """The centre solve takes at scalar, from the Riccati seed: (p, Newton
    steps), or None without a strictly feasible seed."""
    v = _seed(stacker, scalar)
    return None if v is None else _center(stacker, v, scalar)


def margin_and_req(problem: LmiProblem, p, scalar: float):
    """The margin of (p, scalar) and the rule's requirement of it,
    MARGIN_REL * (1 + ||assembled||_F)."""
    m = assemble(problem, p, scalar)
    return (-float(np.linalg.eigvalsh(m)[-1]),
            MARGIN_REL * (1.0 + float(np.linalg.norm(m, "fro"))))


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


@pytest.mark.parametrize("kind", [LmiKind.CONSENSUS, LmiKind.HINF])
def test_assemble_stack_is_each_p_bit_for_bit(kind, bench_model):
    problem = LmiProblem(kind, bench_model, gamma=benchmark.GAMMA)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, bench_model.n, bench_model.n))
    stack = np.concatenate([x @ x.transpose(0, 2, 1), x[:2]])
    m = assemble(problem, stack, 0.7)
    assert m.shape == (len(stack),) + assemble(problem, stack[0], 0.7).shape
    for block, p in zip(m, stack):
        # tobytes also tells -0.0 from 0.0
        assert block.tobytes() == assemble(problem, p, 0.7).tobytes()
    nested = assemble(problem, stack.reshape((2, 4) + stack.shape[1:]), 0.7)
    assert nested.tobytes() == m.tobytes()


@pytest.mark.parametrize("kind", [LmiKind.CONSENSUS, LmiKind.HINF])
def test_assemble_overflowing_member_of_a_stack_is_a_value_error(kind):
    model = AgentModel(a=[[-1.0]], b=[[1.0]], d1=[[1.0]], d2=[[1.0]],
                       c_out=[[1.0]])
    problem = LmiProblem(kind, model, gamma=2.0)
    with pytest.raises(ValueError, match="overflows"):
        assemble(problem, [[[1.0]], [[1.7e308]], [[2.0]]], 1.0)


def test_verify_accepts_hand_witness():
    problem = LmiProblem(LmiKind.CONSENSUS, scalar_model())
    report = verify(problem, witness_cert([[1.0]], 1.0, problem))
    assert report.passed
    assert report.p_margin == pytest.approx(1.0)
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
    margin, req = margin_and_req(problem, cert.p, cert.scalar)
    assert margin >= req


def test_solve_uncontrollable_reports_infeasible_within_budget():
    # top-left block is 2p + 1, positive for every p > 0
    problem = LmiProblem(
        LmiKind.CONSENSUS, scalar_model(a=1.0, b=0.0, d1=1.0, alpha=1.0))
    with pytest.raises(InfeasibleError, match="no rung") as info:
        solve(problem)
    trace = info.value.trace
    assert trace.stop == "ladder_exhausted"
    assert len(trace.probes) == MAX_LADDER
    assert f"up to {trace.probes[-1].scalar:.3e}," in str(info.value)
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
    margin, req = margin_and_req(problem, cert.p, cert.scalar)
    assert margin >= req
    assert_chosen_probe_in_trace(cert)


def test_solve_benchmark_hinf_certificate(hinf_design, bench_model):
    cert = hinf_design.cert
    problem = LmiProblem(LmiKind.HINF, bench_model, gamma=benchmark.GAMMA)
    assert cert.feasible
    assert verify(problem, cert).passed
    margin, req = margin_and_req(problem, cert.p, cert.scalar)
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
    assert_lazy_is_eager(problem)


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
    p, _ = center(stacker, s)
    v, s = stacker.vech(p), 3.0 * s
    grad, hess, _ = _barrier_derivatives(stacker, v, s)

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


def test_line_search_minimises_the_barrier_along_the_newton_step(bench_model):
    problem = LmiProblem(LmiKind.HINF, bench_model, gamma=benchmark.GAMMA)
    stacker = _Stacker(problem, 1e-3)
    s = benchmark.REFERENCE_EPSILON
    p, _ = center(stacker, s)
    v, s = stacker.vech(p), 3.0 * s
    grad, hess, flat = _barrier_derivatives(stacker, v, s)
    dv = -np.linalg.solve(hess, grad)
    damped = 1.0 / (1.0 + np.sqrt(-grad @ dv))
    mu = np.linalg.eigvalsh((dv @ flat).reshape(stacker.m_zero.shape))

    def f(t):
        return -np.linalg.slogdet(-stacker.at(v + t * dv, s))[1]

    # the eigenvalues alone give the barrier along the step
    for t in (0.5 * damped, damped, 0.5 / mu[-1]):
        assert f(t) - f(0.0) == pytest.approx(-np.log1p(-t * mu).sum(),
                                              rel=1e-8)
    t = _line_search(mu, damped)
    assert 0.0 < t < 1.0 / mu[-1]
    r = mu / (1.0 - t * mu)
    assert abs(r.sum()) <= 1e-4 * np.sqrt(r @ r)
    assert f(t) < f(damped)


def test_line_search_closed_form():
    # -log(1 + 2 t) - log(1 - t / 2) is smallest at t = 3/4
    assert _line_search(np.array([-2.0, 0.5]), 0.3) == pytest.approx(0.75)
    # no eigenvalue above zero: no bracket, the given step comes back
    assert _line_search(np.array([-2.0, 0.0]), 0.3) == 0.3


def riccati_seed(problem: LmiProblem, scalar: float):
    """The Riccati seed of _center, written out for alpha > 0."""
    m = problem.model
    cols = [m.b, m.d1]
    r = [np.full(m.b.shape[1], 1.0 / scalar),
         np.full(m.d1.shape[1], -1.0 / m.alpha ** 2)]
    q = 1.01 * np.eye(m.n)
    if problem.kind == LmiKind.HINF:
        cols.append(m.d2)
        r.append(np.full(m.d2.shape[1], -problem.gamma ** 2))
        q = q + m.c_out.T @ m.c_out
    p0 = np.linalg.inv(_care(m.a, np.hstack(cols), q, np.concatenate(r)))
    return (p0 + p0.T) / 2.0


def damped_center(stacker: _Stacker, v, scalar: float):
    """The centring before the exact line search, as the reference: damped
    Newton steps 1 / (1 + lambda) while lambda >= 1/4, full steps after,
    until lambda < 1e-7 or 60 steps, from the same strictly feasible v."""
    steps, derivs = 0, _barrier_derivatives(stacker, v, scalar)
    while steps < 60:
        grad, hess, _ = derivs
        try:
            dv = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        dec = float(np.sqrt(max(-grad @ dv, 0.0)))
        if not 1e-7 <= dec < np.inf:
            break
        v_next = v + (1.0 / (1.0 + dec) if dec >= 0.25 else 1.0) * dv
        derivs = _barrier_derivatives(stacker, v_next, scalar)
        if derivs is None:
            break
        v, steps = v_next, steps + 1
    return stacker.unvech(v), steps


def decrement(stacker: _Stacker, p, scalar: float) -> float:
    """Newton decrement of the barrier at p, as _center measures it; NaN
    where p is infeasible or the Hessian's condition number exceeds 1e14,
    where a Newton step has no correct digits to give."""
    derivs = _barrier_derivatives(stacker, stacker.vech(p), scalar)
    if derivs is None:
        return np.nan
    grad, hess, _ = derivs
    if not np.linalg.cond(hess) <= 1e14:
        return np.nan
    return float(np.sqrt(max(grad @ np.linalg.solve(hess, grad), 0.0)))


def random_problem(rng: np.random.Generator, n: int, hinf: bool):
    """A random n-state problem of either kind, with alpha > 0."""
    model = AgentModel(
        a=rng.standard_normal((n, n)),
        b=rng.standard_normal((n, int(rng.integers(1, n + 1)))),
        d1=0.3 * rng.standard_normal((n, 1)),
        alpha=float(rng.uniform(0.05, 0.5)),
        d2=rng.standard_normal((n, 1)) if hinf else None,
        c_out=rng.standard_normal((1, n)) if hinf else None)
    return LmiProblem(LmiKind.HINF if hinf else LmiKind.CONSENSUS, model,
                      gamma=float(rng.uniform(2.0, 10.0)))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.booleans())
@settings(max_examples=60, deadline=None)
def test_center_is_the_damped_reference_centre(seed, n, hinf):
    """On random problems with a Riccati seed at some scalar, _center
    returns a strictly feasible p with decrement below 1e-7, within 1e-6
    relative of where the damped iteration ends, in no more steps. Draws
    without a seed at any scalar tried are discarded (108 of 2,400 in a
    sweep), and so are those where the damped iteration does not converge
    or ends where the Hessian is numerically singular (4 of 2,400)."""
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, n, hinf)
    norm_a = max(1.0, float(np.linalg.norm(problem.model.a)))
    stacker = _Stacker(problem, 1e-6 * (1.0 + norm_a))
    centred = [(s, c) for s in 10.0 * norm_a ** 2 * 10.0 ** np.arange(-3, 4)
               if (c := center(stacker, s)) is not None]
    assume(centred)
    s, (p, steps) = centred[int(rng.integers(len(centred)))]
    p_ref, steps_ref = damped_center(
        stacker, stacker.vech(riccati_seed(problem, s)), s)
    assume(decrement(stacker, p_ref, s) < 1e-7)
    assert decrement(stacker, p, s) < 1e-7
    assert np.linalg.eigvalsh(p)[0] > 0
    assert np.linalg.norm(p - p_ref) <= 1e-6 * np.linalg.norm(p_ref)
    assert steps <= steps_ref


@pytest.mark.parametrize("kind, gamma", [
    (LmiKind.CONSENSUS, None), (LmiKind.HINF, benchmark.GAMMA),
    (LmiKind.HINF, 3.0)], ids=["consensus", "hinf-repro", "hinf-gamma-3"])
def test_solve_walks_the_damped_reference_ladder(bench_model, monkeypatch,
                                                 kind, gamma):
    problem = LmiProblem(kind, bench_model, gamma=gamma)
    cert = solve(problem)
    damped = []

    def patched(stacker, v, scalar):
        damped.append(scalar)
        return damped_center(stacker, v, scalar)
    monkeypatch.setattr(lmi, "_center", patched)
    ref = solve(problem)
    # the reference centred every probe solve centred, and no other
    centred = [[r.scalar for r in c.trace.probes if not np.isnan(r.margin)]
               for c in (cert, ref)]
    assert centred[0] and sorted(damped) == sorted(centred[1]) == \
        sorted(centred[0])
    assert [r.scalar for r in cert.trace.probes] == \
        [r.scalar for r in ref.trace.probes]
    assert cert.trace.stop == ref.trace.stop
    assert cert.scalar == ref.scalar
    assert np.linalg.norm(cert.p - ref.p) <= 1e-6 * np.linalg.norm(ref.p)
    steps = [sum(r.newton_steps for r in c.trace.probes) for c in (cert, ref)]
    assert steps[0] < steps[1] / 2


def eager_solve(problem: LmiProblem) -> LmiCertificate:
    """The reference: solve as it was when every feasible probe was centred
    as it was tried, and the smallest scalar whose margin meets the rule,
    refined once, or else the widest margin, was returned."""
    norm_a = max(1.0, float(np.linalg.norm(problem.model.a, "fro")))
    stacker = _Stacker(problem, 1e-6 * (1.0 + norm_a))
    records, points = [], {}

    def probe(s):
        p, steps = center(stacker, s) or (None, 0)
        margin = req = p_min = np.nan
        if p is not None:
            points[s] = p
            margin, req = margin_and_req(problem, p, s)
            p_min = float(np.linalg.eigvalsh(p)[0])
        records.append(ProbeRecord(s, p is not None, margin, req, p_min,
                                   steps))
        return p is not None

    def meets_rule(r):
        return r.margin >= r.required and r.p_min > 0

    s = 10.0 * norm_a ** 2
    while not probe(s):
        if len(records) >= MAX_LADDER:
            raise InfeasibleError(
                "", trace=SolveTrace(tuple(records), "ladder_exhausted"))
        s *= 10.0
    stop = "descent_budget"
    for _ in range(MAX_DESCENTS):
        s /= 10.0
        if not probe(s):
            stop = "descent_infeasible"
            break
    ok = [r for r in records if meets_rule(r)]
    if ok:
        chosen = min(ok, key=lambda r: r.scalar)
        if probe(chosen.scalar / np.sqrt(10.0)) and meets_rule(records[-1]):
            chosen = records[-1]
    else:
        chosen = records[int(np.nanargmax([r.margin for r in records]))]
    return LmiCertificate(points[chosen.scalar], float(chosen.scalar),
                          chosen.margin, chosen.margin > 0,
                          SolveTrace(tuple(records), stop))


def assert_lazy_is_eager(problem: LmiProblem):
    """solve and eager_solve give the same bits of p, the same scalar,
    margin and verdict, the same probes, feasibility and stop, and the same
    record at every probe that both centred; solve centres no probe the
    reference did not."""
    try:
        ref = eager_solve(problem)
    except InfeasibleError as exc:
        with pytest.raises(InfeasibleError) as info:
            solve(problem)
        lazy, ref = info.value.trace, exc.trace
    else:
        cert = solve(problem)
        assert np.array_equal(cert.p, ref.p)
        assert (cert.scalar, cert.margin, cert.feasible) == \
            (ref.scalar, ref.margin, ref.feasible)
        lazy, ref = cert.trace, ref.trace
    assert lazy.stop == ref.stop
    assert [(r.scalar, r.feasible) for r in lazy.probes] == \
        [(r.scalar, r.feasible) for r in ref.probes]
    for r, e in zip(lazy.probes, ref.probes):
        if not np.isnan(r.margin):
            assert r == e


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.booleans())
@settings(max_examples=60, deadline=None)
def test_lazy_solve_is_the_eager_solve(seed, n, hinf):
    """Centring only the rungs that can decide the certificate changes no
    bit of it, on random models of both kinds; the single-rung model of
    the widest-margin test checks the branch where no rung meets the rule."""
    assert_lazy_is_eager(random_problem(np.random.default_rng(seed), n,
                                        hinf))


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
        assert _seed(stacker, s) is None


def test_step_to_a_failing_point_ends_center_at_the_current_point(
        bench_model, monkeypatch):
    """A line-searched step whose point fails its factorisation ends the
    centring at the point it stands on, here the seed: no other length of
    the step is tried."""
    norm_a = float(np.linalg.norm(bench_model.a))
    stacker = _Stacker(LmiProblem(LmiKind.CONSENSUS, bench_model),
                       1e-6 * (1.0 + norm_a))
    points = []

    def seed_only(stacker, v, scalar):
        points.append(v)
        return _barrier_derivatives(stacker, v, scalar) \
            if len(points) == 1 else None
    monkeypatch.setattr(lmi, "_barrier_derivatives", seed_only)
    s = 10.0 * norm_a ** 2
    p, steps = _center(stacker, _seed(stacker, s), s)
    assert (steps, len(points)) == (0, 2)
    assert p.tobytes() == stacker.unvech(points[0]).tobytes()
    # the step was line-searched: the seed's decrement is at least 1/4
    grad, hess, _ = _barrier_derivatives(stacker, points[0], s)
    assert grad @ np.linalg.solve(hess, grad) >= 0.25 ** 2


@pytest.mark.parametrize("model, scalars", [
    # H has eigenvalues +-i: an undamped oscillator with no input
    (AgentModel(a=[[0.0, 1.0], [-1.0, 0.0]], b=[[0.0], [0.0]],
                d1=[[0.0], [0.0]]), (1.0, 1e3, 1e6)),
    # X ~ 2e41 solves the equation, and p = X^-1 is far below delta_p
    (AgentModel(a=[[-2.225073858507203e-309]], b=[[1.401298464324817e-45]],
                d1=[[0.0]]), tuple(10.0 ** k for k in range(1, 8))),
    # B R^-1 B^T underflows to zero, and H = [[0, 0], [-1.01, 0]]
    (AgentModel(a=[[0.0]], b=[[4.2e-279]], d1=[[0.0]]),
     tuple(10.0 ** k for k in range(1, 8))),
    # |det H| ~ 1e900 overflows as a product, and the fourth state, with no
    # input and a disturbance, puts +-1.005i in H
    (AgentModel(a=np.zeros((4, 4)), b=np.eye(4, 3), d1=np.eye(4)[:, 3:],
                alpha=1.0), (1e300,)),
], ids=["imaginary-axis", "subnormal-a", "underflowing-g", "overflowing-det"])
def test_center_gives_no_seed_and_no_warning(model, scalars):
    stacker = _Stacker(LmiProblem(LmiKind.CONSENSUS, model), 1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in scalars:
            assert _seed(stacker, s) is None


@pytest.mark.parametrize("a, b, r", [
    # H has eigenvalues +-i, and the first sign step is exactly zero
    (np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros((2, 1)), np.ones(1)),
    # H = [[1, 1], [-1.01, -1]] has eigenvalues +-0.1i; the sign steps
    # converge to a split that rounding made, whose X leaves a residual
    (np.eye(1), np.eye(1), -np.ones(1)),
], ids=["singular-step", "residual"])
def test_care_raises_without_a_stabilising_solution(a, b, r):
    with pytest.raises(np.linalg.LinAlgError):
        _care(a, b, 1.01 * np.eye(len(a)), r)


def test_care_scales_a_hamiltonian_whose_determinant_overflows():
    # |det H| = prod(a_i^2 + 1) ~ 1e901; each decoupled scalar equation
    # 2 a x - x^2 + 1 = 0 has the stabilising root x = a + sqrt(a^2 + 1)
    a = np.diag([1e150, 2e150, 3e150])
    x = _care(a, np.eye(3), np.eye(3), np.ones(3))
    expected = 2.0 * a
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.booleans())
@settings(max_examples=200, deadline=None)
def test_care_matches_scipy_where_well_conditioned(seed, n, hinf):
    """On random stabilisable (A, B) with Q = 1.01 I + C^T C and R > 0, or
    in the hinf form with one negative weight in R, _care agrees with
    scipy's Schur-based solver to 1e-8 relative wherever scipy's X is well
    conditioned: a residual below 1e-10 of Q, a closed loop stable by 1e-3
    of its norm, and cond(X) <= 1e8."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, int(rng.integers(1, n + 1))))
    r = np.full(b.shape[1], rng.uniform(0.1, 10.0))
    if hinf:
        b = np.hstack([b, rng.standard_normal((n, 1))])
        r = np.append(r, -rng.uniform(1.0, 100.0))
    c = rng.standard_normal((n, n))
    q = 1.01 * np.eye(n) + c.T @ c
    try:
        expected = solve_continuous_are(a, b, q, np.diag(r))
    except np.linalg.LinAlgError:
        assume(False)
    g = (b / r) @ b.T
    closed = a - g @ expected
    residual = a.T @ expected + expected @ a - expected @ g @ expected + q
    assume(np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(q))
    assume(np.linalg.eigvals(closed).real.max()
           <= -1e-3 * np.linalg.norm(closed))
    assume(np.linalg.cond(expected) <= 1e8)
    x = _care(a, b, q, r)
    assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)


# The probes of repro's two searches and of the design workload's
# manipulator case (hinf at gamma = 3), as the scipy-seeded solver found
# them: a change to the Riccati seed that moves a rung fails here.
CONSENSUS_PROBES = [48341.126, 4834.1126, 483.41126, 48.341126, 4.8341126,
                    0.48341126, 0.048341126, 0.15286806281718476]
HINF_PROBES = [48341.126, 4834.1126, 483.41126, 48.341126, 4.8341126,
               0.48341126, 1.5286806281718477]


# Which probes are feasible, and which of them are centred: the lowest
# feasible rung of the descent and the refine probe when it is feasible.
CONSENSUS_FEASIBLE = [True] * 6 + [False] * 2
HINF_FEASIBLE = [True] * 5 + [False, True]


@pytest.mark.parametrize("kind, gamma, scalars, feasible, centred", [
    (LmiKind.CONSENSUS, None, CONSENSUS_PROBES, CONSENSUS_FEASIBLE,
     [False] * 5 + [True] + [False] * 2),
    (LmiKind.HINF, benchmark.GAMMA, HINF_PROBES, HINF_FEASIBLE,
     [False] * 4 + [True, False, True]),
    (LmiKind.HINF, 3.0, HINF_PROBES, HINF_FEASIBLE,
     [False] * 4 + [True, False, True]),
], ids=["consensus", "hinf-repro", "hinf-gamma-3"])
def test_manipulator_ladders_are_pinned(bench_model, kind, gamma, scalars,
                                        feasible, centred):
    trace = solve(LmiProblem(kind, bench_model, gamma=gamma)).trace
    assert trace.stop == "descent_infeasible"
    assert [r.scalar for r in trace.probes] == pytest.approx(scalars,
                                                             rel=1e-12)
    assert [r.feasible for r in trace.probes] == feasible
    assert [not np.isnan(r.margin) for r in trace.probes] == centred
    assert all((r.newton_steps > 0) == c for r, c in zip(trace.probes,
                                                         centred))


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
