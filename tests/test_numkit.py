import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from consyn import (
    as_matrix,
    laplacian,
    solve_linear,
    sym_eigvals,
)
from consyn import benchmark


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf]])


def test_as_matrix_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        as_matrix([])
    with pytest.raises(ValueError, match="empty"):
        as_matrix(np.zeros((2, 0)))


def test_as_matrix_promotes_vector_to_row():
    m = as_matrix([1.0, 2.0, 3.0])
    assert m.shape == (1, 3)


def test_sym_eig_diagonal():
    assert_allclose(sym_eigvals([[3.0, 0.0], [0.0, 2.0]]), [2.0, 3.0],
                    atol=1e-14)


def test_sym_eig_2x2_closed_form():
    values = sym_eigvals([[1.0, -0.25], [-0.25, 0.5]])
    tr, det = 1.5, 1.0 * 0.5 - 0.25 ** 2
    lo = (tr - math.sqrt(tr ** 2 - 4 * det)) / 2
    hi = (tr + math.sqrt(tr ** 2 - 4 * det)) / 2
    assert_allclose(values, [lo, hi], atol=1e-12)


def test_sym_eig_benchmark_symmetrized_laplacian(bench_graph):
    ls = laplacian(bench_graph)
    values = sym_eigvals((ls + ls.T) / 2)
    assert abs(values[0]) < 1e-12
    assert_allclose(values[1], benchmark.REFERENCE_LAMBDA2, atol=1e-3)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym_eigvals([[0.0, 1.0], [0.0, 0.0]])


def test_sym_eig_rejects_nonsquare():
    with pytest.raises(ValueError):
        sym_eigvals(np.zeros((2, 3)))


@given(st.integers(0, 10_000), st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_sym_eig_eigenpair_residuals(seed, n):
    """Ascending, each value makes S - lambda I singular, and they sum to
    the trace."""
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((n, n))
    s = (s + s.T) / 2
    values = sym_eigvals(s)
    scale = 1e-9 * max(np.linalg.norm(s), 1.0)
    assert np.all(np.diff(values) >= 0)
    for lam in values:
        sigma_min = np.linalg.svd(s - lam * np.eye(n), compute_uv=False)[-1]
        assert sigma_min <= scale
    assert abs(values.sum() - np.trace(s)) <= scale


def test_solve_linear_identity():
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert_allclose(solve_linear(np.eye(2), b), b, atol=0.0)


def test_solve_linear_forward_substitution():
    a = np.array([[1.0, 0.0], [-1.0, 1.0]])
    x = solve_linear(a, np.array([1.0, 1.0]))
    assert_allclose(np.ravel(x), [1.0, 2.0], atol=1e-14)


def test_solve_linear_reproduces_reference_gain():
    x = solve_linear(benchmark.REFERENCE_P, benchmark.manipulator_model().b)
    k = -0.5 * x.T
    assert np.max(np.abs(k - benchmark.REFERENCE_GAIN)) < 5e-3


def test_solve_linear_singular_reports_condition():
    with pytest.raises(Exception) as exc:
        solve_linear([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0])
    assert "cond" in str(exc.value).lower()


@given(st.integers(0, 10_000), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_solve_linear_residual_bound(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    b = rng.standard_normal((n, 2))
    x = solve_linear(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-9 * max(np.linalg.norm(b), 1.0)

