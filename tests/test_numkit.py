import io
import math
import re
import struct
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from consyn import (
    analyze,
    as_matrix,
    solve_linear,
    sym_eigvals,
)
from consyn import benchmark, numkit
from consyn.numkit import format_g12


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf]])


def test_as_numbers_names_the_first_entry_that_is_not_a_number():
    # a bool is an int, and np.bool_ an array's element, but neither a number
    for value, named in [
            ([[1.0, True]], "entry (1, 2) of m is true, not a number"),
            (np.array([[1, 0], [0, 1]], dtype=bool),
             'entry (1, 1) of m is "np.True_", not a number'),
            ((1.0, [2.0, None]), "entry (2, 2) of m is null, not a number"),
            ("1.0", 'm is "1.0", not a number')]:
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            numkit.as_numbers(value, "m")
    for value, named in [(False, "s is false"), ([1.0], "s is [1.0]")]:
        with pytest.raises(ValueError, match=re.escape(named)):
            numkit.as_numbers(value, "s", scalar=True)
    # numbers of any numeric type, arrays of them among them, are floats
    rows = [np.array([1, 2]), [np.int64(3), np.float32(4.0)]]
    assert numkit.as_numbers(rows, "m").tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert numkit.as_numbers(np.int64(7), "s", scalar=True) == 7.0
    # a float array passes whole, with its bits
    x = np.array([[0.1, -2.5e-300]])
    assert numkit.as_numbers(x, "m") is x
    with pytest.raises(ValueError, match="beyond the float range"):
        numkit.as_numbers([[10 ** 400]], "m")


def test_as_matrix_rejects_a_bool():
    with pytest.raises(ValueError, match="entry \\(1, 1\\) of a is true"):
        as_matrix([[True]], "a")
    with pytest.raises(ValueError, match="not a number"):
        as_matrix(np.ones((2, 2), dtype=bool), "a")


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
    ls = analyze(bench_graph).laplacian
    values = sym_eigvals((ls + ls.T) / 2)
    assert abs(values[0]) < 1e-12
    assert_allclose(values[1], benchmark.REFERENCE_LAMBDA2, atol=1e-3)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym_eigvals([[0.0, 1.0], [0.0, 0.0]])
    # m - m^T would overflow: the check must still see the asymmetry
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eigvals([[0.0, 1.7e308], [-1.7e308, 0.0]])


def test_sym_eig_near_the_float_range():
    """Entries whose squares, and whose sum with their transpose, overflow
    give exact eigenvalues and no warning."""
    assert sym_eigvals([[1e300]])[0] == 1e300
    assert_allclose(sym_eigvals([[1.7e308, 0.0], [0.0, -1.7e308]]),
                    [-1.7e308, 1.7e308], rtol=1e-15)


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


def test_solve_linear_rejects_bad_shapes():
    with pytest.raises(ValueError,
                       match=r"^a must be square, got shape \(1, 2\)$"):
        solve_linear([[1.0, 2.0]], [1.0])
    with pytest.raises(ValueError,
                       match=r"^shape mismatch: a \(2, 2\), b \(3,\)$"):
        solve_linear(np.eye(2), np.ones(3))


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



def float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def step_ulps(x: float, steps: int) -> float:
    """The float steps places from the positive x in bit order."""
    return float_of_bits(struct.unpack("<Q", struct.pack("<d", x))[0] + steps)


def signed(values):
    return st.tuples(values, st.booleans()).map(lambda v: -v[0] if v[1] else v[0])


# 13-digit decimals ending in 5, at decimal exponents -300..300: the float
# nearest lies within about 1e-4 of a tie at the 12th digit
NEAR_TIES = signed(st.builds(lambda d, k: float(f"{d}5e{k - 12}"),
                             st.integers(10 ** 11, 10 ** 12 - 1),
                             st.integers(-300, 300)))
G12_VALUES = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(float_of_bits).filter(math.isfinite),
    NEAR_TIES,
    # powers of ten and their neighbours, subnormal to the largest
    signed(st.builds(lambda k, s: step_ulps(float(f"1e{k}"), s),
                     st.integers(-323, 308), st.integers(-1, 1))),
    # where %.12g switches between %f and %e notation
    signed(st.builds(step_ulps, st.sampled_from([1e-5, 1e-4, 1e11, 1e12]),
                     st.integers(-4, 4))),
    # subnormals and zeros
    signed(st.integers(0, 2 ** 52 - 1).map(float_of_bits)),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)


def percent_g12(block) -> bytes:
    """The rows of block as "%.12g" values joined by ",", one row a line."""
    return "".join(",".join("%.12g" % x for x in row) + "\n"
                   for row in block.tolist()).encode("ascii")


def percent_g12_taken(block):
    """format_g12 of block, and the values its "%.12g" fallback took."""
    with mock.patch.object(numkit, "_percent_g12",
                           wraps=numkit._percent_g12) as fallback:
        text = format_g12(block)
    return text, [v for c in fallback.call_args_list for v in c.args[0]]


@given(block=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                     max_side=12),
                        elements=G12_VALUES))
@settings(max_examples=300, deadline=None)
def test_format_g12_is_percent_g12(block):
    assert format_g12(block) == percent_g12(block)
    # the same values laid out column by column
    assert format_g12(np.asfortranarray(block)) == percent_g12(block)


def test_format_g12_tables_are_uint64():
    """The digit and mask words stay uint64 under numpy 1.x, which casts
    a Python int and a uint64 to float64, as under numpy 2; the index
    tables are intp and the powers of ten float64."""
    for table in (numkit._TAIL, numkit._QUAD, numkit._QUAD32, numkit._HEAD,
                  numkit._STAY_LO, numkit._STAY_HI, numkit._MOVE_LO,
                  numkit._MOVE_HI, numkit._DOT_LO, numkit._DOT_HI):
        assert table.dtype == np.uint64
    for table in (numkit._BIN_K, numkit._POINT13, numkit._LEFT):
        assert table.dtype == np.intp
    for table in (numkit._BIN_AFTER, numkit._SCALE):
        assert table.dtype == np.float64


def test_format_g12_binade_exponents():
    """Each fast binade [2^e, 2^(e + 1)) lies in [10^k, 10^(k + 2)) for its
    table's k, with 10^(k + 1) the power to compare with; any other binade
    is scaled wholly below 1e11. Negative x index the same k, offset."""
    for e in range(-1023, 1024):
        index = numkit._BIN_K[e + 1023]
        assert numkit._BIN_K[e + 1023 - 2048] == index + numkit._NEG
        k = int(index) + numkit.G12_E0
        low, high = Fraction(2) ** e, Fraction(2) ** (e + 1)
        if -numkit.G12_E2 <= e < numkit.G12_E2:
            assert Fraction(10) ** k <= low and high < Fraction(10) ** (k + 2)
            assert numkit._BIN_AFTER[e + 1023] == float(f"1e{k + 1}")
        else:
            assert numkit._BIN_AFTER[e + 1023] == math.inf
            assert high * Fraction(10) ** (11 - k) < 1e11


def test_format_g12_at_the_binade_edges():
    """The first and last floats of every binade, and their neighbours,
    inside the fast range and outside it."""
    edges = [step_ulps(2.0 ** e, s) for e in range(-1022, 1024)
             for s in (-1, 0, 1)]
    edges += [5e-324, 2.0 ** -1022 - 5e-324, 1.7976931348623157e308]
    block = np.array(edges + [-v for v in edges]).reshape(-1, 6)
    text, taken = percent_g12_taken(block)
    assert text == percent_g12(block)
    # those outside the fast binades take "%.12g", as near-ties inside do
    fast = 2.0 ** -numkit.G12_E2, 2.0 ** numkit.G12_E2
    assert {v for v in edges if not fast[0] <= v < fast[1]} <= set(taken)


@given(ties=st.lists(NEAR_TIES, min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_format_g12_settles_near_ties_by_percent_g12(ties):
    """Every near-tie, inf and NaN takes the "%.12g" fallback, the others
    none."""
    fallback = ties + [math.inf, -math.inf, math.nan]
    block = np.array([fallback, [1.5] * len(fallback)])
    text, taken = percent_g12_taken(block)
    assert text == percent_g12(block)
    assert sorted(map(repr, taken)) == sorted(map(repr, fallback))


@pytest.mark.parametrize("shape", [(700, 13), (3, 5000), (4096, 1)])
def test_format_g12_in_several_passes(shape):
    """Blocks of more than one pass: rows split between passes, rows of
    more values than a pass, and a pass of whole rows."""
    rng = np.random.default_rng(shape[1])
    block = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, shape)
    block[rng.random(shape) < 0.05] = 0.0
    assert format_g12(block) == percent_g12(block)


def test_format_g12_with_short_mantissas():
    """Mantissas whose last four digits are 0 (zeros, a time column, short
    decimals) are formatted on their own subset; the carry of 999999999999.5
    to 1e12 and values outside the fast binades take the "%.12g" fallback,
    zeros not, and a block with none of them takes no fallback."""
    short = np.array([[0.0, -0.0, 0.5, 1.0, -2.25, 10.0, 1e11, 1e12],
                      [999999999999.5, -999999999999.5, 99999999.99995, 1e-5,
                       12345678.0, 0.001, 1e22, -7e-300]])
    text, taken = percent_g12_taken(short)
    assert text == percent_g12(short)
    assert taken == [999999999999.5, -999999999999.5, 99999999.99995,
                     -7e-300]
    none = np.array([[1.0 / 3.0, -2.0 / 3.0, 123456789.012345, 1e-7 / 3.0]])
    assert not any(("%.11e" % x)[9:13] == "0000" for x in none.ravel())
    assert percent_g12_taken(none) == (percent_g12(none), [])


def test_format_g12_signed_zeros_and_carries_across_passes():
    """Zeros of both signs and the 999999999999.5 carry, scattered over a
    block of several passes, in the rows of each."""
    rng = np.random.default_rng(7)
    block = rng.normal(size=(600, 21))
    for value in (0.0, -0.0, 999999999999.5, -9.999999999995e-5):
        block[rng.random(block.shape) < 0.02] = value
    assert format_g12(block) == percent_g12(block)


def test_format_g12_seeded_sweep():
    """About 200k mixed values: bit patterns, scaled normals, decimals
    rounded to a few digits, near-ties, zeros and subnormals."""
    rng = np.random.default_rng(20260)
    n = 25_000
    bits = rng.integers(-2 ** 63, 2 ** 63 - 1, n, dtype=np.int64)
    parts = [
        bits.view(np.float64)[np.isfinite(bits.view(np.float64))],
        rng.normal(size=n) * 10.0 ** rng.integers(-30, 31, n),
        np.round(rng.normal(size=n) * 1e4) / 10.0 ** rng.integers(0, 6, n),
        rng.integers(-10 ** 6, 10 ** 6, n) / 2.0 ** rng.integers(0, 12, n),
        (rng.integers(10 ** 11, 10 ** 12, n) * 10 + 5)
        * 10.0 ** rng.integers(-40, 40, n) / 1e12,
        rng.uniform(-1.0, 1.0, n) * 1e-310,
        np.where(rng.random(n) < 0.5, 0.0, -0.0),
        rng.uniform(-1e3, 1e3, n),
    ]
    values = np.concatenate(parts)
    rng.shuffle(values)
    block = values[:values.size // 16 * 16].reshape(-1, 16)
    assert block.size > 190_000
    assert format_g12(block) == percent_g12(block)


def test_format_g12_with_inf_or_nan_is_savetxt():
    block = np.array([[1.0, np.inf, -0.0], [np.nan, -np.inf, 2.0 / 3.0],
                      [1e300, 5e-324, 123456789012.5]])
    text = io.BytesIO()
    np.savetxt(text, block, fmt="%.12g", delimiter=",")
    assert format_g12(block) == text.getvalue()
    assert format_g12(block[2:]) == percent_g12(block[2:])
