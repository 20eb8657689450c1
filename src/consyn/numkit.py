"""Dense real linear algebra helpers shared by the rest of the package,
and format_g12, the "%.12g" text of the trajectory CSV.

Matrices are plain float ndarrays. :func:`as_matrix` is the construction
boundary: everything that enters the package through a public call is
validated there (two-dimensional shape, finite entries).
Each numeric tolerance is a constant of the one module that reads it.
"""
from __future__ import annotations

import functools

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import PreconditionError

# The relative asymmetry sym_eigvals accepts, and the condition estimate and
# relative residual above which solve_linear refuses.
SYM_ASYM = 1e-12
COND_MAX = 1e12
SOLVE_RESID = 1e-9
# The largest magnitude a number of an agent model may have. The
# certificate search multiplies model numbers with each other, with the
# scalar it seeds at 10 ||A||_F^2 and ladders up to 1e6 times that, and
# squares the results in norms and barrier Hessians, so entries up to 1e12
# keep every product far inside the float range (about 1.8e308).
MODEL_MAX = 1e12


def as_matrix(a: ArrayLike, name: str = "matrix") -> NDArray[np.float64]:
    """Validate and return ``a`` as a 2-D float array.

    Raises ValueError for non-2-D or empty input or non-finite entries.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"{name} is empty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def check_model_numbers(m: ArrayLike, name: str) -> None:
    """Raise PreconditionError naming the first entry of m (1-based; m
    itself when it is a number) whose magnitude exceeds MODEL_MAX."""
    m = np.asarray(m, dtype=float)
    size = np.abs(m)
    if size.max() > MODEL_MAX:
        over = np.argwhere(size > MODEL_MAX)
        at = tuple(over[0])
        where = (f"entry ({', '.join(str(k + 1) for k in at)}) of {name}"
                 if at else name)
        raise PreconditionError(
            f"{where} is {m[at]:.6g}, beyond {MODEL_MAX:.0e}, the largest "
            "magnitude a model number may have")


def sym_eigvals(s: ArrayLike, name: str = "s") -> NDArray[np.float64]:
    """Ascending eigenvalues of a symmetric matrix; errors call it name.

    The input is symmetrized as (s + s^T)/2 after checking that the relative
    asymmetry does not exceed ``SYM_ASYM``. The values are read from
    ``eigh`` rather than ``eigvalsh``: the two differ in the last bits, and
    reports pin the ``eigh`` ones.
    """
    m = as_matrix(s, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    # The asymmetry ||m - m^T||_F relative to max(1, ||m||_F), from m
    # scaled to largest magnitude 1, so that no square overflows. Halves
    # before the sum, since m + m^T can overflow; halving a normal number
    # is exact, so the bits of (m + m^T)/2 are kept wherever it is normal.
    top = float(np.abs(m).max()) or 1.0
    unit = m / top
    size = float(np.linalg.norm(unit, "fro"))
    rel = float(np.linalg.norm(unit - unit.T, "fro")) / max(1.0 / top, size)
    if rel > SYM_ASYM:
        raise ValueError(
            f"{name} is not symmetric: relative asymmetry {rel:.3e}")
    sym = m / 2.0 + m.T / 2.0
    try:
        return np.linalg.eigh(sym)[0]
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(sym))
        raise np.linalg.LinAlgError(
            f"symmetric eigensolve did not converge "
            f"(norm {top * size:.3e}, cond estimate {cond:.3e})"
        ) from exc


def solve_linear(a: ArrayLike, b: ArrayLike) -> NDArray[np.float64]:
    """Solve a x = b for a square, well-conditioned a.

    Refuses matrices whose condition estimate exceeds ``COND_MAX`` and
    verifies the residual ||a x - b||_F <= SOLVE_RESID * ||b||_F.
    """
    am = as_matrix(a, "a")
    bm = np.asarray(b, dtype=float)
    b2 = bm.reshape(bm.shape[0], -1) if bm.ndim > 1 else bm.reshape(-1, 1)
    if am.shape[0] != am.shape[1]:
        raise ValueError(f"a must be square, got shape {am.shape}")
    if am.shape[1] != b2.shape[0]:
        raise ValueError(f"shape mismatch: a {am.shape}, b {bm.shape}")
    cond = float(np.linalg.cond(am))
    if not np.isfinite(cond) or cond > COND_MAX:
        raise np.linalg.LinAlgError(
            f"matrix is singular or ill conditioned (cond estimate {cond:.3e})"
        )
    x = np.linalg.solve(am, b2)
    resid = float(np.linalg.norm(am @ x - b2, "fro"))
    bnorm = float(np.linalg.norm(b2, "fro"))
    if resid > SOLVE_RESID * bnorm:
        raise np.linalg.LinAlgError(
            f"solve residual {resid:.3e} exceeds {SOLVE_RESID:.1e} * ||b|| "
            f"(cond estimate {cond:.3e})"
        )
    return x.reshape(bm.shape)


# format_g12 scales magnitudes in [G12_MIN, G12_MAX) by the powers
# float("1e%d") of its exponent table; others, subnormals among them, and
# those whose scaled 12-digit mantissa lies within G12_TIE of a
# half-integer (the scaling errs by less than 2.3e-4) it re-derives from
# "%.11e". It formats G12_PASS values a pass: its working arrays take about
# 265 bytes a value, which for a pass stay in the CPU caches.
# Its tables span the decimal exponents G12_E0..-G12_E0 - 1.
G12_MIN, G12_MAX, G12_TIE, G12_PASS = 1e-290, 1e290, 1e-3, 4096
G12_E0 = -330


def _ascii(*codes) -> NDArray[np.uint64]:
    """Words whose byte j, counted from the low end, is codes[j]. Only
    uint64 operands: numpy 1.x casts a Python int and a uint64 to float."""
    return functools.reduce(np.bitwise_or, (
        np.asarray(c, np.uint64) << np.uint64(8 * j)
        for j, c in enumerate(codes)))


def _words(texts, size: int) -> NDArray[np.uint64]:
    """Each text, NUL-padded to size bytes, as size // 8 words."""
    data = b"".join(t.ljust(size, b"\0") for t in texts)
    return np.frombuffer(data, "<u8").astype(np.uint64).reshape(-1, size // 8)


def _g12_tables() -> tuple:
    """The powers of ten and e-notation tails ("e+05", none in -4..11) of
    the exponents from G12_E0 on; the four digits of 0..9999 and their
    trailing zeros; the sign and "0.000" heads; the 16-byte masks of the
    first j bytes and "." at byte j, j <= 16 (none at 16)."""
    x = np.arange(G12_E0, -G12_E0)
    a, three = np.abs(x), np.abs(x) >= 100
    tail = _ascii(ord("e"), np.where(x < 0, 45, 43),
                  48 + a // 10 ** (1 + three) % 10, 48 + a // 10 ** three % 10,
                  three * (48 + a % 10))
    tail[-4 - G12_E0:12 - G12_E0] = 0
    d = 48 + np.arange(10)
    zeros = np.zeros(10000, dtype=np.intp)
    for j in range(1, 5):
        zeros[::10 ** j] += 1
    heads = [sign + b"0.000"[:z + 1] if z else sign
             for sign in (b"", b"-") for z in range(5)]
    pow10 = np.array([float(f"1e{k}") for k in range(G12_E0, -G12_E0)])
    quad = _ascii(d[:, None, None, None], d[:, None, None], d[:, None], d)
    return (pow10, tail, quad.ravel(), zeros, _words(heads, 8)[:, 0],
            *_words([b"\xff" * j for j in range(17)], 16).T,
            *_words([b"\0" * j + b"." for j in range(16)] + [b""], 16).T)


(_POW10, _TAIL, _QUAD, _ZEROS, _HEAD, _MASK_LO, _MASK_HI, _DOT_LO,
 _DOT_HI) = _g12_tables()


def format_g12(block: NDArray[np.float64]) -> bytes:
    """The rows of a 2-D float block as "%.12g" text, byte for byte:
    values joined by ",", each row ended by a newline.

    The decimal exponent k of |x| comes from its binary exponent and one
    comparison with a power of ten; |x| 10^(11 - k), rounded to an integer,
    gives the 12 digits, which are looked up four at a time, shorn of
    trailing zeros and given their point by shifts and masks on two 64-bit
    words. A value's text is laid out in 32 NUL-padded bytes (head, digits,
    exponent tail and separator), and the NULs are deleted. A value whose
    rounding the scaled product cannot settle takes "%.11e" (the rounding
    of "%.12g"); a block holding inf or NaN is formatted by "%" whole.
    """
    rows, cols = block.shape
    if not np.isfinite(block).all():
        row = ",".join(["%.12g"] * cols) + "\n"
        return ((row * rows) % tuple(block.ravel().tolist())).encode("ascii")
    sep = np.full(cols, ord(","), dtype=np.uint64)
    sep[-1] = ord("\n")
    sep <<= np.uint64(56)
    per = max(1, G12_PASS // cols)
    return b"".join(_format_pass(block[lo:lo + per], sep)
                    for lo in range(0, rows, per))


def _e11_digits(x: float) -> tuple[int, int]:
    """The 12 digits, as one integer, and the exponent of "%.11e" % x."""
    text = "%.11e" % x
    return int(text[0] + text[2:13]), int(text[14:])


def _format_pass(x: NDArray[np.float64], sep: NDArray[np.uint64]) -> bytes:
    """format_g12 of the finite rows x, whose columns end in sep."""
    ax = np.abs(x)
    zero, fast = ax == 0.0, (ax >= G12_MIN) & (ax < G12_MAX)
    # the others are formatted as 1.0, a zero's "1" then becoming "0"
    a = np.where(fast, ax, 1.0)
    # floor(log10 2^e2) for the binary exponent e2 of a, and its correction
    k = ((a.view(np.int64) >> 52) - 1023) * 78913 >> 18
    k += a >= _POW10[k + (1 - G12_E0)]
    scaled = a * _POW10[(11 - G12_E0) - k]
    m = np.floor(scaled)
    frac = scaled - m
    slow = ~(fast | zero) | (np.abs(frac - 0.5) < G12_TIE) | (m < 1e11) \
        | (m >= 1e12)
    m += frac > 0.5
    redo = np.nonzero(slow)
    if redo[0].size:
        m[redo], k[redo] = np.array([_e11_digits(v)
                                     for v in ax[redo].tolist()]).T
    carry = m == 1e12
    m[carry], k[carry] = 1e11, k[carry] + 1
    # the digits in three groups of four, by divisions exact below 2^53
    high = np.floor(m / 1e8)
    low = m - high * 1e8
    mid = np.floor(low / 1e4)
    g = [high.astype(np.intp), mid.astype(np.intp),
         (low - mid * 1e4).astype(np.intp)]
    sig = 12 - np.where(g[2] > 0, _ZEROS[g[2]],
                        np.where(g[1] > 0, 4 + _ZEROS[g[1]], 8 + _ZEROS[g[0]]))
    e_form = (k < -4) | (k > 11)
    point = np.where(e_form, 1, np.maximum(k + 1, 0))
    keep = np.maximum(sig, point)
    at = np.where((sig > point) & (point > 0), point, 16)
    lo = (_QUAD[g[0]] | _QUAD[g[1]] << np.uint64(32)) & _MASK_LO[keep]
    hi = _QUAD[g[2]] & _MASK_HI[keep]
    # the bytes from at on move one place up, and "." takes byte at
    lo_rest, hi_rest = lo & ~_MASK_LO[at], hi & ~_MASK_HI[at]
    words = np.empty(x.shape + (4,), dtype="<u8")
    words[..., 0] = _HEAD[5 * np.signbit(x)
                          + np.where(e_form, 0, np.clip(-k, 0, 4))]
    words[..., 1] = lo ^ lo_rest | lo_rest << np.uint64(8) | _DOT_LO[at]
    words[..., 2] = (hi ^ hi_rest | hi_rest << np.uint64(8)
                     | lo_rest >> np.uint64(56) | _DOT_HI[at])
    words[..., 3] = _TAIL[k - G12_E0] | sep
    words[zero, 1] = ord("0")
    return words.tobytes().translate(None, b"\0")
