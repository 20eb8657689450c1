"""Dense real linear algebra helpers shared by the rest of the package,
and format_g12, the "%.12g" text of the trajectory CSV.

Matrices are plain float ndarrays. :func:`as_matrix` is the construction
boundary: everything that enters the package through a public call is
validated there (two-dimensional shape, finite entries).
Each numeric tolerance is a constant of the one module that reads it.
"""
from __future__ import annotations

import json
import numbers

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


def as_numbers(value, name: str, scalar: bool = False):
    """The number, or unless scalar the nested sequences of numbers, that
    value holds, as a float or a float ndarray. Any other entry, a bool
    among them (a bool is an int, and JSON's true and false load as bools),
    is a ValueError that names name and the entry's 1-based place in it."""
    todo = [((), value)]
    while todo:
        at, v = todo.pop()
        if scalar or not isinstance(v, (list, tuple, np.ndarray)):
            # np.bool_ is no Real
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                where = f"entry {at} of {name}" if at else name
                raise ValueError(f"{where} is {json.dumps(v, default=repr)}, "
                                 "not a number")
        # an array of numbers, or a list of plain ones, needs no deeper look
        elif not (v.dtype.kind in "iuf" if isinstance(v, np.ndarray)
                  else all(type(w) in (int, float) for w in v)):
            todo += reversed([((*at, k), w) for k, w in enumerate(v, 1)])
    try:
        return float(value) if scalar else np.asarray(value, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"{name} holds an integer beyond the float range") \
            from exc


def as_matrix(a: ArrayLike, name: str = "matrix") -> NDArray[np.float64]:
    """Validate and return ``a`` as a 2-D float array.

    Raises ValueError for an entry that is no number (see as_numbers),
    non-2-D or empty input, or non-finite entries."""
    m = as_numbers(a, name)
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


# format_g12 takes the decimal exponent k of a finite x, by its sign and
# binary exponent, from floor(log10 2^e) and the next power of ten in the
# binades of [2^-G12_E2, 2^G12_E2), about [1.6e-290, 7.9e289]. |x| 10^(11-k)
# is within 2.3e-4 of its exact value, so rounds as that does unless within
# G12_TIE of a half-integer. Those, carries to 1e12, other binades' (scaled
# below 1e11), inf and NaN take "%.12g" itself. A G12_PASS-value pass keeps
# its arrays (210 bytes a value) in the CPU caches. k spans G12_E0..-G12_E0-1.
G12_E2, G12_TIE, G12_PASS, G12_E0 = 963, 1e-3, 4096, -330
_NEG, _U8, _U56 = -2 * G12_E0, np.uint64(8), np.uint64(56)


def _words(texts, size: int) -> NDArray[np.uint64]:
    """Each text, NUL-padded to size bytes, as size // 8 words."""
    data = b"".join(t.ljust(size, b"\0") for t in texts)
    return np.frombuffer(data, "<u8").astype(np.uint64).reshape(-1, size // 8)


def _g12_tables() -> tuple:
    """By x.view(int64) >> 52: k's exponent index and 10^(k + 1). By that
    index: 10^(11 - k), the sign and "0.000" head, the "e+05" tail, 13 times
    the digits before the point. 0..9999 as four digits, also shifted 32
    bits, and how many of 12 digits they leave. By 13 point + digits left:
    the digit bytes that stay, those that move up past the point, the point."""
    x = np.arange(G12_E0, -G12_E0)
    tail = _words([b"e%+03d" % k if k < -4 or k > 11 else b""
                   for k in x.tolist()], 8)[:, 0]
    point = np.where((x < -4) | (x > 11), 1, np.maximum(x + 1, 0))
    z = np.where((x < 0) & (x > -5), -x, 0)
    heads = _words([sign + b"0.000"[:n + 1] if n else sign
                    for sign in (b"", b"-") for n in range(5)], 8)[:, 0]
    pow10 = np.array([float(f"1e{k}") for k in range(G12_E0, -G12_E0)])
    e2 = np.arange(2048) - 1023
    fast, low = (e2 >= -G12_E2) & (e2 < G12_E2), e2 * 78913 >> 18
    # other binades: k = 0 scales |x| below 1e-279, k = 311 into 7.9e-11..1.8e8
    k = np.where(fast, low, np.where(e2 < 0, 0, 311)) - G12_E0
    digits = [b"%04d" % i for i in range(10000)]
    quad = _words(digits, 8)[:, 0]
    p, s = np.divmod(np.arange(13 * 13), 13)
    keep = np.maximum(p, s).tolist()
    at = np.where((s > p) & (p > 0), p, 16).tolist()
    return (np.concatenate([k, k + _NEG]).astype(np.intp),
            np.tile(np.where(fast, pow10[low + 1 - G12_E0], np.inf), 2),
            np.tile(pow10[np.minimum(11 - x - G12_E0, x.size - 1)], 2),
            heads[np.concatenate([z, z + 5])],
            np.tile(tail, 2), np.tile(13 * point, 2).astype(np.intp), quad,
            quad << np.uint64(32),
            np.array([8 + len(d.rstrip(b"0")) for d in digits], np.intp),
            *(_words(texts, 16).T.copy() for texts in (
                [b"\xff" * min(c, n) for c, n in zip(at, keep)],
                [b"\0" * c + b"\xff" * (n - c) for c, n in zip(at, keep)],
                [(b"\0" * c + b".")[:16] for c in at])))


(_BIN_K, _BIN_AFTER, _SCALE, _HEAD, _TAIL, _POINT13, _QUAD, _QUAD32, _LEFT,
 (_STAY_LO, _STAY_HI), (_MOVE_LO, _MOVE_HI), (_DOT_LO, _DOT_HI)) = \
    _g12_tables()


def format_g12(block: NDArray[np.float64]) -> bytes:
    """The rows of a 2-D float block as "%.12g" text, byte for byte:
    values joined by ",", each row ended by a newline.

    Each value takes 32 NUL-padded bytes, whose NULs are then deleted: a
    head and tail by its exponent, and its 12 digits, looked up four at a
    time, cut after the last nonzero one and given their point by masks;
    or, where the tables cannot place it exactly, its "%.12g" text.
    """
    rows, cols = block.shape
    block, per = np.ascontiguousarray(block), max(1, G12_PASS // cols)
    sep = np.full((min(per, rows), cols), ord(",") << 56, dtype=np.uint64)
    sep[:, -1] = ord("\n") << 56
    return b"".join(_format_pass(block[lo:lo + per].ravel(), sep.ravel())
                    for lo in range(0, rows, per))


def _percent_g12(values: list) -> NDArray[np.uint64]:
    """Each value's "%.12g" text, NUL-padded to 24 bytes, as three words."""
    return _words([b"%.12g" % v for v in values], 24)


@np.errstate(invalid="ignore")
def _format_pass(x: NDArray[np.float64], sep: NDArray[np.uint64]) -> bytes:
    """format_g12 of the values x, whole rows, with their seps."""
    ax, e = np.abs(x), x.view(np.int64) >> 52
    kk = _BIN_K[e] + (ax >= _BIN_AFTER[e])
    scaled = ax * _SCALE[kk]
    m = np.rint(scaled)
    # inf and NaN fail the first test
    redo = np.flatnonzero(~(np.abs(scaled - m) <= 0.5 - G12_TIE)
                          | (m < 1e11) | (m >= 1e12))
    redo = redo[ax[redo] != 0.0]
    m[redo] = 0.0
    g2 = m.astype(np.intp)
    g0, g1 = g2 // 100000000, g2 // 10000
    g2 -= g1 * 10000
    g1 -= g0 * 10000
    left = _LEFT[g2]
    z = np.flatnonzero(g2 == 0)
    if z.size:
        # the digits left end in g1 or g0 (none of a zero)
        left[z] = np.where(g1[z] > 0, _LEFT[g1[z]] - 4, _LEFT[g0[z]] - 8)
    j = _POINT13[kk] + left
    lo, hi = _QUAD[g0] | _QUAD32[g1], _QUAD[g2]
    moved = lo & _MOVE_LO[j]
    words = np.empty((x.size, 4), dtype="<u8")
    words[:, 0] = _HEAD[kk]
    np.bitwise_or(lo & _STAY_LO[j] | _DOT_LO[j], moved << _U8,
                  out=words[:, 1])
    np.bitwise_or(hi & _STAY_HI[j] | _DOT_HI[j] | moved >> _U56,
                  (hi & _MOVE_HI[j]) << _U8, out=words[:, 2])
    np.bitwise_or(_TAIL[kk], sep[:x.size], out=words[:, 3])
    if redo.size:
        words[redo, :3] = _percent_g12(x[redo].tolist())
        words[redo, 3] = sep[redo]
    return words.tobytes().translate(None, b"\0")
