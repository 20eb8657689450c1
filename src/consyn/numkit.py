"""Dense real linear algebra helpers shared by the rest of the package.

Matrices are plain float ndarrays. :func:`as_matrix` is the construction
boundary: everything that enters the package through a public call is
validated there (two-dimensional shape, finite entries).
Each numeric tolerance is a constant of the one module that reads it.
"""
from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike, NDArray


# The relative asymmetry sym_eigvals accepts, and the condition estimate and
# relative residual above which solve_linear refuses.
SYM_ASYM = 1e-12
COND_MAX = 1e12
SOLVE_RESID = 1e-9


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


def sym_eigvals(s: ArrayLike) -> NDArray[np.float64]:
    """Ascending eigenvalues of a symmetric matrix.

    The input is symmetrized as (s + s^T)/2 after checking that the relative
    asymmetry does not exceed ``SYM_ASYM``. The values are read from
    ``eigh`` rather than ``eigvalsh``: the two differ in the last bits, and
    reports pin the ``eigh`` ones.
    """
    m = as_matrix(s, "s")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"s must be square, got shape {m.shape}")
    scale = max(1.0, float(np.linalg.norm(m, "fro")))
    asym = float(np.linalg.norm(m - m.T, "fro"))
    if asym > SYM_ASYM * scale:
        raise ValueError(
            f"s is not symmetric: relative asymmetry {asym / scale:.3e}"
        )
    sym = (m + m.T) / 2.0
    try:
        return np.linalg.eigh(sym)[0]
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(sym))
        raise np.linalg.LinAlgError(
            f"symmetric eigensolve did not converge "
            f"(norm {scale:.3e}, cond estimate {cond:.3e})"
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
