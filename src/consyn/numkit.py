"""Dense real linear algebra helpers shared by the rest of the package.

Matrices are plain float ndarrays. :func:`as_matrix` and :func:`as_vector`
are the construction boundary: everything that enters the package through a
public call is validated there (two-dimensional shape, finite entries).
Tolerances used across modules live in one :class:`Tolerances` table so they
can be overridden in a single place.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray


@dataclass(frozen=True)
class Tolerances:
    """Default numeric tolerances, overridable per call.

    Attributes
    ----------
    sym_asym:
        Relative asymmetry accepted by :func:`sym_eig` before rejecting the
        input as non-symmetric.
    solve_resid:
        Relative residual bound for :func:`solve_linear`.
    cond_max:
        Condition-estimate ceiling above which linear solves are refused.
    perron_resid:
        Residual bound for the left null vector of a Laplacian.
    lmi_margin_rel:
        Relative strictness margin the feasibility solver aims for:
        margin >= lmi_margin_rel * (1 + ||assembled||_F).
    verify_margin:
        Default verification tolerance for certificates (strict positivity).
    lipschitz_slack:
        Additive slack in the sampled Lipschitz check.
    blowup_norm:
        State-norm guard that aborts an integration.
    v_step_rel:
        Per-step relative tolerance when flagging increases of the decrease
        diagnostic V.
    """

    sym_asym: float = 1e-12
    solve_resid: float = 1e-9
    cond_max: float = 1e12
    perron_resid: float = 1e-9
    lmi_margin_rel: float = 1e-6
    verify_margin: float = 0.0
    lipschitz_slack: float = 1e-9
    blowup_norm: float = 1e9
    v_step_rel: float = 1e-10


TOL = Tolerances()


def as_matrix(a: ArrayLike, name: str = "matrix") -> NDArray[np.float64]:
    """Validate and return ``a`` as a 2-D float array.

    Raises ValueError for non-2-D input or non-finite entries.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(v: ArrayLike, name: str = "vector") -> NDArray[np.float64]:
    """Validate and return ``v`` as a 1-D float array with finite entries."""
    x = np.asarray(v, dtype=float).reshape(-1)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


@dataclass(frozen=True)
class SymEig:
    """Eigendecomposition of a symmetric matrix.

    values are sorted ascending; vectors columns are the matching
    orthonormal eigenvectors.
    """

    values: NDArray[np.float64]
    vectors: NDArray[np.float64]


def sym_eig(s: ArrayLike, tol: Tolerances = TOL) -> SymEig:
    """Eigendecomposition of a symmetric matrix.

    The input is symmetrized as (s + s^T)/2 after checking that the relative
    asymmetry does not exceed ``tol.sym_asym``.

    Parameters
    ----------
    s:
        Square matrix, symmetric up to the accepted asymmetry.
    tol:
        Tolerance table.

    Returns
    -------
    SymEig
        Ascending eigenvalues and orthonormal eigenvectors.
    """
    m = as_matrix(s, "s")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"s must be square, got shape {m.shape}")
    scale = max(1.0, float(np.linalg.norm(m, "fro")))
    asym = float(np.linalg.norm(m - m.T, "fro"))
    if asym > tol.sym_asym * scale:
        raise ValueError(
            f"s is not symmetric: relative asymmetry {asym / scale:.3e}"
        )
    sym = (m + m.T) / 2.0
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(sym))
        raise np.linalg.LinAlgError(
            f"symmetric eigensolve did not converge "
            f"(norm {scale:.3e}, cond estimate {cond:.3e})"
        ) from exc
    return SymEig(values=values, vectors=vectors)


def is_positive_definite(s: ArrayLike, margin: float = 0.0,
                         tol: Tolerances = TOL) -> bool:
    """True iff the smallest eigenvalue of the symmetric input exceeds margin."""
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    return bool(sym_eig(s, tol).values[0] > margin)


def solve_linear(a: ArrayLike, b: ArrayLike, tol: Tolerances = TOL
                 ) -> NDArray[np.float64]:
    """Solve a x = b for a square, well-conditioned a.

    Refuses matrices whose condition estimate exceeds ``tol.cond_max`` and
    verifies the residual ||a x - b||_F <= tol.solve_resid * ||b||_F.
    """
    am = as_matrix(a, "a")
    bm = np.asarray(b, dtype=float)
    b2 = bm.reshape(bm.shape[0], -1) if bm.ndim > 1 else bm.reshape(-1, 1)
    if am.shape[0] != am.shape[1]:
        raise ValueError(f"a must be square, got shape {am.shape}")
    if am.shape[1] != b2.shape[0]:
        raise ValueError(f"shape mismatch: a {am.shape}, b {bm.shape}")
    cond = float(np.linalg.cond(am))
    if not np.isfinite(cond) or cond > tol.cond_max:
        raise np.linalg.LinAlgError(
            f"matrix is singular or ill conditioned (cond estimate {cond:.3e})"
        )
    x = np.linalg.solve(am, b2)
    resid = float(np.linalg.norm(am @ x - b2, "fro"))
    bnorm = float(np.linalg.norm(b2, "fro"))
    if resid > tol.solve_resid * bnorm:
        raise np.linalg.LinAlgError(
            f"solve residual {resid:.3e} exceeds {tol.solve_resid:.1e} * ||b|| "
            f"(cond estimate {cond:.3e})"
        )
    return x.reshape(bm.shape)


def kron(a: ArrayLike, b: ArrayLike) -> NDArray[np.float64]:
    """Kronecker product of two matrices."""
    return np.kron(as_matrix(a, "a"), as_matrix(b, "b"))


def eigvals_general(a: ArrayLike) -> NDArray[np.complex128]:
    """Eigenvalues of a general square matrix, best effort.

    Diagnostics only: synthesis never depends on this (nonsymmetric
    eigenproblems lack the accuracy guarantees of the symmetric path).
    """
    m = as_matrix(a, "a")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"a must be square, got shape {m.shape}")
    return np.linalg.eigvals(m)
