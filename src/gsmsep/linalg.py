"""Dense kernels for the small per-frequency mixing matrices (M <= 8).

Every routine accepts a single (M, M) matrix or a stack (..., M, M) and
broadcasts over the leading axes.  Factorizations are delegated to LAPACK
through numpy.linalg (partial-pivoting LU for inverses and determinants);
the wrappers add the dimension cap, a condition estimate with a hard
refusal threshold, and the log|A A^H| form the likelihood needs.
"""

from __future__ import annotations

import numpy as np

MAX_DIM = 8
COND_LIMIT = 1e12


class IllConditionedMatrixError(np.linalg.LinAlgError):
    """Matrix is singular or too ill-conditioned to invert reliably."""


def _as_square_stack(A) -> np.ndarray:
    A = np.asarray(A)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {A.shape}")
    if A.shape[-1] > MAX_DIM:
        raise ValueError(
            f"matrix dimension {A.shape[-1]} exceeds the supported maximum {MAX_DIM}"
        )
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def condition_estimate(A) -> np.ndarray | float:
    """2-norm condition number per matrix; +inf where exactly singular."""
    A = _as_square_stack(A)
    sv = np.linalg.svd(A, compute_uv=False)
    smax = sv[..., 0]
    smin = sv[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(smin > 0.0, smax / np.where(smin > 0.0, smin, 1.0), np.inf)
    return cond if cond.ndim else float(cond)


def _refuse_ill_conditioned(A: np.ndarray) -> None:
    cond = np.atleast_1d(condition_estimate(A))
    worst = float(np.max(cond))
    if not worst < COND_LIMIT:
        flat = int(np.argmax(cond))
        index = np.unravel_index(flat, cond.shape) if cond.ndim else ()
        raise IllConditionedMatrixError(
            f"condition estimate {worst:.3e} exceeds {COND_LIMIT:.0e}"
            f" at stack index {index}"
        )


def invert(A) -> np.ndarray:
    """Inverse of each matrix; refuses condition estimates >= 1e12."""
    A = _as_square_stack(A)
    _refuse_ill_conditioned(A)
    return np.linalg.inv(A)


def log_abs_det_gram(A) -> np.ndarray | float:
    """log|A A^H| per matrix, from the LU of A itself (= 2 log|det A|)."""
    A = _as_square_stack(A)
    sign, logdet = np.linalg.slogdet(A)
    if np.any(sign == 0):
        raise IllConditionedMatrixError("singular matrix: |A A^H| underflows to zero")
    out = 2.0 * logdet
    return out if np.ndim(out) else float(out)


# 2**27 + 1; Dekker's constant for splitting a float64 into two 26-bit halves
_SPLIT = 134217729.0


def _two_prod(a, b):
    """a * b as an exact (product, error) float64 pair."""
    p = a * b
    ah = _SPLIT * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLIT * b
    bh = bh - (bh - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _triple_prod_terms(x, y, z):
    # x*y*z as three floats; the dropped residue is O(eps^2 |xyz|)
    p, e = _two_prod(x, y)
    p2, e2 = _two_prod(p, z)
    return p2, e2, e * z


def compensated_quadratic_form(A, v) -> np.ndarray | float:
    """Re(v^H A v) per stacked matrix, immune to catastrophic cancellation.

    Every scalar product is split into error-free parts and the parts are
    accumulated with Neumaier summation, so the result stays accurate to a
    few ulp even when the true value is ~1e-16 of the largest intermediate
    term.  A plain einsum loses one digit per decade of that ratio, which
    matters when A is severely ill-conditioned and v lies along its small
    singular directions.
    """
    A = np.asarray(A)
    v = np.asarray(v)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or v.shape[-1:] != A.shape[-1:]:
        raise ValueError(f"shape mismatch: matrices {A.shape}, vectors {v.shape}")
    P = np.asarray(A.real, dtype=np.float64)
    S = (np.asarray(A.imag, dtype=np.float64) if np.iscomplexobj(A)
         else np.zeros_like(P))
    a_i = np.asarray(v.real, dtype=np.float64)[..., :, None]
    a_j = a_i.swapaxes(-1, -2)
    b_i = (np.asarray(v.imag, dtype=np.float64)
           if np.iscomplexobj(v) else np.zeros(v.shape))[..., :, None]
    b_j = b_i.swapaxes(-1, -2)
    # Re(v^H A v) = sum_ij P_ij (a_i a_j + b_i b_j) + S_ij (b_i a_j - a_i b_j)
    parts = (
        _triple_prod_terms(P, a_i, a_j)
        + _triple_prod_terms(P, b_i, b_j)
        + _triple_prod_terms(S, b_i, a_j)
        + _triple_prod_terms(-S, a_i, b_j)
    )
    terms = np.stack(np.broadcast_arrays(*parts), axis=-1)
    flat = terms.reshape(terms.shape[:-3] + (-1,))

    total = flat[..., 0].copy()
    comp = np.zeros_like(total)
    for k in range(1, flat.shape[-1]):
        x = flat[..., k]
        new = total + x
        total_bigger = np.abs(total) >= np.abs(x)
        comp += np.where(total_bigger, (total - new) + x, (x - new) + total)
        total = new
    out = total + comp
    return out if out.ndim else float(out)
