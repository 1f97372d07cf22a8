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


def as_square_stack(A) -> np.ndarray:
    """A as an array of finite square matrices of at most MAX_DIM rows."""
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


def _refuse_ill_conditioned(A: np.ndarray) -> None:
    # 2-norm condition number from the singular values; +inf where singular
    cond = np.atleast_1d(np.linalg.cond(A))
    worst = float(np.max(cond))
    if not worst < COND_LIMIT:
        flat = int(np.argmax(cond))
        index = np.unravel_index(flat, cond.shape)
        raise IllConditionedMatrixError(
            f"condition estimate {worst:.3e} exceeds {COND_LIMIT:.0e}"
            f" at stack index {index}"
        )


def invert(A) -> np.ndarray:
    """Inverse of each matrix; refuses condition estimates >= 1e12."""
    A = as_square_stack(A)
    _refuse_ill_conditioned(A)
    return np.linalg.inv(A)


def log_abs_det_gram(A) -> np.ndarray:
    """log|A A^H| per matrix, from the LU of A itself (= 2 log|det A|)."""
    A = as_square_stack(A)
    sign, logdet = np.linalg.slogdet(A)
    if np.any(sign == 0):
        raise IllConditionedMatrixError("singular matrix: |A A^H| underflows to zero")
    return 2.0 * logdet


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


def _dot2(pairs):
    """Dot2: sum of x * y over the pairs as a (hi, lo) pair, by TwoProduct
    and TwoSum, with the rounding errors of both summed into lo."""
    hi = lo = 0.0
    for x, y in pairs:
        p, err = _two_prod(x, y)
        s = hi + p
        z = s - hi
        lo = lo + (((hi - (s - z)) + (p - z)) + err)
        hi = s
    return hi, lo


def compensated_quadratic_form(A, v) -> np.ndarray:
    """Re(v^H A v) per stacked matrix, immune to catastrophic cancellation.

    Dot2 (Ogita, Rump & Oishi, "Accurate sum and dot product", 2005) forms
    w = A v column by column as (hi, lo) pairs, then sum_i Re(v_i) Re(w_i)
    + Im(v_i) Im(w_i) over the hi parts, with v times the lo parts added to
    the error term.  The error is at most eps |result| + O(n^2 eps^2) sum
    |terms|: a few ulp even when the result is ~1e-16 of the largest term
    (A ill-conditioned, v along its small singular directions), where a
    plain einsum, losing one digit per decade of that ratio, keeps none.
    """
    A = np.asarray(A)
    v = np.asarray(v)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or v.shape[-1:] != A.shape[-1:]:
        raise ValueError(f"shape mismatch: matrices {A.shape}, vectors {v.shape}")
    P = np.asarray(A.real, dtype=np.float64)
    S = np.asarray(A.imag, dtype=np.float64)
    a = np.asarray(v.real, dtype=np.float64)
    b = np.asarray(v.imag, dtype=np.float64)
    # (Re w, Im w) += (P_:j, P_:j) (a_j, b_j) + (-S_:j, S_:j) (b_j, a_j)
    blocks = ((P, P, a, b), (-S, S, b, a))
    w_hi, w_lo = _dot2((np.stack([C[..., :, j], D[..., :, j]], axis=-2),
                        np.stack([x[..., j], y[..., j]], axis=-1)[..., None])
                       for j in range(a.shape[-1]) for C, D, x, y in blocks)
    hi, lo = _dot2((x[..., i], w_hi[..., k, i])
                   for k, x in enumerate((a, b)) for i in range(a.shape[-1]))
    return hi + (lo + (a * w_lo[..., 0, :] + b * w_lo[..., 1, :]).sum(axis=-1))
