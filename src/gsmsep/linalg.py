"""Dense kernels for the small per-frequency mixing matrices (M <= 8).

Every routine accepts a single (M, M) matrix or a stack (..., M, M) and
broadcasts over the leading axes.  Factorizations are delegated to LAPACK
through numpy.linalg (partial-pivoting LU for inverses and determinants);
the wrappers add the dimension cap, a condition estimate with a hard
refusal threshold, and the log|A A^H| form the likelihood needs.

The compensated quadratic form is numpy elementwise work, seventeen
operations for each of Dot2's 2M terms, so its cost is per-operation
overhead and memory traffic.  It holds the stack axis innermost, with
each term's column broadcast over the outer axis of contiguous (2, M, L)
buffers, and allocates nothing per operation.  On one Xeon core at
(513, 8) a TwoProduct multiply took ~12 us on the matrices' own layout,
where a factor repeats along an inner axis of length M, against ~6.6 us here.
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


def _split(a: np.ndarray, high=None, low=None) -> tuple:
    # (a, high, low), high + low == a with 26 bits each (Dekker), into high and low if given
    high = np.multiply(_SPLIT, a, out=high)
    low = np.subtract(high, a, out=low)
    high -= low
    return a, high, np.subtract(a, high, out=low)


def _dot2(pairs, shape: tuple) -> tuple:
    """Dot2 over pairs of `_split` factors: sum x * y as a (hi, lo) pair of
    `shape` arrays, the rounding errors of TwoProduct and TwoSum in lo."""
    hi, lo, s, p, err, z = (np.zeros(shape) for _ in range(6))
    for (x, x_hi, x_lo), (y, y_hi, y_lo) in pairs:
        np.multiply(x, y, out=p)  # TwoProduct: p + err == x * y exactly
        np.multiply(x_hi, y_hi, out=err)
        err -= p
        err += np.multiply(x_hi, y_lo, out=z)
        err += np.multiply(x_lo, y_hi, out=z)
        err += np.multiply(x_lo, y_lo, out=z)
        np.add(hi, p, out=s)  # TwoSum: lo += ((hi - (s - z)) + (p - z)) + err
        np.subtract(s, hi, out=z)
        p -= z
        np.subtract(s, z, out=z)
        np.subtract(hi, z, out=z)
        z += p
        z += err
        lo += z
        hi, s = s, hi
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
    Each column is split once, and the sign of -Im A moves into the
    vector's half ((-S) b == S (-b) with the same TwoProduct error, the
    split being odd), so the stack-innermost layout gives the bits of Dot2
    on the matrices' own layout.
    """
    A, v = np.asarray(A), np.asarray(v)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or v.shape[-1:] != A.shape[-1:]:
        raise ValueError(f"shape mismatch: matrices {A.shape}, vectors {v.shape}")
    n = A.shape[-1]
    stack = np.broadcast_shapes(A.shape[:-2], v.shape[:-1])
    A = np.broadcast_to(A, stack + (n, n)).reshape(-1, n, n)
    v = np.broadcast_to(v, stack + (n,)).reshape(-1, n)
    # the vector halves (a_j, b_j) against Re A and (-b_j, a_j) against
    # Im A, (n, 2, L) over the L stacked matrices; each term's column of A,
    # (n, L), and its halves repeated down it, (2, n, L)
    a, b = (np.asarray(part.T, dtype=np.float64) for part in (v.real, v.imag))
    vector = [_split(np.stack([a, b], axis=1)), _split(np.stack([-b, a], axis=1))]
    column, rows = np.empty((3, n, len(A))), np.empty((3, 2, n, len(A)))
    parts = A.real, A.imag

    def column_pairs():  # (Re w, Im w) += Re A_:j (a_j, b_j) + Im A_:j (-b_j, a_j)
        for j in range(n):
            for part, matrix in enumerate(parts):
                np.copyto(column[0], matrix[:, :, j].T)
                for row, y in zip(rows, vector[part]):
                    np.copyto(row, y[j, :, None])
                yield _split(*column), rows
    w_hi, w_lo = _dot2(column_pairs(), (2, n, len(A)))
    v_parts = [y.transpose(1, 0, 2) for y in vector[0]]  # (a, b) as (2, n, L)
    w_parts = _split(w_hi)
    hi, lo = _dot2(((tuple(y[k, i] for y in v_parts), tuple(x[k, i] for x in w_parts))
                    for k in (0, 1) for i in range(n)), (len(A),))
    # the lo terms on the (L, n) layout numpy's sum over i ran on
    terms = np.ascontiguousarray((a * w_lo[0] + b * w_lo[1]).T)
    return (hi + (lo + terms.sum(axis=-1))).reshape(stack)[()]
