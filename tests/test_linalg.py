"""Tests for the small-matrix helpers.

The eigenvalue-based determinant oracle and the explicit inverse
residual checks are written directly against numpy primitives other
than the ones under test, so they stay independent of the helper
implementations.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsmsep.linalg import (
    COND_LIMIT,
    MAX_DIM,
    IllConditionedMatrixError,
    compensated_quadratic_form,
    condition_estimate,
    invert,
    log_abs_det_gram,
)


def random_stack(rng, shape, dim):
    A = rng.standard_normal(shape + (dim, dim)) + 1j * rng.standard_normal(
        shape + (dim, dim)
    )
    # a diagonal shift keeps every draw comfortably conditioned
    return A + 3.0 * dim * np.eye(dim)


class TestInvert:
    def test_identity_is_fixed_point(self):
        eye = np.eye(4, dtype=np.complex128)
        np.testing.assert_array_equal(invert(eye), eye)

    def test_inverse_residual(self):
        rng = np.random.default_rng(7)
        A = random_stack(rng, (5, 3), 4)
        prod = A @ invert(A)
        eye = np.broadcast_to(np.eye(4), prod.shape)
        np.testing.assert_allclose(prod, eye, atol=1e-10)

    def test_involution(self):
        rng = np.random.default_rng(11)
        A = random_stack(rng, (6,), 3)
        assert np.all(condition_estimate(A) <= 1e6)
        np.testing.assert_allclose(invert(invert(A)), A, rtol=1e-8, atol=1e-8)

    def test_single_matrix_keeps_shape(self):
        rng = np.random.default_rng(3)
        A = random_stack(rng, (), 2)
        out = invert(A)
        assert out.shape == (2, 2)

    def test_refuses_singular(self):
        A = np.zeros((2, 2), dtype=np.complex128)
        A[0, 0] = 1.0
        with pytest.raises(IllConditionedMatrixError) as info:
            invert(A)
        # the error message reports the offending condition estimate
        assert "condition estimate" in str(info.value)

    def test_refuses_beyond_condition_limit(self):
        A = np.diag([1.0, 1.0 / (10.0 * COND_LIMIT)]).astype(np.complex128)
        with pytest.raises(IllConditionedMatrixError):
            invert(A)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            invert(np.zeros((2, 3), dtype=np.complex128))

    def test_rejects_oversized(self):
        dim = MAX_DIM + 1
        with pytest.raises(ValueError):
            invert(np.eye(dim, dtype=np.complex128))

    def test_rejects_non_finite(self):
        A = np.eye(2, dtype=np.complex128)
        A[0, 1] = np.nan
        with pytest.raises(ValueError):
            invert(A)


class TestLogAbsDetGram:
    def test_scaled_identity_closed_form(self):
        for c in (0.5, 2.0, -3.0, 1j * 4.0):
            for dim in (1, 2, 5):
                A = c * np.eye(dim, dtype=np.complex128)
                expected = 2.0 * dim * np.log(abs(c))
                np.testing.assert_allclose(
                    log_abs_det_gram(A), expected, rtol=0, atol=1e-12
                )

    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(17)
        A = random_stack(rng, (10,), 4)
        # log|det(A A^H)| equals the sum of the log eigenvalues of the
        # Hermitian product, computed here without slogdet
        gram = A @ np.conj(np.swapaxes(A, -1, -2))
        eigvals = np.linalg.eigvalsh(gram)
        oracle = np.sum(np.log(eigvals), axis=-1)
        np.testing.assert_allclose(log_abs_det_gram(A), oracle, rtol=1e-9)

    def test_singular_raises(self):
        with pytest.raises(IllConditionedMatrixError):
            log_abs_det_gram(np.zeros((3, 3), dtype=np.complex128))


class TestConditionEstimate:
    def test_diagonal_ratio(self):
        A = np.diag([8.0, 2.0, 1.0]).astype(np.complex128)
        np.testing.assert_allclose(condition_estimate(A), 8.0, rtol=1e-12)

    def test_singular_is_infinite(self):
        A = np.zeros((2, 2), dtype=np.complex128)
        assert np.isinf(condition_estimate(A))

    def test_unitary_is_one(self):
        theta = 0.3
        Q = np.array(
            [
                [np.cos(theta), -np.sin(theta)],
                [np.sin(theta), np.cos(theta)],
            ],
            dtype=np.complex128,
        )
        np.testing.assert_allclose(condition_estimate(Q), 1.0, rtol=1e-12)


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, MAX_DIM))
def test_property_inverse_residual(seed, dim):
    rng = np.random.default_rng(seed)
    A = random_stack(rng, (3,), dim)
    prod = invert(A) @ A
    eye = np.broadcast_to(np.eye(dim), prod.shape)
    assert np.max(np.abs(prod - eye)) < 1e-8


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, MAX_DIM))
def test_property_det_gram_of_product(seed, dim):
    # log|det((AB)(AB)^H)| = log|det(AA^H)| + log|det(BB^H)| for square A, B
    rng = np.random.default_rng(seed)
    A = random_stack(rng, (), dim)
    B = random_stack(rng, (), dim)
    lhs = log_abs_det_gram(A @ B)
    rhs = log_abs_det_gram(A) + log_abs_det_gram(B)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


def exact_quadratic_form(A, v) -> float:
    """Re(v^H A v) in exact rational arithmetic over the float inputs."""
    A = np.asarray(A, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    total = Fraction(0)
    for i in range(v.size):
        vr_i, vi_i = Fraction(v[i].real), Fraction(v[i].imag)
        for j in range(v.size):
            vr_j, vi_j = Fraction(v[j].real), Fraction(v[j].imag)
            # conj(v_i) v_j
            rr = vr_i * vr_j + vi_i * vi_j
            ri = vr_i * vi_j - vi_i * vr_j
            total += Fraction(A[i, j].real) * rr - Fraction(A[i, j].imag) * ri
    return float(total)


class TestCompensatedQuadraticForm:
    def test_identity_gives_squared_norm(self):
        v = np.array([3.0 + 4.0j, 1.0 - 2.0j])
        got = compensated_quadratic_form(np.eye(2), v)
        assert got == 30.0

    def test_matches_exact_rational_oracle(self):
        rng = np.random.default_rng(1)
        for dim in (1, 2, 4, 8):
            A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
                (dim, dim)
            )
            A = A + A.conj().T
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            got = compensated_quadratic_form(A, v)
            want = exact_quadratic_form(A, v)
            np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_survives_catastrophic_cancellation(self):
        # Hermitian with eigenvalues (1e12, 1e-4) and v along the small
        # eigenvector: the true form is ~1e-16 of the largest intermediate
        # product, where a plain einsum keeps no correct digits
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        U = np.linalg.qr(Z)[0]
        A = (U * np.array([1e12, 1e-4])) @ U.conj().T
        v = U[:, 1] * 100.0 + U[:, 0] * 1e-8
        want = exact_quadratic_form(A, v)
        got = compensated_quadratic_form(A, v)
        naive = float(np.einsum("i,ij,j", v.conj(), A, v).real)
        assert abs(got - want) <= 1e-14 * abs(want)
        assert abs(naive - want) > 1e-8 * abs(want)

    def test_stacked_matches_per_matrix(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        v = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        got = compensated_quadratic_form(A, v)
        assert got.shape == (5,)
        for k in range(5):
            np.testing.assert_allclose(
                got[k], exact_quadratic_form(A[k], v[k]), rtol=1e-15
            )

    def test_real_inputs(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        v = np.array([1.0, -1.0])
        assert compensated_quadratic_form(A, v) == 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            compensated_quadratic_form(np.eye(3), np.ones(2))
        with pytest.raises(ValueError, match="shape mismatch"):
            compensated_quadratic_form(np.ones((2, 3)), np.ones(3))


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, MAX_DIM))
def test_property_quadratic_form_exact(seed, dim):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-6, 7)
    A = scale * (
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    )
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    got = compensated_quadratic_form(A, v)
    want = exact_quadratic_form(A, v)
    assert abs(got - want) <= 1e-14 * max(abs(want), 1e-300)
