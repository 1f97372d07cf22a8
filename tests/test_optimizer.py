"""Tests for the MU-VEM loop.

The likelihood is checked against a per-bin Python-loop oracle, each
update against fixed points and hand-derived scalar cases, and the
diagonalizer projection against its unit-scale post-condition with the
weighted covariances recomputed independently; those covariances, built
from the per-run outer-product statistics, are checked against an
extended-precision reference.
"""

import dataclasses
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from gsmsep import linalg, optimizer, workers
from gsmsep.harness import synth_scene
from gsmsep.model import (
    DEFAULT_FLOOR,
    Gaussian,
    LeptokurticGG,
    ModelParams,
    NIG,
    SeparationConfig,
    StudentT,
    GH,
    compute_ytilde,
    init_params,
    normalize,
    power_scale,
    source_psd,
)
from gsmsep.optimizer import (
    EStepCache,
    MONOTONE_SLACK,
    e_step,
    iterate,
    log_likelihood,
    outer_products,
    project_mixture,
    run,
    update_g,
    update_h,
    update_q,
    update_w,
    weighted_covariances,
    _unpack_hermitian,
)
from gsmsep.stft import StftConfig, stft_forward
from oracles import log_marginal_density

ALL_VARIANTS = [
    Gaussian(),
    StudentT(nu=4.0),
    LeptokurticGG(beta=1.2),
    GH(gamma=-2.0, rho=3.0, eta=1.0),
    NIG(rho=15.0, eta=1.0),
]
VARIANT_IDS = ["gaussian", "t", "gg", "gh", "nig"]


def random_mixture(rng, f, t, m):
    """An (F, M, T) mixture: the (f, t, m) draw, channel-major."""
    draw = rng.standard_normal((f, t, m)) + 1j * rng.standard_normal((f, t, m))
    return np.ascontiguousarray(draw.transpose(0, 2, 1))


def ftm(A_FMT):
    """The (F, T, M) view that the whole-array oracles take and give."""
    return A_FMT.transpose(0, 2, 1)


def make_setup(seed=0, n=2, k=2, f=6, t=8, m=2):
    cfg = SeparationConfig(n_sources=n, n_bases=k, iterations=1, seed=seed)
    X = random_mixture(np.random.default_rng(seed + 1000), f, t, m)
    return init_params(cfg, X), X


class TestBlockedStages:
    """Each per-bin stage, run over frequency blocks, against the same
    stage on whole arrays.  Only the order of the sums over f (and of the
    BLAS products) differs, so they agree to a few ulp."""

    CASES = [  # (n, m, f, t, rank1)
        (1, 1, 7, 5, False),
        (1, 3, 13, 9, False),
        (2, 3, 13, 9, False),
        (3, 3, 11, 6, True),
        (2, 2, 1, 4, False),
    ]

    @pytest.mark.parametrize("n,m,f,t,rank1", CASES)
    @pytest.mark.parametrize("m_step_freqs", [0, 3, 1 << 20],
                             ids=["one-frequency", "three", "one-block"])
    def test_matches_whole_array_stages(self, n, m, f, t, rank1, m_step_freqs,
                                        monkeypatch):
        # budget 0 makes every block one frequency; 3 M-step frequencies
        # leave uneven last blocks at f = 13 and 11
        monkeypatch.setattr(workers, "_BLOCK_BYTES", m_step_freqs * 8 * t * (n + m))
        rng = np.random.default_rng(100 * n + m)
        X = random_mixture(rng, f, t, m)
        cfg = SeparationConfig(n_sources=n, n_bases=2, iterations=1,
                               rank1=rank1, seed=n + m)
        params = init_params(cfg, X)
        params.Q[:] += 0.3 * (rng.standard_normal((f, m, m))
                              + 1j * rng.standard_normal((f, m, m)))
        variant, floor = StudentT(nu=4.0), 1e-3

        ll, cache = log_likelihood(X, params, variant, floor)
        value, y_tilde, inv_phi, z_hat = oracles.whole_likelihood(
            ftm(X), params, variant, floor)
        assert ll == pytest.approx(value, rel=1e-13)
        for got, want in ((ftm(cache.y_tilde), y_tilde), (cache.inv_phi, inv_phi),
                          (ftm(cache.z_hat), z_hat),
                          (ftm(compute_ytilde(params, floor)), y_tilde)):
            np.testing.assert_allclose(got, want, rtol=1e-13)
        fresh = e_step(X, params, variant, floor)
        np.testing.assert_array_equal(fresh.z_hat, cache.z_hat)
        np.testing.assert_array_equal(fresh.inv_phi, cache.inv_phi)

        np.testing.assert_allclose(
            update_w(params, cache).W,
            oracles.whole_update_w(params, ftm(cache.y_tilde), ftm(cache.z_hat)), rtol=1e-13)
        np.testing.assert_allclose(
            update_h(params, cache).H,
            oracles.whole_update_h(params, ftm(cache.y_tilde), ftm(cache.z_hat)), rtol=1e-13)
        np.testing.assert_allclose(
            update_g(params, cache).Gtilde,
            oracles.whole_update_g(params, ftm(cache.y_tilde), ftm(cache.z_hat)), rtol=1e-13)


class TestProjectMixture:
    def test_row_convention(self):
        rng = np.random.default_rng(0)
        X = random_mixture(rng, 3, 4, 2)
        Q = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        out = project_mixture(X, Q)
        for f in range(3):
            for t in range(4):
                np.testing.assert_allclose(out[f, :, t], Q[f] @ X[f, :, t], rtol=1e-14)


class TestEStep:
    def test_gaussian_inv_phi_is_one(self):
        params, X = make_setup()
        cache = e_step(X, params, Gaussian(), DEFAULT_FLOOR)
        np.testing.assert_array_equal(cache.inv_phi, np.ones((6, 8)))
        np.testing.assert_array_equal(
            cache.z_hat, np.abs(project_mixture(X, params.Q)) ** 2)

    def test_identity_q_gives_magnitudes(self):
        # Gaussian: E[1/phi] = 1, so z^ is the projected power itself
        params, X = make_setup()
        cache = e_step(X, params, Gaussian(), DEFAULT_FLOOR)
        np.testing.assert_allclose(cache.z_hat, np.abs(X) ** 2, rtol=1e-14)

    def test_s_matches_naive_loop(self):
        params, X = make_setup(seed=3)
        variant = StudentT(nu=5.0)
        cache = e_step(X, params, variant, DEFAULT_FLOOR)
        z_tilde = np.abs(project_mixture(X, params.Q)) ** 2
        half_nu = 2.5
        for f in range(params.n_freq):
            for t in range(params.n_frames):
                s = sum(
                    z_tilde[f, m, t] / cache.y_tilde[f, m, t]
                    for m in range(params.n_channels)
                )
                expected = (half_nu + params.n_channels) / (half_nu + s)
                assert cache.inv_phi[f, t] == pytest.approx(expected, rel=1e-12)

    def test_z_hat_weighting(self):
        params, X = make_setup(seed=4)
        cache = e_step(X, params, StudentT(nu=3.0), DEFAULT_FLOOR)
        z_tilde = np.abs(project_mixture(X, params.Q)) ** 2
        np.testing.assert_allclose(
            cache.z_hat, cache.inv_phi[:, None, :] * z_tilde, rtol=1e-14
        )

    def test_shape_mismatch(self):
        params, X = make_setup()
        with pytest.raises(ValueError, match="inconsistent"):
            e_step(X[:, :, :4], params, Gaussian(), DEFAULT_FLOOR)


class TestMultiplicativeUpdates:
    def fixed_point_setup(self):
        # data whose projected power equals the model variance: every
        # multiplicative ratio is exactly one
        params, _ = make_setup(seed=5)
        y = compute_ytilde(params, 1e-12)
        X = np.sqrt(y).astype(np.complex128)
        cache = e_step(X, params, Gaussian(), floor=1e-12)
        return params, X, cache

    def test_w_fixed_point(self):
        params, _, cache = self.fixed_point_setup()
        out = update_w(params, cache)
        np.testing.assert_allclose(out.W, params.W, rtol=1e-12)

    def test_h_fixed_point(self):
        params, _, cache = self.fixed_point_setup()
        out = update_h(params, cache)
        np.testing.assert_allclose(out.H, params.H, rtol=1e-12)

    def test_g_fixed_point(self):
        params, _, cache = self.fixed_point_setup()
        out = update_g(params, cache)
        np.testing.assert_allclose(out.Gtilde, params.Gtilde, rtol=1e-12)

    def test_doubled_z_hat_scales_w_by_sqrt2(self):
        params, _, cache = self.fixed_point_setup()
        doubled = dataclasses.replace(cache, z_hat=2.0 * cache.z_hat)
        out = update_w(params, doubled)
        np.testing.assert_allclose(out.W, np.sqrt(2.0) * params.W, rtol=1e-12)

    def test_scalar_case_closed_form(self):
        # N = K = F = T = M = 1: w <- w sqrt(z^ / y~)
        w, h, g = 2.0, 3.0, 0.5
        params = ModelParams(
            W=np.full((1, 1, 1), w),
            H=np.full((1, 1, 1), h),
            Q=np.ones((1, 1, 1), dtype=np.complex128),
            Gtilde=np.full((1, 1), g),
        )
        y = w * h * g
        z_hat = 12.0
        cache = EStepCache(
            y_tilde=np.full((1, 1, 1), y),
            inv_phi=np.ones((1, 1)),
            z_hat=np.full((1, 1, 1), z_hat),
        )
        out = update_w(params, cache)
        assert out.W[0, 0, 0] == pytest.approx(w * np.sqrt(z_hat / y), rel=1e-14)

    def test_updates_preserve_nonnegativity(self):
        params, X = make_setup(seed=7)
        cache = e_step(X, params, StudentT(nu=3.0), DEFAULT_FLOOR)
        assert np.all(update_w(params, cache).W >= 0)
        assert np.all(update_h(params, cache).H >= 0)
        assert np.all(update_g(params, cache).Gtilde >= 0)


class TestUpdateQ:
    def test_identity_fixed_point(self):
        # white data with unit model variance: V_fm = I, so the
        # projection returns the basis vectors and Q stays identity
        cfg = SeparationConfig(n_sources=2, n_bases=1, iterations=1, rank1=True)
        X = np.zeros((3, 2, 2), dtype=np.complex128)
        X[:, 0, 0] = np.sqrt(2.0)
        X[:, 1, 1] = np.sqrt(2.0)
        params = init_params(cfg, X)
        params.W[:] = 1.0
        params.H[:] = 1.0
        cache = e_step(X, params, Gaussian(), DEFAULT_FLOOR)
        out = update_q(params, outer_products(X)[0], cache)
        np.testing.assert_allclose(out.Q, params.Q, atol=1e-14)

    def test_single_channel_unit_scale(self):
        # M = 1: the rescale forces |q|^2 V = 1 exactly
        cfg = SeparationConfig(n_sources=1, n_bases=2, iterations=1)
        X = random_mixture(np.random.default_rng(8), 4, 16, 1)
        params = init_params(cfg, X)
        cache = e_step(X, params, Gaussian(), DEFAULT_FLOOR)
        out = update_q(params, outer_products(X)[0], cache)
        weight = cache.inv_phi / cache.y_tilde[:, 0]
        V_F = np.mean(weight * np.abs(X[:, 0]) ** 2, axis=1)
        np.testing.assert_allclose(
            np.abs(out.Q[:, 0, 0]) ** 2 * V_F, 1.0, rtol=1e-12
        )

    def test_unit_quadratic_form_postcondition(self):
        params, X = make_setup(seed=9, f=5, t=24, m=2)
        cache = e_step(X, params, StudentT(nu=4.0), DEFAULT_FLOOR)
        out = update_q(params, outer_products(X)[0], cache)
        for m in range(params.n_channels):
            weight = cache.inv_phi / cache.y_tilde[:, m]
            V = (
                np.matmul(X * weight[:, None, :], X.conj().transpose(0, 2, 1))
                / params.n_frames
            )
            q = out.Q[:, m, :].conj()
            form = np.einsum("fi,fij,fj->f", q.conj(), V, q).real
            np.testing.assert_allclose(form, 1.0, atol=1e-10)

    def test_singular_system_keeps_row(self):
        params, X = make_setup(seed=10, f=3, t=4, m=2)
        X[:] = 0.0  # V collapses, every system is singular
        cache = e_step(X, params, Gaussian(), DEFAULT_FLOOR)
        with pytest.warns(RuntimeWarning, match="singular diagonalizer system"):
            out = update_q(params, outer_products(X)[0], cache)
        np.testing.assert_array_equal(out.Q, params.Q)

    def test_partly_singular_batch_matches_per_frequency_oracle(self):
        params, X = make_setup(seed=31, n=3, f=9, t=12, m=3)
        rng = np.random.default_rng(32)
        params.Q[:] += 0.3 * (rng.standard_normal((9, 3, 3))
                              + 1j * rng.standard_normal((9, 3, 3)))
        dead = [1, 4, 7]
        X[dead] = 0.0  # V_f = 0 there: only those systems are singular
        cache = e_step(X, params, StudentT(nu=4.0), DEFAULT_FLOOR)
        with pytest.warns(RuntimeWarning, match="singular diagonalizer system"):
            out = update_q(params, outer_products(X)[0], cache)

        Q = params.Q.copy()
        R_FPM = weighted_covariances(outer_products(X)[0], cache)
        for m in range(3):
            V = _unpack_hermitian(R_FPM[:, :, m])
            QV = np.matmul(Q, V)
            for f in range(9):
                try:
                    q = np.linalg.solve(QV[f], np.eye(3)[m])
                except np.linalg.LinAlgError:
                    assert f in dead
                    continue
                scale = linalg.compensated_quadratic_form(V[f], q)
                Q[f, m] = (q / np.sqrt(scale)).conj()
        np.testing.assert_array_equal(out.Q, Q)
        np.testing.assert_array_equal(out.Q[dead], params.Q[dead])
        live = [f for f in range(9) if f not in dead]
        assert not np.any(out.Q[live] == params.Q[live])

    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_matches_unhoisted_per_row_oracle(self, m):
        params, X = make_setup(seed=33 + m, n=m, f=7, t=20, m=m)
        rng = np.random.default_rng(34)
        params.Q[:] += 0.3 * (rng.standard_normal((7, m, m))
                              + 1j * rng.standard_normal((7, m, m)))
        cache = e_step(X, params, StudentT(nu=4.0), DEFAULT_FLOOR)
        out = update_q(params, outer_products(X)[0], cache)

        Q = params.Q.copy()
        R_FPM = weighted_covariances(outer_products(X)[0], cache)
        for row in range(m):
            V = _unpack_hermitian(R_FPM[:, :, row])
            q = np.linalg.solve(np.matmul(Q, V), np.eye(m)[:, row:row + 1])[..., 0]
            scale = linalg.compensated_quadratic_form(V, q)
            Q[:, row] = (q / np.sqrt(scale)[:, None]).conj()
        np.testing.assert_array_equal(out.Q, Q)

    def test_input_params_not_mutated(self):
        params, X = make_setup(seed=11)
        Q0 = params.Q.copy()
        cache = e_step(X, params, Gaussian(), DEFAULT_FLOOR)
        update_q(params, outer_products(X)[0], cache)
        np.testing.assert_array_equal(params.Q, Q0)


def longdouble_covariances(X, cache):
    # V[f, m, i, j] = (1/T) sum_t w_ftm x_fti conj(x_ftj) in extended
    # precision, and the same sum over w |x_i| |x_j| for the error bound
    re = X.real.astype(np.longdouble)
    im = X.imag.astype(np.longdouble)
    w = (cache.inv_phi.astype(np.longdouble)[:, None, :]
         / cache.y_tilde.astype(np.longdouble))
    n_frames = X.shape[2]
    real = (np.einsum("fmt,fit,fjt->fmij", w, re, re)
            + np.einsum("fmt,fit,fjt->fmij", w, im, im)) / n_frames
    imag = (np.einsum("fmt,fit,fjt->fmij", w, im, re)
            - np.einsum("fmt,fit,fjt->fmij", w, re, im)) / n_frames
    mag = np.abs(X).astype(np.longdouble)
    scale = np.einsum("fmt,fit,fjt->fmij", w, mag, mag) / n_frames
    return real, imag, scale


class TestOuterProducts:
    @pytest.mark.parametrize("t", [1, 8, 200])
    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    def test_weighted_covariances_match_longdouble(self, m, t):
        params, X = make_setup(seed=40 + m, n=m, f=5, t=t, m=m)
        X *= np.logspace(-3, 3, m)[:, None]  # channels of very different power
        cache = e_step(X, params, StudentT(nu=4.0), DEFAULT_FLOOR)
        S, gram = outer_products(X)
        assert S.shape == (5, m * m, t)
        assert np.all(S[:, :m] >= 0)
        np.testing.assert_allclose(gram, S.sum(axis=(0, 2)), rtol=1e-13)

        V = _unpack_hermitian(weighted_covariances(S, cache).transpose(0, 2, 1))
        assert V.shape == (5, m, m, m)
        np.testing.assert_array_equal(V, V.conj().swapaxes(-1, -2))
        diagonal = V[..., np.arange(m), np.arange(m)]
        assert np.all(diagonal.imag == 0)
        assert np.all(diagonal.real >= 0)

        real, imag, scale = longdouble_covariances(X, cache)
        bound = (t + 3) * np.finfo(np.float64).eps * scale
        error = np.hypot(V.real - real, V.imag - imag)
        assert np.all(error <= bound)

    @pytest.mark.parametrize("m", [1, 3])
    def test_row_layout(self, m):
        # |x_i|^2 first, then (Re, Im) of x_i conj(x_j) for i < j; none
        # of the latter for a single channel
        X = random_mixture(np.random.default_rng(42), 3, 5, m)
        S = outer_products(X)[0]
        rows = [X[:, i].real ** 2 + X[:, i].imag ** 2 for i in range(m)]
        for i, j in itertools.combinations(range(m), 2):
            cross = X[:, i] * X[:, j].conj()
            rows += [cross.real, cross.imag]
        np.testing.assert_allclose(S, np.stack(rows, axis=1),
                                   rtol=1e-15, atol=1e-15)


class TestLogLikelihood:
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=VARIANT_IDS)
    def test_matches_per_bin_oracle(self, variant):
        params, X = make_setup(seed=12, f=3, t=4, m=2)
        rng = np.random.default_rng(13)
        params.Q[:] = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal(
            (3, 2, 2)
        )
        total = log_likelihood(X, params, variant, floor=1e-12)[0]

        z = np.abs(project_mixture(X, params.Q)) ** 2
        y = compute_ytilde(params, 1e-12)
        oracle = 0.0
        for f in range(3):
            for t in range(4):
                oracle += log_marginal_density(z[f, :, t], y[f, :, t], variant)
        for f in range(3):
            gram = params.Q[f] @ params.Q[f].conj().T
            sign, logdet = np.linalg.slogdet(gram)
            oracle += 4 * logdet
        np.testing.assert_allclose(total, oracle, rtol=1e-10)

    def test_identity_q_has_zero_det_term(self):
        params, X = make_setup(seed=14, f=3, t=4, m=2)
        total = log_likelihood(X, params, Gaussian(), floor=1e-12)[0]
        z = np.abs(X) ** 2
        y = compute_ytilde(params, 1e-12)
        oracle = sum(
            log_marginal_density(z[f, :, t], y[f, :, t], Gaussian())
            for f in range(3)
            for t in range(4)
        )
        np.testing.assert_allclose(total, oracle, rtol=1e-12)

    @pytest.mark.parametrize("variant", [Gaussian(), StudentT(nu=4.0)], ids=["gaussian", "t"])
    def test_joint_scaling_shift(self, variant):
        # scaling the data by c and the spectra by |c|^2 shifts the
        # likelihood by exactly -F T M log|c|^2
        params, X = make_setup(seed=15, f=4, t=5, m=2)
        c = 3.0
        scaled = dataclasses.replace(params, W=(c * c) * params.W)
        before = log_likelihood(X, params, variant, floor=1e-30)[0]
        after = log_likelihood(c * X, scaled, variant, floor=1e-30)[0]
        shift = -4 * 5 * 2 * np.log(c * c)
        np.testing.assert_allclose(after - before, shift, rtol=1e-10)

    def test_normalize_invariance(self):
        rng = np.random.default_rng(16)
        for seed in range(3):
            params, X = make_setup(seed=seed, f=4, t=6, m=3, n=3)
            params.Q[:] = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal(
                (4, 3, 3)
            ) + 2.0 * np.eye(3)
            params.W[:] *= rng.lognormal(size=params.W.shape)
            before = log_likelihood(X, params, NIG(rho=15.0, eta=1.0), floor=1e-30)[0]
            after = log_likelihood(
                X, normalize(params), NIG(rho=15.0, eta=1.0), floor=1e-30
            )[0]
            np.testing.assert_allclose(after, before, rtol=1e-9)


class TestPerUpdateMonotonicity:
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=VARIANT_IDS)
    def test_each_update_alone_non_decreasing(self, variant):
        params, X = make_setup(seed=17, f=5, t=8, m=2)
        floor = 1e-12
        steps = {
            "w": lambda p, c: update_w(p, c),
            "h": lambda p, c: update_h(p, c),
            "g": lambda p, c: update_g(p, c),
            "q": lambda p, c: update_q(p, outer_products(X)[0], c),
        }
        for name, step in steps.items():
            before = log_likelihood(X, params, variant, floor=floor)[0]
            cache = e_step(X, params, variant, floor=floor)
            after_params = step(params, cache)
            after = log_likelihood(X, after_params, variant, floor=floor)[0]
            slack = MONOTONE_SLACK * abs(before)
            assert after >= before - slack, f"update_{name} decreased under {variant}"


class TestRun:
    def test_zero_iterations_empty_trace(self):
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=0, seed=3)
        rng = np.random.default_rng(18)
        X = random_mixture(rng, 5, 6, 2)
        params, trace = run(X, cfg)
        assert len(trace) == 0
        assert list(trace) == []
        init = init_params(cfg, X)
        np.testing.assert_array_equal(params.W, init.W)
        np.testing.assert_array_equal(params.H, init.H)
        np.testing.assert_array_equal(params.Q, init.Q)
        np.testing.assert_array_equal(params.Gtilde, init.Gtilde)

    def test_same_seed_identical(self):
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=5, seed=7)
        rng = np.random.default_rng(19)
        X = random_mixture(rng, 6, 7, 2)
        params_a, trace_a = run(X, cfg)
        params_b, trace_b = run(X, cfg)
        assert list(trace_a) == list(trace_b)
        np.testing.assert_array_equal(params_a.W, params_b.W)
        np.testing.assert_array_equal(params_a.H, params_b.H)
        np.testing.assert_array_equal(params_a.Q, params_b.Q)
        np.testing.assert_array_equal(params_a.Gtilde, params_b.Gtilde)

    def test_fifty_iterations_monotone(self):
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=50, seed=0)
        rng = np.random.default_rng(20)
        X = random_mixture(rng, 33, 40, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, trace = run(X, cfg)
        values = list(trace)
        assert len(values) == 50
        for prev, curr in zip(values, values[1:]):
            assert curr >= prev - MONOTONE_SLACK * abs(prev)

    def test_rank1_gaussian_keeps_identity_gtilde(self):
        cfg = SeparationConfig(
            n_sources=2, n_bases=2, iterations=10, rank1=True, seed=1
        )
        rng = np.random.default_rng(21)
        X = random_mixture(rng, 9, 12, 2)
        params, _ = run(X, cfg)
        np.testing.assert_array_equal(params.Gtilde, np.eye(2))

    def test_iterate_yields_run_trace(self):
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=4, seed=2,
                               variant=NIG(rho=15.0, eta=1.0))
        rng = np.random.default_rng(22)
        X = random_mixture(rng, 5, 6, 2)
        params, trace = run(X, cfg)
        steps = list(iterate(X, init_params(cfg, X), cfg))
        assert [ll for _, ll in steps] == trace
        last = steps[-1][0]
        for field in ("W", "H", "Q", "Gtilde"):
            np.testing.assert_array_equal(getattr(last, field),
                                          getattr(params, field))

    def test_mixture_rank_validation(self):
        cfg = SeparationConfig(n_sources=1, n_bases=1, iterations=1)
        with pytest.raises(ValueError, match="expected"):
            run(np.zeros((4, 4), dtype=np.complex128), cfg)

    def test_gaussian_inv_phi_stays_one_through_run(self):
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=3, seed=4)
        rng = np.random.default_rng(24)
        X = random_mixture(rng, 5, 6, 2)
        params, _ = run(X, cfg)
        cache = e_step(X, params, cfg.variant, DEFAULT_FLOOR)
        np.testing.assert_array_equal(cache.inv_phi, np.ones((5, 6)))


class TestRunGuards:
    def test_non_finite_mixture_rejected(self):
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=3, seed=0,
                               variant=NIG(rho=15.0, eta=1.0))
        X = random_mixture(np.random.default_rng(25), 65, 40, 2)
        params = init_params(cfg, X)
        X[3, 0, 4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            run(X, cfg)
        # from given parameters the channel guard's power scale refuses it
        with pytest.raises(ValueError, match="non-finite"):
            next(iterate(X, params, cfg))

    def test_overflowing_mixture_stops_at_first_iteration(self, monkeypatch):
        # finite samples whose power |x|^2 overflows to inf: refused before
        # any work, with no warning
        e_steps = counter(monkeypatch, "e_step")
        solves = counter(monkeypatch, "update_q")
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=3, seed=0)
        X = 1e160 * random_mixture(np.random.default_rng(26), 9, 12, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mixture power overflows float64"):
                run(X, cfg)
        assert (len(e_steps), len(solves)) == (0, 0)

    def test_guard_refuses_overflow_from_given_params(self, monkeypatch):
        # iterate from parameters fitted elsewhere: the channel guard, not
        # init_params, refuses the overflowing Gram
        e_steps = counter(monkeypatch, "e_step")
        solves = counter(monkeypatch, "update_q")
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=3, seed=0)
        X = random_mixture(np.random.default_rng(26), 9, 12, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mixture power overflows float64"):
                next(iterate(1e160 * X, init_params(cfg, X), cfg))
        assert (len(e_steps), len(solves)) == (0, 0)

    def test_non_finite_likelihood_names_iteration(self, monkeypatch):
        calls = []
        real = optimizer.log_marginal_from_s

        def nan_on_third(s, m_dims, variant, *log_y):
            calls.append(None)
            value, inv_phi = real(s, m_dims, variant, *log_y)
            return (value * np.nan if len(calls) == 3 else value), inv_phi

        monkeypatch.setattr(optimizer, "log_marginal_from_s", nan_on_third)
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=5, seed=0)
        X = random_mixture(np.random.default_rng(27), 9, 12, 2)
        with pytest.raises(ArithmeticError, match="at iteration 2"):
            run(X, cfg)

    def test_likelihood_decrease_warns_from_optimizer(self, monkeypatch):
        calls = []
        real = optimizer.log_likelihood

        def drop_on_third(*args, **kwargs):
            calls.append(None)
            value, cache = real(*args, **kwargs)
            return (value - 1e3 if len(calls) == 3 else value), cache

        monkeypatch.setattr(optimizer, "log_likelihood", drop_on_third)
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=5, seed=0)
        X = random_mixture(np.random.default_rng(27), 9, 12, 2)
        with pytest.warns(RuntimeWarning,
                          match="decreased beyond slack at iteration 2") as caught:
            run(X, cfg)
        # attributed to the optimizer, so the test suite's
        # error::RuntimeWarning:gsmsep.optimizer filter covers it
        assert [w.filename for w in caught] == [optimizer.__file__]


def counter(monkeypatch, name):
    # calls of optimizer.<name>, counted through the module attribute
    calls = []
    real = getattr(optimizer, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizer, name, counted)
    return calls


def bad_layout(kind):
    # 3-channel mixture with one whole-clip layout fault, and the message
    X = random_mixture(np.random.default_rng(44), 17, 20, 3)
    if kind == "silent":
        X[:, 1] = 0.0
        return X, "channel 2 is silent"
    if kind == "duplicate":
        X[:, 2] = X[:, 0]
        return X, "channels 1 and 3 are linearly dependent"
    if kind == "scaled":
        X[:, 2] = (0.3 - 2.0j) * X[:, 1]
        return X, "channels 2 and 3 are linearly dependent"
    if kind == "upmix":
        X[:, 2] = (X[:, 0] + X[:, 1]) / 2
        return X, "channels 1, 2 and 3 are linearly dependent"
    if kind == "upmix-diff":
        X[:, 2] = X[:, 0] - X[:, 1] / 2
        return X, "channels 1, 2 and 3 are linearly dependent"
    return np.zeros_like(X), "channel 1 is silent; channel 2 is silent; channel 3"


LAYOUTS = ["silent", "duplicate", "scaled", "upmix", "upmix-diff", "all-zero"]


class TestChannelGuard:
    @pytest.mark.parametrize("kind", LAYOUTS)
    @pytest.mark.parametrize("entry", ["run", "iterate"])
    def test_refused_before_the_first_e_step(self, kind, entry, monkeypatch):
        calls = counter(monkeypatch, "e_step")
        X, message = bad_layout(kind)
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=3, seed=0,
                               variant=NIG(rho=15.0, eta=1.0))
        with pytest.raises(optimizer.ChannelLayoutError, match=message):
            if entry == "run":
                run(X, cfg)
            else:
                next(iterate(X, init_params(cfg, X), cfg))
        assert len(calls) == 0

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_extreme_scale_is_not_a_copy(self, scale):
        # |G_12|^2 and G_11 G_22 both under- or overflow at these scales,
        # so a copy is told from independent channels without forming them
        X = scale * random_mixture(np.random.default_rng(47), 9, 12, 2)
        optimizer.check_channel_layout(outer_products(X)[1], 9 * 12)
        X[:, 1] = -3.0 * X[:, 0]
        with pytest.raises(optimizer.ChannelLayoutError,
                           match="channels 1 and 2 are linearly dependent"):
            optimizer.check_channel_layout(outer_products(X)[1], 9 * 12)

    def test_channel_silent_in_half_the_bins_reaches_the_optimizer(self, monkeypatch):
        calls = counter(monkeypatch, "e_step")
        X = random_mixture(np.random.default_rng(45), 17, 20, 2)
        X[:9, 1] = 0.0
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, trace = run(X, cfg)
        assert len(calls) == 3
        assert np.all(np.isfinite(trace))

    def test_above_the_channel_cap_fails_before_any_work(self, monkeypatch):
        built = counter(monkeypatch, "outer_products")
        solved = counter(monkeypatch, "update_q")
        m = linalg.MAX_DIM + 1
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=1, seed=0)
        X = random_mixture(np.random.default_rng(46), 5, 6, m)
        with pytest.raises(ValueError, match=f"{m} channels in .*, over {m - 1}"):
            run(X, cfg)
        # from given parameters, iterate's check of Q refuses them
        params = init_params(cfg, X[:, :m - 1])
        params = dataclasses.replace(params, Q=np.tile(np.eye(m, dtype=complex), (5, 1, 1)),
                                     Gtilde=np.ones((2, m)))
        with pytest.raises(ValueError, match=f"matrix dimension {m} exceeds"
                                             f" the supported maximum {m - 1}"):
            next(iterate(X, params, cfg))
        assert (len(built), len(solved)) == (0, 0)


class TestUpdateQWarnings:
    def test_silent_channel_at_most_two_warnings_per_iteration(self):
        # a channel silent over the whole clip is refused before the first
        # iteration; silent in bins 0-32 only, it reaches update_q
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=3, seed=0,
                               variant=NIG(rho=15.0, eta=1.0))
        X = random_mixture(np.random.default_rng(28), 65, 40, 2)
        X[:33, 1] = 0.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(X, cfg)
        assert 0 < len(caught) <= 2 * cfg.iterations
        for w in caught:
            assert "(f, m) rows" in str(w.message)


class TestGoldenTrace:
    """3-iteration traces on 1 s `synth_scene` mixtures, recorded when
    every per-bin array was frame-major, (F, T, M).  The channel-major
    layout reorders a few sums (G~'s over (f, t), Q_f x_ft, the guard's
    Gram), so the traces agree to rounding."""

    CASES = [  # (N = M, variant, K, trace)
        (2, NIG(rho=15.0, eta=1.0), 8,
         [-515982.6695777887, -506030.72069325845, -498086.6580607103]),
        (4, StudentT(nu=40.0), 8,
         [-1057917.7628508443, -1049141.4834113738, -1044442.8172064458]),
        (8, GH(gamma=-2.0, rho=15.0, eta=1.0), 16,
         [-2278192.169595834, -2254276.9779635356, -2242477.431265306]),
    ]

    @pytest.mark.parametrize("n,variant,k,expected", CASES, ids=["2x2-nig", "4x4-t", "8x8-gh"])
    def test_matches_the_frame_major_trace(self, n, variant, k, expected):
        scene = synth_scene(n, n, 1.0, seed=0)
        X = stft_forward(scene.mixture.samples, StftConfig())
        cfg = SeparationConfig(n_sources=n, n_bases=k, iterations=3, variant=variant)
        _, trace = run(X, cfg)
        np.testing.assert_allclose(trace, expected, rtol=1e-12, atol=0)


class TestLevelInvariance:
    @pytest.fixture(scope="class")
    def scene_stft(self):
        scene = synth_scene(2, 2, 1.0, seed=0)
        return stft_forward(scene.mixture.samples, StftConfig())

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=VARIANT_IDS)
    def test_power_of_two_gain_moves_into_h(self, variant, scene_stft):
        # the floor and the starting W follow the mixture's power scale, so
        # 2^k X is fitted exactly as X: every power, so H, scales by 4^k
        # and the trace shifts by the Jacobian -2k MFT log 2
        cfg = SeparationConfig(n_sources=2, n_bases=4, iterations=8, seed=0,
                               variant=variant)
        base, base_trace = run(scene_stft, cfg)
        for k in (-400, -100, -20, 20, 100, 400):
            params, trace = run(2.0 ** k * scene_stft, cfg)
            for field in ("W", "Q", "Gtilde"):
                np.testing.assert_array_equal(getattr(params, field),
                                              getattr(base, field), err_msg=f"{field}, k={k}")
            np.testing.assert_array_equal(params.H, 4.0 ** k * base.H)
            shift = 2 * k * scene_stft.size * np.log(2.0)
            np.testing.assert_allclose(trace, np.array(base_trace) - shift,
                                       rtol=1e-12, atol=0)

    def test_direct_likelihood_takes_the_run_floor(self, scene_stft):
        # at -97 dBFS the variance floor binds: a direct call must be given
        # the run's floor, DEFAULT_FLOOR times the mixture's power scale,
        # to reproduce what iterate reports for the same parameters
        X = 1e-5 * scene_stft
        variant = NIG(rho=15.0, eta=1.0)
        cfg = SeparationConfig(n_sources=2, n_bases=4, iterations=5, seed=0,
                               variant=variant)
        *_, (params, reported) = iterate(X, init_params(cfg, X), cfg)
        floor = DEFAULT_FLOOR * power_scale(np.sum(np.abs(X) ** 2), X.size)
        assert log_likelihood(X, params, variant, floor)[0] == reported
        assert log_likelihood(X, params, variant, DEFAULT_FLOOR)[0] != reported
        with pytest.raises(TypeError, match="floor"):
            log_likelihood(X, params, variant)
        with pytest.raises(TypeError, match="floor"):
            e_step(X, params, variant)

RUN_CASES = [(v, False) for v in ALL_VARIANTS] + [(Gaussian(), True), (NIG(rho=15.0, eta=1.0), True)]
RUN_CASE_IDS = VARIANT_IDS + ["gaussian-rank1", "nig-rank1"]


class TestFusedLoop:
    @pytest.mark.parametrize("variant,rank1", RUN_CASES, ids=RUN_CASE_IDS)
    def test_run_matches_public_step_sequence(self, variant, rank1):
        # run() reuses the likelihood's cache for the next E-step, and its
        # H and G~ updates form their own y~; the trace and parameters must
        # equal, bit for bit, the three-refresh loop that recomputes the
        # E-step every iteration
        cfg = SeparationConfig(n_sources=2, n_bases=3, iterations=6, seed=5,
                               variant=variant, rank1=rank1)
        X = random_mixture(np.random.default_rng(29), 17, 20, 2)
        params, trace = run(X, cfg)

        expected_params = init_params(cfg, X)
        floor = DEFAULT_FLOOR * power_scale(np.sum(np.abs(X) ** 2), X.size)
        expected = []
        for _ in range(cfg.iterations):
            expected_params, ll, _ = oracles.three_refresh_iteration(
                X, expected_params, e_step(X, expected_params, variant, floor),
                variant, floor, rank1)
            expected.append(ll)
        assert trace == expected
        for name in ("W", "H", "Q", "Gtilde"):
            assert np.array_equal(getattr(params, name), getattr(expected_params, name)), name

    def test_returned_cache_equals_fresh_e_step(self):
        params, X = make_setup(seed=30, f=5, t=7, m=2)
        for variant in ALL_VARIANTS + [GH(gamma=-1.7, rho=3.0, eta=1.0)]:
            _, cache = log_likelihood(X, params, variant, DEFAULT_FLOOR)
            assert e_step(X, params, variant, DEFAULT_FLOOR, cache=cache) is cache
            fresh = e_step(X, params, variant, DEFAULT_FLOOR)
            for field in ("y_tilde", "inv_phi", "z_hat"):
                np.testing.assert_array_equal(getattr(cache, field),
                                              getattr(fresh, field),
                                              err_msg=f"{field} under {variant}")

    @pytest.mark.parametrize("rank1,per_iteration", [(True, 0), (False, 1)])
    def test_rank1_skips_the_g_update(self, rank1, per_iteration, monkeypatch):
        calls = counter(monkeypatch, "update_g")
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=4,
                               rank1=rank1, seed=1)
        params, _ = run(random_mixture(np.random.default_rng(21), 9, 12, 2), cfg)
        assert len(calls) == per_iteration * cfg.iterations
        if rank1:
            np.testing.assert_array_equal(params.Gtilde, np.eye(2))

    @pytest.mark.parametrize("iterations,builds", [(0, 0), (3, 1)])
    def test_statistics_built_once_per_run(self, iterations, builds,
                                           monkeypatch):
        calls = counter(monkeypatch, "outer_products")
        cfg = SeparationConfig(n_sources=2, n_bases=3, iterations=iterations,
                               seed=5)
        _, trace = run(random_mixture(np.random.default_rng(43), 9, 10, 2), cfg)
        assert len(trace) == iterations
        assert len(calls) == builds

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=VARIANT_IDS)
    def test_one_inv_phi_evaluation_per_run(self, variant, monkeypatch):
        # only the first E-step evaluates E[1/phi] on its own; every later
        # one takes it from the previous likelihood's log_marginal_from_s
        calls = counter(monkeypatch, "inv_phi_from_s")
        cfg = SeparationConfig(n_sources=2, n_bases=3, iterations=4, seed=5,
                               variant=variant)
        run(random_mixture(np.random.default_rng(31), 17, 20, 2), cfg)
        assert len(calls) == 1


class TestBufferReuse:
    """`iterate` writes each iteration's y~, z^ and s over the arrays of the
    cache the M-step has finished with, instead of allocating new ones."""

    def test_likelihood_over_a_spent_cache_matches_a_fresh_one(self):
        variant = StudentT(nu=4.0)
        params, X = make_setup(seed=31, f=9, t=11, m=3)
        _, spent = log_likelihood(X, params, variant, DEFAULT_FLOOR)
        moved = update_q(update_w(params, spent), outer_products(X)[0], spent)
        fresh_ll, fresh = log_likelihood(X, moved, variant, DEFAULT_FLOOR)
        ll, cache = log_likelihood(X, moved, variant, DEFAULT_FLOOR, spent)
        assert ll == fresh_ll
        for field in ("y_tilde", "inv_phi", "z_hat"):
            np.testing.assert_array_equal(getattr(cache, field), getattr(fresh, field),
                                          err_msg=field)
        assert cache.y_tilde is spent.y_tilde and cache.z_hat is spent.z_hat

    @pytest.mark.parametrize("variant,rank1", [
        (StudentT(nu=4.0), False), (GH(gamma=-1.7, rho=3.0, eta=1.0), False),
        (NIG(rho=15.0, eta=1.0), True)], ids=["t", "gh", "nig-rank1"])
    def test_iterate_matches_a_replica_with_fresh_arrays(self, variant, rank1):
        # every yield is kept until the end, so a later iteration that wrote
        # over an array an earlier yield holds would show
        cfg = SeparationConfig(n_sources=2, n_bases=3, iterations=3, seed=7,
                               variant=variant, rank1=rank1)
        X = random_mixture(np.random.default_rng(37), 13, 15, 2)
        yielded = list(iterate(X, init_params(cfg, X), cfg))

        params = init_params(cfg, X)
        floor = DEFAULT_FLOOR * power_scale(np.sum(np.abs(X) ** 2), X.size)
        cache = e_step(X, params, variant, floor)
        assert len(yielded) == cfg.iterations
        for got_params, got_ll in yielded:
            params, ll, cache = oracles.three_refresh_iteration(
                X, params, cache, variant, floor, rank1)
            assert got_ll == ll
            for name in ("W", "H", "Q", "Gtilde"):
                assert np.array_equal(getattr(got_params, name), getattr(params, name)), name

    def test_run_peak_holds_the_statistics_and_four_model_arrays(self):
        # tracemalloc peak of a second run (the first starts what a process
        # starts once) less the resident outer products S: the cache's y~
        # and z^ are 2 of the 4 y~-sized arrays allowed, the likelihood's
        # (F, T) arrays and the blocks' temporaries the rest; allocating a
        # new cache while the previous one is alive took 5.6
        X = random_mixture(np.random.default_rng(47), 257, 600, 4)
        cfg = SeparationConfig(n_sources=2, n_bases=4, iterations=3,
                               variant=StudentT(nu=4.0))
        run(X, cfg)
        tracemalloc.start()
        try:
            run(X, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_freq, n_chan, n_frames = X.shape
        y_tilde_bytes = 8 * X.size
        s_bytes = 8 * n_freq * n_chan * n_chan * n_frames
        assert peak - s_bytes <= 4.0 * y_tilde_bytes
