"""Tests for the MU-VEM loop.

The likelihood is checked against a per-bin Python-loop oracle, each
update against fixed points and hand-derived scalar cases, and the
diagonalizer projection against its unit-scale post-condition with the
weighted covariances recomputed independently.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from gsmsep.model import (
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
    source_psd,
)
from gsmsep.optimizer import (
    EStepCache,
    MONOTONE_SLACK,
    e_step,
    log_likelihood,
    project_mixture,
    run,
    update_g,
    update_h,
    update_q,
    update_w,
)
from gsmsep.priors import log_marginal_density

ALL_VARIANTS = [
    Gaussian(),
    StudentT(nu=4.0),
    LeptokurticGG(beta=1.2),
    GH(gamma=-2.0, rho=3.0, eta=1.0),
    NIG(rho=15.0, eta=1.0),
]
VARIANT_IDS = ["gaussian", "t", "gg", "gh", "nig"]


def random_mixture(rng, f, t, m):
    return rng.standard_normal((f, t, m)) + 1j * rng.standard_normal((f, t, m))


def make_setup(seed=0, n=2, k=2, f=6, t=8, m=2, eps=0.01):
    cfg = SeparationConfig(n_sources=n, n_bases=k, iterations=1, eps_init=eps, seed=seed)
    params = init_params(cfg, f, t, m)
    rng = np.random.default_rng(seed + 1000)
    X = random_mixture(rng, f, t, m)
    return params, X


class TestProjectMixture:
    def test_row_convention(self):
        rng = np.random.default_rng(0)
        X = random_mixture(rng, 3, 4, 2)
        Q = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        out = project_mixture(X, Q)
        for f in range(3):
            for t in range(4):
                np.testing.assert_allclose(out[f, t], Q[f] @ X[f, t], rtol=1e-14)


class TestEStep:
    def test_gaussian_inv_phi_is_one(self):
        params, X = make_setup()
        cache = e_step(X, params, Gaussian())
        np.testing.assert_array_equal(cache.inv_phi, np.ones((6, 8)))
        np.testing.assert_array_equal(cache.z_hat, cache.z_tilde)

    def test_identity_q_gives_magnitudes(self):
        params, X = make_setup()
        cache = e_step(X, params, Gaussian())
        np.testing.assert_allclose(cache.z_tilde, np.abs(X) ** 2, rtol=1e-14)

    def test_s_matches_naive_loop(self):
        params, X = make_setup(seed=3)
        variant = StudentT(nu=5.0)
        cache = e_step(X, params, variant)
        half_nu = 2.5
        for f in range(params.n_freq):
            for t in range(params.n_frames):
                s = sum(
                    cache.z_tilde[f, t, m] / cache.y_tilde[f, t, m]
                    for m in range(params.n_channels)
                )
                expected = (half_nu + params.n_channels) / (half_nu + s)
                assert cache.inv_phi[f, t] == pytest.approx(expected, rel=1e-12)

    def test_z_hat_weighting(self):
        params, X = make_setup(seed=4)
        cache = e_step(X, params, StudentT(nu=3.0))
        np.testing.assert_allclose(
            cache.z_hat, cache.inv_phi[:, :, None] * cache.z_tilde, rtol=1e-14
        )

    def test_shape_mismatch(self):
        params, X = make_setup()
        with pytest.raises(ValueError, match="inconsistent"):
            e_step(X[:, :4], params, Gaussian())


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
            z_tilde=np.full((1, 1, 1), z_hat),
            y_tilde=np.full((1, 1, 1), y),
            inv_phi=np.ones((1, 1)),
            z_hat=np.full((1, 1, 1), z_hat),
        )
        out = update_w(params, cache)
        assert out.W[0, 0, 0] == pytest.approx(w * np.sqrt(z_hat / y), rel=1e-14)

    def test_rank1_g_update_is_noop(self):
        params, X = make_setup(seed=6)
        cache = e_step(X, params, Gaussian())
        out = update_g(params, cache, rank1=True)
        assert out.Gtilde is params.Gtilde

    def test_updates_preserve_nonnegativity(self):
        params, X = make_setup(seed=7)
        cache = e_step(X, params, StudentT(nu=3.0))
        assert np.all(update_w(params, cache).W >= 0)
        assert np.all(update_h(params, cache).H >= 0)
        assert np.all(update_g(params, cache).Gtilde >= 0)


class TestUpdateQ:
    def test_identity_fixed_point(self):
        # white data with unit model variance: V_fm = I, so the
        # projection returns the basis vectors and Q stays identity
        cfg = SeparationConfig(n_sources=2, n_bases=1, iterations=1, rank1=True)
        params = init_params(cfg, n_freq=3, n_frames=2, n_channels=2)
        params.W[:] = 1.0
        params.H[:] = 1.0
        X = np.zeros((3, 2, 2), dtype=np.complex128)
        X[:, 0, 0] = np.sqrt(2.0)
        X[:, 1, 1] = np.sqrt(2.0)
        cache = e_step(X, params, Gaussian())
        out = update_q(params, X, cache)
        np.testing.assert_allclose(out.Q, params.Q, atol=1e-14)

    def test_single_channel_unit_scale(self):
        # M = 1: the rescale forces |q|^2 V = 1 exactly
        cfg = SeparationConfig(n_sources=1, n_bases=2, iterations=1)
        params = init_params(cfg, n_freq=4, n_frames=16, n_channels=1)
        rng = np.random.default_rng(8)
        X = random_mixture(rng, 4, 16, 1)
        cache = e_step(X, params, Gaussian())
        out = update_q(params, X, cache)
        weight = cache.inv_phi / cache.y_tilde[:, :, 0]
        V_F = np.mean(weight * np.abs(X[:, :, 0]) ** 2, axis=1)
        np.testing.assert_allclose(
            np.abs(out.Q[:, 0, 0]) ** 2 * V_F, 1.0, rtol=1e-12
        )

    def test_unit_quadratic_form_postcondition(self):
        params, X = make_setup(seed=9, f=5, t=24, m=2)
        cache = e_step(X, params, StudentT(nu=4.0))
        out = update_q(params, X, cache)
        for m in range(params.n_channels):
            weight = cache.inv_phi / cache.y_tilde[:, :, m]
            V = (
                np.matmul((X * weight[:, :, None]).transpose(0, 2, 1), X.conj())
                / params.n_frames
            )
            q = out.Q[:, m, :].conj()
            form = np.einsum("fi,fij,fj->f", q.conj(), V, q).real
            np.testing.assert_allclose(form, 1.0, atol=1e-10)

    def test_singular_system_keeps_row(self):
        params, X = make_setup(seed=10, f=3, t=4, m=2)
        X[:] = 0.0  # V collapses, every system is singular
        cache = e_step(X, params, Gaussian())
        with pytest.warns(RuntimeWarning, match="singular diagonalizer system"):
            out = update_q(params, X, cache)
        np.testing.assert_array_equal(out.Q, params.Q)

    def test_input_params_not_mutated(self):
        params, X = make_setup(seed=11)
        Q0 = params.Q.copy()
        cache = e_step(X, params, Gaussian())
        update_q(params, X, cache)
        np.testing.assert_array_equal(params.Q, Q0)


class TestLogLikelihood:
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=VARIANT_IDS)
    def test_matches_per_bin_oracle(self, variant):
        params, X = make_setup(seed=12, f=3, t=4, m=2)
        rng = np.random.default_rng(13)
        params.Q[:] = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal(
            (3, 2, 2)
        )
        total = log_likelihood(X, params, variant, floor=1e-12)

        z = np.abs(project_mixture(X, params.Q)) ** 2
        y = compute_ytilde(params, 1e-12)
        oracle = 0.0
        for f in range(3):
            for t in range(4):
                oracle += log_marginal_density(z[f, t], y[f, t], variant)
        for f in range(3):
            gram = params.Q[f] @ params.Q[f].conj().T
            sign, logdet = np.linalg.slogdet(gram)
            oracle += 4 * logdet
        np.testing.assert_allclose(total, oracle, rtol=1e-10)

    def test_identity_q_has_zero_det_term(self):
        params, X = make_setup(seed=14, f=3, t=4, m=2)
        total = log_likelihood(X, params, Gaussian(), floor=1e-12)
        z = np.abs(X) ** 2
        y = compute_ytilde(params, 1e-12)
        oracle = sum(
            log_marginal_density(z[f, t], y[f, t], Gaussian())
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
        before = log_likelihood(X, params, variant, floor=1e-30)
        after = log_likelihood(c * X, scaled, variant, floor=1e-30)
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
            before = log_likelihood(X, params, NIG(rho=15.0, eta=1.0), floor=1e-30)
            after = log_likelihood(
                X, normalize(params), NIG(rho=15.0, eta=1.0), floor=1e-30
            )
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
            "q": lambda p, c: update_q(p, X, c),
        }
        for name, step in steps.items():
            before = log_likelihood(X, params, variant, floor=floor)
            cache = e_step(X, params, variant, floor=floor)
            after_params = step(params, cache)
            after = log_likelihood(X, after_params, variant, floor=floor)
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
        init = init_params(cfg, 5, 6, 2)
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

    def test_progress_callback_matches_trace(self):
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=4, seed=2)
        rng = np.random.default_rng(22)
        X = random_mixture(rng, 5, 6, 2)
        seen = []
        _, trace = run(X, cfg, progress=lambda i, ll: seen.append((i, ll)))
        assert [i for i, _ in seen] == [0, 1, 2, 3]
        assert [ll for _, ll in seen] == list(trace)

    def test_mixture_rank_validation(self):
        cfg = SeparationConfig(n_sources=1, n_bases=1, iterations=1)
        with pytest.raises(ValueError, match="expected"):
            run(np.zeros((4, 4), dtype=np.complex128), cfg)

    def test_gaussian_inv_phi_stays_one_through_run(self):
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=3, seed=4)
        rng = np.random.default_rng(24)
        X = random_mixture(rng, 5, 6, 2)
        params, _ = run(X, cfg)
        cache = e_step(X, params, cfg.variant, cfg.floor)
        np.testing.assert_array_equal(cache.inv_phi, np.ones((5, 6)))
