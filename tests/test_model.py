"""Tests for the spatial-model parameter layer.

source_psd and compute_ytilde are checked against explicit Python loops
over every index; normalization is checked against hand-computed pushes
of each scale ambiguity.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsmsep.model import (
    GH,
    NIG,
    DegenerateParameterError,
    Gaussian,
    LeptokurticGG,
    ModelParams,
    SeparationConfig,
    StudentT,
    compute_ytilde,
    gh_from_ab,
    init_params,
    normalize,
    source_psd,
)


def random_params(rng, n, k, f, t, m) -> ModelParams:
    Q = rng.standard_normal((f, m, m)) + 1j * rng.standard_normal((f, m, m))
    Q += 2.0 * m * np.eye(m)
    return ModelParams(
        W=rng.lognormal(size=(n, k, f)),
        H=rng.lognormal(size=(n, k, t)),
        Q=Q,
        Gtilde=rng.lognormal(size=(n, m)),
    )


class TestVariants:
    def test_student_t_validation(self):
        StudentT(nu=4.0)
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                StudentT(nu=bad)

    def test_gg_validation(self):
        LeptokurticGG(beta=2.0)
        LeptokurticGG(beta=0.5)
        for bad in (0.0, 2.5, -1.0, float("nan")):
            with pytest.raises(ValueError):
                LeptokurticGG(beta=bad)

    def test_gh_validation(self):
        GH(gamma=-2.0, rho=1.0, eta=5.0)
        with pytest.raises(ValueError):
            GH(gamma=float("nan"), rho=1.0, eta=1.0)
        with pytest.raises(ValueError):
            GH(gamma=0.0, rho=0.0, eta=1.0)
        with pytest.raises(ValueError):
            GH(gamma=0.0, rho=1.0, eta=-1.0)

    def test_nig_is_gh_with_fixed_gamma(self):
        assert NIG(rho=15.0, eta=1.0).gamma == NIG.gamma == -0.5
        with pytest.raises(ValueError):
            NIG(rho=-1.0, eta=1.0)

    def test_gh_from_ab_parameterization(self):
        gh = gh_from_ab(gamma=-2.0, a=0.25, b=16.0)
        assert gh.rho == pytest.approx(2.0)
        assert gh.eta == pytest.approx(8.0)
        assert gh.gamma == -2.0
        # recover (a, b) = (rho/eta, rho*eta)
        assert gh.rho / gh.eta == pytest.approx(0.25)
        assert gh.rho * gh.eta == pytest.approx(16.0)
        with pytest.raises(ValueError):
            gh_from_ab(0.0, a=-1.0, b=1.0)
        with pytest.raises(ValueError):
            gh_from_ab(0.0, a=1.0, b=0.0)


class TestSeparationConfig:
    def test_zero_iterations_allowed(self):
        cfg = SeparationConfig(n_sources=2, n_bases=4, iterations=0)
        assert cfg.iterations == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SeparationConfig(n_sources=0, n_bases=4, iterations=1)
        with pytest.raises(ValueError):
            SeparationConfig(n_sources=2, n_bases=0, iterations=1)
        with pytest.raises(ValueError):
            SeparationConfig(n_sources=2, n_bases=4, iterations=-1)
        with pytest.raises(ValueError):
            SeparationConfig(n_sources=2, n_bases=4, iterations=1, eps_init=-0.1)
        with pytest.raises(ValueError):
            SeparationConfig(n_sources=2, n_bases=4, iterations=1, floor=0.0)

    def test_defaults(self):
        cfg = SeparationConfig(n_sources=2, n_bases=8, iterations=10)
        assert cfg.variant == Gaussian()
        assert cfg.rank1 is False
        assert cfg.eps_init == 1e-2
        assert cfg.floor == 1e-10
        assert cfg.seed == 0


class TestInitParams:
    def test_rank1_gtilde_is_identity(self):
        cfg = SeparationConfig(n_sources=2, n_bases=3, iterations=1, rank1=True)
        params = init_params(cfg, n_freq=5, n_frames=7, n_channels=2)
        np.testing.assert_array_equal(params.Gtilde, np.eye(2))

    def test_gtilde_cyclic_pattern(self):
        cfg = SeparationConfig(n_sources=2, n_bases=3, iterations=1, eps_init=0.01)
        params = init_params(cfg, n_freq=5, n_frames=7, n_channels=4)
        np.testing.assert_array_equal(
            params.Gtilde,
            [[1.0, 0.01, 1.0, 0.01], [0.01, 1.0, 0.01, 1.0]],
        )

    def test_q_starts_at_identity(self):
        cfg = SeparationConfig(n_sources=3, n_bases=2, iterations=1)
        params = init_params(cfg, n_freq=4, n_frames=6, n_channels=3)
        np.testing.assert_array_equal(
            params.Q, np.tile(np.eye(3, dtype=np.complex128), (4, 1, 1))
        )

    def test_same_seed_identical(self):
        cfg = SeparationConfig(n_sources=2, n_bases=3, iterations=1, seed=42)
        a = init_params(cfg, 5, 7, 2)
        b = init_params(cfg, 5, 7, 2)
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.H, b.H)

    def test_different_seeds_differ(self):
        make = lambda seed: init_params(
            SeparationConfig(n_sources=2, n_bases=3, iterations=1, seed=seed), 5, 7, 2
        )
        assert not np.array_equal(make(0).W, make(1).W)

    def test_wh_nonnegative(self):
        cfg = SeparationConfig(n_sources=2, n_bases=3, iterations=1)
        params = init_params(cfg, 16, 20, 2)
        assert np.all(params.W >= 0)
        assert np.all(params.H >= 0)

    def test_rank1_requires_square(self):
        cfg = SeparationConfig(n_sources=2, n_bases=3, iterations=1, rank1=True)
        with pytest.raises(ValueError, match="rank-1"):
            init_params(cfg, 5, 7, 4)

    def test_underdetermined_rejected(self):
        cfg = SeparationConfig(n_sources=3, n_bases=2, iterations=1)
        with pytest.raises(ValueError, match="underdetermined"):
            init_params(cfg, 5, 7, 2)


class TestModelParams:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="inconsistent with W"):
            ModelParams(
                W=np.ones((2, 3, 5)),
                H=np.ones((2, 4, 7)),
                Q=np.tile(np.eye(2, dtype=complex), (5, 1, 1)),
                Gtilde=np.ones((2, 2)),
            )
        with pytest.raises(ValueError, match="Q shape"):
            ModelParams(
                W=np.ones((2, 3, 5)),
                H=np.ones((2, 3, 7)),
                Q=np.tile(np.eye(2, dtype=complex), (4, 1, 1)),
                Gtilde=np.ones((2, 2)),
            )

    def test_properties(self):
        rng = np.random.default_rng(0)
        params = random_params(rng, 2, 3, 5, 7, 4)
        assert params.n_sources == 2
        assert params.n_bases == 3
        assert params.n_freq == 5
        assert params.n_frames == 7
        assert params.n_channels == 4


class TestNormalize:
    def test_gtilde_row_push(self):
        # Q = I/2 makes the mixing-matrix scale exactly 1, so only the
        # channel-weight and basis-sum pushes act; a (2, 2) row becomes
        # (1/2, 1/2) and its factor 4 lands on W
        f, m = 3, 2
        W = np.full((1, 1, f), 0.25 / f)  # sums to 0.25 so the last push is idle
        params = ModelParams(
            W=W,
            H=np.ones((1, 1, 4)),
            Q=np.tile(0.5 * np.eye(m, dtype=complex), (f, 1, 1)),
            Gtilde=np.array([[2.0, 2.0]]),
        )
        out = normalize(params)
        np.testing.assert_allclose(out.Gtilde, [[0.5, 0.5]], atol=1e-15)
        np.testing.assert_allclose(out.W, 4.0 * W, rtol=1e-14)
        np.testing.assert_allclose(out.H, params.H, rtol=1e-14)
        np.testing.assert_allclose(out.Q, params.Q, rtol=1e-14)

    def test_postconditions(self):
        rng = np.random.default_rng(1)
        params = normalize(random_params(rng, 3, 4, 6, 8, 3))
        m = params.n_channels
        trace = np.einsum("fij,fij->f", params.Q, params.Q.conj()).real
        np.testing.assert_allclose(trace, 1.0 / m, rtol=1e-12)
        np.testing.assert_allclose(params.Gtilde.sum(axis=1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(params.W.sum(axis=2), 1.0, rtol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        once = normalize(random_params(rng, 2, 3, 5, 7, 2))
        twice = normalize(once)
        np.testing.assert_allclose(twice.W, once.W, rtol=1e-12)
        np.testing.assert_allclose(twice.H, once.H, rtol=1e-12)
        np.testing.assert_allclose(twice.Q, once.Q, rtol=1e-12)
        np.testing.assert_allclose(twice.Gtilde, once.Gtilde, rtol=1e-12)

    def test_input_not_mutated(self):
        rng = np.random.default_rng(3)
        params = random_params(rng, 2, 3, 5, 7, 2)
        W0 = params.W.copy()
        normalize(params)
        np.testing.assert_array_equal(params.W, W0)

    def test_zero_q_raises(self):
        params = ModelParams(
            W=np.ones((1, 1, 2)),
            H=np.ones((1, 1, 2)),
            Q=np.zeros((2, 2, 2), dtype=complex),
            Gtilde=np.ones((1, 2)),
        )
        with pytest.raises(DegenerateParameterError, match="mixing-matrix scale"):
            normalize(params)

    def test_zero_gtilde_row_raises(self):
        params = ModelParams(
            W=np.ones((2, 1, 2)),
            H=np.ones((2, 1, 2)),
            Q=np.tile(np.eye(2, dtype=complex), (2, 1, 1)),
            Gtilde=np.array([[1.0, 1.0], [0.0, 0.0]]),
        )
        with pytest.raises(DegenerateParameterError, match="channel-weight"):
            normalize(params)

    def test_zero_basis_raises(self):
        W = np.ones((1, 2, 3))
        W[0, 1] = 0.0
        params = ModelParams(
            W=W,
            H=np.ones((1, 2, 4)),
            Q=np.tile(np.eye(2, dtype=complex), (3, 1, 1)),
            Gtilde=np.ones((1, 2)),
        )
        with pytest.raises(DegenerateParameterError, match="basis-spectrum"):
            normalize(params)


class TestSourcePsd:
    def test_single_basis_product(self):
        params = ModelParams(
            W=np.full((1, 1, 1), 2.0),
            H=np.full((1, 1, 1), 3.0),
            Q=np.eye(1, dtype=complex)[None],
            Gtilde=np.ones((1, 1)),
        )
        np.testing.assert_allclose(source_psd(params), [[[6.0]]])

    def test_zero_activations(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, 2, 3, 5, 7, 2)
        params.H[:] = 0.0
        np.testing.assert_array_equal(source_psd(params), np.zeros((2, 5, 7)))

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, 2, 3, 4, 6, 2)
        lam = source_psd(params)
        for n in range(2):
            for f in range(4):
                for t in range(6):
                    expected = sum(
                        params.W[n, k, f] * params.H[n, k, t] for k in range(3)
                    )
                    assert lam[n, f, t] == pytest.approx(expected, rel=1e-12)


class TestComputeYtilde:
    def test_all_ones(self):
        params = ModelParams(
            W=np.ones((1, 1, 2)),
            H=np.ones((1, 1, 3)),
            Q=np.tile(np.eye(2, dtype=complex), (2, 1, 1)),
            Gtilde=np.ones((1, 2)),
        )
        np.testing.assert_allclose(
            compute_ytilde(params, 1e-10), np.ones((2, 3, 2))
        )

    def test_rank1_identity_gives_psd_per_channel(self):
        cfg = SeparationConfig(n_sources=2, n_bases=3, iterations=1, rank1=True)
        params = init_params(cfg, 4, 5, 2)
        lam = source_psd(params)
        y = compute_ytilde(params, 1e-30)
        for m in range(2):
            np.testing.assert_allclose(y[:, :, m], lam[m], rtol=1e-14)

    def test_quadruple_loop_oracle(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, 2, 3, 4, 5, 3)
        y = compute_ytilde(params, 1e-30)
        lam = source_psd(params)
        for f in range(4):
            for t in range(5):
                for m in range(3):
                    expected = sum(
                        lam[n, f, t] * params.Gtilde[n, m] for n in range(2)
                    )
                    assert y[f, t, m] == pytest.approx(expected, rel=1e-12)

    def test_floor_applied(self):
        params = ModelParams(
            W=np.zeros((1, 1, 2)),
            H=np.zeros((1, 1, 3)),
            Q=np.tile(np.eye(2, dtype=complex), (2, 1, 1)),
            Gtilde=np.ones((1, 2)),
        )
        np.testing.assert_array_equal(
            compute_ytilde(params, 1e-6), np.full((2, 3, 2), 1e-6)
        )

    def test_bad_floor(self):
        rng = np.random.default_rng(7)
        params = random_params(rng, 1, 1, 2, 2, 2)
        with pytest.raises(ValueError, match="floor"):
            compute_ytilde(params, 0.0)


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 3),
    m=st.integers(1, 4),
)
def test_property_normalize_postconditions(seed, n, m):
    if n > m:
        m = n
    rng = np.random.default_rng(seed)
    params = normalize(random_params(rng, n, 2, 3, 4, m))
    trace = np.einsum("fij,fij->f", params.Q, params.Q.conj()).real
    np.testing.assert_allclose(trace, 1.0 / m, rtol=1e-10)
    np.testing.assert_allclose(params.Gtilde.sum(axis=1), 1.0, rtol=1e-10)
    np.testing.assert_allclose(params.W.sum(axis=2), 1.0, rtol=1e-10)
