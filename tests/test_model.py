"""Tests for the spatial-model parameter layer.

source_psd and compute_ytilde are checked against explicit Python loops
over every index; normalization is checked against hand-computed pushes
of each scale ambiguity.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsmsep import workers
from gsmsep.harness import synth_scene
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
    init_params,
    normalize,
    power_scale,
    source_psd,
)

from gsmsep.workers import freq_blocks
from oracles import gh_from_ab


def unit_mixture(f, t, m):
    # an (F, M, T) mixture of mean bin power 1, so init_params draws W at
    # unit scale
    return np.ones((f, m, t), dtype=np.complex128)


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
        nig = NIG(rho=15.0, eta=1.0)
        assert isinstance(nig, GH)
        assert nig.gamma == NIG.gamma == -0.5
        assert repr(nig) == "NIG(rho=15.0, eta=1.0)"
        with pytest.raises(TypeError, match="gamma"):
            NIG(gamma=-0.5, rho=15.0, eta=1.0)
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
        with pytest.raises(TypeError, match="floor"):
            # the floor follows the mixture's level; it is not a setting
            SeparationConfig(n_sources=2, n_bases=4, iterations=1, floor=1e-10)
        with pytest.raises(TypeError, match="eps_init"):
            # the starting G~ weight is a model constant
            SeparationConfig(n_sources=2, n_bases=4, iterations=1, eps_init=1e-2)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SeparationConfig(n_sources=2, n_bases=4, iterations=1, seed=-1)

    @pytest.mark.parametrize("make,refusal", [
        (lambda: SeparationConfig(2, 2, 1.5), "iterations must be int, got 1.5"),
        (lambda: SeparationConfig(2.5, 2, 1), "n_sources must be int, got 2.5"),
        (lambda: synth_scene(2.0, 2, 1.0, seed=0), "n_sources must be int, got 2.0"),
        (lambda: SeparationConfig(True, 2, 1), "n_sources must be int, got True"),
        (lambda: SeparationConfig(2, 2, 1, seed=np.float64(1)), "seed must be int, got"),
        (lambda: StudentT(nu=False), "nu must be float, got False"),
        (lambda: GH(-0.5, "15", 1.0), "rho must be float, got '15'"),
        # numpy integers are ints, and ints are floats
        (lambda: SeparationConfig(np.int64(2), np.int32(2), np.uint8(1)), None),
        (lambda: NIG(rho=15, eta=np.int64(1)), None),
    ], ids=["float-iterations", "float-sources", "float-scene-sources", "bool-sources",
            "float-seed", "bool-nu", "str-rho", "numpy-ints", "int-floats"])
    def test_wrong_kind_is_refused_by_name(self, make, refusal):
        if refusal is None:
            make()
        else:
            with pytest.raises(ValueError, match=re.escape(refusal)):
                make()

    def test_defaults(self):
        cfg = SeparationConfig(n_sources=2, n_bases=8, iterations=10)
        assert cfg.variant == Gaussian()
        assert cfg.rank1 is False
        assert cfg.seed == 0


class TestInitParams:
    def test_rank1_gtilde_is_identity(self):
        cfg = SeparationConfig(n_sources=2, n_bases=3, iterations=1, rank1=True)
        params = init_params(cfg, unit_mixture(5, 7, 2))
        np.testing.assert_array_equal(params.Gtilde, np.eye(2))

    def test_gtilde_cyclic_pattern(self):
        cfg = SeparationConfig(n_sources=2, n_bases=3, iterations=1)
        params = init_params(cfg, unit_mixture(5, 7, 4))
        np.testing.assert_array_equal(
            params.Gtilde,
            [[1.0, 0.01, 1.0, 0.01], [0.01, 1.0, 0.01, 1.0]],
        )

    def test_q_starts_at_identity(self):
        cfg = SeparationConfig(n_sources=3, n_bases=2, iterations=1)
        params = init_params(cfg, unit_mixture(4, 6, 3))
        np.testing.assert_array_equal(
            params.Q, np.tile(np.eye(3, dtype=np.complex128), (4, 1, 1))
        )

    def test_same_seed_identical(self):
        cfg = SeparationConfig(n_sources=2, n_bases=3, iterations=1, seed=42)
        a = init_params(cfg, unit_mixture(5, 7, 2))
        b = init_params(cfg, unit_mixture(5, 7, 2))
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.H, b.H)

    def test_different_seeds_differ(self):
        make = lambda seed: init_params(
            SeparationConfig(n_sources=2, n_bases=3, iterations=1, seed=seed),
            unit_mixture(5, 7, 2),
        )
        assert not np.array_equal(make(0).W, make(1).W)

    def test_wh_nonnegative(self):
        cfg = SeparationConfig(n_sources=2, n_bases=3, iterations=1)
        params = init_params(cfg, unit_mixture(16, 20, 2))
        assert np.all(params.W >= 0)
        assert np.all(params.H >= 0)

    @pytest.mark.parametrize("k", [-100, -1, 1, 100])
    def test_w_follows_the_mixture_level(self, k):
        cfg = SeparationConfig(n_sources=2, n_bases=3, iterations=1, seed=4)
        X = np.random.default_rng(4).standard_normal((5, 7, 2)) * (1 + 1j)
        X = np.ascontiguousarray(X.transpose(0, 2, 1))  # (F, M, T)
        base = init_params(cfg, X)
        scaled = init_params(cfg, 2.0 ** k * X)
        np.testing.assert_array_equal(scaled.W, 4.0 ** k * base.W)
        np.testing.assert_array_equal(scaled.H, base.H)
        unit = init_params(cfg, unit_mixture(5, 7, 2))
        np.testing.assert_array_equal(
            base.W, power_scale(np.sum(np.abs(X) ** 2), X.size) * unit.W)

    def test_rank1_requires_square(self):
        cfg = SeparationConfig(n_sources=2, n_bases=3, iterations=1, rank1=True)
        with pytest.raises(ValueError, match="rank-1"):
            init_params(cfg, unit_mixture(5, 7, 4))

    def test_sources_beyond_the_channels_start_off_everywhere(self):
        cfg = SeparationConfig(n_sources=3, n_bases=2, iterations=1)
        params = init_params(cfg, unit_mixture(5, 7, 2))
        assert params.W.shape == (3, 2, 5) and params.H.shape == (3, 2, 7)
        np.testing.assert_array_equal(params.Gtilde, [[1.0, 0.01], [0.01, 1.0], [0.01, 0.01]])

    def test_frame_major_mixture_refused_before_allocating(self):
        # an (F, T, M) array read as (F, M, T) has T "channels": it is
        # refused before Q's (F, T, T) identity stack is allocated
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=1)
        X_FTM = np.ones((5, 40, 2), dtype=np.complex128)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"40 channels.*\(F, M, T\)"):
                init_params(cfg, X_FTM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 40 * 40 * 16


class TestPowerScale:
    @pytest.mark.parametrize("mean,expected", [
        (1.0, 1.0), (2.0, 2.0), (0.7, 0.5), (0.76, 1.0), (5.9, 4.0), (6.1, 8.0),
        (3e-70, 2.0 ** -231), (0.0, 0.0),
    ])
    def test_nearest_power_of_two(self, mean, expected):
        assert power_scale(12 * mean, 12) == expected

    @pytest.mark.parametrize("k", [-500, -7, 0, 7, 500])
    def test_exact_under_powers_of_two(self, k):
        assert power_scale(4.0 ** k * 10.0, 5) == 4.0 ** k * 2.0

    @pytest.mark.parametrize("total", [np.inf, np.nan])
    def test_overflow_refused(self, total):
        with pytest.raises(ValueError, match="mixture power overflows float64"):
            power_scale(total, 4)


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

    def test_one_source_at_some_frequencies(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, 3, 2, 7, 5, 3)
        block = slice(2, 5)
        for n in range(3):
            np.testing.assert_array_equal(
                source_psd(params, block, slice(n, n + 1)),
                source_psd(params)[n:n + 1, block])


class TestFreqBlocks:
    @pytest.mark.parametrize("n_freq,per_freq,budget", [
        (1, 8, 1 << 20),  # one frequency
        (5, 8, 1 << 20),  # fewer frequencies than one block holds
        (513, 100, 700),  # 7 per block: 73 full blocks and one of 2
        (12, 250, 1000),  # a whole number of blocks of 4
        (10, 3000, 1000),  # one frequency outgrows the budget
    ])
    def test_every_frequency_once_in_order(self, n_freq, per_freq, budget,
                                           monkeypatch):
        monkeypatch.setattr(workers, "_BLOCK_BYTES", budget)
        blocks = list(freq_blocks(n_freq, per_freq))
        step = max(1, budget // per_freq)
        covered = np.concatenate([np.arange(n_freq)[block] for block in blocks])
        np.testing.assert_array_equal(covered, np.arange(n_freq))
        sizes = [block.stop - block.start for block in blocks]
        assert all(size == step for size in sizes[:-1])
        assert 1 <= sizes[-1] <= step


class TestComputeYtilde:
    def test_all_ones(self):
        params = ModelParams(
            W=np.ones((1, 1, 2)),
            H=np.ones((1, 1, 3)),
            Q=np.tile(np.eye(2, dtype=complex), (2, 1, 1)),
            Gtilde=np.ones((1, 2)),
        )
        np.testing.assert_allclose(
            compute_ytilde(params, 1e-10), np.ones((2, 2, 3))
        )

    def test_rank1_identity_gives_psd_per_channel(self):
        cfg = SeparationConfig(n_sources=2, n_bases=3, iterations=1, rank1=True)
        params = init_params(cfg, unit_mixture(4, 5, 2))
        lam = source_psd(params)
        y = compute_ytilde(params, 1e-30)
        for m in range(2):
            np.testing.assert_allclose(y[:, m], lam[m], rtol=1e-14)

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
                    assert y[f, m, t] == pytest.approx(expected, rel=1e-12)

    def test_floor_applied(self):
        params = ModelParams(
            W=np.zeros((1, 1, 2)),
            H=np.zeros((1, 1, 3)),
            Q=np.tile(np.eye(2, dtype=complex), (2, 1, 1)),
            Gtilde=np.ones((1, 2)),
        )
        np.testing.assert_array_equal(
            compute_ytilde(params, 1e-6), np.full((2, 2, 3), 1e-6)
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
    rng = np.random.default_rng(seed)
    params = normalize(random_params(rng, n, 2, 3, 4, m))
    trace = np.einsum("fij,fij->f", params.Q, params.Q.conj()).real
    np.testing.assert_allclose(trace, 1.0 / m, rtol=1e-10)
    np.testing.assert_allclose(params.Gtilde.sum(axis=1), 1.0, rtol=1e-10)
    np.testing.assert_allclose(params.W.sum(axis=2), 1.0, rtol=1e-10)
