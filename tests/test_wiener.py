"""Tests for multichannel Wiener reconstruction."""

import numpy as np
import pytest

from gsmsep.model import SeparationConfig, init_params
from gsmsep.optimizer import run
from gsmsep.stft import StftConfig, stft_forward, stft_inverse
from gsmsep import wiener
from gsmsep.wiener import separate, source_images

CFG = StftConfig(n_fft=64, hop=16)


def random_setup(seed=0, n=2, k=2, f=5, t=7, m=2):
    cfg = SeparationConfig(n_sources=n, n_bases=k, iterations=1, seed=seed)
    params = init_params(cfg, f, t, m)
    rng = np.random.default_rng(seed + 500)
    params.Q[:] = (
        rng.standard_normal((f, m, m))
        + 1j * rng.standard_normal((f, m, m))
        + 2.0 * m * np.eye(m)
    )
    X = rng.standard_normal((f, t, m)) + 1j * rng.standard_normal((f, t, m))
    return params, X


class TestSeparate:
    def test_partition_identity(self):
        params, X = random_setup(seed=1)
        images = list(source_images(X, params))
        total = sum(images)
        np.testing.assert_allclose(total, X, rtol=1e-10, atol=1e-12)

    def test_partition_with_dead_bins(self):
        params, X = random_setup(seed=2)
        params.H[:, :, 3] = 0.0  # every source silent in frame 3
        images = list(source_images(X, params))
        total = sum(images)
        np.testing.assert_allclose(total, X, rtol=1e-10, atol=1e-12)
        # the dead frame is split uniformly after back-projection
        np.testing.assert_allclose(
            images[0][:, 3], images[1][:, 3], rtol=1e-10
        )

    def test_single_source_returns_mixture(self):
        params, X = random_setup(seed=3, n=1)
        images = list(source_images(X, params))
        assert len(images) == 1
        np.testing.assert_array_equal(images[0], X)

    def test_equal_sources_halve_the_mixture(self):
        params, X = random_setup(seed=4)
        params.W[1] = params.W[0]
        params.H[1] = params.H[0]
        params.Gtilde[1] = params.Gtilde[0]
        images = list(source_images(X, params))
        np.testing.assert_allclose(images[0], X / 2.0, rtol=1e-10)
        np.testing.assert_allclose(images[1], X / 2.0, rtol=1e-10)

    def test_dominant_source_takes_the_bin(self):
        # with one source's variance overwhelming the other's, its gain
        # approaches one and its image approaches the mixture
        params, X = random_setup(seed=5)
        params.W[0] *= 1e12
        params.Gtilde[0] = [1.0, 1.0]
        params.Gtilde[1] = [1e-12, 1e-12]
        images = list(source_images(X, params))
        np.testing.assert_allclose(images[0], X, rtol=1e-6)

    def test_variant_free_signature(self):
        # the filter uses only the fitted parameters: images from the
        # same params agree no matter which variant produced them
        params, X = random_setup(seed=6)
        a = list(source_images(X, params))
        b = list(source_images(X.copy(), params))
        np.testing.assert_array_equal(a, b)

    def test_shape_mismatch(self):
        params, X = random_setup(seed=7)
        with pytest.raises(ValueError, match="inconsistent"):
            list(source_images(X[:, :3], params))

    def test_after_optimizer_run(self):
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=8, seed=8)
        rng = np.random.default_rng(9)
        X = rng.standard_normal((6, 10, 2)) + 1j * rng.standard_normal((6, 10, 2))
        params, _ = run(X, cfg)
        images = list(source_images(X, params))
        np.testing.assert_allclose(
            sum(images), X, rtol=1e-10, atol=1e-12
        )


def spectral_setup(seed, n, m=2, length=256):
    """Random params on the STFT grid of a random (m, length) signal."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, length))
    X = stft_forward(x, CFG)
    params, _ = random_setup(seed=seed, n=n, f=X.shape[0], t=X.shape[1], m=m)
    return params, X, x


def oracle_renders(X, params, length):
    """stft_inverse of every source image, ordered by decreasing energy."""
    images = list(source_images(X, params))
    energies = [float(np.mean(np.abs(image) ** 2)) for image in images]
    order = sorted(range(len(images)), key=lambda n: (-energies[n], n))
    return order, [stft_inverse(images[n], CFG, length) for n in order]


class TestRanking:
    def test_energy_order(self):
        params, X, _ = spectral_setup(seed=10, n=3, m=3)
        params.W[1] *= 1e3
        params.W[2] *= 1e2
        order, expected = oracle_renders(X, params, 256)
        assert order == [1, 2, 0]
        np.testing.assert_array_equal(separate(X, params, CFG, 256), expected)

    def test_tie_keeps_lower_index(self, monkeypatch):
        # images 0 and 2 differ (a 90-degree phase turn) but carry exactly
        # the same energy, so only the tie rule decides their order
        rng = np.random.default_rng(11)
        shape = (CFG.n_freq, 11, 2)  # the STFT grid of 128 samples
        base = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        images = [base, 3.0 * base, 1j * base]
        monkeypatch.setattr(wiener, "source_images",
                            lambda X, params: iter(images))
        rendered = wiener.separate(None, None, CFG, 128)
        expected = [stft_inverse(images[n], CFG, 128) for n in (1, 0, 2)]
        assert not np.array_equal(expected[1], expected[2])
        np.testing.assert_array_equal(rendered, expected)

    def test_matches_naive_oracle(self):
        params, X, _ = spectral_setup(seed=12, n=4, m=4)
        _, expected = oracle_renders(X, params, 256)
        np.testing.assert_array_equal(separate(X, params, CFG, 256), expected)


class TestRenderTimeDomain:
    def test_round_trip_of_images(self):
        # the rendered images sum to the rendered mixture, which is the
        # input signal up to the STFT round trip
        params, X, x = spectral_setup(seed=13, n=2, length=512)
        rendered = separate(X, params, CFG, 512)
        assert len(rendered) == 2
        assert all(source.shape == (2, 512) for source in rendered)
        np.testing.assert_allclose(rendered[0] + rendered[1], x, atol=1e-10)

    def test_matches_direct_inverse(self):
        # one source: its image is the mixture itself
        params, X, x = spectral_setup(seed=14, n=1)
        (rendered,) = separate(X, params, CFG, 256)
        np.testing.assert_array_equal(rendered, stft_inverse(X, CFG, 256))
        np.testing.assert_allclose(rendered, x, atol=1e-10)

    def test_shape_mismatch(self):
        params, X, _ = spectral_setup(seed=15, n=2)
        with pytest.raises(ValueError, match="inconsistent"):
            separate(X[:, :3], params, CFG, 256)
