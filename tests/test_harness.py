"""Tests for scene synthesis and the experiment harness."""

import dataclasses
import json

import numpy as np
import pytest

from gsmsep import optimizer
from gsmsep.audio_io import AudioBuffer
from gsmsep.harness import (
    SCENE_SAMPLE_RATE,
    _PROFILE_FLOOR,
    _smooth_random_steering,
    _spectral_profiles,
    _temporal_envelope,
    config_hash,
    config_to_dict,
    run_experiment,
    separate_mixture,
    synth_scene,
    write_csv_summary,
)
from gsmsep.model import (
    GH,
    NIG,
    Gaussian,
    LeptokurticGG,
    SeparationConfig,
    StudentT,
    variant_from_dict,
    variant_to_dict,
)
from gsmsep.optimizer import ChannelLayoutError, outer_products
from gsmsep.stft import StftConfig, stft_forward


def scene_sum(scene):
    total = np.zeros_like(scene.mixture.samples)
    for image in scene.images:
        total = total + image.samples
    if scene.noise is not None:
        total = total + scene.noise
    return total


class TestSynthScene:
    def test_decomposition_is_sample_exact(self):
        scene = synth_scene(2, 2, 1.0, seed=0)
        np.testing.assert_array_equal(scene.mixture.samples, scene_sum(scene))

    def test_decomposition_with_noise(self):
        scene = synth_scene(2, 3, 1.0, seed=1, noise_snr_db=20.0)
        assert scene.noise is not None
        np.testing.assert_array_equal(scene.mixture.samples, scene_sum(scene))

    def test_references_are_first_channel_images(self):
        scene = synth_scene(3, 3, 1.0, seed=2)
        assert len(scene.references) == 3
        for ref, image in zip(scene.references, scene.images):
            assert ref.n_channels == 1
            np.testing.assert_array_equal(ref.samples[0], image.samples[0])

    def test_zero_snr_noise_power(self):
        scene = synth_scene(2, 2, 1.0, seed=3, noise_snr_db=0.0)
        clean = np.zeros_like(scene.mixture.samples)
        for image in scene.images:
            clean = clean + image.samples
        clean_power = np.mean(clean**2)
        noise_power = np.mean(scene.noise**2)
        np.testing.assert_allclose(noise_power, clean_power, rtol=1e-6)

    def test_snr_scaling(self):
        scene = synth_scene(2, 2, 1.0, seed=4, noise_snr_db=10.0)
        clean = np.zeros_like(scene.mixture.samples)
        for image in scene.images:
            clean = clean + image.samples
        ratio = np.mean(clean**2) / np.mean(scene.noise**2)
        np.testing.assert_allclose(10.0 * np.log10(ratio), 10.0, atol=1e-6)

    def test_deterministic(self):
        a = synth_scene(2, 2, 1.0, seed=7)
        b = synth_scene(2, 2, 1.0, seed=7)
        np.testing.assert_array_equal(a.mixture.samples, b.mixture.samples)

    def test_seed_changes_scene(self):
        a = synth_scene(2, 2, 1.0, seed=7)
        b = synth_scene(2, 2, 1.0, seed=8)
        assert not np.array_equal(a.mixture.samples, b.mixture.samples)

    def test_single_source_mixture_is_image(self):
        scene = synth_scene(1, 2, 1.0, seed=5)
        np.testing.assert_array_equal(
            scene.mixture.samples, scene.images[0].samples
        )

    def test_images_unit_rms(self):
        scene = synth_scene(2, 2, 1.0, seed=6)
        for image in scene.images:
            rms = np.sqrt(np.mean(image.samples**2))
            np.testing.assert_allclose(rms, 1.0, rtol=1e-12)

    def test_sample_rate_and_duration(self):
        scene = synth_scene(2, 2, 1.5, seed=9)
        assert scene.mixture.sample_rate == SCENE_SAMPLE_RATE
        # length is rounded up to the synthesis hop grid
        n = scene.mixture.n_frames
        assert n >= 1.5 * SCENE_SAMPLE_RATE
        assert n % StftConfig().hop == 0

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="n_sources"):
            synth_scene(0, 2, 1.0, seed=0)
        with pytest.raises(ValueError, match="n_mics"):
            synth_scene(2, 9, 1.0, seed=0)

    def test_more_sources_than_mics(self):
        scene = synth_scene(3, 2, 1.0, seed=0)
        assert scene.mixture.n_channels == 2
        assert len(scene.references) == len(scene.images) == 3
        np.testing.assert_array_equal(scene.mixture.samples, scene_sum(scene))

    def test_duration_validation(self):
        with pytest.raises(ValueError, match="duration"):
            synth_scene(2, 2, 0.5, seed=0)


class TestGenerators:
    def test_profiles_stay_above_floor(self):
        for n_sources in (2, 4, 8):
            profiles = _spectral_profiles(n_sources, 513)
            assert profiles.shape == (n_sources, 513)
            # flanks decay to the leakage floor, never below it
            assert np.all(profiles >= _PROFILE_FLOOR)

    def test_profiles_dominant_bands_ordered(self):
        profiles = _spectral_profiles(3, 513)
        peaks = np.argmax(profiles, axis=1)
        assert peaks[0] < peaks[1] < peaks[2]
        # each peak falls inside its own third of the axis
        for n, peak in enumerate(peaks):
            assert n * 513 / 3 <= peak <= (n + 1) * 513 / 3

    def test_profiles_overlap_at_crossover(self):
        # neighbors are both meaningfully active where their bands meet
        profiles = _spectral_profiles(2, 513)
        crossover = np.argmin(np.abs(profiles[0] - profiles[1]))
        assert profiles[0, crossover] > 2 * _PROFILE_FLOOR

    def test_envelope_positive(self):
        rng = np.random.default_rng(0)
        env = _temporal_envelope(rng, 200)
        assert env.shape == (200,)
        assert np.all(env > 0)

    def test_steering_unit_norm_and_smooth(self):
        rng = np.random.default_rng(1)
        a_FM = _smooth_random_steering(rng, 513, 4)
        np.testing.assert_allclose(
            np.linalg.norm(a_FM, axis=1), 1.0, rtol=1e-12
        )
        steps = np.linalg.norm(np.diff(a_FM, axis=0), axis=1)
        assert np.max(steps) < 0.05


class TestVariantSerialization:
    @pytest.mark.parametrize(
        "variant, expected",
        [
            (Gaussian(), {"model": "gaussian"}),
            (StudentT(nu=40.0), {"model": "t", "nu": 40.0}),
            (LeptokurticGG(beta=1.5), {"model": "gg", "beta": 1.5}),
            (GH(gamma=-0.5, rho=2.0, eta=3.0),
             {"model": "gh", "gamma": -0.5, "rho": 2.0, "eta": 3.0}),
            (NIG(rho=15.0, eta=1.0), {"model": "nig", "rho": 15.0, "eta": 1.0}),
        ],
        ids=["gaussian", "t", "gg", "gh", "nig"],
    )
    def test_round_trip(self, variant, expected):
        assert variant_to_dict(variant) == expected
        assert variant_from_dict(expected) == variant

    def test_nig_and_gh_stay_distinct(self):
        nig = variant_to_dict(NIG(rho=1.0, eta=1.0))
        gh = variant_to_dict(GH(gamma=-0.5, rho=1.0, eta=1.0))
        assert nig["model"] == "nig"
        assert gh["model"] == "gh"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            variant_from_dict({"model": "cauchy"})


class TestConfigHash:
    def test_key_order_insensitive(self):
        cfg = config_to_dict(
            SeparationConfig(n_sources=2, n_bases=4, iterations=10),
            StftConfig(),
        )
        reordered = json.loads(json.dumps(cfg, sort_keys=True))
        assert config_hash(cfg) == config_hash(reordered)

    def test_different_configs_differ(self):
        base = SeparationConfig(n_sources=2, n_bases=4, iterations=10, seed=0)
        other = SeparationConfig(n_sources=2, n_bases=4, iterations=10, seed=1)
        assert config_hash(config_to_dict(base, StftConfig())) != config_hash(
            config_to_dict(other, StftConfig())
        )

    def test_nig_hash_is_pinned(self):
        # NIG serializes without its fixed gamma, so stored hashes hold
        cfg = SeparationConfig(2, 8, 300, variant=NIG(rho=15.0, eta=1.0))
        assert config_hash(config_to_dict(cfg, StftConfig())) == "291e33558c27"

    def test_twelve_hex_chars(self):
        digest = config_hash({"a": 1})
        assert len(digest) == 12
        int(digest, 16)  # parses as hex


@pytest.fixture(scope="module")
def scene():
    return synth_scene(2, 2, 1.0, seed=0)


class TestRunExperiment:
    def test_report_structure(self, scene):
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=3, seed=0)
        report = run_experiment(scene, cfg, StftConfig())
        assert len(report.ll_trace) == 3
        assert report.ll_trace[-1] >= report.ll_trace[0]
        assert len(report.per_source_metrics) == 2
        assigned = sorted(
            entry["assigned_reference"] for entry in report.per_source_metrics
        )
        assert assigned == [0, 1]
        assert report.input_si_sdr is not None
        assert report.runtime_ms > 0
        assert report.seed == 0
        assert report.config == config_to_dict(cfg, StftConfig())

    def test_zero_iterations_input_level_report(self, scene):
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=0, seed=0)
        report = run_experiment(scene, cfg, StftConfig())
        assert report.ll_trace == []
        assert report.input_si_sdr is not None
        assert np.isfinite(report.mean_si_sdr) or report.mean_si_sdr == -np.inf

    def test_deterministic_modulo_runtime(self, scene):
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=3, seed=1)
        a = run_experiment(scene, cfg, StftConfig())
        b = run_experiment(scene, cfg, StftConfig())
        assert a.ll_trace == b.ll_trace
        assert a.mean_si_sdr == b.mean_si_sdr
        assert a.per_source_metrics == b.per_source_metrics
        assert a.input_si_sdr == b.input_si_sdr

    def test_more_model_sources_than_references(self, scene):
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=2, seed=0)
        report = run_experiment(scene, cfg, StftConfig())
        assert len(report.per_source_metrics) == len(scene.references)

    def test_fewer_model_sources_rejected(self, scene):
        cfg = SeparationConfig(n_sources=1, n_bases=2, iterations=1, seed=0)
        with pytest.raises(ValueError, match="references"):
            run_experiment(scene, cfg, StftConfig())

    def test_gaussian_and_nig_both_well_formed(self, scene):
        for variant in (Gaussian(), NIG(rho=15.0, eta=1.0)):
            cfg = SeparationConfig(
                n_sources=2, n_bases=2, iterations=5, variant=variant, seed=0
            )
            report = run_experiment(scene, cfg, StftConfig())
            values = report.ll_trace
            assert len(values) == 5
            for prev, curr in zip(values, values[1:]):
                assert curr >= prev - 1e-8 * abs(prev)


class TestReportSerialization:
    def make_report(self):
        scene = synth_scene(2, 2, 1.0, seed=11)
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=2, seed=11)
        return run_experiment(scene, cfg, StftConfig())

    def test_json_is_plain_data(self):
        report = self.make_report()
        payload = json.loads(json.dumps(dataclasses.asdict(report)))
        assert set(payload) == {
            "config",
            "ll_trace",
            "per_source_metrics",
            "mean_si_sdr",
            "input_si_sdr",
            "runtime_ms",
            "seed",
        }


class TestCsvSummary:
    def test_rows_and_header(self, tmp_path):
        scene = synth_scene(2, 2, 1.0, seed=12)
        reports = [
            run_experiment(
                scene,
                SeparationConfig(n_sources=2, n_bases=2, iterations=1, seed=s),
                StftConfig(),
            )
            for s in (0, 1)
        ]
        path = tmp_path / "summary.csv"
        write_csv_summary([("0123456789ab", reports[0]), ("ba9876543210", reports[1])], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == (
            "config_hash,model,n_sources,n_bases,iterations,seed,"
            "mean_si_sdr,input_si_sdr,runtime_ms"
        )
        first = lines[1].split(",")
        assert first[0] == "0123456789ab"
        assert first[1] == "gaussian"
        assert first[5] == "0"

    def test_empty_reports_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv_summary([], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config_hash,")


class TestChannelLayout:
    @staticmethod
    def mixture(seed=0, f=33, t=40, m=3):
        # an (F, M, T) mixture: the (f, t, m) draw, channel-major
        rng = np.random.default_rng(seed)
        draw = rng.standard_normal((f, t, m)) + 1j * rng.standard_normal((f, t, m))
        return np.ascontiguousarray(draw.transpose(0, 2, 1))

    @staticmethod
    def check(X):
        # the guard on the Gram that `outer_products` sums with S
        return optimizer.check_channel_layout(outer_products(X)[1], X.shape[0] * X.shape[2])

    def test_independent_channels_pass(self):
        self.check(self.mixture())

    def test_band_limited_copy_passes(self):
        # channels equal below half the band only: rank deficiency at some
        # frequencies is legitimate and must reach the optimizer
        X = self.mixture()
        X[:16, 2] = X[:16, 0]
        self.check(X)

    def test_silent_channel_named(self):
        X = self.mixture()
        X[:, 1] = 0.0
        with pytest.raises(ChannelLayoutError, match="channel 2 is silent"):
            self.check(X)

    def test_complex_scaled_copy_named(self):
        X = self.mixture()
        X[:, 2] = (0.3 - 2.0j) * X[:, 1]
        with pytest.raises(ChannelLayoutError,
                           match="channels 2 and 3 are linearly dependent"):
            self.check(X)

    def test_every_problem_listed(self):
        X = self.mixture(m=4)
        X[:, 1] = 0.0
        X[:, 3] = X[:, 0]
        with pytest.raises(ChannelLayoutError) as info:
            self.check(X)
        assert str(info.value) == ("mixture channel layout: channel 2 is silent;"
                                   " channels 1 and 4 are linearly dependent")

    def test_two_copied_pairs_name_all_four_channels(self):
        X = self.mixture(m=4)
        X[:, 2] = X[:, 0]
        X[:, 3] = 2.0 * X[:, 1]
        with pytest.raises(ChannelLayoutError,
                           match="channels 1, 2, 3 and 4 are linearly dependent"):
            self.check(X)

    def test_is_a_value_error_raised_before_the_optimizer(self):
        X = self.mixture(m=2)
        X[:, 1] = X[:, 0]
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=1)
        with pytest.raises(ValueError, match="linearly dependent"):
            separate_mixture(X, cfg, StftConfig(), 1024, all_channels=True)

    def test_run_experiment_raises(self):
        scene = synth_scene(2, 2, 1.0, seed=7)
        samples = scene.mixture.samples.copy()
        samples[1] = 0.0
        silent = dataclasses.replace(scene, mixture=AudioBuffer(
            samples=samples, sample_rate=scene.mixture.sample_rate))
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=1)
        with pytest.raises(ChannelLayoutError, match="channel 2 is silent"):
            run_experiment(silent, cfg, StftConfig())

    @pytest.mark.parametrize("kind", ["silent", "scaled", "all-zero"])
    def test_zero_iterations_check_nothing_and_partition(self, kind, monkeypatch):
        # no Q is solved, so the initial Wiener output stands on any layout
        samples = synth_scene(2, 2, 1.0, seed=8).mixture.samples.copy()
        if kind == "silent":
            samples[1] = 0.0
        elif kind == "scaled":
            samples[1] = -0.5 * samples[0]
        else:
            samples[:] = 0.0
        calls = []
        monkeypatch.setattr(optimizer, "outer_products",
                            lambda X: calls.append(None))
        stft_cfg = StftConfig()
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=0)
        sources, trace = separate_mixture(stft_forward(samples, stft_cfg), cfg,
                                          stft_cfg, samples.shape[1],
                                          all_channels=True)
        assert (calls, trace) == ([], [])
        assert all(np.all(np.isfinite(source)) for source in sources)
        error = np.linalg.norm(sum(sources) - samples)
        assert error <= 1e-12 * np.linalg.norm(samples)


def separate_samples(samples, n_sources):
    # 5 NIG iterations, then the outputs and their sum
    stft_cfg = StftConfig()
    cfg = SeparationConfig(n_sources=n_sources, n_bases=4, iterations=5,
                           variant=NIG(rho=15.0, eta=1.0), seed=0)
    X = stft_forward(samples, stft_cfg)
    sources, _ = separate_mixture(X, cfg, stft_cfg, samples.shape[1],
                                  all_channels=True)
    return sources, sum(sources)


class TestDegenerateInputs:
    """Inputs at the edges of what a user can send either separate into
    finite images that sum back to the mixture, or raise a typed error."""

    @staticmethod
    def assert_partition(samples, n_sources):
        sources, total = separate_samples(samples, n_sources)
        assert len(sources) == n_sources
        for source in sources:
            assert source.shape == samples.shape
            assert np.all(np.isfinite(source))
        error = np.linalg.norm(total - samples)
        assert error <= 1e-12 * np.linalg.norm(samples)

    @pytest.mark.parametrize("extra", [0, 1], ids=["n_fft", "n_fft+1"])
    def test_clip_of_about_one_window(self, extra):
        samples = synth_scene(2, 2, 1.0, seed=3).mixture.samples
        self.assert_partition(samples[:, :StftConfig().n_fft + extra], 2)

    def test_eight_sources_eight_channels(self):
        self.assert_partition(synth_scene(8, 8, 1.0, seed=4).mixture.samples, 8)

    @pytest.mark.parametrize("n_mics", [2, 1])
    def test_single_source(self, n_mics):
        samples = synth_scene(1, n_mics, 1.0, seed=5).mixture.samples
        self.assert_partition(samples, 1)

    def test_full_scale_clipping(self):
        samples = synth_scene(2, 2, 1.0, seed=6).mixture.samples
        clipped = np.clip(50.0 * samples, -1.0, 1.0)
        assert np.mean(np.abs(clipped) == 1.0) > 0.5
        self.assert_partition(clipped, 2)

    def test_all_zero_raises_channel_layout_error(self):
        with pytest.raises(ChannelLayoutError, match="silent"):
            separate_samples(np.zeros((2, 16000)), 2)
