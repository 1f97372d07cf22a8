"""Tests for scene synthesis and the experiment harness."""

import json

import numpy as np
import pytest

from gsmsep.harness import (
    SCENE_SAMPLE_RATE,
    _PROFILE_FLOOR,
    SeparationReport,
    _smooth_random_steering,
    _spectral_profiles,
    _temporal_envelope,
    config_hash,
    config_to_dict,
    run_experiment,
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
from gsmsep.stft import StftConfig


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
        np.testing.assert_array_equal(a.spec["steering"], b.spec["steering"])

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

    def test_spec_fields(self):
        scene = synth_scene(2, 4, 1.0, seed=10, noise_snr_db=15.0)
        assert scene.spec["n_sources"] == 2
        assert scene.spec["n_mics"] == 4
        assert scene.spec["noise_snr_db"] == 15.0
        steering = scene.spec["steering"]
        assert steering.shape == (2, StftConfig().n_freq, 4)
        np.testing.assert_allclose(
            np.linalg.norm(steering, axis=2), 1.0, rtol=1e-12
        )

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="n_sources"):
            synth_scene(0, 2, 1.0, seed=0)
        with pytest.raises(ValueError, match="n_sources"):
            synth_scene(3, 2, 1.0, seed=0)
        with pytest.raises(ValueError, match="n_sources"):
            synth_scene(2, 9, 1.0, seed=0)

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

    def test_json_round_trip(self):
        report = self.make_report()
        back = SeparationReport.from_json(report.to_json())
        assert back == report

    def test_json_is_plain_data(self):
        report = self.make_report()
        payload = json.loads(report.to_json())
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
        write_csv_summary(reports, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == (
            "config_hash,model,n_sources,n_bases,iterations,seed,"
            "mean_si_sdr,input_si_sdr,runtime_ms"
        )
        first = lines[1].split(",")
        assert first[0] == config_hash(reports[0].config)
        assert first[1] == "gaussian"
        assert first[5] == "0"

    def test_empty_reports_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv_summary([], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config_hash,")
