"""Tests for the scale-invariant SDR metrics.

The 10 dB case is constructed from an exactly orthogonal noise vector
with one tenth of the signal energy, and the permutation search is
cross-checked against a brute-force oracle evaluated in the test.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsmsep.metrics import (
    SI_SDR_CAP_DB,
    MetricReport,
    permutation_si_sdr,
    si_sdr,
)


def orthogonal_noise(rng, reference):
    noise = rng.standard_normal(reference.size)
    noise -= (noise @ reference) / (reference @ reference) * reference
    return noise


class TestSiSdr:
    def test_orthogonal_noise_ten_db(self):
        rng = np.random.default_rng(0)
        reference = rng.standard_normal(4096)
        noise = orthogonal_noise(rng, reference)
        ref_energy = reference @ reference
        noise *= np.sqrt(ref_energy / 10.0 / (noise @ noise))
        score = si_sdr(reference + noise, reference)
        assert score == pytest.approx(10.0, abs=1e-9)

    def test_snr_sweep(self):
        rng = np.random.default_rng(1)
        reference = rng.standard_normal(2048)
        noise = orthogonal_noise(rng, reference)
        ref_energy = reference @ reference
        for target_db in (-10.0, 0.0, 25.0):
            scaled = noise * np.sqrt(
                ref_energy * 10.0 ** (-target_db / 10.0) / (noise @ noise)
            )
            assert si_sdr(reference + scaled, reference) == pytest.approx(
                target_db, abs=1e-9
            )

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        reference = rng.standard_normal(512)
        estimate = reference + 0.3 * orthogonal_noise(rng, reference)
        base = si_sdr(estimate, reference)
        for c in (0.5, 10.0, -2.0):
            assert si_sdr(c * estimate, reference) == pytest.approx(base, abs=1e-9)

    def test_exact_reconstruction_hits_cap(self):
        rng = np.random.default_rng(3)
        reference = rng.standard_normal(256)
        assert si_sdr(reference, reference) == SI_SDR_CAP_DB
        assert si_sdr(2.5 * reference, reference) == SI_SDR_CAP_DB

    def test_near_exact_capped(self):
        rng = np.random.default_rng(4)
        reference = rng.standard_normal(256)
        estimate = reference + 1e-14 * orthogonal_noise(rng, reference)
        assert si_sdr(estimate, reference) <= SI_SDR_CAP_DB

    def test_orthogonal_estimate_is_minus_inf(self):
        # exactly orthogonal in floating point: the projection vanishes
        reference = np.array([1.0, 0.0, 1.0, 0.0])
        estimate = np.array([0.0, 1.0, 0.0, -1.0])
        assert si_sdr(estimate, reference) == -np.inf

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            si_sdr(np.ones(8), np.zeros(8))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            si_sdr(np.ones(8), np.ones(9))

    def test_multichannel_input_is_flattened(self):
        rng = np.random.default_rng(6)
        reference = rng.standard_normal((2, 128))
        assert si_sdr(reference, reference) == SI_SDR_CAP_DB


class TestPermutationSiSdr:
    def test_recovers_shuffle(self):
        rng = np.random.default_rng(7)
        references = [rng.standard_normal(512) for _ in range(3)]
        shuffle = [2, 0, 1]
        estimates = [
            references[shuffle[i]] + 0.01 * rng.standard_normal(512)
            for i in range(3)
        ]
        report = permutation_si_sdr(estimates, references)
        assert [entry["assigned_reference"] for entry in report.per_source] == shuffle
        assert report.mean_si_sdr > 30.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        references = [rng.standard_normal(256) for _ in range(4)]
        estimates = [rng.standard_normal(256) for _ in range(4)]
        report = permutation_si_sdr(estimates, references)

        best = -np.inf
        for perm in itertools.permutations(range(4)):
            mean = np.mean(
                [si_sdr(estimates[i], references[perm[i]]) for i in range(4)]
            )
            best = max(best, mean)
        assert report.mean_si_sdr == pytest.approx(best, abs=1e-12)

    def test_reordering_estimates_keeps_mean(self):
        rng = np.random.default_rng(9)
        references = [rng.standard_normal(256) for _ in range(3)]
        estimates = [
            references[i] + 0.1 * rng.standard_normal(256) for i in range(3)
        ]
        forward = permutation_si_sdr(estimates, references)
        backward = permutation_si_sdr(estimates[::-1], references)
        assert forward.mean_si_sdr == pytest.approx(backward.mean_si_sdr, abs=1e-12)

    def test_input_score_is_mixture_mean(self):
        rng = np.random.default_rng(10)
        references = [rng.standard_normal(512) for _ in range(2)]
        mixture = references[0] + references[1]
        estimates = [references[0].copy(), references[1].copy()]
        report = permutation_si_sdr(estimates, references, mixture=mixture)
        expected = np.mean([si_sdr(mixture, ref) for ref in references])
        assert report.input_si_sdr == pytest.approx(expected, abs=1e-12)
        assert report.mean_si_sdr == SI_SDR_CAP_DB

    def test_no_mixture_leaves_input_none(self):
        rng = np.random.default_rng(11)
        references = [rng.standard_normal(64) for _ in range(2)]
        report = permutation_si_sdr(references, references)
        assert report.input_si_sdr is None

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="count mismatch"):
            permutation_si_sdr([np.ones(8)], [np.ones(8), np.ones(8)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no signals"):
            permutation_si_sdr([], [])

    @pytest.mark.parametrize("n", [5, 8])
    def test_recovers_shuffle_beyond_four_sources(self, n):
        rng = np.random.default_rng(12 + n)
        references = [rng.standard_normal(512) for _ in range(n)]
        shuffle = [int(j) for j in rng.permutation(n)]
        estimates = [
            references[shuffle[i]] + 0.05 * rng.standard_normal(512)
            for i in range(n)
        ]
        report = permutation_si_sdr(estimates, references)
        assert [entry["assigned_reference"] for entry in report.per_source] == shuffle
        assert report.mean_si_sdr > 20.0

    def test_five_sources_match_brute_force_oracle(self):
        rng = np.random.default_rng(14)
        references = [rng.standard_normal(128) for _ in range(5)]
        estimates = [rng.standard_normal(128) for _ in range(5)]
        report = permutation_si_sdr(estimates, references)
        best = max(
            np.mean([si_sdr(estimates[i], references[perm[i]]) for i in range(5)])
            for perm in itertools.permutations(range(5))
        )
        assert report.mean_si_sdr == pytest.approx(best, abs=1e-12)

    def test_silent_estimate_scores_minus_inf(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal(1000)
        b = rng.standard_normal(1000)
        report = permutation_si_sdr([np.zeros(1000), a + b], [a, b])
        scores = [entry["si_sdr"] for entry in report.per_source]
        assert scores[0] == -np.inf
        assert scores[1] == max(si_sdr(a + b, a), si_sdr(a + b, b))
        assert report.mean_si_sdr == -np.inf

    def test_avoids_minus_inf_pairs_when_possible(self):
        # estimate 0 is orthogonal to reference 0 and scores -200 dB against
        # reference 1; estimate 1 scores +80 dB against reference 1 and
        # -80 dB against reference 0.  Only [1, 0] has a finite mean, even
        # though a -100 dB stand-in for -inf would favour [0, 1].
        e0, e1, e2 = np.eye(3)
        references = [e0, e1]
        estimates = [1e-10 * e1 + e2, e1 + 1e-4 * e0]
        report = permutation_si_sdr(estimates, references)
        assert [entry["assigned_reference"] for entry in report.per_source] == [1, 0]
        assert report.mean_si_sdr == pytest.approx(-140.0, abs=1e-6)


class TestMetricReport:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="not a permutation"):
            MetricReport(
                per_source=[
                    {"si_sdr": 1.0, "assigned_reference": 0},
                    {"si_sdr": 2.0, "assigned_reference": 0},
                ],
                mean_si_sdr=1.5,
            )


@given(seed=st.integers(0, 2**31 - 1), scale=st.floats(0.1, 50.0))
def test_property_scale_invariance(seed, scale):
    rng = np.random.default_rng(seed)
    reference = rng.standard_normal(128)
    estimate = rng.standard_normal(128)
    base = si_sdr(estimate, reference)
    scaled = si_sdr(scale * estimate, reference)
    if np.isfinite(base):
        assert scaled == pytest.approx(base, abs=1e-6)
    else:
        assert scaled == base


@given(seed=st.integers(0, 2**31 - 1))
def test_property_permutation_beats_identity(seed):
    rng = np.random.default_rng(seed)
    references = [rng.standard_normal(64) for _ in range(3)]
    estimates = [rng.standard_normal(64) for _ in range(3)]
    report = permutation_si_sdr(estimates, references)
    identity_mean = np.mean(
        [si_sdr(estimates[i], references[i]) for i in range(3)]
    )
    assert report.mean_si_sdr >= identity_mean - 1e-12
