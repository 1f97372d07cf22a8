"""Tests for STFT analysis and synthesis.

The forward transform is checked against a direct O(N^2) DFT summation
per frame, which shares no code with the implementation, and the inverse
by round trips and by its refusal of inputs it cannot invert.  Both transforms
work on stacks: (channels, samples) in, (F, T, M) out, and back; a
single-channel signal is a stack of one.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsmsep import workers
from gsmsep.stft import StftConfig, periodic_hann, stft_forward, stft_inverse


def dft_oracle(signal: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Naive per-frame DFT summation, independent of np.fft."""
    window = periodic_hann(cfg.n_fft)
    padded = np.concatenate(
        [np.zeros(cfg.pad), signal, np.zeros(cfg.pad)]
    )
    n_frames = (len(padded) - cfg.n_fft) // cfg.hop + 1
    spec = np.zeros((cfg.n_freq, n_frames), dtype=np.complex128)
    for t in range(n_frames):
        frame = padded[t * cfg.hop : t * cfg.hop + cfg.n_fft] * window
        for f in range(cfg.n_freq):
            acc = 0.0 + 0.0j
            for i in range(cfg.n_fft):
                acc += frame[i] * np.exp(-2j * np.pi * f * i / cfg.n_fft)
            spec[f, t] = acc
    return spec


class TestConfig:
    def test_defaults(self):
        cfg = StftConfig()
        assert cfg.n_fft == 1024
        assert cfg.hop == 256
        assert cfg.n_freq == 513
        assert cfg.pad == 768

    def test_odd_n_fft_rejected(self):
        with pytest.raises(ValueError, match="even"):
            StftConfig(n_fft=63, hop=21)

    def test_hop_out_of_range(self):
        with pytest.raises(ValueError, match="hop"):
            StftConfig(n_fft=64, hop=0)
        with pytest.raises(ValueError, match="hop"):
            StftConfig(n_fft=64, hop=128)

    def test_hop_must_divide(self):
        with pytest.raises(ValueError, match="divide"):
            StftConfig(n_fft=64, hop=24)


class TestWindow:
    def test_midpoint_is_one(self):
        for n_fft in (8, 64, 1024):
            window = periodic_hann(n_fft)
            assert window[n_fft // 2] == pytest.approx(1.0, abs=1e-15)

    def test_first_sample_is_zero(self):
        assert periodic_hann(16)[0] == 0.0

    def test_closed_form(self):
        n_fft = 32
        window = periodic_hann(n_fft)
        i = np.arange(n_fft)
        np.testing.assert_allclose(
            window, 0.5 - 0.5 * np.cos(2 * np.pi * i / n_fft), atol=1e-15
        )

    def test_cola_property(self):
        # shifted squared windows sum to a constant over the interior,
        # which is what makes the overlap-add inverse exact there
        cfg = StftConfig(n_fft=64, hop=16)
        win_sq = periodic_hann(cfg.n_fft) ** 2
        acc = np.zeros(cfg.n_fft * 4)
        for start in range(0, len(acc) - cfg.n_fft + 1, cfg.hop):
            acc[start : start + cfg.n_fft] += win_sq
        interior = acc[cfg.n_fft : -cfg.n_fft]
        np.testing.assert_allclose(interior, interior[0], rtol=1e-12)


class TestForward:
    def test_zeros_map_to_zeros(self):
        cfg = StftConfig(n_fft=64, hop=16)
        spec = stft_forward(np.zeros((1, 256)), cfg)
        assert spec.shape == (33, 1, (256 + 2 * 48 - 64) // 16 + 1)
        np.testing.assert_array_equal(spec, 0.0)

    def test_matches_dft_summation_oracle(self):
        cfg = StftConfig(n_fft=16, hop=4)
        rng = np.random.default_rng(0)
        signal = rng.standard_normal(40)
        np.testing.assert_allclose(
            stft_forward(signal[None], cfg)[:, 0], dft_oracle(signal, cfg),
            atol=1e-10)

    def test_bin_center_exponential(self):
        # a complex exponential at an exact bin center, analyzed with a
        # frame that starts at sample 0, lands entirely in its own bin
        cfg = StftConfig(n_fft=64, hop=64)
        k = 5
        i = np.arange(cfg.n_fft)
        signal = np.cos(2 * np.pi * k * i / cfg.n_fft)
        spec = stft_forward(signal[None], cfg)[:, 0]
        window = periodic_hann(cfg.n_fft)
        # direct evaluation of the windowed DFT at each bin
        expected = np.array(
            [
                np.sum(signal * window * np.exp(-2j * np.pi * f * i / cfg.n_fft))
                for f in range(cfg.n_freq)
            ]
        )
        np.testing.assert_allclose(spec[:, 0], expected, atol=1e-10)
        # energy concentrates at bin k and its window side lobes k +- 1
        mags = np.abs(spec[:, 0])
        assert mags[k] > 10 * np.max(np.delete(mags, [k - 1, k, k + 1]))

    def test_frame_count_relation(self):
        cfg = StftConfig(n_fft=64, hop=16)
        for n_samples in (64, 100, 256, 1000):
            spec = stft_forward(np.zeros((2, n_samples)), cfg)
            # off-grid lengths are padded up to the next whole hop
            n_grid = -(-n_samples // cfg.hop) * cfg.hop
            expected_t = (n_grid + 2 * cfg.pad - cfg.n_fft) // cfg.hop + 1
            assert spec.shape == (cfg.n_freq, 2, expected_t)

    def test_multichannel_shape(self):
        cfg = StftConfig(n_fft=64, hop=16)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 200))
        spec = stft_forward(x, cfg)
        assert spec.shape[0] == 33 and spec.shape[1] == 3
        assert spec.flags.c_contiguous
        for m in range(3):
            np.testing.assert_array_equal(spec[:, m],
                                          stft_forward(x[m:m + 1], cfg)[:, 0])

    def test_too_short_signal(self):
        cfg = StftConfig(n_fft=64, hop=16)
        with pytest.raises(ValueError, match="shorter than one analysis window"):
            stft_forward(np.zeros((1, 63)), cfg)

    def test_bad_rank(self):
        # a 1-D signal is refused too: one channel is a (1, samples) stack
        cfg = StftConfig(n_fft=64, hop=16)
        for shape in [(100,), (2, 2, 100)]:
            with pytest.raises(ValueError, match=r"expected \(channels, samples\)"):
                stft_forward(np.zeros(shape), cfg)


class TestInverse:
    def test_round_trip_mono(self):
        # hop-aligned length: every sample is covered by full frames
        cfg = StftConfig(n_fft=64, hop=16)
        rng = np.random.default_rng(2)
        signal = rng.standard_normal((1, 1024))
        spec = stft_forward(signal, cfg)
        back = stft_inverse(spec, cfg, signal.shape[1])
        assert back.shape == signal.shape
        np.testing.assert_allclose(back, signal, atol=1e-10)

    def test_round_trip_multichannel(self):
        cfg = StftConfig(n_fft=128, hop=32)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 2048))
        back = stft_inverse(stft_forward(x, cfg), cfg, x.shape[1])
        assert back.shape == x.shape
        np.testing.assert_allclose(back, x, atol=1e-10)

    def test_round_trip_misaligned_interior(self):
        # a length off the hop grid gets a final frame over its padded
        # tail, so the whole signal reconstructs, tail included
        cfg = StftConfig(n_fft=64, hop=16)
        rng = np.random.default_rng(6)
        signal = rng.standard_normal((1, 1000))
        spec = stft_forward(signal, cfg)
        n_frames = spec.shape[2]
        covered = (n_frames - 1) * cfg.hop + cfg.n_fft - 2 * cfg.pad
        assert covered == 1008
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = stft_inverse(spec, cfg, signal.shape[1])
        np.testing.assert_allclose(back, signal, atol=1e-10)

    def test_round_trip_every_length_near_one_window(self):
        cfg = StftConfig()
        rng = np.random.default_rng(7)
        signal = rng.standard_normal((1, cfg.n_fft + 2 * cfg.hop))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for length in range(cfg.n_fft, cfg.n_fft + 2 * cfg.hop + 1):
                x = signal[:, :length]
                back = stft_inverse(stft_forward(x, cfg), cfg, length)
                assert np.max(np.abs(back - x)) < 1e-10, length

    def test_round_trip_default_config(self):
        cfg = StftConfig()
        rng = np.random.default_rng(4)
        signal = rng.standard_normal((1, 16384))
        back = stft_inverse(stft_forward(signal, cfg), cfg, signal.shape[1])
        np.testing.assert_allclose(back, signal, atol=1e-10)

    def test_zero_spectrogram(self):
        cfg = StftConfig(n_fft=64, hop=16)
        out = stft_inverse(np.zeros((33, 2, 10), dtype=np.complex128), cfg, 100)
        np.testing.assert_array_equal(out, np.zeros((2, 100)))

    def test_peak_is_a_few_blocks_above_the_output(self):
        # each output-chunk block transforms only the frames it reads, so
        # the (M, T, n_fft) stack of all windowed frames (18.75 block
        # budgets here) is never held
        cfg = StftConfig()
        spec = np.ones((cfg.n_freq, 4, 600), dtype=np.complex128)
        tracemalloc.start()
        try:
            out = stft_inverse(spec, cfg, (600 + 1 - cfg.n_fft // cfg.hop) * cfg.hop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 6 * workers._BLOCK_BYTES

    def test_refuses_hop_equal_to_n_fft(self):
        # the periodic Hann window is zero at every frame start, and with
        # no overlap nothing else covers those samples
        cfg = StftConfig(n_fft=64, hop=64)
        spec = stft_forward(np.ones((1, 64)), cfg)
        with pytest.raises(ValueError, match="hop == n_fft"):
            stft_inverse(spec, cfg, cfg.n_fft)

    def test_parseval_consistency(self):
        # windowed-frame energy equals spectral energy with the one-sided
        # bins double-counted except at DC and Nyquist
        cfg = StftConfig(n_fft=64, hop=16)
        rng = np.random.default_rng(5)
        signal = rng.standard_normal(500)
        spec = stft_forward(signal[None], cfg)[:, 0]
        weights = np.full(cfg.n_freq, 2.0)
        weights[0] = weights[-1] = 1.0
        spectral = np.sum(weights[:, None] * np.abs(spec) ** 2) / cfg.n_fft

        window = periodic_hann(cfg.n_fft)
        # 500 samples are padded up to 512, the next whole hop
        padded = np.concatenate([np.zeros(cfg.pad), signal, np.zeros(cfg.pad + 12)])
        frame_energy = sum(
            np.sum((padded[t * cfg.hop : t * cfg.hop + cfg.n_fft] * window) ** 2)
            for t in range(spec.shape[1])
        )
        np.testing.assert_allclose(spectral, frame_energy, rtol=1e-9)

    def test_refuses_length_beyond_coverage(self):
        cfg = StftConfig(n_fft=64, hop=16)
        spec = stft_forward(np.ones((1, 96)), cfg)
        with pytest.raises(ValueError, match=r"length must lie in \[1, 96\]"):
            stft_inverse(spec, cfg, 200)

    def test_length_equal_to_coverage(self):
        cfg = StftConfig(n_fft=64, hop=16)
        signal = np.random.default_rng(8).standard_normal((1, 96))
        spec = stft_forward(signal, cfg)
        covered = (spec.shape[2] - 1) * cfg.hop + cfg.n_fft - 2 * cfg.pad
        assert covered == 96
        np.testing.assert_allclose(stft_inverse(spec, cfg, covered), signal,
                                   atol=1e-10)

    def test_wrong_frequency_count(self):
        cfg = StftConfig(n_fft=64, hop=16)
        # an unstacked (F, T) spectrogram is refused too
        for shape in [(32, 1, 5), (33, 5)]:
            with pytest.raises(ValueError, match=r"expected \(F, M, T\).*frequency rows"):
                stft_inverse(np.zeros(shape, dtype=np.complex128), cfg, 64)

    def test_bad_length(self):
        cfg = StftConfig(n_fft=64, hop=16)
        with pytest.raises(ValueError, match="length"):
            stft_inverse(np.zeros((33, 1, 5), dtype=np.complex128), cfg, 0)


@given(
    seed=st.integers(0, 2**31 - 1),
    log_n=st.integers(4, 8),
    hop_div=st.sampled_from([2, 4, 8]),
    extra_hops=st.integers(0, 9),
)
def test_property_round_trip(seed, log_n, hop_div, extra_hops):
    n_fft = 2**log_n
    cfg = StftConfig(n_fft=n_fft, hop=n_fft // hop_div)
    rng = np.random.default_rng(seed)
    signal = rng.standard_normal((1, n_fft + extra_hops * cfg.hop))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = stft_inverse(stft_forward(signal, cfg), cfg, signal.shape[1])
    assert np.max(np.abs(back - signal)) < 1e-10


@given(seed=st.integers(0, 2**31 - 1))
def test_property_linearity(seed):
    cfg = StftConfig(n_fft=32, hop=8)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 100))
    b = rng.standard_normal((2, 100))
    lhs = stft_forward(2.0 * a - 3.0 * b, cfg)
    rhs = 2.0 * stft_forward(a, cfg) - 3.0 * stft_forward(b, cfg)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)
