"""STFT analysis/synthesis used by the separation front end.

Analysis zero-pads the signal by n_fft - hop on both ends, and the end up
to a whole number of hops, so every input sample is covered by full
windows, slides a periodic Hann window in hop steps, and keeps the
n_fft/2 + 1 nonnegative-frequency bins.  Synthesis
is weighted overlap-add with the same window, dividing by the summed
squared-window envelope; wherever that envelope underflows (possible at
the extreme edges, or everywhere between frames when hop == n_fft) the
output is zero-filled and the condition is reported as a warning.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

_ENVELOPE_TINY = 1e-12


@dataclasses.dataclass(frozen=True)
class StftConfig:
    n_fft: int = 1024
    hop: int = 256

    def __post_init__(self) -> None:
        if self.n_fft < 2 or self.n_fft % 2 != 0:
            raise ValueError(f"n_fft must be even and >= 2, got {self.n_fft}")
        if not 1 <= self.hop <= self.n_fft:
            raise ValueError(f"hop must lie in [1, n_fft], got {self.hop}")
        if self.n_fft % self.hop != 0:
            raise ValueError(
                f"hop {self.hop} must divide n_fft {self.n_fft}"
            )

    @property
    def n_freq(self) -> int:
        return self.n_fft // 2 + 1

    @property
    def pad(self) -> int:
        return self.n_fft - self.hop


def periodic_hann(n_fft: int) -> np.ndarray:
    """w[i] = 0.5 (1 - cos(2 pi i / n_fft)), the DFT-even Hann window."""
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft))


def stft_forward(samples, cfg: StftConfig) -> np.ndarray:
    """Complex spectrogram of a (channels, n_samples) signal.

    Returns a C-contiguous (F, T, M) stack with F = n_fft/2 + 1 and
    T = ceil(n_samples / hop) + n_fft/hop - 1.  Frame t covers padded
    samples [t hop, t hop + n_fft).
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected (channels, samples), got shape {x.shape}")
    if x.shape[1] < cfg.n_fft:
        raise ValueError(
            f"signal of {x.shape[1]} samples is shorter than one analysis window"
            f" ({cfg.n_fft})"
        )
    tail = -x.shape[1] % cfg.hop
    padded = np.pad(x, ((0, 0), (cfg.pad, cfg.pad + tail)))
    frames = np.lib.stride_tricks.sliding_window_view(padded, cfg.n_fft, axis=1)
    frames = frames[:, :: cfg.hop, :]
    window = periodic_hann(cfg.n_fft)
    spec_MTF = np.fft.rfft(frames * window, axis=-1)
    return np.ascontiguousarray(spec_MTF.transpose(2, 1, 0))


def stft_inverse(spec, cfg: StftConfig, length: int) -> np.ndarray:
    """Weighted overlap-add inverse, trimmed/padded to `length` samples.

    Takes an (F, T, M) stack and returns (M, length).  Interior samples
    reconstruct the analyzed signal to rounding error; samples whose
    synthesis envelope underflows are zeroed.
    """
    spec = np.asarray(spec)
    if spec.ndim != 3 or spec.shape[0] != cfg.n_freq:
        raise ValueError(
            f"expected (F, T, M) spectrogram with {cfg.n_freq} frequency rows,"
            f" got shape {spec.shape}"
        )
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    n_frames = spec.shape[1]
    window = periodic_hann(cfg.n_fft)
    frames_MTt = np.fft.irfft(spec.transpose(2, 1, 0), n=cfg.n_fft, axis=-1) * window

    padded_len = (n_frames - 1) * cfg.hop + cfg.n_fft
    out = np.zeros((spec.shape[2], padded_len))
    envelope = np.zeros(padded_len)
    win_sq = window * window
    for t in range(n_frames):
        start = t * cfg.hop
        out[:, start : start + cfg.n_fft] += frames_MTt[:, t, :]
        envelope[start : start + cfg.n_fft] += win_sq

    signal = np.zeros((spec.shape[2], length))
    n_copy = min(length, max(padded_len - 2 * cfg.pad, 0))
    env_slice = envelope[cfg.pad : cfg.pad + n_copy]
    usable = env_slice > _ENVELOPE_TINY
    if not np.all(usable) or n_copy < length:
        n_bad = int(np.sum(~usable)) + (length - n_copy)
        warnings.warn(
            f"synthesis envelope underflow at {n_bad} of {length} samples;"
            " zero-filling them",
            RuntimeWarning,
            stacklevel=2,
        )
    chunk = out[:, cfg.pad : cfg.pad + n_copy]
    signal[:, :n_copy] = np.where(usable, chunk / np.where(usable, env_slice, 1.0), 0.0)
    return signal
