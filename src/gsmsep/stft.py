"""STFT analysis/synthesis used by the separation front end.

Analysis zero-pads the signal by n_fft - hop on both ends, and the end up
to a whole number of hops, so every input sample is covered by full
windows, slides a periodic Hann window in hop steps, and keeps the
n_fft/2 + 1 nonnegative-frequency bins in a channel-major (F, M, T)
stack.  Synthesis is weighted overlap-add with the same window, each
hop-sample output chunk adding its frames' parts in frame order, divided
by the summed squared-window envelope.  Both pass blocks (of frames, and
of output chunks, each transforming only the frames it reads) within the
per-thread cache budget to `workers.map_blocks`, which gives the bits one
thread would.  Every sample synthesis returns lies under at least
n_fft/hop >= 2 frames, where that envelope is at least 1/2; it refuses
hop == n_fft (the window is zero at every frame start) and a length
beyond what the frames cover, rather than return samples it cannot
invert.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .workers import map_blocks


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

    Returns a C-contiguous (F, M, T) stack with F = n_fft/2 + 1 and
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
    spec_FMT = np.empty((cfg.n_freq, x.shape[0], frames.shape[1]), dtype=np.complex128)

    def frame_block(block):  # as many frames as the per-thread budget holds
        spec_FMT[:, :, block] = np.fft.rfft(frames[:, block] * window, axis=-1).transpose(2, 0, 1)
    map_blocks(frame_block, frames.shape[1], 8 * cfg.n_fft * x.shape[0])
    return spec_FMT


def stft_inverse(spec, cfg: StftConfig, length: int) -> np.ndarray:
    """Weighted overlap-add inverse: the first `length` analyzed samples.

    Takes an (F, M, T) stack and returns (M, length), which reconstructs
    the analyzed signal to rounding error.  Raises ValueError when hop ==
    n_fft, or when `length` exceeds the (T - 1) hop + n_fft - 2 pad
    samples the frames cover.
    """
    spec = np.asarray(spec)
    if spec.ndim != 3 or spec.shape[0] != cfg.n_freq:
        raise ValueError(
            f"expected (F, M, T) spectrogram with {cfg.n_freq} frequency rows,"
            f" got shape {spec.shape}"
        )
    if cfg.hop == cfg.n_fft:
        raise ValueError(f"hop == n_fft ({cfg.n_fft}) cannot be inverted: the"
                         " window is zero at every frame start")
    (_, n_chan, n_frames), overlap, hop = spec.shape, cfg.n_fft // cfg.hop, cfg.hop
    covered = (n_frames + 1 - overlap) * hop
    if not 1 <= length <= covered:
        raise ValueError(f"length must lie in [1, {covered}], the samples"
                         f" {n_frames} frames cover; got {length}")
    window = periodic_hann(cfg.n_fft)
    envelope = sum((window * window).reshape(overlap, hop)[::-1], np.zeros(hop))
    out = np.empty((n_chan, length))

    # kept chunk k (samples pad + k hop on) is 0.0 plus sub-chunk overlap-1-u
    # of frame k + u for u = 0, 1, ...: a frame-by-frame overlap-add's order
    def chunk_block(block):
        n_kept = block.stop - block.start
        frames_MTn = np.fft.irfft(spec[:, :, block.start : block.stop + overlap - 1]
                                  .transpose(1, 2, 0), n=cfg.n_fft)
        frames_MTn *= window
        subs_MToh = frames_MTn.reshape(n_chan, -1, overlap, hop)
        sum_MKh = np.zeros((n_chan, n_kept, hop))
        for u in range(overlap):
            sum_MKh += subs_MToh[:, u : u + n_kept, overlap - 1 - u]
        kept = out[:, block.start * hop : block.stop * hop]
        kept[:] = (sum_MKh / envelope).reshape(n_chan, -1)[:, : kept.shape[1]]
    map_blocks(chunk_block, -(-length // hop), 8 * cfg.n_fft * n_chan)
    return out
