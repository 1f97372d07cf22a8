"""Multichannel Wiener reconstruction of source images.

Given the fitted model, the conditional mean of each source image is a
per-bin diagonal gain in the diagonalized domain followed by
back-projection, and the impulse variables cancel, so the filter depends
only on the spatial and spectral parameters, never on the tail variant.
The per-source gains sum to one in every bin by construction, so the
images partition the mixture exactly.

The filter runs over `workers.map_blocks`, frequency blocks within the
per-thread cache budget, on channel-major (F, M, T) arrays, so every gain
and Q_f product runs along contiguous rows of t.  A first pass forms,
block by block, the source-independent ratio Q_f x_ft / sum_n lambda_nft
g~_n (unfloored, so the gains sum to exactly one) and the mask of the
entries where that total lies at or below the run's y~ floor.  Then each
source in turn is built block by block and back-projected through
Q_f^-1; its energy, the mean |x^|^2 over (f, m, t) of the whole image, is
summed per block in cache and added up in block order, and only the
channel rows that are written are kept.  At most one source's kept rows
are alive at a time, and besides them the ratio and the mask are the
only whole arrays.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from . import linalg
from .model import ModelParams, source_psd, ytilde_floor
from .stft import StftConfig, stft_inverse
from .workers import map_blocks


def source_images(X_FMT: np.ndarray, params: ModelParams,
                  all_channels: bool) -> Iterator[tuple[float, np.ndarray]]:
    """Conditional-mean source images x^_nft = Q_f^-1 (gain_n * Q_f x_ft).

    Yields one (energy, image) pair per source in model order: energy is
    the mean |x^|^2 over (f, m, t) of the whole (F, M, T) image, and image
    holds its rows that are written: all M under `all_channels`, else
    channel 1 alone, (F, 1, T).
    gain_nftm = lambda_nft g~_nm / sum_n' lambda_n'ft g~_n'm.  Entries
    where that total is at or below `model.ytilde_floor` of the mixture
    (a run sums its power in another order, so its floor may be twice or
    half this one) get the uniform 1/N gain, so the images partition the
    mixture and no ratio overflows.  The shape check runs on the first
    ``next``."""
    X_FMT = np.asarray(X_FMT, dtype=np.complex128)
    expected = (params.n_freq, params.n_channels, params.n_frames)
    if X_FMT.shape != expected:
        raise ValueError(
            f"mixture shape {X_FMT.shape} inconsistent with params {expected}"
        )
    n_sources = params.n_sources
    channels = slice(None) if all_channels else slice(0, 1)
    if n_sources == 1:
        yield np.vdot(X_FMT, X_FMT).real / X_FMT.size, X_FMT[:, channels].copy()
        return

    Qinv_FMM = linalg.invert(params.Q)
    # bytes of one frequency's temporaries in either pass, ~4 complex
    # (M, T) arrays
    per_freq = 64 * params.n_frames * params.n_channels
    # Q x over the unfloored total; the total is 1 where it is at or below
    # the floor, so the ratio there is Q x itself
    floor = ytilde_floor(np.vdot(X_FMT, X_FMT).real, X_FMT.size)
    ratio_FMT = np.empty((params.n_freq, params.n_channels, params.n_frames),
                         dtype=np.complex128)
    dead_FMT = np.empty(ratio_FMT.shape, dtype=bool)

    def ratio_block(block):
        total_BMT = np.matmul(params.Gtilde.T,
                              source_psd(params, block).transpose(1, 0, 2))
        np.less_equal(total_BMT, floor, out=dead_FMT[block])
        total_BMT[dead_FMT[block]] = 1.0
        np.divide(np.matmul(params.Q[block], X_FMT[block]),
                  total_BMT, out=ratio_FMT[block])
    map_blocks(ratio_block, params.n_freq, per_freq)

    # the pair is built inside `_source_image`, so nothing but the yielded
    # rows is held across a yield
    for n in range(n_sources):
        yield _source_image(params, n, ratio_FMT, dead_FMT, Qinv_FMM, channels,
                            per_freq)


def _source_image(params: ModelParams, n: int, ratio_FMT, dead_FMT, Qinv_FMM,
                  channels: slice, per_freq: int) -> tuple[float, np.ndarray]:
    # source n's (energy, kept rows), one frequency block at a time:
    # Q^-1 diag(lambda_n g~_n) ratio, with g~_n folded into the columns of
    # Q^-1 and lambda_nft scaling column t.  The entries at the floor take
    # no part in it and add their 1/N share instead.
    kept_FCT = np.empty_like(ratio_FMT[:, channels])

    def image_block(block):
        ratio_BMT, dead_BMT = ratio_FMT[block], dead_FMT[block]
        dead = dead_BMT.any()
        image_BMT = np.matmul(Qinv_FMM[block] * params.Gtilde[n],
                              np.where(dead_BMT, 0.0, ratio_BMT) if dead else ratio_BMT)
        image_BMT *= source_psd(params, block,
                                slice(n, n + 1)).transpose(1, 0, 2)
        if dead:
            image_BMT += np.matmul(Qinv_FMM[block],
                                   np.where(dead_BMT, ratio_BMT, 0.0)) / params.n_sources
        kept_FCT[block] = image_BMT[:, channels]
        return np.vdot(image_BMT, image_BMT).real
    power = np.zeros(())
    map_blocks(image_block, params.n_freq, per_freq, fold=power.__iadd__)
    return power[()] / ratio_FMT.size, kept_FCT


def separate(X_FMT: np.ndarray, params: ModelParams, stft_cfg: StftConfig,
             n_samples: int, all_channels: bool) -> list:
    """Render every source image, loudest first.

    `source_images` builds each image in frequency blocks and keeps only
    the rows written here: every channel under `all_channels`, else
    channel 1 (index 0, the single-channel export convention).  Each is
    inverse-STFT'd as soon as it is built and then dropped, so at most one
    source's kept rows are alive at a time.  Returns one (M, n_samples)
    array per source, or (1, n_samples) without `all_channels`, ordered by
    decreasing mean |x^|^2 over (f, m, t) of the whole image either way;
    ties keep the lower index first.
    """
    energies, rendered = [], []
    for energy, image_FCT in source_images(X_FMT, params, all_channels):
        energies.append(energy)
        rendered.append(stft_inverse(image_FCT, stft_cfg, n_samples))
        del image_FCT  # not held while the next source is built
    order = np.argsort(-np.array(energies), kind="stable")
    return [rendered[n] for n in order]
