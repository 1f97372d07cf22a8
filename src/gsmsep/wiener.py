"""Multichannel Wiener reconstruction of source images.

Given the fitted model, the conditional mean of each source image is a
per-bin diagonal gain in the diagonalized domain followed by
back-projection, and the impulse variables cancel, so the filter depends
only on the spatial and spectral parameters, never on the tail variant.
The per-source gains sum to one in every bin by construction, so the
images partition the mixture exactly.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from . import linalg
from .model import ModelParams, source_psd
from .optimizer import project_mixture
from .stft import StftConfig, stft_inverse


def source_images(X_FTM: np.ndarray, params: ModelParams) -> Iterator[np.ndarray]:
    """Conditional-mean source images x^_nft = Q_f^-1 (gain_n * Q_f x_ft).

    Yields one (F, T, M) image per source in model order.
    gain_nftm = lambda_nft g~_nm / sum_n' lambda_n'ft g~_n'm.  Bins where
    every source variance vanishes get the uniform 1/N gain so the images
    still partition the mixture.  The shape check runs on the first
    ``next``.
    """
    X_FTM = np.asarray(X_FTM, dtype=np.complex128)
    expected = (params.n_freq, params.n_frames, params.n_channels)
    if X_FTM.shape != expected:
        raise ValueError(
            f"mixture shape {X_FTM.shape} inconsistent with params {expected}"
        )
    n_sources = params.n_sources
    if n_sources == 1:
        yield X_FTM.copy()
        return

    Qinv_FMM = linalg.invert(params.Q)
    Qx_FTM = project_mixture(X_FTM, params.Q)
    lambda_NFT = source_psd(params)
    # unfloored total so the per-bin gains sum to exactly one
    total_FTM = np.tensordot(lambda_NFT, params.Gtilde, axes=([0], [0]))
    live_FTM = total_FTM > 0
    safe_total_FTM = np.where(live_FTM, total_FTM, 1.0)

    for n in range(n_sources):
        num_FTM = lambda_NFT[n][:, :, None] * params.Gtilde[n][None, None, :]
        gain_FTM = np.where(live_FTM, num_FTM / safe_total_FTM, 1.0 / n_sources)
        yield np.matmul(gain_FTM * Qx_FTM, Qinv_FMM.transpose(0, 2, 1))


def separate(X_FTM: np.ndarray, params: ModelParams, stft_cfg: StftConfig,
             n_samples: int) -> list:
    """Render every source image, loudest first.

    Each image is inverse-STFT'd channel by channel as soon as it is built
    and then dropped, so one (F, T, M) image is alive at a time.  Returns
    one (M, n_samples) array per source, ordered by decreasing mean
    |x^|^2 over (f, t, m); ties keep the lower index first.  Channel 1
    (index 0) is the single-channel export convention.
    """
    energies, rendered = [], []
    for image_FTM in source_images(X_FTM, params):
        energies.append(np.mean(np.abs(image_FTM) ** 2))
        rendered.append(stft_inverse(image_FTM, stft_cfg, n_samples))
    order = np.argsort(-np.array(energies), kind="stable")
    return [rendered[n] for n in order]
