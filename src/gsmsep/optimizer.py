"""MU-VEM loop: E-step statistics, multiplicative updates, iterative
projection for the diagonalizers, normalization, likelihood tracking.

Each iteration computes the E-step once (the posterior expectation of the
inverse impulse variable is held fixed through the M-step), then applies
the four parameter updates in the order W, H, G~, Q with the model
variances y~ refreshed after every update, then normalizes and records
the marginal log-likelihood.  Every update is an exact maximizer or a
multiplicative step on the same minorizing bound, so the trace is
non-decreasing up to rounding; violations beyond a 1e-8 relative slack
are reported as warnings with their iteration index, never swallowed.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Callable

import numpy as np

from . import linalg
from .model import (
    ModelParams,
    SeparationConfig,
    GsmVariant,
    compute_ytilde,
    init_params,
    normalize,
    source_psd,
)
from .priors import inv_phi_from_s, log_marginal_from_s

DEFAULT_FLOOR = 1e-10
MONOTONE_SLACK = 1e-8

# pure guard against 0/0 in the multiplicative ratios; small enough to
# never alter a denominator that carries information
_DEN_TINY = np.finfo(np.float64).tiny


@dataclasses.dataclass(frozen=True)
class EStepCache:
    """Per-bin statistics shared by the M-step updates.

    z_tilde: (F, T, M) = |q_fm^H x_ft|^2
    y_tilde: (F, T, M) model variances, floored
    inv_phi: (F, T) posterior expectation of phi^-1
    z_hat:   (F, T, M) = inv_phi * z_tilde
    """

    z_tilde: np.ndarray
    y_tilde: np.ndarray
    inv_phi: np.ndarray
    z_hat: np.ndarray


def project_mixture(X_FTM: np.ndarray, Q_FMM: np.ndarray) -> np.ndarray:
    """z_ftm = (Q_f x_ft)_m (row m of Q_f is q_fm^H)."""
    return np.matmul(X_FTM, Q_FMM.transpose(0, 2, 1))


def e_step(X_FTM: np.ndarray, params: ModelParams, variant: GsmVariant,
           floor: float = DEFAULT_FLOOR) -> EStepCache:
    if X_FTM.shape != (params.n_freq, params.n_frames, params.n_channels):
        raise ValueError(
            f"mixture shape {X_FTM.shape} inconsistent with params"
            f" {(params.n_freq, params.n_frames, params.n_channels)}"
        )
    Qx_FTM = project_mixture(X_FTM, params.Q)
    z_tilde = np.abs(Qx_FTM) ** 2
    y_tilde = compute_ytilde(params, floor)
    s_FT = (z_tilde / y_tilde).sum(axis=2)
    inv_phi = np.asarray(inv_phi_from_s(s_FT, params.n_channels, variant))
    return EStepCache(
        z_tilde=z_tilde,
        y_tilde=y_tilde,
        inv_phi=inv_phi,
        z_hat=inv_phi[:, :, None] * z_tilde,
    )


def _mu_ratio_parts(cache: EStepCache, Gtilde_NM: np.ndarray):
    # tmp1 weights carry y~^-2 z^, tmp2 carry y~^-1, contracted over m.
    P_FTM = cache.z_hat / (cache.y_tilde * cache.y_tilde)
    R_FTM = 1.0 / cache.y_tilde
    tmp1_NFT = np.tensordot(Gtilde_NM, P_FTM, axes=([1], [2]))
    tmp2_NFT = np.tensordot(Gtilde_NM, R_FTM, axes=([1], [2]))
    return tmp1_NFT, tmp2_NFT


def update_w(params: ModelParams, cache: EStepCache) -> ModelParams:
    """w <- w sqrt(sum_tm h g~ y~^-2 z^ / sum_tm h g~ y~^-1)."""
    tmp1_NFT, tmp2_NFT = _mu_ratio_parts(cache, params.Gtilde)
    numerator = np.matmul(params.H, tmp1_NFT.transpose(0, 2, 1))
    denominator = np.matmul(params.H, tmp2_NFT.transpose(0, 2, 1))
    W_NKF = params.W * np.sqrt(numerator / np.maximum(denominator, _DEN_TINY))
    return dataclasses.replace(params, W=W_NKF)


def update_h(params: ModelParams, cache: EStepCache) -> ModelParams:
    """h <- h sqrt(sum_fm w g~ y~^-2 z^ / sum_fm w g~ y~^-1)."""
    tmp1_NFT, tmp2_NFT = _mu_ratio_parts(cache, params.Gtilde)
    numerator = np.matmul(params.W, tmp1_NFT)
    denominator = np.matmul(params.W, tmp2_NFT)
    H_NKT = params.H * np.sqrt(numerator / np.maximum(denominator, _DEN_TINY))
    return dataclasses.replace(params, H=H_NKT)


def update_g(params: ModelParams, cache: EStepCache,
             rank1: bool = False) -> ModelParams:
    """g~ <- g~ sqrt(sum_ft lambda y~^-2 z^ / sum_ft lambda y~^-1).

    No-op under the rank-1 constraint, where G~ is frozen at identity.
    """
    if rank1:
        return params
    lambda_NFT = source_psd(params)
    P_FTM = cache.z_hat / (cache.y_tilde * cache.y_tilde)
    R_FTM = 1.0 / cache.y_tilde
    numerator = np.tensordot(lambda_NFT, P_FTM, axes=([1, 2], [0, 1]))
    denominator = np.tensordot(lambda_NFT, R_FTM, axes=([1, 2], [0, 1]))
    G_NM = params.Gtilde * np.sqrt(numerator / np.maximum(denominator, _DEN_TINY))
    return dataclasses.replace(params, Gtilde=G_NM)


def update_q(params: ModelParams, X_FTM: np.ndarray,
             cache: EStepCache) -> ModelParams:
    """Iterative projection on every row of every Q_f.

    V_fm = (1/T) sum_t inv_phi_ft x_ft x_ft^H / y~_ftm, then
    q_fm <- (Q_f V_fm)^-1 e_m rescaled to q_fm^H V_fm q_fm = 1, applied
    for m = 1..M in order.  The rescale factor is evaluated in compensated
    arithmetic so the unit quadratic form survives ill-conditioned V.  A
    singular system leaves that frequency's row untouched and is reported
    with its (f, m) index.
    """
    n_freq, n_frames, n_chan = X_FTM.shape
    Q_FMM = params.Q.copy()
    for m in range(n_chan):
        weight_FT = cache.inv_phi / cache.y_tilde[:, :, m]
        Xw_FTM = X_FTM * weight_FT[:, :, None]
        V_FMM = np.matmul(Xw_FTM.transpose(0, 2, 1), X_FTM.conj()) / n_frames
        QV_FMM = np.matmul(Q_FMM, V_FMM)
        rhs_FM = np.zeros((n_freq, n_chan), dtype=np.complex128)
        rhs_FM[:, m] = 1.0
        bad_F = np.zeros(n_freq, dtype=bool)
        try:
            q_FM = np.linalg.solve(QV_FMM, rhs_FM[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            q_FM = np.zeros((n_freq, n_chan), dtype=np.complex128)
            for f in range(n_freq):
                try:
                    q_FM[f] = np.linalg.solve(QV_FMM[f], rhs_FM[f])
                except np.linalg.LinAlgError:
                    bad_F[f] = True
                    warnings.warn(
                        f"singular diagonalizer system at (f={f}, m={m});"
                        " keeping the previous row",
                        RuntimeWarning,
                        stacklevel=2,
                    )
        # compensated evaluation: a plain einsum loses ~eps * cond(V) here,
        # which breaks the unit quadratic form once variance floors push
        # cond(V) past ~1e6
        scale_F = np.asarray(linalg.compensated_quadratic_form(V_FMM, q_FM))
        degenerate_F = ~(np.isfinite(scale_F) & (scale_F > 0)) & ~bad_F
        for f in np.nonzero(degenerate_F)[0]:
            warnings.warn(
                f"degenerate projection scale at (f={int(f)}, m={m});"
                " keeping the previous row",
                RuntimeWarning,
                stacklevel=2,
            )
        keep_F = bad_F | degenerate_F
        safe_scale_F = np.where(keep_F, 1.0, scale_F)
        row_FM = (q_FM / np.sqrt(safe_scale_F)[:, None]).conj()
        Q_FMM[:, m, :] = np.where(keep_F[:, None], Q_FMM[:, m, :], row_FM)
    return dataclasses.replace(params, Q=Q_FMM)


def log_likelihood(X_FTM: np.ndarray, params: ModelParams,
                   variant: GsmVariant, floor: float = DEFAULT_FLOOR) -> float:
    """Marginal log-likelihood sum_ft log p(z_ft) + T sum_f log|Q_f Q_f^H|."""
    z_FTM = np.abs(project_mixture(X_FTM, params.Q)) ** 2
    y_FTM = compute_ytilde(params, floor)
    s_FT = (z_FTM / y_FTM).sum(axis=2)
    bin_terms = log_marginal_from_s(s_FT, params.n_channels, variant)
    bin_terms = bin_terms - np.log(y_FTM).sum(axis=2)
    det_F = np.asarray(linalg.log_abs_det_gram(params.Q))
    return float(bin_terms.sum() + X_FTM.shape[1] * det_F.sum())


def run(
    X_FTM: np.ndarray,
    cfg: SeparationConfig,
    progress: Callable[[int, float], None] | None = None,
) -> tuple[ModelParams, list[float]]:
    """Initialize and iterate the full update cycle cfg.iterations times.

    Returns the fitted parameters and one marginal log-likelihood per
    iteration.  Deterministic given cfg.seed.  `progress` receives
    (iteration, log-likelihood) after each iteration.
    """
    X_FTM = np.asarray(X_FTM, dtype=np.complex128)
    if X_FTM.ndim != 3:
        raise ValueError(f"expected (F, T, M) mixture, got shape {X_FTM.shape}")
    n_freq, n_frames, n_chan = X_FTM.shape

    params = init_params(cfg, n_freq, n_frames, n_chan)
    values: list[float] = []
    for iteration in range(cfg.iterations):
        cache = e_step(X_FTM, params, cfg.variant, cfg.floor)

        params = update_w(params, cache)
        cache = dataclasses.replace(cache, y_tilde=compute_ytilde(params, cfg.floor))
        params = update_h(params, cache)
        cache = dataclasses.replace(cache, y_tilde=compute_ytilde(params, cfg.floor))
        params = update_g(params, cache, rank1=cfg.rank1)
        cache = dataclasses.replace(cache, y_tilde=compute_ytilde(params, cfg.floor))
        params = update_q(params, X_FTM, cache)

        params = normalize(params)
        ll = log_likelihood(X_FTM, params, cfg.variant, floor=cfg.floor)
        if values and ll < values[-1] - MONOTONE_SLACK * abs(values[-1]):
            warnings.warn(
                f"log-likelihood decreased beyond slack at iteration {iteration}:"
                f" {values[-1]:.6f} -> {ll:.6f}",
                RuntimeWarning,
                stacklevel=2,
            )
        values.append(ll)
        if progress is not None:
            progress(iteration, ll)
    return params, values
