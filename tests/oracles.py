"""Reference implementations that only the tests use.

Every Bessel value here comes from scipy's `kve` (the tests that need
more digits use mpmath directly), never from `gsmsep.priors`' ladder, so
the production path is never checked against itself.

- `quadrature_posterior_inv_phi`: adaptive log-domain quadrature of
  E[phi^-1 | z] over the impulse prior;
- `prior_log_pdf`: the normalized impulse prior density;
- `log_marginal_density`: the normalized log marginal of one bin from its
  (z~_m, y~_m) pairs;
- `posterior_inv_phi` and `BinStatistic`: a validated scalar view of the
  production `inv_phi_from_s`;
- `gh_from_ab`: GH from the alternative (a, b) parameters;
- `whole_ytilde`, `whole_update_w`, `whole_update_h`, `whole_update_g`,
  `whole_likelihood` and `whole_source_images`: the per-bin stages and the
  Wiener filter on whole (F, T, M) arrays, one product over every
  frequency, as the frequency-blocked stages compute them block by block;
- `three_refresh_iteration`: one MU-VEM iteration from the public steps,
  with y~ refreshed after each of the W, H and G~ updates, the sequence
  `optimizer.iterate` ran before the H and G~ updates formed their own y~;
- `whole_stft_forward`: the forward STFT as one `rfft` over every frame;
- `whole_stft_inverse`: the inverse STFT as one `irfft` over every frame
  and an overlap-add loop over frames, with the envelope summed in it;
- `pairwise_dot2_quadratic_form`: Re(v^H A v) by Dot2 on (..., 2, M)
  pairs formed afresh for each of the 2M terms, the order of operations
  `linalg.compensated_quadratic_form` keeps on its own layout.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import integrate, special

from gsmsep import linalg
from gsmsep.model import (GH, GsmVariant, ModelParams, StudentT, compute_ytilde, normalize,
                          ytilde_floor)
from gsmsep.optimizer import (EStepCache, log_likelihood, outer_products, update_g, update_h,
                              update_q, update_w)
from gsmsep.priors import inv_phi_from_s, log_marginal_from_s
from gsmsep.stft import StftConfig, periodic_hann


def kve_log_k(order: float, x: float) -> float:
    """log K_order(x) from scipy's exponentially scaled kve."""
    return math.log(special.kve(abs(order), x)) - x


def gh_from_ab(gamma: float, a: float, b: float) -> GH:
    """Build a GH variant from the alternative rate/product parameters.

    (a, b) = (rho / eta, rho * eta), so rho = sqrt(a b) and
    eta = sqrt(b / a).  The Student's t limit is gamma = -nu/2, b = nu,
    a -> 0.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"a and b must be > 0, got a={a}, b={b}")
    return GH(gamma=gamma, rho=math.sqrt(a * b), eta=math.sqrt(b / a))


# ---------------------------------------------------------------------------
# Posterior expectation, one bin at a time.
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class BinStatistic:
    """s = sum_m z~_m / y~_m for one bin, plus the channel count M."""

    s: float
    m_dims: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.s) and self.s >= 0):
            raise ValueError(f"s must be finite and >= 0, got {self.s}")
        if self.m_dims < 1:
            raise ValueError(f"m_dims must be >= 1, got {self.m_dims}")


def posterior_inv_phi(stat: BinStatistic, variant: GsmVariant) -> float:
    """Production E[phi^-1 | z] for one bin; raises unless finite and > 0."""
    out = float(inv_phi_from_s(stat.s, stat.m_dims, variant))
    if not (math.isfinite(out) and out > 0):
        raise ArithmeticError(f"posterior expectation degenerated to {out}")
    return out


# ---------------------------------------------------------------------------
# Log marginal density, fully normalized.
# ---------------------------------------------------------------------------

def log_marginal_density(z_tilde, y_tilde, variant: GsmVariant) -> float:
    """Fully normalized log p(z) of one bin from (z~_m, y~_m) pairs.

    GH and NIG evaluate the closed form with `kve_log_k`; the other
    variants have no Bessel function and reuse `log_marginal_from_s`.
    """
    z = np.asarray(z_tilde, dtype=np.float64).ravel()
    y = np.asarray(y_tilde, dtype=np.float64).ravel()
    if z.shape != y.shape or z.size == 0:
        raise ValueError(f"z~ and y~ must be equal-length nonempty, got {z.shape}, {y.shape}")
    if np.any(z < 0) or not np.all(np.isfinite(z)):
        raise ValueError("z~ entries must be finite and >= 0")
    if np.any(y <= 0) or not np.all(np.isfinite(y)):
        raise ValueError("y~ entries must be finite and > 0")
    s = float((z / y).sum())
    m = z.size
    if isinstance(variant, GH):
        gamma, rho, eta = variant.gamma, variant.rho, variant.eta
        root = math.sqrt(1.0 + 2.0 * s / (rho * eta))
        value = (-m * math.log(math.pi * eta) - kve_log_k(gamma, rho)
                 + (gamma - m) * math.log(root) + kve_log_k(gamma - m, rho * root))
    else:
        value = float(log_marginal_from_s(s, m, variant)[0])
    return value - float(np.log(y).sum())


# ---------------------------------------------------------------------------
# Impulse prior densities (the variants that have one in closed form).
# ---------------------------------------------------------------------------

def _log_prior_u(u, variant: GsmVariant):
    # Normalized log density of the impulse prior at phi = e^u, written
    # directly in u so the quadrature window search cannot overflow exp(u).
    with np.errstate(over="ignore"):
        if isinstance(variant, StudentT):
            shape = scale = 0.5 * variant.nu
            return (
                shape * math.log(scale)
                - math.lgamma(shape)
                - (shape + 1.0) * u
                - scale * np.exp(-u)
            )
        if isinstance(variant, GH):
            gamma, rho, eta = variant.gamma, variant.rho, variant.eta
            return (
                -math.log(2.0)
                - gamma * math.log(eta)
                - kve_log_k(gamma, rho)
                + (gamma - 1.0) * u
                - 0.5 * rho * (np.exp(u) / eta + eta * np.exp(-u))
            )
    raise ValueError(f"variant {variant!r} has no closed-form impulse prior")


def prior_log_pdf(phi: float, variant: GsmVariant) -> float:
    """Normalized log density of the impulse prior at phi > 0.

    Only StudentT (inverse gamma) and GH/NIG (generalized inverse
    Gaussian) have closed-form priors; the Gaussian prior is a point mass
    and the leptokurtic GG prior is positive alpha-stable without a
    closed-form density, so both are rejected.
    """
    if phi <= 0 or not math.isfinite(phi):
        raise ValueError(f"phi must be finite and > 0, got {phi}")
    return float(_log_prior_u(math.log(phi), variant))


# ---------------------------------------------------------------------------
# Quadrature oracle for the posterior expectation.
# ---------------------------------------------------------------------------

class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach its accuracy target."""


def _compound_log_integrand(u: np.ndarray, s: float, m_dims: int,
                            variant: GsmVariant) -> np.ndarray:
    # log of p(z | phi) p(phi) dphi under phi = e^u (Jacobian e^u du),
    # dropping the z-only constant that cancels in the expectation ratio.
    u = np.asarray(u, dtype=np.float64)
    return -m_dims * u - s * np.exp(-u) + _log_prior_u(u, variant) + u


def quadrature_posterior_inv_phi(z_tilde, y_tilde, variant: GsmVariant) -> float:
    """Adaptive log-domain quadrature of E[phi^-1 | z]; target 1e-8 relative.

    Used as an independent oracle for posterior_inv_phi.  Substituting
    phi = e^u, both integrals of the ratio
    int phi^-1 p(z|phi) p(phi) dphi / int p(z|phi) p(phi) dphi are taken
    over a window where the shifted integrand is above exp(-120), located
    from the mode of the log integrand.
    """
    z = np.asarray(z_tilde, dtype=np.float64).ravel()
    y = np.asarray(y_tilde, dtype=np.float64).ravel()
    if z.shape != y.shape or z.size == 0:
        raise ValueError("z~ and y~ must be equal-length nonempty vectors")
    s = float((z / y).sum())
    m_dims = z.size

    grid = np.linspace(-60.0, 60.0, 4801)
    log_vals = _compound_log_integrand(grid, s, m_dims, variant)
    peak = float(grid[int(np.argmax(log_vals))])
    log_peak = float(np.max(log_vals))

    def log_f(u: float) -> float:
        return float(_compound_log_integrand(np.float64(u), s, m_dims, variant))

    def edge(direction: float) -> float:
        step = 0.25
        u = peak
        while log_f(u + direction * step) > log_peak - 120.0:
            step *= 2.0
            if step > 1e4:
                break
        return u + direction * step

    lo, hi = edge(-1.0), edge(+1.0)

    def integrate_shifted(extra_inv_phi: bool) -> tuple[float, float]:
        shift = -1.0 if extra_inv_phi else 0.0

        def f(u: float) -> float:
            return math.exp(log_f(u) + shift * u - log_peak)

        total = err = 0.0
        for a, b in ((lo, peak), (peak, hi)):
            val, abserr = integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-11, limit=400)
            total += val
            err += abserr
        return total, err

    den, den_err = integrate_shifted(extra_inv_phi=False)
    num, num_err = integrate_shifted(extra_inv_phi=True)
    if den <= 0 or num <= 0:
        raise QuadratureError("compound integral collapsed to zero mass")
    achieved = num_err / num + den_err / den
    if achieved > 1e-8:
        raise QuadratureError(
            f"quadrature missed the 1e-8 relative target, achieved {achieved:.2e}"
        )
    return num / den


# ---------------------------------------------------------------------------
# Per-bin stages on whole arrays.
# ---------------------------------------------------------------------------

def _whole_psd(params: ModelParams) -> np.ndarray:
    return np.matmul(params.W.transpose(0, 2, 1), params.H)


def whole_ytilde(params: ModelParams, floor: float) -> np.ndarray:
    """y~_FTM = max(sum_n lambda_nft g~_nm, floor) in one contraction."""
    return np.maximum(np.tensordot(_whole_psd(params), params.Gtilde,
                                   axes=([0], [0])), floor)


def _whole_ratio_parts(params: ModelParams, y_FTM, z_hat_FTM):
    P_FTM = z_hat_FTM / (y_FTM * y_FTM)
    R_FTM = 1.0 / y_FTM
    return (np.tensordot(params.Gtilde, P_FTM, axes=([1], [2])),
            np.tensordot(params.Gtilde, R_FTM, axes=([1], [2])), P_FTM, R_FTM)


def whole_update_w(params: ModelParams, y_FTM, z_hat_FTM) -> np.ndarray:
    """The multiplicative W update: sums over (t, m) for every f at once."""
    tmp1_NFT, tmp2_NFT, _, _ = _whole_ratio_parts(params, y_FTM, z_hat_FTM)
    numerator = np.matmul(params.H, tmp1_NFT.transpose(0, 2, 1))
    denominator = np.matmul(params.H, tmp2_NFT.transpose(0, 2, 1))
    return params.W * np.sqrt(numerator / denominator)


def whole_update_h(params: ModelParams, y_FTM, z_hat_FTM) -> np.ndarray:
    """The multiplicative H update: one sum over (f, m)."""
    tmp1_NFT, tmp2_NFT, _, _ = _whole_ratio_parts(params, y_FTM, z_hat_FTM)
    return params.H * np.sqrt(np.matmul(params.W, tmp1_NFT)
                              / np.matmul(params.W, tmp2_NFT))


def whole_update_g(params: ModelParams, y_FTM, z_hat_FTM) -> np.ndarray:
    """The multiplicative G~ update: one sum over (f, t)."""
    _, _, P_FTM, R_FTM = _whole_ratio_parts(params, y_FTM, z_hat_FTM)
    lambda_NFT = _whole_psd(params)
    numerator = np.tensordot(lambda_NFT, P_FTM, axes=([1, 2], [0, 1]))
    denominator = np.tensordot(lambda_NFT, R_FTM, axes=([1, 2], [0, 1]))
    return params.Gtilde * np.sqrt(numerator / denominator)


def whole_likelihood(X_FTM, params: ModelParams, variant: GsmVariant,
                     floor: float):
    """(log-likelihood, y~, E[1/phi], z^) from whole-array Q x and sums over m."""
    z_tilde = np.abs(np.matmul(X_FTM, params.Q.transpose(0, 2, 1))) ** 2
    y_tilde = whole_ytilde(params, floor)
    s = (z_tilde / y_tilde).sum(axis=2)
    bin_terms, inv_phi = log_marginal_from_s(s, params.n_channels, variant)
    bin_terms = bin_terms - np.log(y_tilde).sum(axis=2)
    det_F = np.asarray(linalg.log_abs_det_gram(params.Q))
    value = float(bin_terms.sum() + X_FTM.shape[1] * det_F.sum())
    return value, y_tilde, inv_phi, inv_phi[:, :, None] * z_tilde


def three_refresh_iteration(X_FMT, params: ModelParams, cache: EStepCache,
                            variant: GsmVariant, floor: float, rank1: bool) -> tuple:
    """(params, log-likelihood, cache) after one iteration from `cache`, the
    E-step at params: each of the W, H and G~ updates (no G~ under rank-1)
    is followed by a y~ refresh into a fresh cache, which the next one reads."""
    params = update_w(params, cache)
    cache = dataclasses.replace(cache, y_tilde=compute_ytilde(params, floor))
    params = update_h(params, cache)
    cache = dataclasses.replace(cache, y_tilde=compute_ytilde(params, floor))
    if not rank1:
        params = update_g(params, cache)
        cache = dataclasses.replace(cache, y_tilde=compute_ytilde(params, floor))
    params = normalize(update_q(params, outer_products(X_FMT)[0], cache))
    ll, cache = log_likelihood(X_FMT, params, variant, floor)
    return params, ll, cache


def whole_source_images(X_FTM, params: ModelParams) -> list:
    """Every conditional-mean source image, (F, T, M) each, from whole
    arrays: the gain lambda_nft g~_nm / sum_n' lambda_n'ft g~_n'm (1/N
    where the total is at or below the mixture's y~ floor) times Q x,
    back-projected through Q_f^-1."""
    Qinv_FMM = np.linalg.inv(params.Q)
    Qx_FTM = np.matmul(X_FTM, params.Q.transpose(0, 2, 1))
    lambda_NFT = _whole_psd(params)
    total_FTM = np.tensordot(lambda_NFT, params.Gtilde, axes=([0], [0]))
    live_FTM = total_FTM > ytilde_floor(np.sum(np.abs(X_FTM) ** 2), X_FTM.size)
    safe_total_FTM = np.where(live_FTM, total_FTM, 1.0)
    return [np.matmul(np.where(live_FTM,
                               lambda_NFT[n][:, :, None] * params.Gtilde[n]
                               / safe_total_FTM,
                               1.0 / params.n_sources) * Qx_FTM,
                      Qinv_FMM.transpose(0, 2, 1))
            for n in range(params.n_sources)]


def whole_stft_forward(samples: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """(F, T, M) spectrogram of (M, n) samples: every padded frame windowed
    and transformed by one `rfft` call."""
    tail = -samples.shape[1] % cfg.hop
    padded = np.pad(samples, ((0, 0), (cfg.pad, cfg.pad + tail)))
    frames = np.lib.stride_tricks.sliding_window_view(padded, cfg.n_fft, axis=1)
    spec_MTF = np.fft.rfft(frames[:, :: cfg.hop, :] * periodic_hann(cfg.n_fft), axis=-1)
    return np.ascontiguousarray(spec_MTF.transpose(2, 1, 0))


def whole_stft_inverse(spec: np.ndarray, cfg: StftConfig, length: int) -> np.ndarray:
    """(M, length) weighted overlap-add of an (F, T, M) spectrogram: every
    frame inverse-transformed and windowed at once, then added frame by
    frame, t ascending, into zeros."""
    n_frames = spec.shape[1]
    padded_len = (n_frames - 1) * cfg.hop + cfg.n_fft
    window = periodic_hann(cfg.n_fft)
    frames_MTt = np.fft.irfft(spec.transpose(2, 1, 0), n=cfg.n_fft, axis=-1) * window

    out = np.zeros((spec.shape[2], padded_len))
    envelope = np.zeros(padded_len)
    win_sq = window * window
    for t in range(n_frames):
        start = t * cfg.hop
        out[:, start : start + cfg.n_fft] += frames_MTt[:, t, :]
        envelope[start : start + cfg.n_fft] += win_sq
    kept = slice(cfg.pad, cfg.pad + length)
    return out[:, kept] / envelope[kept]


# ---------------------------------------------------------------------------
# The compensated quadratic form on the stack's own layout.
# ---------------------------------------------------------------------------

# 2**27 + 1; Dekker's constant for splitting a float64 into two 26-bit halves
_SPLIT = 134217729.0


def _two_prod(a, b):
    """a * b as an exact (product, error) float64 pair."""
    p = a * b
    ah = _SPLIT * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLIT * b
    bh = bh - (bh - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _dot2(pairs):
    """Dot2: sum of x * y over the pairs as a (hi, lo) pair, by TwoProduct
    and TwoSum, with the rounding errors of both summed into lo."""
    hi = lo = 0.0
    for x, y in pairs:
        p, err = _two_prod(x, y)
        s = hi + p
        z = s - hi
        lo = lo + (((hi - (s - z)) + (p - z)) + err)
        hi = s
    return hi, lo


def pairwise_dot2_quadratic_form(A, v) -> np.ndarray:
    """Re(v^H A v) per stacked matrix by Dot2 (Ogita, Rump & Oishi, 2005).

    w = A v is formed column by column as (hi, lo) pairs on (..., 2, M)
    stacks of (Re w, Im w), every TwoProduct splitting its factors anew;
    then sum_i Re(v_i) Re(w_i) + Im(v_i) Im(w_i) over the hi parts, with v
    times the lo parts added to the error term.
    """
    A = np.asarray(A)
    v = np.asarray(v)
    P = np.asarray(A.real, dtype=np.float64)
    S = np.asarray(A.imag, dtype=np.float64)
    a = np.asarray(v.real, dtype=np.float64)
    b = np.asarray(v.imag, dtype=np.float64)
    # (Re w, Im w) += (P_:j, P_:j) (a_j, b_j) + (-S_:j, S_:j) (b_j, a_j)
    blocks = ((P, P, a, b), (-S, S, b, a))
    w_hi, w_lo = _dot2((np.stack([C[..., :, j], D[..., :, j]], axis=-2),
                        np.stack([x[..., j], y[..., j]], axis=-1)[..., None])
                       for j in range(a.shape[-1]) for C, D, x, y in blocks)
    hi, lo = _dot2((x[..., i], w_hi[..., k, i])
                   for k, x in enumerate((a, b)) for i in range(a.shape[-1]))
    return hi + (lo + (a * w_lo[..., 0, :] + b * w_lo[..., 1, :]).sum(axis=-1))
