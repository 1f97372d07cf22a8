"""Impulse priors and the per-bin statistics the optimizer consumes.

Each spectrogram bin z in C^M is conditionally Gaussian with covariance
phi * Diag(y~), where phi is a positive impulse variable.  The prior on
phi picks the member of the family:

    Gaussian        phi == 1 (point mass)
    StudentT        phi ~ inverse gamma, shape = scale = nu / 2
    LeptokurticGG   phi ~ positive alpha-stable (density has no closed
                    form; the posterior expectation below still does)
    GH              phi ~ generalized inverse Gaussian (gamma, rho, eta)
    NIG             GH with gamma = -1/2 (half-integer Bessel orders)

Downstream code needs exactly two quantities per bin, and both depend on
z only through s = sum_m |z_m|^2 / y~_m and the dimension M: the
posterior expectation E[phi^-1 | z] and the fully normalized log marginal
density.  `log_marginal_from_s` returns both in one vectorized pass and is
the only place that tells the variants apart; `inv_phi_from_s` is its
second half.

For GH and NIG both statistics need the modified Bessel function of the
second kind at order M - gamma and the same argument
x = rho sqrt(1 + 2 s / (rho eta)): log K for the marginal and the ratio
K_{M-gamma+1} / K_{M-gamma} for the expectation.  One upward ladder gives
both.  K_nu is the dominant solution of its three-term recurrence
(DLMF 10.29.1), so climbing

    R_nu = K_{nu+1}(x) / K_nu(x) = 2 nu / x + 1 / R_{nu-1},
    log K_{nu+1} = log K_nu + log R_nu

is stable and has no cancellation (every term is positive).  The climb
starts at the fractional order nu0 = nu - floor(nu) from an elementary
K_{1/2} at half-integer orders (every order NIG needs), scipy's `k0e` and
`k1e` at integer orders and scipy's `kve` otherwise.  Negative orders use
K_-nu = K_nu.  Every Bessel value in this module comes from the ladder,
so a direct call and a shared pass agree bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import GH, Gaussian, GsmVariant, LeptokurticGG, StudentT
from .workers import map_blocks

# s is floored here before the (beta - 2)/2 exponentiation of the GG
# expectation, which diverges at s = 0 for beta < 2.
GG_S_FLOOR = 1e-12

LOG_PI = math.log(math.pi)

# bytes of temporaries per value of s that a block of `log_marginal_from_s`
# holds at once: the GH ladder's eight float64 arrays, the most of any variant
_BYTES_PER_S = 8 * 8


# ---------------------------------------------------------------------------
# The Bessel ladder: log K_order(x) and K_{order+1}(x) / K_order(x).
# ---------------------------------------------------------------------------

def _ladder(order: float, x: np.ndarray):
    # (log K_order(x), K_{order+1}(x) / K_order(x)).  The climb runs at
    # nu = |order| with R_k = K_{k+1} / K_k; below zero the ratio is
    # K_{nu-1} / K_nu, the reciprocal of the previous rung.  Degenerate
    # inputs (x -> 0 or inf, NaN) surface as non-finite values, which the
    # callers check, rather than as warnings.
    nu = abs(order)
    n = math.floor(nu)
    nu0 = nu - n
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if nu0 == 0.5:
            # K_{1/2}(x) = sqrt(pi / (2x)) e^-x and K_{-1/2} = K_{1/2}
            log_scaled = 0.5 * np.log(0.5 * math.pi / x)
            prev = np.ones_like(x)
        elif nu0 == 0.0:
            from scipy import special  # here, so NIG runs never import scipy
            k0, k1 = special.k0e(x), special.k1e(x)
            log_scaled = np.log(k0)
            prev = k0 / k1  # K_0 / K_{-1}
        else:
            # K_{nu0-1} = K_{1-nu0}: both base orders lie in (0, 1), where
            # kve stays finite down to the smallest positive x
            from scipy import special
            k_lo, k_hi = special.kve(nu0, x), special.kve(1.0 - nu0, x)
            log_scaled = np.log(k_lo)
            prev = k_lo / k_hi  # K_nu0 / K_{nu0-1}
        ratio = 2.0 * nu0 / x + 1.0 / prev
        log_steps = np.zeros_like(x)
        for k in range(1, n + 1):
            log_steps += np.log(ratio)
            prev, ratio = ratio, 2.0 * (nu0 + k) / x + 1.0 / ratio
        # x last, so its rounding is the only one at its scale
        log_k = log_scaled + log_steps - x
        return log_k, (ratio if order >= 0 else 1.0 / prev)


def log_bessel_k(order: float, x) -> float | np.ndarray:
    """log K_order(x), symmetric in the sign of the order; x > 0."""
    x_arr = np.asarray(x, dtype=np.float64)
    if np.any(x_arr <= 0):
        raise ValueError("x must be > 0")
    log_k = _ladder(float(order), np.atleast_1d(x_arr))[0]
    return float(log_k[0]) if x_arr.ndim == 0 else log_k


# ---------------------------------------------------------------------------
# Per-bin statistics: log marginal density and E[phi^-1 | z].
# ---------------------------------------------------------------------------

def inv_phi_from_s(s, m_dims: int, variant: GsmVariant, log_y=None, twin=None):
    """Vectorized E[phi^-1 | z] as a function of s; scalar in, scalar out.
    With `log_y`, as for `log_marginal_from_s`, it is written over s."""
    return log_marginal_from_s(s, m_dims, variant, log_y, twin)[1]


def log_marginal_from_s(s, m_dims: int, variant: GsmVariant, log_y=None, twin=None):
    """(log p(z) + sum_m log y~_m, E[phi^-1 | z]), vectorized over s.

    The first entry is the part of the normalized log marginal density
    that depends on z and y~ only through s.  Given `log_y`, sum_m log y~_m
    per bin in an array of s's shape, it is log p(z) itself, written over
    log_y, and E[phi^-1 | z] is written over s (over copies unless both
    are C-contiguous float64); both come back in the shape of s, scalar
    for scalar s.  GH and NIG take both entries from one Bessel ladder.
    The values of s, in C order, are taken in `map_blocks` blocks that fit
    the per-thread cache budget; every statistic is elementwise, so the
    blocks give the bits one whole-array pass would.  With `twin`, s and
    log_y must be in the twin's memory, which then takes the upper blocks.
    """
    _bin_statistics(m_dims, variant)  # refuses an unknown variant before any work
    s_arr = np.asarray(s, dtype=np.float64)
    s_flat = s_arr.reshape(-1)
    in_place = log_y is not None  # else log_y is 0, and x - 0 == x to the bit
    log_p = log_y.reshape(-1) if in_place else np.zeros(s_flat.shape)
    inv_phi = s_flat if in_place else np.empty(s_flat.shape)
    map_blocks(functools.partial(_statistics_block, m_dims, variant, s_flat, log_p, inv_phi),
               s_flat.size, _BYTES_PER_S, twin=twin)
    return log_p.reshape(s_arr.shape)[()], inv_phi.reshape(s_arr.shape)[()]


def _statistics_block(m_dims: int, variant: GsmVariant, s_flat, log_p, inv_phi, block) -> None:
    log_p_block, inv_phi[block] = _bin_statistics(m_dims, variant)(s_flat[block])
    np.subtract(log_p_block, log_p[block], out=log_p[block])


@functools.lru_cache(maxsize=16)
def _bin_statistics(m: int, variant: GsmVariant):
    # the variant's s -> (log p(z) + sum_m log y~_m, E[phi^-1 | z]) on one
    # block of s, with its constants formed once, here
    if isinstance(variant, Gaussian):
        return lambda s: (-m * LOG_PI - s, np.ones_like(s))
    if isinstance(variant, StudentT):
        half_nu = 0.5 * variant.nu
        const = (
            m * math.log(2.0)
            + math.lgamma(m + half_nu)
            - m * math.log(math.pi * variant.nu)
            - math.lgamma(half_nu)
        )
        return lambda s: (const - (m + half_nu) * np.log1p(s / half_nu),
                          (half_nu + m) / (half_nu + s))
    if isinstance(variant, LeptokurticGG):
        beta = variant.beta
        half_beta = 0.5 * beta
        const = (
            math.log(beta)
            + math.lgamma(m)
            - math.log(2.0)
            - m * LOG_PI
            - math.lgamma(2.0 * m / beta)
        )
        return lambda s: (const - s ** half_beta,
                          half_beta * np.maximum(s, GG_S_FLOOR) ** (half_beta - 1.0))
    if isinstance(variant, GH):  # NIG is GH at gamma = -1/2
        gamma, rho, eta = variant.gamma, variant.rho, variant.eta
        const = -m * math.log(math.pi * eta) - log_bessel_k(gamma, rho)

        def gh(s):
            # x = rho root with root = sqrt(1 + 2 s / (rho eta)); degenerate
            # parameter corners surface as non-finite output
            with np.errstate(over="ignore", invalid="ignore"):
                root = np.sqrt(1.0 + 2.0 / (rho * eta) * s)
                log_k, ratio = _ladder(m - gamma, rho * root)
                inv_phi = ratio / (eta * root)
            return const + (gamma - m) * np.log(root) + log_k, inv_phi
        return gh
    raise TypeError(f"unknown variant {variant!r}")
