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
density.  The vectorized cores `inv_phi_from_s` and `log_marginal_from_s`
do the work; the scalar operations wrap them.

Modified Bessel functions of the second kind are evaluated in the log
domain.  At a half-integer order n + 1/2, which covers every order the
NIG variant needs, log K is the closed form of DLMF 10.49.12: a finite
sum of n + 1 positive terms in (2x)^-1, summed by Horner's rule.  Other
orders, and half-integer points where that sum overflows (tiny x with
large n), use scipy's exponentially scaled `kve` where it is finite and
an ascending small-argument series where `kve` overflows.  Ratios
K_{order+1}/K_order use the exact three-term recurrence on half-integer
orders.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import integrate, special

from .model import GH, NIG, Gaussian, GsmVariant, LeptokurticGG, StudentT

# s is floored here before the (beta - 2)/2 exponentiation of the GG
# expectation, which diverges at s = 0 for beta < 2.
GG_S_FLOOR = 1e-12

LOG_PI = math.log(math.pi)


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


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach its accuracy target."""


# ---------------------------------------------------------------------------
# log K_order(x) and K_{order+1}(x) / K_order(x).
# ---------------------------------------------------------------------------

def _log_bessel_k_small_x(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Ascending series around x = 0 for large nu:
    #   K_nu(x) = (1/2) Gamma(nu) (2/x)^nu [1 + sum_k (x^2/4)^k / (k! prod_j (j - nu))]
    # Only reached when kve overflows, i.e. x <~ 3e-5 with nu >~ 37, where
    # three correction terms are far below 1e-14 relative already.
    q = 0.25 * x * x
    with np.errstate(divide="ignore", invalid="ignore"):
        term1 = q / (1.0 - nu)
        term2 = term1 * q / (2.0 * (2.0 - nu))
        term3 = term2 * q / (3.0 * (3.0 - nu))
    # at integer nu <= 3 the series coefficients are singular, but there
    # the corrections are O(x^2) ~ 0 in this region, so drop them
    correction = term1 + term2 + term3
    correction = np.where(np.isfinite(correction), correction, 0.0)
    return (
        -math.log(2.0)
        + special.gammaln(nu)
        + nu * (math.log(2.0) - np.log(x))
        + np.log1p(correction)
    )


def _is_half_integer(order: float) -> bool:
    doubled = 2.0 * order
    return doubled == round(doubled) and round(doubled) % 2 != 0


def _half_integer_coefficients(n: int) -> list[float]:
    # a_k = (n + k)! / (k! (n - k)!) for k = 0..n, built exactly in integers
    # by a_{k+1} = a_k (n + k + 1)(n - k) / (k + 1); inf once past the float
    # range (n >= 140, far beyond any channel count).
    coeffs, a = [], 1
    for k in range(n + 1):
        coeffs.append(float(a) if a.bit_length() <= 1023 else math.inf)
        a = a * (n + k + 1) * (n - k) // (k + 1)
    return coeffs


def _log_bessel_k_half_integer(n: int, x: np.ndarray) -> np.ndarray:
    # DLMF 10.49.12: K_{n+1/2}(x) = sqrt(pi / (2x)) e^-x sum_k a_k (2x)^-k.
    # Every term is positive, so the sum has no cancellation; it is
    # non-finite only where it overflows (tiny x with large n, or an
    # infinite coefficient), which the caller detects.
    coeffs = _half_integer_coefficients(n)
    u = 0.5 / x
    total = np.full_like(x, coeffs[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for a in reversed(coeffs[:-1]):
            total = total * u + a
        return np.asarray(0.5 * np.log(0.5 * math.pi / x) - x + np.log(total))


def _log_bessel_k_generic(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    nu, x = np.broadcast_arrays(nu, x)
    with np.errstate(over="ignore"):
        kv = special.kve(nu, x)
    out = np.where(kv > 0, np.log(np.where(kv > 0, kv, 1.0)) - x, -np.inf)
    bad = ~np.isfinite(out)
    if np.any(bad):
        out[bad] = _log_bessel_k_small_x(nu[bad], x[bad])
    return out


def _log_bessel_k_array(order, x) -> np.ndarray:
    nu = np.abs(np.asarray(order, dtype=np.float64))
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0):
        raise ValueError("x must be > 0")
    if nu.ndim == 0 and _is_half_integer(float(nu)):
        out = _log_bessel_k_half_integer(int(round(float(nu) - 0.5)), x)
        bad = ~np.isfinite(out)
        if np.any(bad):
            out[bad] = _log_bessel_k_generic(nu, x[bad])
        return out
    return _log_bessel_k_generic(nu, x)


def log_bessel_k(order: float, x: float) -> float:
    """log K_order(x), symmetric in the sign of the order."""
    out = _log_bessel_k_array(order, x)
    return float(out) if out.ndim == 0 else out


def _half_integer_ratio_up(m_steps: int, x: np.ndarray) -> np.ndarray:
    # R_{1/2} = K_{3/2}/K_{1/2} = 1 + 1/x, then
    # R_{zeta} = 2 zeta / x + 1 / R_{zeta - 1} climbing zeta by one.
    ratio = 1.0 + 1.0 / x
    zeta = 0.5
    for _ in range(m_steps):
        zeta += 1.0
        ratio = 2.0 * zeta / x + 1.0 / ratio
    return ratio


def bessel_k_ratio(order: float, x) -> float | np.ndarray:
    """K_{order+1}(x) / K_order(x), stable for scalar or array x.

    Half-integer orders take the exact three-term recurrence
    K_{zeta+1} = K_{zeta-1} + (2 zeta / x) K_zeta in ratio form; other
    orders divide scaled Bessel values, falling back to a log-domain
    difference where the scaled values overflow.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    if np.any(x_arr <= 0):
        raise ValueError("x must be > 0")
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    order = float(order)
    if _is_half_integer(order):
        if order >= 0.5:
            out = _half_integer_ratio_up(int(round(order - 0.5)), x_arr)
        elif order == -0.5:
            out = np.ones_like(x_arr)  # K_{1/2} / K_{-1/2} = 1 by symmetry
        else:
            # K_{order+1}/K_{order} = K_{-order-1}/K_{-order}, reciprocal
            # of the ratio at the mirrored order -order - 1 >= 1/2.
            out = 1.0 / _half_integer_ratio_up(int(round(-order - 1.5)), x_arr)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            hi = special.kve(abs(order + 1.0), x_arr)
            lo = special.kve(abs(order), x_arr)
            out = hi / lo
        bad = ~np.isfinite(out) | (out <= 0)
        if np.any(bad):
            # callers check finiteness, so let a genuinely infinite ratio
            # come back as inf rather than warn here
            with np.errstate(over="ignore"):
                out = np.where(
                    bad,
                    np.exp(
                        _log_bessel_k_array(order + 1.0, x_arr)
                        - _log_bessel_k_array(order, x_arr)
                    ),
                    out,
                )
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Posterior expectation E[phi^-1 | z].
# ---------------------------------------------------------------------------

def inv_phi_from_s(s, m_dims: int, variant: GsmVariant):
    """Vectorized E[phi^-1 | z] as a function of s; scalar in, scalar out."""
    s_arr = np.asarray(s, dtype=np.float64)
    if isinstance(variant, Gaussian):
        out = np.ones_like(s_arr)
    elif isinstance(variant, StudentT):
        half_nu = 0.5 * variant.nu
        out = (half_nu + m_dims) / (half_nu + s_arr)
    elif isinstance(variant, LeptokurticGG):
        half_beta = 0.5 * variant.beta
        s_floored = np.maximum(s_arr, GG_S_FLOOR)
        out = half_beta * s_floored ** (half_beta - 1.0)
    elif isinstance(variant, (GH, NIG)):
        # degenerate parameter corners surface as non-finite output,
        # which posterior_inv_phi turns into an ArithmeticError
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            c = 2.0 / (variant.rho * variant.eta)
            root = np.sqrt(1.0 + c * s_arr)
            out = (bessel_k_ratio(m_dims - variant.gamma, variant.rho * root)
                   / (variant.eta * root))
    else:
        raise TypeError(f"unknown variant {variant!r}")
    return out


def posterior_inv_phi(stat: BinStatistic, variant: GsmVariant) -> float:
    """Closed-form E[phi^-1 | z] for one bin; strictly positive."""
    out = float(inv_phi_from_s(stat.s, stat.m_dims, variant))
    if not (math.isfinite(out) and out > 0):
        raise ArithmeticError(f"posterior expectation degenerated to {out}")
    return out


# ---------------------------------------------------------------------------
# Log marginal density, fully normalized.
# ---------------------------------------------------------------------------

def log_marginal_from_s(s, m_dims: int, variant: GsmVariant):
    """log p(z) + sum_m log y~_m, vectorized over s.

    This is the part of the normalized log marginal density that depends
    on z and y~ only through s; the caller subtracts sum_m log y~_m.
    """
    s_arr = np.asarray(s, dtype=np.float64)
    m = m_dims
    if isinstance(variant, Gaussian):
        return -m * LOG_PI - s_arr
    if isinstance(variant, StudentT):
        half_nu = 0.5 * variant.nu
        const = (
            m * math.log(2.0)
            + math.lgamma(m + half_nu)
            - m * math.log(math.pi * variant.nu)
            - math.lgamma(half_nu)
        )
        return const - (m + half_nu) * np.log1p(s_arr / half_nu)
    if isinstance(variant, LeptokurticGG):
        beta = variant.beta
        const = (
            math.log(beta)
            + math.lgamma(m)
            - math.log(2.0)
            - m * LOG_PI
            - math.lgamma(2.0 * m / beta)
        )
        return const - s_arr ** (0.5 * beta)
    if isinstance(variant, (GH, NIG)):
        gamma, rho, eta = variant.gamma, variant.rho, variant.eta
        c = 2.0 / (rho * eta)
        root = np.sqrt(1.0 + c * s_arr)
        const = -m * math.log(math.pi * eta) - log_bessel_k(gamma, rho)
        return (
            const
            + (gamma - m) * np.log(root)
            + _log_bessel_k_array(gamma - m, rho * root)
        )
    raise TypeError(f"unknown variant {variant!r}")


def log_marginal_density(z_tilde, y_tilde, variant: GsmVariant) -> float:
    """Fully normalized log p(z) of one bin from (z~_m, y~_m) pairs."""
    z = np.asarray(z_tilde, dtype=np.float64).ravel()
    y = np.asarray(y_tilde, dtype=np.float64).ravel()
    if z.shape != y.shape or z.size == 0:
        raise ValueError(f"z~ and y~ must be equal-length nonempty, got {z.shape}, {y.shape}")
    if np.any(z < 0) or not np.all(np.isfinite(z)):
        raise ValueError("z~ entries must be finite and >= 0")
    if np.any(y <= 0) or not np.all(np.isfinite(y)):
        raise ValueError("y~ entries must be finite and > 0")
    s = float((z / y).sum())
    return float(log_marginal_from_s(s, z.size, variant)) - float(np.log(y).sum())


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
        if isinstance(variant, (GH, NIG)):
            gamma, rho, eta = variant.gamma, variant.rho, variant.eta
            return (
                -math.log(2.0)
                - gamma * math.log(eta)
                - log_bessel_k(gamma, rho)
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
