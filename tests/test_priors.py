"""Tests for the bin-density statistics.

Closed-form expectations are pinned against hand-derived values and an
independent cosh-form quadrature of the Bessel integral representation;
posterior expectations are cross-checked against the adaptive compound
quadrature oracle and a finite-difference gradient identity.
"""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from gsmsep.model import GH, NIG, Gaussian, LeptokurticGG, StudentT
from gsmsep.priors import (
    GG_S_FLOOR,
    _ladder,
    inv_phi_from_s,
    log_bessel_k,
    log_marginal_from_s,
)
from oracles import (
    BinStatistic,
    gh_from_ab,
    log_marginal_density,
    posterior_inv_phi,
    prior_log_pdf,
    quadrature_posterior_inv_phi,
)


def ladder_ratio(order: float, x):
    """K_{order+1}(x) / K_order(x), scalar or array x, from the ladder that
    gives `log_bessel_k`: its second output, which E[1/phi] uses."""
    x_arr = np.asarray(x, dtype=np.float64)
    ratio = _ladder(float(order), np.atleast_1d(x_arr))[1]
    return float(ratio[0]) if x_arr.ndim == 0 else ratio


def log_bessel_k_quadrature(order: float, x: float) -> float:
    """log K_order(x) by K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt.

    Evaluated in the log domain with the peak shifted out, so it stays
    accurate for large orders at small arguments where the integrand
    spans hundreds of orders of magnitude.
    """
    nu = abs(float(order))

    def log_integrand(t):
        t = np.asarray(t, dtype=np.float64)
        a = nu * t
        # log cosh(a) without overflow
        log_cosh = np.abs(a) + np.log1p(np.exp(-2.0 * np.abs(a))) - math.log(2.0)
        with np.errstate(over="ignore"):  # cosh -> inf gives -inf, as wanted
            return -x * np.cosh(t) + log_cosh

    grid = np.linspace(0.0, 800.0, 160001)
    log_vals = log_integrand(grid)
    peak_idx = int(np.argmax(log_vals))
    peak = float(grid[peak_idx])
    log_peak = float(log_vals[peak_idx])
    above = np.nonzero(log_vals > log_peak - 60.0)[0]
    lo = float(grid[max(above[0] - 1, 0)])
    hi = float(grid[min(above[-1] + 1, len(grid) - 1)])

    def f(t):
        return math.exp(float(log_integrand(t)) - log_peak)

    total = 0.0
    for a, b in ((lo, peak), (peak, hi)):
        if b > a:
            val, _ = integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=500)
            total += val
    return log_peak + math.log(total)


class TestLogBesselK:
    def test_half_order_closed_form(self):
        # K_{1/2}(x) = sqrt(pi / (2 x)) e^{-x}
        for x in (0.25, 1.0, 7.0, 300.0):
            expected = 0.5 * math.log(math.pi / (2.0 * x)) - x
            np.testing.assert_allclose(log_bessel_k(0.5, x), expected, rtol=1e-12)

    def test_frozen_value_at_one(self):
        assert math.exp(log_bessel_k(0.5, 1.0)) == pytest.approx(
            0.46106850444789445, rel=1e-12
        )

    def test_symmetric_in_order(self):
        for order in (0.3, 1.0, 2.5, 17.0, 49.5):
            for x in (1e-4, 0.5, 10.0, 2000.0):
                np.testing.assert_allclose(
                    log_bessel_k(order, x), log_bessel_k(-order, x), rtol=1e-13
                )

    def test_against_integral_representation(self):
        for order in (0.0, 0.5, 3.0, 10.5, 25.0):
            for x in (0.01, 1.0, 30.0):
                value = log_bessel_k(order, x)
                if abs(value) < 0.1:
                    continue  # relative comparison is meaningless near zero
                oracle = log_bessel_k_quadrature(order, x)
                np.testing.assert_allclose(value, oracle, rtol=1e-8)

    def test_small_argument_series_region(self):
        # where kve at the full order overflows, the leading term
        # log(Gamma(nu) 2^{nu-1} x^-nu) of the ascending series dominates
        order, x = 50.0, 1e-6
        leading = math.lgamma(order) + (order - 1.0) * math.log(2.0) - order * math.log(x)
        np.testing.assert_allclose(log_bessel_k(order, x), leading, rtol=1e-9)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            log_bessel_k(1.0, 0.0)

    def test_large_argument_no_overflow(self):
        # log K_0(1e4) ~ -1e4; the scaled base keeps this finite
        value = log_bessel_k(0.0, 1e4)
        expected = 0.5 * math.log(math.pi / (2.0 * 1e4)) - 1e4
        np.testing.assert_allclose(value, expected, rtol=1e-6)


class TestHalfIntegerClosedForm:
    """log K_{n+1/2} against 50-digit mpmath values.

    The tolerance is 1e-13 relative on K plus two ulps of log K itself:
    a float64 log K of magnitude ~1e4 cannot be closer than that to the
    exact value, whatever the algorithm.
    """

    @staticmethod
    def exact_log_k(order, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            return mpmath.log(mpmath.besselk(mpmath.mpf(order), mpmath.mpf(x)))

    @pytest.mark.parametrize("n", range(26))
    def test_matches_mpmath(self, n):
        xs = np.logspace(-6.0, 4.0, 41)
        got = log_bessel_k(n + 0.5, xs)
        for x, value in zip(xs, got):
            want = self.exact_log_k(n + 0.5, x)
            err = abs(float(math.expm1(float(value - want))))
            assert err <= 1e-13 + 2.0 * np.spacing(abs(float(want))), (n, x, err)

    @pytest.mark.parametrize("order", [150.5, 150.3])
    def test_small_x_series_only_where_kve_overflows(self, order):
        # 150 rungs of the ladder, at an x where K_150 itself overflows,
        # at a moderate x and at a large one; nothing may warn
        xs = np.array([1e-6, 2.0, 1e4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_bessel_k(order, xs)
        for x, value in zip(xs, got):
            want = self.exact_log_k(order, x)
            err = abs(float(math.expm1(float(value - want))))
            assert err <= 1e-13 + 2.0 * np.spacing(abs(float(want))), (x, err)

    def test_overflowing_sum_falls_back(self):
        n, x = 60, 1e-6
        value = log_bessel_k(n + 0.5, x)
        assert math.isfinite(value)
        np.testing.assert_allclose(value, float(self.exact_log_k(n + 0.5, x)),
                                   rtol=1e-12)


LADDER_GAMMAS = (-2.0, -0.5, -1.7, -2.3, 0.4, 3.0)


@functools.lru_cache(maxsize=None)
def exact_log_k_shifted(gamma: float, k: int, x: float):
    """log K_{k - gamma}(x) to 40 digits, with the order k - gamma exact."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        order = mpmath.mpf(k) - mpmath.mpf(gamma)
        return mpmath.log(mpmath.besselk(order, mpmath.mpf(x)))


class TestLadderAgainstMpmath:
    """log K and K_{a+1}/K_a at the GH orders a = M - gamma and gamma - M.

    M runs over 1..8 and gamma over integer, half-integer, generic and
    positive values, so the ladder starts from each of its three bases and
    the ratio takes both signs of the order.  log K meets the closed-form
    tolerance above.  The ratio is within 1e-14 relative, except at
    generic orders for x in [0.5, 2]: there scipy's `kve` at the base
    orders in (0, 1) is itself only good to ~7e-14, which bounds the ratio
    at 2e-13 (the quotient of two `kve` values it replaces had the same
    error).
    """

    @pytest.mark.parametrize("gamma", LADDER_GAMMAS)
    def test_orders_m_minus_gamma(self, gamma):
        xs = np.logspace(-6.0, 4.0, 41)
        generic = (2.0 * gamma) % 1.0 != 0.0
        for m_dims in range(1, 9):
            a = m_dims - gamma
            log_k = log_bessel_k(a, xs)
            np.testing.assert_array_equal(log_k, log_bessel_k(-a, xs))
            # K_{a+1}/K_a needs order M + 1 - gamma; at -a, order M - 1 - gamma
            for order, shifted in ((a, m_dims + 1), (-a, m_dims - 1)):
                ratio = ladder_ratio(order, xs)
                for x, lk, r in zip(xs, log_k, ratio):
                    want = exact_log_k_shifted(gamma, m_dims, x)
                    err = abs(float(math.expm1(float(lk - want))))
                    assert err <= 1e-13 + 2.0 * np.spacing(abs(float(want))), \
                        (order, x, err)
                    want_ratio = math.exp(float(
                        exact_log_k_shifted(gamma, shifted, x) - want))
                    rel = abs(r - want_ratio) / want_ratio
                    tol = 2e-13 if generic and 0.5 <= x <= 2.0 else 1e-14
                    assert rel <= tol, (order, x, rel)


class TestBesselRatio:
    def test_frozen_half_order(self):
        # K_{3/2}(1) / K_{1/2}(1) = 1 + 1/1 = 2 exactly
        assert ladder_ratio(0.5, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_symmetry_point(self):
        # K_{1/2} = K_{-1/2}, so the ratio at order -1/2 is exactly one
        np.testing.assert_allclose(ladder_ratio(-0.5, 3.7), 1.0, rtol=1e-14)

    def test_negative_half_orders_mirror(self):
        # K_{order+1}/K_order with order = -5/2 equals K_{3/2}/K_{5/2}
        x = 2.0
        expected = math.exp(log_bessel_k(1.5, x) - log_bessel_k(2.5, x))
        np.testing.assert_allclose(ladder_ratio(-2.5, x), expected, rtol=1e-10)

    def test_matches_log_difference(self):
        for order in (0.5, 1.5, 4.5, 8.5, -1.5, 0.0, 0.3, 2.7, -1.2):
            for x in (1e-3, 0.1, 1.0, 10.0, 700.0, 1e4):
                expected = math.exp(
                    log_bessel_k(order + 1.0, x) - log_bessel_k(order, x)
                )
                np.testing.assert_allclose(
                    ladder_ratio(order, x), expected, rtol=1e-10
                )

    def test_large_argument_asymptote(self):
        # K_{nu+1}/K_nu -> 1 + (nu + 1/2)/x for large x; at order 0 the
        # ratio is within 1e-6 of 1 + 0.5/x at x = 1e4
        np.testing.assert_allclose(
            ladder_ratio(0.0, 1e4), 1.0 + 0.5e-4, rtol=1e-6
        )

    def test_array_input(self):
        x = np.array([0.5, 1.0, 2.0])
        out = ladder_ratio(0.5, x)
        np.testing.assert_allclose(out, 1.0 + 1.0 / x, rtol=1e-14)

    def test_recurrence_consistency(self):
        # K_{zeta+1} = K_{zeta-1} + (2 zeta / x) K_zeta in ratio form
        for x in (0.3, 2.0, 50.0):
            for zeta in (1.5, 2.5, 6.5):
                r_prev = ladder_ratio(zeta - 1.0, x)
                r = ladder_ratio(zeta, x)
                np.testing.assert_allclose(
                    r, 2.0 * zeta / x + 1.0 / r_prev, rtol=1e-12
                )


class TestBinStatistic:
    def test_validation(self):
        BinStatistic(s=0.0, m_dims=1)
        with pytest.raises(ValueError):
            BinStatistic(s=-0.1, m_dims=1)
        with pytest.raises(ValueError):
            BinStatistic(s=float("nan"), m_dims=1)
        with pytest.raises(ValueError):
            BinStatistic(s=1.0, m_dims=0)


class TestPosteriorInvPhi:
    def test_gaussian_is_one(self):
        for s in (0.0, 0.1, 1.0, 100.0):
            assert posterior_inv_phi(BinStatistic(s, 2), Gaussian()) == 1.0

    def test_student_t_frozen(self):
        # (nu/2 + M) / (nu/2 + s) = (2 + 2) / (2 + 3)
        out = posterior_inv_phi(BinStatistic(3.0, 2), StudentT(nu=4.0))
        assert out == pytest.approx(0.8, rel=1e-15)

    def test_gg_beta_two_is_gaussian(self):
        for s in (0.1, 1.0, 42.0):
            out = posterior_inv_phi(BinStatistic(s, 3), LeptokurticGG(beta=2.0))
            assert out == pytest.approx(1.0, rel=1e-15)

    def test_gg_frozen(self):
        # (beta/2) s^{beta/2 - 1} = 0.5 * 4^{-1/2}
        out = posterior_inv_phi(BinStatistic(4.0, 1), LeptokurticGG(beta=1.0))
        assert out == pytest.approx(0.25, rel=1e-15)

    def test_gg_zero_s_uses_floor(self):
        out = posterior_inv_phi(BinStatistic(0.0, 1), LeptokurticGG(beta=1.0))
        assert out == pytest.approx(0.5 * GG_S_FLOOR**-0.5, rel=1e-12)

    def test_nig_frozen(self):
        # ratio(M - gamma, rho) / eta at s = 0: K_{5/2}(1)/K_{3/2}(1) = 3.5
        out = posterior_inv_phi(BinStatistic(0.0, 1), NIG(rho=1.0, eta=1.0))
        assert out == pytest.approx(3.5, rel=1e-12)

    def test_nig_matches_gh(self):
        nig = NIG(rho=15.0, eta=1.0)
        gh = GH(gamma=NIG.gamma, rho=15.0, eta=1.0)
        for s in (0.0, 1.0, 10.0):
            np.testing.assert_allclose(
                posterior_inv_phi(BinStatistic(s, 2), nig),
                posterior_inv_phi(BinStatistic(s, 2), gh),
                rtol=1e-14,
            )

    def test_student_t_monotone_non_increasing(self):
        s_grid = np.linspace(0.0, 50.0, 200)
        out = inv_phi_from_s(s_grid, 2, StudentT(nu=7.0))
        assert np.all(np.diff(out) <= 0)

    def test_gg_monotone_non_increasing_below_two(self):
        s_grid = np.linspace(1e-6, 50.0, 200)
        for beta in (0.5, 1.0, 1.7):
            out = inv_phi_from_s(s_grid, 2, LeptokurticGG(beta=beta))
            assert np.all(np.diff(out) <= 0)

    def test_student_t_large_nu_near_gaussian(self):
        # |inv_phi - 1| = |M - s| / (nu/2 + s); for nu = 1e8 the stated
        # formula bounds the deviation by |M - s| / (nu/2)
        nu = 1e8
        for m in (1, 2, 4):
            for s in (0.0, 1.0, 10.0, 50.0, 100.0):
                out = posterior_inv_phi(BinStatistic(s, m), StudentT(nu=nu))
                assert abs(out - 1.0) <= abs(m - s) / (nu / 2.0) + 1e-15
                if s <= 50.0:
                    assert abs(out - 1.0) <= 1e-6

    def test_gh_student_t_limit(self):
        # gamma = -nu/2, a -> 0, b = nu reproduces the Student's t
        # posterior; soft tolerance at a = 1e-6
        nu = 4.0
        gh = gh_from_ab(gamma=-nu / 2.0, a=1e-6, b=nu)
        t = StudentT(nu=nu)
        for m in (1, 2, 4):
            for s in (0.0, 0.5, 3.0, 10.0):
                np.testing.assert_allclose(
                    posterior_inv_phi(BinStatistic(s, m), gh),
                    posterior_inv_phi(BinStatistic(s, m), t),
                    rtol=1e-3,
                )

    def test_extreme_gh_small_rate_closed_form(self):
        # tiny rho drives the ratio into its small-argument asymptote
        # 2 (M - gamma) / x; the ladder's climb keeps it exact
        variant = GH(gamma=-1.0, rho=1e-300, eta=1.0)
        out = posterior_inv_phi(BinStatistic(0.0, 1), variant)
        np.testing.assert_allclose(out, 4e300, rtol=1e-10)

    def test_degenerate_expectation_raises(self):
        # one notch further the ratio overflows to infinity
        bad = GH(gamma=-1.0, rho=1e-308, eta=1.0)
        with pytest.raises(ArithmeticError):
            posterior_inv_phi(BinStatistic(0.0, 1), bad)


class TestLogMarginal:
    def test_gaussian_frozen(self):
        out = log_marginal_density([0.0], [1.0], Gaussian())
        assert out == pytest.approx(-1.1447298858, abs=1e-9)
        assert out == pytest.approx(-math.log(math.pi), rel=1e-15)

    def test_gaussian_closed_form(self):
        z = np.array([0.5, 2.0])
        y = np.array([1.0, 4.0])
        expected = -2.0 * math.log(math.pi) - (0.5 / 1.0 + 2.0 / 4.0) - math.log(4.0)
        np.testing.assert_allclose(
            log_marginal_density(z, y, Gaussian()), expected, rtol=1e-14
        )

    def test_gg_beta_two_equals_gaussian(self):
        z = np.array([0.3, 1.2, 0.8])
        y = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(
            log_marginal_density(z, y, LeptokurticGG(beta=2.0)),
            log_marginal_density(z, y, Gaussian()),
            rtol=1e-12,
        )

    def test_student_t_large_nu_approaches_gaussian(self):
        z = np.array([0.4, 1.5])
        y = np.array([1.0, 2.0])
        gauss = log_marginal_density(z, y, Gaussian())
        t = log_marginal_density(z, y, StudentT(nu=1e10))
        assert abs(t - gauss) < 1e-6

    def test_density_normalized_m1(self):
        # the M = 1 density integrates to 1 over the complex plane; the
        # radial reduction is int_0^inf p(r^2) 2 pi r dr
        for variant in (
            Gaussian(),
            StudentT(nu=3.0),
            LeptokurticGG(beta=1.0),
            NIG(rho=2.0, eta=1.5),
        ):
            def radial(r):
                return (
                    math.exp(log_marginal_from_s(r * r, 1, variant)[0])
                    * 2.0
                    * math.pi
                    * r
                )

            total, _ = integrate.quad(radial, 0.0, np.inf, limit=400)
            np.testing.assert_allclose(total, 1.0, rtol=1e-6)

    def test_decreasing_in_s(self):
        s_grid = np.linspace(0.01, 40.0, 300)
        for variant in (
            Gaussian(),
            StudentT(nu=2.5),
            LeptokurticGG(beta=0.7),
            GH(gamma=3.0, rho=2.0, eta=1.0),
            NIG(rho=15.0, eta=1.0),
        ):
            vals = log_marginal_from_s(s_grid, 2, variant)[0]
            assert np.all(np.diff(vals) < 0), f"not decreasing for {variant}"

    def test_input_validation(self):
        with pytest.raises(ValueError, match="equal-length"):
            log_marginal_density([1.0, 2.0], [1.0], Gaussian())
        with pytest.raises(ValueError, match="z~"):
            log_marginal_density([-1.0], [1.0], Gaussian())
        with pytest.raises(ValueError, match="y~"):
            log_marginal_density([1.0], [0.0], Gaussian())
        with pytest.raises(ValueError, match="equal-length"):
            log_marginal_density([], [], Gaussian())


def wirtinger_fd_gradient(z_M, y_M, variant, step=1e-6):
    """(d/dRe + i d/dIm) of the log marginal, by central differences."""

    def f(z):
        return log_marginal_density(np.abs(z) ** 2, y_M, variant)

    grad = np.zeros_like(z_M)
    for m in range(z_M.size):
        basis = np.zeros_like(z_M)
        basis[m] = 1.0
        d_re = (f(z_M + step * basis) - f(z_M - step * basis)) / (2.0 * step)
        d_im = (f(z_M + 1j * step * basis) - f(z_M - 1j * step * basis)) / (2.0 * step)
        grad[m] = d_re + 1j * d_im
    return grad


class TestGradientIdentity:
    @pytest.mark.parametrize(
        "variant",
        [
            Gaussian(),
            StudentT(nu=4.0),
            LeptokurticGG(beta=1.2),
            GH(gamma=-2.0, rho=3.0, eta=1.0),
            NIG(rho=15.0, eta=1.0),
        ],
        ids=["gaussian", "t", "gg", "gh", "nig"],
    )
    def test_gradient_matches_posterior_weight(self, variant):
        rng = np.random.default_rng(0)
        for m_dims in (1, 2, 4):
            z = rng.standard_normal(m_dims) + 1j * rng.standard_normal(m_dims)
            y = rng.lognormal(size=m_dims)
            s = float((np.abs(z) ** 2 / y).sum())
            inv_phi = posterior_inv_phi(BinStatistic(s, m_dims), variant)
            expected = -2.0 * inv_phi * z / y
            grad = wirtinger_fd_gradient(z, y, variant)
            np.testing.assert_allclose(grad, expected, rtol=1e-4, atol=1e-8)


class TestPriorLogPdf:
    def test_gig_normalized(self):
        for variant in (GH(gamma=0.5, rho=1.0, eta=1.0), NIG(rho=2.0, eta=0.5)):
            total, _ = integrate.quad(
                lambda phi: math.exp(prior_log_pdf(phi, variant)),
                0.0,
                np.inf,
                limit=400,
            )
            np.testing.assert_allclose(total, 1.0, rtol=1e-8)

    def test_inverse_gamma_normalized(self):
        total, _ = integrate.quad(
            lambda phi: math.exp(prior_log_pdf(phi, StudentT(nu=5.0))),
            0.0,
            np.inf,
            limit=400,
        )
        np.testing.assert_allclose(total, 1.0, rtol=1e-8)

    def test_inverse_gamma_mode_stationary(self):
        # the inverse-gamma mode sits at scale / (shape + 1)
        nu = 6.0
        mode = (nu / 2.0) / (nu / 2.0 + 1.0)
        step = 1e-6
        derivative = (
            prior_log_pdf(mode + step, StudentT(nu=nu))
            - prior_log_pdf(mode - step, StudentT(nu=nu))
        ) / (2.0 * step)
        assert abs(derivative) < 1e-6
        assert prior_log_pdf(mode, StudentT(nu=nu)) > prior_log_pdf(
            mode * 1.5, StudentT(nu=nu)
        )

    def test_no_closed_form_variants_rejected(self):
        with pytest.raises(ValueError, match="no closed-form impulse prior"):
            prior_log_pdf(1.0, Gaussian())
        with pytest.raises(ValueError, match="no closed-form impulse prior"):
            prior_log_pdf(1.0, LeptokurticGG(beta=1.0))

    def test_phi_domain(self):
        with pytest.raises(ValueError, match="phi"):
            prior_log_pdf(0.0, StudentT(nu=4.0))
        with pytest.raises(ValueError, match="phi"):
            prior_log_pdf(-1.0, NIG(rho=1.0, eta=1.0))


class TestQuadratureOracle:
    def test_student_t_matches_closed_form(self):
        for s in (0.0, 1.0, 10.0):
            z = np.full(2, s / 2.0)
            y = np.ones(2)
            np.testing.assert_allclose(
                quadrature_posterior_inv_phi(z, y, StudentT(nu=10.0)),
                posterior_inv_phi(BinStatistic(s, 2), StudentT(nu=10.0)),
                rtol=1e-8,
            )

    def test_nig_matches_closed_form(self):
        z = np.full(4, 25.0)
        y = np.ones(4)
        np.testing.assert_allclose(
            quadrature_posterior_inv_phi(z, y, NIG(rho=15.0, eta=1.0)),
            posterior_inv_phi(BinStatistic(100.0, 4), NIG(rho=15.0, eta=1.0)),
            rtol=1e-7,
        )

    def test_uneven_y_reduces_to_s(self):
        rng = np.random.default_rng(1)
        z = rng.lognormal(size=3)
        y = rng.lognormal(size=3)
        s = float((z / y).sum())
        np.testing.assert_allclose(
            quadrature_posterior_inv_phi(z, y, StudentT(nu=3.0)),
            posterior_inv_phi(BinStatistic(s, 3), StudentT(nu=3.0)),
            rtol=1e-8,
        )

    def test_no_prior_variants_rejected(self):
        with pytest.raises(ValueError):
            quadrature_posterior_inv_phi([1.0], [1.0], Gaussian())
        with pytest.raises(ValueError):
            quadrature_posterior_inv_phi([1.0], [1.0], LeptokurticGG(beta=1.0))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            quadrature_posterior_inv_phi([1.0, 2.0], [1.0], StudentT(nu=4.0))


@given(
    s=st.floats(0.0, 200.0),
    m_dims=st.integers(1, 8),
    pick=st.integers(0, 4),
)
def test_property_posterior_positive_finite(s, m_dims, pick):
    variant = [
        Gaussian(),
        StudentT(nu=1.0),
        LeptokurticGG(beta=0.8),
        GH(gamma=1.0, rho=2.0, eta=0.5),
        NIG(rho=15.0, eta=1.0),
    ][pick]
    out = posterior_inv_phi(BinStatistic(s, m_dims), variant)
    assert math.isfinite(out) and out > 0


@given(nu=st.floats(0.5, 500.0), m_dims=st.integers(1, 4))
def test_property_student_t_range(nu, m_dims):
    # the t posterior weight lies in (0, (nu/2 + M) / (nu/2)]
    upper = (nu / 2.0 + m_dims) / (nu / 2.0)
    for s in (0.0, 1.0, 77.0):
        out = posterior_inv_phi(BinStatistic(s, m_dims), StudentT(nu=nu))
        assert 0.0 < out <= upper + 1e-12
