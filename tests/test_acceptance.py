"""Acceptance gate for the separation engine.

Eleven end-to-end checks covering the closed-form posterior expectations,
the gradient identity behind them, density normalization, Gaussian limit
consistency, optimizer monotonicity, the iterative-projection
post-condition, the Wiener partition identity, end-to-end separation
quality on synthetic scenes, normalization invariance, Bessel accuracy,
and per-iteration throughput.

Run with `pytest tests/test_acceptance.py -v -s`: every test prints one
`[criterion NN] PASS/FAIL` line with the measured margins, and the -v
listing doubles as the acceptance record.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

from oracles import BinStatistic, posterior_inv_phi, quadrature_posterior_inv_phi
from test_model import random_params
from test_priors import ladder_ratio, log_bessel_k_quadrature, wirtinger_fd_gradient

from gsmsep import cli, linalg, optimizer, wiener
from gsmsep.harness import run_experiment, synth_scene
from gsmsep.model import (
    DEFAULT_FLOOR,
    GH,
    NIG,
    Gaussian,
    LeptokurticGG,
    SeparationConfig,
    StudentT,
    init_params,
    normalize,
)
from gsmsep.priors import log_bessel_k, log_marginal_from_s
from gsmsep.stft import StftConfig, stft_forward

ALL_VARIANTS = [
    ("gaussian", Gaussian()),
    ("t(4)", StudentT(nu=4.0)),
    ("gg(1.2)", LeptokurticGG(beta=1.2)),
    ("gh(-2,3,1)", GH(gamma=-2.0, rho=3.0, eta=1.0)),
    ("nig(15,1)", NIG(rho=15.0, eta=1.0)),
]


def report_line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")


def random_mixture(rng, n_freq, n_frames, n_chan):
    """An (F, M, T) mixture: the (F, T, M) draw, channel-major."""
    draw = (
        rng.standard_normal((n_freq, n_frames, n_chan))
        + 1j * rng.standard_normal((n_freq, n_frames, n_chan))
    ) / np.sqrt(2.0)
    return np.ascontiguousarray(draw.transpose(0, 2, 1))


def unit_quadratic_deviation(params, S, cache) -> float:
    """Worst |q_fm^H V_fm q_fm - 1| over the state update_q just used.

    V comes from `weighted_covariances` on the same statistics, which is
    the V update_q projected against.  The check compares each update with
    its own V: late-iteration variance floors push cond(V) to ~1e10, where
    any V summed in another order differs from it by ~eps * cond(V).  It
    is evaluated with the compensated quadratic form for the same reason:
    a plain einsum check is itself only good to ~eps * cond(V).
    """
    R_FPM = optimizer.weighted_covariances(S, cache)
    worst = 0.0
    for m in range(params.n_channels):
        q_FM = params.Q[:, m, :].conj()
        V_FMM = optimizer._unpack_hermitian(R_FPM[:, :, m])
        quad_F = np.asarray(linalg.compensated_quadratic_form(V_FMM, q_FM))
        worst = max(worst, float(np.max(np.abs(quad_F - 1.0))))
    return worst


def instrumented_run(X_FMT, cfg):
    """optimizer.run with update_q wrapped to record the diagonalizer
    quadratic form right after each call: (params, trace, worst deviation)."""
    real_update_q = optimizer.update_q
    ip_devs = []

    def recording_update_q(params, S, cache, *args):  # args: iterate's twin
        params = real_update_q(params, S, cache, *args)
        ip_devs.append(unit_quadratic_deviation(params, S, cache))
        return params

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "update_q", recording_update_q)
        params, trace = optimizer.run(X_FMT, cfg)
    assert len(ip_devs) == cfg.iterations
    return params, np.asarray(trace), max(ip_devs)


def worst_relative_drop(trace) -> float:
    return float(np.max((trace[:-1] - trace[1:]) / np.abs(trace[:-1])))


def worst_partition_error(X_FMT, params) -> float:
    """Largest |sum of Wiener images - X| relative to |X| (absolute where X is 0)."""
    total_FMT = sum(image for _, image in wiener.source_images(
        X_FMT, params, all_channels=True))
    diff = np.abs(total_FMT - X_FMT)
    mag = np.abs(X_FMT)
    zero = mag == 0.0
    return float(np.max(np.where(zero, diff, diff / np.where(zero, 1.0, mag))))


@pytest.fixture(scope="module")
def instrumented_runs():
    """100 `instrumented_run` iterations per variant on two datasets.

    Shared by the monotonicity, projection post-condition, and Wiener
    partition checks.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    datasets = {"random": random_mixture(rng, 65, 50, 2)}
    scene = synth_scene(2, 2, 1.0, seed=0)
    X_scene = stft_forward(
        scene.mixture.samples[:, :1504], StftConfig(n_fft=128, hop=32)
    )
    assert X_scene.shape == (65, 2, 50)
    datasets["scene"] = X_scene

    results = []
    for vname, variant in ALL_VARIANTS:
        for dname, X_FMT in datasets.items():
            cfg = SeparationConfig(
                n_sources=2, n_bases=2, iterations=100, variant=variant,
                seed=0,
            )
            params, trace, ip_dev = instrumented_run(X_FMT, cfg)
            results.append(SimpleNamespace(
                variant=vname, dataset=dname, X=X_FMT, params=params,
                trace=trace, ip_dev=ip_dev,
            ))
    return results, time.perf_counter() - started


def test_criterion_01_posterior_expectation_matches_quadrature():
    started = time.perf_counter()
    variants = [StudentT(nu=nu) for nu in (1.0, 10.0, 40.0, 200.0)]
    variants += [
        GH(gamma=gamma, rho=rho, eta=eta)
        for gamma in (-0.5, -2.0, 1.0)
        for rho in (1.0, 15.0)
        for eta in (0.5, 1.0, 5.0)
    ]
    variants += [NIG(rho=rho, eta=1.0) for rho in (1.0, 15.0)]

    worst = 0.0
    for variant in variants:
        for m_dims in (1, 2, 4):
            y_M = np.ones(m_dims)
            for s in (0.0, 0.1, 1.0, 10.0, 100.0):
                z_M = np.full(m_dims, s / m_dims)
                got = posterior_inv_phi(
                    BinStatistic(s=s, m_dims=m_dims), variant
                )
                want = quadrature_posterior_inv_phi(z_M, y_M, variant)
                worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - started

    ok = worst <= 1e-6 and elapsed < 60.0
    report_line(1, ok, f"posterior expectation vs quadrature: max rel err"
                       f" {worst:.2e} (tol 1e-6), {elapsed:.1f} s (limit 60)")
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_criterion_02_gradient_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _, variant in ALL_VARIANTS:
        for m_dims in (1, 2, 4):
            for _ in range(50):
                z_M = (
                    rng.standard_normal(m_dims)
                    + 1j * rng.standard_normal(m_dims)
                )
                y_M = rng.lognormal(0.0, 0.5, size=m_dims)
                s = float(np.sum(np.abs(z_M) ** 2 / y_M))
                inv_phi = posterior_inv_phi(
                    BinStatistic(s=s, m_dims=m_dims), variant
                )
                analytic = -2.0 * inv_phi * z_M / y_M
                fd = wirtinger_fd_gradient(z_M, y_M, variant)
                rel = np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)
                worst = max(worst, float(rel))
    elapsed = time.perf_counter() - started

    ok = worst <= 1e-4 and elapsed < 30.0
    report_line(2, ok, f"finite-difference gradient vs -2 phi~^-1 Y~^-1 z:"
                       f" max rel err {worst:.2e} (tol 1e-4),"
                       f" {elapsed:.1f} s (limit 30)")
    assert worst <= 1e-4
    assert elapsed < 30.0


def test_criterion_03_gh_density_normalization():
    started = time.perf_counter()
    worst = 0.0
    for gamma in (-0.5, -2.0, 1.0):
        for rho in (1.0, 15.0):
            for eta in (0.5, 1.0, 5.0):
                variant = GH(gamma=gamma, rho=rho, eta=eta)

                def radial(r):
                    return (
                        math.exp(log_marginal_from_s(r * r, 1, variant)[0])
                        * 2.0 * math.pi * r
                    )

                total, _ = integrate.quad(radial, 0.0, np.inf, limit=400)
                worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - started

    ok = worst <= 1e-4 and elapsed < 60.0
    report_line(3, ok, f"GH density mass vs 1: max |error| {worst:.2e}"
                       f" (tol 1e-4), {elapsed:.1f} s (limit 60)")
    assert worst <= 1e-4
    assert elapsed < 60.0


def test_criterion_04_limit_consistency():
    started = time.perf_counter()
    rng = np.random.default_rng(4)
    X_FMT = random_mixture(rng, 33, 40, 2)

    def fit(variant):
        cfg = SeparationConfig(
            n_sources=2, n_bases=2, iterations=10, variant=variant, seed=7
        )
        return optimizer.run(X_FMT, cfg)[0]

    base = fit(Gaussian())
    worst = 0.0
    for variant in (LeptokurticGG(beta=2.0), StudentT(nu=1e8)):
        other = fit(variant)
        for got, want in (
            (other.W, base.W),
            (other.H, base.H),
            (other.Gtilde, base.Gtilde),
            (other.Q, base.Q),
        ):
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            worst = max(worst, float(err))
    elapsed = time.perf_counter() - started

    ok = worst <= 1e-5 and elapsed < 30.0
    report_line(4, ok, f"GG(2) and t(1e8) vs Gaussian after 10 iterations:"
                       f" max rel param err {worst:.2e} (tol 1e-5),"
                       f" {elapsed:.1f} s (limit 30)")
    assert worst <= 1e-5
    assert elapsed < 30.0


def test_criterion_05_monotone_likelihood(instrumented_runs):
    results, elapsed = instrumented_runs
    worst_drop = 0.0
    worst_label = "-"
    for result in results:
        assert len(result.trace) == 100
        drop = worst_relative_drop(result.trace)
        if drop > worst_drop:
            worst_drop, worst_label = drop, f"{result.variant}/{result.dataset}"

    ok = worst_drop <= 1e-8 and elapsed < 120.0
    report_line(5, ok, f"log-likelihood over 100 iterations x 5 variants x 2"
                       f" datasets: worst relative drop {worst_drop:.2e}"
                       f" (slack 1e-8, at {worst_label}), {elapsed:.1f} s"
                       f" (limit 120)")
    assert worst_drop <= 1e-8
    assert elapsed < 120.0


def test_criterion_06_projection_postcondition(instrumented_runs):
    results, _ = instrumented_runs
    worst = max(result.ip_dev for result in results)

    ok = worst <= 1e-10
    report_line(6, ok, f"|q^H V q - 1| after every update_q:"
                       f" max {worst:.2e} (tol 1e-10)")
    assert worst <= 1e-10


def test_criterion_07_wiener_partition(instrumented_runs):
    results, _ = instrumented_runs
    worst = max(worst_partition_error(result.X, result.params) for result in results)

    ok = worst <= 1e-10
    report_line(7, ok, f"sum of images vs mixture, all bins of 10 fitted"
                       f" runs: max rel err {worst:.2e} (tol 1e-10)")
    assert worst <= 1e-10


@pytest.mark.parametrize("n_sources,n_mics", [(3, 2), (8, 4)])
@pytest.mark.parametrize("vname,variant", ALL_VARIANTS, ids=[name for name, _ in ALL_VARIANTS])
def test_criteria_05_to_07_more_sources_than_mics(n_sources, n_mics, vname, variant):
    # nothing in the model needs N <= M: the same invariants hold beyond it
    X_FMT = random_mixture(np.random.default_rng(11), 65, 50, n_mics)
    cfg = SeparationConfig(n_sources=n_sources, n_bases=2, iterations=100,
                           variant=variant, seed=0)
    params, trace, ip_dev = instrumented_run(X_FMT, cfg)
    drop, partition = worst_relative_drop(trace), worst_partition_error(X_FMT, params)
    ok = drop <= 1e-8 and ip_dev <= 1e-10 and partition <= 1e-10
    report_line(5, ok, f"{vname} N={n_sources} on M={n_mics}: worst relative drop"
                       f" {drop:.2e} (slack 1e-8); criterion 06 |q^H V q - 1| max"
                       f" {ip_dev:.2e}, criterion 07 max rel err {partition:.2e}"
                       f" (tol 1e-10)")
    assert drop <= 1e-8
    assert ip_dev <= 1e-10
    assert partition <= 1e-10


def test_criterion_07_more_sources_than_mics_at_the_default_iterations():
    # `gsmsep separate -N 3` with every other setting at its default, on a 1 s
    # scene of three sources on two mics: the multiplicative updates drive
    # some sum_n lambda g~ far below the y~ floor, where the Wiener ratio
    # overflowed until those entries took the uniform gain
    scene = synth_scene(3, 2, 1.0, seed=0)
    X_FMT = stft_forward(scene.mixture.samples, StftConfig())
    params, _ = optimizer.run(X_FMT, cli._separation_config({"n_sources": 3}))
    finite = all(np.isfinite(image).all()
                 for _, image in wiener.source_images(X_FMT, params, all_channels=True))
    partition = worst_partition_error(X_FMT, params)
    ok = finite and partition <= 1e-10
    report_line(7, ok, f"3 on 2 at the default iterations: images finite {finite},"
                       f" max rel err {partition:.2e} (tol 1e-10)")
    assert finite
    assert partition <= 1e-10


def test_criterion_08_end_to_end_separation():
    scene = synth_scene(2, 2, 3.0, seed=0)
    details = []
    ok = True
    for label, cfg in (
        ("gaussian K=4", SeparationConfig(
            n_sources=2, n_bases=4, iterations=150, variant=Gaussian(),
            seed=0)),
        ("nig(15,1) K=8", SeparationConfig(
            n_sources=2, n_bases=8, iterations=150,
            variant=NIG(rho=15.0, eta=1.0), seed=0)),
    ):
        started = time.perf_counter()
        rep = run_experiment(scene, cfg, StftConfig())
        elapsed = time.perf_counter() - started
        gain = rep.mean_si_sdr - rep.input_si_sdr
        details.append(f"{label}: +{gain:.2f} dB in {elapsed:.1f} s")
        ok = ok and gain >= 10.0 and elapsed < 120.0

    report_line(8, ok, "SI-SDR improvement (floor 10 dB, limit 120 s each): "
                       + "; ".join(details))
    assert ok, details


def test_criterion_09_normalization_invariance():
    rng = np.random.default_rng(9)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n, 5))
        k = int(rng.integers(1, 4))
        f, t = 7, 9
        params = random_params(rng, n, k, f, t, m)
        X_FMT = random_mixture(rng, f, t, m)
        variant = ALL_VARIANTS[trial % len(ALL_VARIANTS)][1]
        floor = DEFAULT_FLOOR
        before = optimizer.log_likelihood(X_FMT, params, variant, floor)[0]
        after = optimizer.log_likelihood(X_FMT, normalize(params), variant, floor)[0]
        worst = max(worst, abs(after - before) / abs(before))

    ok = worst <= 1e-9
    report_line(9, ok, f"log-likelihood before vs after normalize, 20 random"
                       f" parameter sets: max rel diff {worst:.2e}"
                       f" (tol 1e-9)")
    assert worst <= 1e-9


def test_criterion_10_bessel_accuracy():
    started = time.perf_counter()
    orders = (-50.0, -25.5, -10.0, -3.7, -0.5, 0.0, 0.3, 0.5,
              1.0, 2.0, 3.0, 7.5, 10.0, 25.5, 50.0)
    x_grid = (1e-6, 1e-4, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4)
    worst_log = 0.0
    checked = 0
    for order in orders:
        for x in x_grid:
            want = log_bessel_k_quadrature(order, x)
            if abs(want) < 0.1:
                # relative error is ill-posed at the log's zero crossing
                continue
            got = log_bessel_k(order, x)
            worst_log = max(worst_log, abs(got - want) / abs(want))
            checked += 1

    worst_ratio = 0.0
    for m_dims in range(1, 9):
        order = m_dims + 0.5
        for x in (1e-3, 0.1, 1.0, 10.0, 700.0, 1e4):
            # the ratio recurrence vs the half-integer closed-form log K
            got = ladder_ratio(order, x)
            want = math.exp(log_bessel_k(order + 1.0, x)
                            - log_bessel_k(order, x))
            worst_ratio = max(worst_ratio, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - started

    ok = worst_log <= 1e-8 and worst_ratio <= 1e-10 and elapsed < 30.0
    report_line(10, ok, f"log K vs quadrature on {checked} grid points: max"
                        f" rel err {worst_log:.2e} (tol 1e-8); ratio"
                        f" recurrence vs closed-form log K: {worst_ratio:.2e}"
                        f" (tol 1e-10); {elapsed:.1f} s (limit 30)")
    assert worst_log <= 1e-8
    assert worst_ratio <= 1e-10
    assert elapsed < 30.0


def test_criterion_11_per_iteration_throughput():
    n_freq, n_frames, n_sources, n_chan, n_bases = 513, 200, 8, 8, 16
    rng = np.random.default_rng(11)
    X_FMT = random_mixture(rng, n_freq, n_frames, n_chan)

    def one_iteration(variant) -> float:
        cfg = SeparationConfig(
            n_sources=n_sources, n_bases=n_bases, iterations=1,
            variant=variant, seed=0,
        )
        params = init_params(cfg, X_FMT)
        started = time.perf_counter()
        next(optimizer.iterate(X_FMT, params, cfg))
        return time.perf_counter() - started

    best = {}
    for vname, variant in ALL_VARIANTS:
        best[vname] = min(one_iteration(variant) for _ in range(3))

    slowest = max(best.values())
    ratio = best["nig(15,1)"] / best["gaussian"]
    ok = slowest < 5.0 and ratio <= 5.0
    timings = ", ".join(f"{name} {secs * 1e3:.0f} ms"
                        for name, secs in best.items())
    report_line(11, ok, f"one F=513 T=200 N=M=8 K=16 iteration (best of 3):"
                        f" {timings}; nig/gaussian {ratio:.2f}x (limit 5x,"
                        f" 5 s each)")
    assert slowest < 5.0
    assert ratio <= 5.0
