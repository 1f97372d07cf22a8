"""Tests for `workers.map_blocks`: frequency blocks shared by the calling
thread and one worker, the helper thread or the iterations' twin process,
which runs wherever the helper does and takes the upper blocks of every
per-bin stage.

Every blocked stage must give the bits the serial loop gives, and both
workers must take the same blocks: those whose middle lies above the
middle of the range.  An error on either side must reach the caller only
after the worker is idle, neither the caller nor the helper may take a
block after the other's error, the helper must see the caller's
`np.errstate`, no function that sepbench's tracer wraps may run off the
calling thread, and `gsmsep bench` worker processes must run their
blocks on one thread.  A run with the twin must give the serial run's
bits and warnings, the twin must take blocks of every stage, and no
process may be left behind however the run ends.
"""

import concurrent.futures
import dataclasses
import functools
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import oracles
from gsmsep import cli, harness, linalg, model, optimizer, priors, wiener, workers
from gsmsep.harness import synth_scene
from gsmsep.model import GH, NIG, Gaussian, LeptokurticGG, SeparationConfig, StudentT
from gsmsep.priors import log_marginal_from_s
from gsmsep.stft import StftConfig, stft_forward, stft_inverse
from gsmsep.workers import map_blocks

# a map_blocks call below that passes ONE bytes per frequency has blocks of
# one frequency, and one that passes ONE // k blocks of k
ONE = workers._BLOCK_BYTES


@pytest.fixture
def helper(monkeypatch):
    """A helper thread for `map_blocks`, already started, on any CPU count.

    Returns the helper's thread id."""
    pool = concurrent.futures.ThreadPoolExecutor(1, "test-blocks")
    ident = pool.submit(threading.get_ident).result()
    monkeypatch.setattr(workers, "_HELPER", pool)
    yield ident
    pool.shutdown()


def _mark_pid(record, block) -> None:
    # a twin's block body: the pid of the process that ran the block
    record[block] = os.getpid()


def _error_path_block(state, pid: int, ident: int, cut: int, block) -> None:
    # a block body for both workers: the caller's first block raises once a
    # worker's block has begun; a worker's block marks itself begun (1) and,
    # 20 ms later, done (2), in memory the caller shares with either worker
    k = block.start
    if (os.getpid(), threading.get_ident()) == (pid, ident):
        deadline = time.perf_counter() + 10
        while not state[cut:].any() and time.perf_counter() < deadline:
            time.sleep(1e-4)
        raise ValueError(f"block {k}")
    state[k] = 1
    time.sleep(0.02)
    state[k] = 2


class TestMapBlocks:
    def test_results_in_block_order_from_both_threads(self, helper):
        def body(block):
            time.sleep(0.002 if block.start < 6 else 0.0)  # the helper finishes first
            return block, threading.get_ident()

        results = map_blocks(body, 12, ONE)
        assert [block for block, _ in results] == [slice(k, k + 1) for k in range(12)]
        assert [ident for _, ident in results] == [threading.get_ident()] * 6 + [helper] * 6

    def test_fold_takes_results_in_block_order(self, helper):
        def body(block):
            time.sleep(0.002 if block.start < 6 else 0.0)  # the helper finishes first
            return block.start

        folded = []
        assert map_blocks(body, 12, ONE, fold=folded.append) == []
        assert folded == list(range(12))

    def test_fold_error_propagates(self, helper):
        for failing in (3, 9):  # a result of the caller's, then of the helper's
            def fold(result):
                if result == failing:
                    raise ArithmeticError(f"fold {result}")

            with pytest.raises(ArithmeticError, match=f"fold {failing}"):
                map_blocks(lambda block: block.start, 12, ONE, fold=fold)

    @pytest.mark.parametrize("n_freq,per_block,lower", [
        (12, 1, 6), (13, 1, 7),  # block 6 of 13 has its middle at the range's
        (13, 2, 3), (33, 5, 3), (2, 1, 1), (1, 1, 1)])
    def test_the_caller_takes_the_blocks_up_to_the_middle(self, helper, n_freq, per_block,
                                                          lower):
        # and the helper the rest (the twin takes the same blocks: below)
        threads = map_blocks(lambda block: threading.get_ident(), n_freq, ONE // per_block)
        assert threads == [threading.get_ident()] * lower + [helper] * (len(threads) - lower)

    def test_one_block_runs_on_the_caller(self, helper):
        assert map_blocks(lambda block: threading.get_ident(), 3, ONE // 3) == [
            threading.get_ident()]

    def test_no_helper_runs_every_block_on_the_caller(self, monkeypatch):
        monkeypatch.setattr(workers, "_HELPER", None)
        assert set(map_blocks(lambda block: threading.get_ident(), 6, ONE)) == {
            threading.get_ident()}

    @pytest.mark.parametrize("thread", ["caller", "helper"])
    def test_error_stops_both_threads_before_it_propagates(self, helper, thread):
        # the caller takes blocks 0..11, the helper 12..23; once both are in
        # their shares, one fails at its third block, and the other may then
        # finish the block it holds but take no further one
        n_blocks, cut = 24, 12
        failing = 2 if thread == "caller" else cut + 2
        written = np.zeros(n_blocks, dtype=bool)
        at_error = []  # what was written when the failing block raised
        inside = [threading.Event(), threading.Event()]  # the caller's, the helper's

        def body(block):
            k = block.start
            inside[k >= cut].set()
            assert inside[k < cut].wait(timeout=10)
            if k == failing:
                at_error.append(written.copy())
                raise ValueError(f"block {k}")
            time.sleep(0.005)
            written[k] = True

        before = threading.active_count()
        with pytest.raises(ValueError, match=f"block {failing}$"):
            map_blocks(body, n_blocks, ONE)
        assert threading.active_count() == before
        snapshot = written.copy()
        time.sleep(0.05)
        np.testing.assert_array_equal(written, snapshot)  # nothing wrote late
        other = slice(cut, None) if thread == "caller" else slice(0, cut)
        assert np.count_nonzero(written[other]) <= np.count_nonzero(at_error[0][other]) + 1
        assert not written[failing]

    @pytest.mark.parametrize("worker", ["helper", "twin"])
    def test_a_caller_error_propagates_once_the_worker_is_idle(self, helper, worker):
        # the caller raises in its share while the worker's share runs: the
        # helper takes no further block (its stop flag), the twin finishes
        # (`Twin._drain`), and either is idle before the error propagates
        n_blocks, cut = 16, 8
        state = workers.shared_empty((n_blocks,), np.int64)
        state[...] = 0
        body = functools.partial(_error_path_block, state, os.getpid(), threading.get_ident(),
                                 cut)
        twin = workers.Twin([state]) if worker == "twin" else None
        try:
            with pytest.raises(ValueError, match="block 0$"):
                map_blocks(body, n_blocks, ONE, twin=twin)
            snapshot = state.copy()
            time.sleep(0.1)
        finally:
            if twin is not None:
                twin.close()
        np.testing.assert_array_equal(state, snapshot)  # nothing wrote late
        assert not (state == 1).any()  # no block was left begun
        assert not state[:cut].any() and state[cut:].any()
        if worker == "helper":
            assert np.count_nonzero(state[cut:]) <= 2

    def test_helper_and_twin_take_the_same_blocks(self, helper):
        # one split for both workers: of 33 frequencies in blocks of 5, the
        # upper 4 blocks
        blocks = workers.freq_blocks(33, ONE // 5)
        threads = map_blocks(lambda block: threading.get_ident(), 33, ONE // 5)
        record = workers.shared_empty((33,), np.int64)
        twin = workers.Twin([record])
        try:
            map_blocks(functools.partial(_mark_pid, record), 33, ONE // 5, twin=twin)
        finally:
            twin.close()
        by_helper = [block.start for block, ident in zip(blocks, threads) if ident == helper]
        by_twin = [block.start for block in blocks if record[block.start] == twin.pid]
        assert by_helper == by_twin == [15, 20, 25, 30]

    @pytest.mark.parametrize("thread", ["caller", "helper"])
    def test_helper_sees_the_callers_errstate(self, helper, thread):
        overflowing = threading.get_ident() if thread == "caller" else helper

        def body(block):
            if threading.get_ident() == overflowing:
                np.exp(np.full(3, 1000.0))

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                map_blocks(body, 4, ONE)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs sched_setaffinity")
    def test_no_helper_on_one_cpu(self):
        probe = ("import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))});"
                 " from gsmsep import workers; print(workers._HELPER is None)")
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, check=True)
        assert result.stdout.strip() == "True"


class TestBitIdentical:
    """Each blocked stage on two threads against the same stage on one."""

    @pytest.mark.parametrize("m", [2, 4, 8])
    @pytest.mark.parametrize("m_step_freqs", [0, 3, 1 << 20],
                             ids=["one-frequency", "three", "one-block"])
    def test_run_and_source_images(self, m, m_step_freqs, helper, monkeypatch):
        # budget 0 makes every block one frequency; 3 M-step frequencies
        # leave an uneven last block at f = 13
        n, f, t = 2, 13, 16
        monkeypatch.setattr(workers, "_BLOCK_BYTES", m_step_freqs * 8 * t * (n + m))
        rng = np.random.default_rng(m)
        X = rng.standard_normal((f, t, m)) + 1j * rng.standard_normal((f, t, m))
        X = np.ascontiguousarray(X.transpose(0, 2, 1))  # (F, M, T)
        cfg = SeparationConfig(n_sources=n, n_bases=2, iterations=3,
                               variant=StudentT(nu=4.0), seed=m)
        runs = []
        for pool in (None, workers._HELPER):
            monkeypatch.setattr(workers, "_HELPER", pool)
            params, trace = optimizer.run(X, cfg)
            runs.append((trace, params,
                         list(wiener.source_images(X, params, all_channels=True))))
        (trace, params, images), (trace2, params2, images2) = runs
        assert trace2 == trace
        for name in ("W", "H", "Q", "Gtilde"):
            assert np.array_equal(getattr(params2, name), getattr(params, name))
        assert len(images2) == len(images) == n
        for (energy2, image2), (energy, image) in zip(images2, images):
            assert energy2 == energy
            assert np.array_equal(image2, image)

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("frames", [1, 5, None], ids=["one-frame", "five", "default"])
    def test_stft_forward_matches_one_rfft(self, m, frames, helper, monkeypatch):
        cfg = StftConfig()
        if frames is not None:
            monkeypatch.setattr(workers, "_BLOCK_BYTES", frames * 8 * cfg.n_fft * m)
        rng = np.random.default_rng(m)
        # 303 frames: the last block is short at 5 frames and at the default
        # budget's 128, 64 and 32 frames for M = 1, 2 and 4
        x = rng.standard_normal((m, 300 * cfg.hop - 77))
        spec = stft_forward(x, cfg)
        assert spec.shape == (cfg.n_freq, m, 303) and spec.flags.c_contiguous
        assert np.array_equal(spec.transpose(0, 2, 1), oracles.whole_stft_forward(x, cfg))

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("overlap", [2, 4, 8])
    @pytest.mark.parametrize("frames", [1, 6, None], ids=["one-frame", "six", "default"])
    @pytest.mark.parametrize("threads", ["helper", "caller"])
    def test_stft_inverse_matches_the_frame_loop(self, m, overlap, frames, threads,
                                                 helper, monkeypatch):
        cfg = StftConfig(hop=1024 // overlap)
        if frames is not None:
            monkeypatch.setattr(workers, "_BLOCK_BYTES", frames * 8 * cfg.n_fft * m)
        if threads == "caller":
            monkeypatch.setattr(workers, "_HELPER", None)
        rng = np.random.default_rng(10 * m + overlap)
        # 203 frames and 204 - overlap output chunks: the last block of each
        # is short at 6 per block and at the default budget's 128 // m
        spec = (rng.standard_normal((cfg.n_freq, 203, m))
                + 1j * rng.standard_normal((cfg.n_freq, 203, m)))
        spec_FMT = np.ascontiguousarray(spec.transpose(0, 2, 1))
        covered = (203 + 1 - overlap) * cfg.hop
        for length in (covered, covered - cfg.hop // 2 - 1):  # the limit; mid-chunk
            out = stft_inverse(spec_FMT, cfg, length)
            assert out.shape == (m, length) and out.flags.c_contiguous
            assert np.array_equal(out, oracles.whole_stft_inverse(spec, cfg, length))

    @pytest.mark.parametrize("signed", [False, True], ids=["zeros", "signed-zeros"])
    def test_stft_inverse_of_zeros_is_positive_zero(self, signed, helper, monkeypatch):
        # some -0.0 bins make windowed samples -0.0; where every term of a
        # sum is -0.0 only a sum that starts from 0.0 returns +0.0
        cfg = StftConfig(n_fft=4, hop=2)
        monkeypatch.setattr(workers, "_BLOCK_BYTES", 3 * 8 * cfg.n_fft * 2)
        spec = np.zeros((cfg.n_freq, 400, 2), dtype=np.complex128)
        if signed:
            rng = np.random.default_rng(0)
            spec.real[rng.random(spec.shape) < 0.5] = -0.0
            spec.imag[rng.random(spec.shape) < 0.5] = -0.0
        out = stft_inverse(np.ascontiguousarray(spec.transpose(0, 2, 1)), cfg, 397 * cfg.hop - 1)
        assert np.array_equal(out, oracles.whole_stft_inverse(spec, cfg, 397 * cfg.hop - 1))
        assert not np.any(out) and not np.any(np.signbit(out))


PRIOR_VARIANTS = [
    Gaussian(), StudentT(nu=4.0), LeptokurticGG(beta=1.2),
    GH(gamma=-2.0, rho=3.0, eta=1.0),  # integer orders: the k0e/k1e base
    GH(gamma=-1.7, rho=3.0, eta=1.0),  # the kve base
    NIG(rho=15.0, eta=1.0),
]


class TestPriorStatistics:
    """`log_marginal_from_s` over blocks of s against one serial pass."""

    @staticmethod
    def statistics(s, m, variant, monkeypatch, budget, pool):
        monkeypatch.setattr(workers, "_BLOCK_BYTES", budget)
        monkeypatch.setattr(workers, "_HELPER", pool)
        return log_marginal_from_s(s, m, variant)

    @pytest.mark.parametrize("variant", PRIOR_VARIANTS,
                             ids=["gaussian", "t", "gg", "gh-integer", "gh-kve", "nig"])
    @pytest.mark.parametrize("shape", [(), (40,), (13, 40)], ids=["0-d", "1-d", "2-d"])
    def test_blocks_match_one_pass(self, variant, shape, helper, monkeypatch):
        rng = np.random.default_rng(len(shape))
        s = rng.exponential(3.0, shape) * rng.choice([0.0, 1e-9, 1.0, 1e6], shape)
        pool = workers._HELPER
        whole = self.statistics(s, 3, variant, monkeypatch, 1 << 40, None)
        per_row = priors._BYTES_PER_S * (shape or (1,))[-1]
        for budget in (0, per_row, workers._BLOCK_BYTES):  # one value, one row, default
            for threads in (None, pool):
                blocked = self.statistics(s, 3, variant, monkeypatch, budget, threads)
                for got, want in zip(blocked, whole):
                    assert np.shape(got) == shape
                    assert np.array_equal(got, want)
        if shape == ():
            assert all(isinstance(value, float) for value in whole)

    @pytest.mark.parametrize("gamma", [-1.0, -1.7], ids=["gh-integer", "gh-kve"])
    def test_degenerate_corners_are_non_finite_without_warnings(self, gamma, helper,
                                                                monkeypatch):
        # at rho = 1e-300 the ladder overflows for s = 1e300 and inf, in
        # blocks of one value on either thread, and stays finite for s <= 1
        variant = GH(gamma=gamma, rho=1e-300, eta=1.0)
        s = np.array([0.0, 1.0, 1e300, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            whole = self.statistics(s, 1, variant, monkeypatch, 1 << 40, None)
            blocked = self.statistics(s, 1, variant, monkeypatch, 0, workers._HELPER)
        for got, want in zip(blocked, whole):
            assert np.array_equal(got, want, equal_nan=True)
            np.testing.assert_array_equal(np.isfinite(got), [True, True, False, False])


# sepbench/run.py's PROBES, (module, attribute), copied: tests do not import
# sepbench.  Its tracer assumes that these run on the calling thread.
PROBED = [
    (cli, "main"), (cli, "read_wav"), (cli, "write_wav"), (cli, "stft_forward"),
    (optimizer, "init_params"), (optimizer, "e_step"), (optimizer, "inv_phi_from_s"),
    (optimizer, "compute_ytilde"), (optimizer, "update_w"), (optimizer, "update_h"),
    (optimizer, "update_g"), (optimizer, "update_q"),
    (linalg, "compensated_quadratic_form"), (optimizer, "normalize"),
    (optimizer, "log_likelihood"), (optimizer, "log_marginal_from_s"),
    (linalg, "log_abs_det_gram"), (wiener, "separate"), (linalg, "invert"),
    (wiener, "stft_inverse"),
]


def test_probed_names_run_on_the_calling_thread(helper, monkeypatch):
    calls = []

    def recorded(fn, name):
        def call(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return call

    for module, attr in PROBED:
        monkeypatch.setattr(module, attr, recorded(getattr(module, attr), attr))
    # not probed: the helper takes blocks of the Wiener stage, and every
    # block of the iterations that this process runs runs on the caller
    monkeypatch.setattr(model, "source_psd", recorded(model.source_psd, "source_psd"))
    monkeypatch.setattr(wiener, "source_psd", recorded(wiener.source_psd, "wiener"))
    monkeypatch.setattr(workers, "_BLOCK_BYTES", 1 << 14)
    scene = synth_scene(2, 2, 1.0, seed=0)
    cfg = SeparationConfig(n_sources=2, n_bases=4, iterations=2,
                           variant=StudentT(nu=4.0))
    stft_cfg = StftConfig()
    X = cli.stft_forward(scene.mixture.samples, stft_cfg)
    harness.separate_mixture(X, cfg, stft_cfg, scene.mixture.n_frames,
                             all_channels=False)

    caller, markers = threading.get_ident(), {"source_psd", "wiener"}
    assert {name for name, ident in calls if name not in markers} == {
        attr for _, attr in PROBED} - {"main", "read_wav", "write_wav"}
    assert [name for name, ident in calls
            if name not in markers and ident != caller] == []
    assert {ident for name, ident in calls if name == "source_psd"} == {caller}
    assert {ident for name, ident in calls if name == "wiener"} == {caller, helper}


def _block_threads():
    # run in a `gsmsep bench` worker: (threads that ran 8 blocks, the worker's thread)
    def body(block):
        time.sleep(0.005)
        return threading.get_ident()

    return set(map_blocks(body, 8, ONE)), threading.get_ident()


def test_bench_workers_run_blocks_on_one_thread():
    with cli._worker_pool(1) as pool:
        threads, worker = pool.submit(_block_threads).result()
    assert threads == {worker}


def random_mixture(rng, f, m, t):
    return rng.standard_normal((f, m, t)) + 1j * rng.standard_normal((f, m, t))


@pytest.fixture
def twins(helper, monkeypatch):
    """The pids of the processes forked while the helper is present; the
    test asserts that each was reaped by the time the run ended."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", fork)
    return pids


def reaped(pids) -> bool:
    # waitpid raises for a pid that is no longer a child: it was reaped.
    # (waitpid(-1) would see the resource tracker of a spawned worker pool)
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        return False
    return True


# the block functions of every per-bin stage of an iteration, and
# update_q's sweep: the twin must take a share of each
TWIN_STAGES = ["_ytilde_block", "_project_block", "_statistics_block", "_scale_block",
               "_w_block", "_h_block", "_g_block", "_project_rows"]


def small_blocks(monkeypatch, shape, n_sources):
    # a budget of five frequencies per W, H, G~ and y~ block, so that every
    # stage has several blocks, the last of most of them short
    n_freq, n_chan, n_frames = shape
    monkeypatch.setattr(workers, "_BLOCK_BYTES", 5 * 8 * n_frames * (n_sources + n_chan))


class TestTwin:
    """The iterations on two processes against the same run on one."""

    CASES = [((65, 8, 50), 8, GH(gamma=-2.0, rho=15.0, eta=1.0), False),  # odd F
             ((64, 3, 40), 3, StudentT(nu=4.0), False),  # even F
             ((33, 2, 30), 2, Gaussian(), False),
             ((40, 2, 30), 2, NIG(rho=15.0, eta=1.0), True),  # rank-1: no G~ stage
             ((33, 2, 30), 3, StudentT(nu=4.0), False)]  # three sources on two mics
    IDS = ["65x8x50-gh", "64x3x40-t", "33x2x30-gaussian", "40x2x30-nig-rank1",
           "33x2x30-t-3-on-2"]

    @staticmethod
    def both_runs(X, cfg, monkeypatch):
        # (params, trace, warning messages) with the twin, then serially
        runs = []
        for pool in (workers._HELPER, None):
            monkeypatch.setattr(workers, "_HELPER", pool)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                params, trace = optimizer.run(X, cfg)
            runs.append((params, trace, [str(w.message) for w in caught]))
        return runs

    @pytest.mark.parametrize("shape,n_sources,variant,rank1", CASES, ids=IDS)
    def test_same_bits_as_one_process(self, shape, n_sources, variant, rank1, twins,
                                      monkeypatch):
        small_blocks(monkeypatch, shape, n_sources)
        X = random_mixture(np.random.default_rng(shape[0]), *shape)
        cfg = SeparationConfig(n_sources=n_sources, n_bases=2, iterations=4,
                               variant=variant, rank1=rank1, seed=1)
        (params, trace, caught), (params1, trace1, caught1) = self.both_runs(
            X, cfg, monkeypatch)
        assert trace == trace1
        for name in ("W", "H", "Q", "Gtilde"):
            assert np.array_equal(getattr(params, name), getattr(params1, name))
        assert caught == caught1
        assert len(twins) == 1 and reaped(twins)

    @pytest.mark.parametrize("rank1", [False, True], ids=["general", "rank1"])
    def test_twin_takes_blocks_of_every_stage(self, rank1, twins, monkeypatch):
        # the twin counts, in memory the test shares with it, the blocks
        # (for update_q the sweeps) it ran of each stage
        taken = workers.shared_empty((len(TWIN_STAGES),), np.int64)
        real_blocks, real_call = optimizer._Twin._blocks, optimizer._Twin._call

        def blocks(self, body, blocks, hold):
            taken[TWIN_STAGES.index(body.func.__name__)] += len(blocks)
            return real_blocks(self, body, blocks, hold)

        def call(self, fn, *args):
            taken[TWIN_STAGES.index(fn.__name__)] += 1
            return real_call(self, fn, *args)

        monkeypatch.setattr(optimizer._Twin, "_blocks", blocks)
        monkeypatch.setattr(optimizer._Twin, "_call", call)
        shape = (33, 2, 30)
        small_blocks(monkeypatch, shape, 2)
        X = random_mixture(np.random.default_rng(10), *shape)
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=2, rank1=rank1, seed=0)
        optimizer.run(X, cfg)
        assert len(twins) == 1 and reaped(twins)
        skipped = {"_g_block"} if rank1 else set()
        assert {name for name, k in zip(TWIN_STAGES, taken) if k == 0} == skipped

    def test_run_on_another_thread(self, twins, monkeypatch):
        # the twin of a run started off the main thread sets up its signals too
        X = random_mixture(np.random.default_rng(2), 9, 3, 12)
        cfg = SeparationConfig(n_sources=3, n_bases=2, iterations=2, seed=0)
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            _, trace = pool.submit(optimizer.run, X, cfg).result(timeout=60)
        monkeypatch.setattr(workers, "_HELPER", None)
        assert trace == optimizer.run(X, cfg)[1]
        assert len(twins) == 1 and reaped(twins)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs two CPUs")
    def test_the_calling_thread_gets_its_cpus_back(self):
        # in a fresh interpreter, so no earlier run's pinning can hide it:
        # during the run the caller and the twin keep to one CPU each
        probe = """if True:
            import os
            import numpy as np
            from gsmsep import model, optimizer
            from gsmsep.model import SeparationConfig
            before = os.sched_getaffinity(0)
            X = np.random.default_rng(2).standard_normal((9, 3, 12)) + 0j
            cfg = SeparationConfig(n_sources=3, n_bases=2, iterations=2, seed=0)
            steps = optimizer.iterate(X, model.init_params(cfg, X), cfg)
            next(steps)
            during = os.sched_getaffinity(0)
            steps.close()
            print(len(during), os.sched_getaffinity(0) == before)
        """
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, check=True, timeout=120)
        assert result.stdout.split() == ["1", "True"]

    def test_kept_rows_in_both_halves_warn_as_one_process(self, twins, monkeypatch):
        X = random_mixture(np.random.default_rng(3), 65, 4, 30)
        X[[3, 50]] = 0.0  # f = 3 is the caller's, f = 50 the twin's
        cfg = SeparationConfig(n_sources=4, n_bases=2, iterations=3, seed=0)
        (_, trace, caught), (_, trace1, caught1) = self.both_runs(X, cfg, monkeypatch)
        assert trace == trace1
        assert caught == caught1
        singular = [message for message in caught if message.startswith("singular")]
        assert len(singular) == cfg.iterations  # one per update_q call
        assert all("at 8 (f, m) rows (f = 3, 50)" in message for message in singular)
        assert len(twins) == 1 and reaped(twins)

    def test_twin_warnings_reach_the_caller_and_nothing_prints(self, twins, monkeypatch,
                                                               capfd):
        caller, real = os.getpid(), linalg.compensated_quadratic_form

        def warn_in_twin(*args):
            if os.getpid() != caller:
                np.log(np.zeros(1))  # numpy's divide warning, under the caller's errstate
            return real(*args)

        monkeypatch.setattr(linalg, "compensated_quadratic_form", warn_in_twin)
        X = random_mixture(np.random.default_rng(4), 9, 2, 12)
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=3, seed=0)
        steps = optimizer.iterate(X, model.init_params(cfg, X), cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            next(steps)  # forks the twin under the default errstate
        assert [str(w.message) for w in caught] == ["divide by zero encountered in log"] * 2
        with np.errstate(divide="raise"):  # the twin follows each call's errstate
            with pytest.raises(FloatingPointError, match="divide by zero"):
                next(steps)
        assert capfd.readouterr() == ("", "")
        assert len(twins) == 1 and reaped(twins)

    @pytest.mark.parametrize("where", ["both", "twin"])
    def test_error_in_update_q_reaps_the_twin(self, where, twins, monkeypatch):
        caller, real = os.getpid(), linalg.compensated_quadratic_form

        def fail(*args):
            if where == "both" or os.getpid() != caller:
                raise LookupError(f"failed in {where}")
            return real(*args)

        monkeypatch.setattr(linalg, "compensated_quadratic_form", fail)
        X = random_mixture(np.random.default_rng(5), 9, 2, 12)
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=3, seed=0)
        with pytest.raises(LookupError, match=f"^failed in {where}$") as raised:
            optimizer.run(X, cfg)
        assert type(raised.value) is LookupError
        assert len(twins) == 1 and reaped(twins)

    @pytest.mark.parametrize("stage", ["_fold", "_statistics_block"],
                             ids=["h-fold", "likelihood"])
    def test_error_in_the_twins_share_reaps_it(self, stage, twins, monkeypatch):
        # raised in the twin only: in its part of the first H fold, or in its
        # blocks of the first likelihood's prior statistics (the second
        # statistics pass of the run, after the first E-step's)
        real_blocks, real_fold = optimizer._Twin._blocks, optimizer._Twin._fold
        passes = []

        def blocks(self, body, blocks, hold):
            if body.func.__name__ == stage:
                passes.append(None)
                if len(passes) == 2:
                    raise KeyError(f"failed in {stage}")
            return real_blocks(self, body, blocks, hold)

        def fold(self, fold):
            if stage == "_fold":
                raise KeyError(f"failed in {stage}")
            return real_fold(self, fold)

        monkeypatch.setattr(optimizer._Twin, "_blocks", blocks)
        monkeypatch.setattr(optimizer._Twin, "_fold", fold)
        shape = (33, 2, 30)
        small_blocks(monkeypatch, shape, 2)
        X = random_mixture(np.random.default_rng(11), *shape)
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=3, seed=0)
        steps = optimizer.iterate(X, model.init_params(cfg, X), cfg)
        with pytest.raises(KeyError, match=f"failed in {stage}") as raised:
            next(steps)
        assert type(raised.value) is KeyError
        assert len(twins) == 1 and reaped(twins)

    def test_non_finite_likelihood_reaps_the_twin(self, twins, monkeypatch):
        real = optimizer.log_marginal_from_s

        def nan(s, m_dims, variant, *log_y):
            value, inv_phi = real(s, m_dims, variant, *log_y)
            return value * np.nan, inv_phi

        monkeypatch.setattr(optimizer, "log_marginal_from_s", nan)
        X = random_mixture(np.random.default_rng(6), 9, 2, 12)
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=3, seed=0)
        with pytest.raises(ArithmeticError, match="at iteration 0"):
            optimizer.run(X, cfg)
        assert len(twins) == 1 and reaped(twins)

    def test_closing_the_generator_reaps_the_twin(self, twins):
        X = random_mixture(np.random.default_rng(7), 9, 2, 12)
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=3, seed=0)
        steps = optimizer.iterate(X, model.init_params(cfg, X), cfg)
        next(steps)
        assert len(twins) == 1 and not reaped(twins)
        steps.close()
        assert reaped(twins)

    def test_no_fork_runs_serially(self, helper, monkeypatch):
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        X = random_mixture(np.random.default_rng(9), 9, 2, 12)
        cfg = SeparationConfig(n_sources=2, n_bases=2, iterations=2, seed=0)
        fds = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", no_fork)
        _, trace = optimizer.run(X, cfg)
        assert len(os.listdir("/proc/self/fd")) == fds  # no pipe left open
        monkeypatch.setattr(workers, "_HELPER", None)
        assert trace == optimizer.run(X, cfg)[1]

    def test_an_array_outside_the_twin_is_refused(self, helper, monkeypatch):
        # the twin's writes into a copy would be lost: refused before any
        # byte is written, and the twin still serves
        X = random_mixture(np.random.default_rng(8), 9, 3, 12)
        cfg = SeparationConfig(n_sources=3, n_bases=2, iterations=1, seed=0)
        params = model.init_params(cfg, X)
        twin = optimizer._Twin(X, optimizer.outer_products(X)[0], params)
        try:
            # one block stays on the caller, and the twin checks nothing
            assert np.array_equal(model.compute_ytilde(params, 1e-10, np.empty(X.shape), twin),
                                  model.compute_ytilde(params, 1e-10))
            small_blocks(monkeypatch, X.shape, 3)
            with pytest.raises(pickle.PicklingError, match="outside the twin's memory"):
                model.compute_ytilde(params, 1e-10, np.empty(X.shape), twin)
            y = model.compute_ytilde(params, 1e-10, twin.cache.y_tilde, twin)
        finally:
            twin.close()
        assert np.array_equal(y, model.compute_ytilde(params, 1e-10))
        assert reaped([twin.pid])

    def test_a_command_repeated_with_new_values_is_sent_anew(self, helper, monkeypatch):
        # the twin keeps pickled commands: one that differs only in a float
        # (the floor) or in params copied into its memory gets new results
        X = random_mixture(np.random.default_rng(8), 20, 3, 12)
        cfg = SeparationConfig(n_sources=3, n_bases=2, iterations=1, seed=0)
        small_blocks(monkeypatch, X.shape, 3)
        params = model.init_params(cfg, X)
        moved = dataclasses.replace(params, H=2.0 * params.H)
        twin = optimizer._Twin(X, optimizer.outer_products(X)[0], params)
        try:
            got = [model.compute_ytilde(p, floor, twin.cache.y_tilde, twin).copy()
                   for p, floor in [(params, 1.0), (params, 2.0), (moved, 2.0), (params, 1.0)]]
        finally:
            twin.close()
        for y, (p, floor) in zip(got, [(params, 1.0), (params, 2.0), (moved, 2.0), (params, 1.0)]):
            assert np.array_equal(y, model.compute_ytilde(p, floor))
        assert reaped([twin.pid])

    def test_twin_ignores_sigint(self, helper):
        X = random_mixture(np.random.default_rng(8), 9, 3, 12)
        cfg = SeparationConfig(n_sources=3, n_bases=2, iterations=1, seed=0)
        params = model.init_params(cfg, X)
        S = optimizer.outer_products(X)[0]
        twin = optimizer._Twin(X, S, params)
        try:
            cache = optimizer.e_step(X, params, cfg.variant, 1e-10, buffers=twin.cache)
            os.kill(twin.pid, signal.SIGINT)
            time.sleep(0.05)
            with_twin = optimizer.update_q(params, S, cache, twin)
        finally:
            twin.close()
        assert np.array_equal(with_twin.Q, optimizer.update_q(params, S, cache).Q)
        assert reaped([twin.pid])
