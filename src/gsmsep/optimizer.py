"""MU-VEM loop: E-step statistics, multiplicative updates, iterative
projection for the diagonalizers, normalization, likelihood tracking.

`iterate` is the one loop; `run` initializes and collects what it yields.
Each iteration computes the E-step once (the posterior expectation of the
inverse impulse variable is held fixed through the M-step), then applies
the updates of W, H, G~ (not under rank-1) and Q in that order, with the
model variances y~ refreshed after each, then normalizes and records
the marginal log-likelihood.  One `log_marginal_from_s` pass gives the
likelihood both per-bin statistics of the prior, so `log_likelihood` also
returns the E-step cache (y~, E[1/phi] and z^) at its parameters, and the
next E-step takes it as it is.  The Q update's weighted covariances V_fm
are weighted sums of the outer products x_ft x_ft^H, which do not change
during a run: `iterate` builds their real statistics once, checks the
channel layout from their sums, and each `update_q` weighs them for every
m with one real matrix product.  Wherever `map_blocks` has its helper
thread (Linux, two or more CPUs, not a forked or spawned worker),
`iterate` forks one twin process after building them, and each
`update_q` sweeps the lower half of the frequencies (V, solves, scales)
on the caller and the upper half in the twin, each on one thread.  Its
~4,400 short numpy calls per iteration at M = 8 each take the GIL, so
two threads ran slower than one; two processes have a GIL each.  The
twin reads S through the fork's copy-on-write pages and y~ and E[1/phi]
from the run's cache arrays, which are allocated once in shared
anonymous memory before the fork; Q's rows go in and out through a small
shared buffer.  The mixture and every per-bin array are
channel-major, (F, M, T), so each contraction over m or n (G~ against
the ratios, G~ transposed against lambda, Q_f against x) is a batched
matrix product on contiguous rows of t.  Every other per-bin stage (y~, the W, H
and G~ updates, the outer products, the likelihood's projection,
|Q x|^2, s and sum_m log y~, and the prior's statistics of s) runs over
`map_blocks`: the caller and one helper thread take blocks whose
temporaries fit the per-thread cache budget.  The H and G~ updates add
their blocks' sums over f in block order, so two threads give the bits
one would; the only (F, M, T) arrays a stage holds whole are the cache's
y~ and z^, and a run allocates them once.  `iterate` is a generator, not
a step function returning its state, so the E-step cache outlives each
iteration and its arrays are written over instead of allocated anew:
each y~ refresh over the y~ the update before it read, and the
likelihood's y~, z~ (scaled into z^) and s over the cache the M-step has
finished with.  Freeing the cache every iteration made the allocator
return its pages to the OS and fault them back in.  Every update
is an exact maximizer or a multiplicative step on the same minorizing
bound, so the trace is non-decreasing up to rounding; violations beyond a
1e-8 relative slack are reported as warnings with their iteration index,
never swallowed, and a non-finite likelihood raises ArithmeticError.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import mmap
import os
import pickle
import signal
import warnings
from typing import Iterator

import numpy as np

from . import linalg, model
from .model import (
    ModelParams,
    SeparationConfig,
    GsmVariant,
    compute_ytilde,
    freq_blocks,
    init_params,
    map_blocks,
    normalize,
    power_scale,
    source_psd,
)
from .priors import inv_phi_from_s, log_marginal_from_s

MONOTONE_SLACK = 1e-8

# variance floor on y~; `iterate` scales it by the mixture's power_scale
DEFAULT_FLOOR = 1e-10

# pure guard against 0/0 in the multiplicative ratios; small enough to
# never alter a denominator that carries information
_DEN_TINY = np.finfo(np.float64).tiny

_RANK_TOL = 1e-10  # channel correlation eigenvalue (and eigenvector weight) taken as 0


class ChannelLayoutError(ValueError):
    """A mixture channel is silent, or some channels are linearly dependent."""


@dataclasses.dataclass(frozen=True)
class EStepCache:
    """Per-bin statistics at one parameter set, shared by the M-step
    updates; `log_likelihood` returns them for the next `e_step`.

    y_tilde: (F, M, T) model variances, floored
    inv_phi: (F, T) posterior expectation of phi^-1
    z_hat:   (F, M, T) = inv_phi |q_fm^H x_ft|^2
    """

    y_tilde: np.ndarray
    inv_phi: np.ndarray
    z_hat: np.ndarray


def project_mixture(X_FMT: np.ndarray, Q_FMM: np.ndarray) -> np.ndarray:
    """z_fmt = (Q_f x_ft)_m (row m of Q_f is q_fm^H)."""
    return np.matmul(Q_FMM, X_FMT)


def _project(X_FMT: np.ndarray, params: ModelParams, floor: float,
             buffers: EStepCache | None = None, log_y: bool = True):
    # (z~, y~, s, sum_m log y~ or None) at params; Q x and the per-bin sums
    # are formed one frequency block at a time, the sums over m adding the
    # block's contiguous rows of t.  z~, y~ and s are written over the z^,
    # y~ and E[1/phi] arrays of `buffers`, or of fresh ones
    n_freq, n_chan, n_frames = X_FMT.shape
    if buffers is None:
        buffers = EStepCache(np.empty(X_FMT.shape), np.empty((n_freq, n_frames)),
                             np.empty(X_FMT.shape))
    y_tilde = compute_ytilde(params, floor, out=buffers.y_tilde)
    z_tilde, s_FT = buffers.z_hat, buffers.inv_phi
    log_y_FT = np.empty((n_freq, n_frames)) if log_y else None

    def block_body(block):
        z_tilde[block] = np.abs(project_mixture(X_FMT[block], params.Q[block])) ** 2
        s_FT[block] = (z_tilde[block] / y_tilde[block]).sum(axis=1)
        if log_y:
            log_y_FT[block] = np.log(y_tilde[block]).sum(axis=1)
    map_blocks(block_body, n_freq, 40 * n_frames * n_chan)
    return z_tilde, y_tilde, s_FT, log_y_FT


def _cache(z_tilde: np.ndarray, y_tilde: np.ndarray,
           inv_phi: np.ndarray) -> EStepCache:
    # z^ is formed in z~'s memory, which nothing else holds, block by block
    def block_body(block):
        z_tilde[block] *= inv_phi[block, None]
    map_blocks(block_body, z_tilde.shape[0], 8 * z_tilde.shape[2] * (z_tilde.shape[1] + 1))
    return EStepCache(y_tilde, inv_phi, z_tilde)


def e_step(X_FMT: np.ndarray, params: ModelParams, variant: GsmVariant,
           floor: float, cache: EStepCache | None = None,
           buffers: EStepCache | None = None) -> EStepCache:
    """Posterior E[1/phi] and z^ at params, with y~ floored at `floor`
    (a run's is DEFAULT_FLOOR times the mixture's `power_scale`).

    `cache`, when given, must be the one `log_likelihood` returned for the
    same (X_FMT, params, floor); it is returned as it is.  Otherwise the
    new cache is written into the arrays of `buffers`, when given, as in
    `log_likelihood`.
    """
    expected = (params.n_freq, params.n_channels, params.n_frames)
    if X_FMT.shape != expected:
        raise ValueError(f"mixture shape {X_FMT.shape} inconsistent with params {expected}")
    if cache is None:
        z_tilde, y_tilde, s, _ = _project(X_FMT, params, floor, buffers, log_y=False)
        # E[1/phi] is written over s, and the unused log marginal over zeros
        cache = _cache(z_tilde, y_tilde, inv_phi_from_s(
            s, params.n_channels, variant, np.zeros(s.shape)))
    return cache


def _mu_blocks(params: ModelParams, cache: EStepCache, body, fold=None) -> list:
    # map_blocks of body(block, y~^-2 z^, y~^-1) over the frequency blocks of
    # the W, H and G~ updates; y~^-2 z^ is z^ R R with R = y~^-1, as y~^2
    # itself would leave float64 for y~ beyond 2^+-512
    def block_body(block):
        R_BMT = 1.0 / cache.y_tilde[block]
        return body(block, cache.z_hat[block] * R_BMT * R_BMT, R_BMT)
    per_freq = 8 * params.n_frames * (params.n_sources + params.n_channels)
    return map_blocks(block_body, params.n_freq, per_freq, fold)


def _mu_ratio_parts(params: ModelParams, cache: EStepCache, body, fold=None) -> list:
    # body(block, tmp1, tmp2) over the same blocks: the (B, N, T) tmp1
    # weights carry y~^-2 z^, tmp2 carry y~^-1, contracted over m with G~
    return _mu_blocks(params, cache, lambda block, P_BMT, R_BMT: body(
        block, np.matmul(params.Gtilde, P_BMT), np.matmul(params.Gtilde, R_BMT)), fold)


def update_w(params: ModelParams, cache: EStepCache) -> ModelParams:
    """w <- w sqrt(sum_tm h g~ y~^-2 z^ / sum_tm h g~ y~^-1)."""
    W_NKF = np.empty_like(params.W)

    def block_body(block, tmp1_BNT, tmp2_BNT):
        numerator = np.matmul(params.H, tmp1_BNT.transpose(1, 2, 0))
        denominator = np.matmul(params.H, tmp2_BNT.transpose(1, 2, 0))
        W_NKF[:, :, block] = params.W[:, :, block] * np.sqrt(
            numerator / np.maximum(denominator, _DEN_TINY))
    _mu_ratio_parts(params, cache, block_body)
    return dataclasses.replace(params, W=W_NKF)


def update_h(params: ModelParams, cache: EStepCache) -> ModelParams:
    """h <- h sqrt(sum_fm w g~ y~^-2 z^ / sum_fm w g~ y~^-1)."""
    sums = np.zeros((2,) + params.H.shape)  # numerator, denominator

    def block_body(block, tmp1_BNT, tmp2_BNT):
        part = np.empty_like(sums)
        np.matmul(params.W[:, :, block], tmp1_BNT.transpose(1, 0, 2), out=part[0])
        np.matmul(params.W[:, :, block], tmp2_BNT.transpose(1, 0, 2), out=part[1])
        return part
    _mu_ratio_parts(params, cache, block_body, fold=sums.__iadd__)
    H_NKT = params.H * np.sqrt(sums[0] / np.maximum(sums[1], _DEN_TINY))
    return dataclasses.replace(params, H=H_NKT)


def update_g(params: ModelParams, cache: EStepCache) -> ModelParams:
    """g~ <- g~ sqrt(sum_ft lambda y~^-2 z^ / sum_ft lambda y~^-1).

    `iterate` does not call it under the rank-1 constraint, where G~ stays
    the identity `init_params` gave it.
    """
    sums = np.zeros((2,) + params.Gtilde.shape)  # numerator, denominator

    def block_body(block, P_BMT, R_BMT):  # (B, N, M) terms, summed over b
        lambda_BNT = source_psd(params, block).transpose(1, 0, 2)
        return np.stack([np.matmul(lambda_BNT, P_BMT.transpose(0, 2, 1)).sum(axis=0),
                         np.matmul(lambda_BNT, R_BMT.transpose(0, 2, 1)).sum(axis=0)])
    _mu_blocks(params, cache, block_body, fold=sums.__iadd__)
    G_NM = params.Gtilde * np.sqrt(sums[0] / np.maximum(sums[1], _DEN_TINY))
    return dataclasses.replace(params, Gtilde=G_NM)


def outer_products(X_FMT: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real per-bin statistics of x_ft x_ft^H, shape (F, M^2, T), and
    their (M^2,) sums over f and t.

    Rows 0..M-1 hold |x_i|^2; then each pair i < j, in `np.triu_indices`
    order, has two rows: Re and Im of x_i x_j^*.  They do not change
    during a run, so `iterate` builds them once and `update_q` weighs them
    with one real matrix product per call; the sums, added per block while
    it is in cache and folded in block order, are the channel guard's Gram.
    """
    n_freq, n_chan, n_frames = X_FMT.shape
    _, upper, lower = _hermitian_indices(n_chan)
    S_FPT = np.empty((n_freq, n_chan * n_chan, n_frames))
    gram_P = np.zeros(n_chan * n_chan)

    def block_body(block):
        X_BMT, S_BPT = X_FMT[block], S_FPT[block]
        S_BPT[:, :n_chan] = X_BMT.real ** 2 + X_BMT.imag ** 2
        cross_BPT = X_BMT[:, upper] * X_BMT[:, lower].conj()
        S_BPT[:, n_chan::2] = cross_BPT.real
        S_BPT[:, n_chan + 1::2] = cross_BPT.imag
        return S_BPT.sum(axis=(0, 2))
    map_blocks(block_body, n_freq, 16 * n_frames * (n_chan + 3 * len(upper)), gram_P.__iadd__)
    return S_FPT, gram_P


@functools.lru_cache(maxsize=None)
def _hermitian_indices(n_chan: int) -> tuple:
    # (diagonal, upper, lower) index arrays of an M x M matrix, formed once
    # per M (forming them took a fixed few tens of us per unpacked row) and
    # read-only, as every caller shares them
    indices = (np.arange(n_chan),) + np.triu_indices(n_chan, k=1)
    for index in indices:
        index.flags.writeable = False
    return indices


def _unpack_hermitian(R_P: np.ndarray, out=None) -> np.ndarray:
    # (..., M^2) `outer_products` rows -> (..., M, M), mirrored exactly, into
    # `out` if given: complex, of that shape, with a real diagonal
    n_chan = round(R_P.shape[-1] ** 0.5)
    A_MM = np.zeros(R_P.shape[:-1] + (n_chan, n_chan), dtype=np.complex128) if out is None else out
    diag, upper, lower = _hermitian_indices(n_chan)
    A_MM.real[..., diag, diag] = R_P[..., :n_chan]
    A_MM.real[..., upper, lower] = A_MM.real[..., lower, upper] = R_P[..., n_chan::2]
    A_MM.imag[..., upper, lower] = R_P[..., n_chan + 1::2]
    A_MM.imag[..., lower, upper] = -R_P[..., n_chan + 1::2]
    return A_MM


def check_channel_layout(gram_P: np.ndarray, n_bins: int) -> float:
    """Raise ChannelLayoutError, naming channels from 1, if one is silent
    (G_ii = 0) or some are linearly dependent (D^-1/2 G D^-1/2 has an
    eigenvalue <= _RANK_TOL; a copy gives 1 - |rho|): either makes every Q_f
    singular.  G is unpacked from gram_P, the sums over the n_bins (f, t)
    that `outer_products` returns, so per-bin degeneracy passes.  Returns
    the `power_scale` of trace G, which refuses an overflow."""
    gram = _unpack_hermitian(gram_P)
    power = gram.diagonal().real
    scale = power_scale(power.sum(), n_bins * len(power))
    problems = [f"channel {i + 1} is silent" for i in np.nonzero(power == 0)[0]]
    live = np.nonzero(power)[0]
    root = np.sqrt(power[live])  # one root at a time: G_ii G_jj can under/overflow
    values, vectors = np.linalg.eigh(gram[np.ix_(live, live)] / root[:, None] / root)
    weight = np.sum(np.abs(vectors[:, values <= _RANK_TOL]) ** 2, axis=1)
    if named := [str(i + 1) for i in live[weight > _RANK_TOL]]:
        problems.append(f"channels {', '.join(named[:-1])} and {named[-1]} are linearly dependent")
    if problems:
        raise ChannelLayoutError("mixture channel layout: " + "; ".join(problems))
    return scale


def weighted_covariances(S_FPT: np.ndarray, cache: EStepCache) -> np.ndarray:
    """V_fm = (1/T) sum_t inv_phi_ft x_ft x_ft^H / y~_ftm for every m, as
    (F, M^2, M) `outer_products` rows, from one batched real product
    S @ (inv_phi / y~) per frequency block, all on the calling thread
    (`update_q` runs beside a twin process).  Column m, unpacked by
    `_unpack_hermitian`, is the (F, M, M) stack of V_fm: Hermitian bit for
    bit, with real nonnegative diagonals."""
    n_freq, n_chan, n_frames = cache.y_tilde.shape
    R_FPM = np.empty((n_freq, n_chan * n_chan, n_chan))
    for block in freq_blocks(n_freq, 8 * n_frames * n_chan * (n_chan + 1)):
        weight_BMT = cache.inv_phi[block, None] / cache.y_tilde[block]  # no (F, M, T) weight
        np.matmul(S_FPT[block], weight_BMT.transpose(0, 2, 1), out=R_FPM[block])
        R_FPM[block] /= n_frames
    return R_FPM


def _project_rows(Q_FMM: np.ndarray, S_FPT: np.ndarray, cache: EStepCache) -> dict:
    # `update_q`'s sweep over the frequencies of its arguments, writing Q_FMM
    # in place; returns the frequencies of the kept rows per kind, one
    # entry per (f, m) row
    n_freq, n_chan, _ = Q_FMM.shape
    kept = {"singular diagonalizer system": [], "degenerate projection scale": []}
    R_FPM = weighted_covariances(S_FPT, cache)
    V_FMM = np.zeros_like(Q_FMM)
    for m in range(n_chan):
        _unpack_hermitian(R_FPM[:, :, m], out=V_FMM)
        QV_FMM = np.matmul(Q_FMM, V_FMM)
        e_M1 = np.eye(n_chan, dtype=np.complex128)[:, m:m + 1]
        bad_F = np.zeros(n_freq, dtype=bool)
        try:
            q_FM = np.linalg.solve(QV_FMM, e_M1)[:, :, 0]
        except np.linalg.LinAlgError:
            # sign 0 is the exact-zero LU pivot that made solve raise; the
            # identity stands in for those systems, whose rows are kept
            bad_F = np.linalg.slogdet(QV_FMM)[0] == 0
            QV_FMM[bad_F] = np.eye(n_chan)
            q_FM = np.linalg.solve(QV_FMM, e_M1)[:, :, 0]
        # compensated evaluation: a plain einsum loses ~eps * cond(V) here,
        # which breaks the unit quadratic form once variance floors push
        # cond(V) past ~1e6
        scale_F = linalg.compensated_quadratic_form(V_FMM, q_FM)
        degenerate_F = ~(np.isfinite(scale_F) & (scale_F > 0)) & ~bad_F
        kept["singular diagonalizer system"].extend(np.nonzero(bad_F)[0].tolist())
        kept["degenerate projection scale"].extend(np.nonzero(degenerate_F)[0].tolist())
        keep_F = bad_F | degenerate_F
        safe_scale_F = np.where(keep_F, 1.0, scale_F)
        row_FM = (q_FM / np.sqrt(safe_scale_F)[:, None]).conj()
        Q_FMM[:, m, :] = np.where(keep_F[:, None], Q_FMM[:, m, :], row_FM)
    return kept


def update_q(params: ModelParams, S_FPT: np.ndarray, cache: EStepCache,
             twin: _Twin | None = None) -> ModelParams:
    """Iterative projection on every row of every Q_f.

    V_fm comes from the per-run statistics S_FPT = `outer_products(X)`
    through `weighted_covariances`, one row m's stack unpacked at a time,
    then q_fm <- (Q_f V_fm)^-1 e_m rescaled to q_fm^H V_fm q_fm = 1, for
    m = 1..M in order.  The rescale factor is evaluated in compensated
    arithmetic so the unit quadratic form survives ill-conditioned V.  A
    singular system or a degenerate scale leaves that row untouched; each
    kind is reported in at most one warning per call, with its row count.

    With `twin`, the `_Twin` forked for S_FPT and this cache's arrays, the
    frequencies from twin.start on are swept in the twin while the caller
    sweeps those below.  Every frequency's arithmetic is the same, so the
    bits are too, and the warnings are those of the whole sweep.
    """
    Q_FMM = params.Q.copy()
    if twin is None:
        kept, caught = _project_rows(Q_FMM, S_FPT, cache), []
    else:
        twin.start_sweep(Q_FMM)
        below = slice(0, twin.start)
        kept = _project_rows(Q_FMM[below], S_FPT[below], EStepCache(
            cache.y_tilde[below], cache.inv_phi[below], cache.z_hat[below]))
        twin_kept, caught = twin.finish_sweep(Q_FMM)
        for kind, rows_f in twin_kept.items():
            kept[kind].extend(rows_f)
    for category, message in caught:  # numpy's warnings in the twin's sweep
        warnings.warn(message, category, stacklevel=2)
    for kind, rows_f in kept.items():
        if rows_f:
            freqs = sorted(set(rows_f))
            shown = ", ".join(map(str, freqs[:5])) + (", ..." if len(freqs) > 5 else "")
            warnings.warn(
                f"{kind} at {len(rows_f)} (f, m) rows (f = {shown});"
                " keeping the previous rows",
                RuntimeWarning,
                stacklevel=2,
            )
    return dataclasses.replace(params, Q=Q_FMM)


def _shared_empty(shape: tuple, dtype=np.float64) -> np.ndarray:
    # an array in shared anonymous memory: a process forked after this
    # sees the caller's writes to it, and the caller the process's
    size = math.prod(shape)
    pages = mmap.mmap(-1, max(1, size * np.dtype(dtype).itemsize))
    return np.frombuffer(pages, dtype, size).reshape(shape)


def _shared_buffers(shape: tuple) -> EStepCache:
    """An E-step cache's arrays for an (F, M, T) mixture, y~ and E[1/phi] in
    shared memory (`_Twin` reads them), z^ private; unwritten."""
    return EStepCache(_shared_empty(shape), _shared_empty(shape[::2]), np.empty(shape))


class _Twin:
    """A forked process that runs `update_q`'s sweep over the upper half of
    the frequencies, [F // 2, F), while the caller sweeps the lower half.

    It is forked once per run, after `outer_products`: it reads S_FPT
    through the fork's copy-on-write pages, and y~ and E[1/phi] from
    `buffers`, which `_shared_buffers` allocated in shared memory and which
    the run's E-step caches are written into.  Q's upper rows go in and
    out through a small shared buffer.  One pipe carries go (the caller's
    numpy error state) to the twin, the other done (the kept rows and
    numpy's warnings, or the exception raised) back.  The twin ignores
    SIGINT, never warns or prints, and leaves by os._exit once the caller
    sends None or closes its pipe; `close` does both and reaps it.  After
    an exception in `update_q` the twin is only closed, not used again.
    """

    def __init__(self, S_FPT: np.ndarray, buffers: EStepCache):
        n_freq, n_chan, _ = buffers.y_tilde.shape
        self.start = n_freq // 2
        self.Q = _shared_empty((n_freq - self.start, n_chan, n_chan), np.complex128)
        # SIGINT stays blocked until the twin ignores it, so a Ctrl-C at the
        # fork cannot raise KeyboardInterrupt in the twin
        self.pid, fds = None, []
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            fds += os.pipe()
            fds += os.pipe()
            with warnings.catch_warnings():
                # Python >= 3.12 warns of a fork in a multi-threaded process.
                # It is safe here: every map_blocks returns only after its
                # helper thread finished, so the helper is idle and holds no
                # lock, and the twin runs only numpy and LAPACK and imports
                # nothing
                warnings.filterwarnings("ignore", ".* is multi-threaded", DeprecationWarning)
                self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        finally:
            if self.pid != 0:
                signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        go_read, go_write, done_read, done_write = fds
        if self.pid == 0:
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
                os.close(go_write)
                os.close(done_read)
                upper = slice(self.start, None)
                self._serve(os.fdopen(go_read, "rb"), os.fdopen(done_write, "wb"),
                            S_FPT[upper], EStepCache(buffers.y_tilde[upper],
                                                     buffers.inv_phi[upper], None))
            finally:
                os._exit(0)
        os.close(go_read)
        os.close(done_write)
        self._go, self._done = os.fdopen(go_write, "wb"), os.fdopen(done_read, "rb")

    def _serve(self, go, done, S_FPT, cache) -> None:
        # the twin's loop: one sweep of its rows per go, until None or EOF
        while (errors := pickle.load(go)) is not None:
            try:
                with np.errstate(**errors), warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    kept = _project_rows(self.Q, S_FPT, cache)
                reply = kept, [(w.category, str(w.message)) for w in caught]
            except Exception as error:  # re-raised by the caller
                reply = error
            pickle.dump(reply, done)
            done.flush()

    def start_sweep(self, Q_FMM: np.ndarray) -> None:
        """Hand the twin Q_FMM's rows from self.start on, and let it sweep them."""
        self.Q[...] = Q_FMM[self.start:]
        pickle.dump(np.geterr(), self._go)
        self._go.flush()

    def finish_sweep(self, Q_FMM: np.ndarray) -> tuple[dict, list]:
        """Wait for the twin's sweep and write its rows into Q_FMM; returns
        the frequencies of its kept rows per kind and numpy's warnings as
        (category, message), or raises what the twin raised."""
        try:
            reply = pickle.load(self._done)
        except EOFError:
            raise ChildProcessError(f"update_q's twin process {self.pid} exited") from None
        if isinstance(reply, BaseException):
            raise reply
        Q_FMM[self.start:] = self.Q
        kept, caught = reply
        return {kind: [f + self.start for f in rows_f] for kind, rows_f in kept.items()}, caught

    def close(self) -> None:
        """Stop the twin and wait for it to exit."""
        try:
            pickle.dump(None, self._go)
            self._go.close()
        except BrokenPipeError:  # it has gone already
            pass
        self._done.close()
        os.waitpid(self.pid, 0)


def log_likelihood(X_FMT: np.ndarray, params: ModelParams,
                   variant: GsmVariant, floor: float,
                   buffers: EStepCache | None = None) -> tuple[float, EStepCache]:
    """Marginal log-likelihood sum_ft log p(z_ft) + T sum_f log|Q_f Q_f^H|,
    and the E-step cache at the same parameters, with y~ floored at
    `floor` as in `e_step`.

    The cache equals, bit for bit, a fresh `e_step(X_FMT, params, variant,
    floor)`: its E[1/phi] comes from the same `log_marginal_from_s` pass
    as the marginal.  `buffers`, when given, is a cache of the same shape
    that nothing reads any more: its arrays become the returned cache's.
    The bin terms are written over the sum_m log y~ array, so the call
    holds two (F, T) arrays, E[1/phi] and that one.
    """
    z_tilde, y_tilde, s, log_y = _project(X_FMT, params, floor, buffers)
    bin_terms, inv_phi = log_marginal_from_s(s, params.n_channels, variant, log_y)
    det_F = linalg.log_abs_det_gram(params.Q)
    value = float(bin_terms.sum() + params.n_frames * det_F.sum())
    return value, _cache(z_tilde, y_tilde, inv_phi)


def iterate(X_FMT: np.ndarray, params: ModelParams,
            cfg: SeparationConfig) -> Iterator[tuple[ModelParams, float]]:
    """Run cfg.iterations MU-VEM iterations from params.

    Yields (params, log-likelihood) after each iteration.  Before the first,
    more than linalg.MAX_DIM channels raise ValueError, and silent or
    linearly dependent channels ChannelLayoutError; zero iterations solve no
    Q and check nothing.  y~ is floored at DEFAULT_FLOOR times the mixture's
    `power_scale`.  Under cfg.rank1 the G~ update, and the y~ refresh after
    it, are skipped.  Where `map_blocks` has its helper thread, `update_q`
    shares its rows with a `_Twin` process, reaped when the generator ends,
    raises or is closed.  A non-finite likelihood raises ArithmeticError naming
    its iteration; a decrease beyond the monotone slack warns.
    """
    previous = cache = S_FPT = buffers = twin = None
    if cfg.iterations > 0:
        linalg.as_square_stack(params.Q)  # the channel cap, before any work
        with np.errstate(over="ignore", invalid="ignore"):  # the guard refuses overflow
            S_FPT, gram_P = outer_products(X_FMT)  # update_q's statistics, the guard's Gram
            floor = DEFAULT_FLOOR * check_channel_layout(gram_P, X_FMT.shape[0] * X_FMT.shape[2])
        if model._HELPER is not None and X_FMT.shape[0] >= 2:
            # where map_blocks has its helper, update_q shares its rows with
            # a twin process, forked before the run's private arrays exist
            buffers = _shared_buffers(X_FMT.shape)
            try:
                twin = _Twin(S_FPT, buffers)
            except OSError:  # no process could be forked: the same bits serially
                pass
    try:
        for iteration in range(cfg.iterations):
            # e_step opens and log_likelihood closes every iteration, both
            # looked up in this module's globals (as are inv_phi_from_s and
            # log_marginal_from_s): sepbench's tracer wraps them by name and
            # delimits iterations by these two calls
            cache = e_step(X_FMT, params, cfg.variant, floor, cache=cache, buffers=buffers)

            # each refresh writes over the y~ the update before it read, and
            # the likelihood over the whole cache, once the M-step is done
            # with it
            params = update_w(params, cache)
            compute_ytilde(params, floor, out=cache.y_tilde)
            params = update_h(params, cache)
            compute_ytilde(params, floor, out=cache.y_tilde)
            if not cfg.rank1:  # rank-1 keeps G~ at the identity
                params = update_g(params, cache)
                compute_ytilde(params, floor, out=cache.y_tilde)
            params = update_q(params, S_FPT, cache, twin)

            params = normalize(params)
            ll, cache = log_likelihood(X_FMT, params, cfg.variant, floor, cache)
            if not np.isfinite(ll):
                raise ArithmeticError(
                    f"log-likelihood is {ll} at iteration {iteration}")
            if previous is not None and ll < previous - MONOTONE_SLACK * abs(previous):
                warnings.warn(f"log-likelihood decreased beyond slack at iteration"
                              f" {iteration}: {previous:.6f} -> {ll:.6f}",
                              RuntimeWarning, stacklevel=2)
            previous = ll
            yield params, ll
    finally:  # at the end, on any error, or when the caller closes the generator
        if twin is not None:
            twin.close()


def run(X_FMT: np.ndarray,
        cfg: SeparationConfig) -> tuple[ModelParams, list[float]]:
    """Initialize, then collect what `iterate` yields: the fitted parameters
    and one marginal log-likelihood per iteration.  Deterministic given
    cfg.seed.  A non-finite mixture raises ValueError from `init_params`'
    `power_scale`; `iterate` guards the channel layout.
    """
    X_FMT = np.asarray(X_FMT, dtype=np.complex128)
    if X_FMT.ndim != 3:
        raise ValueError(f"expected (F, M, T) mixture, got shape {X_FMT.shape}")

    params = init_params(cfg, X_FMT)
    values: list[float] = []
    for params, ll in iterate(X_FMT, params, cfg):
        values.append(ll)
    return params, values
