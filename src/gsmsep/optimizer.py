"""MU-VEM loop: E-step statistics, multiplicative updates, iterative
projection for the diagonalizers, normalization, likelihood tracking.

`iterate` is the one loop; `run` initializes and collects what it yields.
Each iteration computes the E-step once (the posterior expectation of the
inverse impulse variable is held fixed through the M-step), then applies
the updates of W, H, G~ (not under rank-1) and Q in that order, then
normalizes and records the marginal log-likelihood.  The H and G~ updates
form the model variances y~ they read from their own parameters, block by
block (G~ from the lambda its sums use), so one y~ refresh, before the Q
update, writes over the y~ the W update read.  One `log_marginal_from_s`
pass gives the likelihood both per-bin statistics of the prior, so
`log_likelihood` also returns the E-step cache (y~, E[1/phi] and z^) at
its parameters, and the next E-step takes it as it is.  The Q update's
weighted covariances V_fm are weighted sums of the outer products
x_ft x_ft^H, which do not change during a run: `iterate` builds their
real statistics once, checks the channel layout from their sums, and each
`update_q` weighs them for every m with one real matrix product.  The
mixture and every per-bin array are channel-major, (F, M, T), so each
contraction over m or n (G~ against the ratios, G~ transposed against
lambda, Q_f against x) is a batched matrix product on contiguous rows of t.

Every per-bin stage runs over `workers.map_blocks`, in frequency blocks
whose temporaries fit the per-thread cache budget; only the H and G~ sums
over f, the normalization and the likelihood's total couple frequencies.
Where `workers.parallel()`, `iterate` forks one `_Twin` after the outer
products, which takes the upper blocks of every stage of the iterations
in the helper thread's place and `update_q`'s frequencies from F // 2 on;
the arrays it writes (the cache, the bin terms, a copy of the parameters,
the stages' outputs and sums) are allocated before the fork.  The caller
sums the bin terms.  The only (F, M, T) arrays a stage holds whole are
the cache's y~ and z^, and a run allocates them once: `iterate` is a
generator, so the E-step cache outlives each iteration and is written
over (freed, its pages went back to the OS and faulted in again): the y~
refresh over the y~ the W update read, and the likelihood's y~, z~
(scaled into z^) and s over the cache the M-step is done with.  Every
update is an exact maximizer or a multiplicative step on the same
minorizing bound, so the trace is non-decreasing up to rounding;
violations beyond a 1e-8 relative slack are reported as warnings with
their iteration index, never swallowed, and a non-finite likelihood
raises ArithmeticError.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import warnings
from typing import Iterator

import numpy as np

from . import linalg, workers
from .model import (
    ModelParams,
    SeparationConfig,
    GsmVariant,
    compute_ytilde,
    floored_ytilde,
    init_params,
    normalize,
    source_psd,
    ytilde_bytes,
    ytilde_floor,
)
from .priors import inv_phi_from_s, log_marginal_from_s
from .workers import freq_blocks, map_blocks

MONOTONE_SLACK = 1e-8

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
             buffers: EStepCache | None = None, log_y_FT: np.ndarray | None = None,
             twin: _Twin | None = None):
    # (z~, y~, s) at params, and sum_m log y~ into log_y_FT if given; Q x and
    # the per-bin sums are formed one frequency block at a time, the sums
    # over m adding the block's contiguous rows of t.  z~, y~ and s are
    # written over the z^, y~ and E[1/phi] arrays of `buffers`, or of fresh ones
    n_freq, n_chan, n_frames = X_FMT.shape
    if buffers is None:
        buffers = EStepCache(np.empty(X_FMT.shape), np.empty((n_freq, n_frames)),
                             np.empty(X_FMT.shape))
    y_tilde = compute_ytilde(params, floor, buffers.y_tilde, twin)
    shared = params if twin is None else twin.share(params)
    map_blocks(functools.partial(_project_block, X_FMT, shared.Q, y_tilde, buffers.z_hat,
                                 buffers.inv_phi, log_y_FT),
               n_freq, 40 * n_frames * n_chan, twin=twin)
    return buffers.z_hat, y_tilde, buffers.inv_phi


def _project_block(X_FMT, Q_FMM, y_tilde, z_tilde, s_FT, log_y_FT, block) -> None:
    z_tilde[block] = np.abs(project_mixture(X_FMT[block], Q_FMM[block])) ** 2
    s_FT[block] = (z_tilde[block] / y_tilde[block]).sum(axis=1)
    if log_y_FT is not None:
        log_y_FT[block] = np.log(y_tilde[block]).sum(axis=1)


def _cache(z_tilde: np.ndarray, y_tilde: np.ndarray, inv_phi: np.ndarray,
           twin: _Twin | None = None) -> EStepCache:
    # z^ is formed in z~'s memory, which nothing else holds, block by block
    map_blocks(functools.partial(_scale_block, z_tilde, inv_phi), z_tilde.shape[0],
               8 * z_tilde.shape[2] * (z_tilde.shape[1] + 1), twin=twin)
    return EStepCache(y_tilde, inv_phi, z_tilde)


def _scale_block(z_tilde, inv_phi, block) -> None:
    z_tilde[block] *= inv_phi[block, None]


def e_step(X_FMT: np.ndarray, params: ModelParams, variant: GsmVariant,
           floor: float, cache: EStepCache | None = None,
           buffers: EStepCache | None = None, twin: _Twin | None = None) -> EStepCache:
    """Posterior E[1/phi] and z^ at params, with y~ floored at `floor`
    (a run's is the mixture's `model.ytilde_floor`).

    `cache`, when given, must be the one `log_likelihood` returned for the
    same (X_FMT, params, floor); it is returned as it is.  Otherwise the
    new cache is written into the arrays of `buffers`, when given, as in
    `log_likelihood`, which with `twin` must be `twin.cache`.
    """
    expected = (params.n_freq, params.n_channels, params.n_frames)
    if X_FMT.shape != expected:
        raise ValueError(f"mixture shape {X_FMT.shape} inconsistent with params {expected}")
    if cache is None:
        z_tilde, y_tilde, s = _project(X_FMT, params, floor, buffers, None, twin)
        # E[1/phi] is written over s, and the unused log marginal over zeros
        zeros = _zeroed(s.shape, None if twin is None else twin.bin_terms)
        cache = _cache(z_tilde, y_tilde, inv_phi_from_s(
            s, params.n_channels, variant, zeros, twin), twin)
    return cache


def _mu_weights(params: ModelParams, cache: EStepCache, floor: float | None,
                block: slice, lambda_BNT: np.ndarray | None = None) -> tuple:
    # (y~^-2 z^, y~^-1) on a block of the W, H and G~ updates, with y~ the
    # cache's or, given floor, formed at params (from the block's lambda,
    # if given); y~^-2 z^ is z^ R R with R = y~^-1, as y~^2 itself would
    # leave float64 for y~ beyond 2^+-512
    if floor is None:
        y_BMT = cache.y_tilde[block]
    else:
        if lambda_BNT is None:
            lambda_BNT = source_psd(params, block).transpose(1, 0, 2)
        y_BMT = floored_ytilde(params, lambda_BNT, floor)
    R_BMT = 1.0 / y_BMT
    return cache.z_hat[block] * R_BMT * R_BMT, R_BMT


def _ratio_parts(params: ModelParams, cache: EStepCache, floor: float | None,
                 block: slice) -> tuple:
    # the (B, N, T) weights of the W and H updates: tmp1 carries y~^-2 z^,
    # tmp2 y~^-1, each contracted over m with G~
    P_BMT, R_BMT = _mu_weights(params, cache, floor, block)
    return np.matmul(params.Gtilde, P_BMT), np.matmul(params.Gtilde, R_BMT)


def _zeroed(shape: tuple, shared: np.ndarray | None) -> np.ndarray:
    # a sum's zeros: in `shared` (the twin's array of that shape), or fresh
    if shared is None:
        return np.zeros(shape)
    shared.fill(0.0)
    return shared


def update_w(params: ModelParams, cache: EStepCache,
             twin: _Twin | None = None) -> ModelParams:
    """w <- w sqrt(sum_tm h g~ y~^-2 z^ / sum_tm h g~ y~^-1)."""
    if twin is None:
        shared, W_NKF = params, np.empty_like(params.W)
    else:
        shared, W_NKF = twin.share(params), twin.W_out
    map_blocks(functools.partial(_w_block, shared, cache, W_NKF), params.n_freq,
               ytilde_bytes(params), twin=twin)
    return dataclasses.replace(params, W=W_NKF if twin is None else W_NKF.copy())


def _w_block(params: ModelParams, cache: EStepCache, W_NKF: np.ndarray, block: slice) -> None:
    tmp1_BNT, tmp2_BNT = _ratio_parts(params, cache, None, block)
    numerator = np.matmul(params.H, tmp1_BNT.transpose(1, 2, 0))
    denominator = np.matmul(params.H, tmp2_BNT.transpose(1, 2, 0))
    W_NKF[:, :, block] = params.W[:, :, block] * np.sqrt(
        numerator / np.maximum(denominator, _DEN_TINY))


def update_h(params: ModelParams, cache: EStepCache, floor: float | None = None,
             twin: _Twin | None = None) -> ModelParams:
    """h <- h sqrt(sum_fm w g~ y~^-2 z^ / sum_fm w g~ y~^-1).

    y~ is the cache's or, given `floor`, formed block by block at params
    and floored there, as `compute_ytilde(params, floor)` would: `iterate`
    passes it, so the W update's y~ needs no refresh.
    """
    sums = _zeroed((2,) + params.H.shape, None if twin is None else twin.h_sums)
    shared = params if twin is None else twin.share(params)
    map_blocks(functools.partial(_h_block, shared, cache, floor), params.n_freq,
               ytilde_bytes(params), functools.partial(operator.iadd, sums), twin)
    H_NKT = params.H * np.sqrt(sums[0] / np.maximum(sums[1], _DEN_TINY))
    return dataclasses.replace(params, H=H_NKT)


def _h_block(params: ModelParams, cache: EStepCache, floor: float | None,
             block: slice) -> np.ndarray:
    tmp1_BNT, tmp2_BNT = _ratio_parts(params, cache, floor, block)
    part = np.empty((2,) + params.H.shape)  # numerator, denominator
    np.matmul(params.W[:, :, block], tmp1_BNT.transpose(1, 0, 2), out=part[0])
    np.matmul(params.W[:, :, block], tmp2_BNT.transpose(1, 0, 2), out=part[1])
    return part


def update_g(params: ModelParams, cache: EStepCache, floor: float | None = None,
             twin: _Twin | None = None) -> ModelParams:
    """g~ <- g~ sqrt(sum_ft lambda y~^-2 z^ / sum_ft lambda y~^-1).

    y~ is read or formed as in `update_h`, from the same lambda as the
    sums.  `iterate` does not call it under the rank-1 constraint, where
    G~ stays the identity `init_params` gave it.
    """
    sums = _zeroed((2,) + params.Gtilde.shape, None if twin is None else twin.g_sums)
    shared = params if twin is None else twin.share(params)
    map_blocks(functools.partial(_g_block, shared, cache, floor), params.n_freq,
               ytilde_bytes(params), functools.partial(operator.iadd, sums), twin)
    G_NM = params.Gtilde * np.sqrt(sums[0] / np.maximum(sums[1], _DEN_TINY))
    return dataclasses.replace(params, Gtilde=G_NM)


def _g_block(params: ModelParams, cache: EStepCache, floor: float | None,
             block: slice) -> np.ndarray:
    # the block's (2, N, M) numerator and denominator terms, summed over b
    lambda_BNT = source_psd(params, block).transpose(1, 0, 2)
    P_BMT, R_BMT = _mu_weights(params, cache, floor, block, lambda_BNT)
    return np.stack([np.matmul(lambda_BNT, P_BMT.transpose(0, 2, 1)).sum(axis=0),
                     np.matmul(lambda_BNT, R_BMT.transpose(0, 2, 1)).sum(axis=0)])


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
    the run's `ytilde_floor` from trace G, which refuses an overflow."""
    gram = _unpack_hermitian(gram_P)
    power = gram.diagonal().real
    floor = ytilde_floor(power.sum(), n_bins * len(power))
    problems = [f"channel {i + 1} is silent" for i in np.nonzero(power == 0)[0]]
    live = np.nonzero(power)[0]
    root = np.sqrt(power[live])  # one root at a time: G_ii G_jj can under/overflow
    values, vectors = np.linalg.eigh(gram[np.ix_(live, live)] / root[:, None] / root)
    weight = np.sum(np.abs(vectors[:, values <= _RANK_TOL]) ** 2, axis=1)
    if named := [str(i + 1) for i in live[weight > _RANK_TOL]]:
        problems.append(f"channels {', '.join(named[:-1])} and {named[-1]} are linearly dependent")
    if problems:
        raise ChannelLayoutError("mixture channel layout: " + "; ".join(problems))
    return floor


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

    With `twin`, the `_Twin` forked for S_FPT and holding this cache, the
    frequencies from twin.q_start = F // 2 on are swept in the twin while
    the caller sweeps those below.  Every frequency's arithmetic is the
    same, so the bits are too, and the warnings are those of the whole sweep.
    """
    Q_FMM = params.Q.copy()
    if twin is None:
        kept = _project_rows(Q_FMM, S_FPT, cache)
    else:
        below, upper = slice(0, twin.q_start), slice(twin.q_start, None)
        twin.q_rows[...] = Q_FMM[upper]
        kept, twin_kept = twin.beside(
            lambda: _project_rows(Q_FMM[below], S_FPT[below], _rows(cache, below)),
            "_call", _project_rows, twin.q_rows, S_FPT[upper], _rows(cache, upper))
        Q_FMM[upper] = twin.q_rows
        for kind, rows_f in twin_kept.items():
            kept[kind].extend(f + twin.q_start for f in rows_f)
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


def _rows(cache: EStepCache, freqs: slice) -> EStepCache:
    return EStepCache(cache.y_tilde[freqs], cache.inv_phi[freqs], cache.z_hat[freqs])


class _Twin(workers.Twin):
    """The `workers.Twin` of one run, with the arrays it writes allocated
    before the fork: the E-step cache (`cache`), the (F, T) bin terms, a
    copy of W, H, Q and G~ (`share`), the W update's output, the H and G~
    sums and `update_q`'s rows from q_start = F // 2 on."""

    def __init__(self, X_FMT: np.ndarray, S_FPT: np.ndarray, params: ModelParams):
        n_freq, n_chan, n_frames = X_FMT.shape
        empty = workers.shared_empty
        self.cache = EStepCache(empty(X_FMT.shape), empty((n_freq, n_frames)), empty(X_FMT.shape))
        self.bin_terms = empty((n_freq, n_frames))
        self._slots = ModelParams(*(empty(array.shape, array.dtype) for array in (
            params.W, params.H, params.Q, params.Gtilde)))
        self._copied = {}  # slot name -> the array it holds a copy of
        self.W_out = empty(params.W.shape)
        self.h_sums = empty((2,) + params.H.shape)
        self.g_sums = empty((2,) + params.Gtilde.shape)
        self.q_start = n_freq // 2
        self.q_rows = empty((n_freq - self.q_start, n_chan, n_chan), np.complex128)
        super().__init__([X_FMT, S_FPT, self.cache, self.bin_terms, self._slots, self.W_out,
                          self.h_sums, self.g_sums, self.q_rows])

    def share(self, params: ModelParams) -> ModelParams:
        """params with W, H, Q and G~ in the twin's memory: each array is
        copied there unless it is the one copied last."""
        for field in dataclasses.fields(params):
            array = getattr(params, field.name)
            if self._copied.get(field.name) is not array:
                getattr(self._slots, field.name)[...] = array
                self._copied[field.name] = array
        return self._slots


def log_likelihood(X_FMT: np.ndarray, params: ModelParams,
                   variant: GsmVariant, floor: float,
                   buffers: EStepCache | None = None,
                   twin: _Twin | None = None) -> tuple[float, EStepCache]:
    """Marginal log-likelihood sum_ft log p(z_ft) + T sum_f log|Q_f Q_f^H|,
    and the E-step cache at the same parameters, with y~ floored at
    `floor` as in `e_step`.

    The cache equals, bit for bit, a fresh `e_step(X_FMT, params, variant,
    floor)`: its E[1/phi] comes from the same `log_marginal_from_s` pass
    as the marginal.  `buffers`, when given, is a cache of the same shape
    that nothing reads any more: its arrays become the returned cache's
    (with `twin`, they must be `twin.cache`).  The bin terms are written
    over the sum_m log y~ array, so the call holds two (F, T) arrays,
    E[1/phi] and that one; the caller sums them all.
    """
    log_y = np.empty((params.n_freq, params.n_frames)) if twin is None else twin.bin_terms
    z_tilde, y_tilde, s = _project(X_FMT, params, floor, buffers, log_y, twin)
    bin_terms, inv_phi = log_marginal_from_s(s, params.n_channels, variant, log_y, twin)
    det_F = linalg.log_abs_det_gram(params.Q)
    value = float(bin_terms.sum() + params.n_frames * det_F.sum())
    return value, _cache(z_tilde, y_tilde, inv_phi, twin)


def iterate(X_FMT: np.ndarray, params: ModelParams,
            cfg: SeparationConfig) -> Iterator[tuple[ModelParams, float]]:
    """Run cfg.iterations MU-VEM iterations from params.

    Yields (params, log-likelihood) after each iteration.  Before the first,
    more than linalg.MAX_DIM channels raise ValueError, and silent or
    linearly dependent channels ChannelLayoutError; zero iterations solve no
    Q and check nothing.  y~ is floored at the mixture's `ytilde_floor`.
    Under cfg.rank1 the G~ update is skipped.  Where `workers.parallel()`,
    every per-bin stage shares its blocks with a `_Twin` process, reaped
    when the generator ends, raises or is closed.  A non-finite likelihood raises ArithmeticError naming
    its iteration; a decrease beyond the monotone slack warns.
    """
    previous = cache = S_FPT = buffers = twin = None
    if cfg.iterations > 0:
        linalg.as_square_stack(params.Q)  # the channel cap, before any work
        with np.errstate(over="ignore", invalid="ignore"):  # the guard refuses overflow
            S_FPT, gram_P = outer_products(X_FMT)  # update_q's statistics, the guard's Gram
            floor = check_channel_layout(gram_P, X_FMT.shape[0] * X_FMT.shape[2])
        if workers.parallel() and X_FMT.shape[0] >= 2:
            # the iterations share their blocks with a twin process, forked
            # before the run's private arrays exist
            try:
                twin = _Twin(X_FMT, S_FPT, params)
                buffers = twin.cache
            except OSError:  # no process could be forked: the same bits serially
                pass
    try:
        for iteration in range(cfg.iterations):
            # e_step opens and log_likelihood closes every iteration, both
            # looked up in this module's globals (as are inv_phi_from_s and
            # log_marginal_from_s): sepbench's tracer wraps them by name and
            # delimits iterations by these two calls
            cache = e_step(X_FMT, params, cfg.variant, floor, cache, buffers, twin)

            # the H and G~ updates form the y~ they read from their own
            # parameters; the one refresh writes over the y~ the W update
            # read, and the likelihood over the whole cache, once the
            # M-step is done with it
            params = update_w(params, cache, twin)
            params = update_h(params, cache, floor, twin)
            if not cfg.rank1:  # rank-1 keeps G~ at the identity
                params = update_g(params, cache, floor, twin)
            compute_ytilde(params, floor, cache.y_tilde, twin)
            params = update_q(params, S_FPT, cache, twin)

            params = normalize(params)
            ll, cache = log_likelihood(X_FMT, params, cfg.variant, floor, cache, twin)
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
