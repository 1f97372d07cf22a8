"""Parameters of the jointly-diagonalizable spatial mixing model.

An M-channel mixture spectrogram is explained by N sources.  Source n has
a low-rank power spectrogram lambda_nft = sum_k w_nkf h_nkt (K basis
spectra W against K activation rows H) and a nonnegative weight row
g~_nm that places its power in the M coordinates obtained by projecting
each frequency bin through the mixing matrix Q_f.  The source spatial
covariance at frequency f is then Q_f^-1 Diag(g~_n) Q_f^-H.  Spectrograms
and every per-bin array are channel-major, (F, M, T).

The per-bin scale of the whole mixture may additionally be perturbed by a
positive impulse variable; the prior placed on it is selected by the
GsmVariant value and gives the heavy-tailed members of the family.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from typing import Callable, ClassVar, Union, get_args

import numpy as np

from . import linalg
from .workers import map_blocks

# floor on y~, relative to the mixture's power (`ytilde_floor`)
DEFAULT_FLOOR = 1e-10

# starting G~ weight of a source at the channels it is not assigned to
GTILDE_INIT_OFF = 1e-2


# ---------------------------------------------------------------------------
# User-settable values, read by the constructors, CLI flags and bench grids.
# ---------------------------------------------------------------------------

# the values each Setting.kind takes (bool excepted)
_KINDS = {int: numbers.Integral, float: numbers.Real}


@dataclasses.dataclass(frozen=True)
class Setting:
    """One user-settable value: its type, default, range test, refusal and help."""

    kind: type
    default: object
    ok: Callable[[object], bool]
    requirement: str  # the refusal's words: "<name> <requirement>, got <value>"
    help: str

    def check(self, name: str, value):
        """value, or ValueError if not of `kind` or out of range; None passes
        where it is the default.  A bool is neither int nor float, numpy
        integers are ints, and ints are floats."""
        if value is None and self.default is None:
            return value
        if isinstance(value, bool) or not isinstance(value, _KINDS[self.kind]):
            raise ValueError(f"{name} must be {self.kind.__name__}, got {value!r}")
        if self.ok(value):
            return value
        raise ValueError(f"{name} {self.requirement}, got {value}")


_AT_LEAST_0 = (lambda value: value >= 0, "must be >= 0")
_AT_LEAST_1 = (lambda value: value >= 1, "must be >= 1")
_POSITIVE = (lambda value: math.isfinite(value) and value > 0, "must be > 0 and finite")
_FINITE = (math.isfinite, "must be finite")

SETTINGS = {
    # run settings: SeparationConfig's fields
    "n_sources": Setting(int, 2, *_AT_LEAST_1, "number of sources"),
    "n_bases": Setting(int, 8, *_AT_LEAST_1, "NMF bases per source"),
    "iterations": Setting(int, 300, *_AT_LEAST_0, "optimizer iterations"),
    "seed": Setting(int, 0, *_AT_LEAST_0, "RNG seed"),
    # tail parameters: the variants' fields
    "nu": Setting(float, 40.0, *_POSITIVE, "t-distribution degrees of freedom"),
    "beta": Setting(float, 1.0, lambda value: 0 < value <= 2, "must lie in (0, 2]",
                    "generalized-Gaussian shape in (0, 2]"),
    "gamma": Setting(float, -0.5, *_FINITE, "generalized-hyperbolic index"),
    "rho": Setting(float, 15.0, *_POSITIVE, "tail sharpness"),
    "eta": Setting(float, 1.0, *_POSITIVE, "tail scale"),
    # scene settings: harness.check_scene's per-field values
    "n_mics": Setting(int, 2, lambda value: 1 <= value <= linalg.MAX_DIM,
                      f"must be in [1, {linalg.MAX_DIM}]", "microphones"),
    "duration_s": Setting(float, 3.0, lambda value: math.isfinite(value) and value >= 1,
                          "must be >= 1 and finite", "seconds"),
    "noise_snr_db": Setting(float, None, *_FINITE,
                            "clean-to-noise power ratio in dB (default: no noise)"),
    # `gsmsep bench --workers`
    "workers": Setting(int, 1, *_AT_LEAST_1, "parallel experiment processes"),
}


class _Checked:
    """A dataclass base: __post_init__ checks the init fields SETTINGS names."""

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            if field.init and field.name in SETTINGS:
                SETTINGS[field.name].check(field.name, getattr(self, field.name))


# ---------------------------------------------------------------------------
# Bin-density variants (the impulse prior selects the family member).
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Gaussian:
    """Degenerate impulse prior (phi == 1): plain Gaussian bins."""

    name: ClassVar[str] = "gaussian"


@dataclasses.dataclass(frozen=True)
class StudentT(_Checked):
    """Inverse-gamma impulse prior with shape = scale = nu / 2."""

    name: ClassVar[str] = "t"
    nu: float


@dataclasses.dataclass(frozen=True)
class LeptokurticGG(_Checked):
    """Heavy-tailed generalized Gaussian bins, shape beta in (0, 2]."""

    name: ClassVar[str] = "gg"
    beta: float


@dataclasses.dataclass(frozen=True)
class GH(_Checked):
    """Generalized-inverse-Gaussian impulse prior GIG(gamma, rho, eta)."""

    name: ClassVar[str] = "gh"
    gamma: float
    rho: float
    eta: float


@dataclasses.dataclass(frozen=True)
class NIG(GH):
    """Normal-inverse-Gaussian bins: GH with gamma fixed at -1/2.

    It is a GH and runs GH's checks and statistics.  Every Bessel order
    it needs is half-integer, so the ladder starts from the elementary
    K_{1/2}(x) = sqrt(pi / (2x)) e^-x; that start is chosen by the
    order's value, not by the class, and GH with a half-integer gamma
    takes it too.  gamma is not a constructor argument, nor part of the
    repr or the serialized form.
    """

    name: ClassVar[str] = "nig"
    gamma: float = dataclasses.field(default=-0.5, init=False, repr=False)


GsmVariant = Union[Gaussian, StudentT, LeptokurticGG, GH, NIG]

VARIANTS = {cls.name: cls for cls in get_args(GsmVariant)}


def variant_to_dict(variant: GsmVariant) -> dict:
    """{"model": name, **init fields}: the form used by reports and grids."""
    return {"model": variant.name, **{field.name: getattr(variant, field.name)
            for field in dataclasses.fields(variant) if field.init}}


def variant_from_dict(payload: dict) -> GsmVariant:
    """Inverse of variant_to_dict; keys other than the variant's fields are
    ignored, and a missing field raises KeyError."""
    name = payload.get("model")
    if name not in VARIANTS:
        raise ValueError(f"unknown model name {name!r}")
    cls = VARIANTS[name]
    return cls(**{field.name: payload[field.name]
                  for field in dataclasses.fields(cls) if field.init})


# ---------------------------------------------------------------------------
# Run configuration.
# ---------------------------------------------------------------------------

def power_scale(total: float, n_values: int) -> float:
    """total / n_values rounded to the nearest power of two: a run on 2^k X
    is then the run on X with every power scaled by 4^k, bit for bit.  A
    NaN or infinite mean, from non-finite bins or an overflowing sum, is
    refused here, before any work."""
    mean = total / n_values
    if not math.isfinite(mean):
        raise ValueError("non-finite mixture, or mixture power overflows float64"
                         f" (mean bin power {mean})")
    mantissa, exponent = math.frexp(mean)
    return math.ldexp(round(2.0 * mantissa), exponent - 1)


def ytilde_floor(total: float, n_values: int) -> float:
    """A run's floor on the model variances y~: DEFAULT_FLOOR times the
    `power_scale` of a mixture whose n_values bins hold `total` power.  The
    Wiener filter gives the bins it floors the uniform gain."""
    return DEFAULT_FLOOR * power_scale(total, n_values)


@dataclasses.dataclass(frozen=True)
class SeparationConfig(_Checked):
    n_sources: int
    n_bases: int
    iterations: int
    variant: GsmVariant = Gaussian()
    rank1: bool = False
    seed: int = SETTINGS["seed"].default


class DegenerateParameterError(ValueError):
    """A normalization divisor collapsed to zero."""


# ---------------------------------------------------------------------------
# Parameter container.
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ModelParams:
    """W: (N, K, F) and H: (N, K, T) nonnegative, Q: (F, M, M) complex,
    Gtilde: (N, M) nonnegative."""

    W: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    Gtilde: np.ndarray

    def __post_init__(self) -> None:
        if self.W.ndim != 3 or self.H.ndim != 3 or self.Q.ndim != 3 or self.Gtilde.ndim != 2:
            raise ValueError("W, H, Q must be 3-D and Gtilde 2-D")
        n, k, f = self.W.shape
        if self.H.shape[:2] != (n, k):
            raise ValueError(f"H shape {self.H.shape} inconsistent with W {self.W.shape}")
        m = self.Gtilde.shape[1]
        if self.Gtilde.shape[0] != n:
            raise ValueError(f"Gtilde shape {self.Gtilde.shape} inconsistent with N={n}")
        if self.Q.shape != (f, m, m):
            raise ValueError(f"Q shape {self.Q.shape}, expected {(f, m, m)}")

    @property
    def n_sources(self) -> int:
        return self.W.shape[0]

    @property
    def n_bases(self) -> int:
        return self.W.shape[1]

    @property
    def n_freq(self) -> int:
        return self.W.shape[2]

    @property
    def n_frames(self) -> int:
        return self.H.shape[2]

    @property
    def n_channels(self) -> int:
        return self.Gtilde.shape[1]


def init_params(cfg: SeparationConfig, X_FMT: np.ndarray) -> ModelParams:
    """Seeded starting point for the optimizer on the (F, M, T) mixture,
    refused before any allocation above linalg.MAX_DIM channels.

    W and H are |standard normal| draws from numpy's PCG64 generator
    seeded with cfg.seed (W first, times the mixture's `power_scale`, then
    H).  Q_f starts at the identity.  Gtilde row n has weight 1 at the
    channels m with m mod N == n and GTILDE_INIT_OFF elsewhere, so sources
    n >= M start at GTILDE_INIT_OFF on every channel; under the rank-1
    constraint (N == M) it is frozen to the exact identity instead.
    """
    n, k, (n_freq, m, n_frames) = cfg.n_sources, cfg.n_bases, X_FMT.shape
    if m > linalg.MAX_DIM:
        raise ValueError(f"{m} channels in {X_FMT.shape}, over {linalg.MAX_DIM}: is it (F, M, T)?")
    if cfg.rank1 and n != m:
        raise ValueError(
            f"rank-1 spatial model: rank1 needs as many sources as channels,"
            f" got N={n}, M={m}"
        )
    total = np.vdot(X_FMT, X_FMT).real
    rng = np.random.default_rng(cfg.seed)
    W_NKF = power_scale(total, X_FMT.size) * np.abs(rng.standard_normal((n, k, n_freq)))
    H_NKT = np.abs(rng.standard_normal((n, k, n_frames)))
    Q_FMM = np.tile(np.eye(m, dtype=np.complex128), (n_freq, 1, 1))
    G_NM = np.full((n, m), 0.0 if cfg.rank1 else GTILDE_INIT_OFF)
    for col in range(m):
        G_NM[col % n, col] = 1.0
    return ModelParams(W=W_NKF, H=H_NKT, Q=Q_FMM, Gtilde=G_NM)


def normalize(params: ModelParams) -> ModelParams:
    """Rescale the three scale ambiguities out of the parameters.

    Order matters: first the mixing-matrix scale r_f = M Tr(Q_f Q_f^H)
    moves into W, then the per-source channel weight sum u_n, then the
    per-basis spectrum sum v_nk moves into H.  The marginal likelihood is
    invariant under all three.
    """
    W_NKF = params.W.copy()
    H_NKT = params.H.copy()
    Q_FMM = params.Q.copy()
    G_NM = params.Gtilde.copy()
    m = G_NM.shape[1]

    r_F = m * np.einsum("fij,fij->f", Q_FMM, Q_FMM.conj()).real
    if np.any(r_F <= 0):
        raise DegenerateParameterError(
            f"zero mixing-matrix scale at frequency {int(np.argmin(r_F))}"
        )
    Q_FMM /= np.sqrt(r_F)[:, None, None]
    W_NKF /= r_F[None, None, :]

    u_N = G_NM.sum(axis=1)
    if np.any(u_N <= 0):
        raise DegenerateParameterError(
            f"zero channel-weight sum for source {int(np.argmin(u_N))}"
        )
    G_NM /= u_N[:, None]
    W_NKF *= u_N[:, None, None]

    v_NK = W_NKF.sum(axis=2)
    if np.any(v_NK <= 0):
        bad = np.unravel_index(int(np.argmin(v_NK)), v_NK.shape)
        raise DegenerateParameterError(f"zero basis-spectrum sum at (n, k) = {bad}")
    W_NKF /= v_NK[:, :, None]
    H_NKT *= v_NK[:, :, None]

    return ModelParams(W=W_NKF, H=H_NKT, Q=Q_FMM, Gtilde=G_NM)


def source_psd(params: ModelParams, freqs: slice = slice(None),
               sources: slice = slice(None)) -> np.ndarray:
    """lambda_NFT = sum_k w_nkf h_nkt, at the frequencies `freqs` of the
    sources `sources`."""
    return np.matmul(params.W[sources, :, freqs].transpose(0, 2, 1),
                     params.H[sources])


def floored_ytilde(params: ModelParams, lambda_BNT: np.ndarray, floor: float,
                   out: np.ndarray | None = None) -> np.ndarray:
    """y~_BMT = sum_n g~_nm lambda_nbt floored at `floor`, from the (B, N, T)
    lambda of a frequency block: the one formula of every y~."""
    return np.maximum(np.matmul(params.Gtilde.T, lambda_BNT), floor, out=out)


def _ytilde_block(params: ModelParams, floor: float, y_FMT: np.ndarray, block: slice) -> None:
    floored_ytilde(params, source_psd(params, block).transpose(1, 0, 2), floor, out=y_FMT[block])


def ytilde_bytes(params: ModelParams) -> int:
    """Bytes per frequency of a block that forms y~ and its reciprocals."""
    return 8 * params.n_frames * (params.n_sources + params.n_channels)


def compute_ytilde(params: ModelParams, floor: float,
                   out: np.ndarray | None = None, twin=None) -> np.ndarray:
    """y~_FMT = sum_n g~_nm lambda_nft, floored elementwise at `floor`;
    written into `out` (an (F, M, T) float64 array) when it is given, which
    with `twin` must be in the twin's memory (`map_blocks`)."""
    if floor <= 0:
        raise ValueError(f"floor must be > 0, got {floor}")
    y_FMT = np.empty((params.n_freq, params.n_channels, params.n_frames)) if out is None else out
    shared = params if twin is None else twin.share(params)
    map_blocks(functools.partial(_ytilde_block, shared, floor, y_FMT), params.n_freq,
               ytilde_bytes(params), twin=twin)
    return y_FMT
