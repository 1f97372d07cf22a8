"""Parameters of the jointly-diagonalizable spatial mixing model.

An M-channel mixture spectrogram is explained by N sources.  Source n has
a low-rank power spectrogram lambda_nft = sum_k w_nkf h_nkt (K basis
spectra W against K activation rows H) and a nonnegative weight row
g~_nm that places its power in the M coordinates obtained by projecting
each frequency bin through the mixing matrix Q_f.  The source spatial
covariance at frequency f is then Q_f^-1 Diag(g~_n) Q_f^-H.

The per-bin scale of the whole mixture may additionally be perturbed by a
positive impulse variable; the prior placed on it is selected by the
GsmVariant value and gives the heavy-tailed members of the family.
"""

from __future__ import annotations

import dataclasses
import math
from typing import ClassVar, Union, get_args

import numpy as np


# ---------------------------------------------------------------------------
# Bin-density variants (the impulse prior selects the family member).
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Gaussian:
    """Degenerate impulse prior (phi == 1): plain Gaussian bins."""

    name: ClassVar[str] = "gaussian"


@dataclasses.dataclass(frozen=True)
class StudentT:
    """Inverse-gamma impulse prior with shape = scale = nu / 2."""

    name: ClassVar[str] = "t"
    nu: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"nu must be finite and > 0, got {self.nu}")


@dataclasses.dataclass(frozen=True)
class LeptokurticGG:
    """Heavy-tailed generalized Gaussian bins, shape beta in (0, 2]."""

    name: ClassVar[str] = "gg"
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and 0 < self.beta <= 2):
            raise ValueError(f"beta must lie in (0, 2], got {self.beta}")


@dataclasses.dataclass(frozen=True)
class GH:
    """Generalized-inverse-Gaussian impulse prior GIG(gamma, rho, eta)."""

    name: ClassVar[str] = "gh"
    gamma: float
    rho: float
    eta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be finite and > 0, got {self.rho}")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")


@dataclasses.dataclass(frozen=True)
class NIG:
    """Normal-inverse-Gaussian bins: the GH sub-family with gamma = -1/2.

    Every Bessel order in its statistics is half-integer, so they take
    the closed-form fast path; that path is chosen by the order's value,
    not by the class, and GH with a half-integer gamma takes it too.  The
    index is a class constant, so it is neither a constructor argument nor
    part of the serialized form.
    """

    name: ClassVar[str] = "nig"
    gamma: ClassVar[float] = -0.5
    rho: float
    eta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be finite and > 0, got {self.rho}")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")


GsmVariant = Union[Gaussian, StudentT, LeptokurticGG, GH, NIG]

VARIANTS = {cls.name: cls for cls in get_args(GsmVariant)}


def variant_to_dict(variant: GsmVariant) -> dict:
    """{"model": name, **fields}: the form used by reports and bench grids."""
    return {"model": variant.name, **dataclasses.asdict(variant)}


def variant_from_dict(payload: dict) -> GsmVariant:
    """Inverse of variant_to_dict; keys other than the variant's fields are
    ignored, and a missing field raises KeyError."""
    name = payload.get("model")
    if name not in VARIANTS:
        raise ValueError(f"unknown model name {name!r}")
    cls = VARIANTS[name]
    return cls(**{field.name: payload[field.name]
                  for field in dataclasses.fields(cls)})


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
# Run configuration.
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SeparationConfig:
    n_sources: int
    n_bases: int
    iterations: int
    variant: GsmVariant = Gaussian()
    rank1: bool = False
    eps_init: float = 1e-2
    floor: float = 1e-10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sources < 1:
            raise ValueError(f"n_sources must be >= 1, got {self.n_sources}")
        if self.n_bases < 1:
            raise ValueError(f"n_bases must be >= 1, got {self.n_bases}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if not (math.isfinite(self.eps_init) and self.eps_init >= 0):
            raise ValueError(f"eps_init must be >= 0, got {self.eps_init}")
        if not (math.isfinite(self.floor) and self.floor > 0):
            raise ValueError(f"floor must be > 0, got {self.floor}")


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


def init_params(cfg: SeparationConfig, n_freq: int, n_frames: int,
                n_channels: int) -> ModelParams:
    """Seeded starting point for the optimizer.

    W and H are |standard normal| draws from numpy's PCG64 generator
    seeded with cfg.seed (W is drawn first, then H).  Q_f starts at the
    identity.  Gtilde row n has weight 1 at the channels m with
    m mod N == n and cfg.eps_init elsewhere; under the rank-1 constraint
    (N == M) it is frozen to the exact identity instead.
    """
    n, k, m = cfg.n_sources, cfg.n_bases, n_channels
    if cfg.rank1 and n != m:
        raise ValueError(
            f"rank-1 spatial model: rank1 needs as many sources as channels,"
            f" got N={n}, M={m}"
        )
    if n > m:
        raise ValueError(f"underdetermined model not supported: N={n} > M={m}")
    rng = np.random.default_rng(cfg.seed)
    W_NKF = np.abs(rng.standard_normal((n, k, n_freq)))
    H_NKT = np.abs(rng.standard_normal((n, k, n_frames)))
    Q_FMM = np.tile(np.eye(m, dtype=np.complex128), (n_freq, 1, 1))
    eps = 0.0 if cfg.rank1 else cfg.eps_init
    G_NM = np.full((n, m), eps)
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


def source_psd(params: ModelParams) -> np.ndarray:
    """lambda_NFT = sum_k w_nkf h_nkt."""
    return np.matmul(params.W.transpose(0, 2, 1), params.H)


def compute_ytilde(params: ModelParams, floor: float) -> np.ndarray:
    """y~_FTM = sum_n lambda_nft g~_nm, floored elementwise at `floor`."""
    if floor <= 0:
        raise ValueError(f"floor must be > 0, got {floor}")
    y_FTM = np.tensordot(source_psd(params), params.Gtilde, axes=([0], [0]))
    return np.maximum(y_FTM, floor)
