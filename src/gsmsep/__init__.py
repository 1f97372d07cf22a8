"""Blind source separation with heavy-tailed jointly-diagonalizable
spatial covariance models.

The mixture spectrogram is modeled source-wise by NMF power spectra and
a jointly-diagonalizable spatial covariance whose per-bin scale follows
a Gaussian scale mixture: Gaussian, Student's t, leptokurtic
generalized-Gaussian, generalized-hyperbolic, or normal-inverse-Gaussian
tails, each with an optional rank-1 constraint.  Estimation runs
closed-form multiplicative updates plus iterative projection inside a
variational EM loop; reconstruction is the multichannel Wiener
conditional mean.
"""

from .audio_io import AudioBuffer, read_wav, write_wav
from .harness import (
    SeparationReport,
    SyntheticScene,
    run_experiment,
    synth_scene,
    write_csv_summary,
)
from .metrics import MetricReport, permutation_si_sdr, si_sdr
from .model import (
    GH,
    Gaussian,
    GsmVariant,
    LeptokurticGG,
    ModelParams,
    NIG,
    SeparationConfig,
    StudentT,
    init_params,
    normalize,
)
from .optimizer import ChannelLayoutError, EStepCache, iterate, log_likelihood, run
from .priors import log_bessel_k
from .stft import StftConfig, stft_forward, stft_inverse
from .wiener import separate, source_images

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "ChannelLayoutError",
    "EStepCache",
    "GH",
    "Gaussian",
    "GsmVariant",
    "LeptokurticGG",
    "MetricReport",
    "ModelParams",
    "NIG",
    "SeparationConfig",
    "SeparationReport",
    "StftConfig",
    "StudentT",
    "SyntheticScene",
    "init_params",
    "iterate",
    "log_bessel_k",
    "log_likelihood",
    "normalize",
    "permutation_si_sdr",
    "read_wav",
    "run",
    "run_experiment",
    "separate",
    "si_sdr",
    "source_images",
    "stft_forward",
    "stft_inverse",
    "synth_scene",
    "write_csv_summary",
    "write_wav",
]
