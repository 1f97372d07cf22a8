"""Synthetic multichannel scenes and end-to-end experiment runs.

Scenes are generated under the rank-1 anechoic assumption: each source
is modulated noise whose power concentrates in its own dominant band,
mapped to M channels by a frequency-dependent random unit-norm steering
vector in the STFT domain, and rendered back to the time domain.  The
stored mixture is the literal sample sum of the stored images (plus the
stored noise when configured), so decomposition tests can demand
exactness.

Two generation choices are load-bearing for identifiability.  Band
profiles decay to a shared floor through wide sigmoid flanks instead of
brick walls: every source stays weakly active at every frequency, which
ties the per-frequency channel assignments together (sources confined
to strictly disjoint bands leave the assignment free to permute
independently per frequency, and no joint estimator can resolve that).
Steering varies slowly across frequency, on a scale much coarser than
the analysis window's spectral leakage, so neighboring bins agree on
each source's spatial signature and the rank-1 structure survives the
synthesis/analysis round trip.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Optional

import numpy as np

from . import optimizer, wiener
from .audio_io import AudioBuffer
from .metrics import permutation_si_sdr
from .model import SeparationConfig, variant_to_dict
from .stft import StftConfig, stft_forward, stft_inverse

SCENE_SAMPLE_RATE = 16000
_PROFILE_FLOOR = 0.05
_PROFILE_SLOPE = 6.0
_PROFILE_MARGIN = 0.1
_POWER_FLOOR = 1e-4
_STEERING_COMPONENTS = 3


@dataclasses.dataclass(frozen=True)
class SyntheticScene:
    """mixture = sum of images (+ noise), sample-exact by construction.

    references hold the channel-1 image of each source; images hold the
    full M-channel renderings the mixture was summed from.
    """

    mixture: AudioBuffer
    references: list
    spec: dict
    images: list
    noise: Optional[np.ndarray] = None


def _spectral_profiles(n_sources: int, n_freq: int) -> np.ndarray:
    """(N, F) band-tilt power profiles with disjoint dominant bands.

    Source n peaks on the n-th of N equal slices of the frequency axis
    and decays through sigmoid flanks (slope scaled so the crossover
    width tracks the slice width) to a shared floor, never to zero.
    """
    fgrid = np.linspace(0.0, 1.0, n_freq)
    slope = _PROFILE_SLOPE * max(n_sources, 2)
    profiles = np.empty((n_sources, n_freq))
    for n in range(n_sources):
        lo = n / n_sources + _PROFILE_MARGIN / n_sources
        hi = (n + 1) / n_sources - _PROFILE_MARGIN / n_sources
        rise = np.ones(n_freq) if n == 0 \
            else 1.0 / (1.0 + np.exp(-slope * (fgrid - lo)))
        fall = np.ones(n_freq) if n == n_sources - 1 \
            else 1.0 / (1.0 + np.exp(slope * (fgrid - hi)))
        profiles[n] = rise * fall + _PROFILE_FLOOR
    return profiles


def _temporal_envelope(rng: np.random.Generator, n_frames: int) -> np.ndarray:
    """Deep raised-sine power envelope over frames, random rate and depth."""
    depth = rng.random()
    rate = rng.uniform(1.0, 8.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    tgrid = np.arange(n_frames) / n_frames
    return 0.05 + depth * (1.0 + np.sin(2.0 * np.pi * rate * tgrid + phase)) ** 2


def _smooth_random_steering(rng: np.random.Generator, n_freq: int,
                            n_mics: int) -> np.ndarray:
    """(F, M) unit-norm steering drawn as a slow random curve over frequency."""
    k = np.arange(_STEERING_COMPONENTS)
    coeff_KM = rng.standard_normal((_STEERING_COMPONENTS, n_mics)) \
        + 1j * rng.standard_normal((_STEERING_COMPONENTS, n_mics))
    coeff_KM /= (1.0 + k)[:, None]
    basis_FK = np.exp(2j * np.pi * np.outer(np.arange(n_freq), k) / (2 * n_freq))
    a_FM = basis_FK @ coeff_KM
    return a_FM / np.linalg.norm(a_FM, axis=1, keepdims=True)


def synth_scene(n_sources: int, n_mics: int, duration_s: float, seed: int,
                noise_snr_db: Optional[float] = None) -> SyntheticScene:
    """Random anechoic scene: x_nft = a_nf s_nft with unit-norm a_nf."""
    if not 1 <= n_sources <= n_mics <= 8:
        raise ValueError(
            f"need 1 <= n_sources <= n_mics <= 8,"
            f" got n_sources={n_sources}, n_mics={n_mics}"
        )
    if duration_s < 1.0:
        raise ValueError(f"duration must be >= 1 s, got {duration_s}")

    sample_rate = SCENE_SAMPLE_RATE
    rng = np.random.default_rng(seed)
    gen_cfg = StftConfig()
    # round up to the synthesis hop grid so the rendered images cover
    # every sample (no zero-filled tail from a partial final frame)
    raw = int(round(duration_s * sample_rate))
    n_samples = -(-raw // gen_cfg.hop) * gen_cfg.hop
    n_frames = (n_samples + 2 * gen_cfg.pad - gen_cfg.n_fft) // gen_cfg.hop + 1
    profiles_NF = _spectral_profiles(n_sources, gen_cfg.n_freq)

    steering_NFM = np.empty((n_sources, gen_cfg.n_freq, n_mics),
                            dtype=np.complex128)
    images = []
    for n in range(n_sources):
        envelope_T = _temporal_envelope(rng, n_frames)
        power_FT = np.outer(profiles_NF[n], envelope_T) + _POWER_FLOOR
        S_FT = np.sqrt(power_FT / 2.0) * (
            rng.standard_normal((gen_cfg.n_freq, n_frames))
            + 1j * rng.standard_normal((gen_cfg.n_freq, n_frames))
        )
        a_FM = _smooth_random_steering(rng, gen_cfg.n_freq, n_mics)
        steering_NFM[n] = a_FM

        image_FTM = a_FM[:, None, :] * S_FT[:, :, None]
        image_ML = stft_inverse(image_FTM, gen_cfg, n_samples)
        rms = float(np.sqrt(np.mean(image_ML**2)))
        if rms == 0.0:
            raise RuntimeError("degenerate draw produced a silent source")
        images.append(AudioBuffer(samples=image_ML / rms,
                                  sample_rate=sample_rate))

    clean_ML = np.zeros((n_mics, n_samples))
    for image in images:
        clean_ML = clean_ML + image.samples

    noise_ML = None
    mixture_ML = clean_ML
    if noise_snr_db is not None:
        clean_power = float(np.mean(clean_ML**2))
        target_power = clean_power * 10.0 ** (-noise_snr_db / 10.0)
        raw_ML = rng.standard_normal((n_mics, n_samples))
        raw_power = float(np.mean(raw_ML**2))
        noise_ML = raw_ML * np.sqrt(target_power / raw_power)
        mixture_ML = clean_ML + noise_ML

    references = [
        AudioBuffer(samples=image.samples[0:1].copy(), sample_rate=sample_rate)
        for image in images
    ]
    return SyntheticScene(
        mixture=AudioBuffer(samples=mixture_ML, sample_rate=sample_rate),
        references=references,
        spec={
            "n_sources": n_sources,
            "n_mics": n_mics,
            "steering": steering_NFM,
            "noise_snr_db": noise_snr_db,
        },
        images=images,
        noise=noise_ML,
    )


def config_to_dict(cfg: SeparationConfig, stft_cfg: StftConfig) -> dict:
    return {**dataclasses.asdict(cfg), "variant": variant_to_dict(cfg.variant),
            "stft": dataclasses.asdict(stft_cfg)}


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:12]


@dataclasses.dataclass(frozen=True)
class SeparationReport:
    """Machine-readable record of one experiment."""

    config: dict
    ll_trace: list
    per_source_metrics: list
    mean_si_sdr: float
    input_si_sdr: Optional[float]
    runtime_ms: float
    seed: int

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SeparationReport":
        return cls(**json.loads(text))


def separate_mixture(X_FTM: np.ndarray, cfg: SeparationConfig,
                     stft_cfg: StftConfig, n_samples: int) -> tuple[list, list]:
    """Optimize, then Wiener-separate and resynthesize one STFT mixture.

    Returns one (M, n_samples) image per source, loudest first, and the
    log-likelihood trace.
    """
    params, trace = optimizer.run(X_FTM, cfg)
    return wiener.separate(X_FTM, params, stft_cfg, n_samples), trace


def run_experiment(scene: SyntheticScene, cfg: SeparationConfig,
                   stft_cfg: StftConfig) -> SeparationReport:
    """STFT, separate_mixture, score.

    The model may carry more sources than the scene; the top scene-count
    sources by energy are scored.  Fewer model sources than references
    is an error.
    """
    n_refs = len(scene.references)
    if cfg.n_sources < n_refs:
        raise ValueError(
            f"model holds {cfg.n_sources} sources but the scene has"
            f" {n_refs} references"
        )
    started = time.perf_counter()
    X_FTM = stft_forward(scene.mixture.samples, stft_cfg)
    sources, trace = separate_mixture(X_FTM, cfg, stft_cfg,
                                      scene.mixture.n_frames)
    estimates = [source[0] for source in sources[:n_refs]]
    references = [ref.samples[0] for ref in scene.references]
    metrics = permutation_si_sdr(estimates, references,
                                 mixture=scene.mixture.samples[0])
    runtime_ms = (time.perf_counter() - started) * 1e3
    return SeparationReport(
        config=config_to_dict(cfg, stft_cfg),
        ll_trace=trace,
        per_source_metrics=list(metrics.per_source),
        mean_si_sdr=float(metrics.mean_si_sdr),
        input_si_sdr=metrics.input_si_sdr,
        runtime_ms=float(runtime_ms),
        seed=cfg.seed,
    )


def write_csv_summary(reports, path) -> None:
    """One row per report: config hash, headline knobs, scores, runtime."""
    import csv

    fields = ["config_hash", "model", "n_sources", "n_bases", "iterations",
              "seed", "mean_si_sdr", "input_si_sdr", "runtime_ms"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(fields)
        for report in reports:
            writer.writerow([
                config_hash(report.config),
                report.config["variant"]["model"],
                report.config["n_sources"],
                report.config["n_bases"],
                report.config["iterations"],
                report.seed,
                f"{report.mean_si_sdr:.4f}",
                "" if report.input_si_sdr is None
                else f"{report.input_si_sdr:.4f}",
                f"{report.runtime_ms:.1f}",
            ])
