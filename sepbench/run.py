"""End-to-end benchmark of `gsmsep separate` on seeded synthetic scenes.

Run from the repository root:

    python3 sepbench/run.py --workload stereo-nig --seed 0 --seconds 30 --trace 0

Each run synthesizes the workload's scene from --seed, writes the mixture
WAV, and then times repeated in-process ``gsmsep.cli.main(["separate",
...])`` calls for --seconds, so the program sees only the WAV.  Every call
is checked outside the timed interval.  With --trace 1 the calls
alternate between untraced and traced ones; the traced calls give the
per-module split.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  ``--workload all`` runs
every workload in its own process and prints a table.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import io
import json
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"

if not (SRC / "gsmsep" / "__init__.py").is_file():
    sys.exit(f"sepbench: no gsmsep sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np
import scipy

import gsmsep
from gsmsep import cli, linalg, optimizer, wiener
from gsmsep.audio_io import read_wav, write_wav
from gsmsep.harness import synth_scene
from gsmsep.metrics import permutation_si_sdr
from gsmsep.stft import StftConfig

from tracer import Tracer

if pathlib.Path(gsmsep.__file__).resolve().parent != SRC / "gsmsep":
    sys.exit(f"sepbench: imported gsmsep from {gsmsep.__file__}, not {SRC}")

MONOTONE_SLACK = 1e-8  # the optimizer's own relative slack
MIN_CALLS = 2
SETUP_ROUNDS = 3
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import gsmsep.cli"
CAL_SHAPE = (513, 191, 4)
CAL_REPS = 16
CAL_NOMINAL_S = 0.2  # the kernel's median time on the reference machine


@dataclasses.dataclass(frozen=True)
class Workload:
    n_sources: int  # also the channel count
    duration_s: float
    bases: int
    iterations: int
    model_args: tuple


WORKLOADS = {
    # the default user: cache-resident arrays, half-integer Bessel work in
    # the E-step and likelihood dominates
    "stereo-nig": Workload(
        2, 3.0, 8, 100, ("--model", "nig", "--rho", "15", "--eta", "1")),
    # update_q and the compensated quadratic form dominate; generic-order
    # Bessel, so it bypasses the NIG half-integer path
    "octo-gh": Workload(
        8, 3.0, 16, 10,
        ("--model", "gh", "--gamma", "-2", "--rho", "15", "--eta", "1")),
    # arrays far beyond cache and no Bessel work; STFT, Wiener and WAV I/O
    # take their largest share
    "quad-long-t": Workload(4, 30.0, 8, 5, ("--model", "t", "--nu", "40")),
}

END_TO_END_UNITS = {
    "audio_s_per_s": "s/s",
    "nll_per_bin": "nats",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (module, attribute the caller looks up, span name)
PROBES = [
    (cli, "main", "cli"),
    (cli, "read_wav", "audio_io.read"),
    (cli, "write_wav", "audio_io.write"),
    (cli, "stft_forward", "stft.forward"),
    (optimizer, "init_params", "model.init_params"),
    (optimizer, "e_step", "optimizer.e_step"),
    (optimizer, "inv_phi_from_s", "priors.inv_phi"),
    (optimizer, "compute_ytilde", "model.compute_ytilde"),
    (optimizer, "update_w", "optimizer.update_w"),
    (optimizer, "update_h", "optimizer.update_h"),
    (optimizer, "update_g", "optimizer.update_g"),
    (optimizer, "update_q", "optimizer.update_q"),
    (linalg, "compensated_quadratic_form", "linalg.compensated_qf"),
    (optimizer, "normalize", "model.normalize"),
    (optimizer, "log_likelihood", "optimizer.log_likelihood"),
    (optimizer, "log_marginal_from_s", "priors.log_marginal"),
    (linalg, "log_abs_det_gram", "linalg.log_abs_det_gram"),
    (wiener, "separate", "wiener.separate"),
    (linalg, "invert", "linalg.invert"),
    (wiener, "stft_inverse", "stft.inverse"),
]

# span name -> per-layer metric of its self time, in median ms per iteration
PER_ITERATION = {
    "priors.inv_phi": "priors.inv_phi_ms",
    "priors.log_marginal": "priors.log_marginal_ms",
    "optimizer.e_step": "optimizer.e_step_self_ms",
    "optimizer.log_likelihood": "optimizer.log_likelihood_self_ms",
    "optimizer.update_q": "optimizer.update_q_self_ms",
    "linalg.compensated_qf": "linalg.compensated_qf_ms",
    "optimizer.update_w": "optimizer.update_w_ms",
    "optimizer.update_h": "optimizer.update_h_ms",
    "optimizer.update_g": "optimizer.update_g_ms",
    "model.compute_ytilde": "model.compute_ytilde_ms",
    "model.normalize": "model.normalize_ms",
    "linalg.log_abs_det_gram": "linalg.log_abs_det_gram_ms",
}
# span name -> per-layer metric of its self time, in median ms per call
PER_CALL = {
    "linalg.invert": "linalg.invert_ms",
    "wiener.separate": "wiener.separate_self_ms",
    "stft.forward": "stft.forward_ms",
    "stft.inverse": "stft.inverse_ms",
    "audio_io.read": "audio_io.read_ms",
    "audio_io.write": "audio_io.write_ms",
    "model.init_params": "model.init_params_ms",
    "cli": "cli.self_ms",
}
assert {name for _, _, name in PROBES} == set(PER_ITERATION) | set(PER_CALL)

PER_LAYER_UNITS = {
    **{metric: "ms/iter" for metric in PER_ITERATION.values()},
    **{metric: "ms" for metric in PER_CALL.values()},
    "optimizer.iter_ms_p50": "ms",
    "optimizer.iter_ms_p90": "ms",
    "optimizer.iterations": "count",
    "optimizer.warnings": "count",
    "audio_io.mb": "MB",
    "trace.overhead_frac": "ratio",
}


class CheckFailed(Exception):
    """A separate call returned output that breaks the contract."""


@dataclasses.dataclass
class Scene:
    """The seeded scene as written to disk and read back by the benchmark."""

    mixture_path: pathlib.Path
    mixture_ch1: np.ndarray  # float32-rounded, as the program reads it
    references: list
    duration_s: float
    n_bins: int  # F * T of the program's STFT


def calibration_s() -> float:
    """Wall seconds of a fixed numpy kernel shaped like a small STFT."""
    start = time.perf_counter()
    X = np.random.default_rng(0).standard_normal(CAL_SHAPE + (2,)) \
        .view(np.complex128)[..., 0]
    for _ in range(CAL_REPS):
        power = X.real ** 2 + X.imag ** 2
        np.log(power + 1.0).sum(axis=2)
        np.matmul(X.transpose(0, 2, 1), X.conj())
        np.fft.irfft(X, axis=0)
    return time.perf_counter() - start


class ReferenceClock:
    """Converts wall seconds into seconds of the reference machine.

    A shared host's speed drifts by up to ~1.8x over minutes.  The
    calibration kernel runs no gsmsep code, so a change to the program
    leaves its time alone while a change in the machine's speed moves it
    along with the program.  The run samples the kernel between its timed
    intervals; every time it reports is wall time scaled by the kernel's
    reference time over the median of those samples.
    """

    def __init__(self):
        calibration_s()  # first-use costs: FFT plans, page faults
        self.cal_s: list[float] = []

    def sample(self) -> None:
        self.cal_s.append(calibration_s())

    @property
    def factor(self) -> float:
        return CAL_NOMINAL_S / statistics.median(self.cal_s)


def conditions(seed: int) -> dict:
    cpu_model = platform.machine()
    with contextlib.suppress(OSError):
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def make_scene(workload: Workload, seed: int, directory: pathlib.Path) -> Scene:
    scene = synth_scene(workload.n_sources, workload.n_sources,
                        workload.duration_s, seed)
    path = directory / "mixture.wav"
    write_wav(path, scene.mixture)
    n_samples = scene.mixture.n_frames
    stft_cfg = StftConfig()
    n_frames = (n_samples + 2 * stft_cfg.pad - stft_cfg.n_fft) // stft_cfg.hop + 1
    return Scene(
        mixture_path=path,
        mixture_ch1=read_wav(path).samples[0],
        references=[ref.samples[0] for ref in scene.references],
        duration_s=n_samples / scene.mixture.sample_rate,
        n_bins=stft_cfg.n_freq * n_frames,
    )


def separate_argv(workload: Workload, scene: Scene, out_dir: pathlib.Path,
                  seed: int, iterations: int) -> list:
    return ["separate", str(scene.mixture_path), "--out-dir", str(out_dir),
            "-N", str(workload.n_sources), "-K", str(workload.bases),
            "--iters", str(iterations), "--seed", str(seed),
            *workload.model_args]


def call_separate(argv: list, out_dir: pathlib.Path) -> tuple[int, float, int]:
    """One timed ``gsmsep separate``: (exit status, seconds, RuntimeWarnings).

    The output directory is emptied first, so stale files cannot pass the
    checks.  Warnings are recorded instead of printed and stdout is
    captured, so neither lands in the benchmark's own output.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        start = time.perf_counter()
        status = cli.main(argv)
        elapsed = time.perf_counter() - start
    n_warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return status, elapsed, n_warnings


def check_outputs(status: int, out_dir: pathlib.Path, workload: Workload,
                  scene: Scene, iterations: int) -> tuple[list, list, int]:
    """Exit status, files, finite samples, monotone trace, partition identity.

    Returns the likelihood trace, the channel-1 estimates and the bytes
    of WAV the call read and wrote.
    """
    if status != 0:
        raise CheckFailed(f"separate exited with status {status}")
    report_path = out_dir / "report.json"
    paths = [out_dir / f"source{n}.wav"
             for n in range(1, workload.n_sources + 1)]
    missing = [str(p) for p in [report_path, *paths] if not p.is_file()]
    if missing:
        raise CheckFailed(f"missing outputs: {missing}")

    estimates = [read_wav(path).samples[0] for path in paths]
    for path, est in zip(paths, estimates):
        if est.shape != scene.mixture_ch1.shape:
            raise CheckFailed(f"{path.name} has {est.shape[0]} samples,"
                              f" mixture has {scene.mixture_ch1.shape[0]}")
        if not np.all(np.isfinite(est)):
            raise CheckFailed(f"{path.name} holds non-finite samples")

    trace = json.loads(report_path.read_text())["ll_trace"]
    if len(trace) != iterations or not np.all(np.isfinite(trace)):
        raise CheckFailed(f"ll_trace of {len(trace)} values is not"
                          f" {iterations} finite values")
    for k in range(1, len(trace)):
        if trace[k] < trace[k - 1] - MONOTONE_SLACK * abs(trace[k - 1]):
            raise CheckFailed(f"ll_trace decreased at iteration {k}:"
                              f" {trace[k - 1]!r} -> {trace[k]!r}")

    # each float32 output is rounded once on write; the sum may drift by
    # one rounding per term at the mixture's peak
    residual = float(np.max(np.abs(np.sum(estimates, axis=0)
                                   - scene.mixture_ch1)))
    peak = float(np.max(np.abs(scene.mixture_ch1)))
    tolerance = (workload.n_sources + 1) * np.finfo(np.float32).eps * peak
    if not residual <= tolerance:
        raise CheckFailed(f"partition identity broken: max residual"
                          f" {residual:.3e} > {tolerance:.3e}")

    io_bytes = scene.mixture_path.stat().st_size \
        + sum(path.stat().st_size for path in paths)
    return trace, estimates, io_bytes


def layer_metrics(tracer: Tracer, scale: float, traced_s: list,
                  untraced_s: list, warnings_per_call: list,
                  io_bytes: int) -> tuple[dict, dict]:
    """Per-layer metrics and, per span name, its mean share of the call.

    Span times are converted to reference seconds by `scale`.
    """
    self_s = tracer.self_times()
    index = {id(span): i for i, span in enumerate(tracer.spans)}
    per_iteration = {metric: [] for metric in PER_ITERATION.values()}
    per_call = {metric: [] for metric in PER_CALL.values()}
    iteration_s, iterations, shares = [], [], {}
    for spans in tracer.calls().values():
        starts = [s.start for s in spans if s.name == "optimizer.e_step"]
        ends = [s.end for s in spans if s.name == "optimizer.log_likelihood"]
        iterations.append(len(starts))
        iteration_s.extend(scale * (end - start)
                           for start, end in zip(starts, ends))
        root = next(s for s in spans if s.name == "cli")
        sums = {metric: np.zeros(len(starts)) for metric in per_iteration}
        totals = dict.fromkeys(per_call, 0.0)
        by_name: dict = {}
        for span in spans:
            own = self_s[index[id(span)]]
            by_name[span.name] = by_name.get(span.name, 0.0) + own
            if span.name in PER_CALL:
                totals[PER_CALL[span.name]] += scale * own
                continue
            k = int(np.searchsorted(starts, span.start, side="right")) - 1
            if not (0 <= k < len(ends) and span.end <= ends[k]):
                raise CheckFailed(f"span {span.name} lies outside every"
                                  f" iteration")
            sums[PER_ITERATION[span.name]][k] += scale * own
        for metric, values in sums.items():
            per_iteration[metric].extend(values)
        for metric, total in totals.items():
            per_call[metric].append(total)
        duration = root.end - root.start
        for name, own in by_name.items():
            shares.setdefault(name, []).append(own / duration)

    metrics = {metric: 1e3 * statistics.median(values)
               for metric, values in {**per_iteration, **per_call}.items()}
    metrics.update({
        "optimizer.iter_ms_p50": 1e3 * float(np.percentile(iteration_s, 50)),
        "optimizer.iter_ms_p90": 1e3 * float(np.percentile(iteration_s, 90)),
        "optimizer.iterations": statistics.median(iterations),
        "optimizer.warnings": statistics.median(warnings_per_call),
        "audio_io.mb": io_bytes / 1e6,
        "trace.overhead_frac": statistics.median(traced_s)
        / statistics.median(untraced_s) - 1.0,
    })
    return metrics, {name: statistics.mean(v) for name, v in shares.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    workload = WORKLOADS[name]
    if smoke:
        workload = dataclasses.replace(workload, duration_s=1.0, iterations=1)
    clock = ReferenceClock()
    clock.sample()
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        tmp = pathlib.Path(tmp)
        out_dir = tmp / "out"

        # set-up: a fresh interpreter importing gsmsep, scene synthesis,
        # WAV write and a one-iteration warm-up call, repeated; the median
        # round is setup_s
        round_s = []
        for _ in range(1 if smoke else SETUP_ROUNDS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                           check=True)
            scene = make_scene(workload, seed, tmp)
            status, _, _ = call_separate(
                separate_argv(workload, scene, out_dir, seed, 1), out_dir)
            check_outputs(status, out_dir, workload, scene, 1)
            round_s.append(time.perf_counter() - start)
            clock.sample()

        argv = separate_argv(workload, scene, out_dir, seed,
                             workload.iterations)
        tracer = Tracer(PROBES)
        untraced_s, traced_s, warnings_per_call = [], [], []
        separate_attempted = separate_failed = 0
        score_attempted = score_failed = 0
        score_error = None
        gain_db = reference_trace = io_bytes = None
        failures = []
        # stop before a call that would overrun --seconds, once every kind
        # of call has its minimum count
        started = time.perf_counter()
        while not failures and (len(untraced_s) < MIN_CALLS
                                or trace and len(traced_s) < MIN_CALLS) \
                or time.perf_counter() - started \
                + statistics.median(untraced_s + traced_s or [0.0]) \
                + statistics.median(clock.cal_s) <= seconds:
            traced = trace and len(traced_s) < len(untraced_s)
            separate_attempted += 1
            if traced:
                with tracer.installed(call=len(traced_s)):
                    status, elapsed, n_warn = call_separate(argv, out_dir)
            else:
                status, elapsed, n_warn = call_separate(argv, out_dir)
            clock.sample()
            try:
                ll_trace, estimates, io_bytes = check_outputs(
                    status, out_dir, workload, scene, workload.iterations)
                if reference_trace is None:
                    reference_trace = ll_trace
                elif ll_trace != reference_trace:
                    raise CheckFailed("ll_trace differs between repeated calls")
            except CheckFailed as exc:
                separate_failed += 1
                failures.append(str(exc))
                continue
            (traced_s if traced else untraced_s).append(elapsed)
            if traced:
                warnings_per_call.append(n_warn)

            score_attempted += 1
            try:
                score = permutation_si_sdr(estimates, scene.references,
                                           mixture=scene.mixture_ch1)
            except ValueError as exc:
                score_failed += 1
                score_error = str(exc)
            else:
                gain_db = score.mean_si_sdr - score.input_si_sdr

        detail = {
            "workload": name,
            "conditions": conditions(seed),
            "smoke": smoke,
            "separate": {"attempted": separate_attempted,
                         "failed": separate_failed},
            "score": {"attempted": score_attempted, "failed": score_failed,
                      "error": score_error},
            "si_sdr_gain_db": gain_db,
            "failures": failures[:5],
            "wall_audio_s_per_s": scene.duration_s
            / statistics.median(untraced_s) if untraced_s else None,
            "reference_factor": clock.factor,
            "calibration_s": clock.cal_s,
            "setup_rounds_s": round_s,
            "untraced_call_s": untraced_s,
            "traced_call_s": traced_s,
        }
        scale = clock.factor
        correct = not failures
        if not correct:
            metrics = {}
        elif trace:
            values, detail["shares"] = layer_metrics(
                tracer, scale, traced_s, untraced_s,
                warnings_per_call, io_bytes)
            metrics = {metric: {"value": values[metric], "unit": unit}
                       for metric, unit in PER_LAYER_UNITS.items()}
            detail["spans_file"] = str(
                (WORK_DIR / f"spans-{name}-seed{seed}.json").relative_to(ROOT))
            tracer.dump(ROOT / detail["spans_file"])
        else:
            values = {
                "audio_s_per_s":
                    scene.duration_s / (scale * statistics.median(untraced_s)),
                "nll_per_bin": -reference_trace[-1] / scene.n_bins,
                "setup_s": scale * statistics.median(round_s),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {metric: {"value": values[metric], "unit": unit}
                       for metric, unit in END_TO_END_UNITS.items()}
    return {"detail": detail, "result": {
        "correct": correct, "attempted": separate_attempted,
        "failed": separate_failed, "metrics": metrics}}


def run_all(args) -> int:
    """Every workload in a fresh process, then one table of the metrics."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        results[name] = json.loads(lines[-1]) if lines else None
    print(f"{'workload':<12} {'metric':<34} {'value':>12}  unit")
    for name, result in results.items():
        if result is None:
            print(f"{name:<12} (no result)")
            continue
        for metric, entry in result["metrics"].items():
            print(f"{name:<12} {metric:<34} {entry['value']:>12.4f}"
                  f"  {entry['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1 s clip and 1 iteration, for the self-test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.smoke)
    detail, result = outcome["detail"], outcome["result"]
    print(json.dumps(detail))
    for failure in detail["failures"]:
        print(f"sepbench: check failed: {failure}", file=sys.stderr)
    if detail["si_sdr_gain_db"] is None:
        print(f"si_sdr_gain_db: missing ({detail['score']['error']})")
    else:
        print(f"si_sdr_gain_db: {detail['si_sdr_gain_db']:.4f} dB")
    for metric, entry in result["metrics"].items():
        print(f"{metric}: {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
