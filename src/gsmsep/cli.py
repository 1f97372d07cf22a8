"""Batch command-line front end.

Subcommands: separate (WAV in, per-source WAVs + JSON report out), synth
(write a synthetic scene to disk), evaluate (score estimate WAVs against
references), bench (run a JSON grid of experiments into a CSV summary).
Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import pathlib
import sys

from .audio_io import AudioBuffer, read_wav, write_wav
from .harness import (
    SeparationReport,
    config_hash,
    config_to_dict,
    run_experiment,
    separate_mixture,
    synth_scene,
    write_csv_summary,
)
from .metrics import permutation_si_sdr
from .model import NIG, VARIANTS, SeparationConfig, variant_from_dict
from .stft import StftConfig, stft_forward


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_float(name):
    def convert(text):
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"{name} must be > 0, got {text}")
        return value

    return convert


def _beta_value(text):
    value = float(text)
    if not 0.0 < value <= 2.0:
        raise argparse.ArgumentTypeError(
            f"beta must lie in (0, 2], got {text}"
        )
    return value


def _positive_int(name):
    def convert(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"{name} must be >= 1, got {text}")
        return value

    return convert


def _nonneg_int(name):
    def convert(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"{name} must be >= 0, got {text}")
        return value

    return convert


def _add_model_args(sub):
    sub.add_argument("--model", choices=tuple(VARIANTS), default=NIG.name,
                     help="tail model (default: %(default)s)")
    sub.add_argument("--nu", type=_positive_float("nu"), default=40.0,
                     help="t-distribution degrees of freedom (default: 40)")
    sub.add_argument("--beta", type=_beta_value, default=1.0,
                     help="generalized-Gaussian shape in (0, 2] (default: 1)")
    sub.add_argument("--gamma", type=float, default=-0.5,
                     help="generalized-hyperbolic index (default: -0.5)")
    sub.add_argument("--rho", type=_positive_float("rho"), default=15.0,
                     help="tail sharpness (default: 15)")
    sub.add_argument("--eta", type=_positive_float("eta"), default=1.0,
                     help="tail scale (default: 1)")


def _add_run_args(sub):
    sub.add_argument("-K", "--bases", type=_positive_int("K"), default=8,
                     help="NMF bases per source (default: 8)")
    sub.add_argument("-N", "--sources", type=_positive_int("N"), default=2,
                     help="number of sources (default: 2)")
    sub.add_argument("--iters", type=_nonneg_int("iters"), default=300,
                     help="optimizer iterations (default: 300)")
    sub.add_argument("--rank1", action="store_true",
                     help="freeze the spatial weights at identity (needs N = M)")
    sub.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    sub.add_argument("--floor", type=_positive_float("floor"), default=1e-10,
                     help="variance floor (default: 1e-10)")


def cmd_separate(args) -> int:
    buffer = read_wav(args.input)
    cfg = SeparationConfig(
        n_sources=args.sources,
        n_bases=args.bases,
        iterations=args.iters,
        variant=variant_from_dict(vars(args)),
        rank1=args.rank1,
        floor=args.floor,
        seed=args.seed,
    )
    stft_cfg = StftConfig()
    # the forward STFT stays here rather than in separate_mixture because
    # sepbench's tracer wraps read_wav, write_wav and stft_forward as
    # attributes of this module
    X_FTM = stft_forward(buffer.samples, stft_cfg)
    sources, trace = separate_mixture(X_FTM, cfg, stft_cfg, buffer.n_frames)

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for rank, source in enumerate(sources, start=1):
        path = out_dir / f"source{rank}.wav"
        write_wav(path, AudioBuffer(samples=source[0:1],
                                    sample_rate=buffer.sample_rate))
        outputs.append(str(path))
        if args.multichannel:
            mc_path = out_dir / f"source{rank}_multichannel.wav"
            write_wav(mc_path, AudioBuffer(samples=source,
                                           sample_rate=buffer.sample_rate))
            outputs.append(str(mc_path))

    report = {
        "config": config_to_dict(cfg, stft_cfg),
        "ll_trace": trace,
        "outputs": outputs,
        "input": str(args.input),
    }
    report_path = pathlib.Path(args.report) if args.report \
        else out_dir / "report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2))
    for path in outputs:
        print(path)
    print(report_path)
    return 0


def cmd_synth(args) -> int:
    scene = synth_scene(args.sources, args.mics, args.duration, args.seed,
                        noise_snr_db=args.noise_snr_db)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mixture_path = out_dir / "mixture.wav"
    write_wav(mixture_path, scene.mixture)
    print(mixture_path)
    for n, reference in enumerate(scene.references, start=1):
        path = out_dir / f"reference{n}.wav"
        write_wav(path, reference)
        print(path)
    return 0


def cmd_evaluate(args) -> int:
    if len(args.estimates) != len(args.references):
        raise ValueError(
            f"count mismatch: {len(args.estimates)} estimates,"
            f" {len(args.references)} references"
        )
    estimates = [read_wav(path).samples[0] for path in args.estimates]
    references = [read_wav(path).samples[0] for path in args.references]
    mixture = read_wav(args.mixture).samples[0] if args.mixture else None
    report = permutation_si_sdr(estimates, references, mixture=mixture)
    payload = {
        "per_source": report.per_source,
        "mean_si_sdr": report.mean_si_sdr,
        "input_si_sdr": report.input_si_sdr,
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.report:
        pathlib.Path(args.report).write_text(text)
        print(args.report)
    else:
        print(text)
    return 0


def _parse_bench_entry(entry: dict):
    if not isinstance(entry, dict):
        raise ValueError(f"grid entries must be objects, got {type(entry).__name__}")
    try:
        variant = variant_from_dict(entry)
        cfg = SeparationConfig(
            n_sources=int(entry.get("n_sources", 2)),
            n_bases=int(entry.get("n_bases", 8)),
            iterations=int(entry.get("iterations", 300)),
            variant=variant,
            rank1=bool(entry.get("rank1", False)),
            eps_init=float(entry.get("eps_init", 1e-2)),
            floor=float(entry.get("floor", 1e-10)),
            seed=int(entry.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed grid entry {entry!r}: {exc}") from exc
    scene_args = {
        "n_sources": cfg.n_sources,
        "n_mics": int(entry.get("n_mics", cfg.n_sources)),
        "duration_s": float(entry.get("duration_s", 3.0)),
        "seed": int(entry.get("scene_seed", cfg.seed)),
        "noise_snr_db": entry.get("noise_snr_db"),
    }
    return cfg, scene_args


def _run_bench_entry(entry: dict) -> SeparationReport:
    cfg, scene_args = _parse_bench_entry(entry)
    scene = synth_scene(**scene_args)
    return run_experiment(scene, cfg, StftConfig())


def cmd_bench(args) -> int:
    text = pathlib.Path(args.grid).read_text()
    try:
        grid = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed grid spec {args.grid}: {exc}") from exc
    if not isinstance(grid, list):
        raise ValueError("grid spec must be a JSON list of config objects")

    stft_cfg = StftConfig()
    unique = []
    seen = set()
    for entry in grid:
        cfg, scene_args = _parse_bench_entry(entry)
        effective = {"scene": {k: scene_args[k] for k in sorted(scene_args)},
                     **config_to_dict(cfg, stft_cfg)}
        key = config_hash(effective)
        if key in seen:
            continue
        seen.add(key)
        unique.append(entry)

    if args.workers > 1 and unique:
        with concurrent.futures.ProcessPoolExecutor(args.workers) as pool:
            reports = list(pool.map(_run_bench_entry, unique))
    else:
        reports = [_run_bench_entry(entry) for entry in unique]

    out_path = pathlib.Path(args.out)
    write_csv_summary(reports, out_path)
    print(out_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gsmsep",
                     description="Blind source separation with heavy-tailed "
                                 "jointly-diagonalizable spatial models.")
    subparsers = parser.add_subparsers(dest="subcommand", required=True,
                                       parser_class=_Parser)

    sep = subparsers.add_parser("separate", help="separate a multichannel WAV")
    sep.add_argument("input", help="input mixture WAV")
    _add_model_args(sep)
    _add_run_args(sep)
    sep.add_argument("--out-dir", default=".", help="output directory")
    sep.add_argument("--report", default=None, help="JSON report path")
    sep.add_argument("--multichannel", action="store_true",
                     help="also write full M-channel images")
    sep.set_defaults(func=cmd_separate)

    synth = subparsers.add_parser("synth", help="write a synthetic scene")
    synth.add_argument("-N", "--sources", type=_positive_int("N"), default=2)
    synth.add_argument("-M", "--mics", type=_positive_int("M"), default=2)
    synth.add_argument("--duration", type=_positive_float("duration"),
                       default=3.0, help="seconds (default: 3)")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--noise-snr-db", type=float, default=None)
    synth.add_argument("--out-dir", default=".", help="output directory")
    synth.set_defaults(func=cmd_synth)

    ev = subparsers.add_parser("evaluate",
                               help="score estimates against references")
    ev.add_argument("--estimates", nargs="+", required=True)
    ev.add_argument("--references", nargs="+", required=True)
    ev.add_argument("--mixture", default=None,
                    help="unprocessed mixture WAV for the input-level score")
    ev.add_argument("--report", default=None, help="JSON report path")
    ev.set_defaults(func=cmd_evaluate)

    bench = subparsers.add_parser("bench", help="run a JSON grid into a CSV")
    bench.add_argument("grid", help="JSON list of config objects")
    bench.add_argument("--out", default="bench.csv", help="CSV output path")
    bench.add_argument("--workers", type=_positive_int("workers"), default=1,
                       help="parallel experiment processes (default: 1)")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"gsmsep: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
