"""Batch command-line front end.

Subcommands: separate (WAV in, per-source WAVs + JSON report out), synth
(write a synthetic scene to disk), evaluate (score estimate WAVs against
references), bench (run a JSON grid of experiments into a CSV summary).
Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

from .audio_io import AudioBuffer, read_wav, write_wav
from .harness import (
    SeparationReport,
    check_scene,
    config_hash,
    config_to_dict,
    run_experiment,
    separate_mixture,
    synth_scene,
    write_csv_summary,
)
from .metrics import permutation_si_sdr
from .model import NIG, SETTINGS, VARIANTS, SeparationConfig, variant_from_dict
from .stft import StftConfig, stft_forward
from .workers import run_blocks_serially


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_setting(parser, name: str, *flags: str) -> None:
    """The option `flags` for the model.SETTINGS entry `name`: its type,
    default, range and help.  A refusal is a usage error naming the long
    flag: "argument --<flag>: <flag> <requirement>, got <value>"."""
    setting, flag = SETTINGS[name], flags[-1].lstrip("-")

    def convert(text):
        try:
            return setting.check(flag, setting.kind(text))
        except ValueError as exc:
            raise argparse.ArgumentError(None, f"argument --{flag}: {exc}") from None

    shown = "" if setting.default is None else \
        f" (default: %(default){'g' if setting.kind is float else 's'})"
    parser.add_argument(*flags, type=convert, default=setting.default, help=setting.help + shown)


# `separate`'s defaults, keyed by SeparationConfig and variant field names;
# the option definitions and the bench grid entries both read them
DEFAULTS = {"model": NIG.name, "rank1": SeparationConfig.rank1,
            **{name: SETTINGS[name].default for name in (
                "nu", "beta", "gamma", "rho", "eta", "n_sources", "n_bases",
                "iterations", "seed")}}


# bench grid keys that describe the scene, not the run, and their settings
SCENE_KEYS = {"n_mics": SETTINGS["n_mics"], "duration_s": SETTINGS["duration_s"],
              "scene_seed": SETTINGS["seed"], "noise_snr_db": SETTINGS["noise_snr_db"]}


def _typed(name: str, value, kind: type):
    """value as `kind`, refusing what only a coercion would make one: a
    bench grid is JSON, so 2.7 iterations or "false" for rank1 is an error,
    while 3.0 iterations and an integer rho are taken."""
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    elif kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind:
        raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
    return value


def _separation_config(settings: dict) -> SeparationConfig:
    """Keys named as in DEFAULTS, each of its DEFAULTS value's type; absent
    ones take the DEFAULTS value, and other keys are ignored."""
    settings = {**DEFAULTS, **{name: _typed(name, value, type(DEFAULTS[name]))
                               for name, value in settings.items() if name in DEFAULTS}}
    return SeparationConfig(variant=variant_from_dict(settings), **{
        name: settings[name] for name in ("n_sources", "n_bases", "iterations", "rank1", "seed")})


def cmd_separate(args) -> int:
    buffer = read_wav(args.input)
    cfg = _separation_config({**vars(args), "n_sources": args.sources,
                              "n_bases": args.bases, "iterations": args.iters})
    stft_cfg = StftConfig()
    # the forward STFT stays here rather than in separate_mixture because
    # sepbench's tracer wraps read_wav, write_wav and stft_forward as
    # attributes of this module
    X_FMT = stft_forward(buffer.samples, stft_cfg)
    sources, trace = separate_mixture(X_FMT, cfg, stft_cfg, buffer.n_frames,
                                      all_channels=args.multichannel)

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
    unknown = sorted(set(entry) - set(DEFAULTS) - set(SCENE_KEYS))
    if unknown:
        raise ValueError(f"malformed grid entry {entry!r}: unknown keys {unknown}")
    try:
        cfg = _separation_config(entry)
        scene = {name: setting.check(name, _typed(name, entry[name], setting.kind))
                 for name, setting in SCENE_KEYS.items()
                 if entry.get(name) is not None}
        scene_args = {
            "n_sources": cfg.n_sources,
            "n_mics": scene.get("n_mics", cfg.n_sources),
            "duration_s": scene.get("duration_s", SETTINGS["duration_s"].default),
            "noise_snr_db": scene.get("noise_snr_db"),
        }
        check_scene(**scene_args)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed grid entry {entry!r}: {exc}") from exc
    return cfg, {**scene_args, "seed": scene.get("scene_seed", cfg.seed)}


def _run_bench_entry(parsed: tuple) -> SeparationReport:
    cfg, scene_args = parsed
    return run_experiment(synth_scene(**scene_args), cfg, StftConfig())


def _worker_pool(workers: int):
    """`bench --workers` processes, spawned; each runs its frequency blocks
    on one thread, with neither helper nor twin
    (`workers.run_blocks_serially`), so N do not oversubscribe."""
    import concurrent.futures
    import multiprocessing

    return concurrent.futures.ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("spawn"),
        initializer=run_blocks_serially)


def cmd_bench(args) -> int:
    try:
        grid = json.loads(pathlib.Path(args.grid).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed grid spec {args.grid}: {exc}") from exc
    if not isinstance(grid, list):
        raise ValueError("grid spec must be a JSON list of config objects")

    unique = {}  # first parsed (cfg, scene_args) per hash of the two
    for entry in grid:
        cfg, scene_args = _parse_bench_entry(entry)
        effective = {"scene": scene_args, **config_to_dict(cfg, StftConfig())}
        unique.setdefault(config_hash(effective), (cfg, scene_args))

    if args.workers > 1 and unique:
        # spawned workers inherit one BLAS thread each, read when they
        # import numpy; the caller's environment is restored afterwards
        saved = dict(os.environ)
        os.environ.update(dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
        try:
            with _worker_pool(args.workers) as pool:
                reports = list(pool.map(_run_bench_entry, unique.values()))
        finally:
            os.environ.clear()
            os.environ.update(saved)
    else:
        reports = [_run_bench_entry(parsed) for parsed in unique.values()]

    out_path = pathlib.Path(args.out)
    write_csv_summary(zip(unique, reports), out_path)
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
    sep.add_argument("--model", choices=tuple(VARIANTS), default=DEFAULTS["model"],
                     help="tail model (default: %(default)s)")
    for name in ("nu", "beta", "gamma", "rho", "eta"):
        _add_setting(sep, name, f"--{name}")
    _add_setting(sep, "n_bases", "-K", "--bases")
    _add_setting(sep, "n_sources", "-N", "--sources")
    _add_setting(sep, "iterations", "--iters")
    sep.add_argument("--rank1", action="store_true", default=DEFAULTS["rank1"],
                     help="freeze the spatial weights at identity (needs N = M)")
    _add_setting(sep, "seed", "--seed")
    sep.add_argument("--out-dir", default=".", help="output directory")
    sep.add_argument("--report", default=None, help="JSON report path")
    sep.add_argument("--multichannel", action="store_true",
                     help="also write full M-channel images")
    sep.set_defaults(func=cmd_separate)

    synth = subparsers.add_parser("synth", help="write a synthetic scene")
    _add_setting(synth, "n_sources", "-N", "--sources")
    _add_setting(synth, "n_mics", "-M", "--mics")
    _add_setting(synth, "duration_s", "--duration")
    _add_setting(synth, "seed", "--seed")
    _add_setting(synth, "noise_snr_db", "--noise-snr-db")
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
    _add_setting(bench, "workers", "--workers")
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
