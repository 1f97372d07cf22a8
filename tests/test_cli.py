"""End-to-end tests for the command-line front end."""

import json
import os
import pathlib
import subprocess
import sys
import wave

import numpy as np
import pytest

import gsmsep
from gsmsep import cli, optimizer
from gsmsep.audio_io import AudioBuffer, read_wav, write_wav
from gsmsep.cli import build_parser, main
from gsmsep.harness import check_scene, synth_scene
from gsmsep.linalg import MAX_DIM
from gsmsep.model import GH, NIG, SETTINGS, LeptokurticGG, SeparationConfig, StudentT


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    """A small synthesized scene shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("scene")
    code = main([
        "synth", "-N", "2", "-M", "2", "--duration", "1.0",
        "--seed", "0", "--out-dir", str(out),
    ])
    assert code == 0
    return out


class TestStartUp:
    # scipy is imported only where it is used: integer and generic GH
    # orders, scoring, nothing on the default NIG separate path
    PROBE = ("import sys, gsmsep.cli\n"
             "{run}\n"
             "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
             "assert not loaded, loaded\n")

    def probe(self, run=""):
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(gsmsep.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", self.PROBE.format(run=run)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_import_loads_no_scipy(self):
        self.probe()

    def test_default_nig_separate_loads_no_scipy(self, scene_dir, tmp_path):
        argv = ["separate", str(scene_dir / "mixture.wav"), "--iters", "2",
                "-K", "2", "--out-dir", str(tmp_path)]
        self.probe(f"assert gsmsep.cli.main({argv!r}) == 0")
        assert (tmp_path / "source2.wav").exists()


class TestSynthCommand:
    def test_writes_mixture_and_references(self, scene_dir, capsys):
        assert (scene_dir / "mixture.wav").exists()
        assert (scene_dir / "reference1.wav").exists()
        assert (scene_dir / "reference2.wav").exists()
        mixture = read_wav(scene_dir / "mixture.wav")
        assert mixture.n_channels == 2
        assert mixture.sample_rate == 16000

    def test_prints_written_paths(self, tmp_path, capsys):
        code = main([
            "synth", "-N", "1", "-M", "1", "--duration", "1.0",
            "--seed", "3", "--out-dir", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert lines == [
            str(tmp_path / "mixture.wav"),
            str(tmp_path / "reference1.wav"),
        ]

    def test_noise_flag_accepted(self, tmp_path):
        code = main([
            "synth", "-N", "1", "-M", "2", "--duration", "1.0",
            "--seed", "1", "--noise-snr-db", "10", "--out-dir", str(tmp_path),
        ])
        assert code == 0


class TestSeparateCommand:
    def test_writes_sources_and_report(self, scene_dir, tmp_path, capsys):
        code = main([
            "separate", str(scene_dir / "mixture.wav"),
            "--model", "gaussian", "-N", "2", "-K", "2", "--iters", "2",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        for name in ("source1.wav", "source2.wav", "report.json"):
            assert (tmp_path / name).exists()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["variant"]["model"] == "gaussian"
        assert len(report["ll_trace"]) == 2
        assert report["input"] == str(scene_dir / "mixture.wav")
        assert report["outputs"] == [
            str(tmp_path / "source1.wav"),
            str(tmp_path / "source2.wav"),
        ]
        est = read_wav(tmp_path / "source1.wav")
        mix = read_wav(scene_dir / "mixture.wav")
        assert est.n_channels == 1
        assert est.n_frames == mix.n_frames

    def test_multichannel_images(self, scene_dir, tmp_path):
        code = main([
            "separate", str(scene_dir / "mixture.wav"),
            "--model", "gaussian", "-N", "2", "-K", "2", "--iters", "1",
            "--out-dir", str(tmp_path), "--multichannel",
        ])
        assert code == 0
        image = read_wav(tmp_path / "source1_multichannel.wav")
        assert image.n_channels == 2

    def test_channel_one_files_match_the_multichannel_run(self, scene_dir, tmp_path):
        # the default run inverse-transforms channel 1 alone, and writes
        # the same bytes in the same order as a --multichannel run
        for out, extra in (("mono", []), ("multi", ["--multichannel"])):
            assert main(["separate", str(scene_dir / "mixture.wav"), "-N", "2",
                         "-K", "2", "--iters", "3", "--out-dir",
                         str(tmp_path / out), *extra]) == 0
        for name in ("source1.wav", "source2.wav"):
            assert (tmp_path / "mono" / name).read_bytes() \
                == (tmp_path / "multi" / name).read_bytes()

    @pytest.mark.parametrize("k", [-40, 40])
    def test_power_of_two_gain_scales_the_outputs_exactly(self, k, scene_dir, tmp_path):
        # the run's floor and starting W follow the mixture's level, so a
        # 2^k gain passes through to every written sample bit for bit
        mix = read_wav(scene_dir / "mixture.wav")
        scaled = tmp_path / "scaled.wav"
        write_wav(scaled, AudioBuffer(samples=2.0 ** k * mix.samples,
                                      sample_rate=mix.sample_rate))
        for path, out in ((scene_dir / "mixture.wav", "native"), (scaled, "scaled")):
            assert main(["separate", str(path), "-N", "2", "-K", "2", "--iters", "3",
                         "--out-dir", str(tmp_path / out), "--multichannel"]) == 0
        for name in ("source1.wav", "source2_multichannel.wav"):
            native = read_wav(tmp_path / "native" / name).samples
            np.testing.assert_array_equal(
                read_wav(tmp_path / "scaled" / name).samples, 2.0 ** k * native)
            assert np.any(native != 0)

    def test_off_grid_length_keeps_partition(self, scene_dir, tmp_path):
        # 100 samples past the hop grid: the images still sum to the
        # mixture over every sample, the tail included
        mix = read_wav(scene_dir / "mixture.wav")
        samples = np.concatenate([mix.samples, mix.samples[:, :100]], axis=1)
        off_grid = tmp_path / "off_grid.wav"
        write_wav(off_grid, AudioBuffer(samples=samples,
                                        sample_rate=mix.sample_rate))
        code = main([
            "separate", str(off_grid), "--model", "t", "-N", "2", "-K", "2",
            "--iters", "3", "--out-dir", str(tmp_path / "out"), "--multichannel",
        ])
        assert code == 0
        images = [read_wav(tmp_path / "out" / f"source{n}_multichannel.wav")
                  for n in (1, 2)]
        assert all(image.n_frames == samples.shape[1] for image in images)
        total = images[0].samples + images[1].samples
        # one float32 rounding per written image and one for the mixture
        tol = 3 * np.finfo(np.float32).eps * np.max(np.abs(samples))
        np.testing.assert_allclose(total, read_wav(off_grid).samples,
                                   rtol=0, atol=tol)

    def test_custom_report_path(self, scene_dir, tmp_path):
        report_path = tmp_path / "elsewhere.json"
        code = main([
            "separate", str(scene_dir / "mixture.wav"),
            "--model", "gaussian", "-N", "2", "-K", "2", "--iters", "1",
            "--out-dir", str(tmp_path), "--report", str(report_path),
        ])
        assert code == 0
        assert report_path.exists()
        assert not (tmp_path / "report.json").exists()

    def test_more_sources_than_channels(self, scene_dir, tmp_path):
        code = main([
            "separate", str(scene_dir / "mixture.wav"),
            "-N", "3", "--iters", "1", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        for n in (1, 2, 3):
            assert read_wav(tmp_path / f"source{n}.wav").n_channels == 1
        assert not (tmp_path / "source4.wav").exists()

    def test_rank1_requires_square(self, scene_dir, tmp_path, capsys):
        code = main([
            "separate", str(scene_dir / "mixture.wav"),
            "-N", "1", "--rank1", "--iters", "1", "--out-dir", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "rank1 needs as many sources as channels" in captured.err

    def test_output_beyond_float32_exits_two(self, scene_dir, tmp_path, capsys,
                                              monkeypatch):
        # write_wav refuses a sample that would be written as inf
        monkeypatch.setattr(cli, "separate_mixture", lambda X, cfg, stft_cfg, n, **kw: (
            [np.full((2, n), 1e39)], [0.0]))
        code = main(["separate", str(scene_dir / "mixture.wav"), "--iters", "1",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "float32 range" in capsys.readouterr().err
        assert not (tmp_path / "source1.wav").exists()

    def test_missing_input_file(self, tmp_path, capsys):
        code = main([
            "separate", str(tmp_path / "nope.wav"), "--iters", "1",
            "--out-dir", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "gsmsep: error:" in captured.err


def _layout_probe(mix, kind):
    """Three-channel clip with one channel made uninformative."""
    first, second = mix.samples[0], mix.samples[1]
    third = {
        "silent": np.zeros_like(first),
        "duplicated": first,
        "scaled-duplicate": -0.3 * first,
        "upmix": (first + second) / 2,
        "upmix-diff": first - second / 2,
    }[kind]
    return np.stack([first, second, third])


def _write_pcm(path, samples, sample_rate, bits):
    """(channels, frames) samples at peak 0.5 as PCM-16 or PCM-24, by the
    stdlib writer."""
    ints = np.round(samples / np.max(np.abs(samples)) * 2.0 ** (bits - 2))
    low_bytes = np.frombuffer(ints.T.astype("<i4").tobytes(), np.uint8).reshape(-1, 4)
    with wave.open(str(path), "wb") as out:
        out.setnchannels(samples.shape[0])
        out.setsampwidth(bits // 8)
        out.setframerate(sample_rate)
        out.writeframes(low_bytes[:, :bits // 8].tobytes())


class TestChannelLayout:
    @pytest.mark.parametrize("kind,message", [
        ("silent", "channel 3 is silent"),
        ("duplicated", "channels 1 and 3 are linearly dependent"),
        ("scaled-duplicate", "channels 1 and 3 are linearly dependent"),
        ("upmix", "channels 1, 2 and 3 are linearly dependent"),
        ("upmix-diff", "channels 1, 2 and 3 are linearly dependent"),
    ])
    def test_uninformative_channel_exits_two(self, scene_dir, tmp_path,
                                             capsys, kind, message):
        mix = read_wav(scene_dir / "mixture.wav")
        probe = tmp_path / f"{kind}.wav"
        write_wav(probe, AudioBuffer(samples=_layout_probe(mix, kind),
                                     sample_rate=mix.sample_rate))
        code = main([
            "separate", str(probe), "--model", "nig", "-N", "2", "-K", "2",
            "--iters", "2", "--out-dir", str(tmp_path / "out"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert not (tmp_path / "out" / "source1.wav").exists()

    def test_dc_only_exits_two(self, tmp_path, capsys):
        # two constant channels at different levels: one scaled spectrum
        samples = np.outer([0.5, -0.2], np.ones(16000))
        probe = tmp_path / "dc.wav"
        write_wav(probe, AudioBuffer(samples=samples, sample_rate=16000))
        code = main(["separate", str(probe), "--iters", "1",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "channels 1 and 2 are linearly dependent" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["upmix", "upmix-diff"])
    @pytest.mark.parametrize("bits,code", [(16, 0), (24, 2)])
    def test_quantized_upmix(self, scene_dir, tmp_path, capsys, monkeypatch,
                             kind, bits, code):
        # PCM-16 rounding leaves the upmix ~1e-8 from singular, which
        # separates; PCM-24 leaves ~1e-13, which is refused before any E-step
        e_steps = []
        real_e_step = optimizer.e_step

        def counted_e_step(*args, **kwargs):
            e_steps.append(None)
            return real_e_step(*args, **kwargs)

        monkeypatch.setattr(optimizer, "e_step", counted_e_step)
        mix = read_wav(scene_dir / "mixture.wav")
        probe = tmp_path / f"{kind}{bits}.wav"
        _write_pcm(probe, _layout_probe(mix, kind), mix.sample_rate, bits)
        assert main([
            "separate", str(probe), "--model", "nig", "-N", "2", "-K", "2",
            "--iters", "2", "--out-dir", str(tmp_path / "out"),
        ]) == code
        refused = "channels 1, 2 and 3 are linearly dependent" in capsys.readouterr().err
        assert refused == (code == 2)
        assert len(e_steps) == (0 if refused else 2)
        assert (tmp_path / "out" / "source2.wav").exists() == (code == 0)


class TestEvaluateCommand:
    def test_perfect_estimates_hit_cap(self, scene_dir, capsys):
        refs = [str(scene_dir / "reference1.wav"),
                str(scene_dir / "reference2.wav")]
        code = main([
            "evaluate", "--estimates", *refs, "--references", *refs,
            "--mixture", str(scene_dir / "mixture.wav"),
        ])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["mean_si_sdr"] == 100.0
        assert payload["input_si_sdr"] is not None
        assert len(payload["per_source"]) == 2

    def test_report_file(self, scene_dir, tmp_path, capsys):
        refs = [str(scene_dir / "reference1.wav")]
        report_path = tmp_path / "eval.json"
        code = main([
            "evaluate", "--estimates", *refs, "--references", *refs,
            "--report", str(report_path),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == str(report_path)
        payload = json.loads(report_path.read_text())
        assert payload["input_si_sdr"] is None

    def test_count_mismatch(self, scene_dir, capsys):
        code = main([
            "evaluate",
            "--estimates", str(scene_dir / "reference1.wav"),
            "--references", str(scene_dir / "reference1.wav"),
            str(scene_dir / "reference2.wav"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "count mismatch" in captured.err


class TestBenchCommand:
    GRID_ENTRY = {
        "model": "gaussian",
        "n_sources": 2,
        "n_bases": 2,
        "iterations": 1,
        "duration_s": 1.0,
    }

    def test_grid_runs_and_dedups(self, tmp_path, capsys):
        other = dict(self.GRID_ENTRY, seed=1)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(
            [self.GRID_ENTRY, self.GRID_ENTRY, other]
        ))
        out_path = tmp_path / "bench.csv"
        code = main(["bench", str(grid_path), "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == str(out_path)
        lines = out_path.read_text().strip().splitlines()
        # duplicate entry collapses: header + two rows
        assert len(lines) == 3
        assert lines[0].startswith("config_hash,")

    def test_omitted_keys_take_separate_defaults(self, tmp_path):
        # no model at all, a model without its knobs, and every key
        # spelled out: one configuration, one row
        bare = {"n_bases": 2, "iterations": 1, "duration_s": 1.0}
        nig = dict(bare, model="nig")
        spelled = dict(nig, rho=15.0, eta=1.0, n_sources=2, rank1=False, seed=0)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps([bare, nig, spelled]))
        out_path = tmp_path / "bench.csv"
        assert main(["bench", str(grid_path), "--out", str(out_path)]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert ",nig,2,2,1,0," in lines[1]

    def test_csv_hash_is_the_dedup_key(self, tmp_path):
        # entries differing only in the scene both run, under distinct
        # hashes; an exact duplicate still collapses
        first = dict(self.GRID_ENTRY, scene_seed=0)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps([first, dict(first, scene_seed=1), first]))
        out_path = tmp_path / "bench.csv"
        assert main(["bench", str(grid_path), "--out", str(out_path)]) == 0
        rows = out_path.read_text().strip().splitlines()[1:]
        assert len(rows) == 2
        assert rows[0].split(",")[0] != rows[1].split(",")[0]

    def test_empty_grid_header_only(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text("[]")
        out_path = tmp_path / "bench.csv"
        assert main(["bench", str(grid_path), "--out", str(out_path)]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 1

    def test_parallel_workers(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(
            [self.GRID_ENTRY, dict(self.GRID_ENTRY, seed=1)]
        ))
        out_path = tmp_path / "bench.csv"
        code = main(["bench", str(grid_path), "--out", str(out_path),
                     "--workers", "2"])
        assert code == 0
        assert len(out_path.read_text().strip().splitlines()) == 3

    def test_workers_match_serial_csv(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        environ = dict(os.environ)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(
            [self.GRID_ENTRY, dict(self.GRID_ENTRY, model="t", seed=1)]
        ))
        rows = {}
        for workers in ("1", "2"):
            out_path = tmp_path / f"bench{workers}.csv"
            assert main(["bench", str(grid_path), "--out", str(out_path),
                         "--workers", workers]) == 0
            # every column but the last, runtime_ms
            rows[workers] = [line.rsplit(",", 1)[0] for line in
                             out_path.read_text().strip().splitlines()]
        assert len(rows["1"]) == 3
        assert rows["2"] == rows["1"]
        assert dict(os.environ) == environ

    def test_malformed_json(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text("{not json")
        code = main(["bench", str(grid_path), "--out",
                     str(tmp_path / "b.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert "malformed grid spec" in captured.err

    def test_grid_must_be_list(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"model": "gaussian"}))
        code = main(["bench", str(grid_path), "--out",
                     str(tmp_path / "b.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert "JSON list" in captured.err

    def test_malformed_entry(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps([{"model": "t", "nu": -1.0}]))
        code = main(["bench", str(grid_path), "--out",
                     str(tmp_path / "b.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert "malformed grid entry" in captured.err

    def test_negative_seed_entry_is_malformed(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps([{"seed": -1}]))
        code = main(["bench", str(grid_path), "--out",
                     str(tmp_path / "b.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert "malformed grid entry" in captured.err
        assert "seed must be >= 0" in captured.err

    @pytest.mark.parametrize("key,value,message", [
        ("iterations", 2.7, "iterations must be int, got 2.7"),
        ("rank1", "false", "rank1 must be bool, got 'false'"),
        ("n_mics", 2.9, "n_mics must be int, got 2.9"),
        ("seed", True, "seed must be int, got True"),
        ("rho", "15", "rho must be float, got '15'"),
        ("duration_s", "1.0", "duration_s must be float, got '1.0'"),
    ])
    def test_mistyped_value_is_malformed(self, key, value, message, tmp_path, capsys):
        # JSON values are not coerced: 2.7 iterations would run 2, and
        # "false" would switch rank1 on
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps([dict(self.GRID_ENTRY, **{key: value})]))
        code = main(["bench", str(grid_path), "--out",
                     str(tmp_path / "b.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert "malformed grid entry" in captured.err
        assert message in captured.err
        assert not (tmp_path / "b.csv").exists()

    def test_integral_numbers_are_taken(self, tmp_path):
        # 1.0 iterations, 2.0 microphones and an integer duration are the
        # configuration they spell, under the same hash
        spelled = dict(self.GRID_ENTRY, iterations=1.0, n_mics=2.0, duration_s=1)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps([dict(self.GRID_ENTRY, n_mics=2), spelled]))
        out_path = tmp_path / "bench.csv"
        assert main(["bench", str(grid_path), "--out", str(out_path)]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert ",gaussian,2,2,1,0," in lines[1]

    @pytest.mark.parametrize("key", ["iteration", "floor", "eps_init"])
    def test_unknown_key_is_malformed(self, key, tmp_path, capsys):
        # a typo, or a setting that no longer exists, is not ignored
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps([dict(self.GRID_ENTRY, **{key: 50})]))
        code = main(["bench", str(grid_path), "--out",
                     str(tmp_path / "b.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert "malformed grid entry" in captured.err
        assert f"unknown keys ['{key}']" in captured.err
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("bad,message", [
        ({"duration_s": 0.5}, "duration_s must be >= 1 and finite, got 0.5"),
        ({"noise_snr_db": float("nan")}, "noise_snr_db must be finite, got nan"),
        ({"n_mics": 9}, f"n_mics must be in [1, {MAX_DIM}], got 9"),
        # n_mics defaults to n_sources, and is refused in its own name
        ({"n_sources": 9}, f"n_mics must be in [1, {MAX_DIM}], got 9"),
        ({"scene_seed": -1}, "scene_seed must be >= 0, got -1"),
    ], ids=["short", "snr-nan", "mics-over-cap", "derived-mics-over-cap",
            "scene-seed-neg"])
    def test_out_of_range_entry_runs_nothing(self, bad, message, tmp_path, capsys,
                                             monkeypatch):
        # every entry is checked in full before the first experiment runs
        runs = []
        monkeypatch.setattr(cli, "run_experiment", lambda *args: runs.append(args))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps([self.GRID_ENTRY, dict(self.GRID_ENTRY, **bad)]))
        code = main(["bench", str(grid_path), "--out", str(tmp_path / "b.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert "malformed grid entry" in captured.err
        assert message in captured.err
        assert runs == []
        assert not (tmp_path / "b.csv").exists()


class TestUsageErrors:
    def test_floor_option_is_gone(self, capsys):
        # the variance floor follows the mixture's level; nothing sets it
        with pytest.raises(SystemExit) as exc_info:
            main(["separate", "in.wav", "--floor", "1e-12"])
        captured = capsys.readouterr()
        assert exc_info.value.code == 1
        assert "unrecognized arguments: --floor" in captured.err

    def test_bad_beta_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["separate", "in.wav", "--model", "gg", "--beta", "2.5"])
        captured = capsys.readouterr()
        assert exc_info.value.code == 1
        assert "beta must lie in (0, 2]" in captured.err

    def test_negative_iters_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["separate", "in.wav", "--iters", "-5"])
        assert exc_info.value.code == 1

    def test_unknown_model_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["separate", "in.wav", "--model", "cauchy"])
        assert exc_info.value.code == 1

    def test_missing_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 1

    def test_zero_rho_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["separate", "in.wav", "--rho", "0"])
        captured = capsys.readouterr()
        assert exc_info.value.code == 1
        assert "rho must be > 0" in captured.err

    @pytest.mark.parametrize("argv,option", [
        (["separate", "in.wav", "--rho", "inf"], "rho"),
        (["separate", "in.wav", "--model", "t", "--nu", "inf"], "nu"),
        (["separate", "in.wav", "--model", "gh", "--gamma", "nan"], "gamma"),
        (["separate", "in.wav", "--seed", "-1"], "seed"),
        (["synth", "--duration", "inf"], "duration"),
        (["synth", "--noise-snr-db", "nan"], "noise-snr-db"),
        (["synth", "--seed", "-1"], "seed"),
        (["synth", "--duration", "0.5"], "duration"),
        (["synth", "-M", "9"], "mics"),
    ], ids=["rho-inf", "nu-inf", "gamma-nan", "separate-seed-neg",
            "duration-inf", "snr-nan", "synth-seed-neg", "duration-short",
            "mics-over-cap"])
    def test_non_finite_or_negative_knob_exits_one(self, argv, option, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        captured = capsys.readouterr()
        assert exc_info.value.code == 1
        assert f"error: argument --{option}: {option} must be" in captured.err


class TestRefusalText:
    # per model.SETTINGS entry: a value outside its range, the library check
    # that owns the value, and the long flag that reads the same entry
    CASES = {
        "n_sources": (0, lambda v: SeparationConfig(v, 1, 1), ["separate", "in.wav", "--sources"]),
        "n_bases": (0, lambda v: SeparationConfig(1, v, 1), ["separate", "in.wav", "--bases"]),
        "iterations": (-1, lambda v: SeparationConfig(1, 1, v),
                       ["separate", "in.wav", "--iters"]),
        "seed": (-1, lambda v: SeparationConfig(1, 1, 1, seed=v), ["separate", "in.wav", "--seed"]),
        "nu": (0.0, StudentT, ["separate", "in.wav", "--nu"]),
        "beta": (2.5, LeptokurticGG, ["separate", "in.wav", "--beta"]),
        "gamma": (float("nan"), lambda v: GH(v, 1.0, 1.0), ["separate", "in.wav", "--gamma"]),
        "rho": (-1.0, lambda v: NIG(rho=v, eta=1.0), ["separate", "in.wav", "--rho"]),
        "eta": (float("inf"), lambda v: GH(0.0, 1.0, v), ["separate", "in.wav", "--eta"]),
        "n_mics": (MAX_DIM + 1, lambda v: check_scene(1, v, 1.0, None), ["synth", "--mics"]),
        "duration_s": (0.5, lambda v: synth_scene(1, 1, v, seed=0), ["synth", "--duration"]),
        "noise_snr_db": (float("nan"), lambda v: check_scene(1, 1, 1.0, v),
                         ["synth", "--noise-snr-db"]),
        # only the flag reads it
        "workers": (0, None, ["bench", "grid.json", "--workers"]),
    }

    @pytest.mark.parametrize("name", sorted(SETTINGS))
    def test_library_and_flag_share_the_text(self, name, capsys):
        value, owner, argv = self.CASES[name]
        requirement = SETTINGS[name].requirement
        if owner is not None:
            with pytest.raises(ValueError) as refused:
                owner(value)
            assert f"{name} {requirement}, got" in str(refused.value)
        with pytest.raises(SystemExit) as exc_info:
            main(argv + [str(value)])
        flag = argv[-1][2:]
        assert exc_info.value.code == 1
        assert f"argument --{flag}: {flag} {requirement}, got" in capsys.readouterr().err


class TestParserDefaults:
    def test_separate_defaults(self):
        args = build_parser().parse_args(["separate", "in.wav"])
        assert args.model == "nig"
        assert args.nu == 40.0
        assert args.beta == 1.0
        assert args.gamma == -0.5
        assert args.rho == 15.0
        assert args.eta == 1.0
        assert args.bases == 8
        assert args.sources == 2
        assert args.iters == 300
        assert args.rank1 is False
        assert args.seed == 0
        assert args.out_dir == "."
        assert args.report is None
        assert args.multichannel is False

    def test_synth_defaults(self):
        args = build_parser().parse_args(["synth"])
        assert args.sources == 2
        assert args.mics == 2
        assert args.duration == 3.0
        assert args.noise_snr_db is None

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench", "grid.json"])
        assert args.out == "bench.csv"
        assert args.workers == 1
