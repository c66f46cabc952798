"""Command-line front end: config parsing, subcommands, exit codes."""

import argparse
import codecs
import os
import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tinysound import audio_io, augment, cli, deploy, model, tokenizer, train
from tinysound.audio_io import AudioClip
from tinysound.errors import CheckpointError, ConfigError

from conftest import SR, sine, write_synth_dataset


def write_cfg(path, **keys):
    lines = ["# test config"]
    lines += [f"{k} = {v}" for k, v in keys.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


TINY_KEYS = dict(feature="mel", n_fft=1024, win_length=1024, hop_length=512,
                 n_mels=128, window_samples=220500, hidden=16, layers=1,
                 heads=2, classes=6)

FAST_KEYS = dict(feature="mel", n_fft=512, win_length=512, hop_length=512,
                 n_mels=32, window_samples=8192, hidden=8, layers=1, heads=2,
                 batch_size=8, epochs=2, lr_peak=0.002, warmup_steps=10,
                 dropout=0.0)


class TestConfigFile:
    def test_parse_comments_and_values(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("a = 1  # trailing\n# whole line\n\nname = hello\n")
        values = cli.parse_config_file(path)
        assert values == {"a": "1", "name": "hello"}

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        # a comment starts at a line's first # or at a # after whitespace
        path = tmp_path / "c.cfg"
        path.write_text("data_root = /data/set#2   # note\n  # indented\n"
                        "layout = folder_per_class\t# after a tab\n")
        assert cli.parse_config_file(path) == {"data_root": "/data/set#2",
                                               "layout": "folder_per_class"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        for text, message in [
                ("just words\n", ":1: expected 'key = value'"),
                ("seed = 1\n = 5\n", ":2: expected 'key = value'"),  # no key
                ("n_mels = 64\nseed = 1\nn_mels = 128\n",
                 ":3: config key n_mels is already set on line 1")]:
            path.write_text(text)
            with pytest.raises(ConfigError, match=message):
                cli.parse_config_file(path)

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"seed = \xff\n")
        with pytest.raises(ConfigError, match="UTF-8"):
            cli.parse_config_file(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text("n_mels = 64\nseed = 1\n")
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert cli.parse_config_file(marked) == cli.parse_config_file(plain) == {
            "n_mels": "64", "seed": "1"}

    def test_undecodable_byte_after_a_bom_names_its_offset_in_the_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(codecs.BOM_UTF8 + b"seed = \xff\n")
        with pytest.raises(ConfigError, match="not UTF-8 text at byte 10$"):
            cli.parse_config_file(path)

    def test_typed_getters(self):
        cfg = cli.Config({"x": "3", "y": "0.5", "z": "true", "w": "off"})
        assert cfg.get("x", 0) == 3
        assert cfg.get("y", 0.0) == 0.5
        assert cfg.get("z", False) is True
        assert cfg.get("w", True) is False
        with pytest.raises(ConfigError):
            cfg.get("y", 0)

    def test_unreadable_vocab_path_names_its_key(self, tmp_path):
        cfg = cli.Config({"feature": "curve", "vocab_path": str(tmp_path / "missing.tscv")})
        with pytest.raises(ConfigError, match="vocab_path"):
            cli.pipeline_config(cfg)

    def test_augment_section(self):
        cfg = cli.Config({"augment": "true", "augment_probability": "0.4", "aug_echo_p": "0",
                          "aug_add_noise_p": "0.9"})
        specs = cli.augment_specs(cfg)
        assert [s.kind for s in specs] == list(augment.AUGMENTATIONS)
        kinds = {s.kind: s.probability for s in specs}
        assert kinds.pop("echo") == 0.0  # off: apply_pipeline never fires it
        assert kinds.pop("add_noise") == 0.9
        assert set(kinds.values()) == {0.4}

    @pytest.mark.parametrize("values, key", [
        ({"aug_pitch_shift_p": "2"}, "aug_pitch_shift_p"),
        ({"augment_probability": "1.5", "aug_echo_p": "0.5"}, "augment_probability")])
    def test_bad_augment_probability_names_its_key(self, values, key):
        with pytest.raises(ConfigError, match=rf"^config key {key}: probability must be in"):
            cli.augment_specs(cli.Config({"augment": "true", **values}))


# Every key the command line accepted before the key-to-field table existed,
# less the eleven aug_<kind> switches that aug_<kind>_p = 0 replaced and the
# seed key that --seed replaced.
_KEYS_BEFORE_TABLE = frozenset({
    "aug_add_noise_p", "aug_amplify_p", "aug_amplitude_clip_p", "aug_bitwise_downsample_p",
    "aug_echo_p", "aug_hpss_p", "aug_lowpass_p", "aug_partial_erase_p", "aug_pitch_shift_p",
    "aug_samplerate_downsample_p", "aug_speed_adjust_p", "augment", "augment_probability",
    "batch_size", "classes", "curve_len", "curve_mode", "data_root", "downsample",
    "dropout", "epochs", "feature", "heads", "hidden", "hop_length", "layers", "layout",
    "log_mel", "lr_peak", "n_coeffs", "n_fft", "n_mels", "normalize01", "reshape_cols",
    "reshape_rows", "resolution", "share_layers", "sweep_augment", "sweep_heads",
    "sweep_hop_length", "sweep_layers", "sweep_n_mels", "sweep_window_samples", "top_k",
    "val_fold", "val_fraction", "vocab_path", "warmup_steps", "win_length",
    "window_samples",
})

# Each config key that sets one field: a valid value unlike the default, the
# config that owns the field, the field, and the value it parses to.
_ONE_FIELD_KEYS = {
    "n_fft": ("2048", "spectrogram", "n_fft", 2048),
    "hop_length": ("256", "spectrogram", "hop_length", 256),
    "win_length": ("512", "spectrogram", "win_length", 512),
    "n_mels": ("64", "spectrogram", "n_mels", 64),
    "log_mel": ("off", "spectrogram", "log_scale", False),
    "feature": ("mfcc", "pipeline", "feature", "mfcc"),
    "downsample": ("2", "pipeline", "downsample", 2),
    "normalize01": ("yes", "pipeline", "normalize", True),
    "reshape_rows": ("256", "pipeline", "reshape_rows", 256),
    "reshape_cols": ("128", "pipeline", "reshape_cols", 128),
    "lr_peak": ("0.002", "train", "lr_peak", 0.002),
    "warmup_steps": ("5", "train", "warmup_steps", 5),
    "batch_size": ("8", "train", "batch_size", 8),
    "epochs": ("3", "train", "epochs", 3),
    "window_samples": ("8192", "train", "window_samples", 8192),
    "val_fraction": ("0.5", "train", "val_fraction", 0.5),
    "hidden": ("32", "model", "hidden", 32),
    "layers": ("2", "model", "layers", 2),
    "heads": ("4", "model", "heads", 4),
    "share_layers": ("true", "model", "share_layers", True),
    "dropout": ("0.25", "model", "dropout_rate", 0.25),
    "curve_len": ("4", "curve", "curve_len", 4),
    "resolution": ("16", "curve", "resolution", 16),
    "top_k": ("100", "curve", "top_k", 100),
    "curve_mode": ("relative", "curve", "mode", "relative"),
}


class _SpecSeen(Exception):
    pass


def one_field_values(values: dict, tmp_path, monkeypatch) -> dict:
    """Every field of ``_ONE_FIELD_KEYS`` as the command line builds it from
    ``values``: through ``train_config``, ``model_config`` and build-vocab."""
    cfg = cli.Config(values)
    tcfg = cli.train_config(cfg, 0)
    specs = []

    def seen(corpus, spec):
        specs.append(spec)
        raise _SpecSeen

    monkeypatch.setattr(cli, "load_dataset",
                        lambda cfg: audio_io.DatasetManifest((), ("a",)))
    monkeypatch.setattr(tokenizer, "build_curve_vocab", seen)
    with pytest.raises(_SpecSeen):
        cli.main(["build-vocab", "--config", write_cfg(tmp_path / "c.cfg", **values)])
    owners = {"spectrogram": tcfg.pipeline.spectrogram, "pipeline": tcfg.pipeline,
              "train": tcfg, "model": cli.model_config(cfg, tcfg.pipeline,
                                                       tcfg.window_samples, classes=3),
              "curve": specs[0]}
    return {(owner, field): getattr(owners[owner], field)
            for _, owner, field, _ in _ONE_FIELD_KEYS.values()}


class TestFieldKeys:
    def test_known_keys_unchanged(self):
        assert cli.KNOWN_KEYS == _KEYS_BEFORE_TABLE

    def test_every_table_key_has_a_case(self):
        assert set(cli._FIELD_KEYS) == set(_ONE_FIELD_KEYS)

    @pytest.mark.parametrize("key", sorted(_ONE_FIELD_KEYS))
    def test_key_sets_its_field_only(self, key, tmp_path, monkeypatch):
        raw, owner, field, value = _ONE_FIELD_KEYS[key]
        expected = one_field_values({}, tmp_path, monkeypatch)
        assert expected[owner, field] != value
        expected[owner, field] = value
        assert one_field_values({key: raw}, tmp_path, monkeypatch) == expected

    @pytest.mark.parametrize("key,kind", [("n_fft", "an integer"), ("lr_peak", "a number"),
                                          ("log_mel", "a boolean"), ("dropout", "a number")])
    def test_malformed_value_names_its_key(self, key, kind, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", **{key: "x1"})
        assert cli.main(["count", "--config", cfg]) == 2
        assert f"config key {key} is not {kind}: 'x1'" in capsys.readouterr().err


class TestExitCodes:
    def test_no_subcommand_usage_error(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_flag_usage_error(self):
        assert cli.main(["count", "--frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [["count"], ["eval", "--ckpt", "m.tsck"],
                                      ["predict", "in.wav", "--ckpt", "m.tsck"]],
                             ids=lambda a: a[0])
    def test_out_is_a_usage_error_where_nothing_is_written(self, tmp_path, capsys, argv):
        out = tmp_path / "x.txt"
        assert cli.main([*argv, "--out", str(out)]) == 1
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_failure_is_two(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", data_root=str(tmp_path / "missing"))
        assert cli.main(["train", "--config", cfg]) == 2

    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == 0

    def test_second_call_builds_no_parser(self, monkeypatch, capsys):
        assert cli.main(["count"]) == 0
        built, init = [], argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **k: built.append(a) or init(self, *a, **k))
        assert cli.main(["count"]) == 0
        assert built == []

    def test_unknown_keys_are_two_and_named(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", **dict(TINY_KEYS, hiden=32, n_mel=64))
        assert cli.main(["count", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "hiden" in captured.err and "n_mel" in captured.err
        assert "parameters" not in captured.out

    def test_bad_seed_names_its_key(self, tmp_path, capsys):
        # --seed is the seed's one spelling; a seed key is unknown
        cfg = write_cfg(tmp_path / "c.cfg", **dict(TINY_KEYS, seed=3))
        assert cli.main(["count", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unknown config keys: seed\n"
        assert "parameters" not in captured.out

    @pytest.mark.parametrize("command", ["train", "sweep", "augment-preview"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_negative_seed_names_seed(self, small_dataset, tmp_path, capsys, monkeypatch,
                                      command, flag):
        wav = tmp_path / "in.wav"
        audio_io.write_wav(wav, AudioClip(sine(500, 0.3), SR))
        keys = dict(FAST_KEYS, data_root=str(small_dataset), layout="folder_per_class",
                    sweep_n_mels="32", augment="true")
        cfg = write_cfg(tmp_path / "c.cfg", **keys, **({} if flag else {"seed": -1}))
        monkeypatch.setattr(train, "train_loop", lambda *a: pytest.fail("trained"))
        out = tmp_path / "out"
        argv = [command, *([str(wav)] if command == "augment-preview" else []),
                "--config", cfg, "--out", str(out), *(["--seed", "-1"] if flag else [])]
        assert cli.main(argv) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        # the key is no spelling of the seed, so it is named as unknown
        want = "seed must be non-negative, got -1" if flag else "unknown config keys: seed"
        assert errors == [f"error: {want}"]
        assert not out.exists()

    @pytest.mark.parametrize("command, option", [
        ("predict", "--seed"), ("count", "--seed"), ("quantize", "--seed"),
        ("build-vocab", "--seed"), ("quantize", "--config")])
    def test_an_option_the_command_does_not_read_is_a_usage_error(
            self, run_dir, tmp_path, capsys, monkeypatch, command, option):
        _, cfg, run = run_dir
        wav, out, ckpt = tmp_path / "in.wav", tmp_path / "out", str(run / "best.tsck")
        audio_io.write_wav(wav, AudioClip(sine(700, 0.3), SR))
        argv = {"predict": [str(wav), "--config", cfg, "--ckpt", ckpt], "count": ["--config", cfg],
                "quantize": ["--ckpt", ckpt, "--out", str(out)],
                "build-vocab": ["--config", cfg, "--out", str(out)]}[command]
        extracted = []
        monkeypatch.setattr(train.PipelineConfig, "extract", lambda *a: extracted.append(a))
        value = cfg if option == "--config" else "1"
        assert cli.main([command, *argv, option, value]) == 1
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {option} {value}" in captured.err
        assert captured.out == "" and extracted == [] and not out.exists()

    @pytest.mark.parametrize("command, out", [("train", "a_file"), ("sweep", "a_dir"),
                                              ("sweep", "a_file/sweep.csv")])
    def test_bad_out_is_two_before_training(self, small_dataset, tmp_path, capsys, monkeypatch,
                                            command, out):
        (tmp_path / "a_file").write_text("")
        (tmp_path / "a_dir").mkdir()
        keys = dict(FAST_KEYS, data_root=str(small_dataset), layout="folder_per_class")
        cfg = write_cfg(tmp_path / "c.cfg", **keys, **({"sweep_n_mels": "32"}
                                                       if command == "sweep" else {}))
        monkeypatch.setattr(train, "train_loop", lambda *a: pytest.fail("trained"))
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / out)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and str(tmp_path / "a_") in errors[0]
        if out == "a_dir":
            assert "sweep --out" in errors[0]

    def test_known_keys_are_the_keys_read(self):
        source = Path(cli.__file__).read_text()
        read = set(re.findall(r'(?:cfg|config)\.get\("(\w+)"', source))
        families = {k for k in cli.KNOWN_KEYS if k.startswith(("aug_", "sweep_"))}
        assert read == cli.KNOWN_KEYS - families - set(cli._FIELD_KEYS)

    def test_diverging_train_is_two(self, small_dataset, tmp_path, capsys):
        keys = dict(FAST_KEYS, epochs=3, lr_peak=1e38, warmup_steps=0)
        cfg = write_cfg(tmp_path / "c.cfg", data_root=str(small_dataset),
                        layout="folder_per_class", **keys)
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.splitlines()
        errors = [line for line in err if line.startswith("error:")]
        assert len(errors) == 1 and "diverged at epoch" in errors[0]

    @pytest.mark.parametrize("fraction", ["nan", "-1.0", "1.0"])
    def test_bad_val_fraction_is_two(self, small_dataset, tmp_path, capsys, fraction):
        cfg = write_cfg(tmp_path / "c.cfg", data_root=str(small_dataset),
                        layout="folder_per_class", **dict(FAST_KEYS, val_fraction=fraction))
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.splitlines()
        errors = [line for line in err if line.startswith("error:")]
        assert len(errors) == 1 and "val_fraction" in errors[0]

    def test_manifest_listing_a_file_twice_is_two(self, tmp_path, capsys):
        (tmp_path / "audio").mkdir()
        audio_io.write_wav(tmp_path / "audio" / "c0.wav", AudioClip(sine(440, 0.2), SR))
        (tmp_path / "m.csv").write_text("filename,fold,target,category\n"
                                        "c0.wav,1,0,dog\nc0.wav,2,0,dog\n")
        cfg = write_cfg(tmp_path / "c.cfg", data_root=str(tmp_path), layout="csv_manifest",
                        val_fold=1, **FAST_KEYS)
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "c0.wav more than once" in errors[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_fewer_than_one_epoch_is_two(self, small_dataset, tmp_path, capsys, epochs):
        cfg = write_cfg(tmp_path / "c.cfg", data_root=str(small_dataset),
                        layout="folder_per_class", **dict(FAST_KEYS, epochs=epochs))
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        assert "epochs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


def _commands(parser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


# Every option each command registers: a command takes only the options it reads.
_CLI_OPTIONS = {
    "build-vocab": {"config", "out"}, "augment-preview": {"input", "config", "seed", "out"},
    "train": {"config", "seed", "out"}, "finetune": {"config", "seed", "base", "out"},
    "eval": {"config", "seed", "ckpt"}, "predict": {"input", "config", "ckpt", "quantized"},
    "count": {"config"}, "quantize": {"ckpt", "out"}, "sweep": {"config", "seed", "out", "budget"},
}


def test_cli_options_unchanged():
    registered = {name: {a.dest for a in p._actions if a.dest != "help"}
                  for name, p in _commands(cli.build_parser()).items()}
    assert registered == _CLI_OPTIONS


def test_readme_command_lines_parse():
    """Every ``tinysound`` line of the README's Command line section parses, and
    together they show every command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    parser, commands = cli.build_parser(), set()
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)[1:]
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
        commands.add(args.command)
    assert commands == set(_commands(parser))


class TestCount:
    def test_reference_tiny_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "tiny.cfg", **TINY_KEYS)
        assert cli.main(["count", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "6,642" in out
        assert "(total forward pass): 8,173,792" in out
        assert "(executed, last layer one query with no keys or values): 925,344" in out

    def test_one_second_variant(self, tmp_path, capsys):
        keys = dict(TINY_KEYS, window_samples=44100)
        cfg = write_cfg(tmp_path / "t.cfg", **keys)
        cli.main(["count", "--config", cfg])
        assert "5,954" in capsys.readouterr().out

    def test_readme_sample_config(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        assert cli.main(["count", "--config", str(cfg)]) == 0
        assert "parameters: 6,642" in capsys.readouterr().out


class TestModelFiles:
    """``quantize`` and the two formats that ``predict`` reads."""

    SMALL = model.ModelConfig(input_dim=6, seq_len=5, hidden=4, heads=2, classes=3)

    def test_quantize_prints_file_size_and_int8_payload(self, tmp_path, capsys):
        ckpt, out = tmp_path / "m.tsck", tmp_path / "m.tscq"
        model.save_checkpoint(ckpt, model.init_model(model.ModelConfig(),
                                                     np.random.default_rng(0)))
        assert cli.main(["quantize", "--ckpt", str(ckpt)]) == 0
        assert capsys.readouterr().out == (f"wrote {out} ({out.stat().st_size} bytes, "
                                           f"int8 weight payload 5472 bytes)\n")

    @pytest.mark.parametrize("spelling", ["same", "dotdot"])
    def test_quantize_refuses_to_overwrite_its_checkpoint(self, tmp_path, capsys, spelling):
        ckpt = tmp_path / "m.tsck"
        model.save_checkpoint(ckpt, model.init_model(self.SMALL, np.random.default_rng(0)))
        before = ckpt.read_bytes()
        (tmp_path / "sub").mkdir()
        out = str(ckpt) if spelling == "same" else f"{tmp_path}/sub/../m.tsck"
        assert cli.main(["quantize", "--ckpt", str(ckpt), "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error:")
        assert f"--out {out} " in errors[0] and f"--ckpt {ckpt}" in errors[0]
        assert ckpt.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.tsck", "sub"]

    @pytest.mark.parametrize("quantized", [False, True], ids=["tscq-no-flag", "tsck-flag"])
    @pytest.mark.parametrize("command", ["predict"])
    def test_file_of_the_other_format_names_it_and_the_flag(
            self, tmp_path, capsys, monkeypatch, command, quantized):
        params = model.init_model(self.SMALL, np.random.default_rng(0))
        path = tmp_path / ("m.tsck" if quantized else "m.tscq")
        if quantized:
            model.save_checkpoint(path, params)
        else:
            deploy.save_quantized(path, deploy.quantize_dynamic(params))
        wav = tmp_path / "in.wav"
        audio_io.write_wav(wav, AudioClip(sine(700, 0.3), SR))
        extracted = []
        monkeypatch.setattr(train.PipelineConfig, "extract", lambda *a: extracted.append(a))
        argv = [command, str(wav), "--ckpt", str(path)] + ["--quantized"] * quantized
        assert cli.main(argv) == 2
        found, fix = ("checkpoint", "drop") if quantized else ("quantized checkpoint", "add")
        want = f"error: {path} is a {found} by its magic: {fix} --quantized\n"
        assert capsys.readouterr().err == want
        assert extracted == []


@pytest.fixture(scope="module")
def vocab_8_16(tmp_path_factory):
    path = tmp_path_factory.mktemp("vocab") / "v.tscv"
    spec = tokenizer.CurveSpec(curve_len=8, resolution=16)
    tokenizer.save_vocab(path, tokenizer.CurveVocab(spec, [(0,) * 8, (1,) * 8]))
    return str(path)


class TestFeaturize:
    # configs whose pipeline cannot run, each with the key its error names
    @pytest.mark.parametrize("keys, named", [
        ({"feature": "mfcc", "n_coeffs": -1}, "n_coeffs"),
        ({"feature": "mfcc", "n_coeffs": -200}, "n_coeffs"),
        ({"feature": "mfcc", "n_coeffs": 129}, "n_coeffs"),  # above n_mels = 128
        ({"feature": "amplitude", "reshape_rows": 0}, "reshape_rows"),
        ({"feature": "amplitude", "reshape_cols": 0}, "reshape_cols"),
        ({"window_samples": 1}, "window_samples"),
        ({"feature": "amplitude", "reshape_rows": 100, "reshape_cols": 1000}, "window_samples"),
        ({"feature": "mel", "n_coeffs": 13}, "n_coeffs"),  # only mfcc takes it
        ({"feature": "amplitude", "reshape_rows": 16, "reshape_cols": 64, "n_coeffs": 13},
         "n_coeffs"),
        ({"feature": "mfcc", "log_mel": "false"}, "log_mel"),  # mfcc takes log mel energies
        ({"feature": "mel", "n_coeffs": 0}, "n_coeffs"),  # 0 is not "unset"
        ({"feature": "mfcc", "n_coeffs": 0}, "n_coeffs"),  # 0 is not "all"
        # one spelling per setting: leaving val_fold out unsets it, and p = 0 turns a kind off
        ({"val_fold": -1}, "val_fold"),
        ({"val_fold": -3}, "val_fold"),
        ({"augment": "true", "aug_echo": "false", "aug_echo_p": "0.9"}, "aug_echo"),
        # a curve pipeline feeds token ids: no downsampling or normalizing of them
        ({"feature": "curve", "downsample": 4}, "downsample"),
        ({"feature": "curve", "normalize01": "true"}, "normalize01"),
        # a curve key set in the config must match the vocabulary, built at 8/16
        ({"feature": "curve", "curve_len": 16}, "curve_len"),
        ({"feature": "curve", "resolution": 64}, "resolution"),
        ({"feature": "curve", "top_k": 100}, "top_k"),
        ({"feature": "curve", "curve_mode": "relative"}, "curve_mode"),
    ])
    @pytest.mark.parametrize("command", ["count"])  # builds the pipeline from the config alone
    def test_unrunnable_pipeline_is_two_and_names_its_key(self, tmp_path, capsys, command,
                                                          keys, named, vocab_8_16):
        cfg = write_cfg(tmp_path / "c.cfg", **{**TINY_KEYS, "window_samples": 44100,
                                               "vocab_path": vocab_8_16, **keys})
        assert cli.main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and named in errors[0], captured.err
        assert "parameters" not in captured.out


class TestAugmentPreview:
    def test_writes_wav(self, tmp_path):
        wav = tmp_path / "in.wav"
        audio_io.write_wav(wav, AudioClip(sine(500, 0.3), SR))
        out = tmp_path / "out.wav"
        assert cli.main(["augment-preview", str(wav), "--seed", "3",
                         "--out", str(out)]) == 0
        preview = audio_io.read_wav(out)
        assert len(preview) == len(audio_io.read_wav(wav))
        assert np.max(np.abs(preview.samples)) <= 1.0

    def test_empty_wav_writes_an_empty_wav(self, tmp_path):
        # every transform of the default pipeline, hpss too, keeps a 0-frame clip
        wav, out = tmp_path / "in.wav", tmp_path / "out.wav"
        audio_io.write_wav(wav, AudioClip(np.zeros(0), SR))
        assert cli.main(["augment-preview", str(wav), "--out", str(out)]) == 0
        assert len(audio_io.read_wav(out)) == 0

    def test_every_transform_disabled_keeps_the_input(self, tmp_path):
        wav, out = tmp_path / "in.wav", tmp_path / "out.wav"
        audio_io.write_wav(wav, AudioClip(sine(500, 0.3), SR))
        keys = {"augment": "true", **{f"aug_{kind}_p": "0" for kind in augment.AUGMENTATIONS}}
        cfg = write_cfg(tmp_path / "c.cfg", **keys)
        assert cli.main(["augment-preview", str(wav), "--config", cfg, "--out", str(out)]) == 0
        assert out.read_bytes() == wav.read_bytes()


class TestBuildVocab:
    def test_writes_vocab(self, small_dataset, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", data_root=str(small_dataset),
                        layout="folder_per_class", curve_len=8, resolution=64,
                        top_k=500)
        out = tmp_path / "v.tscv"
        assert cli.main(["build-vocab", "--config", cfg, "--out", str(out)]) == 0
        vocab = tokenizer.load_vocab(out)
        assert 0 < len(vocab) <= 500
        assert "vocab_coverage" in capsys.readouterr().out


@pytest.fixture(scope="module")
def run_dir(small_dataset, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_run")
    cfg = write_cfg(tmp / "c.cfg", data_root=str(small_dataset),
                    layout="folder_per_class", **FAST_KEYS)
    out = tmp / "run"
    code = cli.main(["train", "--config", cfg, "--seed", "7", "--out", str(out)])
    assert code == 0
    return tmp, cfg, out


class TestTrainEvalPredict:
    def test_train_writes_artifacts(self, run_dir):
        _, _, out = run_dir
        assert (out / "best.tsck").exists()
        assert (out / "last.tsck").exists()
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_acc"
        assert len(lines) == 3

    def test_train_seed_reproducible(self, run_dir, tmp_path):
        tmp, cfg, out = run_dir
        again = tmp_path / "again"
        assert cli.main(["train", "--config", cfg, "--seed", "7",
                         "--out", str(again)]) == 0
        assert (again / "metrics.csv").read_text() == (out / "metrics.csv").read_text()

    def test_eval(self, run_dir, capsys):
        _, cfg, out = run_dir
        assert cli.main(["eval", "--config", cfg, "--ckpt",
                         str(out / "best.tsck")]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_eval_refuses_a_dataset_of_other_classes(self, run_dir, tmp_path, capsys,
                                                     monkeypatch):
        _, cfg, out = run_dir  # a 3-class dataset
        six = [f"class{k}" for k in range(6)]
        mcfg = replace(model.load_checkpoint(out / "best.tsck").params.cfg, classes=6)
        path = tmp_path / "six.tsck"
        model.save_checkpoint(path, model.init_model(mcfg, np.random.default_rng(0)),
                              metadata={"class_names": six})
        decoded = []
        monkeypatch.setattr(audio_io, "load_audio", lambda *a: decoded.append(a))
        assert cli.main(["eval", "--config", cfg, "--ckpt", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(six) in err and "['clicks', 'noise', 'tone']" in err
        assert decoded == []

    def test_eval_holds_out_what_the_run_held_out(self, small_dataset, tmp_path, capsys,
                                                  monkeypatch):
        cfg = write_cfg(tmp_path / "c.cfg", data_root=str(small_dataset),
                        layout="folder_per_class", **dict(FAST_KEYS, epochs=1))
        run = tmp_path / "run"
        assert cli.main(["train", "--config", cfg, "--seed", "1", "--out", str(run)]) == 0
        capsys.readouterr()
        evaluate, scored = train.evaluate, []
        monkeypatch.setattr(train, "evaluate", lambda *a: scored.append(a[1]) or evaluate(*a))
        assert cli.main(["eval", "--config", cfg, "--ckpt", str(run / "best.tsck")]) == 0
        config = cli.Config(cli.parse_config_file(cfg))
        manifest, tcfg = cli.load_dataset(config), cli.train_config(config, seed=1)
        held_out = train.split_manifest(manifest, tcfg)[1]
        # the config's seed, 0, would score other clips
        assert held_out != train.split_manifest(manifest, replace(tcfg, seed=0))[1]
        assert scored == [held_out]
        acc = train.evaluate(model.load_checkpoint(run / "best.tsck").params, held_out, tcfg)
        want = f"accuracy {acc:.4f} over {len(held_out)} held-out clips\n"
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("trained, evaluated", [
        ({}, {"val_fraction": 0.5}), ({"val_fold": 1}, {"val_fold": 2})],
        ids=["val_fraction", "val_fold"])
    def test_eval_holds_out_the_runs_split(self, tmp_path, capsys, monkeypatch, trained,
                                           evaluated):
        audio = write_synth_dataset(tmp_path / "data" / "audio", per_class=4, seed=3)
        rows = [f"{p.relative_to(audio).as_posix()},{1 + i % 3},0,{p.parent.name}"
                for i, p in enumerate(sorted(audio.rglob("*.wav")))]
        (tmp_path / "data" / "m.csv").write_text("filename,fold,target,category\n"
                                                 + "\n".join(rows) + "\n")
        keys = dict(FAST_KEYS, data_root=str(tmp_path / "data"), layout="csv_manifest", epochs=1)
        cfg = write_cfg(tmp_path / "train.cfg", **keys, **trained)
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        evaluate, scored = train.evaluate, []
        monkeypatch.setattr(train, "evaluate", lambda *a: scored.append(a[1]) or evaluate(*a))
        other = write_cfg(tmp_path / "eval.cfg", **keys, **evaluated)
        ckpt = str(tmp_path / "run" / "best.tsck")
        assert cli.main(["eval", "--config", other, "--ckpt", ckpt]) == 0
        config = cli.Config(cli.parse_config_file(cfg))
        manifest = cli.load_dataset(config)
        held_out = train.split_manifest(manifest, cli.train_config(config, seed=0))[1]
        asked = cli.train_config(cli.Config(cli.parse_config_file(other)), seed=0)
        assert held_out != train.split_manifest(manifest, asked)[1]
        assert scored == [held_out]
        assert capsys.readouterr().out.endswith(f" over {len(held_out)} held-out clips\n")

    def test_eval_of_a_checkpoint_without_a_run_record_takes_the_config(
            self, run_dir, tmp_path, capsys, monkeypatch):
        _, cfg, out = run_dir  # trained at seed 7
        ckpt = model.load_checkpoint(out / "best.tsck")
        bare = tmp_path / "bare.tsck"
        model.save_checkpoint(bare, ckpt.params,
                              metadata={"class_names": ckpt.metadata["class_names"]})
        other = write_cfg(tmp_path / "o.cfg", **dict(cli.parse_config_file(cfg),
                                                     val_fraction=0.5))
        evaluate, scored = train.evaluate, []
        monkeypatch.setattr(train, "evaluate", lambda *a: scored.append(a[1]) or evaluate(*a))
        assert cli.main(["eval", "--config", other, "--seed", "1", "--ckpt", str(bare)]) == 0
        config = cli.Config(cli.parse_config_file(other))
        assert scored == [train.split_manifest(cli.load_dataset(config),
                                               cli.train_config(config, seed=1))[1]]

    @pytest.mark.parametrize("quantized", [False, True], ids=["tsck", "tscq"])
    @pytest.mark.parametrize("command", ["predict"])
    def test_window_comes_from_the_checkpoint(self, run_dir, tmp_path, capsys, command,
                                              quantized):
        _, cfg, out = run_dir  # trained at window_samples = 8192
        ckpt = str(out / "best.tsck")
        if quantized:
            ckpt = str(tmp_path / "m.tscq")
            assert cli.main(["quantize", "--ckpt", str(out / "best.tsck"), "--out", ckpt]) == 0
        keys = cli.parse_config_file(cfg)
        del keys["window_samples"]
        bare = write_cfg(tmp_path / "bare.cfg", **keys)
        wav = tmp_path / "probe.wav"
        audio_io.write_wav(wav, AudioClip(sine(700, 0.3), SR))
        printed = []
        for config in (cfg, bare):
            argv = [command, str(wav), "--config", config, "--ckpt", ckpt]
            argv += ["--quantized"] * quantized
            capsys.readouterr()
            assert cli.main(argv) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    @pytest.mark.parametrize("record", [{"seed": "x"}, {"window_samples": 2.5},
                                        {"val_fraction": 2}, {"val_fold": "x"}],
                             ids=lambda r: next(iter(r)))
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_bad_run_record_is_two(self, run_dir, tmp_path, capsys, monkeypatch, command,
                                   record):
        _, cfg, out = run_dir
        ckpt = model.load_checkpoint(out / "best.tsck")
        path = tmp_path / "bad.tsck"
        model.save_checkpoint(path, ckpt.params, metadata={**ckpt.metadata, **record})
        extracted = []
        monkeypatch.setattr(train.PipelineConfig, "extract", lambda *a: extracted.append(a))
        argv = [command, "--config", cfg, "--ckpt", str(path)]
        if command == "predict":
            wav = tmp_path / "probe.wav"
            audio_io.write_wav(wav, AudioClip(sine(700, 0.3), SR))
            argv.insert(1, str(wav))
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        name = next(iter(record))
        assert err.startswith(f"error: checkpoint metadata: {name} must be ")
        assert "Traceback" not in err and extracted == []
        with pytest.raises(CheckpointError, match=name):
            train.run_config(model.load_checkpoint(path).metadata, train.TrainConfig())

    def test_predict_names_class_and_probabilities(self, run_dir, tmp_path, capsys):
        _, cfg, out = run_dir
        wav = tmp_path / "probe.wav"
        audio_io.write_wav(wav, AudioClip(sine(700, 0.3), SR))
        assert cli.main(["predict", str(wav), "--config", cfg,
                         "--ckpt", str(out / "best.tsck")]) == 0
        text = capsys.readouterr().out
        assert "prediction:" in text
        for name in ("clicks", "noise", "tone"):
            assert name in text

    def test_predict_quantized_names_the_class_qforward_gives(self, run_dir, tmp_path, capsys):
        _, cfg, out = run_dir
        qpath, wav = tmp_path / "m.tscq", tmp_path / "probe.wav"
        assert cli.main(["quantize", "--ckpt", str(out / "best.tsck"),
                         "--out", str(qpath)]) == 0
        audio_io.write_wav(wav, AudioClip(sine(700, 0.3), SR))
        capsys.readouterr()
        assert cli.main(["predict", str(wav), "--config", cfg, "--ckpt", str(qpath),
                         "--quantized"]) == 0
        tcfg = cli.train_config(cli.Config(cli.parse_config_file(cfg)), seed=0)
        window = audio_io.center_slice(audio_io.load_audio(wav), tcfg.window_samples)
        qparams = deploy.load_quantized(qpath)
        logits = deploy.qforward(qparams, tcfg.pipeline.extract(window)[None, ...])[0]
        want = qparams.metadata["class_names"][int(np.argmax(logits))]
        assert capsys.readouterr().out.splitlines()[0] == f"prediction: {want}"

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_pipeline_model_mismatch_exits_2_before_featurizing(
            self, run_dir, tmp_path, capsys, monkeypatch, command):
        _, cfg, out = run_dir  # trained at 32 mels
        wrong = write_cfg(tmp_path / "w.cfg", **dict(cli.parse_config_file(cfg), n_mels=16))
        extracted = []
        monkeypatch.setattr(train.PipelineConfig, "extract", lambda *a: extracted.append(a))
        argv = [command, "--config", wrong, "--ckpt", str(out / "best.tsck")]
        if command == "predict":
            wav = tmp_path / "probe.wav"
            audio_io.write_wav(wav, AudioClip(sine(700, 0.3), SR))
            argv.insert(1, str(wav))
        assert cli.main(argv) == 2
        assert "pipeline produces" in capsys.readouterr().err
        assert extracted == []

    def test_finetune(self, run_dir, tmp_path, capsys):
        tmp, cfg, out = run_dir
        dest = tmp_path / "ft"
        assert cli.main(["finetune", "--config", cfg, "--base",
                         str(out / "best.tsck"), "--out", str(dest)]) == 0
        assert (dest / "best.tsck").exists()

    def test_finetune_trains_at_the_configured_dropout(self, run_dir, small_dataset, tmp_path):
        _, _, out = run_dir
        cfg = write_cfg(tmp_path / "ft.cfg", data_root=str(small_dataset),
                        layout="folder_per_class", **dict(FAST_KEYS, dropout=0.3, epochs=1))
        dest = tmp_path / "ft"
        assert cli.main(["finetune", "--config", cfg, "--base",
                         str(out / "best.tsck"), "--out", str(dest)]) == 0
        assert model.load_checkpoint(dest / "last.tsck").params.cfg.dropout_rate == 0.3


class TestSweep:
    def _base_keys(self, dataset):
        keys = dict(FAST_KEYS, data_root=str(dataset), layout="folder_per_class")
        keys["epochs"] = 1
        return keys

    def test_single_point_grid(self, small_dataset, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", sweep_n_mels="32",
                        **self._base_keys(small_dataset))
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "point,best_val_acc"
        assert len(lines) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "sweep.csv"]

    def test_failed_replace_keeps_the_old_csv(self, small_dataset, tmp_path, monkeypatch,
                                              capsys):
        cfg = write_cfg(tmp_path / "c.cfg", sweep_n_mels="32",
                        **self._base_keys(small_dataset))
        out = tmp_path / "sweep.csv"
        out.write_bytes(b"point,best_val_acc\nold,0.5\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "best_val_acc=" in captured.out and "disk full" in captured.err
        assert out.read_bytes() == b"point,best_val_acc\nold,0.5\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "sweep.csv"]

    def test_out_in_a_missing_folder_is_made_first(self, small_dataset, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", sweep_n_mels="32",
                        **self._base_keys(small_dataset))
        out = tmp_path / "new" / "sweep.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().startswith("point,best_val_acc\n")

    def test_two_by_two_grid(self, small_dataset, tmp_path):
        keys = self._base_keys(small_dataset)
        cfg = write_cfg(tmp_path / "c.cfg", sweep_n_mels="16,32",
                        sweep_heads="1,2", **keys)
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 5

    def test_budget_subsamples_deterministically(self, small_dataset, tmp_path):
        keys = self._base_keys(small_dataset)
        cfg = write_cfg(tmp_path / "c.cfg", sweep_n_mels="4,8,12,16,20,24,28,32",
                        sweep_heads="1,2,4", **keys)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert cli.main(["sweep", "--config", cfg, "--budget", "3",
                         "--seed", "5", "--out", str(out1)]) == 0
        assert cli.main(["sweep", "--config", cfg, "--budget", "3",
                         "--seed", "5", "--out", str(out2)]) == 0
        lines = out1.read_text().strip().splitlines()
        assert len(lines) == 4
        assert out1.read_text() == out2.read_text()

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one_is_two_before_training(self, small_dataset, tmp_path, capsys,
                                                     monkeypatch, budget):
        cfg = write_cfg(tmp_path / "c.cfg", sweep_n_mels="16,32",
                        **self._base_keys(small_dataset))
        monkeypatch.setattr(train, "train_loop", lambda *a: pytest.fail("trained"))
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", cfg, "--budget", budget, "--out", str(out)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and "--budget" in errors[0] and not out.exists()

    def test_bad_point_is_two_before_any_point_trains(self, small_dataset, tmp_path, capsys,
                                                      monkeypatch):
        cfg = write_cfg(tmp_path / "c.cfg", sweep_layers="1,0",
                        **self._base_keys(small_dataset))
        trained = []
        monkeypatch.setattr(train, "train_loop", lambda *a: trained.append(a))
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "sweep point layers=0: layers must be" in capsys.readouterr().err
        assert trained == [] and not out.exists()

    def test_empty_grid_rejected(self, small_dataset, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", **self._base_keys(small_dataset))
        assert cli.main(["sweep", "--config", cfg]) == 2

    def test_unswept_key_rejected_before_training(self, small_dataset, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", sweep_n_mels="16,32", sweep_dropout="0,0.1",
                        **self._base_keys(small_dataset))
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "sweep_dropout" in captured.err
        assert "best_val_acc" not in captured.out and not out.exists()


# ---------------------------------------------------------------------------
# Config properties: any file or any value of a known key gives a config or a
# ConfigError
# ---------------------------------------------------------------------------

_LINE = st.tuples(st.text(max_size=12), st.text(max_size=12)).map(" = ".join)


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(
    st.binary(max_size=96),
    st.lists(st.one_of(_LINE, st.text(max_size=16)), max_size=6)
    .map(lambda lines: "\n".join(lines).encode()),
))
def test_config_file_parses_or_raises_config_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(data)
    try:
        values = cli.parse_config_file(path)
    except ConfigError:
        return
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in values.items())


_KNOWN_KEYS = sorted(cli.KNOWN_KEYS)

_VALUES = st.one_of(
    st.integers(-(2**40), 2**40).map(str),
    st.integers(-4, 600).map(str),
    st.floats().map(str),
    st.sampled_from(["mel", "mfcc", "amplitude", "curve", "true", "off", "", "1e3"]),
    st.text(max_size=8),
)


@settings(max_examples=500, deadline=None)
@given(values=st.dictionaries(st.sampled_from(_KNOWN_KEYS), _VALUES, max_size=10))
def test_known_keys_give_configs_or_config_error(values):
    cfg = cli.Config(values)
    try:
        tcfg = cli.train_config(cfg, 0)
        cli.model_config(cfg, tcfg.pipeline, tcfg.window_samples, classes=3)
    except ConfigError as exc:
        if len(values) == 1:  # the error names the one key that was set
            assert re.search(rf"\b{re.escape(next(iter(values)))}\b", str(exc)), str(exc)


@pytest.mark.parametrize("call, named", [
    (lambda: cli.pipeline_config(cli.Config({"feature": "curve"})), "a vocab_path config key"),
    (lambda: cli.load_dataset(cli.Config({"layout": "csv_manifest"})), "config key data_root"),
], ids=["curve-without-vocab_path", "no-data_root"])
def test_cli_raise_sites_name_their_key(call, named):
    with pytest.raises(ConfigError, match=named) as raised:
        call()
    assert raised.type is ConfigError
