"""Command-line front end: config parsing, subcommands, exit codes."""

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tinysound import audio_io, cli, dsp, model, tokenizer, train
from tinysound.audio_io import AudioClip
from tinysound.errors import ConfigError

from conftest import SR, sine


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

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError):
            cli.parse_config_file(path)

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"seed = \xff\n")
        with pytest.raises(ConfigError, match="UTF-8"):
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
        cfg = cli.Config({"augment": "true", "aug_echo": "false",
                          "aug_add_noise_p": "0.9"})
        specs = cli.augment_specs(cfg)
        kinds = {s.kind: s for s in specs}
        assert "echo" not in kinds
        assert kinds["add_noise"].probability == 0.9
        assert len(specs) == 10


# Every key the command line accepted before the key-to-field table existed.
_KEYS_BEFORE_TABLE = frozenset({
    "aug_add_noise", "aug_add_noise_p", "aug_amplify", "aug_amplify_p", "aug_amplitude_clip",
    "aug_amplitude_clip_p", "aug_bitwise_downsample", "aug_bitwise_downsample_p", "aug_echo",
    "aug_echo_p", "aug_hpss", "aug_hpss_p", "aug_lowpass", "aug_lowpass_p",
    "aug_partial_erase", "aug_partial_erase_p", "aug_pitch_shift", "aug_pitch_shift_p",
    "aug_samplerate_downsample", "aug_samplerate_downsample_p", "aug_speed_adjust",
    "aug_speed_adjust_p", "augment", "augment_probability", "batch_size", "classes",
    "curve_len", "curve_mode", "data_root", "downsample", "dropout", "epochs", "feature",
    "heads", "hidden", "hop_length", "layers", "layout", "log_mel", "lr_peak", "n_coeffs",
    "n_fft", "n_mels", "normalize01", "reshape_cols", "reshape_rows", "resolution", "seed",
    "share_layers", "sweep_augment", "sweep_heads", "sweep_hop_length", "sweep_layers",
    "sweep_n_mels", "sweep_window_samples", "top_k", "val_fold", "val_fraction", "vocab_path",
    "warmup_steps", "win_length", "window_samples",
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
                        lambda cfg: audio_io.DatasetManifest((), ("a",), "csv"))
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

    def test_runtime_failure_is_two(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", data_root=str(tmp_path / "missing"))
        assert cli.main(["train", "--config", cfg]) == 2

    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == 0

    def test_unknown_keys_are_two_and_named(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", **dict(TINY_KEYS, hiden=32, n_mel=64))
        assert cli.main(["count", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "hiden" in captured.err and "n_mel" in captured.err
        assert "parameters" not in captured.out

    def test_bad_seed_names_its_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", **dict(TINY_KEYS, seed="abc"))
        assert cli.main(["count", "--config", cfg]) == 2
        assert "config key seed is not an integer" in capsys.readouterr().err

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


class TestCount:
    def test_reference_tiny_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "tiny.cfg", **TINY_KEYS)
        assert cli.main(["count", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "6,642" in out
        assert "(total forward pass): 8,173,792" in out
        assert "(executed, last layer at position 0): 1,131,232" in out

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


class TestFeaturize:
    @pytest.mark.parametrize("feature", [dsp.MEL, dsp.MFCC, dsp.AMPLITUDE])
    def test_writes_loadable_features(self, tmp_path, capsys, feature):
        wav = tmp_path / "x.wav"
        audio_io.write_wav(wav, AudioClip(sine(440, 0.5), SR))
        cfg = write_cfg(tmp_path / "c.cfg", **dict(FAST_KEYS, feature=feature,
                                                   reshape_rows=16, reshape_cols=32))
        out = tmp_path / "x.tsfm"
        assert cli.main(["featurize", str(wav), "--config", cfg, "--out", str(out)]) == 0
        feats, kind = dsp.load_features(out)
        assert feats.shape == (16, 32)  # 8192 / 512 frames, or 16 rows of 32 samples
        assert kind == feature
        assert out.read_bytes()[12] == dsp.FEATURE_KINDS.index(feature)  # after magic, L, F


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

    def test_quantize_and_bench(self, run_dir, tmp_path, capsys):
        _, cfg, out = run_dir
        qpath = tmp_path / "m.tscq"
        assert cli.main(["quantize", "--ckpt", str(out / "best.tsck"),
                         "--out", str(qpath)]) == 0
        capsys.readouterr()
        assert cli.main(["bench", "--config", cfg, "--ckpt", str(qpath),
                         "--quantized", "--runs", "4"]) == 0
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert record["quantized"] is True
        assert record["runs"] == 4

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_bench_without_runs_exits_2_before_featurizing(self, run_dir, capsys, monkeypatch,
                                                           runs):
        _, cfg, out = run_dir
        extracted = []
        monkeypatch.setattr(train.PipelineConfig, "extract", lambda *a: extracted.append(a))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["bench", "--config", cfg, "--ckpt", str(out / "best.tsck"),
                             "--runs", runs]) == 2
        assert f"at least 1 run, got {runs}" in capsys.readouterr().err
        assert extracted == []
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("command", ["eval", "predict", "bench"])
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

    def test_two_by_two_grid(self, small_dataset, tmp_path):
        keys = self._base_keys(small_dataset)
        keys["epochs"] = 0  # grid shape only
        cfg = write_cfg(tmp_path / "c.cfg", sweep_n_mels="16,32",
                        sweep_heads="1,2", **keys)
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 5

    def test_budget_subsamples_deterministically(self, small_dataset, tmp_path):
        keys = self._base_keys(small_dataset)
        keys["epochs"] = 0
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
    except ConfigError:
        pass
