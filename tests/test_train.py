"""Loss, gradients, optimizer schedule, and the training loop."""

import contextlib
import hashlib
import logging
import os
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tinysound
from tinysound import audio_io, augment, cli, dsp, model, tokenizer, train
from tinysound.errors import CheckpointError, ConfigError, DecodeError, DivergenceError

from conftest import (SR, assert_grads_close, finite_difference_grads, sine,
                      write_synth_dataset)


def grad_cfg(**overrides):
    base = dict(input_dim=6, seq_len=4, hidden=8, layers=1, heads=2, classes=3,
                dropout_rate=0.0)
    base.update(overrides)
    return model.ModelConfig(**base)



class TestCrossEntropy:
    def test_uniform_logits_log_c(self):
        logits = np.zeros((4, 50))
        loss, _ = train.cross_entropy(logits, np.arange(4))
        assert abs(loss - np.log(50)) < 1e-12

    def test_confident_correct_loss_vanishes(self):
        labels = np.array([1])
        for margin in (5.0, 20.0, 60.0):
            logits = np.array([[0.0, margin, 0.0]])
            loss, _ = train.cross_entropy(logits, labels)
            assert loss < np.exp(-margin) * 3 + 1e-12

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 7))
        _, grad = train.cross_entropy(logits, rng.integers(0, 7, size=5))
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError):
            train.cross_entropy(np.zeros((1, 3)), np.array([3]))


class TestBackward:
    """Analytic gradients against central finite differences (h = 1e-3)."""

    def test_continuous_mode_matches_finite_differences(self):
        cfg = grad_cfg()
        params = model.init_model(cfg, np.random.default_rng(42))
        batch = np.random.default_rng(7).normal(size=(2, 4, 6))
        labels = np.array([0, 2])
        logits, trace = model.forward(params, batch, training=True)
        _, dlogits = train.cross_entropy(logits, labels)
        grads = train.backward(params, trace, dlogits)
        fd = finite_difference_grads(cfg, params, batch, labels)
        assert_grads_close(grads, fd)

    def test_tokens_mode_matches_finite_differences(self):
        cfg = grad_cfg(input_mode="tokens", input_dim=20)
        params = model.init_model(cfg, np.random.default_rng(43))
        batch = np.random.default_rng(8).integers(0, 20, size=(2, 4))
        labels = np.array([1, 2])
        logits, trace = model.forward(params, batch, training=True)
        _, dlogits = train.cross_entropy(logits, labels)
        grads = train.backward(params, trace, dlogits)
        fd = finite_difference_grads(cfg, params, batch, labels)
        assert_grads_close(grads, fd)

    def test_shared_layers_accumulate(self):
        cfg = grad_cfg(layers=3, share_layers=True)
        params = model.init_model(cfg, np.random.default_rng(44))
        batch = np.random.default_rng(9).normal(size=(2, 4, 6))
        labels = np.array([0, 1])
        logits, trace = model.forward(params, batch, training=True)
        _, dlogits = train.cross_entropy(logits, labels)
        grads = train.backward(params, trace, dlogits)
        fd = finite_difference_grads(cfg, params, batch, labels,
                                     names=["layer0_q_w", "layer0_ffn_in_b"])
        assert_grads_close({k: grads[k] for k in fd}, fd)

    @pytest.mark.parametrize("overrides", [{}, {"layers": 3, "share_layers": True}])
    def test_dropout_masks_match_finite_differences(self, overrides):
        cfg = grad_cfg(dropout_rate=0.1, **overrides)
        params = model.init_model(cfg, np.random.default_rng(47))
        batch = np.random.default_rng(12).normal(size=(2, 4, 6))
        labels = np.array([0, 2])
        logits, trace = model.forward(params, batch, training=True,
                                      rng=np.random.default_rng(3))
        _, dlogits = train.cross_entropy(logits, labels)
        grads = train.backward(params, trace, dlogits)
        fd = finite_difference_grads(cfg, params, batch, labels, seed=3)
        assert_grads_close(grads, fd)

    def test_zero_dlogits_zero_grads(self):
        cfg = grad_cfg()
        params = model.init_model(cfg, np.random.default_rng(45))
        batch = np.random.default_rng(10).normal(size=(2, 4, 6))
        logits, trace = model.forward(params, batch, training=True)
        grads = train.backward(params, trace, np.zeros_like(logits))
        for name, g in grads.items():
            np.testing.assert_array_equal(g, 0.0, err_msg=name)

    @pytest.mark.parametrize("overrides", [{}, {"input_mode": "tokens", "input_dim": 20}],
                             ids=["continuous", "tokens"])
    def test_unused_segment_row_gradient_exactly_zero(self, overrides):
        cfg = grad_cfg(**overrides)
        params = model.init_model(cfg, np.random.default_rng(46))
        rng = np.random.default_rng(11)
        batch = (rng.normal(size=(2, 4, 6)) if cfg.input_mode == model.CONTINUOUS
                 else rng.integers(0, 20, size=(2, 4)))
        logits, trace = model.forward(params, batch, training=True)
        _, dlogits = train.cross_entropy(logits, np.array([0, 1]))
        grads = train.backward(params, trace, dlogits)
        np.testing.assert_array_equal(grads["seg_emb"][1], 0.0)
        assert np.any(grads["seg_emb"][0] != 0.0)


class TestSchedule:
    def test_warmup_endpoints(self):
        cfg = train.TrainConfig(lr_peak=1e-4, warmup_steps=10_000)
        assert train.lr_at(0, cfg) == 0.0
        assert train.lr_at(5_000, cfg) == pytest.approx(5e-5)
        assert train.lr_at(10_000, cfg) == pytest.approx(1e-4)
        assert train.lr_at(50_000, cfg) == pytest.approx(1e-4)

    def test_zero_warmup_constant(self):
        cfg = train.TrainConfig(lr_peak=3e-3, warmup_steps=0)
        assert train.lr_at(0, cfg) == 3e-3

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            train.lr_at(-1, train.TrainConfig())

    @pytest.mark.parametrize("lr_peak", [float("nan"), float("inf"), -1e-4])
    def test_bad_lr_peak_rejected(self, lr_peak):
        with pytest.raises(ConfigError, match="lr_peak"):
            train.TrainConfig(lr_peak=lr_peak)


class TestAdam:
    def _setup(self, seed=50):
        cfg = grad_cfg()
        params = model.init_model(cfg, np.random.default_rng(seed))
        return cfg, params, train.zero_moments(params)

    def test_zero_gradients_no_change(self):
        cfg, params, moments = self._setup()
        before = {k: v.copy() for k, v in params.tensors.items()}
        zeros = {n: np.zeros(params.tensors[n].shape) for n in model.learnable_names(cfg)}
        assert train.adam_step(params, zeros, moments, 0, lr=1e-3) == 1
        for name in before:
            np.testing.assert_array_equal(params.tensors[name], before[name])

    def test_first_step_is_signed_lr(self):
        cfg, params, moments = self._setup()
        grads = {n: np.zeros(params.tensors[n].shape) for n in model.learnable_names(cfg)}
        grads["cls_b"] = np.array([0.5, -0.25, 0.0])
        before = params.tensors["cls_b"].copy()
        train.adam_step(params, grads, moments, 0, lr=1e-3)
        delta = params.tensors["cls_b"] - before
        np.testing.assert_allclose(delta[:2], [-1e-3, 1e-3], rtol=1e-4)
        assert delta[2] == 0.0

    def test_lr_zero_keeps_loss(self):
        cfg, params, moments = self._setup()
        batch = np.random.default_rng(12).normal(size=(2, 4, 6))
        labels = np.array([0, 1])
        # the training forward writes the running stats, so it runs on a copy
        copy = model.ModelParams(cfg, {k: v.copy() for k, v in params.tensors.items()})
        logits, trace = model.forward(copy, batch, training=True)
        grads = train.backward(copy, trace, train.cross_entropy(logits, labels)[1])
        loss_before, _ = train.cross_entropy(model.forward(params, batch), labels)
        train.adam_step(params, grads, moments, 0, lr=0.0)
        loss_after, _ = train.cross_entropy(model.forward(params, batch), labels)
        assert loss_after == loss_before

    def test_deterministic(self):
        cfg, params_a, moments_a = self._setup(seed=51)
        _, params_b, moments_b = self._setup(seed=51)
        grads = {n: np.random.default_rng(13).normal(size=params_a.tensors[n].shape)
                 for n in model.learnable_names(cfg)}
        train.adam_step(params_a, grads, moments_a, 0, lr=1e-3)
        train.adam_step(params_b, grads, moments_b, 0, lr=1e-3)
        for name in params_a.tensors:
            np.testing.assert_array_equal(params_a.tensors[name], params_b.tensors[name])
        for name in moments_a:
            np.testing.assert_array_equal(moments_a[name], moments_b[name])

    def test_flat_update_equals_the_per_tensor_update(self):
        cfg, params, moments = self._setup(seed=52)
        rng = np.random.default_rng(14)
        for name, t in moments.items():  # a later step: nonzero m, positive v
            t[...] = rng.uniform(0.0 if name.startswith("v__") else -1e-2, 1e-2, t.shape)
        grads = {n: rng.normal(size=params.tensors[n].shape) for n in model.learnable_names(cfg)}
        want, t, b1, b2 = {}, 4, train.ADAM_BETA1, train.ADAM_BETA2
        for n in model.learnable_names(cfg):  # the update one tensor at a time, in float64
            m = b1 * moments[f"m__{n}"].astype(np.float64) + (1.0 - b1) * grads[n]
            v = b2 * moments[f"v__{n}"].astype(np.float64) + (1.0 - b2) * grads[n] * grads[n]
            update = 1e-3 * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + train.ADAM_EPS)
            want.update({n: params.tensors[n] - update, f"m__{n}": m, f"v__{n}": v})
        assert train.adam_step(params, grads, moments, t - 1, lr=1e-3) == t
        for name, table in [(n, params.tensors) for n in model.learnable_names(cfg)] + [
                (k, moments) for k in moments]:
            np.testing.assert_array_equal(table[name], want[name].astype(np.float32))

    def test_float32_overflow_raises_before_writing(self):
        cfg, params, moments = self._setup()
        grads = {n: np.zeros(params.tensors[n].shape) for n in model.learnable_names(cfg)}
        grads["cls_b"] = np.array([1.0, -1.0, 0.0])
        step = train.adam_step(params, grads, moments, 0, lr=1e-3)
        before = {k: v.copy() for k, v in {**params.tensors, **moments}.items()}
        with pytest.raises(DivergenceError, match="Adam step 2 overflows float32 in cls_b"):
            train.adam_step(params, grads, moments, step, lr=1e39)
        after = {**params.tensors, **moments}
        for name in before:
            np.testing.assert_array_equal(after[name], before[name])


class TestSplit:
    @pytest.mark.parametrize("fraction", [float("nan"), float("inf"), -1.0, 0.0, 1.0])
    def test_bad_val_fraction_rejected(self, fraction):
        with pytest.raises(ConfigError, match="val_fraction"):
            train.TrainConfig(val_fraction=fraction)

    def test_negative_seed_rejected(self):
        # before split_manifest seeds numpy with it, whose error names no field
        with pytest.raises(ConfigError, match="^seed must be non-negative, got -1$"):
            train.TrainConfig(seed=-1)

    @pytest.mark.parametrize("name, value", [("seed", 1.5), ("window_samples", 25000.0),
                                             ("val_fold", 1.5)])
    def test_non_integer_seed_or_window_rejected(self, name, value):
        # before split_manifest or center_slice meets it, whose TypeError names no field
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got {value}$"):
            train.TrainConfig(**{name: value})

    def test_fold_split(self, tmp_path):
        root = tmp_path / "ds"
        (root / "meta").mkdir(parents=True)
        (root / "audio").mkdir()
        rows = ["filename,fold,target,category"]
        for i in range(10):
            name = f"clip{i}.wav"
            rows.append(f"{name},{i % 5 + 1},0,thing")
            audio_io.write_wav(root / "audio" / name,
                               audio_io.AudioClip(np.zeros(64), SR))
        (root / "meta" / "esc50.csv").write_text("\n".join(rows) + "\n")
        manifest = audio_io.load_manifest(root, audio_io.CSV_MANIFEST)
        cfg = train.TrainConfig(val_fold=5)
        train_e, val_e = train.split_manifest(manifest, cfg)
        assert all(e.fold == 5 for e in val_e)
        assert all(e.fold != 5 for e in train_e)
        assert len(val_e) == 2 and len(train_e) == 8

    def test_stratified_split_disjoint(self, small_dataset):
        manifest = audio_io.load_manifest(small_dataset, audio_io.FOLDER_PER_CLASS)
        cfg = train.TrainConfig(seed=3, val_fraction=0.25)
        train_e, val_e = train.split_manifest(manifest, cfg)
        assert len(val_e) == 6  # 2 per class
        assert not {e.path for e in train_e} & {e.path for e in val_e}
        labels = [e.label for e in val_e]
        assert sorted(set(labels)) == [0, 1, 2]

    def test_val_fold_without_folds_warns_and_splits_by_fraction(self, small_dataset, caplog):
        manifest = audio_io.load_manifest(small_dataset, audio_io.FOLDER_PER_CLASS)
        cfg = train.TrainConfig(seed=3, val_fraction=0.25, val_fold=5)
        with caplog.at_level(logging.WARNING, logger=train.__name__):
            split = train.split_manifest(manifest, cfg)
            assert split == train.split_manifest(manifest, replace(cfg, val_fold=None))
        [record] = caplog.records  # the split without val_fold says nothing
        assert record.levelno == logging.WARNING
        message = record.getMessage()
        assert "val_fold 5" in message and "val_fraction 0.25" in message
        assert not message.startswith("epoch")  # perfbench counts those as epoch records


_ONE_CLASS = ("thing",)
_TWO_FOLDS = audio_io.DatasetManifest(
    tuple(audio_io.ManifestEntry(Path(f"fold{k}.wav"), 0, k) for k in (1, 2)), _ONE_CLASS)
_TWO_CLIPS = audio_io.DatasetManifest(
    tuple(audio_io.ManifestEntry(Path(f"{name}.wav"), 0) for name in "ab"), _ONE_CLASS)


@pytest.mark.parametrize("build, error, named", [
    (lambda: train.PipelineConfig(feature=train.CURVE), ConfigError, "vocab"),
    (lambda: train.TrainConfig(warmup_steps=-1), ConfigError, "^warmup_steps"),
    (lambda: train.TrainConfig(val_fold="x"), ConfigError,
     "^val_fold must be an integer, got 'x'$"),
    (lambda: train.TrainConfig(val_fold=-3), ConfigError,
     "^val_fold must be non-negative, got -3$"),
    (lambda: train.split_manifest(_TWO_FOLDS, train.TrainConfig(val_fold=7)), ValueError,
     "^val_fold 7 "),  # no clip in fold 7
    (lambda: train.split_manifest(_TWO_CLIPS, train.TrainConfig(val_fraction=0.9)), ValueError,
     "val_fraction 0.9$"),  # both clips held out
    (lambda: train.evaluate(None, [], train.TrainConfig()), ValueError, "empty split"),
    (lambda: train.PipelineConfig(downsample=0), ConfigError, "^downsample must be >= 1"),
    (lambda: train.TrainConfig(batch_size=0), ConfigError, "^batch_size must be >= 1"),
], ids=["curve-without-vocab", "negative-warmup", "val_fold-not-integer", "val_fold-negative",
        "fold-split-empty-side", "empty-training-split", "evaluate-no-entries",
        "downsample-zero", "batch-size-zero"])
def test_train_raise_sites_name_their_field(build, error, named):
    with pytest.raises(error, match=named) as raised:
        build()
    assert raised.type is error


@pytest.fixture(scope="module")
def memo_run(tmp_path_factory):
    """Four single-tone clips, one per class, trained to memorization."""
    root = tmp_path_factory.mktemp("memo")
    for i, freq in enumerate((400.0, 900.0, 1800.0, 3200.0)):
        d = root / f"f{i}"
        d.mkdir(parents=True)
        audio_io.write_wav(d / "c.wav", audio_io.AudioClip(sine(freq, 0.25), SR))
    manifest = audio_io.load_manifest(root, audio_io.FOLDER_PER_CLASS)
    spec = train.PipelineConfig(
        spectrogram=dsp.SpectrogramConfig(
            n_fft=512, hop_length=512, win_length=512, n_mels=32))
    tcfg = train.TrainConfig(lr_peak=5e-3, warmup_steps=0, batch_size=4,
                             epochs=50, seed=1, window_samples=8192, pipeline=spec)
    mcfg = tcfg.pipeline.model_config(tcfg.window_samples, classes=4,
                                      hidden=8, heads=2, dropout_rate=0.0)
    return manifest, tcfg, train.train_loop(manifest, mcfg, tcfg)


class TestTrainLoop:
    def _config(self, epochs, dataset, **overrides):
        spec = train.PipelineConfig(
            spectrogram=dsp.SpectrogramConfig(
                n_fft=512, hop_length=512, win_length=512, n_mels=32))
        kwargs = dict(lr_peak=2e-3, warmup_steps=10, batch_size=4, epochs=epochs,
                      seed=7, window_samples=8192, pipeline=spec)
        kwargs.update(overrides)
        tcfg = train.TrainConfig(**kwargs)
        manifest = audio_io.load_manifest(dataset, audio_io.FOLDER_PER_CLASS)
        mcfg = tcfg.pipeline.model_config(tcfg.window_samples, classes=3,
                                          hidden=8, heads=2, dropout_rate=0.0)
        return manifest, mcfg, tcfg

    def test_step_count_ceil(self, small_dataset):
        manifest, mcfg, tcfg = self._config(1, small_dataset, batch_size=7)
        result = train.train_loop(manifest, mcfg, tcfg)
        # 18 training entries (24 minus 2-per-class validation) / 7 -> 3 steps
        assert result.last.step == 3

    def test_memorization_loss_decreases(self, memo_run):
        _, _, result = memo_run
        losses = [m["train_loss"] for m in result.metrics]
        increases = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
        assert increases <= 5
        assert losses[-1] < losses[0] / 2

    def test_bit_reproducible(self, small_dataset):
        manifest, mcfg, tcfg = self._config(2, small_dataset)
        r1 = train.train_loop(manifest, mcfg, tcfg)
        r2 = train.train_loop(manifest, mcfg, tcfg)
        assert r1.metrics == r2.metrics
        for name in r1.last.params.tensors:
            np.testing.assert_array_equal(r1.last.params.tensors[name],
                                          r2.last.params.tensors[name])

    def test_resume_bitwise_continuation(self, small_dataset):
        manifest, mcfg, tcfg = self._config(4, small_dataset)
        full = train.train_loop(manifest, mcfg, tcfg)
        _, _, tcfg_half = self._config(2, small_dataset)
        half = train.train_loop(manifest, mcfg, tcfg_half)
        resumed = train.train_loop(manifest, mcfg, tcfg, resume_from=half.last)
        assert resumed.metrics == full.metrics[2:]
        for name in full.last.params.tensors:
            np.testing.assert_array_equal(full.last.params.tensors[name],
                                          resumed.last.params.tensors[name])

    @pytest.mark.parametrize("change", ["hidden", "seed", "window_samples", "val_fraction",
                                        "val_fold"])
    def test_resume_rejects_a_different_config(self, small_dataset, change):
        manifest, mcfg, tcfg = self._config(1, small_dataset)
        half = train.train_loop(manifest, mcfg, tcfg)
        tcfg = replace(tcfg, epochs=2)
        if change == "hidden":
            mcfg = replace(mcfg, hidden=16)
        elif change == "seed":
            tcfg = replace(tcfg, seed=tcfg.seed + 1)
        elif change == "val_fraction":
            tcfg = replace(tcfg, val_fraction=0.5)
        elif change == "val_fold":  # the manifest has no folds, but the request differs
            tcfg = replace(tcfg, val_fold=1)
        else:  # same frame count, so the model config still fits
            tcfg = replace(tcfg, window_samples=tcfg.window_samples + 8)
        with pytest.raises(ConfigError, match=change):
            train.train_loop(manifest, mcfg, tcfg, resume_from=half.last)

    def test_resume_rejects_other_class_names(self, small_dataset):
        manifest, mcfg, tcfg = self._config(1, small_dataset)
        half = train.train_loop(manifest, mcfg, tcfg).last
        renamed = replace(manifest, class_names=("a", "b", "c"))  # same count, same model
        with pytest.raises(ConfigError, match="class_names=.*'clicks'.*dataset has.*'a'"):
            train.train_loop(renamed, mcfg, replace(tcfg, epochs=2), resume_from=half)

    @pytest.mark.parametrize("epoch", [None, [3], "3", 1.7], ids=["null", "list", "str", "float"])
    def test_resume_rejects_a_non_integer_epoch(self, small_dataset, monkeypatch, epoch):
        manifest, mcfg, tcfg = self._config(1, small_dataset)
        half = train.train_loop(manifest, mcfg, tcfg).last
        half = replace(half, metadata={**half.metadata, "epoch": epoch})
        prepared = []
        monkeypatch.setattr(train, "_prepare_example", lambda *a: prepared.append(a))
        with pytest.raises(CheckpointError, match=r"cannot resume: checkpoint epoch .* is not"):
            train.train_loop(manifest, mcfg, replace(tcfg, epochs=4), resume_from=half)
        assert prepared == []

    def test_snapshot_records_the_run_fields(self, small_dataset):
        manifest, mcfg, tcfg = self._config(1, small_dataset)
        tcfg = replace(tcfg, val_fraction=0.25, val_fold=3)
        meta = train.train_loop(manifest, mcfg, tcfg).last.metadata
        assert {k: meta[k] for k in train.RUN_FIELDS} == {
            "seed": tcfg.seed, "window_samples": tcfg.window_samples, "val_fold": 3,
            "val_fraction": 0.25}
        assert train.run_config(meta, replace(tcfg, seed=9, val_fold=None)) == tcfg

    @pytest.mark.parametrize("tamper, named", [
        (lambda moments: moments.pop("m__cls_b"), "m__cls_b: checkpoint has no entry"),
        (lambda moments: moments.update(v__cls_w=np.zeros(1, np.float32)),
         r"v__cls_w: checkpoint has \(1,\), model needs \(3, 8\)"),
        (lambda moments: moments.update(m__extra=np.zeros(3, np.float32)),
         r"m__extra: checkpoint has \(3,\), model needs none"),
    ], ids=["missing", "misshaped", "extra"])
    def test_resume_checks_the_moment_table_before_any_example(self, small_dataset,
                                                                monkeypatch, tamper, named):
        manifest, mcfg, tcfg = self._config(1, small_dataset)
        half = train.train_loop(manifest, mcfg, tcfg).last
        tamper(half.opt_tensors)
        tcfg, prepared = replace(tcfg, epochs=2), []
        monkeypatch.setattr(train, "_prepare_example", lambda *a: prepared.append(a))
        with pytest.raises(CheckpointError, match="cannot resume: optimizer moment " + named):
            train.train_loop(manifest, mcfg, tcfg, resume_from=half)
        assert prepared == []

    def test_zero_moments_lay_out_a_saved_runs_table(self, small_dataset, tmp_path):
        manifest, mcfg, tcfg = self._config(1, small_dataset)
        last = train.train_loop(manifest, mcfg, tcfg).last
        model.save_checkpoint(tmp_path / "last.tsck", last.params, last.opt_tensors,
                              last.step, last.metadata)
        saved = model.load_checkpoint(tmp_path / "last.tsck")
        layout = lambda table: [(k, t.shape, t.dtype) for k, t in table.items()]
        assert layout(train.zero_moments(saved.params)) == layout(saved.opt_tensors)
        assert list(saved.opt_tensors) == [f"{kind}__{name}" for kind in ("m", "v")
                                           for name in model.learnable_names(mcfg)]
        assert not any(t.any() for t in train.zero_moments(saved.params).values())

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_fewer_than_one_epoch_rejected(self, epochs):
        with pytest.raises(ConfigError, match="epochs must be >= 1"):
            train.TrainConfig(epochs=epochs)

    def test_config_is_frozen(self):
        tcfg = train.TrainConfig(augments=[augment.AugmentSpec("amplify", 1.0)])
        assert tcfg.augments == (augment.AugmentSpec("amplify", 1.0),)
        with pytest.raises(FrozenInstanceError):
            tcfg.epochs = 0

    def test_replaced_config_is_checked(self):
        with pytest.raises(ConfigError, match="epochs must be >= 1"):
            replace(train.TrainConfig(), epochs=0)

    def test_resuming_a_finished_run_rejected_before_any_example(self, small_dataset,
                                                                 monkeypatch):
        manifest, mcfg, tcfg = self._config(1, small_dataset)
        finished = train.train_loop(manifest, mcfg, tcfg).last
        prepared = []
        monkeypatch.setattr(train, "_prepare_example", lambda *a: prepared.append(a))
        with pytest.raises(ConfigError, match="trained 1 epochs, so epochs=1 leaves none"):
            train.train_loop(manifest, mcfg, tcfg, resume_from=finished)
        assert prepared == []

    def test_nonfinite_gradient_stops_before_the_optimizer(self, small_dataset, monkeypatch):
        manifest, mcfg, tcfg = self._config(2, small_dataset)
        steps_per_epoch = -(-len(train.split_manifest(manifest, tcfg)[0]) // tcfg.batch_size)
        poisoned = steps_per_epoch + 1  # epoch 1, step 1, counting steps from 0
        backward, adam_step, backwards, updates = train.backward, train.adam_step, [], []

        def poisoning_backward(*args):
            grads = backward(*args)
            if len(backwards) == poisoned:
                grads["cls_b"] = np.full_like(grads["cls_b"], np.nan)
            backwards.append(args)
            return grads

        monkeypatch.setattr(train, "backward", poisoning_backward)
        monkeypatch.setattr(train, "adam_step", lambda *a: updates.append(a) or adam_step(*a))
        with pytest.raises(DivergenceError,
                           match="at epoch 1, step 1: gradient of cls_b not finite"):
            train.train_loop(manifest, mcfg, tcfg)
        assert len(backwards) == poisoned + 1 and len(updates) == poisoned

    def test_divergence_stops_before_the_optimizer_writes(self, small_dataset, monkeypatch):
        manifest, mcfg, tcfg = self._config(3, small_dataset, lr_peak=1e38, warmup_steps=0)
        adam_step, calls = train.adam_step, []

        def checked_adam_step(params, grads, *args):
            for name, g in grads.items():
                assert np.all(np.isfinite(g)), name
            calls.append(params)
            return adam_step(params, grads, *args)

        monkeypatch.setattr(train, "adam_step", checked_adam_step)
        with pytest.raises(DivergenceError) as info:
            train.train_loop(manifest, mcfg, tcfg)
        # the overflowing update is named at its own step and never written
        steps_per_epoch = -(-len(train.split_manifest(manifest, tcfg)[0]) // tcfg.batch_size)
        epoch, step = divmod(len(calls) - 1, steps_per_epoch)
        assert f"epoch {epoch}, step {step}: Adam step {len(calls)} overflows" in str(info.value)
        for name, tensor in calls[-1].tensors.items():
            assert np.all(np.isfinite(tensor)), name

    def test_every_step_goes_through_train_step_in_order(self, small_dataset, monkeypatch):
        manifest, mcfg, tcfg = self._config(2, small_dataset)
        train_step, steps = train.train_step, []
        monkeypatch.setattr(train, "train_step",
                            lambda *args: steps.append(args[-2:]) or train_step(*args))
        result = train.train_loop(manifest, mcfg, tcfg)
        steps_per_epoch = -(-len(train.split_manifest(manifest, tcfg)[0]) // tcfg.batch_size)
        assert steps == [(epoch, index) for epoch in range(2) for index in range(steps_per_epoch)]
        assert result.last.step == len(steps)

    def test_step_profile_times_train_step(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
        import step_profile

        train_step, steps = train.train_step, []
        monkeypatch.setattr(train, "train_step",
                            lambda *args: steps.append(args[-2:]) or train_step(*args))
        patched = [(model, "_run"), *((train, name) for name in step_profile.STAGES)]
        saved = [getattr(owner, name) for owner, name in patched]
        step_profile.profile(model.ModelConfig(seq_len=6, input_dim=5), 2, 3)
        assert steps == [(0, k) for k in range(4)]  # one untimed step, then 3 timed
        assert [getattr(owner, name) for owner, name in patched] == saved

    def test_shape_mismatch_rejected_before_any_example(self, small_dataset, monkeypatch):
        manifest, mcfg, tcfg = self._config(1, small_dataset)
        prepared = []
        monkeypatch.setattr(train, "_prepare_example", lambda *a: prepared.append(a))
        with pytest.raises(ConfigError, match="pipeline produces continuous 16x32 inputs; "
                                              "model expects continuous 20x32"):
            train.train_loop(manifest, replace(mcfg, seq_len=20), tcfg)
        assert prepared == []

    def test_empty_manifest_rejected(self):
        manifest = audio_io.DatasetManifest((), ())
        with pytest.raises(ValueError):
            train.train_loop(manifest, grad_cfg(), train.TrainConfig())


class TestKeepHeap:
    @pytest.fixture
    def fresh(self):
        train.keep_heap.cache_clear()  # the next call runs the lookup again
        yield
        train.keep_heap.cache_clear()

    def test_without_mallopt_returns_quietly(self, fresh, monkeypatch):
        monkeypatch.setattr(train.ctypes, "CDLL", lambda name: object())
        assert train.keep_heap() is None

    def test_sets_both_thresholds_once_per_process(self, fresh, monkeypatch):
        calls = []

        def mallopt(option, value):
            calls.append((option, value))
            return 1

        monkeypatch.setattr(train.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        train.keep_heap()
        train.keep_heap()
        assert calls == [(-3, 32 << 20), (-1, 128 << 20)]

    def test_rejected_mmap_threshold_sets_no_trim_threshold(self, fresh, monkeypatch):
        calls = []

        def mallopt(option, value):
            calls.append((option, value))
            return 0

        monkeypatch.setattr(train.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        train.keep_heap()
        assert calls == [(-3, 32 << 20)]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_glibc_accepts_both_thresholds(self, fresh, monkeypatch):
        libc, returns = train.ctypes.CDLL(None), []

        def mallopt(option, value):
            returns.append(libc.mallopt(option, value))
            return returns[-1]

        monkeypatch.setattr(train.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        train.keep_heap()
        assert returns == [1, 1]

    @pytest.mark.parametrize("entry", [
        lambda: train.train_loop(audio_io.DatasetManifest((), ()), grad_cfg(),
                                 train.TrainConfig()),
        lambda: cli.main(["count"]),
    ], ids=["train_loop", "cli.main"])
    def test_entry_points_call_it_first(self, entry, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(train, "keep_heap", lambda: calls.append(1))
        with contextlib.suppress(ValueError):  # an empty manifest, after the call
            entry()
        assert calls == [1]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_warm_default_step_makes_no_page_faults(self):
        import resource  # POSIX only, as glibc is

        train.keep_heap()
        cfg = model.ModelConfig()
        rng = np.random.default_rng(0)
        params = model.init_model(cfg, rng)
        moments, tcfg = train.zero_moments(params), train.TrainConfig(warmup_steps=0)
        batch = [model.Example(x) for x in
                 -50.0 + 30.0 * rng.standard_normal((16, cfg.seq_len, cfg.input_dim))]
        labels = rng.integers(0, cfg.classes, 16)
        train.train_step(params, moments, 0, batch, labels, tcfg, 0, 0)  # warm
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train.train_step(params, moments, 1, batch, labels, tcfg, 0, 1)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50


class TestEvaluate:
    def test_memorized_set_perfect(self, memo_run):
        manifest, tcfg, result = memo_run
        acc = train.evaluate(result.best.params, manifest.entries, tcfg)
        assert acc == 1.0

    def test_chance_level_for_untrained_many_classes(self, tmp_path):
        root = tmp_path / "fifty"
        rng = np.random.default_rng(3)
        for c in range(50):
            d = root / f"class_{c:02d}"
            d.mkdir(parents=True)
            for i in range(2):
                wave = 0.1 * rng.normal(size=4096)
                audio_io.write_wav(d / f"{i}.wav", audio_io.AudioClip(wave, SR))
        manifest = audio_io.load_manifest(root, audio_io.FOLDER_PER_CLASS)
        spec = train.PipelineConfig(
            spectrogram=dsp.SpectrogramConfig(
                n_fft=512, hop_length=512, win_length=512, n_mels=32))
        tcfg = train.TrainConfig(window_samples=4096, pipeline=spec, batch_size=32)
        mcfg = tcfg.pipeline.model_config(tcfg.window_samples, classes=50,
                                          hidden=8, heads=2)
        params = model.init_model(mcfg, np.random.default_rng(4))
        acc = train.evaluate(params, manifest.entries, tcfg)
        assert acc <= 0.15  # chance is 0.02; allow generous sampling noise

    def test_batch_size_invariance(self, small_dataset):
        manifest = audio_io.load_manifest(small_dataset, audio_io.FOLDER_PER_CLASS)
        spec = train.PipelineConfig(
            spectrogram=dsp.SpectrogramConfig(
                n_fft=512, hop_length=512, win_length=512, n_mels=32))
        tcfg = train.TrainConfig(window_samples=8192, pipeline=spec)
        mcfg = tcfg.pipeline.model_config(tcfg.window_samples, classes=3,
                                          hidden=8, heads=2)
        params = model.init_model(mcfg, np.random.default_rng(5))
        accs = {train.evaluate(params, manifest.entries, replace(tcfg, batch_size=b))
                for b in (1, 5, 24)}
        assert len(accs) == 1


def seeded_run_digest(root, augmented: bool) -> str:
    """SHA-256 over the final weights and Adam moments of a seeded run on the
    default pipeline and 5 s window, where every 1 s clip is zero-padded."""
    manifest = audio_io.load_manifest(root, audio_io.FOLDER_PER_CLASS)
    tcfg = train.TrainConfig(lr_peak=1e-3, warmup_steps=4, batch_size=8,
                             epochs=1 if augmented else 3, seed=3,
                             augments=augment.default_pipeline(0.3) if augmented else [])
    last = train.train_loop(manifest, tcfg.pipeline.model_config(
        tcfg.window_samples, classes=3), tcfg).last
    tensors = {**last.params.tensors, **last.opt_tensors}
    digest = hashlib.sha256()
    for name in sorted(tensors):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(tensors[name]).tobytes())
    return digest.hexdigest()


# numpy 2.4.6, scipy 1.17.1, OpenBLAS 0.3.31. Featurization makes no BLAS
# call, so the features do not depend on the BLAS thread count; the whole
# run must give these bytes at 1 and at 2 BLAS threads. pitch_shift fires in
# the augmented run, so its digest depends on pitch_shift's fraction grid, and
# lowpass fires on zero-padded clips, whose filter tails it flushes to 0 where
# they fall below the smallest normal float.
GOLDEN_RUN_SHA256 = {
    False: "df8939531fad840582b2aa5ca8f86f0e389f20cc22dd1fbb23c1a993cbe42a5c",
    True: "00963acf1dc67c65605b8d71bfccc1da10ac8e3ad3b74af467a848f939a2dd31",
}


class TestPredictWorkingSet:
    @pytest.mark.parametrize("rate, bound_mb", [(44100, 6.0), (22050, 9.0)])
    def test_load_slice_extract_peak(self, tmp_path, rate, bound_mb):
        # a predict request's data path on a 5 s clip; a small peak keeps
        # the request's speed off the allocator's mmap and trim thresholds
        path = tmp_path / "clip.wav"
        x = np.random.default_rng(rate).uniform(-0.9, 0.9, 5 * rate)
        audio_io.write_wav(path, audio_io.AudioClip(x, rate))
        pipeline = train.PipelineConfig()

        def featurize():
            return pipeline.extract(audio_io.center_slice(audio_io.load_audio(path), 5 * SR))

        featurize()  # builds the cached filterbank outside the measurement
        tracemalloc.start()
        try:
            featurize()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 1e6


class TestFeatureCache:
    @pytest.mark.parametrize("augmented", [False, True])
    def test_seeded_run_matches_golden_digest(self, small_dataset, augmented):
        path = os.pathsep.join([str(Path(tinysound.__file__).parents[1]),
                                str(Path(__file__).parent)])
        code = ("import sys, test_train; "
                "print(test_train.seeded_run_digest(sys.argv[1], sys.argv[2] == 'True'))")
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            out = subprocess.run([sys.executable, "-c", code, str(small_dataset), str(augmented)],
                                 env=env, capture_output=True, text=True, check=True)
            assert out.stdout.strip() == GOLDEN_RUN_SHA256[augmented], f"{threads} BLAS threads"

    @staticmethod
    def _config(dataset, window_samples, feature=train.MEL):
        spec = train.PipelineConfig(feature=feature, spectrogram=dsp.SpectrogramConfig(
            n_fft=512, hop_length=512, win_length=512, n_mels=32))
        tcfg = train.TrainConfig(lr_peak=2e-3, warmup_steps=0, batch_size=8, epochs=3,
                                 seed=4, window_samples=window_samples, pipeline=spec)
        mcfg = spec.model_config(window_samples, classes=3, hidden=8, heads=2)
        return audio_io.load_manifest(dataset, audio_io.FOLDER_PER_CLASS), mcfg, tcfg

    @pytest.mark.parametrize("window_samples", [SR, 2 * SR, 8192])
    def test_mel_calls_per_run(self, small_dataset, monkeypatch, window_samples):
        manifest, mcfg, tcfg = self._config(small_dataset, window_samples)
        mel, calls = dsp.mel_spectrogram, []
        monkeypatch.setattr(dsp, "mel_spectrogram", lambda *a: calls.append(1) or mel(*a))
        train.train_loop(manifest, mcfg, tcfg)
        n_train, n_val = (len(part) for part in train.split_manifest(manifest, tcfg))
        if window_samples >= SR:  # every 1 s clip fits: one window per clip
            assert len(calls) == n_train + n_val
        else:  # a random window per train clip and epoch; fixed eval windows
            assert len(calls) == tcfg.epochs * n_train + n_val

    def test_all_zero_augments_featurize_as_none(self, small_dataset, monkeypatch):
        # every 1 s clip fits, so an unaugmented run featurizes each clip once
        manifest, mcfg, tcfg = self._config(small_dataset, SR)
        mel, runs = dsp.mel_spectrogram, []
        for augments in ((), augment.default_pipeline(0.0)):
            calls = []
            monkeypatch.setattr(dsp, "mel_spectrogram", lambda *a: calls.append(1) or mel(*a))
            last = train.train_loop(manifest, mcfg, replace(tcfg, augments=augments)).last
            runs.append((len(calls), [t.tobytes() for t in last.params.tensors.values()]))
        assert runs[0] == runs[1]

    def test_cached_features_are_read_only(self, small_dataset):
        manifest, _, tcfg = self._config(small_dataset, SR)
        store = train.ClipStore(tcfg)
        feats = store.features(manifest.entries[0])
        assert store.features(manifest.entries[0]) is feats
        with pytest.raises(ValueError, match="read-only"):
            feats[0, 0] = 0.0

    @pytest.mark.parametrize("window_samples", [8192, 2 * SR])  # cut, and zero-padded
    def test_evaluate_decodes_each_clip_once_and_keeps_none(self, small_dataset, monkeypatch,
                                                            window_samples):
        manifest, mcfg, tcfg = self._config(small_dataset, window_samples)
        load_audio, decoded = audio_io.load_audio, []
        monkeypatch.setattr(audio_io, "load_audio", lambda p: decoded.append(p) or load_audio(p))
        train.evaluate(model.init_model(mcfg, np.random.default_rng(0)), manifest.entries,
                       tcfg, store=train.ClipStore(tcfg))
        assert sorted(decoded) == sorted(e.path for e in manifest.entries)

    def test_unaugmented_run_decodes_each_clip_once_and_keeps_none(self, small_dataset,
                                                                   monkeypatch):
        manifest, mcfg, tcfg = self._config(small_dataset, SR)  # every 1 s clip fits
        load_audio, decoded = audio_io.load_audio, []
        monkeypatch.setattr(audio_io, "load_audio", lambda p: decoded.append(p) or load_audio(p))
        train.train_loop(manifest, mcfg, tcfg)  # three epochs
        assert sorted(decoded) == sorted(e.path for e in manifest.entries)

    def test_augmented_run_decodes_train_clips_each_epoch_and_val_clips_once(
            self, small_dataset, monkeypatch):
        manifest, mcfg, tcfg = self._config(small_dataset, SR)
        tcfg = replace(tcfg, augments=(augment.AugmentSpec("amplify", 1.0),))
        load, loads = train.ClipStore.load, []
        monkeypatch.setattr(train.ClipStore, "load",
                            lambda store, e: loads.append(e.path) or load(store, e))
        train.train_loop(manifest, mcfg, tcfg)
        fit, val = train.split_manifest(manifest, tcfg)
        want = [e.path for e in fit] * tcfg.epochs + [e.path for e in val]
        assert sorted(loads) == sorted(want)


def use_cpus(monkeypatch, n: int) -> None:
    """Make ``train_loop`` and ``evaluate`` see ``n`` usable CPUs, whatever
    this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestParallelPreparation:
    def test_seeded_augmented_run_same_for_any_cpu_count(self, small_dataset, monkeypatch):
        digests = set()
        for n in (1, 2, 4):
            use_cpus(monkeypatch, n)
            digests.add(seeded_run_digest(small_dataset, augmented=True))
        assert len(digests) == 1

    def test_pool_thread_failure_surfaces_with_its_type(self, small_dataset, monkeypatch):
        class Boom(Exception):
            pass

        amplify, main = augment.AUGMENTATIONS["amplify"], threading.main_thread()

        def amplify_on_main_only(x, rng):
            if threading.current_thread() is not main:
                raise Boom("pool thread")
            time.sleep(0.01)  # leaves the rest of the batch to the pool thread
            return amplify(x, rng)

        monkeypatch.setitem(augment.AUGMENTATIONS, "amplify", amplify_on_main_only)
        use_cpus(monkeypatch, 2)
        manifest, mcfg, tcfg = TestTrainLoop()._config(
            1, small_dataset, augments=[augment.AugmentSpec("amplify", 1.0)])
        before = threading.active_count()
        with pytest.raises(Boom, match="pool thread"):
            train.train_loop(manifest, mcfg, tcfg)
        assert threading.active_count() == before

    def test_first_position_failure_wins_and_stops_new_examples(self, small_dataset,
                                                              monkeypatch):
        manifest, mcfg, tcfg = TestTrainLoop()._config(1, small_dataset, batch_size=8)
        n_train = len(train.split_manifest(manifest, tcfg)[0])
        first = int(np.random.default_rng(
            np.random.SeedSequence([tcfg.seed, 0])).permutation(n_train)[0])
        started = []

        def failing_example(entry, store, cfg, epoch, index):
            started.append(index)
            if index == first:  # fails last, after every other thread has failed
                time.sleep(0.2)
            raise LookupError(index)

        monkeypatch.setattr(train, "_prepare_example", failing_example)
        use_cpus(monkeypatch, 4)
        with pytest.raises(LookupError) as info:
            train.train_loop(manifest, mcfg, tcfg)
        assert info.value.args == (first,)
        assert len(started) <= 4  # one example per thread, of a batch of 8

    def test_evaluate_same_for_any_cpu_count(self, small_dataset, monkeypatch):
        manifest, mcfg, tcfg = TestTrainLoop()._config(1, small_dataset, batch_size=5)
        params = model.init_model(mcfg, np.random.default_rng(5))
        forward, batches = train.forward, []
        monkeypatch.setattr(train, "forward", lambda params, batch, **kw: batches.append(
            hashlib.sha256(b"".join(e.tobytes() for e in batch)).hexdigest())
            or forward(params, batch, **kw))
        runs = []
        for n in (1, 2, 4):
            use_cpus(monkeypatch, n)
            runs.append((train.evaluate(params, manifest.entries, tcfg), batches[:]))
            batches.clear()
        assert len(runs[0][1]) == 5  # 24 clips in batches of 5
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_evaluate_without_sched_getaffinity(self, small_dataset, monkeypatch):
        # os.sched_getaffinity is missing where the OS cannot set affinity (macOS, Windows)
        manifest, mcfg, tcfg = TestTrainLoop()._config(1, small_dataset, batch_size=5)
        params = model.init_model(mcfg, np.random.default_rng(5))
        use_cpus(monkeypatch, 2)
        want = train.evaluate(params, manifest.entries, tcfg)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with train._helper_pool() as (_, helpers):
            assert helpers == 1
        assert train.evaluate(params, manifest.entries, tcfg) == want

    @staticmethod
    def _corrupt_validation_clip(dataset, tmp_path):
        """Folder manifest with folds: fold 1 (validation) holds every fourth
        clip plus, at its second position, a WAV with a malformed header."""
        manifest, mcfg, tcfg = TestTrainLoop()._config(1, dataset, val_fold=1)
        entries = [replace(e, fold=int(k % 4 == 0)) for k, e in enumerate(manifest.entries)]
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"RIFF\x24\x00\x00\x00WAVEjunk" + bytes(64))
        entries.insert(4, replace(entries[0], path=bad))
        return replace(manifest, entries=tuple(entries)), mcfg, tcfg

    def test_corrupt_validation_clip_raises_decode_error(self, small_dataset, tmp_path,
                                                         monkeypatch):
        manifest, mcfg, tcfg = self._corrupt_validation_clip(small_dataset, tmp_path)
        val = train.split_manifest(manifest, tcfg)[1]
        assert [e.path.name for e in val].index("bad.wav") > 0
        params = model.init_model(mcfg, np.random.default_rng(5))
        use_cpus(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(DecodeError) as standalone:
            train.evaluate(params, val, tcfg)
        assert threading.active_count() == before
        with pytest.raises(DecodeError) as per_epoch:
            train.train_loop(manifest, mcfg, tcfg)
        assert threading.active_count() == before
        assert standalone.type is per_epoch.type is DecodeError

    def test_store_shared_by_threads_keeps_its_bound(self, small_dataset, monkeypatch):
        entries = audio_io.load_manifest(small_dataset, audio_io.FOLDER_PER_CLASS).entries[:3]
        tcfg = train.TrainConfig(window_samples=SR)
        want = {str(e.path): train.ClipStore(tcfg).features(e) for e in entries}
        monkeypatch.setattr(train, "MAX_CACHED", 2)  # three paths evict each other
        store, errors = train.ClipStore(tcfg), []

        def hammer(order):
            try:
                for _ in range(40):
                    for e in order:
                        feats = store.features(e)
                        np.testing.assert_array_equal(feats, want[str(e.path)])
                        assert not feats.flags.writeable
                        assert len(store._features) <= 2
            except Exception as exc:  # reported by the main thread
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(entries[k % 3:] + entries[:k % 3],))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(store._features) == 2

    def test_a_key_stored_twice_evicts_nothing(self, small_dataset, monkeypatch):
        # two threads that miss the same clip both store it; the second store
        # must neither evict another entry nor replace the first one's features
        entries = audio_io.load_manifest(small_dataset, audio_io.FOLDER_PER_CLASS).entries[:2]
        tcfg = train.TrainConfig(window_samples=SR)
        monkeypatch.setattr(train, "MAX_CACHED", 2)
        store = train.ClipStore(tcfg)
        first = [store.features(e) for e in entries]
        monkeypatch.setattr(store, "cached", lambda entry: None)  # a miss that raced
        assert store.features(entries[1]) is first[1]
        assert len(store._features) == 2

    @pytest.mark.parametrize("n_build, n_submitted", [(0, 0), (1, 0), (2, 1), (6, 3)])
    def test_only_examples_to_build_reach_the_pool(self, n_build, n_submitted):
        example = lambda i: np.full(2, float(i))
        submitted = []
        with ThreadPoolExecutor(3) as executor:
            submit = executor.submit
            executor.submit = lambda fn: submitted.append(fn) or submit(fn)
            batch = train._prepare_batch(example, range(6), (executor, 3),
                                         lambda i: None if i < n_build else example(i))
        assert len(submitted) == n_submitted
        np.testing.assert_array_equal(batch, [example(i) for i in range(6)])

    def test_features_use_the_given_clip_and_decode_nothing(self, tmp_path, monkeypatch):
        entry = audio_io.ManifestEntry(tmp_path / "absent.wav", 0)
        cfg = train.TrainConfig(window_samples=SR)
        clip, store = audio_io.AudioClip(np.zeros(0), SR), train.ClipStore(cfg)
        monkeypatch.setattr(audio_io, "load_audio", lambda path: pytest.fail("decoded"))
        feats = store.features(entry, clip)  # an empty clip is given, not None
        np.testing.assert_array_equal(feats, cfg.pipeline.extract(audio_io.center_slice(clip, SR)))
        assert store.features(entry) is feats


@pytest.mark.parametrize("feature, extra", [
    (train.MEL, {}), (train.MEL, {"downsample": 3}), (train.MFCC, {}),
    (train.MFCC, {"n_coeffs": 13, "downsample": 2}),
    (train.AMPLITUDE, {"reshape_rows": 16, "reshape_cols": 64}),
    (train.AMPLITUDE, {"reshape_rows": 16, "reshape_cols": 64, "downsample": 3}),
    (train.CURVE, {}),
])
def test_model_config_takes_the_extracted_shape(feature, extra):
    window = audio_io.center_slice(audio_io.AudioClip(sine(440, 0.25), SR), 8192)
    if feature == train.CURVE:
        spec = tokenizer.CurveSpec(curve_len=4, resolution=16, top_k=50)
        extra = {"vocab": tokenizer.build_curve_vocab([window], spec)[0]}
    pipeline = train.PipelineConfig(feature=feature, spectrogram=dsp.SpectrogramConfig(
        n_fft=512, hop_length=512, win_length=512, n_mels=32), **extra)
    mcfg = pipeline.model_config(8192, classes=3)
    example = pipeline.extract(window)
    if feature == train.CURVE:
        assert (mcfg.input_mode, mcfg.seq_len) == (model.TOKENS, example.shape[0])
        assert mcfg.input_dim == extra["vocab"].vocab_size
    else:
        assert (mcfg.input_mode, mcfg.seq_len, mcfg.input_dim) == (
            model.CONTINUOUS, *example.shape)


def test_normalized_pipeline_scales_features_to_unit_range():
    clip = audio_io.AudioClip(sine(440, 0.25), SR)
    feats = train.PipelineConfig(normalize=True).extract(clip)
    np.testing.assert_array_equal(feats, dsp.normalize01(train.PipelineConfig().extract(clip)))
    assert (feats.min(), feats.max()) == (0.0, 1.0)


@pytest.mark.parametrize("feature, extra, shortest", [
    (train.MEL, {}, 512), (train.MFCC, {"n_coeffs": 13}, 512),
    (train.AMPLITUDE, {"reshape_rows": 16, "reshape_cols": 64}, 1024),
])
def test_shortest_window_holds_one_input(feature, extra, shortest):
    pipeline = train.PipelineConfig(feature=feature, spectrogram=dsp.SpectrogramConfig(
        n_fft=1024, hop_length=512, win_length=1024, n_mels=32), **extra)
    tcfg = train.TrainConfig(window_samples=shortest, pipeline=pipeline)
    window = audio_io.center_slice(audio_io.AudioClip(sine(440, 0.25), SR), shortest)
    mcfg = pipeline.model_config(shortest, classes=3)
    assert pipeline.extract(window).shape == (mcfg.seq_len, mcfg.input_dim)
    for build in (lambda: replace(tcfg, window_samples=shortest - 1),
                  lambda: pipeline.model_config(shortest - 1, classes=3)):
        with pytest.raises(ConfigError, match=f"window_samples must be >= {shortest}"):
            build()


class TestFinetune:
    def _base(self, dataset):
        manifest = audio_io.load_manifest(dataset, audio_io.FOLDER_PER_CLASS)
        spec = train.PipelineConfig(
            spectrogram=dsp.SpectrogramConfig(
                n_fft=512, hop_length=512, win_length=512, n_mels=32))
        tcfg = train.TrainConfig(lr_peak=2e-3, warmup_steps=0, batch_size=8,
                                 epochs=2, seed=6, window_samples=8192, pipeline=spec)
        mcfg = tcfg.pipeline.model_config(tcfg.window_samples, classes=3,
                                          hidden=8, heads=2, dropout_rate=0.0)
        return manifest, tcfg, train.train_loop(manifest, mcfg, tcfg)

    def test_zero_epochs_keeps_non_classifier_weights(self, small_dataset, monkeypatch):
        manifest, tcfg, base = self._base(small_dataset)
        starts = []
        monkeypatch.setattr(train, "train_loop", lambda *_, resume_from: starts.append(resume_from))
        train.finetune(base.last, manifest, tcfg, base.last.params.cfg)
        (start,) = starts
        assert (start.step, start.opt_tensors, start.metadata) == (0, None, {"epoch": -1})
        for name, tensor in base.last.params.tensors.items():
            if name.startswith("cls_"):
                continue
            np.testing.assert_array_equal(start.params.tensors[name], tensor)

    def test_classifier_resized_to_new_classes(self, small_dataset, tmp_path):
        manifest, tcfg, base = self._base(small_dataset)
        root = tmp_path / "two"
        write_synth_dataset(root, per_class=4, seed=9)
        import shutil
        shutil.rmtree(root / "clicks")
        two_class = audio_io.load_manifest(root, audio_io.FOLDER_PER_CLASS)
        tcfg = replace(tcfg, epochs=1)
        result = train.finetune(base.last, two_class, tcfg, base.last.params.cfg)
        assert result.last.params.cfg.classes == 2
        assert result.last.params.tensors["cls_w"].shape == (2, 8)
        acc = train.evaluate(result.last.params, two_class.entries, tcfg)
        assert 0.0 <= acc <= 1.0

    def test_hidden_mismatch_rejected(self, small_dataset):
        manifest, tcfg, base = self._base(small_dataset)
        wider = model.ModelConfig(input_dim=32, seq_len=16, hidden=16, layers=1,
                                  heads=2, classes=3)
        with pytest.raises(ConfigError, match="hidden"):
            train.finetune(base.last, manifest, tcfg, model_cfg=wider)

    def test_requested_dropout_is_trained(self, small_dataset, monkeypatch):
        manifest, tcfg, base = self._base(small_dataset)
        tcfg = replace(tcfg, epochs=1)
        rates, forward = [], train.forward

        def recording(params, batch, training, **kwargs):
            rates.append((training, params.cfg.dropout_rate))
            return forward(params, batch, training, **kwargs)

        monkeypatch.setattr(train, "forward", recording)
        want = replace(base.last.params.cfg, dropout_rate=0.3)
        result = train.finetune(base.last, manifest, tcfg, model_cfg=want)
        assert result.last.params.cfg.dropout_rate == 0.3
        assert {rate for training, rate in rates if training} == {0.3}

    def test_heads_mismatch_rejected(self, small_dataset):
        manifest, tcfg, base = self._base(small_dataset)
        more_heads = replace(base.last.params.cfg, heads=4)
        assert model.param_shapes(more_heads) == model.param_shapes(base.last.params.cfg)
        with pytest.raises(ConfigError, match="heads=2, requested 4"):
            train.finetune(base.last, manifest, tcfg, model_cfg=more_heads)

    def test_pipeline_mismatch_rejected(self, small_dataset):
        manifest, tcfg, base = self._base(small_dataset)
        tcfg = replace(tcfg, window_samples=16384)  # longer window -> different seq_len
        with pytest.raises(ConfigError, match="pipeline"):
            train.finetune(base.last, manifest, tcfg, base.last.params.cfg)


class TestMetricsCsv:
    def test_format(self, tmp_path):
        path = tmp_path / "metrics.csv"
        train.write_metrics_csv(path, [
            {"epoch": 0, "train_loss": 1.5, "val_acc": 0.25},
            {"epoch": 1, "train_loss": 1.25, "val_acc": 0.5},
        ])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_acc"
        assert lines[1] == "0,1.5,0.25"
