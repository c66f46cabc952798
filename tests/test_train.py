"""Loss, gradients, optimizer schedule, and the training loop."""

import hashlib
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tinysound
from tinysound import audio_io, augment, dsp, model, tokenizer, train
from tinysound.errors import ConfigError, DecodeError, DivergenceError

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

    def test_unused_segment_row_gradient_exactly_zero(self):
        cfg = grad_cfg()
        params = model.init_model(cfg, np.random.default_rng(46))
        batch = np.random.default_rng(11).normal(size=(2, 4, 6))
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
        opt = train.init_opt_state(params)
        return cfg, params, opt

    def test_zero_gradients_no_change(self):
        cfg, params, opt = self._setup()
        before = {k: v.copy() for k, v in params.tensors.items()}
        zeros = {n: np.zeros(params.tensors[n].shape) for n in model.learnable_names(cfg)}
        train.adam_step(params, zeros, opt, lr=1e-3)
        for name in before:
            np.testing.assert_array_equal(params.tensors[name], before[name])
        assert opt.step == 1

    def test_first_step_is_signed_lr(self):
        cfg, params, opt = self._setup()
        grads = {n: np.zeros(params.tensors[n].shape) for n in model.learnable_names(cfg)}
        grads["cls_b"] = np.array([0.5, -0.25, 0.0])
        before = params.tensors["cls_b"].copy()
        train.adam_step(params, grads, opt, lr=1e-3)
        delta = params.tensors["cls_b"] - before
        np.testing.assert_allclose(delta[:2], [-1e-3, 1e-3], rtol=1e-4)
        assert delta[2] == 0.0

    def test_lr_zero_keeps_loss(self):
        cfg, params, opt = self._setup()
        batch = np.random.default_rng(12).normal(size=(2, 4, 6))
        labels = np.array([0, 1])
        logits, trace = model.forward(params, batch, training=True, freeze_stats=True)
        loss_before, dlogits = train.cross_entropy(logits, labels)
        grads = train.backward(params, trace, dlogits)
        train.adam_step(params, grads, opt, lr=0.0)
        logits2 = model.forward(params, batch, training=False)
        loss_after, _ = train.cross_entropy(logits2, labels)
        assert loss_after == loss_before

    def test_deterministic(self):
        cfg, params_a, opt_a = self._setup(seed=51)
        _, params_b, opt_b = self._setup(seed=51)
        grads = {n: np.random.default_rng(13).normal(size=params_a.tensors[n].shape)
                 for n in model.learnable_names(cfg)}
        train.adam_step(params_a, grads, opt_a, lr=1e-3)
        train.adam_step(params_b, grads, opt_b, lr=1e-3)
        for name in params_a.tensors:
            np.testing.assert_array_equal(params_a.tensors[name], params_b.tensors[name])

    def test_float32_overflow_raises_before_writing(self):
        cfg, params, opt = self._setup()
        grads = {n: np.zeros(params.tensors[n].shape) for n in model.learnable_names(cfg)}
        grads["cls_b"] = np.array([1.0, -1.0, 0.0])
        train.adam_step(params, grads, opt, lr=1e-3)
        before = {k: v.copy() for k, v in {**params.tensors, **opt.m, **opt.v}.items()}
        with pytest.raises(DivergenceError, match="Adam step 2 overflows float32 in cls_b"):
            train.adam_step(params, grads, opt, lr=1e39)
        assert opt.step == 1
        after = {**params.tensors, **opt.m, **opt.v}
        for name in before:
            np.testing.assert_array_equal(after[name], before[name])


class TestSplit:
    @pytest.mark.parametrize("fraction", [float("nan"), float("inf"), -1.0, 0.0, 1.0])
    def test_bad_val_fraction_rejected(self, fraction):
        with pytest.raises(ConfigError, match="val_fraction"):
            train.TrainConfig(val_fraction=fraction)

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

    @pytest.mark.parametrize("change", ["hidden", "seed", "window_samples"])
    def test_resume_rejects_a_different_config(self, small_dataset, change):
        manifest, mcfg, tcfg = self._config(1, small_dataset)
        half = train.train_loop(manifest, mcfg, tcfg)
        tcfg.epochs = 2
        if change == "hidden":
            mcfg = replace(mcfg, hidden=16)
        elif change == "seed":
            tcfg.seed += 1
        else:  # same frame count, so the model config still fits
            tcfg.window_samples += 8
        with pytest.raises(ConfigError, match=change):
            train.train_loop(manifest, mcfg, tcfg, resume_from=half.last)

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

    def test_shape_mismatch_rejected_before_any_example(self, small_dataset, monkeypatch):
        manifest, mcfg, tcfg = self._config(1, small_dataset)
        prepared = []
        monkeypatch.setattr(train, "_prepare_example", lambda *a: prepared.append(a))
        with pytest.raises(ConfigError, match="pipeline produces continuous 16x32 inputs; "
                                              "model expects continuous 20x32"):
            train.train_loop(manifest, replace(mcfg, seq_len=20), tcfg)
        assert prepared == []

    def test_empty_manifest_rejected(self):
        manifest = audio_io.DatasetManifest((), (), audio_io.FOLDER_PER_CLASS)
        with pytest.raises(ValueError):
            train.train_loop(manifest, grad_cfg(), train.TrainConfig())


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
# run must give these bytes at 1 and at 2 BLAS threads.
GOLDEN_RUN_SHA256 = {
    False: "011842d43fdcadb13815e9e371c7cd2da4f9d9841c615d14a379d169c878f5ed",
    True: "9e3a7b15f5182fb538d0cfebeea9a26e3f7210290519c99919599b2ab58bc7a5",
}


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

    def test_one_store_keeps_each_pipelines_features(self, small_dataset, monkeypatch):
        store, batches = train.ClipStore(), []
        forward = train.forward
        monkeypatch.setattr(train, "forward",
                            lambda params, batch, **kw: batches.append(batch) or
                            forward(params, batch, **kw))
        for feature in (train.MEL, train.MFCC):  # both 87 x 32 per window
            manifest, mcfg, tcfg = self._config(small_dataset, 8192, feature)
            entries = manifest.entries[:5]
            params = model.init_model(mcfg, np.random.default_rng(0))
            train.evaluate(params, entries, tcfg, store=store)
            want = [tcfg.pipeline.extract(audio_io.center_slice(store.load(e), 8192))
                    for e in entries]
            np.testing.assert_array_equal(batches.pop(), np.stack(want))

    def test_cached_features_are_read_only(self, small_dataset):
        manifest, _, tcfg = self._config(small_dataset, SR)
        store = train.ClipStore()
        clip = store.load(manifest.entries[0])
        feats = store.features(clip, 0, tcfg)
        assert store.features(store.load(manifest.entries[0]), 0, tcfg) is feats
        with pytest.raises(ValueError, match="read-only"):
            feats[0, 0] = 0.0


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
        monkeypatch.setattr(train, "forward", lambda params, batch, **kw:
                            batches.append(batch.tobytes()) or forward(params, batch, **kw))
        runs = []
        for n in (1, 2, 4):
            use_cpus(monkeypatch, n)
            runs.append((train.evaluate(params, manifest.entries, tcfg), batches[:]))
            batches.clear()
        assert len(runs[0][1]) == 5  # 24 clips in batches of 5
        assert runs[1] == runs[0] and runs[2] == runs[0]

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

    def test_store_shared_by_threads_decodes_a_cached_path_once(self, small_dataset,
                                                               monkeypatch):
        entries = audio_io.load_manifest(small_dataset, audio_io.FOLDER_PER_CLASS).entries[:3]
        store, load_audio = train.ClipStore(max_cached=2), audio_io.load_audio
        decodes, errors = [], []

        def counted_load_audio(path):  # runs under the store's lock
            if str(path) in store._cache:
                errors.append(f"{path} decoded while cached")
            decodes.append(str(path))
            return load_audio(path)

        def hammer(order):
            try:
                for _ in range(40):
                    for e in order:
                        clip = store.load(e)
                        assert clip.source_id == str(e.path)
                        feats = store.features(clip, 0, train.TrainConfig(window_samples=SR))
                        assert feats.shape == (86, 128)
            except Exception as exc:  # reported by the main thread
                errors.append(repr(exc))

        monkeypatch.setattr(audio_io, "load_audio", counted_load_audio)
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
        assert set(decodes) == {str(e.path) for e in entries}

    def test_store_hit_returns_the_cached_clip(self, small_dataset):
        entry = audio_io.load_manifest(small_dataset, audio_io.FOLDER_PER_CLASS).entries[0]
        store = train.ClipStore()
        assert store.load(entry).samples is store.load(entry).samples


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

    def test_zero_epochs_keeps_non_classifier_weights(self, small_dataset):
        manifest, tcfg, base = self._base(small_dataset)
        tcfg.epochs = 0
        result = train.finetune(base.last, manifest, tcfg)
        for name, tensor in base.last.params.tensors.items():
            if name.startswith("cls_"):
                continue
            np.testing.assert_array_equal(result.last.params.tensors[name], tensor)

    def test_classifier_resized_to_new_classes(self, small_dataset, tmp_path):
        manifest, tcfg, base = self._base(small_dataset)
        root = tmp_path / "two"
        write_synth_dataset(root, per_class=4, seed=9)
        import shutil
        shutil.rmtree(root / "clicks")
        two_class = audio_io.load_manifest(root, audio_io.FOLDER_PER_CLASS)
        tcfg.epochs = 1
        result = train.finetune(base.last, two_class, tcfg)
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
        tcfg.epochs = 1
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
        tcfg.window_samples = 16384  # longer window -> different seq_len
        with pytest.raises(ConfigError, match="pipeline"):
            train.finetune(base.last, manifest, tcfg)


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
