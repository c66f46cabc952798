"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Criterion 5 needs the ESC-50 dataset on disk (set ``ESC50_DIR``)
and is skipped otherwise.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from tinysound import audio_io, augment, cli, deploy, dsp, model, tokenizer, train
from tinysound.audio_io import AudioClip

from conftest import SR, assert_grads_close, finite_difference_grads, sine


def report(criterion: int, message: str, started: float):
    print(f"\n[criterion {criterion}] PASS - {message} ({time.time() - started:.1f}s)")


def test_criterion_1_parameter_count_golden():
    """count_params and an allocation tally both match Table rows exactly."""
    started = time.time()
    expected = {86: 5954, 430: 6642}
    for seq_len, target in expected.items():
        cfg = model.ModelConfig(input_dim=128, seq_len=seq_len, hidden=16,
                                layers=1, heads=2, classes=6)
        assert cfg.ffn_dim == 64
        assert model.count_params(cfg) == target
        params = model.init_model(cfg, np.random.default_rng(0))
        tally = sum(params.tensors[n].size for n in model.learnable_names(cfg))
        assert tally == target
    elapsed = time.time() - started
    assert elapsed < 1.0
    report(1, "5,954 (L=86) and 6,642 (L=430), closed form == allocation tally", started)


def _gradcheck(cfg, batch, labels):
    params = model.init_model(cfg, np.random.default_rng(42))
    logits, trace = model.forward(params, batch, training=True)
    _, dlogits = train.cross_entropy(logits, labels)
    analytic = train.backward(params, trace, dlogits)
    numeric = finite_difference_grads(cfg, params, batch, labels, h=1e-3)
    assert_grads_close(analytic, numeric, rtol=1e-3, atol=1e-5)


def test_criterion_2_gradient_correctness():
    """Analytic gradients match central differences in both input modes."""
    started = time.time()
    cont = model.ModelConfig(input_dim=6, seq_len=4, hidden=8, layers=1,
                             heads=2, classes=3, dropout_rate=0.0)
    _gradcheck(cont, np.random.default_rng(7).normal(size=(2, 4, 6)),
               np.array([0, 2]))
    toks = model.ModelConfig(input_mode="tokens", input_dim=20, seq_len=4,
                             hidden=8, layers=1, heads=2, classes=3,
                             dropout_rate=0.0)
    _gradcheck(toks, np.random.default_rng(8).integers(0, 20, size=(2, 4)),
               np.array([1, 2]))
    elapsed = time.time() - started
    assert elapsed < 60.0
    report(2, "continuous and tokens modes within 1e-3 of finite differences", started)


def test_criterion_3_dsp_oracles():
    started = time.time()
    cfg = dsp.SpectrogramConfig()

    # STFT peak at the driven bin
    freq = 10 * SR / cfg.n_fft
    mags = np.abs(dsp.stft(sine(freq), cfg))
    assert np.all(mags[5:-5].argmax(axis=1) == 10)

    # iSTFT round trip
    x = 0.1 * np.random.default_rng(1).normal(size=44100)
    rec = dsp.istft(dsp.stft(x, cfg), cfg, x.size)
    sl = slice(cfg.n_fft, 43000)
    rms = np.sqrt(np.mean((rec[sl] - x[sl]) ** 2)) / np.sqrt(np.mean(x[sl] ** 2))
    assert rms < 1e-4

    # DCT orthonormality
    mat = dsp.dct_matrix(128)
    assert np.abs(mat.T @ mat - np.eye(128)).max() < 1e-9

    # mel sequence lengths
    assert dsp.mel_spectrogram(AudioClip(np.zeros(44100), SR), cfg).shape == (86, 128)
    assert dsp.mel_spectrogram(AudioClip(np.zeros(220500), SR), cfg).shape == (430, 128)

    # lowpass -3 dB point
    cutoff = 0.1
    tone = sine(cutoff * SR / 2, 4.0)
    out = augment.lowpass(tone, np.random.default_rng(0), cutoff=cutoff)
    ratio = np.sqrt(np.mean(out[2 * SR:] ** 2) / np.mean(tone[2 * SR:] ** 2))
    assert abs(ratio - 2**-0.5) / 2**-0.5 < 0.05

    elapsed = time.time() - started
    assert elapsed < 60.0
    report(3, f"sine-bin, round trip (rms {rms:.1e}), DCT, 86/430 frames, -3 dB", started)


def test_criterion_4_synthetic_learnability(synth_dataset):
    """Tiny config reaches 90% held-out accuracy on a 3-class synthetic set.

    Pipeline mirrors the reference 5 s mel configuration: 220,500-sample
    windows, hop 512, 128 bands, hidden 16, one layer, two heads.
    """
    started = time.time()
    manifest = audio_io.load_manifest(synth_dataset, audio_io.FOLDER_PER_CLASS)
    assert len(manifest) == 180
    tcfg = train.TrainConfig(lr_peak=2e-3, warmup_steps=50, batch_size=16,
                             epochs=15, seed=7, window_samples=220_500,
                             pipeline=train.PipelineConfig())
    mcfg = tcfg.pipeline.model_config(tcfg.window_samples,
                                      classes=len(manifest.class_names))
    assert mcfg.seq_len == 430 and mcfg.hidden == 16
    result = train.train_loop(manifest, mcfg, tcfg)
    best = max(m["val_acc"] for m in result.metrics)
    elapsed = time.time() - started
    assert best >= 0.90, f"best held-out accuracy {best:.3f}"
    assert tcfg.epochs <= 100
    assert elapsed < 600.0
    report(4, f"held-out accuracy {best:.3f} within {tcfg.epochs} epochs", started)


def test_criterion_5_esc50_smoke():
    """Conditional: >= 20% fold-5 accuracy on ESC-50 with augmentations."""
    root = os.environ.get("ESC50_DIR")
    if not root or not Path(root).exists():
        pytest.skip("[criterion 5] SKIP - ESC-50 not present (set ESC50_DIR)")
    started = time.time()
    manifest = audio_io.load_manifest(root, audio_io.CSV_MANIFEST)
    assert len(manifest) == 2000 and len(manifest.class_names) == 50
    per_class = {}
    for e in manifest.entries:
        per_class[e.label] = per_class.get(e.label, 0) + 1
    assert set(per_class.values()) == {40}
    epochs = int(os.environ.get("ESC50_EPOCHS", "100"))
    tcfg = train.TrainConfig(lr_peak=1e-3, warmup_steps=500, batch_size=16,
                             epochs=epochs, seed=7, window_samples=220_500,
                             augments=augment.default_pipeline(0.3),
                             pipeline=train.PipelineConfig(), val_fold=5)
    mcfg = tcfg.pipeline.model_config(tcfg.window_samples, classes=50)
    result = train.train_loop(manifest, mcfg, tcfg)
    best = max(m["val_acc"] for m in result.metrics)
    assert best >= 0.20, f"fold-5 accuracy {best:.3f}"
    report(5, f"ESC-50 fold-5 accuracy {best:.3f} within {epochs} epochs", started)


def test_criterion_6_curve_tokenizer_properties():
    started = time.time()

    # constant signal -> exactly one curve
    vocab, stats = tokenizer.build_curve_vocab(
        [AudioClip(np.zeros(400), SR)], tokenizer.CurveSpec(top_k=10))
    assert len(vocab) == 1 and stats.distinct_curves == 1
    assert stats.vocab_coverage == 1.0

    # closure: audio rebuilt from vocabulary curves tokenizes with zero UNK
    rng = np.random.default_rng(17)
    corpus = []
    for _ in range(10):
        steps = rng.normal(0, 0.01, size=1200)
        corpus.append(AudioClip(np.clip(np.cumsum(steps), -1, 1), SR))
    full_vocab, _ = tokenizer.build_curve_vocab(
        corpus, tokenizer.CurveSpec(top_k=10**6))
    wave = np.concatenate([
        (np.array(c) + 0.5) / 64 * 2 - 1 for c in full_vocab.curves[:128]])
    ids = tokenizer.tokenize(AudioClip(wave, SR), full_vocab)
    assert np.count_nonzero(ids[1:] == tokenizer.UNK_ID) == 0

    # relative-mode coverage beats absolute at the same cap, brute-force checked
    cap = 200
    _, abs_stats = tokenizer.build_curve_vocab(
        corpus, tokenizer.CurveSpec(top_k=cap, mode=tokenizer.ABSOLUTE))
    _, rel_stats = tokenizer.build_curve_vocab(
        corpus, tokenizer.CurveSpec(top_k=cap, mode=tokenizer.RELATIVE))

    def brute_force(mode):
        counts: dict = {}
        total = 0
        for clip in corpus:
            levels = tokenizer.quantize_signal(clip, 64).tolist()
            for i in range(len(levels) - 7):
                win = tuple(levels[i : i + 8])
                if mode == tokenizer.RELATIVE:
                    low = min(win)
                    win = tuple(v - low for v in win)
                counts[win] = counts.get(win, 0) + 1
                total += 1
        top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:cap]
        return sum(c for _, c in top) / total

    assert abs_stats.vocab_coverage == pytest.approx(brute_force(tokenizer.ABSOLUTE), abs=1e-12)
    assert rel_stats.vocab_coverage == pytest.approx(brute_force(tokenizer.RELATIVE), abs=1e-12)
    assert rel_stats.vocab_coverage >= abs_stats.vocab_coverage

    elapsed = time.time() - started
    assert elapsed < 60.0
    report(6, f"single-curve, closure, relative {rel_stats.vocab_coverage:.3f} "
              f">= absolute {abs_stats.vocab_coverage:.3f}", started)


def test_criterion_7_quantization(tmp_path):
    started = time.time()
    cfg = model.ModelConfig(input_dim=128, seq_len=430, hidden=16, layers=1,
                            heads=2, classes=6)
    params = model.init_model(cfg, np.random.default_rng(1))
    qparams = deploy.quantize_dynamic(params)

    rng = np.random.default_rng(99)
    agree = 0
    for _ in range(10):
        batch = rng.normal(size=(100, 430, 128))
        agree += int((model.forward(params, batch).argmax(1)
                      == deploy.qforward(qparams, batch).argmax(1)).sum())
    assert agree >= 950, f"agreement {agree}/1000"

    path = tmp_path / "tiny.tscq"
    deploy.save_quantized(path, qparams)
    size = path.stat().st_size
    assert size <= 256 * 1024

    ratio = deploy.weight_payload_bytes(qparams) / deploy.weight_payload_bytes(params)
    assert ratio <= 0.26

    elapsed = time.time() - started
    assert elapsed < 60.0
    report(7, f"argmax agreement {agree}/1000, checkpoint {size} bytes, "
              f"payload ratio {ratio:.2%}", started)


def test_criterion_8_augmentation_suite():
    started = time.time()
    rng = np.random.default_rng(33)
    x = np.clip(0.4 * rng.normal(size=30011), -1, 1)

    for kind, fn in augment.AUGMENTATIONS.items():
        out = fn(x, np.random.default_rng(5))
        assert out.size == x.size, f"{kind} changed length"
        again = fn(x, np.random.default_rng(5))
        np.testing.assert_array_equal(out, again, err_msg=f"{kind} nondeterministic")
        assert np.all(np.isfinite(out)), f"{kind} produced non-finite values"

    # per-kind oracles
    wave = rng.normal(size=20000)
    echoed = augment.echo(wave, rng, delay=4410)
    assert echoed[10000] == wave[10000] + wave[5590]

    shifted = augment.pitch_shift(sine(440, 1.0), rng, semitones=12.0)
    spec = np.abs(np.fft.rfft(shifted * np.hanning(shifted.size)))
    peak = spec.argmax() * SR / shifted.size
    assert abs(peak - 880.0) / 880.0 < 0.02

    steady = sine(440, 1.0)
    energy = np.sum(steady**2)
    assert np.sum(augment.hpss(steady, rng, branch="harmonic") ** 2) / energy >= 0.8
    click = np.zeros(SR)
    click[SR // 2] = 1.0
    assert np.sum(augment.hpss(click, rng, branch="percussive") ** 2) >= 0.8

    clipped = augment.amplitude_clip(np.array([0.0, 1.0, -1.0]), rng, threshold=0.75)
    np.testing.assert_array_equal(clipped, [0.0, 0.75, -0.75])
    assert augment.bitwise_downsample(np.array([0.5]), rng, resolution=40)[0] == 0.5
    np.testing.assert_array_equal(
        augment.samplerate_downsample(np.array([1.0, 2.0, 3.0, 4.0]), rng, factor=2),
        [1.0, 1.0, 3.0, 3.0])

    dc = augment.lowpass(np.full(SR, 0.5), rng, cutoff=0.1)
    assert abs(dc[-1] - 0.5) < 1e-3

    noise_in = sine(200, 1.0)
    noisy = augment.add_noise(noise_in, np.random.default_rng(2), sigma=0.03)
    assert abs(np.var(noisy - noise_in) - 0.03**2) / 0.03**2 < 0.1

    erased = augment.partial_erase(x, np.random.default_rng(3), fraction=0.25)
    changed = np.flatnonzero(erased != x)
    assert changed.size == round(0.25 * x.size)

    sped = augment.speed_adjust(sine(440, 1.0), rng, rate=1.3)
    content = sped[: int(SR / 1.3) - 4096]
    cspec = np.abs(np.fft.rfft(content * np.hanning(content.size)))
    assert abs(cspec.argmax() * SR / content.size - 440.0) / 440.0 < 0.02

    amp = augment.amplify(x, rng, gain=0.5)
    np.testing.assert_allclose(amp, 0.5 * x)

    elapsed = time.time() - started
    assert elapsed < 120.0
    report(8, "all 11 transforms: length, determinism, per-kind oracles", started)


def test_criterion_9_end_to_end_reproducibility(synth_dataset, tmp_path):
    """Two `train --seed 7` runs write identical metrics CSVs."""
    started = time.time()
    cfg_path = tmp_path / "repro.cfg"
    cfg_path.write_text("\n".join([
        f"data_root = {synth_dataset}",
        "layout = folder_per_class",
        "feature = mel",
        "n_fft = 1024", "win_length = 1024", "hop_length = 512", "n_mels = 128",
        "window_samples = 44100",
        "hidden = 16", "layers = 1", "heads = 2",
        "batch_size = 16", "epochs = 3",
        "lr_peak = 0.002", "warmup_steps = 50",
        "augment = true", "augment_probability = 0.2",
    ]) + "\n")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.main(["train", "--config", str(cfg_path), "--seed", "7",
                     "--out", str(out1)]) == 0
    assert cli.main(["train", "--config", str(cfg_path), "--seed", "7",
                     "--out", str(out2)]) == 0
    csv1 = (out1 / "metrics.csv").read_text()
    csv2 = (out2 / "metrics.csv").read_text()
    assert csv1 == csv2
    assert len(csv1.strip().splitlines()) == 4
    report(9, "identical metrics CSVs across two seeded end-to-end runs", started)
