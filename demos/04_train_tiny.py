"""
Training the tiny model
-----------------------

Generates a small 3-class dataset of 1-second clips in a temporary
directory (sine tones, noise bursts, click trains), then trains the
~6.6k-parameter encoder on 5-second mel windows. Each clip is shorter than
the window, so it is zero-padded to one fixed window, featurized once per
run and reused every epoch; only clips longer than the window, or an
augmented run, get a fresh random slice per epoch. Expect held-out
accuracy to cross 90% within about ten epochs on a desktop CPU.
"""

import tempfile
from pathlib import Path

import numpy as np

from tinysound import audio_io, model, train
from tinysound.audio_io import AudioClip

SR = 44100
rng = np.random.default_rng(0)

def tone(n):
    t = np.arange(n) / SR
    return rng.uniform(0.3, 0.9) * np.sin(2 * np.pi * rng.uniform(300, 3000) * t)

def noise(n):
    return np.clip(0.25 * rng.normal(size=n), -1, 1)

def clicks(n):
    x = np.zeros(n)
    x[:: int(SR / rng.uniform(5, 20))] = rng.uniform(0.5, 0.9)
    return x

with tempfile.TemporaryDirectory(prefix="tinysound_demo_") as tmp:
    root = Path(tmp)
    for name, maker in {"tone": tone, "noise": noise, "clicks": clicks}.items():
        d = root / name
        d.mkdir(parents=True)
        for i in range(20):
            audio_io.write_wav(d / f"{i:02d}.wav", AudioClip(maker(SR), SR))

    manifest = audio_io.load_manifest(root, audio_io.FOLDER_PER_CLASS)
    print(f"dataset: {len(manifest)} clips, classes {manifest.class_names}")

    train_cfg = train.TrainConfig(
        lr_peak=2e-3,          # higher than the 1e-4 default, for a short run
        warmup_steps=30,
        batch_size=8,
        epochs=10,
        seed=7,
        window_samples=220_500,  # 5 s -> 430-frame mel sequences
        pipeline=train.PipelineConfig(),
    )
    model_cfg = train_cfg.pipeline.model_config(
        train_cfg.window_samples, classes=len(manifest.class_names))
    print(f"model: {model.count_params(model_cfg):,} parameters "
          f"(seq {model_cfg.seq_len}, hidden {model_cfg.hidden})")

    result = train.train_loop(manifest, model_cfg, train_cfg)
    print("\nepoch  train_loss  val_acc")
    for m in result.metrics:
        print(f"{m['epoch']:5d}  {m['train_loss']:10.4f}  {m['val_acc']:7.3f}")

    best = result.best.metadata["val_acc"]
    print(f"\nbest held-out accuracy: {best:.3f}")
    ckpt_path = root / "best.tsck"
    model.save_checkpoint(ckpt_path, result.best.params, step=result.best.step,
                          metadata=result.best.metadata)
    print(f"checkpoint: {ckpt_path.stat().st_size} bytes "
          "(in a temporary directory, removed on exit)")
