"""Shared fixtures: synthetic audio, an on-disk dataset, and a gradcheck helper."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from tinysound import audio_io, model as model_mod, train as train_mod
from tinysound.audio_io import AudioClip

SR = 44100


def sine(freq: float, seconds: float = 1.0, amp: float = 0.8, sr: int = SR,
         phase: float = 0.0) -> np.ndarray:
    t = np.arange(int(round(seconds * sr))) / sr
    return amp * np.sin(2 * np.pi * freq * t + phase)


def tone_clip(rng: np.random.Generator, seconds: float = 1.0) -> np.ndarray:
    return sine(rng.uniform(300.0, 3000.0), seconds,
                amp=rng.uniform(0.3, 0.9), phase=rng.uniform(0, 2 * np.pi))


def noise_clip(rng: np.random.Generator, seconds: float = 1.0) -> np.ndarray:
    n = int(round(seconds * SR))
    return np.clip(rng.uniform(0.2, 0.8) * 0.3 * rng.normal(size=n), -1, 1)


def click_clip(rng: np.random.Generator, seconds: float = 1.0) -> np.ndarray:
    n = int(round(seconds * SR))
    x = np.zeros(n)
    period = int(SR / rng.uniform(4.0, 25.0))
    ring = np.exp(-np.arange(256) / 40.0) * rng.uniform(0.5, 0.95)
    for start in range(int(rng.integers(0, period)), n, period):
        end = min(start + 256, n)
        x[start:end] += ring[: end - start]
    return np.clip(x, -1, 1)


SYNTH_MAKERS = {"clicks": click_clip, "noise": noise_clip, "tone": tone_clip}


def write_synth_dataset(root: Path, per_class: int, seconds: float = 1.0,
                        seed: int = 2024) -> Path:
    rng = np.random.default_rng(seed)
    for name, maker in SYNTH_MAKERS.items():
        class_dir = root / name
        class_dir.mkdir(parents=True, exist_ok=True)
        for i in range(per_class):
            clip = AudioClip(maker(rng, seconds), SR)
            audio_io.write_wav(class_dir / f"{name}_{i:03d}.wav", clip)
    return root


@pytest.fixture(scope="session")
def synth_dataset(tmp_path_factory) -> Path:
    """180 one-second clips: 60 sine tones, 60 noise bursts, 60 click trains."""
    return write_synth_dataset(tmp_path_factory.mktemp("synth"), per_class=60)


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory) -> Path:
    """Quick 3-class dataset (8 clips per class) for pipeline-level tests."""
    return write_synth_dataset(tmp_path_factory.mktemp("synth_small"), per_class=8, seed=5)


def finite_difference_grads(cfg, params, batch, labels, names=None, h=1e-3, seed=None):
    """Central-difference loss gradients with float64 arithmetic throughout.

    With ``seed``, every probe draws its dropout masks from a generator
    freshly seeded with it, so all probes see the masks of the analytic pass.
    """
    base = {k: v.astype(np.float64) for k, v in params.tensors.items()}

    def loss_with(tensors):
        probe = model_mod.ModelParams.__new__(model_mod.ModelParams)
        probe.cfg = cfg
        probe.tensors = tensors
        rng = None if seed is None else np.random.default_rng(seed)
        logits, _ = model_mod.forward(probe, batch, training=True, rng=rng)
        return train_mod.cross_entropy(logits, labels)[0]

    fd = {}
    for name in names or model_mod.learnable_names(cfg):
        grad = np.zeros(base[name].size)
        for idx in range(base[name].size):
            up = {k: (v.copy() if k == name else v) for k, v in base.items()}
            up[name].flat[idx] += h
            down = {k: (v.copy() if k == name else v) for k, v in base.items()}
            down[name].flat[idx] -= h
            grad[idx] = (loss_with(up) - loss_with(down)) / (2 * h)
        fd[name] = grad.reshape(base[name].shape)
    return fd


def assert_grads_close(analytic: dict, numeric: dict, rtol=1e-3, atol=1e-5):
    """Gradcheck bound |a - n| <= atol + rtol * max(|a|, |n|), elementwise."""
    for name, fd in numeric.items():
        a = analytic[name]
        bound = atol + rtol * np.maximum(np.abs(a), np.abs(fd))
        worst = np.max(np.abs(a - fd) - bound)
        assert worst <= 0, (
            f"{name}: max violation {worst:.3e} "
            f"(|a-n| up to {np.max(np.abs(a - fd)):.3e})"
        )
