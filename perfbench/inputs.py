"""Synthetic benchmark inputs: WAV files and ESC-50 style manifests.

Every signal comes from a numpy generator seeded by the benchmark's
``--seed``. Files are written with the stdlib ``wave`` module, so the
inputs do not depend on the encoder of the code under test.
"""

from __future__ import annotations

import csv
import wave
from pathlib import Path

import numpy as np
import scipy.signal

#: Six classes, so the reference model has the paper's 6,642 parameters.
#: Sorted, because the manifest loader numbers classes alphabetically.
CLASSES = ("clicks_fast", "clicks_slow", "noise_low", "noise_white", "tone_high", "tone_low")


def synth(kind: str, rng: np.random.Generator, seconds: float, rate: int) -> np.ndarray:
    """One mono clip in [-1, 1] of the given class."""
    n = int(round(seconds * rate))
    t = np.arange(n) / rate
    amp = rng.uniform(0.3, 0.9)
    if kind.startswith("tone"):
        freq = rng.uniform(200.0, 800.0) if kind == "tone_low" else rng.uniform(1500.0, 4000.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        x = np.sin(2 * np.pi * freq * t + phase) + 0.2 * np.sin(4 * np.pi * freq * t)
        x *= amp / 1.2
    elif kind.startswith("noise"):
        x = rng.normal(size=n)
        if kind == "noise_low":
            x = scipy.signal.lfilter([0.05], [1.0, -0.95], x) * 3.0
        x *= 0.3 * amp
    else:
        clicks_per_s = rng.uniform(15.0, 40.0) if kind == "clicks_fast" else rng.uniform(3.0, 8.0)
        period = max(1, int(rate / clicks_per_s))
        impulses = np.zeros(n)
        impulses[int(rng.integers(0, period)) :: period] = amp
        decay = np.exp(-44100.0 / (40.0 * rate))  # 40-sample ring at 44.1 kHz
        x = scipy.signal.lfilter([1.0], [1.0, -decay], impulses)
    return np.clip(x, -1.0, 1.0)


def write_wav(path: Path, x: np.ndarray, rate: int) -> None:
    """16-bit PCM mono."""
    pcm = np.round(np.clip(x, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.tobytes())


def write_dataset(root: Path, rng: np.random.Generator, clips) -> list[Path]:
    """Write ``clips`` = [(kind, fold, seconds, rate)] under root/audio with a
    ``manifest.csv`` (filename, fold, target, category); returns the paths."""
    audio = root / "audio"
    audio.mkdir(parents=True, exist_ok=True)
    paths, rows = [], []
    for i, (kind, fold, seconds, rate) in enumerate(clips):
        name = f"{i:03d}_{kind}_{rate}.wav"
        write_wav(audio / name, synth(kind, rng, seconds, rate), rate)
        paths.append(audio / name)
        rows.append((name, fold, CLASSES.index(kind), kind))
    with open(root / "manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["filename", "fold", "target", "category"])
        writer.writerows(rows)
    return paths
