"""
Feature extraction walkthrough
------------------------------

Builds a one-second test signal (a 440 Hz tone over soft noise), then runs
it through every feature path the models consume: mel spectrogram, MFCCs,
time-downsampled mel, and raw amplitude reshaping. Saves a mel spectrogram
image next to this script if matplotlib is available.
"""

import numpy as np

from tinysound import dsp
from tinysound.audio_io import AudioClip

SR = 44100

t = np.arange(SR) / SR
signal = 0.6 * np.sin(2 * np.pi * 440.0 * t) + 0.02 * np.random.default_rng(0).normal(size=SR)
clip = AudioClip(signal, SR)

# The reference front end: 1024-point FFT, hop 512, 128 mel bands.
cfg = dsp.SpectrogramConfig()
mel = dsp.mel_spectrogram(clip, cfg)
print(f"mel spectrogram: {mel.shape[0]} frames x {mel.shape[1]} bands "
      f"({SR / cfg.hop_length:.1f} frames/s)")
print(f"  dynamic range: {mel.min():.1f} .. {mel.max():.1f} dB")

# A 5 s window at the same hop yields the 430-frame sequence the tiny model uses.
five_s = AudioClip(np.tile(signal, 5), SR)
print(f"5 s window: {dsp.mel_spectrogram(five_s, cfg).shape[0]} frames")

# MFCCs: orthonormal DCT-II over the log-mel vectors.
coeffs = dsp.mfcc(clip, cfg, n_coeffs=20)
print(f"mfcc: {coeffs.shape} (first frame, c0..c4: "
      f"{np.array2string(coeffs[0, :5], precision=1)})")

# Keeping every 3rd frame shortens the sequence without touching the bands.
downsampled = dsp.downsample_columns(mel, 3)
print(f"downsample x3: {mel.shape[0]} -> {downsampled.shape[0]} frames")

# Raw amplitude reshaping: samples laid out row-major, no spectral analysis.
reshaped = dsp.reshape_amplitudes(clip, 86, 512)
print(f"amplitude reshape: {reshaped.shape} consumes {86 * 512} samples")

# 0-1 normalization used by pipelines that skip the model's batch norm.
normed = dsp.normalize01(mel)
print(f"normalize01: min {normed.min()}, max {normed.max()}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(8, 4))
    ax.imshow(mel.T, origin="lower", aspect="auto", cmap="magma")
    ax.set_xlabel("frame")
    ax.set_ylabel("mel band")
    ax.set_title("Log-mel spectrogram, 440 Hz tone")
    fig.tight_layout()
    fig.savefig("demo_mel_spectrogram.png", dpi=100)
    print("wrote demo_mel_spectrogram.png")
except ImportError:
    print("matplotlib not installed; skipping the plot")
