"""Waveform augmentations: eleven randomized transforms plus a pipeline.

Every transform preserves the sample count, is deterministic given
(input, seed), and never produces NaN/Inf from finite input. Randomly
drawn parameters can be pinned through keyword overrides for testing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.signal

from . import dsp
from .audio_io import sinc_resample
from .errors import ConfigError

# Phase vocoder configuration shared by pitch_shift and speed_adjust.
_VOCODER_FFT = 2048
_VOCODER_HOP = 512

# HPSS configuration.
_HPSS_FFT = 1024
_HPSS_HOP = 512
_HPSS_KERNEL = 17

ECHO_DELAY_RANGE = (882, 17640)  # 2% .. 40% of one second at 44.1 kHz


def _as_wave(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _fit_length(x: np.ndarray, n: int) -> np.ndarray:
    if x.size >= n:
        return x[:n]
    return np.pad(x, (0, n - x.size))


def amplitude_clip(x, rng: np.random.Generator, *, threshold: float | None = None):
    """Clamp to +-t where t = u * max|x|, u ~ U(0.75, 1.0)."""
    x = _as_wave(x)
    if threshold is None:
        threshold = rng.uniform(0.75, 1.0) * np.max(np.abs(x), initial=0.0)
    return np.clip(x, -threshold, threshold)


def amplify(x, rng: np.random.Generator, *, gain: float | None = None):
    """Scale by g ~ U(0.5, 1.5). No re-clamping; downstream features tolerate it."""
    x = _as_wave(x)
    if gain is None:
        gain = rng.uniform(0.5, 1.5)
    return gain * x


def echo(x, rng: np.random.Generator, *, delay: int | None = None):
    """Add the sample from ``delay`` positions earlier, delay ~ U_int(882, 17640)."""
    x = _as_wave(x)
    if delay is None:
        delay = int(rng.integers(ECHO_DELAY_RANGE[0], ECHO_DELAY_RANGE[1] + 1))
    out = x.copy()
    if delay < x.size:
        out[delay:] += x[:-delay]
    return out


def lowpass(x, rng: np.random.Generator, *, cutoff: float | None = None):
    """Fifth-order Butterworth lowpass, cutoff ~ U(0.05, 0.20) of Nyquist, forward pass."""
    x = _as_wave(x)
    if cutoff is None:
        cutoff = rng.uniform(0.05, 0.20)
    b, a = scipy.signal.butter(5, cutoff)
    return scipy.signal.lfilter(b, a, x)


def _linear_stft_config(n_fft: int, hop: int) -> dsp.SpectrogramConfig:
    return dsp.SpectrogramConfig(n_fft=n_fft, hop_length=hop, win_length=n_fft, n_mels=1,
                                 log_scale=False)


def time_stretch(x, rate: float) -> np.ndarray:
    """Phase-vocoder time stretch; rate > 1 is faster (output ~ len/rate).

    Pitch is preserved. Output length is exactly round(len / rate).
    """
    if rate <= 0:
        raise ValueError(f"stretch rate must be positive, got {rate}")
    x = _as_wave(x)
    n_target = int(round(x.size / rate))
    if x.size == 0 or n_target == 0:
        return np.zeros(n_target)
    cfg = _linear_stft_config(_VOCODER_FFT, _VOCODER_HOP)
    spec = dsp.stft(x, cfg)
    if spec.shape[0] == 0:
        return _fit_length(x, n_target)

    n, bins = spec.shape
    steps = np.arange(0.0, n, rate)
    magnitudes, phases = np.zeros((n + 2, bins)), np.zeros((n + 2, bins))
    np.abs(spec, out=magnitudes[:n])
    np.arctan2(spec.imag, spec.real, out=phases[:n])  # what np.angle computes
    del spec
    # expected phase advance per hop for each bin
    advance = 2.0 * np.pi * _VOCODER_HOP * np.arange(bins) / _VOCODER_FFT

    out = np.empty((steps.size, bins), dtype=np.complex128)
    accumulator = phases[0].copy()
    for i, step in enumerate(steps):
        k = int(step)
        frac = step - k
        mag = (1.0 - frac) * magnitudes[k] + frac * magnitudes[k + 1]
        out[i] = mag * np.exp(1j * accumulator)
        delta = phases[k + 1] - phases[k] - advance
        delta -= 2.0 * np.pi * np.round(delta / (2.0 * np.pi))
        accumulator += advance + delta

    stretched = dsp.istft(out, cfg, steps.size * _VOCODER_HOP)
    return _fit_length(stretched, n_target)


def pitch_shift(x, rng: np.random.Generator, *, semitones: float | None = None):
    """Shift pitch up by s ~ U(0, 4) semitones; length is preserved.

    Time-stretches to length * 2^(s/12) at constant pitch, then resamples
    back to the original length, scaling all frequencies by 2^(s/12).
    """
    x = _as_wave(x)
    if semitones is None:
        semitones = rng.uniform(0.0, 4.0)
    factor = 2.0 ** (semitones / 12.0)
    if factor == 1.0:
        return x.copy()
    slowed = time_stretch(x, 1.0 / factor)
    shifted = sinc_resample(slowed, 1.0 / factor)
    return _fit_length(shifted, x.size)


def partial_erase(x, rng: np.random.Generator, *, fraction: float | None = None):
    """Replace one contiguous region (f ~ U(0, 0.30) of the clip) with noise.

    The noise is Gaussian with the input's standard deviation; the rest of
    the clip is untouched.
    """
    x = _as_wave(x)
    if fraction is None:
        fraction = rng.uniform(0.0, 0.30)
    length = int(round(fraction * x.size))
    if length == 0:
        return x.copy()
    start = int(rng.integers(0, x.size - length + 1))
    out = x.copy()
    out[start : start + length] = rng.normal(0.0, np.std(x), size=length)
    return out


def speed_adjust(x, rng: np.random.Generator, *, rate: float | None = None):
    """Phase-vocoder speed change, rate ~ U(0.5, 1.5); >1 is faster.

    Pitch is preserved; the result is trimmed or zero-padded back to the
    input length.
    """
    x = _as_wave(x)
    if rate is None:
        rate = rng.uniform(0.5, 1.5)
    if rate == 1.0:
        return x.copy()
    return _fit_length(time_stretch(x, rate), x.size)


def add_noise(x, rng: np.random.Generator, *, sigma: float | None = None):
    """Add Gaussian noise with sigma ~ U(0, 0.05) * max|x|."""
    x = _as_wave(x)
    if sigma is None:
        sigma = rng.uniform(0.0, 0.05) * np.max(np.abs(x), initial=0.0)
    if sigma == 0.0:
        return x.copy()
    return x + rng.normal(0.0, sigma, size=x.size)


def _median_filter(x: np.ndarray, axis: int, rows: int = 32) -> np.ndarray:
    """Exact ``_HPSS_KERNEL``-tap running median along ``axis``, edges mirrored
    as scipy's "reflect", by selection on contiguous blocks of ``rows`` rows."""
    half = _HPSS_KERNEL // 2
    pad = [(half, half) if a == axis else (0, 0) for a in range(2)]
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(x, pad, mode="symmetric"), _HPSS_KERNEL, axis=axis)
    out = np.empty_like(x)
    for lo in range(0, len(x), rows):
        block = windows[lo : lo + rows].copy()  # about 2 MB at 513 columns
        block.partition(half)
        out[lo : lo + rows] = block[..., half]
    return out


def hpss_masks(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Soft harmonic/percussive masks from median-filtered magnitudes.

    Harmonic energy is sustained along time, percussive along frequency;
    the soft masks H^2/(H^2+P^2) and P^2/(H^2+P^2) sum to ~1 per bin.
    """
    harm, perc = _median_filter(magnitude, 0), _median_filter(magnitude, 1)
    h2, p2 = harm**2, perc**2
    denom = h2 + p2 + 1e-10
    return h2 / denom, p2 / denom


def hpss(x, rng: np.random.Generator, *, branch: str | None = None):
    """Harmonic/percussive separation; a coin picks which branch to keep."""
    x = _as_wave(x)
    if branch is None:
        branch = "harmonic" if rng.integers(0, 2) == 0 else "percussive"
    if branch not in ("harmonic", "percussive"):
        raise ValueError(f"branch must be harmonic or percussive, got {branch!r}")
    cfg = _linear_stft_config(_HPSS_FFT, _HPSS_HOP)
    spec = dsp.stft(x, cfg)
    if spec.shape[0] == 0:
        return x.copy()
    mask_h, mask_p = hpss_masks(np.abs(spec))
    mask = mask_h if branch == "harmonic" else mask_p
    return dsp.istft(spec * mask, cfg, x.size)


def bitwise_downsample(x, rng: np.random.Generator, *, resolution: int | None = None):
    """Snap samples to a grid of 1/R, R ~ U_int(40, 100): floor(x*R)/R."""
    x = _as_wave(x)
    if resolution is None:
        resolution = int(rng.integers(40, 101))
    # eps keeps exact grid points (m/R)*R from flooring down a whole step
    return np.floor(x * resolution + 1e-9) / resolution


def samplerate_downsample(x, rng: np.random.Generator, *, factor: int | None = None):
    """Hold every k-th sample for k positions, k ~ U_int(2, 9); length unchanged."""
    x = _as_wave(x)
    if factor is None:
        factor = int(rng.integers(2, 10))
    if x.size == 0:
        return x.copy()
    idx = (np.arange(x.size) // factor) * factor
    return x[idx]


#: kind name -> transform, in the fixed order the pipeline applies them.
AUGMENTATIONS = {
    "amplitude_clip": amplitude_clip,
    "amplify": amplify,
    "echo": echo,
    "lowpass": lowpass,
    "pitch_shift": pitch_shift,
    "partial_erase": partial_erase,
    "speed_adjust": speed_adjust,
    "add_noise": add_noise,
    "hpss": hpss,
    "bitwise_downsample": bitwise_downsample,
    "samplerate_downsample": samplerate_downsample,
}


@dataclass(frozen=True)
class AugmentSpec:
    """One augmentation in a pipeline: kind, application probability, seed."""

    kind: str
    probability: float = 0.3
    rng_seed: int | None = None

    def __post_init__(self):
        if self.kind not in AUGMENTATIONS:
            raise ConfigError(f"unknown augmentation kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(f"probability must be in [0, 1], got {self.probability}")


def default_pipeline(probability: float = 0.3) -> list[AugmentSpec]:
    """All eleven augmentations at a shared independent probability."""
    return [AugmentSpec(kind, probability) for kind in AUGMENTATIONS]


def apply_pipeline(x, specs: list[AugmentSpec], rng: np.random.Generator) -> np.ndarray:
    """Apply each spec independently with its probability, in listed order."""
    out = _as_wave(x).copy()
    for spec in specs:
        if rng.random() >= spec.probability:
            continue
        param_rng = (
            np.random.default_rng(spec.rng_seed) if spec.rng_seed is not None else rng
        )
        out = AUGMENTATIONS[spec.kind](out, param_rng)
    return out
