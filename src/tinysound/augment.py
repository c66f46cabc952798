"""Waveform augmentations: eleven randomized transforms plus a pipeline.

Every transform takes a 1-D float64 array (``apply_pipeline`` makes one
from any input), preserves the sample count, is deterministic given
(input, seed), and never produces NaN/Inf from finite input. Randomly
drawn parameters can be pinned through keyword overrides for testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.signal

from . import dsp
from .audio_io import sinc_resample
from .errors import ConfigError

# STFT frames of the phase vocoder (pitch_shift, speed_adjust) and of HPSS
_VOCODER = dsp.SpectrogramConfig(n_fft=2048, hop_length=512, win_length=2048)
_HPSS = dsp.SpectrogramConfig(n_fft=1024, hop_length=512, win_length=1024)
_HPSS_KERNEL = 17  # the median network below is built for 17 taps
_MEDIAN_BLOCK = 32  # lines per block of the median network

ECHO_DELAY_RANGE = (882, 17640)  # 2% .. 40% of one second at 44.1 kHz


def _fit_length(x: np.ndarray, n: int) -> np.ndarray:
    if x.size >= n:
        return x[:n]
    return np.pad(x, (0, n - x.size))


def amplitude_clip(x, rng: np.random.Generator, *, threshold: float | None = None):
    """Clamp to +-t where t = u * max|x|, u ~ U(0.75, 1.0)."""
    if threshold is None:
        threshold = rng.uniform(0.75, 1.0) * np.max(np.abs(x), initial=0.0)
    return np.clip(x, -threshold, threshold)


def amplify(x, rng: np.random.Generator, *, gain: float | None = None):
    """Scale by g ~ U(0.5, 1.5). No re-clamping; downstream features tolerate it."""
    if gain is None:
        gain = rng.uniform(0.5, 1.5)
    return gain * x


def echo(x, rng: np.random.Generator, *, delay: int | None = None):
    """Add the sample from ``delay`` positions earlier, delay ~ U_int(882, 17640)."""
    if delay is None:
        delay = int(rng.integers(ECHO_DELAY_RANGE[0], ECHO_DELAY_RANGE[1] + 1))
    out = x.copy()
    if delay < x.size:
        out[delay:] += x[:-delay]
    return out


def lowpass(x, rng: np.random.Generator, *, cutoff: float | None = None):
    """Fifth-order Butterworth lowpass, cutoff ~ U(0.05, 0.20) of Nyquist, forward pass."""
    if cutoff is None:
        cutoff = rng.uniform(0.05, 0.20)
    b, a = scipy.signal.butter(5, cutoff)
    y = scipy.signal.lfilter(b, a, x)
    return np.where(np.abs(y) < np.finfo(float).tiny, 0.0, y)  # subnormals slow later transforms


def time_stretch(x, rate: float, max_steps: int | None = None) -> np.ndarray:
    """Phase-vocoder time stretch; rate > 1 is faster (output ~ len/rate).

    Pitch is preserved. Output length is exactly round(len / rate), zero past the
    first ``max_steps`` synthesis frames (None: all). Phase is carried as unit
    phasors (Laroche and Dolson 1999), so no angle is taken.
    """
    if rate <= 0:
        raise ValueError(f"stretch rate must be positive, got {rate}")
    n_target = int(round(x.size / rate))
    if x.size < _VOCODER.hop_length:  # no analysis frame
        return _fit_length(x, n_target)
    units = dsp.stft(x, _VOCODER)

    n, bins = units.shape
    # e^{i phi} = X/|X| by two real divides (a complex one overflows on a subnormal |X|),
    # renormalized where |X| is subnormal; 1 where X = 0, as np.angle(0) is 0
    units = np.vstack([units, np.zeros((1, bins))])  # row n: the zero frame past the end
    magnitudes = np.abs(units)
    for part in (units.real, units.imag):
        np.divide(part, magnitudes, out=part, where=magnitudes > 0)
    units[magnitudes == 0] = 1.0
    small = magnitudes < np.finfo(float).tiny
    units[small] /= np.abs(units[small])
    for lo in reversed(range(0, n, 64)):  # row k + 1 becomes frame k's turn; row 0 stays
        hi = min(lo + 64, n)
        np.multiply(units[lo + 1 : hi + 1], units[lo:hi].conj(), out=units[lo + 1 : hi + 1])
    steps = np.arange(0.0, n, rate)[:max_steps]
    k, frac = steps.astype(np.intp), (steps % 1.0)[:, None]
    out = np.take(units, np.r_[0, k[:-1] + 1], axis=0)  # step 0's phasor, then step i-1's turn
    del units, part, small
    for lo in range(0, steps.size, 63):  # blocks of 64 steps, each carrying in the last one's end
        np.multiply.accumulate(out[lo : lo + 64], axis=0, out=out[lo : lo + 64])
    for lo in range(0, steps.size, 64):
        ks, f = k[lo : lo + 64], frac[lo : lo + 64]
        out[lo : lo + 64] *= (1.0 - f) * magnitudes[ks] + f * magnitudes[ks + 1]
    del magnitudes
    return _fit_length(dsp.istft(out, _VOCODER, steps.size * _VOCODER.hop_length), n_target)


def pitch_shift(x, rng: np.random.Generator, *, semitones: float | None = None):
    """Shift pitch up by s ~ U(0, 4) semitones; length is preserved.

    The factor is num/den, the fraction with den <= 256 nearest 2^(s/12):
    at most 3.4 cents off, under the ~5-cent pitch JND, and a resampling
    kernel of at most 256 phases. Time-stretches to length * num/den at
    constant pitch, then resamples by den/num back to the original length,
    scaling all frequencies by num/den.
    """
    if semitones is None:
        semitones = rng.uniform(0.0, 4.0)
    num, den = Fraction(2.0 ** (semitones / 12.0)).limit_denominator(256).as_integer_ratio()
    if num == den:
        return x.copy()
    slowed = time_stretch(x, den / num)
    shifted = sinc_resample(slowed, den, num)
    return _fit_length(shifted, x.size)


def partial_erase(x, rng: np.random.Generator, *, fraction: float | None = None):
    """Replace one contiguous region (f ~ U(0, 0.30) of the clip) with noise.

    The noise is Gaussian with the input's standard deviation; the rest of
    the clip is untouched.
    """
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
    if rate is None:
        rate = rng.uniform(0.5, 1.5)
    if rate == 1.0:
        return x.copy()
    steps = (x.size + _VOCODER.n_fft) // _VOCODER.hop_length + 1  # frames its samples reach
    return _fit_length(time_stretch(x, rate, steps), x.size)


def add_noise(x, rng: np.random.Generator, *, sigma: float | None = None):
    """Add Gaussian noise with sigma ~ U(0, 0.05) * max|x|."""
    if sigma is None:
        sigma = rng.uniform(0.0, 0.05) * np.max(np.abs(x), initial=0.0)
    if sigma == 0.0:
        return x.copy()
    return x + rng.normal(0.0, sigma, size=x.size)


def _merge(a: list, b: list) -> list:
    """Batcher's odd-even merge of two sorted runs of arrays, of one power-of-two length."""
    if len(a) == 1:
        return [np.minimum(a[0], b[0]), np.maximum(a[0], b[0])]
    even, odd = _merge(a[::2], b[::2]), _merge(a[1::2], b[1::2])
    pairs = zip(odd, even[1:])
    return [even[0], *(f(o, e) for o, e in pairs for f in (np.minimum, np.maximum)), odd[-1]]


def _rank(a: list, b: list, k: int) -> np.ndarray:
    """Output ``k`` (from 0) of ``_merge(a, b)``, a middle one (``len(a) - 1`` or
    ``len(a)``), from only the comparators that reach it."""
    if len(a) == 1:
        return (np.maximum if k else np.minimum)(a[0], b[0])
    odd, even = _rank(a[1::2], b[1::2], (k - 1) // 2), _rank(a[::2], b[::2], (k + 1) // 2)
    return (np.minimum if k % 2 else np.maximum)(odd, even)


def _median_filter(x: np.ndarray, axis: int) -> np.ndarray:
    """Exact 17-tap running median along ``axis``, edges mirrored as scipy's "reflect".

    A min/max network on blocks of ``_MEDIAN_BLOCK`` lines, each a flat array p whose
    window i's median overwrites p[i] (windows that cross a line end are dropped). Windows
    2m and 2m + 1 share p[2m + 1 : 2m + 17]; with c8, c9 the 8th and 9th smallest of those
    16, their medians are max(c8, min(p[2m], c9)) and max(c8, min(p[2m + 17], c9)). Exact
    on every 0/1 window, hence on all (the zero-one principle); each output is an input.
    """
    half = _HPSS_KERNEL // 2
    lines = np.ascontiguousarray(np.pad(x if axis else x.T, [(0, 0), (half, half)], "symmetric"))
    for lo in range(0, len(lines), _MEDIAN_BLOCK):
        flat = lines[lo : lo + _MEDIAN_BLOCK].reshape(-1)
        n = flat.size - 2 * half
        run = _merge([flat[1:-1:2]], [flat[2::2]])  # sorted pairs at the odd positions
        for s in (1, 2):
            run = _merge([r[:-s] for r in run], [r[s:] for r in run])
        a, b = [r[: (n + 1) // 2] for r in run], [r[4 : 4 + (n + 1) // 2] for r in run]
        odd, even = _rank(a[1::2], b[1::2], 3), _rank(a[::2], b[::2], 4)  # merge outputs 7, 8
        c8, c9 = np.minimum(odd, even), np.maximum(odd, even)  # are their exchange
        np.maximum(c8, np.minimum(flat[:n:2], c9), out=flat[:n:2])
        np.maximum(c8[: n // 2], np.minimum(flat[2 * half + 1 :: 2], c9[: n // 2]), out=flat[1:n:2])
    return lines[:, : -2 * half] if axis else lines[:, : -2 * half].T


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
    if branch is None:
        branch = "harmonic" if rng.integers(0, 2) == 0 else "percussive"
    if branch not in ("harmonic", "percussive"):
        raise ValueError(f"branch must be harmonic or percussive, got {branch!r}")
    if x.size < _HPSS.hop_length:  # no analysis frame
        return x.copy()
    spec = dsp.stft(x, _HPSS)
    mask_h, mask_p = hpss_masks(np.abs(spec))
    mask = mask_h if branch == "harmonic" else mask_p
    return dsp.istft(spec * mask, _HPSS, x.size)


def bitwise_downsample(x, rng: np.random.Generator, *, resolution: int | None = None):
    """Snap samples to a grid of 1/R, R ~ U_int(40, 100): floor(x*R)/R."""
    if resolution is None:
        resolution = int(rng.integers(40, 101))
    # eps keeps exact grid points (m/R)*R from flooring down a whole step
    return np.floor(x * resolution + 1e-9) / resolution


def samplerate_downsample(x, rng: np.random.Generator, *, factor: int | None = None):
    """Hold every k-th sample for k positions, k ~ U_int(2, 9); length unchanged."""
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
    """One augmentation in a pipeline: kind and application probability."""

    kind: str
    probability: float = 0.3

    def __post_init__(self):
        if self.kind not in AUGMENTATIONS:
            raise ConfigError(f"unknown augmentation kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(f"probability must be in [0, 1], got {self.probability}")


def default_pipeline(probability: float = AugmentSpec.probability) -> list[AugmentSpec]:
    """All eleven augmentations at a shared independent probability."""
    return [AugmentSpec(kind, probability) for kind in AUGMENTATIONS]


def apply_pipeline(x, specs: list[AugmentSpec], rng: np.random.Generator) -> np.ndarray:
    """Apply each spec independently with its probability, in listed order; a
    spec at probability 0 takes no draw, so ``rng`` and the output are as without it."""
    out = np.array(x, dtype=np.float64)
    for spec in specs:
        if spec.probability == 0 or rng.random() >= spec.probability:
            continue
        out = AUGMENTATIONS[spec.kind](out, rng)
    return out
