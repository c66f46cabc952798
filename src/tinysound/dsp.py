"""Spectral features: STFT/iSTFT, mel spectrograms, MFCCs, and reshaping.

Framing convention: signals are reflect-padded by n_fft/2 on both ends
(centered frames) and the frame count is truncated to floor(n / hop).
A 5 s clip at 44.1 kHz with hop 512 therefore yields exactly 430 frames.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy.sparse

from . import _binio
from .audio_io import AudioClip
from .errors import ConfigError, DecodeError

_DB_FLOOR_POWER = 1e-10
_DB_RANGE = 80.0

FEATURE_KINDS = ("mel", "mfcc", "amplitude_reshape")


@dataclass(frozen=True)
class SpectrogramConfig:
    n_fft: int = 1024
    hop_length: int = 512
    win_length: int = 1024
    n_mels: int = 128
    sample_rate: int = 44100
    log_scale: bool = True

    def __post_init__(self):
        if self.hop_length <= 0:
            raise ConfigError(f"hop_length must be positive, got {self.hop_length}")
        if self.win_length > self.n_fft:
            raise ConfigError(
                f"win_length {self.win_length} exceeds n_fft {self.n_fft}"
            )
        if self.n_mels > self.n_fft // 2 + 1:
            raise ConfigError(
                f"n_mels {self.n_mels} exceeds n_fft/2+1 = {self.n_fft // 2 + 1}"
            )
        if self.sample_rate <= 0:
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")

    @property
    def n_bins(self) -> int:
        return self.n_fft // 2 + 1


@dataclass(frozen=True)
class FeatureMatrix:
    """L x F matrix of per-frame feature vectors."""

    data: np.ndarray
    kind: str
    frame_rate: float

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("feature matrix contains NaN or Inf")
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        object.__setattr__(self, "data", data)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


@dataclass(frozen=True)
class ComplexSpectrogram:
    """Complex STFT frames (time x bins) with the config that produced them."""

    data: np.ndarray
    config: SpectrogramConfig
    n_samples: int | None = None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.complex128)
        if not np.all(np.isfinite(data)):
            raise ValueError("spectrogram contains NaN or Inf")
        object.__setattr__(self, "data", data)


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


def _padded_window(cfg: SpectrogramConfig) -> np.ndarray:
    window = hann_window(cfg.win_length)
    if cfg.win_length == cfg.n_fft:
        return window
    out = np.zeros(cfg.n_fft)
    left = (cfg.n_fft - cfg.win_length) // 2
    out[left : left + cfg.win_length] = window
    return out


def frame_count(n_samples: int, hop_length: int) -> int:
    return n_samples // hop_length


def stft(clip: AudioClip, cfg: SpectrogramConfig) -> ComplexSpectrogram:
    """Short-time Fourier transform with centered frames.

    Returns floor(n / hop) frames of n_fft/2 + 1 one-sided bins.
    """
    x = clip.samples
    if x.size < 1:
        raise ValueError("cannot transform an empty clip")
    pad = cfg.n_fft // 2
    if x.size > 1:
        padded = np.pad(x, pad, mode="reflect")
    else:
        padded = np.pad(x, pad, mode="edge")
    n_frames = frame_count(x.size, cfg.hop_length)
    window = _padded_window(cfg)
    if n_frames > 0:
        frames = np.lib.stride_tricks.sliding_window_view(padded, cfg.n_fft)
        frames = frames[: n_frames * cfg.hop_length : cfg.hop_length]
    else:
        frames = np.empty((0, cfg.n_fft))
    spec = np.fft.rfft(frames * window, axis=1)
    return ComplexSpectrogram(spec, cfg, n_samples=x.size)


def istft(spec: ComplexSpectrogram) -> AudioClip:
    """Inverse STFT by windowed overlap-add with window-square normalization.

    Round-trips stft output to within 1e-4 RMS on interior samples.
    """
    cfg = spec.config
    window = _padded_window(cfg)
    n_frames = spec.data.shape[0]
    pad = cfg.n_fft // 2
    total = (n_frames - 1) * cfg.hop_length + cfg.n_fft if n_frames else cfg.n_fft
    acc = np.zeros(total)
    norm = np.zeros(total)
    for lo in range(0, n_frames, 64):  # bounds the inverse transforms' workspace
        frames = np.fft.irfft(spec.data[lo : lo + 64], n=cfg.n_fft, axis=1)
        for k, frame in enumerate(frames, lo):
            start = k * cfg.hop_length
            acc[start : start + cfg.n_fft] += frame * window
            norm[start : start + cfg.n_fft] += window**2
    covered = norm > 1e-10
    acc[covered] /= norm[covered]
    n_out = spec.n_samples if spec.n_samples is not None else n_frames * cfg.hop_length
    out = np.zeros(n_out)
    avail = min(n_out, max(0, total - pad))
    out[:avail] = acc[pad : pad + avail]
    return AudioClip(out, cfg.sample_rate)


# ---------------------------------------------------------------------------
# Mel scale (Slaney formulation: linear below 1 kHz, log above)
# ---------------------------------------------------------------------------

_MEL_BREAK_HZ = 1000.0
_MEL_BREAK = 15.0  # 3 * 1000 / 200
_MEL_LOG_STEP = np.log(6.4) / 27.0


def hz_to_mel(freq):
    freq = np.asarray(freq, dtype=np.float64)
    mel = 3.0 * freq / 200.0
    above = freq >= _MEL_BREAK_HZ
    mel = np.where(above, _MEL_BREAK + np.log(np.maximum(freq, 1e-12) / _MEL_BREAK_HZ) / _MEL_LOG_STEP, mel)
    return mel


def mel_to_hz(mel):
    mel = np.asarray(mel, dtype=np.float64)
    freq = 200.0 * mel / 3.0
    above = mel >= _MEL_BREAK
    freq = np.where(above, _MEL_BREAK_HZ * np.exp(_MEL_LOG_STEP * (mel - _MEL_BREAK)), freq)
    return freq


@lru_cache(maxsize=16)
def mel_filterbank(cfg: SpectrogramConfig) -> np.ndarray:
    """Triangular mel filterbank, n_mels x (n_fft/2 + 1), area-normalized.

    Filters span 0 Hz to sr/2 on the Slaney mel scale; each row is scaled
    by 2 / (f_upper - f_lower) so filter area is independent of bandwidth.
    Built once per config and shared, so the returned array is read-only.
    """
    if cfg.n_mels > cfg.n_bins:
        raise ConfigError(f"n_mels {cfg.n_mels} exceeds available bins {cfg.n_bins}")
    edges_mel = np.linspace(0.0, float(hz_to_mel(cfg.sample_rate / 2.0)), cfg.n_mels + 2)
    edges_hz = mel_to_hz(edges_mel)
    bin_freqs = np.arange(cfg.n_bins) * cfg.sample_rate / cfg.n_fft

    lower = edges_hz[:-2, None]
    center = edges_hz[1:-1, None]
    upper = edges_hz[2:, None]
    rising = (bin_freqs[None, :] - lower) / np.maximum(center - lower, 1e-12)
    falling = (upper - bin_freqs[None, :]) / np.maximum(upper - center, 1e-12)
    weights = np.maximum(0.0, np.minimum(rising, falling))
    weights *= 2.0 / (upper - lower)
    weights.flags.writeable = False
    return weights


@lru_cache(maxsize=16)
def _mel_filterbank_csr(cfg: SpectrogramConfig) -> scipy.sparse.csr_array:
    """``mel_filterbank(cfg)`` in CSR form, built once per config and shared,
    so its arrays are read-only.

    Each triangle covers a few adjacent bins (1,007 nonzeros of 65,664 at the
    default config). scipy's CSR product runs single-threaded without the GIL
    and sums every band over ascending bins, so, unlike a BLAS product, it
    wakes no BLAS thread and its bytes do not depend on the BLAS thread count.
    """
    csr = scipy.sparse.csr_array(mel_filterbank(cfg))
    for arr in (csr.data, csr.indices, csr.indptr):
        arr.flags.writeable = False
    return csr


def power_to_db(power: np.ndarray) -> np.ndarray:
    db = 10.0 * np.log10(np.maximum(power, _DB_FLOOR_POWER))
    return np.maximum(db, db.max() - _DB_RANGE)


def mel_spectrogram(clip: AudioClip, cfg: SpectrogramConfig) -> FeatureMatrix:
    """Power mel spectrogram, optionally in dB (log_scale)."""
    spec = stft(clip, cfg)
    power = np.abs(spec.data) ** 2
    mel = np.ascontiguousarray((_mel_filterbank_csr(cfg) @ power.T).T)
    if cfg.log_scale:
        mel = power_to_db(mel)
    return FeatureMatrix(mel, "mel", cfg.sample_rate / cfg.hop_length)


@lru_cache(maxsize=16)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix (rows are basis vectors), built once per n
    and shared, so the returned array is read-only."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    mat = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * i + 1) / (2.0 * n))
    mat[0] /= np.sqrt(2.0)
    mat.flags.writeable = False
    return mat


def mfcc(clip: AudioClip, cfg: SpectrogramConfig, n_coeffs: int | None = None) -> FeatureMatrix:
    """Mel-frequency cepstral coefficients: DCT-II of the log-mel spectrum."""
    if n_coeffs is None:
        n_coeffs = cfg.n_mels
    if n_coeffs > cfg.n_mels:
        raise ConfigError(f"n_coeffs {n_coeffs} exceeds n_mels {cfg.n_mels}")
    log_cfg = replace(cfg, log_scale=True)
    logmel = mel_spectrogram(clip, log_cfg)
    coeffs = logmel.data @ dct_matrix(cfg.n_mels).T
    return FeatureMatrix(coeffs[:, :n_coeffs], "mfcc", logmel.frame_rate)


def downsample_columns(features: FeatureMatrix, n: int) -> FeatureMatrix:
    """Keep every n-th time frame (rows 0, n, 2n, ...); L' = ceil(L / n)."""
    if n < 1:
        raise ValueError(f"downsampling factor must be >= 1, got {n}")
    if n == 1:
        return features
    return FeatureMatrix(features.data[::n], features.kind, features.frame_rate / n)


def reshape_amplitudes(clip: AudioClip, rows: int, cols: int) -> FeatureMatrix:
    """Lay out the first rows*cols samples row-major as a feature matrix."""
    needed = rows * cols
    if len(clip) < needed:
        raise ValueError(
            f"need {needed} samples to reshape to {rows}x{cols}, have {len(clip)}"
        )
    data = clip.samples[:needed].reshape(rows, cols)
    return FeatureMatrix(data, "amplitude_reshape", clip.sample_rate / cols)


def normalize01(features: FeatureMatrix) -> FeatureMatrix:
    """Scale the whole matrix to [0, 1]; constant matrices map to zeros."""
    data = features.data
    lo, hi = data.min(), data.max()
    if hi == lo:
        out = np.zeros_like(data)
    else:
        out = (data - lo) / (hi - lo)
    return FeatureMatrix(out, features.kind, features.frame_rate)


# ---------------------------------------------------------------------------
# Feature file format: magic "TSFM", u32 L, u32 F, u8 kind, row-major f32
# ---------------------------------------------------------------------------

_FEATURE_MAGIC = b"TSFM"


def save_features(path, features: FeatureMatrix) -> None:
    rows, cols = features.shape
    header = struct.pack("<IIB", rows, cols, FEATURE_KINDS.index(features.kind))
    Path(path).write_bytes(_FEATURE_MAGIC + header + features.data.astype("<f4").tobytes())


def load_features(path, frame_rate: float = 0.0) -> FeatureMatrix:
    """Read a TSFM file; any malformed content raises DecodeError."""
    r = _binio.Reader(Path(path).read_bytes(), _FEATURE_MAGIC, DecodeError, "feature file")
    shape = r.unpack("<II", "header")
    (kind_code,) = r.unpack("<B", "header")
    if kind_code >= len(FEATURE_KINDS):
        raise r.error(f"unknown feature kind code {kind_code}")
    values = r.array("<f4", shape, "feature payload")
    with r.rejecting("feature payload", ValueError):
        return FeatureMatrix(values, FEATURE_KINDS[kind_code], frame_rate)
