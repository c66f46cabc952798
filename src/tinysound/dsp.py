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
from .audio_io import TARGET_RATE, AudioClip
from .errors import ConfigError, DecodeError

_DB_FLOOR_POWER = 1e-10
_DB_RANGE = 80.0

MEL = "mel"
MFCC = "mfcc"
AMPLITUDE = "amplitude"
#: Kinds of feature matrix; a kind's index is its TSFM kind code.
FEATURE_KINDS = (MEL, MFCC, AMPLITUDE)


@dataclass(frozen=True)
class SpectrogramConfig:
    n_fft: int = 1024
    hop_length: int = 512
    win_length: int = 1024
    n_mels: int = 128
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

    @property
    def n_bins(self) -> int:
        return self.n_fft // 2 + 1


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


def stft(x: np.ndarray, cfg: SpectrogramConfig) -> np.ndarray:
    """Short-time Fourier transform of a 1-D signal with centered frames.

    Returns the complex (frames x bins) array: floor(n / hop) frames of
    n_fft/2 + 1 one-sided bins.
    """
    if x.size < 1:
        raise ValueError("cannot transform an empty signal")
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
    return np.fft.rfft(frames * window, axis=1)


def istft(spec: np.ndarray, cfg: SpectrogramConfig, n_samples: int) -> np.ndarray:
    """Inverse STFT by windowed overlap-add with window-square normalization:
    the first ``n_samples`` samples of the signal, zero past the last frame.

    Round-trips stft output to within 1e-4 RMS on interior samples.
    """
    window = _padded_window(cfg)
    n_frames = spec.shape[0]
    pad = cfg.n_fft // 2
    total = (n_frames - 1) * cfg.hop_length + cfg.n_fft if n_frames else cfg.n_fft
    acc = np.zeros(total)
    norm = np.zeros(total)
    for lo in range(0, n_frames, 64):  # bounds the inverse transforms' workspace
        frames = np.fft.irfft(spec[lo : lo + 64], n=cfg.n_fft, axis=1)
        for k, frame in enumerate(frames, lo):
            start = k * cfg.hop_length
            acc[start : start + cfg.n_fft] += frame * window
            norm[start : start + cfg.n_fft] += window**2
    covered = norm > 1e-10
    acc[covered] /= norm[covered]
    out = np.zeros(n_samples)
    avail = min(n_samples, max(0, total - pad))
    out[:avail] = acc[pad : pad + avail]
    return out


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

    Filters span 0 Hz to TARGET_RATE/2 on the Slaney mel scale; each row is scaled
    by 2 / (f_upper - f_lower) so filter area is independent of bandwidth.
    Built once per config and shared, so the returned array is read-only.
    """
    if cfg.n_mels > cfg.n_bins:
        raise ConfigError(f"n_mels {cfg.n_mels} exceeds available bins {cfg.n_bins}")
    edges_mel = np.linspace(0.0, float(hz_to_mel(TARGET_RATE / 2.0)), cfg.n_mels + 2)
    edges_hz = mel_to_hz(edges_mel)
    bin_freqs = np.arange(cfg.n_bins) * TARGET_RATE / cfg.n_fft

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


def mel_spectrogram(clip: AudioClip, cfg: SpectrogramConfig) -> np.ndarray:
    """Power mel spectrogram (frames x n_mels), optionally in dB (log_scale)."""
    power = np.abs(stft(clip.samples, cfg)) ** 2
    mel = np.ascontiguousarray((_mel_filterbank_csr(cfg) @ power.T).T)
    if cfg.log_scale:
        mel = power_to_db(mel)
    return mel


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


def mfcc(clip: AudioClip, cfg: SpectrogramConfig, n_coeffs: int | None = None) -> np.ndarray:
    """Mel-frequency cepstral coefficients: DCT-II of the log-mel spectrum."""
    if n_coeffs is None:
        n_coeffs = cfg.n_mels
    if n_coeffs > cfg.n_mels:
        raise ConfigError(f"n_coeffs {n_coeffs} exceeds n_mels {cfg.n_mels}")
    logmel = mel_spectrogram(clip, replace(cfg, log_scale=True))
    return (logmel @ dct_matrix(cfg.n_mels).T)[:, :n_coeffs]


def downsample_columns(features: np.ndarray, n: int) -> np.ndarray:
    """Keep every n-th time frame (rows 0, n, 2n, ...); L' = ceil(L / n)."""
    if n < 1:
        raise ValueError(f"downsampling factor must be >= 1, got {n}")
    return features[::n] if n > 1 else features


def reshape_amplitudes(clip: AudioClip, rows: int, cols: int) -> np.ndarray:
    """Lay out the first rows*cols samples row-major as a feature matrix."""
    needed = rows * cols
    if len(clip) < needed:
        raise ValueError(
            f"need {needed} samples to reshape to {rows}x{cols}, have {len(clip)}"
        )
    return clip.samples[:needed].reshape(rows, cols)


def normalize01(features: np.ndarray) -> np.ndarray:
    """Scale the whole matrix to [0, 1]; constant matrices map to zeros."""
    lo, hi = features.min(), features.max()
    if hi == lo:
        return np.zeros_like(features)
    return (features - lo) / (hi - lo)


# ---------------------------------------------------------------------------
# Feature file format: magic "TSFM", u32 L, u32 F, u8 kind, row-major f32
# ---------------------------------------------------------------------------

_FEATURE_MAGIC = b"TSFM"


def save_features(path, features: np.ndarray, kind: str) -> None:
    """Write an L x F matrix of one of ``FEATURE_KINDS`` as a TSFM file."""
    rows, cols = features.shape
    header = struct.pack("<IIB", rows, cols, FEATURE_KINDS.index(kind))
    Path(path).write_bytes(_FEATURE_MAGIC + header + features.astype("<f4").tobytes())


def load_features(path) -> tuple[np.ndarray, str]:
    """Read a TSFM file as its float64 matrix and kind; any malformed
    content, a NaN or Inf value included, raises DecodeError."""
    r = _binio.Reader(Path(path).read_bytes(), _FEATURE_MAGIC, DecodeError, "feature file")
    shape = r.unpack("<II", "header")
    (kind_code,) = r.unpack("<B", "header")
    if kind_code >= len(FEATURE_KINDS):
        raise r.error(f"unknown feature kind code {kind_code}")
    values = r.array("<f4", shape, "feature payload")
    if not np.isfinite(values).all():  # before the cast, which warns on a signalling NaN
        raise r.error("feature payload contains NaN or Inf")
    return values.astype(np.float64), FEATURE_KINDS[kind_code]
