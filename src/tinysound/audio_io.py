"""WAV decoding, band-limited resampling, dataset manifests, and slicing.

Waveforms are mono float64 arrays in [-1, 1] (int16 scaled by 1/32768).
Everything here is pure: clips and manifests are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import os
import struct
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.special import i0

from . import _binio
from .errors import DecodeError, ManifestError, UnsupportedFormatError

#: Ingestion sampling rate. All dataset audio is brought to this rate.
TARGET_RATE = 44100

#: Header sampling rates a WAV may declare. Below the range, resampling to
#: TARGET_RATE would multiply the sample count by more than 44; above it,
#: each output of the decimating resampler would take more than 558 taps.
MIN_WAV_RATE = 1000
MAX_WAV_RATE = 768_000

# Kaiser-windowed sinc resampler: 32 taps per phase, beta chosen for
# ~-60 dB stopband without an external dependency.
_RESAMPLE_TAPS = 32
_KAISER_BETA = 8.6
# Kernel phases evaluated at once, which bounds the kernel's memory: a block
# at 768 kHz is 256 x 558 taps (1.1 MB).
_KERNEL_BLOCK = 256


@dataclass(frozen=True)
class AudioClip:
    """Immutable mono waveform with its sampling rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.float64, copy=True)
        if samples.ndim != 1:
            raise ValueError(f"expected mono 1-D samples, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples contain NaN or Inf")
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    @classmethod
    def _owning(cls, samples: np.ndarray, sample_rate: int) -> "AudioClip":
        """Skips the copy and scan: for a new, finite 1-D float64 array."""
        clip = object.__new__(cls)
        samples.setflags(write=False)
        object.__setattr__(clip, "samples", samples)
        object.__setattr__(clip, "sample_rate", int(sample_rate))
        return clip

    def __len__(self) -> int:
        return self.samples.size

    def with_samples(self, samples: np.ndarray) -> "AudioClip":
        """New clip with the same rate but different samples."""
        return AudioClip(samples, self.sample_rate)


@dataclass(frozen=True)
class ManifestEntry:
    path: Path
    label: int
    fold: int = -1


@dataclass(frozen=True)
class DatasetManifest:
    """Ordered list of distinct labelled audio files plus the class-name table."""

    entries: tuple[ManifestEntry, ...]
    class_names: tuple[str, ...]

    def __post_init__(self):
        n = len(self.class_names)
        seen = set()
        for e in self.entries:
            if not (0 <= e.label < n):
                raise ManifestError(f"class index {e.label} out of range for {n} classes "
                                    f"({e.path})")
            if str(e.path) in seen:
                raise ManifestError(f"manifest lists {e.path} more than once")
            seen.add(str(e.path))

    def __len__(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# WAV container
# ---------------------------------------------------------------------------

_WAVE_PCM = 0x0001
_WAVE_IEEE_FLOAT = 0x0003
_WAVE_EXTENSIBLE = 0xFFFE


def decode_wav(data: bytes) -> AudioClip:
    """Decode a RIFF/WAVE byte string to a mono clip scaled to [-1, 1].

    Accepts PCM 16-bit and IEEE float 32-bit, 1 or 2 channels. Stereo is
    mixed down by the arithmetic mean of the channels. The header's
    sampling rate is kept as-is; resampling is a separate step.
    """
    reader = _binio.Reader(data, b"RIFF", DecodeError)
    reader.take(4, "RIFF size")
    if reader.take(4, "form type") != b"WAVE":
        raise reader.error("missing WAVE form type")

    fmt = payload = None
    while reader.remaining >= 8:  # a shorter trailing fragment is ignored
        chunk_id, chunk_size = reader.unpack("<4sI", "chunk header")
        body = reader.take(chunk_size, f"chunk {chunk_id!r}")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise reader.error("fmt chunk shorter than 16 bytes")
            fmt = struct.unpack_from("<HHIIHH", body)
            if fmt[0] == _WAVE_EXTENSIBLE and chunk_size >= 40:
                fmt = struct.unpack_from("<H", body, 24) + fmt[1:]  # the GUID starts with the tag
        elif chunk_id == b"data":  # the last one wins; its error names its offset
            payload, nonfinite = body, reader.error("payload contains non-finite float samples")
        # chunks are word-aligned: odd sizes carry one pad byte, which a last chunk may lack
        reader.take(min(chunk_size & 1, reader.remaining), "pad byte")

    if fmt is None:
        raise DecodeError("no fmt chunk found", offset=12)
    if payload is None:
        raise DecodeError("no data chunk found", offset=12)

    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels not in (1, 2):
        raise UnsupportedFormatError(f"unsupported channel count {channels}")
    if not MIN_WAV_RATE <= sample_rate <= MAX_WAV_RATE:
        raise UnsupportedFormatError(f"unsupported sampling rate {sample_rate} Hz "
                                     f"(supported: {MIN_WAV_RATE} to {MAX_WAV_RATE})")

    if audio_format == _WAVE_PCM and bits == 16:
        raw = np.frombuffer(payload, dtype="<i2", count=len(payload) // 2)
        samples = np.divide(raw, 32768.0, dtype=np.float64)  # exact: a power of two
    elif audio_format == _WAVE_IEEE_FLOAT and bits == 32:
        raw = np.frombuffer(payload, dtype="<f4", count=len(payload) // 4)
        if not np.isfinite(raw).all():
            raise nonfinite
        samples = raw.astype(np.float64)
    else:
        raise UnsupportedFormatError(
            f"unsupported format tag {audio_format:#06x} with {bits}-bit samples")

    if channels == 2:
        usable = (samples.size // 2) * 2
        samples = samples[:usable].reshape(-1, 2).mean(axis=1)
    return AudioClip._owning(samples, sample_rate)


def encode_wav(clip: AudioClip) -> bytes:
    """Serialize a clip as mono PCM16 WAV bytes."""
    body = np.clip(np.round(clip.samples * 32768.0), -32768, 32767).astype("<i2").tobytes()
    sr = clip.sample_rate
    header = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, _WAVE_PCM, 1, sr, sr * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(body))
    return header + body


def read_wav(path: str | Path) -> AudioClip:
    return decode_wav(Path(path).read_bytes())


def load_audio(path: str | Path) -> AudioClip:
    """Read a WAV file and bring it to ``TARGET_RATE``."""
    clip = read_wav(path)
    # resample would return the clip itself; testing the rate here keeps the
    # perfbench spans of audio_io.resample to real conversions
    return clip if clip.sample_rate == TARGET_RATE else resample(clip, TARGET_RATE)


def write_wav(path: str | Path, clip: AudioClip) -> None:
    _binio.write_file(path, encode_wav(clip))


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

def _kaiser_sinc(offsets: np.ndarray, cutoff: float, half: int) -> np.ndarray:
    """The Kaiser-windowed sinc at ``offsets`` input samples from its centre,
    with ``half`` taps on either side; 0 outside the window."""
    u = offsets / half
    window = np.zeros_like(u)
    inside = np.abs(u) <= 1.0
    window[inside] = i0(_KAISER_BETA * np.sqrt(1.0 - u[inside] ** 2)) / i0(_KAISER_BETA)
    return cutoff * np.sinc(cutoff * offsets) * window


def sinc_resample(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """Resample by ``up/down`` (output rate / input rate), positive integers.

    Output ``i`` is centred at input position ``i * down / up``. With
    p/q = up/down in lowest terms, this is exact polyphase filtering: output
    ``r + p*m`` takes kernel phase ``r``, one directly evaluated row of taps,
    at input ``floor(r*q/p) + q*m``. Kernel rows are evaluated
    ``_KERNEL_BLOCK`` phases at a time, so a ratio with many phases (44100 /
    767999 has 44,100) costs time but not a p-row kernel in memory.
    """
    if not all(isinstance(n, (int, np.integer)) and n > 0 for n in (up, down)):
        raise ValueError(f"resample ratio must be positive integers up/down, got {up!r}/{down!r}")
    p, q = Fraction(int(up), int(down)).as_integer_ratio()
    ratio = p / q
    x = np.asarray(x, dtype=np.float64)
    n_out = int(round(x.size * ratio))
    if n_out == 0:
        return np.zeros(0, dtype=np.float64)
    cutoff = min(1.0, ratio)  # anti-alias when decimating
    half = int(np.ceil((_RESAMPLE_TAPS // 2) / cutoff))
    # zeros stand for the samples before and after the clip; window b of the
    # padded input holds x[b - half + 1 : b + half + 1], the taps of every
    # output centred in [b, b + 1)
    last_base = (n_out - 1) * q // p
    padded = np.concatenate([np.zeros(half - 1), x,
                             np.zeros(max(0, last_base + half + 1 - x.size))])
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half)
    out = np.empty(n_out, dtype=np.float64)
    n_phases = min(p, n_out)
    for lo in range(0, n_phases, _KERNEL_BLOCK):
        phases = np.arange(lo, min(lo + _KERNEL_BLOCK, n_phases))
        offsets = (phases * q % p / p)[:, None] - np.arange(-half + 1, half + 1)
        for r, taps in enumerate(_kaiser_sinc(offsets, cutoff, half), lo):
            # einsum, not BLAS: OpenBLAS's worker threads spin after each call
            out[r::p] = np.einsum("mj,j->m", windows[r * q // p :: q][: out[r::p].size], taps)
    return out


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Band-limited resampling to ``target_rate`` Hz.

    Output length is round(len * target/source). Identity when the rates
    already match.
    """
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if target_rate == clip.sample_rate:
        return clip
    return AudioClip(sinc_resample(clip.samples, target_rate, clip.sample_rate), target_rate)


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

CSV_MANIFEST = "csv_manifest"
FOLDER_PER_CLASS = "folder_per_class"


def _find_manifest_csv(root: Path) -> Path:
    if root.is_file():
        return root
    candidate = root / "meta" / "esc50.csv"
    if candidate.is_file():
        return candidate
    found = sorted(root.glob("*.csv"))
    if not found:
        raise ManifestError(f"no manifest CSV found under {root}")
    return found[0]


def _load_csv_manifest(root: Path) -> tuple[list, list[str]]:
    csv_path = _find_manifest_csv(root)
    if root.is_file():  # ESC-50's own meta/esc50.csv names clips under ../audio
        up = Path(os.path.normpath(csv_path.parent / ".." / "audio"))  # meta/../audio is audio
        dirs = [csv_path.parent / "audio", up, csv_path.parent]
    else:
        dirs = [root / "audio", root]
    audio_dir = next(d for d in dirs if d.is_dir())

    rows = []
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"filename", "fold", "target", "category"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ManifestError(
                f"{csv_path} must have columns filename,fold,target,category"
            )
        for lineno, row in enumerate(reader, start=2):
            try:
                filename = row["filename"].strip()
                fold = int(row["fold"])
                int(row["target"])  # validated but the index comes from category order
                category = row["category"].strip()
            except (KeyError, ValueError, AttributeError) as exc:
                raise ManifestError(f"{csv_path}: unparsable row {lineno}: {exc}") from exc
            rows.append((audio_dir / filename, fold, category))

    class_names = sorted({cat for _, _, cat in rows})
    index = {name: i for i, name in enumerate(class_names)}
    entries = [ManifestEntry(path, index[cat], fold) for path, fold, cat in rows]
    return entries, class_names


def _load_folder_manifest(root: Path) -> tuple[list, list[str]]:
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir() and not p.name.startswith("."))
    class_names = [p.name for p in class_dirs]
    entries = []
    for label, class_dir in enumerate(class_dirs):
        wavs = sorted(class_dir.glob("*.wav"))
        if not wavs:
            warnings.warn(f"class folder {class_dir} contains no wav files")
        for path in wavs:
            entries.append(ManifestEntry(path, label))
    return entries, class_names


def load_manifest(root: str | Path, layout: str = CSV_MANIFEST) -> DatasetManifest:
    """Load a dataset manifest with deterministic ordering.

    ``csv_manifest`` expects the ESC-50 convention (header row
    ``filename,fold,target,category``, audio under ``audio/``; a CSV file as
    ``root`` finds it in its folder's ``audio/``, ``../audio/`` or the folder);
    ``folder_per_class`` expects ``root/<class_name>/*.wav`` and skips
    folders whose names start with ``.``. Entries are sorted
    lexicographically by path and class names alphabetically.
    """
    root = Path(root)
    if not root.exists():
        raise ManifestError(f"dataset root {root} does not exist")
    if layout == CSV_MANIFEST:
        entries, class_names = _load_csv_manifest(root)
    elif layout == FOLDER_PER_CLASS:
        entries, class_names = _load_folder_manifest(root)
    else:
        raise ManifestError(f"unknown manifest layout {layout!r}")

    entries.sort(key=lambda e: str(e.path))
    for e in entries:
        if not e.path.is_file():
            raise ManifestError(f"manifest references missing file {e.path}")
    return DatasetManifest(tuple(entries), tuple(class_names))


# ---------------------------------------------------------------------------
# Slicing
# ---------------------------------------------------------------------------

def slice_at(clip: AudioClip, n_samples: int, start: int) -> AudioClip:
    """The window of exactly ``n_samples`` at ``start``; clips shorter than
    the window are right-padded with zeros (their start is always 0)."""
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if len(clip) >= n_samples:
        window = clip.samples[start : start + n_samples]
        return clip if window.size == len(clip) else clip.with_samples(window)  # immutable
    window = np.zeros(n_samples, dtype=np.float64)
    window[: len(clip)] = clip.samples
    return clip.with_samples(window)


def center_start(n: int, n_samples: int) -> int:
    """Start of the centered window; 0 when the clip is shorter than it."""
    return max(0, (n - n_samples) // 2)


def random_slice(clip: AudioClip, n_samples: int, rng: np.random.Generator) -> AudioClip:
    """Window at a start uniform over [0, len - n_samples] (see ``slice_at``)."""
    n = len(clip)
    start = int(rng.integers(0, n - n_samples + 1)) if n >= n_samples else 0
    return slice_at(clip, n_samples, start)


def center_slice(clip: AudioClip, n_samples: int) -> AudioClip:
    """Deterministic center window used for evaluation."""
    return slice_at(clip, n_samples, center_start(len(clip), n_samples))
