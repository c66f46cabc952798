"""WAV decoding, band-limited resampling, dataset manifests, and slicing.

Waveforms are mono float64 arrays in [-1, 1] (int16 scaled by 1/32768).
Everything here is pure: clips and manifests are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import struct
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.special import i0

from .errors import DecodeError, ManifestError, UnsupportedFormatError

#: Ingestion sampling rate. All dataset audio is brought to this rate.
TARGET_RATE = 44100

#: Header sampling rates a WAV may declare. Below the range, resampling to
#: TARGET_RATE would multiply the sample count by more than 44; above it,
#: the decimating resampler's kernel table would outgrow memory.
MIN_WAV_RATE = 1000
MAX_WAV_RATE = 768_000

# Kaiser-windowed sinc resampler: 32 taps per phase, beta chosen for
# ~-60 dB stopband without an external dependency.
_RESAMPLE_TAPS = 32
_KAISER_BETA = 8.6
# Kernel table rows per input sample; linear interpolation between rows
# keeps outputs within 1e-6 of direct evaluation.
_PHASES = 4096
# Outputs per chunk. A 4096-output chunk resamples about 10% faster in
# isolation, but its workspace (under 3 MB) no longer lifts glibc's dynamic
# mmap threshold, and every later 44.1 kHz predict in the process then
# re-faults its ~14 MB of arrays (measured: +38% on perfbench infer p50).
_RESAMPLE_CHUNK = 16384


@dataclass(frozen=True)
class AudioClip:
    """Immutable mono waveform with its sampling rate and source."""

    samples: np.ndarray
    sample_rate: int
    source_id: str = ""

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

    def __len__(self) -> int:
        return self.samples.size

    def with_samples(self, samples: np.ndarray) -> "AudioClip":
        """New clip with the same rate and source but different samples."""
        return AudioClip(samples, self.sample_rate, self.source_id)


@dataclass(frozen=True)
class ManifestEntry:
    path: Path
    label: int
    class_name: str
    fold: int = -1


@dataclass(frozen=True)
class DatasetManifest:
    """Ordered list of labelled audio files plus the class-name table."""

    entries: tuple[ManifestEntry, ...]
    class_names: tuple[str, ...]
    layout: str

    def __post_init__(self):
        n = len(self.class_names)
        for e in self.entries:
            if not (0 <= e.label < n):
                raise ManifestError(
                    f"class index {e.label} out of range for {n} classes ({e.path})"
                )

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
    if len(data) < 12:
        raise DecodeError("file shorter than a RIFF header", offset=0)
    if data[0:4] != b"RIFF":
        raise DecodeError("missing RIFF magic", offset=0)
    if data[8:12] != b"WAVE":
        raise DecodeError("missing WAVE form type", offset=8)

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body_start = pos + 8
        if body_start + chunk_size > len(data):
            raise DecodeError(
                f"chunk {chunk_id!r} overruns the file", offset=pos
            )
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise DecodeError("fmt chunk shorter than 16 bytes", offset=pos)
            fmt = struct.unpack_from("<HHIIHH", data, body_start)
            if fmt[0] == _WAVE_EXTENSIBLE and chunk_size >= 40:
                # sub-format GUID starts with the plain format tag
                (subformat,) = struct.unpack_from("<H", data, body_start + 24)
                fmt = (subformat,) + fmt[1:]
        elif chunk_id == b"data":
            payload = (body_start, chunk_size)
        # chunks are word-aligned: odd sizes carry one pad byte
        pos = body_start + chunk_size + (chunk_size & 1)

    if fmt is None:
        raise DecodeError("no fmt chunk found", offset=12)
    if payload is None:
        raise DecodeError("no data chunk found", offset=12)

    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels not in (1, 2):
        raise UnsupportedFormatError(f"unsupported channel count {channels}")
    if not MIN_WAV_RATE <= sample_rate <= MAX_WAV_RATE:
        raise UnsupportedFormatError(
            f"unsupported sampling rate {sample_rate} Hz "
            f"(supported: {MIN_WAV_RATE} to {MAX_WAV_RATE})"
        )
    start, size = payload

    if audio_format == _WAVE_PCM and bits == 16:
        count = size // 2
        raw = np.frombuffer(data, dtype="<i2", count=count, offset=start)
        samples = raw.astype(np.float64) / 32768.0
    elif audio_format == _WAVE_IEEE_FLOAT and bits == 32:
        count = size // 4
        raw = np.frombuffer(data, dtype="<f4", count=count, offset=start)
        samples = raw.astype(np.float64)
    else:
        raise UnsupportedFormatError(
            f"unsupported format tag {audio_format:#06x} with {bits}-bit samples"
        )

    if channels == 2:
        usable = (samples.size // 2) * 2
        samples = samples[:usable].reshape(-1, 2).mean(axis=1)
    if not np.all(np.isfinite(samples)):
        raise DecodeError("payload contains non-finite float samples", offset=start)
    return AudioClip(samples, sample_rate)


def encode_wav(clip: AudioClip, bits: int = 16) -> bytes:
    """Serialize a clip as mono PCM16 (default) or IEEE float32 WAV bytes."""
    if bits == 16:
        scaled = np.clip(np.round(clip.samples * 32768.0), -32768, 32767)
        body = scaled.astype("<i2").tobytes()
        fmt_tag, block, bps = _WAVE_PCM, 2, 16
    elif bits == 32:
        body = clip.samples.astype("<f4").tobytes()
        fmt_tag, block, bps = _WAVE_IEEE_FLOAT, 4, 32
    else:
        raise UnsupportedFormatError(f"cannot encode {bits}-bit WAV")
    sr = clip.sample_rate
    header = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, fmt_tag, 1, sr, sr * block, block, bps)
    header += b"data" + struct.pack("<I", len(body))
    return header + body


def read_wav(path: str | Path) -> AudioClip:
    path = Path(path)
    clip = decode_wav(path.read_bytes())
    return AudioClip(clip.samples, clip.sample_rate, source_id=str(path))


def load_audio(path: str | Path) -> AudioClip:
    """Read a WAV file and bring it to ``TARGET_RATE``."""
    clip = read_wav(path)
    # resample would return the clip itself; testing the rate here keeps the
    # perfbench spans of audio_io.resample to real conversions
    return clip if clip.sample_rate == TARGET_RATE else resample(clip, TARGET_RATE)


def write_wav(path: str | Path, clip: AudioClip, bits: int = 16) -> None:
    Path(path).write_bytes(encode_wav(clip, bits=bits))


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

def _table_offsets(half: int) -> np.ndarray:
    """Kernel table offsets: row p, column j is p/_PHASES - (j - half + 1)."""
    return np.arange(_PHASES + 1)[:, None] / _PHASES - np.arange(-half + 1, half + 1)


@lru_cache(maxsize=8)
def _kaiser_window(half: int) -> np.ndarray:
    """The Kaiser window at every table offset, once per half-width; read-only."""
    u = _table_offsets(half) / half
    window = np.zeros_like(u)
    inside = np.abs(u) <= 1.0
    window[inside] = i0(_KAISER_BETA * np.sqrt(1.0 - u[inside] ** 2)) / i0(_KAISER_BETA)
    window.flags.writeable = False
    return window


def sinc_resample(x: np.ndarray, ratio: float, n_out: int | None = None) -> np.ndarray:
    """Resample by an arbitrary positive ratio (output rate / input rate).

    Output ``i`` is centred at input position ``i / ratio``. The kernel is
    tabulated at ``_PHASES`` fractional positions per input sample and
    linearly interpolated between the two neighbouring rows (bandlimited
    interpolation after J. O. Smith); against the kernel evaluated directly
    at every offset, outputs of a unit-range input differ by under 1e-6.
    """
    ratio = float(ratio)
    if not np.isfinite(ratio) or ratio <= 0:
        raise ValueError(f"resample ratio must be positive and finite, got {ratio}")
    x = np.asarray(x, dtype=np.float64)
    if n_out is None:
        n_out = int(round(x.size * ratio))
    if n_out == 0 or x.size == 0:
        return np.zeros(n_out, dtype=np.float64)
    cutoff = min(1.0, ratio)  # anti-alias when decimating
    half = int(np.ceil((_RESAMPLE_TAPS // 2) / cutoff))
    # row p holds the kernel at offsets p/_PHASES - taps; each row is stored
    # with its step to the next row, so one einsum gives both terms
    table = cutoff * np.sinc(cutoff * _table_offsets(half)) * _kaiser_window(half)
    rows = np.stack([table[:-1], np.diff(table, axis=0)], axis=1)
    # zeros stand for the samples before and after the clip; window b of the
    # padded input holds x[b - half + 1 : b + half + 1], the taps of every
    # output centred in [b, b + 1)
    last_base = int((n_out - 1) / ratio)
    padded = np.concatenate([np.zeros(half - 1), x,
                             np.zeros(max(0, last_base + half + 1 - x.size))])
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half)

    out = np.empty(n_out, dtype=np.float64)
    # chunked to bound the (chunk x taps) workspace
    for lo in range(0, n_out, _RESAMPLE_CHUNK):
        hi = min(lo + _RESAMPLE_CHUNK, n_out)
        centers = np.arange(lo, hi) / ratio
        base = np.floor(centers).astype(np.int64)
        phase = (centers - base) * _PHASES
        row = phase.astype(np.int64)
        both = np.einsum("ikj,ij->ik", rows[row], windows[base])
        out[lo:hi] = both[:, 0] + (phase - row) * both[:, 1]
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
    ratio = target_rate / clip.sample_rate
    out = sinc_resample(clip.samples, ratio)
    return AudioClip(out, target_rate, clip.source_id)


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
    base = csv_path.parent if root.is_file() else root
    audio_dir = base / "audio"
    if not audio_dir.is_dir():
        audio_dir = base

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
    entries = [
        ManifestEntry(path, index[cat], cat, fold) for path, fold, cat in rows
    ]
    return entries, class_names


def _load_folder_manifest(root: Path) -> tuple[list, list[str]]:
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    class_names = [p.name for p in class_dirs]
    entries = []
    for label, class_dir in enumerate(class_dirs):
        wavs = sorted(class_dir.glob("*.wav"))
        if not wavs:
            warnings.warn(f"class folder {class_dir} contains no wav files")
        for path in wavs:
            entries.append(ManifestEntry(path, label, class_dir.name, -1))
    return entries, class_names


def load_manifest(root: str | Path, layout: str = CSV_MANIFEST) -> DatasetManifest:
    """Load a dataset manifest with deterministic ordering.

    ``csv_manifest`` expects the ESC-50 convention (header row
    ``filename,fold,target,category``, audio under ``audio/``);
    ``folder_per_class`` expects ``root/<class_name>/*.wav``. Entries are
    sorted lexicographically by path and class names alphabetically.
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
    return DatasetManifest(tuple(entries), tuple(class_names), layout)


# ---------------------------------------------------------------------------
# Slicing
# ---------------------------------------------------------------------------

def slice_at(clip: AudioClip, n_samples: int, start: int) -> AudioClip:
    """The window of exactly ``n_samples`` at ``start``; clips shorter than
    the window are right-padded with zeros (their start is always 0)."""
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if len(clip) >= n_samples:
        return clip.with_samples(clip.samples[start : start + n_samples])
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
