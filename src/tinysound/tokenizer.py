"""Curve tokenization: quantized fixed-length amplitude windows as tokens.

A vocabulary is built by counting every stride-1 window of the quantized
corpus and keeping the most frequent ``top_k`` curves. Tokenization then
emits one token per non-overlapping window (stride = curve length), with
unknown curves mapped to UNK. Relative mode shifts each window so its
minimum is zero before lookup, merging curves that differ only by offset.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _binio
from .audio_io import AudioClip
from .errors import ConfigError, DecodeError

UNK_ID = 0
PAD_ID = 1
CLS_ID = 2
N_SPECIAL = 3

ABSOLUTE = "absolute"
RELATIVE = "relative"


@dataclass(frozen=True)
class CurveSpec:
    curve_len: int = 8
    resolution: int = 64
    top_k: int = 50_000
    mode: str = ABSOLUTE

    def __post_init__(self):
        if self.curve_len < 1:
            raise ConfigError(f"curve_len must be >= 1, got {self.curve_len}")
        if self.resolution < 2:
            raise ConfigError(f"resolution must be >= 2, got {self.resolution}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.mode not in (ABSOLUTE, RELATIVE):
            raise ConfigError(f"mode must be absolute or relative, got {self.mode!r}")


@dataclass(frozen=True)
class CoverageStats:
    """Corpus coverage of a vocabulary.

    vocab_coverage counts stride-1 window occurrences whose curve is in the
    vocabulary; token_coverage counts non-UNK emitted tokens (stride = L).
    """

    vocab_coverage: float
    token_coverage: float
    distinct_curves: int


class CurveVocab:
    """Ranked curve -> token-id mapping with UNK/PAD/CLS specials."""

    def __init__(self, spec: CurveSpec, curves: list[tuple[int, ...]]):
        if len(curves) > spec.top_k:
            raise ConfigError(f"{len(curves)} curves exceed top_k {spec.top_k}")
        for curve in curves:
            if len(curve) != spec.curve_len:
                raise ConfigError(f"curve {curve} does not have length {spec.curve_len}")
            if any(not 0 <= v < spec.resolution for v in curve):
                raise ConfigError(f"curve {curve} has values outside [0, {spec.resolution})")
        self.spec = spec
        self.curves = list(curves)
        self.ids = {curve: N_SPECIAL + rank for rank, curve in enumerate(self.curves)}
        if len(self.ids) != len(self.curves):
            raise ConfigError("duplicate curves in vocabulary")

    def __len__(self) -> int:
        return len(self.curves)

    @property
    def vocab_size(self) -> int:
        """Total id space including the special tokens."""
        return N_SPECIAL + len(self.curves)

    def lookup(self, curve: tuple[int, ...]) -> int:
        return self.ids.get(curve, UNK_ID)


def quantize_signal(clip: AudioClip, resolution: int) -> np.ndarray:
    """Quantize samples (clamped to [-1, 1]) to integer levels in [0, R)."""
    x = np.clip(clip.samples, -1.0, 1.0)
    levels = np.floor((x + 1.0) / 2.0 * resolution).astype(np.int64)
    return np.minimum(levels, resolution - 1)


def relative_shift(span) -> tuple[int, ...]:
    """Shift a window so its minimum value becomes zero."""
    span = tuple(int(v) for v in span)
    if not span:
        raise ValueError("cannot shift an empty span")
    low = min(span)
    return tuple(v - low for v in span)


def _stride1_windows(levels: np.ndarray, length: int) -> np.ndarray:
    if levels.size < length:
        return np.empty((0, length), dtype=np.int64)
    return np.lib.stride_tricks.sliding_window_view(levels, length)


def _count_windows(corpus, spec: CurveSpec) -> tuple[Counter, int]:
    counts: Counter = Counter()
    total = 0
    for clip in corpus:
        windows = _stride1_windows(quantize_signal(clip, spec.resolution), spec.curve_len)
        if spec.mode == RELATIVE:
            windows = windows - windows.min(axis=1, keepdims=True)
        total += windows.shape[0]
        counts.update(map(tuple, windows.tolist()))
    return counts, total


def build_curve_vocab(corpus, spec: CurveSpec) -> tuple[CurveVocab, CoverageStats]:
    """Count stride-1 curves over a corpus and keep the top_k as vocabulary.

    Ties at the cut are broken lexicographically on the curve tuple so the
    result is deterministic. Coverage statistics are computed against the
    same corpus.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts, _ = _count_windows(corpus, spec)
    if not counts:
        raise ValueError("corpus holds no window of curve_len samples")
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    vocab = CurveVocab(spec, [curve for curve, _ in ranked[: spec.top_k]])
    return vocab, coverage(vocab, corpus)


def tokenize(clip: AudioClip, vocab: CurveVocab) -> np.ndarray:
    """Token ids for non-overlapping curve windows, CLS prepended.

    Output length is 1 + floor(n / curve_len); curves missing from the
    vocabulary become UNK.
    """
    spec = vocab.spec
    levels = quantize_signal(clip, spec.resolution)
    n_windows = levels.size // spec.curve_len
    windows = levels[: n_windows * spec.curve_len].reshape(n_windows, spec.curve_len)
    if spec.mode == RELATIVE:
        windows = windows - windows.min(axis=1, keepdims=True)
    ids = [CLS_ID]
    ids.extend(vocab.lookup(tuple(row)) for row in windows.tolist())
    return np.asarray(ids, dtype=np.int64)


def coverage(vocab: CurveVocab, corpus) -> CoverageStats:
    """Recompute both coverage fractions of ``vocab`` over a corpus."""
    spec = vocab.spec
    counts, total = _count_windows(corpus, spec)
    in_vocab = sum(c for curve, c in counts.items() if curve in vocab.ids)
    vocab_cov = in_vocab / total if total else 0.0

    emitted = 0
    known = 0
    for clip in corpus:
        ids = tokenize(clip, vocab)[1:]  # drop CLS
        emitted += ids.size
        known += int(np.count_nonzero(ids != UNK_ID))
    token_cov = known / emitted if emitted else 0.0
    return CoverageStats(vocab_cov, token_cov, len(counts))


# ---------------------------------------------------------------------------
# Vocab file format: magic "TSCV", spec fields, u32 count, count x L bytes
# ---------------------------------------------------------------------------

_VOCAB_MAGIC = b"TSCV"
_MODES = (ABSOLUTE, RELATIVE)  # index = the u8 mode code
_MAX_RESOLUTION = 256  # one byte per level


def save_vocab(path, vocab: CurveVocab) -> None:
    spec = vocab.spec
    if spec.resolution > _MAX_RESOLUTION:
        raise ConfigError("vocab file stores one byte per level; resolution must be <= 256")
    header = struct.pack("<IIIBI", spec.curve_len, spec.resolution, spec.top_k,
                         _MODES.index(spec.mode), len(vocab.curves))
    Path(path).write_bytes(_VOCAB_MAGIC + header + b"".join(bytes(c) for c in vocab.curves))


def load_vocab(path) -> CurveVocab:
    """Read a TSCV file; any malformed content raises DecodeError."""
    r = _binio.Reader(Path(path).read_bytes(), _VOCAB_MAGIC, DecodeError, "vocab file")
    curve_len, resolution, top_k = r.unpack("<III", "header")
    if resolution > _MAX_RESOLUTION:
        raise r.error(f"resolution {resolution} does not fit one byte per level")
    (mode_code,) = r.unpack("<B", "header")
    if mode_code >= len(_MODES):
        raise r.error(f"unknown vocab mode code {mode_code}")
    with r.rejecting("vocabulary", ConfigError):
        # CurveSpec rejects curve_len 0 before a (count, 0) array is read
        spec = CurveSpec(curve_len, resolution, top_k, _MODES[mode_code])
        (count,) = r.unpack("<I", "curve count")
        levels = r.array(np.uint8, (count, curve_len), "curves")
        return CurveVocab(spec, [tuple(curve) for curve in levels.tolist()])
