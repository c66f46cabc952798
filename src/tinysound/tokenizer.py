"""Curve tokenization: quantized fixed-length amplitude windows as tokens.

A vocabulary is built by counting every stride-1 window of the quantized
corpus and keeping the most frequent ``top_k`` curves. Tokenization then
emits one token per non-overlapping window (stride = curve length), with
unknown curves mapped to UNK. Relative mode shifts each window so its
minimum is zero before lookup, merging curves that differ only by offset.
A curve of L levels in [0, R) is counted and looked up as the int64 key
sum(level_j * R**(L-1-j)), whose order is the lexicographic curve order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, reduce
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
        if self.curve_len >= 63 or self.resolution**self.curve_len >= 2**63:  # int64 keys
            raise ConfigError(f"resolution ** curve_len must be below 2**63, got "
                              f"{self.resolution} ** {self.curve_len}")
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


def _place_values(spec: CurveSpec) -> np.ndarray:
    """R**(L-1), ..., R, 1: a curve's key is its dot product with these."""
    return spec.resolution ** np.arange(spec.curve_len - 1, -1, -1, dtype=np.int64)


class CurveVocab:
    """Ranked curve -> token-id mapping with UNK/PAD/CLS specials.

    ``curves`` are level tuples or an (n, curve_len) array, most frequent
    first, kept as the int64 array ``levels``; the ``curves`` list and
    ``ids`` dict are built from it on first access.
    """

    def __init__(self, spec: CurveSpec, curves):
        if len(curves) > spec.top_k:
            raise ConfigError(f"{len(curves)} curves exceed top_k {spec.top_k}")
        try:
            levels = np.array(curves, dtype=np.int64).reshape(len(curves), spec.curve_len)
        except (ValueError, OverflowError):
            raise ConfigError(f"curves are not all {spec.curve_len} integer levels") from None
        if levels.size and not 0 <= levels.min() <= levels.max() < spec.resolution:
            raise ConfigError(f"curves have values outside [0, {spec.resolution})")
        self.spec = spec
        self.levels = levels
        keys, ranks = np.unique(levels @ _place_values(spec), return_index=True)
        if keys.size != len(levels):
            raise ConfigError("duplicate curves in vocabulary")
        # searchsorted puts keys above the largest at the -1 sentinel, id UNK
        self._sorted_keys = np.append(keys, -1)
        self._sorted_ids = np.append(N_SPECIAL + ranks, UNK_ID)

    @cached_property
    def curves(self) -> list[tuple[int, ...]]:
        return [tuple(curve) for curve in self.levels.tolist()]

    def __len__(self) -> int:
        return len(self.levels)

    @property
    def vocab_size(self) -> int:
        """Total id space including the special tokens."""
        return N_SPECIAL + len(self)

    def _lookup_keys(self, keys: np.ndarray) -> np.ndarray:
        """Token id of each curve key, UNK for keys not in the vocabulary."""
        pos = np.searchsorted(self._sorted_keys[:-1], keys)
        return np.where(self._sorted_keys[pos] == keys, self._sorted_ids[pos], UNK_ID)


def quantize_signal(clip: AudioClip, resolution: int) -> np.ndarray:
    """Quantize samples (clamped to [-1, 1]) to integer levels in [0, R)."""
    x = np.clip(clip.samples, -1.0, 1.0)
    levels = np.floor((x + 1.0) / 2.0 * resolution).astype(np.int64)
    return np.minimum(levels, resolution - 1)


def _curve_keys(clip: AudioClip, spec: CurveSpec, stride: int) -> np.ndarray:
    """Key of every curve_len window of the quantized clip, one per stride."""
    levels = quantize_signal(clip, spec.resolution)
    n = max(0, (levels.size - spec.curve_len) // stride + 1)
    cols = [levels[j::stride][:n] for j in range(spec.curve_len)]  # level j of each window
    keys = sum(place * col for place, col in zip(_place_values(spec), cols))
    if spec.mode == RELATIVE:
        keys -= reduce(np.minimum, cols) * _place_values(spec).sum()
    return keys


def build_curve_vocab(corpus, spec: CurveSpec) -> tuple[CurveVocab, CoverageStats]:
    """Count stride-1 curves over a corpus and keep the top_k as vocabulary.

    Ties at the cut are broken lexicographically on the curve tuple (key
    order) so the result is deterministic. Coverage statistics are computed
    against the same corpus, read once: each clip is dropped once keyed, and
    every curve_len-th stride-1 key is the key ``tokenize`` looks up.
    """
    clip_keys = [_curve_keys(clip, spec, 1) for clip in corpus]
    if not clip_keys:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    keys, counts = np.unique(np.concatenate(clip_keys), return_counts=True)
    if not keys.size:
        raise ValueError("corpus holds no window of curve_len samples")
    kept = keys[np.lexsort((keys, -counts))[: spec.top_k]]
    vocab = CurveVocab(spec, kept[:, None] // _place_values(spec) % spec.resolution)
    in_vocab = int(counts[vocab._lookup_keys(keys) != UNK_ID].sum())
    ids = vocab._lookup_keys(np.concatenate([k[:: spec.curve_len] for k in clip_keys]))
    known = np.count_nonzero(ids != UNK_ID)
    return vocab, CoverageStats(in_vocab / int(counts.sum()),
                                known / ids.size if ids.size else 0.0, keys.size)


def tokenize(clip: AudioClip, vocab: CurveVocab) -> np.ndarray:
    """Token ids for non-overlapping curve windows, CLS prepended.

    Output length is 1 + floor(n / curve_len); curves missing from the
    vocabulary become UNK.
    """
    ids = vocab._lookup_keys(_curve_keys(clip, vocab.spec, vocab.spec.curve_len))
    return np.concatenate(([CLS_ID], ids))


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
                         _MODES.index(spec.mode), len(vocab))
    _binio.write_file(path, _VOCAB_MAGIC + header + vocab.levels.astype(np.uint8).tobytes())


def load_vocab(path) -> CurveVocab:
    """Read a TSCV file; any malformed content raises DecodeError."""
    r = _binio.Reader(Path(path).read_bytes(), _VOCAB_MAGIC, DecodeError)
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
        return CurveVocab(spec, r.array(np.uint8, (count, curve_len), "curves"))
