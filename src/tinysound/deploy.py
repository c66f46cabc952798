"""Post-training dynamic int8 weight quantization and latency benchmarks.

A quantized model is one tensor table, written and read by the TSCK's table
code: linear-layer weights are int8 with one symmetric per-tensor scale
(zero-point 0); biases, norms, and embeddings stay float32, and activations
are never quantized. Inference runs the float weights that building a
``QuantizedParams`` dequantizes once.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import _binio, model as model_mod
from .audio_io import TARGET_RATE, AudioClip
from .errors import ConfigError
from .model import ModelConfig, ModelParams, count_params, encode_checkpoint, forward

_QUANT_SUFFIX = "_w"  # every linear weight tensor


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


@dataclass(frozen=True)
class QuantizedParams:
    """One table of ``cfg``'s tensors, int8 where ``scales`` holds a scale and
    float32 elsewhere. Building one dequantizes it once; an int8 tensor with no
    scale, a scale on no int8 tensor, a scale that is not finite and positive, a
    weight past float32's range or tensors unlike ``cfg``'s are ConfigErrors."""

    cfg: ModelConfig
    tensors: dict[str, np.ndarray]
    scales: dict[str, float]
    metadata: dict = field(default_factory=dict)
    _params: ModelParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tensors = {n: t.copy() for n, t in self.tensors.items() if n not in self.scales}
        for name, scale in self.scales.items():
            q = self.tensors.get(name)
            if q is None or q.dtype != np.int8:
                raise ConfigError(f"{name} has a scale but no int8 tensor")
            if not 0.0 < scale < float("inf"):
                raise ConfigError(f"{name} scale must be finite and positive, got {scale}")
            weights = q.astype(np.float64) * scale
            if np.abs(weights).max(initial=0.0) > np.finfo(np.float32).max:
                raise ConfigError(f"{name} scale {scale} takes weights past float32's range")
            tensors[name] = weights.astype(np.float32)
        unscaled = [n for n, t in tensors.items() if t.dtype == np.int8]
        if unscaled:
            raise ConfigError(f"int8 tensor {unscaled[0]} has no scale")
        object.__setattr__(self, "_params", ModelParams(self.cfg, tensors))

    def dequantize(self) -> ModelParams:
        """The float parameters for running the forward pass, built once."""
        return self._params


def quantize_dynamic(params: ModelParams, metadata: dict | None = None) -> QuantizedParams:
    """Symmetric per-tensor int8 quantization of every linear weight.

    scale = max|W| / 127 and values round half away from zero, so the
    element-wise dequantization error is bounded by scale / 2. All-zero
    tensors quantize to zeros with scale 1.
    """
    quantized = [n for n in params.tensors if n.endswith(_QUANT_SUFFIX)]
    tensors = {n: t.copy() for n, t in params.tensors.items() if n not in quantized}
    scales: dict[str, float] = {}
    for name in quantized:  # after every float32 tensor, as the TSCQ keeps them
        w = params.tensors[name].astype(np.float64)
        amax = float(np.max(np.abs(w)))
        scales[name] = float(np.float32(amax / 127.0 if amax > 0.0 else 1.0))
        tensors[name] = np.clip(_round_half_away(w / scales[name]), -127, 127).astype(np.int8)
    return QuantizedParams(params.cfg, tensors, scales, metadata or {})


def qforward(qparams: QuantizedParams, batch: np.ndarray) -> np.ndarray:
    """Eval-mode float64 forward pass on the dequantized int8 weights."""
    return forward(qparams.dequantize(), batch, training=False)


# ---------------------------------------------------------------------------
# Quantized checkpoint: the TSCK prefix with magic "TSCQ", then one
# dtype-tagged tensor table, written and read by model.py's table code
# ---------------------------------------------------------------------------

_QCKPT_MAGIC = b"TSCQ"
_QCKPT_VERSION = 1


def encode_quantized(qparams: QuantizedParams) -> bytes:
    return (model_mod._prefix_bytes(_QCKPT_MAGIC, _QCKPT_VERSION, qparams.cfg, qparams.metadata)
            + model_mod._table_bytes(qparams.tensors, qparams.scales))


def save_quantized(path, qparams: QuantizedParams) -> None:
    _binio.write_file(path, encode_quantized(qparams))


def load_quantized(path) -> QuantizedParams:
    """Read a TSCQ file; any malformed content, a bad scale or tensors that
    do not fit the config included, raises CheckpointError."""
    r, cfg, metadata = model_mod._read_prefix(Path(path).read_bytes(), _QCKPT_MAGIC, _QCKPT_VERSION)
    entries = list(model_mod._read_entries(r, tagged=True))
    tensors = {name: array for name, _, _, array in entries}
    scales = {name: scale for name, tag, scale, _ in entries if tag == model_mod._I8}
    with r.rejecting("tensors", ConfigError):
        return QuantizedParams(cfg, tensors, scales, metadata)


def weight_payload_bytes(params_or_q) -> int:
    """Serialized bytes of just the linear-weight payloads (excluding scales)."""
    if isinstance(params_or_q, QuantizedParams):
        return sum(params_or_q.tensors[n].size for n in params_or_q.scales)
    return sum(t.size * 4 for n, t in params_or_q.tensors.items() if n.endswith(_QUANT_SUFFIX))


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------

_WARMUP = 3
_RUNS = 10


@dataclass
class BenchReport:
    """Forward-pass latency over the measured runs, plus the first call.

    ``first_call_ms`` is the very first forward of the benchmark, warm-up
    included, so a slow start shows next to the steady-state median.
    """

    mean_ms: float
    min_ms: float
    max_ms: float
    median_ms: float
    p90_ms: float
    first_call_ms: float
    feature_mean_ms: float
    runs: int
    param_count: int
    serialized_bytes: int
    quantized: bool

    def to_json_line(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def bench(params_or_q, pipeline, window_samples: int) -> BenchReport:
    """Wall-clock latency of feature extraction and one forward pass.

    Runs in this process on a deterministic input, ``_WARMUP`` (3) times, then
    ``_RUNS`` (10) times; only ``first_call_ms`` counts the warm-up runs.
    Model and feature time are reported separately. ``QuantizedParams`` run
    through ``qforward``, as in ``predict --quantized``: float64 inference on
    weights dequantized once when built, so no integer arithmetic is timed.
    ``serialized_bytes`` re-encodes what it is given: for a TSCQ that is the
    whole file; for ``ModelParams`` it is the weights alone, with no Adam
    moments, step or metadata: a trained 6-class TSCK of the default config
    is 85,295 bytes on disk and reports 30,773. A model whose input shape
    is not the pipeline's raises ``ConfigError`` before anything is featurized.
    """
    quantized = isinstance(params_or_q, QuantizedParams)
    run = qforward if quantized else forward  # eval mode
    pipeline.check_model(params_or_q.cfg, window_samples)

    wave = np.sin(2 * np.pi * 440.0 * np.arange(window_samples) / TARGET_RATE)
    clip = AudioClip(wave, TARGET_RATE)

    feature_times, model_times = [], []
    for _ in range(_WARMUP + _RUNS):
        t0 = time.perf_counter()
        example = pipeline.extract(clip)
        t1 = time.perf_counter()
        run(params_or_q, example[None, ...])
        t2 = time.perf_counter()
        feature_times.append((t1 - t0) * 1e3)
        model_times.append((t2 - t1) * 1e3)
    first_call_ms = model_times[0]
    feature_times, model_times = feature_times[_WARMUP:], model_times[_WARMUP:]
    return BenchReport(
        mean_ms=float(np.mean(model_times)),
        min_ms=float(np.min(model_times)),
        max_ms=float(np.max(model_times)),
        median_ms=float(np.median(model_times)),
        p90_ms=float(np.percentile(model_times, 90)),
        first_call_ms=first_call_ms,
        feature_mean_ms=float(np.mean(feature_times)),
        runs=_RUNS,
        param_count=count_params(params_or_q.cfg),
        serialized_bytes=len((encode_quantized if quantized else encode_checkpoint)(params_or_q)),
        quantized=quantized,
    )
