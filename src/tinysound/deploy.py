"""Post-training dynamic int8 weight quantization and latency benchmarks.

Linear-layer weights are stored as int8 with one symmetric per-tensor
scale (zero-point 0); biases, norms, and embeddings stay float32, and
activations are never quantized. Inference runs the float weights that
building a ``QuantizedParams`` dequantizes once.
"""

from __future__ import annotations

import functools
import json
import struct
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import _binio, model as model_mod
from .audio_io import TARGET_RATE, AudioClip
from .errors import ConfigError
from .model import ModelConfig, ModelParams, count_params, encode_checkpoint, forward

_QUANT_SUFFIX = "_w"  # every linear weight tensor


def quantized_tensor_names(cfg: ModelConfig) -> list[str]:
    return [n for n in model_mod.param_shapes(cfg) if n.endswith(_QUANT_SUFFIX)]


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


@dataclass(frozen=True)
class QuantizedParams:
    """int8 linear weights with per-tensor scales; everything else float32.
    Building one dequantizes it once; a scale that is not finite and positive,
    a weight past float32's range or tensors unlike ``cfg``'s are ConfigErrors."""

    cfg: ModelConfig
    int8_weights: dict[str, np.ndarray]
    scales: dict[str, float]
    float_tensors: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)
    _params: ModelParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tensors = {k: v.copy() for k, v in self.float_tensors.items()}
        for name, q in self.int8_weights.items():
            scale = self.scales[name]
            if not 0.0 < scale < float("inf"):
                raise ConfigError(f"{name} scale must be finite and positive, got {scale}")
            weights = q.astype(np.float64) * scale
            if np.abs(weights).max(initial=0.0) > np.finfo(np.float32).max:
                raise ConfigError(f"{name} scale {scale} takes weights past float32's range")
            tensors[name] = weights.astype(np.float32)
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
    int8_weights: dict[str, np.ndarray] = {}
    scales: dict[str, float] = {}
    float_tensors: dict[str, np.ndarray] = {}
    quantized = set(quantized_tensor_names(params.cfg))
    for name, tensor in params.tensors.items():
        if name not in quantized:
            float_tensors[name] = tensor.copy()
            continue
        amax = float(np.max(np.abs(tensor.astype(np.float64))))
        scale = amax / 127.0 if amax > 0.0 else 1.0
        scale = float(np.float32(scale))
        q = _round_half_away(tensor.astype(np.float64) / scale)
        int8_weights[name] = np.clip(q, -127, 127).astype(np.int8)
        scales[name] = scale
    return QuantizedParams(params.cfg, int8_weights, scales, float_tensors,
                           metadata or {})


def qforward(qparams: QuantizedParams, batch: np.ndarray) -> np.ndarray:
    """Eval-mode float64 forward pass on the dequantized int8 weights."""
    return forward(qparams.dequantize(), batch, training=False)


# ---------------------------------------------------------------------------
# Quantized checkpoint: the TSCK prefix with magic "TSCQ", then one
# dtype-tagged tensor table (layout in model.py)
# ---------------------------------------------------------------------------

_QCKPT_MAGIC = b"TSCQ"
_QCKPT_VERSION = 1


def encode_quantized(qparams: QuantizedParams) -> bytes:
    entries = [model_mod._entry_bytes(n, t, model_mod._F32)
               for n, t in qparams.float_tensors.items()]
    entries += [model_mod._entry_bytes(n, t, model_mod._I8, qparams.scales[n])
                for n, t in qparams.int8_weights.items()]
    prefix = model_mod._prefix_bytes(_QCKPT_MAGIC, _QCKPT_VERSION, qparams.cfg, qparams.metadata)
    return b"".join([prefix, struct.pack("<I", len(entries))] + entries)


def save_quantized(path, qparams: QuantizedParams) -> None:
    _binio.write_file(path, encode_quantized(qparams))


def load_quantized(path) -> QuantizedParams:
    """Read a TSCQ file; any malformed content, a bad scale or tensors that
    do not fit the config included, raises CheckpointError."""
    r, cfg, metadata = model_mod._read_prefix(Path(path).read_bytes(), _QCKPT_MAGIC,
                                              _QCKPT_VERSION, "quantized checkpoint")
    int8_weights, scales, float_tensors = {}, {}, {}
    for name, tag, scale, array in model_mod._read_entries(r, tagged=True):
        if tag == model_mod._I8:
            int8_weights[name] = array
            scales[name] = scale
        else:
            float_tensors[name] = array
    with r.rejecting("tensors", ConfigError):
        return QuantizedParams(cfg, int8_weights, scales, float_tensors, metadata)


def weight_payload_bytes(params_or_q) -> int:
    """Serialized bytes of just the linear-weight payloads (excluding scales)."""
    if isinstance(params_or_q, QuantizedParams):
        return sum(t.size for t in params_or_q.int8_weights.values())
    names = quantized_tensor_names(params_or_q.cfg)
    return sum(params_or_q.tensors[n].size * 4 for n in names)


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
    run = qforward if quantized else functools.partial(forward, training=False)
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
