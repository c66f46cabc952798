"""Post-training dynamic int8 weight quantization and latency benchmarks.

Linear-layer weights are stored as int8 with one symmetric per-tensor
scale (zero-point 0); biases, norms, and embeddings stay float32, and
activations are never quantized. Inference dequantizes on the fly and is
numerically equivalent to running the dequantized weights.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import model as model_mod
from .audio_io import TARGET_RATE, AudioClip
from .errors import ConfigError
from .model import ModelConfig, ModelParams, count_params, encode_checkpoint, forward

_QUANT_SUFFIX = "_w"  # every linear weight tensor


def quantized_tensor_names(cfg: ModelConfig) -> list[str]:
    return [n for n in model_mod.param_shapes(cfg) if n.endswith(_QUANT_SUFFIX)]


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


@dataclass
class QuantizedParams:
    """int8 linear weights with per-tensor scales; everything else float32."""

    cfg: ModelConfig
    int8_weights: dict[str, np.ndarray]
    scales: dict[str, float]
    float_tensors: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)
    _dequantized: ModelParams | None = field(default=None, repr=False)

    def dequantize(self) -> ModelParams:
        """Materialize float parameters (cached) for running the forward pass."""
        if self._dequantized is None:
            tensors = {k: v.copy() for k, v in self.float_tensors.items()}
            for name, q in self.int8_weights.items():
                tensors[name] = (q.astype(np.float64) * self.scales[name]).astype(np.float32)
            self._dequantized = ModelParams(self.cfg, tensors)
        return self._dequantized


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
    Path(path).write_bytes(encode_quantized(qparams))


def load_quantized(path) -> QuantizedParams:
    """Read a TSCQ file; any malformed content raises CheckpointError.

    Dequantizing here rejects tensors that do not fit the config at load.
    """
    r, cfg, metadata = model_mod._read_prefix(Path(path).read_bytes(), _QCKPT_MAGIC,
                                              _QCKPT_VERSION, "quantized checkpoint")
    int8_weights, scales, float_tensors = {}, {}, {}
    for name, tag, scale, array in model_mod._read_entries(r, tagged=True):
        if tag == model_mod._I8:
            int8_weights[name] = array
            scales[name] = scale
        else:
            float_tensors[name] = array
    qparams = QuantizedParams(cfg, int8_weights, scales, float_tensors, metadata)
    with r.rejecting("tensors", ConfigError):
        qparams.dequantize()
    return qparams


def weight_payload_bytes(params_or_q) -> int:
    """Serialized bytes of just the linear-weight payloads (excluding scales)."""
    if isinstance(params_or_q, QuantizedParams):
        return sum(t.size for t in params_or_q.int8_weights.values())
    names = quantized_tensor_names(params_or_q.cfg)
    return sum(params_or_q.tensors[n].size * 4 for n in names)


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------

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


def bench(params_or_q, pipeline, window_samples: int, n_runs: int = 10,
          warmup: int = 3) -> BenchReport:
    """Wall-clock latency of feature extraction and one forward pass.

    Runs in this process on a deterministic input; the first ``warmup``
    measurements are discarded from every statistic but ``first_call_ms``.
    Model and feature time are reported separately. For ``QuantizedParams``
    the timed pass is float64 inference on the weights dequantized once up
    front, as ``qforward`` runs it; no integer arithmetic is timed;
    ``quantized`` in the report says only which weights were loaded, and
    ``serialized_bytes`` is the size of the encoded TSCQ (or TSCK). A model
    whose input shape is not the pipeline's raises ``ConfigError``.
    """
    quantized = isinstance(params_or_q, QuantizedParams)
    params = params_or_q.dequantize() if quantized else params_or_q
    cfg = params.cfg
    pipeline.check_model(cfg, window_samples)

    wave = np.sin(2 * np.pi * 440.0 * np.arange(window_samples) / TARGET_RATE)
    clip = AudioClip(wave, TARGET_RATE)

    feature_times, model_times = [], []
    for _ in range(warmup + n_runs):
        t0 = time.perf_counter()
        example = pipeline.extract(clip)
        t1 = time.perf_counter()
        forward(params, example[None, ...], training=False)
        t2 = time.perf_counter()
        feature_times.append((t1 - t0) * 1e3)
        model_times.append((t2 - t1) * 1e3)
    first_call_ms = model_times[0]
    feature_times, model_times = feature_times[warmup:], model_times[warmup:]

    serialized_bytes = len(encode_quantized(params_or_q) if quantized
                           else encode_checkpoint(params))

    return BenchReport(
        mean_ms=float(np.mean(model_times)),
        min_ms=float(np.min(model_times)),
        max_ms=float(np.max(model_times)),
        median_ms=float(np.median(model_times)),
        p90_ms=float(np.percentile(model_times, 90)),
        first_call_ms=first_call_ms,
        feature_mean_ms=float(np.mean(feature_times)),
        runs=n_runs,
        param_count=count_params(cfg),
        serialized_bytes=int(serialized_bytes),
        quantized=quantized,
    )
