"""Post-training dynamic int8 weight quantization.

A quantized model is one tensor table, written and read by the TSCK's table
code: linear-layer weights are int8 with one symmetric per-tensor scale
(zero-point 0); biases, norms, and embeddings stay float32, and activations
are never quantized. Inference runs the float weights that building a
``QuantizedParams`` dequantizes once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _binio, model as model_mod
from .errors import ConfigError
from .model import ModelConfig, ModelParams, forward

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

