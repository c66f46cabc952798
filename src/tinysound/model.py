"""Tiny BERT-style encoder for audio features: forward, exact backward,
accounting, and checkpoints.

Continuous inputs (feature matrices) pass through a per-position batch
normalization and a learned linear mapping to the hidden size, with no
positional encoding; the batch norm is folded into the mapping, so the
normalized input is never built. Token inputs use embedding + positional
tables instead. Encoder layers use post-LayerNorm residuals, GELU, and a
feed-forward width fixed at 4x hidden. Classification reads the first
sequence position through a tanh pooler, so the last layer runs at
position 0 only: its query, residual, LayerNorms and feed-forward cover
that one row, while its keys and values still cover every position.
Earlier layers run at every position.

The encoder is a short sequence of ops, each returning its output and its
backward; a training ``forward`` returns the list of backwards and ``backward``
walks it in reverse, each op adding the gradients of the weights it owns.

Tensors are stored float32 (the checkpoint payload format) and all
arithmetic runs in float64.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np
from scipy.special import erf

from . import _binio
from .errors import CheckpointError, ConfigError

CONTINUOUS = "continuous"
TOKENS = "tokens"

_INIT_STD = 0.02
_INIT_BOUND = 2.0  # in units of std
_LN_EPS = 1e-12
_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1


@dataclass(frozen=True)
class ModelConfig:
    input_mode: str = CONTINUOUS
    input_dim: int = 128  # feature width F, or vocabulary size in tokens mode
    seq_len: int = 430
    hidden: int = 16
    layers: int = 1
    heads: int = 2
    classes: int = 6
    use_positional: bool | None = None
    share_layers: bool = False
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.input_mode not in (CONTINUOUS, TOKENS):
            raise ConfigError(f"input_mode must be continuous or tokens, got {self.input_mode!r}")
        for name in ("input_dim", "seq_len", "hidden", "layers", "heads", "classes"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.use_positional is None:
            object.__setattr__(self, "use_positional", self.input_mode == TOKENS)
        if self.input_mode == CONTINUOUS and self.use_positional:
            raise ConfigError("continuous inputs use no positional encoding")

    @property
    def ffn_dim(self) -> int:
        return 4 * self.hidden

    @property
    def n_layer_blocks(self) -> int:
        return 1 if self.share_layers else self.layers


def _layer_shapes(cfg: ModelConfig, i: int) -> dict[str, tuple[int, ...]]:
    h, f4 = cfg.hidden, cfg.ffn_dim
    p = f"layer{i}_"
    return {
        p + "q_w": (h, h), p + "q_b": (h,),
        p + "k_w": (h, h), p + "k_b": (h,),
        p + "v_w": (h, h), p + "v_b": (h,),
        p + "o_w": (h, h), p + "o_b": (h,),
        p + "attn_ln_g": (h,), p + "attn_ln_b": (h,),
        p + "ffn_in_w": (f4, h), p + "ffn_in_b": (f4,),
        p + "ffn_out_w": (h, f4), p + "ffn_out_b": (h,),
        p + "ffn_ln_g": (h,), p + "ffn_ln_b": (h,),
    }


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Ordered name -> shape map for every tensor, running stats included."""
    shapes: dict[str, tuple[int, ...]] = {}
    if cfg.input_mode == CONTINUOUS:
        shapes["bn_gamma"] = (cfg.seq_len,)
        shapes["bn_beta"] = (cfg.seq_len,)
        shapes["bn_running_mean"] = (cfg.seq_len,)
        shapes["bn_running_var"] = (cfg.seq_len,)
        shapes["map_w"] = (cfg.hidden, cfg.input_dim)
        shapes["map_b"] = (cfg.hidden,)
    else:
        shapes["tok_emb"] = (cfg.input_dim, cfg.hidden)
        if cfg.use_positional:
            shapes["pos_emb"] = (cfg.seq_len, cfg.hidden)
    shapes["seg_emb"] = (2, cfg.hidden)
    shapes["emb_ln_g"] = (cfg.hidden,)
    shapes["emb_ln_b"] = (cfg.hidden,)
    for i in range(cfg.n_layer_blocks):
        shapes.update(_layer_shapes(cfg, i))
    shapes["pooler_w"] = (cfg.hidden, cfg.hidden)
    shapes["pooler_b"] = (cfg.hidden,)
    shapes["cls_w"] = (cfg.classes, cfg.hidden)
    shapes["cls_b"] = (cfg.classes,)
    return shapes


_STATE_TENSORS = ("bn_running_mean", "bn_running_var")


def learnable_names(cfg: ModelConfig) -> list[str]:
    return [n for n in param_shapes(cfg) if n not in _STATE_TENSORS]


@dataclass
class ModelParams:
    """Config plus the full named-tensor set (float32 storage)."""

    cfg: ModelConfig
    tensors: dict[str, np.ndarray]

    def __post_init__(self):
        expected = param_shapes(self.cfg)
        if set(self.tensors) != set(expected):
            missing = set(expected) - set(self.tensors)
            extra = set(self.tensors) - set(expected)
            raise ConfigError(f"tensor set mismatch: missing {missing}, extra {extra}")
        for name, shape in expected.items():
            t = self.tensors[name]
            if t.shape != shape:
                raise ConfigError(f"{name} has shape {t.shape}, expected {shape}")
            if not np.all(np.isfinite(t)):
                raise ConfigError(f"{name} contains NaN or Inf")


def _truncated_normal(rng: np.random.Generator, shape, std=_INIT_STD) -> np.ndarray:
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > _INIT_BOUND * std
    while np.any(bad):
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > _INIT_BOUND * std
    return out.astype(np.float32)


def init_model(cfg: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Truncated-normal weights, zero biases, unit scales, fresh running stats."""
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(("_g", "gamma")) or name == "bn_running_var":
            tensors[name] = np.ones(shape, dtype=np.float32)
        elif name.endswith(("_w", "emb")):
            tensors[name] = _truncated_normal(rng, shape)
        else:
            tensors[name] = np.zeros(shape, dtype=np.float32)
    return ModelParams(cfg, tensors)


# ---------------------------------------------------------------------------
# Forward and backward: ops with paired backwards
# ---------------------------------------------------------------------------
#
# Each op returns its output and its backward, ``back(dy, grads) -> dx``, a
# closure over what the op kept from its forward, the float64 weights
# included. ``back`` adds the gradient of every weight the op owns into
# ``grads``; the input ops return None, as nothing upstream learns. A
# training forward returns the backwards in order and ``backward`` walks
# them in reverse.


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return cdf + x * pdf


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    out = x - x.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def _linear(w, name: str, x: np.ndarray):
    """y = x @ W.T + b over any leading axes; W and b are ``name_w``, ``name_b``."""
    weight = w[name + "_w"]
    out_dim, in_dim = weight.shape

    def back(dy, grads):
        dy2 = dy.reshape(-1, out_dim)
        grads[name + "_w"] += dy2.T @ x.reshape(-1, in_dim)
        grads[name + "_b"] += dy2.sum(axis=0)
        return (dy2 @ weight).reshape(x.shape)
    return x @ weight.T + w[name + "_b"], back


def _layer_norm(w, name: str, x: np.ndarray):
    """Normalize over the last axis; scale ``name_g`` and shift ``name_b``."""
    g = w[name + "_g"]
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x - mean) * inv_std

    def back(dy, grads):
        sum_axes = tuple(range(dy.ndim - 1))
        grads[name + "_g"] += (dy * xhat).sum(axis=sum_axes)
        grads[name + "_b"] += dy.sum(axis=sum_axes)
        dxhat = dy * g
        return inv_std * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
    return g * xhat + w[name + "_b"], back


def _dropout(x: np.ndarray, rate: float, rng):
    """Inverted dropout; the identity at rate 0."""
    if rate == 0.0:
        return x, lambda dy, grads: dy
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, lambda dy, grads: dy * mask


def _bn_mapping(params: ModelParams, w, batch: np.ndarray, update_stats: bool):
    """Per-position batch norm folded into the linear map from F to the hidden size.

    Normalizes with batch statistics, folded into the float32 running stats,
    when ``update_stats``, else with the running stats. With s = gamma /
    sqrt(var + eps) and t = beta - s * mean per position, the output is
    s * (x @ W.T) + t * rowsum(W) + b: no direction builds the (B, L, F) xhat.
    """
    if update_stats:
        mean = batch.mean(axis=(0, 2))
        var = batch.var(axis=(0, 2))
        n = batch.shape[0] * batch.shape[2]
        run_var = var * n / (n - 1) if n > 1 else var  # unbiased, for the running estimate
        rm = params.tensors["bn_running_mean"]
        rv = params.tensors["bn_running_var"]
        rm[...] = ((1 - _BN_MOMENTUM) * rm + _BN_MOMENTUM * mean).astype(np.float32)
        rv[...] = ((1 - _BN_MOMENTUM) * rv + _BN_MOMENTUM * run_var).astype(np.float32)
    else:
        mean, var = w["bn_running_mean"], w["bn_running_var"]
    inv_std = 1.0 / np.sqrt(var + _BN_EPS)
    scale = w["bn_gamma"] * inv_std
    shift = w["bn_beta"] - scale * mean
    weight, row_sum = w["map_w"], w["map_w"].sum(axis=1)
    xw = batch @ weight.T

    def back(dy, grads):
        d_beta = (dy @ row_sum).sum(axis=0)
        grads["bn_beta"] += d_beta
        grads["bn_gamma"] += inv_std * ((dy * xw).sum(axis=(0, 2)) - mean * d_beta)
        h, f = weight.shape
        grads["map_w"] += (scale[:, None] * dy).reshape(-1, h).T @ batch.reshape(-1, f)
        grads["map_w"] += (shift @ dy.sum(axis=0))[:, None]
        grads["map_b"] += dy.sum(axis=(0, 1))
    return scale[:, None] * xw + shift[:, None] * row_sum + w["map_b"], back


def _token_embedding(w, ids: np.ndarray, positional: bool):
    """Token table rows, plus the positional table when ``positional``."""
    out = w["tok_emb"][ids]
    if positional:
        out = out + w["pos_emb"][None, :, :]

    def back(dy, grads):
        np.add.at(grads["tok_emb"], ids.reshape(-1), dy.reshape(-1, dy.shape[-1]))
        if positional:
            grads["pos_emb"] += dy.sum(axis=0)
    return out, back


def _segment_row(w, x: np.ndarray):
    """Adds segment row 0; every input is one segment, so row 1 stays unused."""
    def back(dy, grads):
        grads["seg_emb"][0] += dy.sum(axis=(0, 1))
        return dy
    return x + w["seg_emb"][0], back


def _attention_sublayer(w, p: str, x: np.ndarray, heads: int, dropout, n_queries: int):
    """Post-LN self-attention, LN(xq + dropout(attention(xq, x))), with weights ``p*``.

    Queries, residual and output cover the first ``n_queries`` positions,
    xq = x[:, :n_queries]; keys and values cover every position. Its backward
    also carries the attention probabilities as ``back.probs``.
    """
    b, _, h = x.shape
    dh = h // heads
    xq = x[:, :n_queries]

    def split(y):
        return y.reshape(b, y.shape[1], heads, dh).transpose(0, 2, 1, 3)

    def merge(y):
        return y.transpose(0, 2, 1, 3).reshape(b, y.shape[2], h)

    projections = [_linear(w, p + name, z) for name, z in (("q", xq), ("k", x), ("v", x))]
    q, k, v = (split(y) for y, _ in projections)
    probs = softmax(q @ k.swapaxes(-1, -2) / np.sqrt(dh))
    out, o_back = _linear(w, p + "o", merge(probs @ v))
    out, drop_back = dropout(out)
    y, ln_back = _layer_norm(w, p + "attn_ln", xq + out)

    def back(dy, grads):
        dxq = ln_back(dy, grads)
        d_ctx = split(o_back(drop_back(dxq, grads), grads))
        d_probs = d_ctx @ v.swapaxes(-1, -2)
        d_v = probs.swapaxes(-1, -2) @ d_ctx
        d_scores = probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True))
        d_scores = d_scores / np.sqrt(dh)
        d_qkv = (d_scores @ k, d_scores.swapaxes(-1, -2) @ q, d_v)
        dq, dk, dv = (proj_back(merge(d), grads) for (_, proj_back), d in zip(projections, d_qkv))
        dx = dk + dv
        dx[:, :n_queries] += dxq + dq
        return dx
    back.probs = probs
    return y, back


def _ffn_sublayer(w, p: str, x: np.ndarray, dropout):
    """Post-LN feed-forward, LN(x + dropout(W2 gelu(W1 x))), with weights ``p*``."""
    pre, in_back = _linear(w, p + "ffn_in", x)
    out, out_back = _linear(w, p + "ffn_out", gelu(pre))
    out, drop_back = dropout(out)
    y, ln_back = _layer_norm(w, p + "ffn_ln", x + out)

    def back(dy, grads):
        dx = ln_back(dy, grads)
        d_pre = out_back(drop_back(dx, grads), grads) * gelu_grad(pre)
        return dx + in_back(d_pre, grads)
    return y, back


def _pooler_classifier(w, x: np.ndarray, dropout):
    """Logits from the one remaining position, (B, 1, H), through the tanh pooler and dropout."""
    pre, pool_back = _linear(w, "pooler", x[:, 0, :])
    pooled = np.tanh(pre)
    cls_in, drop_back = dropout(pooled)
    logits, cls_back = _linear(w, "cls", cls_in)

    def back(dlogits, grads):
        d_pooled = drop_back(cls_back(dlogits, grads), grads)
        return pool_back(d_pooled * (1.0 - pooled**2), grads)[:, None, :]
    return logits, back


def forward(params: ModelParams, batch: np.ndarray, training: bool = False,
            rng: np.random.Generator | None = None, freeze_stats: bool = False):
    """Run the encoder; returns logits, or ``(logits, backwards)`` when
    training: each op's backward, in forward order, for ``backward``.

    Training mode normalizes with batch statistics (and updates the running
    stats unless ``freeze_stats``) and applies dropout, which requires
    ``rng`` when the configured rate is nonzero.
    """
    cfg = params.cfg
    batch = np.asarray(batch)
    if cfg.input_mode == CONTINUOUS:
        if batch.ndim != 3 or batch.shape[1:] != (cfg.seq_len, cfg.input_dim):
            raise ValueError(
                f"expected batch of shape (B, {cfg.seq_len}, {cfg.input_dim}), got {batch.shape}"
            )
        batch = batch.astype(np.float64)
    else:
        if batch.ndim != 2 or batch.shape[1] != cfg.seq_len:
            raise ValueError(f"expected token batch of shape (B, {cfg.seq_len}), got {batch.shape}")
        if batch.min() < 0 or batch.max() >= cfg.input_dim:
            raise ValueError("token id outside the vocabulary")
        batch = batch.astype(np.int64)

    drop_rate = cfg.dropout_rate if training else 0.0
    if drop_rate > 0.0 and rng is None:
        raise ValueError("training forward with dropout needs an rng")
    w = {k: v.astype(np.float64) for k, v in params.tensors.items()}
    backwards = [] if training else None  # eval keeps no backward, nor what it holds

    def run(op, *args):
        y, back = op(*args)
        if training:
            backwards.append(back)
        return y

    def dropout(x):
        return _dropout(x, drop_rate, rng)

    if cfg.input_mode == CONTINUOUS:
        x = run(_bn_mapping, params, w, batch, training and not freeze_stats)
    else:
        x = run(_token_embedding, w, batch, cfg.use_positional)
    x = run(_segment_row, w, x)
    x = run(_layer_norm, w, "emb_ln", x)
    x = run(dropout, x)
    for layer in range(cfg.layers):
        p = f"layer{0 if cfg.share_layers else layer}_"
        # the classifier reads position 0 only, so the last layer computes only that row
        n_queries = 1 if layer == cfg.layers - 1 else cfg.seq_len
        x = run(_attention_sublayer, w, p, x, cfg.heads, dropout, n_queries)
        x = run(_ffn_sublayer, w, p, x, dropout)
    logits = run(_pooler_classifier, w, x, dropout)
    return (logits, backwards) if training else logits


def backward(params: ModelParams, backwards: list, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of every learnable tensor given dLoss/dLogits."""
    grads = {name: np.zeros(params.tensors[name].shape) for name in learnable_names(params.cfg)}
    dy = np.asarray(dlogits, dtype=np.float64)
    for back in reversed(backwards):
        dy = back(dy, grads)
    return grads


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------

def count_params(cfg: ModelConfig) -> int:
    """Learnable parameter count (running stats excluded)."""
    shapes = param_shapes(cfg)
    return sum(math.prod(shapes[name]) for name in learnable_names(cfg))


PER_POSITION = "per_position"
TOTAL = "total"
EXECUTED = "executed"


def mult_add_breakdown(cfg: ModelConfig, convention: str = TOTAL) -> dict[str, int]:
    """Multiply-add counts per component.

    ``total`` is the architectural MAC count of one forward pass, every
    layer at every position, including the L^2 * H attention score/value
    products. ``executed`` is what ``forward`` runs for one clip: the last
    layer computes its queries, output projection and feed-forward at
    position 0 only (keys and values at every position), and the batch
    norm folded into the mapping costs 2 * L * H. ``per_position`` counts
    each weight matrix once plus L for the batch norm, approximating
    parameter-count-style accounting tools.
    """
    h, c, seq, layers = cfg.hidden, cfg.classes, cfg.seq_len, cfg.layers
    continuous = cfg.input_mode == CONTINUOUS
    f = cfg.input_dim if continuous else 0
    if convention == PER_POSITION:
        return {
            "batch_norm": seq if continuous else 0,
            "mapping": f * h,
            "attention": layers * 4 * h * h,
            "ffn": layers * 8 * h * h,
            "pooler": h * h,
            "classifier": h * c,
        }
    if convention not in (TOTAL, EXECUTED):
        raise ValueError(f"unknown convention {convention!r}")
    # query rows per layer: every position, except in the executed last layer
    rows = [seq] * layers if convention == TOTAL else [seq] * (layers - 1) + [1]
    return {
        "batch_norm": (seq * f if convention == TOTAL else 2 * seq * h) if continuous else 0,
        "mapping": seq * f * h,
        "attention_proj": sum(2 * seq * h * h + 2 * n * h * h for n in rows),
        "attention_scores": sum(n * seq * h for n in rows),
        "attention_values": sum(n * seq * h for n in rows),
        "ffn": sum(8 * n * h * h for n in rows),
        "pooler": h * h,
        "classifier": h * c,
    }


def count_mult_adds(cfg: ModelConfig, convention: str = TOTAL) -> int:
    return sum(mult_add_breakdown(cfg, convention).values())


# ---------------------------------------------------------------------------
# Checkpoints: magic "TSCK", version, config, metadata, step, tensor tables
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"TSCK"
_CKPT_VERSION = 1
_F32, _I8 = 0, 1  # TSCQ entry dtype tags
_DTYPE_TAGS = {_F32: np.dtype("<f4"), _I8: np.dtype("i1")}


@dataclass
class Checkpoint:
    params: ModelParams
    opt_tensors: dict[str, np.ndarray] | None
    step: int
    metadata: dict


# TSCK and TSCQ share the prefix (magic, u32 version, JSON config and
# metadata blocks) and the tensor entry (name, then in TSCQ a u8 dtype tag
# and an f32 scale, then shape and payload); TSCK entries are all f32.

def _prefix_bytes(magic: bytes, version: int, cfg: ModelConfig, metadata: dict) -> bytes:
    return (magic + struct.pack("<I", version)
            + _binio.json_block(asdict(cfg)) + _binio.json_block(metadata))


def _entry_bytes(name: str, tensor: np.ndarray, tag: int | None = None,
                 scale: float = 0.0) -> bytes:
    head = b"" if tag is None else struct.pack("<Bf", tag, scale)
    dtype = _DTYPE_TAGS[_F32 if tag is None else tag]
    return (_binio.name_block(name) + head + _binio.shape_block(tensor.shape)
            + np.ascontiguousarray(tensor, dtype=dtype).tobytes())


def _table_bytes(tensors: dict[str, np.ndarray]) -> bytes:
    return struct.pack("<I", len(tensors)) + b"".join(
        _entry_bytes(name, t) for name, t in tensors.items())


def _read_prefix(data: bytes, magic: bytes, version: int,
                 kind: str) -> tuple[_binio.Reader, ModelConfig, dict]:
    """Check magic and version, then decode and validate config and metadata."""
    r = _binio.Reader(data, magic, CheckpointError, kind)
    (found,) = r.unpack("<I", "version")
    if found != version:
        raise r.error(f"{kind} version {found} unsupported (expected {version})")
    block = r.json_object("config")
    with r.rejecting("config", TypeError, ConfigError):
        cfg = ModelConfig(**block)
    metadata = r.json_object("metadata")
    names = metadata.get("class_names")
    if names is not None and (not isinstance(names, list) or len(names) != cfg.classes):
        raise r.error(f"metadata class_names {names!r} do not name {cfg.classes} classes")
    return r, cfg, metadata


def _read_entries(r: _binio.Reader, tagged: bool = False):
    """Yield (name, tag, scale, array) for each entry of a tensor table."""
    (count,) = r.unpack("<I", "tensor count")
    for _ in range(count):
        name = r.text("<H", "tensor name")
        tag, scale = r.unpack("<Bf", name) if tagged else (_F32, 0.0)
        if tag not in _DTYPE_TAGS:
            raise r.error(f"unknown dtype tag {tag} for tensor {name}")
        yield name, tag, scale, r.array(_DTYPE_TAGS[tag], r.shape(name), name)


def _read_table(r: _binio.Reader) -> dict[str, np.ndarray]:
    return {name: array for name, _, _, array in _read_entries(r)}


def encode_checkpoint(params: ModelParams,
                      opt_tensors: dict[str, np.ndarray] | None = None,
                      step: int = 0, metadata: dict | None = None) -> bytes:
    opt = b"\x00" if opt_tensors is None else b"\x01" + _table_bytes(opt_tensors)
    return (_prefix_bytes(_CKPT_MAGIC, _CKPT_VERSION, params.cfg, metadata or {})
            + struct.pack("<Q", step) + _table_bytes(params.tensors) + opt)


def save_checkpoint(path, params: ModelParams,
                    opt_tensors: dict[str, np.ndarray] | None = None,
                    step: int = 0, metadata: dict | None = None) -> None:
    Path(path).write_bytes(encode_checkpoint(params, opt_tensors, step, metadata))


def load_checkpoint(path) -> Checkpoint:
    """Read a TSCK file; any malformed content raises CheckpointError."""
    r, cfg, metadata = _read_prefix(Path(path).read_bytes(), _CKPT_MAGIC, _CKPT_VERSION,
                                    "checkpoint")
    (step,) = r.unpack("<Q", "step")
    tensors = _read_table(r)
    with r.rejecting("tensors", ConfigError):
        params = ModelParams(cfg, tensors)
    (has_opt,) = r.unpack("<B", "optimizer flag")
    return Checkpoint(params, _read_table(r) if has_opt else None, step, metadata)
