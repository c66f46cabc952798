"""Tiny BERT-style encoder for audio features: forward, exact backward,
accounting, and checkpoints.

Continuous inputs (feature matrices) pass through a per-position batch
normalization and a learned linear mapping to the hidden size, with no
positional encoding; the batch norm is folded into the mapping, so the
normalized input is never built. Token inputs use token and position
tables instead, as BERT does. Encoder layers use post-LayerNorm residuals,
GELU, and a feed-forward width fixed at 4x hidden. Classification reads the first
sequence position through a tanh pooler, so the last layer runs at
position 0 only: its query, residual, LayerNorms and feed-forward cover
that one row, and it builds no keys or values, as its key and value weights
act on the query and on the attention-weighted sum of positions instead.
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
        shapes["pos_emb"] = (cfg.seq_len, cfg.hidden)
    shapes["seg_emb"] = (2, cfg.hidden)  # every input is one segment, so row 1 never learns
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


def _truncated_normal(rng: np.random.Generator, shape) -> np.ndarray:
    out = rng.normal(0.0, _INIT_STD, size=shape)
    bad = np.abs(out) > _INIT_BOUND * _INIT_STD
    while np.any(bad):
        out[bad] = rng.normal(0.0, _INIT_STD, size=int(bad.sum()))
        bad = np.abs(out) > _INIT_BOUND * _INIT_STD
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


def softmax(x: np.ndarray) -> np.ndarray:
    out = x - x.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _linear(w, name: str, x: np.ndarray):
    """y = x @ W.T + b over any leading axes; W and b are ``name_w``, ``name_b``."""
    weight = w[name + "_w"]
    out_dim, in_dim = weight.shape

    def back(dy, grads):
        dy2 = dy.reshape(-1, out_dim)
        grads[name + "_w"] += dy2.T @ x.reshape(-1, in_dim)
        grads[name + "_b"] += np.einsum("nh->h", dy2)
        return (dy2 @ weight).reshape(x.shape)
    return x @ weight.T + w[name + "_b"], back


def _layer_norm(w, name: str, x: np.ndarray):
    """Normalize (B, L, H) over H; scale ``name_g`` and shift ``name_b``."""
    g, h = w[name + "_g"], x.shape[-1]
    xhat = x - np.einsum("blh->bl", x)[..., None] / h
    inv_std = 1.0 / np.sqrt(np.einsum("blh,blh->bl", xhat, xhat)[..., None] / h + _LN_EPS)
    xhat *= inv_std

    def back(dy, grads):
        grads[name + "_g"] += np.einsum("blh,blh->h", dy, xhat)
        grads[name + "_b"] += np.einsum("blh->h", dy)
        dxhat = dy * g
        dx = xhat * (np.einsum("blh,blh->bl", dxhat, xhat)[..., None] / h)
        np.subtract(dxhat, dx, out=dx)
        dx -= np.einsum("blh->bl", dxhat)[..., None] / h
        return np.multiply(dx, inv_std, out=dx)
    y = g * xhat
    y += w[name + "_b"]
    return y, back


def _dropout(x: np.ndarray, rate: float, rng):
    """Inverted dropout; the identity at rate 0."""
    if rate == 0.0:
        return x, lambda dy, grads: dy
    keep, scale = rng.random(x.shape) >= rate, 1.0 / (1.0 - rate)  # a bool mask: 1/8 the bytes
    return x * keep * scale, lambda dy, grads: dy * keep * scale


class Example(np.ndarray):
    """(L, F) features, float64, carrying ``moments``: their per-position mean and
    centered sum of squares over F, taken in two passes. An array derived from an
    ``Example`` carries none."""

    def __new__(cls, features):
        x = np.asarray(features, dtype=np.float64)
        mean = np.einsum("lf->l", x) / x.shape[1]
        c = x - mean[:, None]
        self = x.view(cls)
        self.moments = mean, np.einsum("lf,lf->l", c, c)
        return self


def _batch_moments(batch):
    """Per-position mean and variance of a sequence of (L, F) examples, from each one's
    ``moments`` (an ``Example``'s for one that carries none) combined as Chan, Golub and
    LeVeque (1979) combine centered sums: no (B, L, F) temporary."""
    means, sums = map(np.array, zip(*(getattr(x, "moments", None) or Example(x).moments
                                      for x in batch)))
    n, f = len(batch), np.shape(batch[0])[1]
    mean = np.einsum("bl->l", means) / n
    d = means - mean
    return mean, (np.einsum("bl->l", sums) + f * np.einsum("bl,bl->l", d, d)) / (n * f)


def _bn_mapping(params: ModelParams, w, batch, training: bool):
    """Per-position batch norm folded into the linear map from F to the hidden size.

    Reads ``batch``, a sequence of (L, F) examples, one at a time. Normalizes
    with batch statistics, folded into the float32 running stats, when
    ``training``, else with the running stats. With s = gamma /
    sqrt(var + eps) and t = beta - s * mean per position, the output is
    s * (x @ W.T) + t * rowsum(W) + b + seg_emb[0]: no (B, L, F) xhat in either direction.
    """
    weight, row_sum = w["map_w"], w["map_w"].sum(axis=1)
    if training:
        (mean, var), n = _batch_moments(batch), len(batch) * weight.shape[1]
        run_var = var * n / (n - 1) if n > 1 else var  # unbiased, for the running estimate
        rm, rv = params.tensors["bn_running_mean"], params.tensors["bn_running_var"]
        rm[...] = ((1 - _BN_MOMENTUM) * rm + _BN_MOMENTUM * mean).astype(np.float32)
        rv[...] = ((1 - _BN_MOMENTUM) * rv + _BN_MOMENTUM * run_var).astype(np.float32)
    else:
        mean, var = w["bn_running_mean"], w["bn_running_var"]
    inv_std = 1.0 / np.sqrt(var + _BN_EPS)
    scale = w["bn_gamma"] * inv_std
    shift = w["bn_beta"] - scale * mean
    xw = np.empty((len(batch), len(scale), len(row_sum)))
    for x, out in zip(batch, xw):
        np.matmul(x, weight.T, out=out)

    def back(dy, grads):
        dy_l = dy.sum(axis=0)
        d_beta = np.einsum("lh,h->l", dy_l, row_sum)
        grads["bn_beta"] += d_beta
        grads["bn_gamma"] += inv_std * (np.einsum("blh,blh->l", dy, xw) - mean * d_beta)
        for d, x in zip(scale[:, None] * dy, batch):
            grads["map_w"] += d.T @ x
        grads["map_w"] += np.einsum("l,lh->h", shift, dy_l)[:, None]
        grads["map_b"] += np.einsum("lh->h", dy_l)
        grads["seg_emb"][0] += np.einsum("blh->h", dy)
    y = scale[:, None] * xw
    y += shift[:, None] * row_sum + w["map_b"]
    y += w["seg_emb"][0]
    return y, back


def _token_embedding(w, ids: np.ndarray):
    """Token table rows, plus the position table, plus segment row 0."""
    out = w["tok_emb"][ids]
    out += w["pos_emb"]
    out += w["seg_emb"][0]

    def back(dy, grads):
        np.add.at(grads["tok_emb"], ids.reshape(-1), dy.reshape(-1, dy.shape[-1]))
        grads["pos_emb"] += dy.sum(axis=0)
        grads["seg_emb"][0] += np.einsum("blh->h", dy)
    return out, back


def _attention_sublayer(w, p: str, x: np.ndarray, heads: int, dropout, n_queries: int):
    """Post-LN self-attention, LN(xq + dropout(attention(xq, x))), with weights ``p*``.

    Queries, residual and output cover the first ``n_queries`` positions,
    xq = x[:, :n_queries]; the attention covers every position. One query
    builds no keys or values: scores are x·(W_k,hᵀ q_h) per head h, as softmax
    drops the constant q_h·b_k,h (so ``k_b`` gets no gradient here), and the
    context is (probs·x)·W_v,hᵀ + b_v,h."""
    b, _, h = x.shape
    dh = h // heads
    xq = x[:, :n_queries]

    def split(y):
        return y.reshape(b, y.shape[1], heads, dh).transpose(0, 2, 1, 3)

    def merge(y):
        return y.transpose(0, 2, 1, 3).reshape(b, y.shape[2], h)

    q_out, q_back = _linear(w, p + "q", xq)
    q = split(q_out)
    # scores a·keysᵀ and context probs·values; one query's keys and values are x itself
    if n_queries == 1:
        wk, wv = (w[p + name].reshape(heads, dh, h) for name in ("k_w", "v_w"))
        a, keys, values = q @ wk, x[:, None], x[:, None]
    else:
        (k, k_back), (v, v_back) = (_linear(w, p + name, x) for name in "kv")
        a, keys, values = q, split(k), split(v)
    probs = softmax(a @ keys.swapaxes(-1, -2) / np.sqrt(dh))
    ctx = px = probs @ values
    if n_queries == 1:
        ctx = px @ wv.swapaxes(-1, -2) + w[p + "v_b"].reshape(heads, 1, dh)
    out, o_back = _linear(w, p + "o", merge(ctx))
    out, drop_back = dropout(out)
    y, ln_back = _layer_norm(w, p + "attn_ln", xq + out)

    def back(dy, grads):
        dxq = ln_back(dy, grads)
        d_ctx = split(o_back(drop_back(dxq, grads), grads))
        d_px = d_ctx @ wv if n_queries == 1 else d_ctx
        d_probs = d_px @ values.swapaxes(-1, -2)
        d_scores = probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True)) / np.sqrt(dh)
        d_a = d_scores @ keys
        if n_queries == 1:  # one product over 2 * heads columns
            dx = (np.concatenate((d_scores, probs), axis=1)[:, :, 0].swapaxes(1, 2)
                  @ np.concatenate((a, d_px), axis=1)[:, :, 0])
            grads[p + "k_w"] += np.einsum("bnqd,bnqh->ndh", q, d_a).reshape(h, h)
            grads[p + "v_w"] += np.einsum("bnqd,bnqh->ndh", d_ctx, px).reshape(h, h)
            grads[p + "v_b"] += np.einsum("bnqd->nd", d_ctx).reshape(h)
            d_a = d_a @ wk.swapaxes(-1, -2)
        else:  # one (B, L, H) gradient at a time
            dx = k_back(merge(d_scores.swapaxes(-1, -2) @ q), grads)
            dx += v_back(merge(probs.swapaxes(-1, -2) @ d_ctx), grads)
        dx[:, :n_queries] += dxq + q_back(merge(d_a), grads)
        return dx
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


def _run(backwards: list | None, op, *args):
    """``forward``'s top-level op ``op(*args)``: its output; its backward goes on ``backwards``."""
    y, back = op(*args)
    if backwards is not None:
        backwards.append(back)
    return y


def forward(params: ModelParams, batch, training: bool = False,
            rng: np.random.Generator | None = None):
    """Run the encoder on ``batch``, a sequence of examples, each (L, F) features
    (an ``Example`` brings its batch-norm moments) or L token ids; a (B, L, F) or
    (B, L) array is one such sequence. Returns logits, or ``(logits, backwards)``
    when training: each op's backward, in forward order, for ``backward``.

    Training mode normalizes with batch statistics, updates the running stats
    in ``params`` and applies dropout, which requires ``rng`` when the
    configured rate is nonzero.
    """
    cfg = params.cfg
    if cfg.input_mode == CONTINUOUS:
        shapes = sorted({np.shape(x) for x in batch})
        if shapes != [(cfg.seq_len, cfg.input_dim)]:
            raise ValueError(f"expected batch of shape (B, {cfg.seq_len}, {cfg.input_dim}), "
                             f"got examples of shapes {shapes}")
    else:
        batch = np.asarray(batch)
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

    def dropout(x):
        return _dropout(x, drop_rate, rng)

    if cfg.input_mode == CONTINUOUS:
        x = _run(backwards, _bn_mapping, params, w, batch, training)
    else:
        x = _run(backwards, _token_embedding, w, batch)
    x = _run(backwards, _layer_norm, w, "emb_ln", x)
    x = _run(backwards, dropout, x)
    for layer in range(cfg.layers):
        p = f"layer{0 if cfg.share_layers else layer}_"
        # the classifier reads position 0 only, so the last layer computes only that row
        n_queries = 1 if layer == cfg.layers - 1 else cfg.seq_len
        x = _run(backwards, _attention_sublayer, w, p, x, cfg.heads, dropout, n_queries)
        x = _run(backwards, _ffn_sublayer, w, p, x, dropout)
    logits = _run(backwards, _pooler_classifier, w, x, dropout)
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


TOTAL = "total"
EXECUTED = "executed"


def mult_add_breakdown(cfg: ModelConfig, convention: str = TOTAL) -> dict[str, int]:
    """Multiply-add counts per component.

    ``total`` is the architectural MAC count of one forward pass, every
    layer at every position, including the L^2 * H attention score/value
    products. ``executed`` is what ``forward`` runs for one clip: the last
    layer runs one query and builds no keys or values (Q, O, W_k,hᵀ q_h and
    (probs·x)·W_v,hᵀ cost 4 * H^2, its scores and weighted sums
    2 * heads * L * H, its feed-forward one row), and the batch norm folded
    into the mapping costs 2 * L * H.
    """
    h, c, seq, layers = cfg.hidden, cfg.classes, cfg.seq_len, cfg.layers
    continuous = cfg.input_mode == CONTINUOUS
    f = cfg.input_dim if continuous else 0
    if convention not in (TOTAL, EXECUTED):
        raise ValueError(f"unknown convention {convention!r}")
    full = layers if convention == TOTAL else layers - 1  # layers run at every position
    one = layers - full  # the executed last layer: one query
    return {
        "batch_norm": (seq * f if convention == TOTAL else 2 * seq * h) if continuous else 0,
        "mapping": seq * f * h,
        "attention_proj": (full * seq + one) * 4 * h * h,
        "attention_scores": (full * seq + one * cfg.heads) * seq * h,
        "attention_values": (full * seq + one * cfg.heads) * seq * h,
        "ffn": (full * seq + one) * 8 * h * h,
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


# TSCK and TSCQ share the prefix (magic, u32 version, JSON config and metadata
# blocks) and the tensor table. A TSCQ entry adds a u8 dtype tag and an f32 scale
# after the name: i8 where ``scales`` holds one, else f32 (scale 0). The config
# block also holds use_positional, true for a token model; readers drop it.

def _prefix_bytes(magic: bytes, version: int, cfg: ModelConfig, metadata: dict) -> bytes:
    block = {**asdict(cfg), "use_positional": cfg.input_mode == TOKENS}
    return (magic + struct.pack("<I", version)
            + _binio.json_block(block) + _binio.json_block(metadata))


def _entry_bytes(name: str, tensor: np.ndarray, scales: dict[str, float] | None = None) -> bytes:
    tag = _I8 if scales and name in scales else _F32
    head = b"" if scales is None else struct.pack("<Bf", tag, scales.get(name, 0.0))
    return (_binio.name_block(name) + head + _binio.shape_block(tensor.shape)
            + np.ascontiguousarray(tensor, dtype=_DTYPE_TAGS[tag]).tobytes())


def _table_bytes(tensors: dict[str, np.ndarray], scales: dict[str, float] | None = None) -> bytes:
    return struct.pack("<I", len(tensors)) + b"".join(
        _entry_bytes(name, t, scales) for name, t in tensors.items())


def _read_prefix(data: bytes, magic: bytes,
                 version: int) -> tuple[_binio.Reader, ModelConfig, dict]:
    """Check magic and version, then decode and validate config and metadata."""
    r = _binio.Reader(data, magic, CheckpointError)
    (found,) = r.unpack("<I", "version")
    if found != version:
        raise r.error(f"{r.kind} version {found} unsupported (expected {version})")
    block = r.json_object("config")
    block.pop("use_positional", None)
    with r.rejecting("config", TypeError, ConfigError):
        cfg = ModelConfig(**block)
    metadata = r.json_object("metadata")
    names = metadata.get("class_names")
    if names is not None and (not isinstance(names, list) or len(names) != cfg.classes):
        raise r.error(f"metadata class_names {names!r} do not name {cfg.classes} classes")
    return r, cfg, metadata


def _read_entries(r: _binio.Reader, tagged: bool = False):
    """Yield (name, tag, scale, array) for each entry of a tensor table; a repeated name raises."""
    (count,) = r.unpack("<I", "tensor count")
    seen = set()
    for _ in range(count):
        name = r.text("<H", "tensor name")
        if name in seen:
            raise r.error(f"tensor {name} appears twice")
        seen.add(name)
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
    _binio.write_file(path, encode_checkpoint(params, opt_tensors, step, metadata))


def load_checkpoint(path) -> Checkpoint:
    """Read a TSCK file; any malformed content raises CheckpointError."""
    r, cfg, metadata = _read_prefix(Path(path).read_bytes(), _CKPT_MAGIC, _CKPT_VERSION)
    (step,) = r.unpack("<Q", "step")
    tensors = _read_table(r)
    with r.rejecting("tensors", ConfigError):
        params = ModelParams(cfg, tensors)
    (has_opt,) = r.unpack("<B", "optimizer flag")
    return Checkpoint(params, _read_table(r) if has_opt else None, step, metadata)
