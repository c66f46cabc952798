"""Training: loss, reverse-mode gradients, Adam with warmup, epoch loop.

Gradients are computed analytically from the ForwardTrace and verified
against finite differences in the test suite. The data pipeline slices,
augments, and featurizes on the fly each epoch, with one generator per
(seed, epoch, entry) so runs are bit-reproducible and resumable.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import audio_io, dsp, model as model_mod, tokenizer as tokenizer_mod
from .audio_io import AudioClip, DatasetManifest, ManifestEntry
from .augment import AugmentSpec, apply_pipeline
from .errors import ConfigError
from .model import (
    CONTINUOUS,
    TOKENS,
    Checkpoint,
    ForwardTrace,
    ModelConfig,
    ModelParams,
    forward,
    gelu_grad,
    init_model,
    learnable_names,
)

log = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood and its gradient w.r.t. the logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, n_classes = logits.shape
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"label outside [0, {n_classes})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -log_probs[np.arange(n), labels].mean()
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def _layer_norm_backward(dy: np.ndarray, cache: tuple, g: np.ndarray):
    xhat, inv_std = cache
    sum_axes = tuple(range(dy.ndim - 1))
    dg = (dy * xhat).sum(axis=sum_axes)
    db = dy.sum(axis=sum_axes)
    dxhat = dy * g
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dg, db


def _linear_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Backward of y = x @ w.T + b over any leading batch axes."""
    out_dim, in_dim = w.shape
    dy2 = dy.reshape(-1, out_dim)
    x2 = x.reshape(-1, in_dim)
    dw = dy2.T @ x2
    db = dy2.sum(axis=0)
    dx = (dy2 @ w).reshape(x.shape)
    return dx, dw, db


def backward(params: ModelParams, trace: ForwardTrace, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of every learnable tensor given dLoss/dLogits."""
    cfg = params.cfg
    w = {k: v.astype(np.float64) for k, v in params.tensors.items()}
    grads = {name: np.zeros(shape, dtype=np.float64)
             for name, shape in model_mod.param_shapes(cfg).items()
             if name not in ("bn_running_mean", "bn_running_var")}
    dlogits = np.asarray(dlogits, dtype=np.float64)

    d_cls_in, dw, db = _linear_backward(dlogits, trace.cls_in, w["cls_w"])
    grads["cls_w"] += dw
    grads["cls_b"] += db
    d_pooled = d_cls_in * trace.pool_drop if trace.pool_drop is not None else d_cls_in
    d_pre_tanh = d_pooled * (1.0 - trace.pooled**2)
    d_h0, dw, db = _linear_backward(d_pre_tanh, trace.h0, w["pooler_w"])
    grads["pooler_w"] += dw
    grads["pooler_b"] += db

    batch_size = trace.h0.shape[0]
    dx = np.zeros((batch_size, cfg.seq_len, cfg.hidden), dtype=np.float64)
    dx[:, 0, :] = d_h0

    heads, dh = cfg.heads, cfg.head_dim
    for layer in reversed(range(cfg.layers)):
        cache = trace.layers[layer]
        name = lambda suffix: params.layer_name(layer, suffix)

        d_r2, dg, db = _layer_norm_backward(dx, cache["ln2"], w[name("ffn_ln_g")])
        grads[name("ffn_ln_g")] += dg
        grads[name("ffn_ln_b")] += db
        d_ffn_out = d_r2 * cache["ffn_mask"] if cache["ffn_mask"] is not None else d_r2
        d_x1 = d_r2

        d_act, dw, db = _linear_backward(d_ffn_out, cache["ffn_act"], w[name("ffn_out_w")])
        grads[name("ffn_out_w")] += dw
        grads[name("ffn_out_b")] += db
        d_ffn_pre = d_act * gelu_grad(cache["ffn_pre"])
        d_x1_ffn, dw, db = _linear_backward(d_ffn_pre, cache["x1"], w[name("ffn_in_w")])
        grads[name("ffn_in_w")] += dw
        grads[name("ffn_in_b")] += db
        d_x1 = d_x1 + d_x1_ffn

        d_r1, dg, db = _layer_norm_backward(d_x1, cache["ln1"], w[name("attn_ln_g")])
        grads[name("attn_ln_g")] += dg
        grads[name("attn_ln_b")] += db
        d_attn_out = d_r1 * cache["attn_mask"] if cache["attn_mask"] is not None else d_r1
        d_x_in = d_r1

        attn = cache["attn"]
        d_context, dw, db = _linear_backward(d_attn_out, attn["context"], w[name("o_w")])
        grads[name("o_w")] += dw
        grads[name("o_b")] += db
        d_ctx = d_context.reshape(batch_size, cfg.seq_len, heads, dh).transpose(0, 2, 1, 3)

        d_probs = d_ctx @ attn["v"].swapaxes(-1, -2)
        d_v = attn["probs"].swapaxes(-1, -2) @ d_ctx
        probs = attn["probs"]
        d_scores = probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True))
        d_scores = d_scores / np.sqrt(dh)
        d_q = d_scores @ attn["k"]
        d_k = d_scores.swapaxes(-1, -2) @ attn["q"]

        def merge(y):
            return y.transpose(0, 2, 1, 3).reshape(batch_size, cfg.seq_len, cfg.hidden)

        x_in = cache["x_in"]
        for proj, dproj in (("q", d_q), ("k", d_k), ("v", d_v)):
            dxp, dw, db = _linear_backward(merge(dproj), x_in, w[name(proj + "_w")])
            grads[name(proj + "_w")] += dw
            grads[name(proj + "_b")] += db
            d_x_in = d_x_in + dxp
        dx = d_x_in

    if trace.emb_drop is not None:
        dx = dx * trace.emb_drop
    d_embedded, dg, db = _layer_norm_backward(dx, trace.emb_ln, w["emb_ln_g"])
    grads["emb_ln_g"] += dg
    grads["emb_ln_b"] += db
    grads["seg_emb"][0] += d_embedded.sum(axis=(0, 1))

    if cfg.input_mode == CONTINUOUS:
        d_bn_out, dw, db = _linear_backward(d_embedded, trace.bn_out, w["map_w"])
        grads["map_w"] += dw
        grads["map_b"] += db
        grads["bn_gamma"] += (d_bn_out * trace.bn_xhat).sum(axis=(0, 2))
        grads["bn_beta"] += d_bn_out.sum(axis=(0, 2))
    else:
        np.add.at(grads["tok_emb"], trace.batch.reshape(-1),
                  d_embedded.reshape(-1, cfg.hidden))
        if cfg.use_positional:
            grads["pos_emb"] += d_embedded.sum(axis=0)
    return grads


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

@dataclass
class OptState:
    """Adam first/second moments (float32 storage) and the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    def copy(self) -> "OptState":
        return OptState({k: t.copy() for k, t in self.m.items()},
                        {k: t.copy() for k, t in self.v.items()}, self.step)

    def to_tensors(self) -> dict[str, np.ndarray]:
        out = {f"m__{k}": t for k, t in self.m.items()}
        out.update({f"v__{k}": t for k, t in self.v.items()})
        return out

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray], step: int) -> "OptState":
        m = {k[3:]: t for k, t in tensors.items() if k.startswith("m__")}
        v = {k[3:]: t for k, t in tensors.items() if k.startswith("v__")}
        return cls(m, v, step)


def init_opt_state(params: ModelParams) -> OptState:
    zeros = lambda: {n: np.zeros(params.tensors[n].shape, dtype=np.float32)
                     for n in learnable_names(params.cfg)}
    return OptState(zeros(), zeros(), 0)


def lr_at(step: int, cfg: "TrainConfig") -> float:
    """Linear warmup from 0 to lr_peak over warmup_steps, then constant."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    if cfg.warmup_steps <= 0:
        return cfg.lr_peak
    return cfg.lr_peak * min(1.0, step / cfg.warmup_steps)


def adam_step(params: ModelParams, grads: dict[str, np.ndarray],
              opt: OptState, lr: float) -> tuple[ModelParams, OptState]:
    """One bias-corrected Adam update, in place; returns the same objects."""
    opt.step += 1
    t = opt.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for tname in learnable_names(params.cfg):
        g = np.asarray(grads[tname], dtype=np.float64)
        m = opt.m[tname].astype(np.float64)
        v = opt.v[tname].astype(np.float64)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        new_p = params.tensors[tname].astype(np.float64) - update
        params.tensors[tname][...] = new_p.astype(np.float32)
        opt.m[tname][...] = m.astype(np.float32)
        opt.v[tname][...] = v.astype(np.float32)
    return params, opt


# ---------------------------------------------------------------------------
# Feature pipeline
# ---------------------------------------------------------------------------

MEL = "mel"
MFCC = "mfcc"
AMPLITUDE = "amplitude"
CURVE = "curve"


@dataclass(frozen=True)
class PipelineConfig:
    """Waveform-to-model-input recipe shared by training and inference."""

    feature: str = MEL
    spectrogram: dsp.SpectrogramConfig = field(default_factory=dsp.SpectrogramConfig)
    n_coeffs: int | None = None
    downsample: int = 1
    normalize: bool = False  # 0-1 matrix normalization (skip when batch norm learns it)
    reshape_rows: int = 512
    reshape_cols: int = 512
    vocab: "tokenizer_mod.CurveVocab | None" = None

    def __post_init__(self):
        if self.feature not in (MEL, MFCC, AMPLITUDE, CURVE):
            raise ConfigError(f"unknown feature kind {self.feature!r}")
        if self.downsample < 1:
            raise ConfigError(f"downsample must be >= 1, got {self.downsample}")
        if self.feature == CURVE and self.vocab is None:
            raise ConfigError("curve pipeline needs a vocabulary")

    @property
    def input_mode(self) -> str:
        return TOKENS if self.feature == CURVE else CONTINUOUS

    def seq_len(self, window_samples: int) -> int:
        if self.feature in (MEL, MFCC):
            frames = dsp.frame_count(window_samples, self.spectrogram.hop_length)
            return -(-frames // self.downsample)  # ceil
        if self.feature == AMPLITUDE:
            return self.reshape_rows
        return 1 + window_samples // self.vocab.spec.curve_len

    @property
    def feature_dim(self) -> int:
        if self.feature == MEL:
            return self.spectrogram.n_mels
        if self.feature == MFCC:
            return self.n_coeffs if self.n_coeffs is not None else self.spectrogram.n_mels
        if self.feature == AMPLITUDE:
            return self.reshape_cols
        return self.vocab.vocab_size

    def extract(self, clip: AudioClip) -> np.ndarray:
        """Feature matrix (L x F) or token ids (L,) for one sliced window."""
        if self.feature == CURVE:
            return tokenizer_mod.tokenize(clip, self.vocab)
        return self.features(clip).data

    def features(self, clip: AudioClip) -> dsp.FeatureMatrix:
        """Feature matrix of one sliced window for mel, MFCC and amplitude."""
        if self.feature == MEL:
            feats = dsp.mel_spectrogram(clip, self.spectrogram)
        elif self.feature == MFCC:
            feats = dsp.mfcc(clip, self.spectrogram, self.n_coeffs)
        else:
            feats = dsp.reshape_amplitudes(clip, self.reshape_rows, self.reshape_cols)
        feats = dsp.downsample_columns(feats, self.downsample)
        if self.normalize:
            feats = dsp.normalize01(feats)
        return feats

    def model_config(self, window_samples: int, classes: int, hidden: int = 16,
                     layers: int = 1, heads: int = 2, share_layers: bool = False,
                     dropout_rate: float = 0.1) -> ModelConfig:
        return ModelConfig(
            input_mode=self.input_mode,
            input_dim=self.feature_dim,
            seq_len=self.seq_len(window_samples),
            hidden=hidden, layers=layers, heads=heads, classes=classes,
            share_layers=share_layers, dropout_rate=dropout_rate,
        )


@dataclass
class TrainConfig:
    lr_peak: float = 1e-4
    warmup_steps: int = 10_000
    batch_size: int = 64
    epochs: int = 100
    seed: int = 0
    window_samples: int = 220_500
    augments: list[AugmentSpec] = field(default_factory=list)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    val_fold: int | None = None
    val_fraction: float = 0.2

    def __post_init__(self):
        if self.warmup_steps < 0:
            raise ConfigError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.window_samples <= 0:
            raise ConfigError(f"window_samples must be positive, got {self.window_samples}")


# ---------------------------------------------------------------------------
# Data plumbing
# ---------------------------------------------------------------------------

class ClipStore:
    """Decodes, resamples to 44.1 kHz, and caches dataset audio."""

    def __init__(self, max_cached: int = 4096):
        self._cache: dict = {}
        self._max = max_cached

    def load(self, entry: ManifestEntry) -> AudioClip:
        key = str(entry.path)
        clip = self._cache.get(key)
        if clip is None:
            clip = audio_io.load_audio(entry.path)
            if len(self._cache) >= self._max:
                self._cache.pop(next(iter(self._cache)))
            self._cache[key] = clip
        return AudioClip(clip.samples, clip.sample_rate, entry.label, key)


def split_manifest(manifest: DatasetManifest, cfg: TrainConfig):
    """Hold out a fold when the manifest has folds, else stratified 80/20."""
    entries = list(manifest.entries)
    if cfg.val_fold is not None and any(e.fold != -1 for e in entries):
        val = [e for e in entries if e.fold == cfg.val_fold]
        train = [e for e in entries if e.fold != cfg.val_fold]
        if not val or not train:
            raise ValueError(f"fold {cfg.val_fold} split leaves an empty partition")
        return train, val
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xDA7A]))
    by_class: dict[int, list[ManifestEntry]] = {}
    for e in entries:
        by_class.setdefault(e.label, []).append(e)
    train, val = [], []
    for label in sorted(by_class):
        group = by_class[label]
        order = rng.permutation(len(group))
        n_val = max(1, int(round(cfg.val_fraction * len(group)))) if len(group) > 1 else 0
        for rank, idx in enumerate(order):
            (val if rank < n_val else train).append(group[idx])
    if not train:
        raise ValueError("training split is empty")
    train.sort(key=lambda e: str(e.path))
    val.sort(key=lambda e: str(e.path))
    return train, val


def _entry_rng(seed: int, epoch: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, epoch, index]))


def _prepare_example(entry: ManifestEntry, store: ClipStore, cfg: TrainConfig,
                     epoch: int, index: int) -> np.ndarray:
    rng = _entry_rng(cfg.seed, epoch, index)
    clip = store.load(entry)
    window = audio_io.random_slice(clip, cfg.window_samples, rng)
    if cfg.augments:
        samples = apply_pipeline(window.samples, cfg.augments, rng)
        window = window.with_samples(samples)
    return cfg.pipeline.extract(window)


@dataclass
class TrainResult:
    best: Checkpoint
    last: Checkpoint
    metrics: list[dict]


def _snapshot(params: ModelParams, opt: OptState, epoch: int, val_acc: float,
              class_names, cfg: TrainConfig) -> Checkpoint:
    meta = {
        "epoch": epoch,
        "val_acc": float(val_acc),
        "class_names": list(class_names),
        "seed": cfg.seed,
        "window_samples": cfg.window_samples,
    }
    params_copy = ModelParams(params.cfg, {k: v.copy() for k, v in params.tensors.items()})
    return Checkpoint(params_copy, opt.copy().to_tensors(), opt.step, meta)


def train_loop(manifest: DatasetManifest, model_cfg: ModelConfig, cfg: TrainConfig,
               resume_from: Checkpoint | None = None) -> TrainResult:
    """Train over random slices; returns best/last checkpoints and metrics.

    Each epoch visits every training entry once in a seeded shuffle,
    re-slicing and re-augmenting, so no two epochs see identical windows.
    Fixing the seed makes the whole loop bit-reproducible and resumable.
    """
    if not manifest.entries:
        raise ValueError("manifest is empty")
    train_entries, val_entries = split_manifest(manifest, cfg)
    assert not {str(e.path) for e in train_entries} & {str(e.path) for e in val_entries}
    store = ClipStore()

    if resume_from is not None:
        params = ModelParams(resume_from.params.cfg,
                             {k: v.copy() for k, v in resume_from.params.tensors.items()})
        opt = OptState.from_tensors(resume_from.opt_tensors or {}, resume_from.step)
        if not opt.m:
            opt = init_opt_state(params)
            opt.step = resume_from.step
        start_epoch = int(resume_from.metadata.get("epoch", -1)) + 1
    else:
        params = init_model(model_cfg, np.random.default_rng(
            np.random.SeedSequence([cfg.seed, 0x1417])))
        opt = init_opt_state(params)
        start_epoch = 0

    metrics: list[dict] = []
    best: Checkpoint | None = None
    last: Checkpoint | None = None
    class_names = manifest.class_names

    for epoch in range(start_epoch, cfg.epochs):
        order = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, epoch])).permutation(len(train_entries))
        losses = []
        for step_idx, lo in enumerate(range(0, len(order), cfg.batch_size)):
            chunk = order[lo : lo + cfg.batch_size]
            examples = [
                _prepare_example(train_entries[int(i)], store, cfg, epoch, int(i))
                for i in chunk
            ]
            batch = np.stack(examples)
            labels = np.array([train_entries[int(i)].label for i in chunk])
            drop_rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, epoch, step_idx, 1]))
            logits, trace = forward(params, batch, training=True, rng=drop_rng)
            loss, dlogits = cross_entropy(logits, labels)
            grads = backward(params, trace, dlogits)
            adam_step(params, grads, opt, lr_at(opt.step + 1, cfg))
            losses.append(loss)

        train_loss = float(np.mean(losses)) if losses else float("nan")
        val_acc = evaluate(params, val_entries, cfg, store=store) if val_entries else float("nan")
        metrics.append({"epoch": epoch, "train_loss": train_loss, "val_acc": val_acc})
        log.info("epoch %d: train_loss=%.4f val_acc=%.4f", epoch, train_loss, val_acc)

        last = _snapshot(params, opt, epoch, val_acc, class_names, cfg)
        if best is None or not (val_acc <= best.metadata["val_acc"]):
            best = last

    if last is None:  # zero epochs: snapshot the initial state
        last = _snapshot(params, opt, start_epoch - 1, float("nan"), class_names, cfg)
        best = last
    return TrainResult(best, last, metrics)


def evaluate(params: ModelParams, entries, cfg: TrainConfig,
             batch_size: int | None = None, store: ClipStore | None = None) -> float:
    """Top-1 accuracy over deterministic center slices, eval mode; pass a
    ``store`` to keep decoded clips between calls."""
    entries = list(entries)
    if not entries:
        raise ValueError("cannot evaluate on an empty split")
    store = store if store is not None else ClipStore()
    batch_size = batch_size or cfg.batch_size
    correct = 0
    for lo in range(0, len(entries), batch_size):
        chunk = entries[lo : lo + batch_size]
        examples = []
        for entry in chunk:
            window = audio_io.center_slice(store.load(entry), cfg.window_samples)
            examples.append(cfg.pipeline.extract(window))
        logits = forward(params, np.stack(examples), training=False)
        pred = logits.argmax(axis=1)
        correct += int((pred == np.array([e.label for e in chunk])).sum())
    return correct / len(entries)


def finetune(base: Checkpoint, manifest: DatasetManifest, cfg: TrainConfig,
             model_cfg: ModelConfig | None = None) -> TrainResult:
    """Continue training from a checkpoint on a new label set.

    The classifier is re-initialized at the new class count; every other
    tensor is loaded from the base and nothing is frozen. The base must
    match the requested architecture and the feature pipeline in every
    dimension except the classifier width.
    """
    n_classes = len(manifest.class_names)
    base_cfg = base.params.cfg
    if model_cfg is not None:
        for field_name in ("input_mode", "input_dim", "seq_len", "hidden",
                           "layers", "heads", "share_layers"):
            want = getattr(model_cfg, field_name)
            have = getattr(base_cfg, field_name)
            if want != have:
                raise ConfigError(
                    f"base checkpoint has {field_name}={have}, requested {want}"
                )
    pipe_dim = cfg.pipeline.feature_dim
    pipe_len = cfg.pipeline.seq_len(cfg.window_samples)
    if (cfg.pipeline.input_mode, pipe_dim, pipe_len) != (
            base_cfg.input_mode, base_cfg.input_dim, base_cfg.seq_len):
        raise ConfigError(
            f"pipeline produces {cfg.pipeline.input_mode} {pipe_len}x{pipe_dim} inputs; "
            f"base expects {base_cfg.input_mode} {base_cfg.seq_len}x{base_cfg.input_dim}"
        )
    new_cfg = replace(base_cfg, classes=n_classes)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xF17E]))
    fresh = init_model(new_cfg, rng)
    tensors = {}
    for tname, tensor in fresh.tensors.items():
        if tname.startswith("cls_"):
            tensors[tname] = tensor
        else:
            src = base.params.tensors[tname]
            if src.shape != tensor.shape:
                raise ConfigError(
                    f"incompatible base checkpoint: {tname} is {src.shape}, need {tensor.shape}"
                )
            tensors[tname] = src.copy()
    start = Checkpoint(ModelParams(new_cfg, tensors), None, 0,
                       {"epoch": -1, "val_acc": float("nan"),
                        "class_names": list(manifest.class_names), "seed": cfg.seed})
    return train_loop(manifest, new_cfg, cfg, resume_from=start)


def write_metrics_csv(path, metrics: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_acc"])
        for row in metrics:
            writer.writerow([row["epoch"], repr(row["train_loss"]), repr(row["val_acc"])])
