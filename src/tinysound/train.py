"""Training: loss, Adam with warmup, the feature pipeline, the epoch loop.

Gradients come from ``model.backward``, the reverse walk over the ops a
training ``forward`` recorded; the loop looks ``forward`` and ``backward``
up in this module when it runs. The data pipeline slices, augments, and
featurizes on the fly each epoch, with one generator per (seed, epoch,
entry) so runs are bit-reproducible and resumable. A non-finite loss or
gradient raises ``DivergenceError`` before the optimizer step, and an
optimizer step whose results overflow float32 raises it before writing.
"""

from __future__ import annotations

import contextlib
import csv
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import audio_io, dsp, tokenizer as tokenizer_mod
from .audio_io import AudioClip, DatasetManifest, ManifestEntry
from .augment import AugmentSpec, apply_pipeline
from .dsp import AMPLITUDE, FEATURE_KINDS, MEL, MFCC
from .errors import ConfigError, DivergenceError
from .model import (
    CONTINUOUS,
    TOKENS,
    Checkpoint,
    ModelConfig,
    ModelParams,
    backward,
    forward,
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
# Optimizer
# ---------------------------------------------------------------------------

@dataclass
class OptState:
    """Adam first/second moments (float32 storage) and the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

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
    """One bias-corrected Adam update, in place; returns the same objects.

    Raises ``DivergenceError``, with nothing written, when a new weight or
    moment is not finite in float32.
    """
    t = opt.step + 1
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    new = {}
    with np.errstate(over="ignore"):  # overflow is reported below
        for tname in learnable_names(params.cfg):
            g = np.asarray(grads[tname], dtype=np.float64)
            m = opt.m[tname].astype(np.float64)
            v = opt.v[tname].astype(np.float64)
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
            update = lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            new_p = params.tensors[tname].astype(np.float64) - update
            new[tname] = [a.astype(np.float32) for a in (new_p, m, v)]
    bad = [n for n, arrays in new.items() if not all(np.isfinite(a).all() for a in arrays)]
    if bad:
        raise DivergenceError(f"Adam step {t} overflows float32 in {', '.join(bad[:3])}")
    opt.step = t
    for tname, (new_p, m, v) in new.items():
        params.tensors[tname][...] = new_p
        opt.m[tname][...] = m
        opt.v[tname][...] = v
    return params, opt


# ---------------------------------------------------------------------------
# Feature pipeline
# ---------------------------------------------------------------------------

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
        if self.feature not in (*FEATURE_KINDS, CURVE):
            raise ConfigError(f"unknown feature kind {self.feature!r}")
        if self.downsample < 1:
            raise ConfigError(f"downsample must be >= 1, got {self.downsample}")
        if self.feature == CURVE and self.vocab is None:
            raise ConfigError("curve pipeline needs a vocabulary")

    def extract(self, clip: AudioClip) -> np.ndarray:
        """Feature matrix (L x F) or token ids (L,) for one sliced window."""
        if self.feature == CURVE:
            return tokenizer_mod.tokenize(clip, self.vocab)
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

    def model_config(self, window_samples: int, classes: int, **arch) -> ModelConfig:
        """The config of a model that takes this pipeline's inputs of
        ``window_samples``; ``arch`` passes the other ``ModelConfig`` fields."""
        if self.feature == CURVE:
            return ModelConfig(input_mode=TOKENS, input_dim=self.vocab.vocab_size,
                               seq_len=1 + window_samples // self.vocab.spec.curve_len,
                               classes=classes, **arch)
        if self.feature == AMPLITUDE:
            rows, dim = self.reshape_rows, self.reshape_cols
        else:
            rows = dsp.frame_count(window_samples, self.spectrogram.hop_length)
            dim = self.spectrogram.n_mels if self.feature == MEL or self.n_coeffs is None \
                else self.n_coeffs
        return ModelConfig(input_mode=CONTINUOUS, input_dim=dim,
                           seq_len=-(-rows // self.downsample),  # ceil, as downsample_columns
                           classes=classes, **arch)

    def check_model(self, model_cfg: ModelConfig, window_samples: int) -> None:
        """Raise ``ConfigError`` unless ``model_cfg`` takes this pipeline's
        inputs of ``window_samples``."""
        shape = lambda c: f"{c.input_mode} {c.seq_len}x{c.input_dim}"
        produced = shape(self.model_config(window_samples, model_cfg.classes))
        if produced != shape(model_cfg):
            raise ConfigError(f"pipeline produces {produced} inputs; "
                              f"model expects {shape(model_cfg)}")


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
        if not 0.0 <= self.lr_peak < float("inf"):
            raise ConfigError(f"lr_peak must be finite and >= 0, got {self.lr_peak}")
        if self.warmup_steps < 0:
            raise ConfigError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.window_samples <= 0:
            raise ConfigError(f"window_samples must be positive, got {self.window_samples}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in (0, 1), got {self.val_fraction}")


# ---------------------------------------------------------------------------
# Data plumbing
# ---------------------------------------------------------------------------

class ClipStore:
    """Caches dataset clips by path, decoded at 44.1 kHz (a hit returns the cached
    clip itself), and the read-only features of windows that cannot change between
    epochs. One lock guards both caches; clips decode under it, features outside."""

    def __init__(self, max_cached: int = 4096):
        self._cache: dict = {}
        self._features: dict = {}
        self._max = max_cached
        self._lock = threading.Lock()

    def _put(self, cache: dict, key, value):
        if len(cache) >= self._max:
            cache.pop(next(iter(cache)))
        cache[key] = value
        return value

    def load(self, entry: ManifestEntry) -> AudioClip:
        key = str(entry.path)
        with self._lock:
            clip = self._cache.get(key)
            if clip is None:
                clip = self._put(self._cache, key, audio_io.load_audio(entry.path))
        return clip

    def features(self, clip: AudioClip, start: int, cfg: TrainConfig) -> np.ndarray:
        """``cfg.pipeline`` features of the window at ``start`` of a clip this
        store loaded; key (path, start, window_samples, pipeline)."""
        key = (clip.source_id, start, cfg.window_samples, cfg.pipeline)
        with self._lock:
            feats = self._features.get(key)
        if feats is None:
            feats = cfg.pipeline.extract(audio_io.slice_at(clip, cfg.window_samples, start))
            feats.setflags(write=False)
            with self._lock:
                self._put(self._features, key, feats)
        return feats


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


def _prepare_example(entry: ManifestEntry, store: ClipStore, cfg: TrainConfig,
                     epoch: int, index: int) -> np.ndarray:
    clip = store.load(entry)
    if not cfg.augments and len(clip) <= cfg.window_samples:
        return store.features(clip, 0, cfg)  # random_slice starts it at 0 whatever it draws
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, epoch, index]))
    window = audio_io.random_slice(clip, cfg.window_samples, rng)
    if cfg.augments:
        window = window.with_samples(apply_pipeline(window.samples, cfg.augments, rng))
    return cfg.pipeline.extract(window)


@contextlib.contextmanager
def _helper_pool():
    """``(pool, helpers)``: one pool thread per usable CPU besides the caller's."""
    helpers = len(os.sched_getaffinity(0)) - 1
    with ThreadPoolExecutor(helpers) if helpers else contextlib.nullcontext() as pool:
        yield pool, helpers


def _prepare_batch(build, chunk, pool) -> np.ndarray:
    """``build(item)`` for each item of ``chunk``, stacked: the one maker of
    training and evaluation examples. This thread and the helpers of a
    ``_helper_pool`` take positions from one iterator. After a failure no
    example starts; then the lowest position's is raised with its own type."""
    executor, helpers = pool
    examples, failures, positions = [None] * len(chunk), [], iter(enumerate(chunk))

    def work():
        for pos, item in positions:
            if failures:
                return
            try:
                examples[pos] = build(item)
            except BaseException as exc:  # raised below, after every thread stops
                failures.append((pos, exc))

    running = [executor.submit(work) for _ in range(min(helpers, len(chunk) - 1))]
    work()
    for future in running:
        future.result()
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return np.stack(examples)


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
    opt_copy = {k: t.copy() for k, t in opt.to_tensors().items()}
    return Checkpoint(params_copy, opt_copy, opt.step, meta)


def _config_diffs(have: ModelConfig, want: ModelConfig) -> list[str]:
    have, want = asdict(have), asdict(want)
    return [f"{k}={have[k]!r}, requested {want[k]!r}" for k in have if have[k] != want[k]]


def _check_resume(ckpt: Checkpoint, model_cfg: ModelConfig, cfg: TrainConfig) -> None:
    """A resumed run continues bit for bit only under the config it was saved
    with; metadata keys the checkpoint lacks are not checked."""
    diffs = _config_diffs(ckpt.params.cfg, model_cfg)
    diffs += [f"{k}={ckpt.metadata[k]!r}, requested {getattr(cfg, k)!r}"
              for k in ("seed", "window_samples")
              if k in ckpt.metadata and ckpt.metadata[k] != getattr(cfg, k)]
    if diffs:
        raise ConfigError("cannot resume: checkpoint has " + "; ".join(diffs))


def _check_finite(loss: float, grads: dict[str, np.ndarray], epoch: int, step: int) -> None:
    """Stop a diverging run before the optimizer writes NaN or Inf."""
    bad = [] if np.isfinite(loss) else [f"loss {loss}"]
    bad += [f"gradient of {n}" for n, g in grads.items() if not np.all(np.isfinite(g))]
    if bad:
        raise DivergenceError(f"training diverged at epoch {epoch}, step {step}: "
                              f"{', '.join(bad[:3])} not finite")


def train_loop(manifest: DatasetManifest, model_cfg: ModelConfig, cfg: TrainConfig,
               resume_from: Checkpoint | None = None) -> TrainResult:
    """Train over random slices; returns best/last checkpoints and metrics.

    Each epoch visits every training entry once in a seeded shuffle,
    re-slicing and re-augmenting; an unaugmented clip no longer than the
    window has one fixed window, featurized once per run. This thread and one
    pool thread per other usable CPU make each batch and each epoch's
    validation batch through ``_prepare_batch``, the same for any count.
    Fixing the seed makes the whole loop bit-reproducible and resumable. A
    model whose input shape is not the pipeline's raises ``ConfigError``
    before any example is prepared.
    """
    if not manifest.entries:
        raise ValueError("manifest is empty")
    cfg.pipeline.check_model(model_cfg, cfg.window_samples)
    train_entries, val_entries = split_manifest(manifest, cfg)
    assert not {str(e.path) for e in train_entries} & {str(e.path) for e in val_entries}
    store = ClipStore()

    if resume_from is None:
        resume_from = Checkpoint(init_model(model_cfg, np.random.default_rng(
            np.random.SeedSequence([cfg.seed, 0x1417]))), None, 0, {})
    _check_resume(resume_from, model_cfg, cfg)
    params = ModelParams(resume_from.params.cfg,
                         {k: v.copy() for k, v in resume_from.params.tensors.items()})
    opt = OptState.from_tensors(resume_from.opt_tensors or {}, resume_from.step)
    if not opt.m:
        opt = init_opt_state(params)
        opt.step = resume_from.step
    start_epoch = int(resume_from.metadata.get("epoch", -1)) + 1

    metrics: list[dict] = []
    best: Checkpoint | None = None
    last: Checkpoint | None = None

    with _helper_pool() as pool:
        for epoch in range(start_epoch, cfg.epochs):
            order = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, epoch])).permutation(len(train_entries))
            losses = []
            for step_idx, lo in enumerate(range(0, len(order), cfg.batch_size)):
                chunk = order[lo : lo + cfg.batch_size].tolist()
                batch = _prepare_batch(lambda i: _prepare_example(
                    train_entries[i], store, cfg, epoch, i), chunk, pool)
                labels = np.array([train_entries[i].label for i in chunk])
                drop_rng = np.random.default_rng(
                    np.random.SeedSequence([cfg.seed, epoch, step_idx, 1]))
                logits, backwards = forward(params, batch, training=True, rng=drop_rng)
                loss, dlogits = cross_entropy(logits, labels)
                grads = backward(params, backwards, dlogits)
                _check_finite(loss, grads, epoch, step_idx)
                try:
                    adam_step(params, grads, opt, lr_at(opt.step + 1, cfg))
                except DivergenceError as exc:
                    raise DivergenceError(
                        f"training diverged at epoch {epoch}, step {step_idx}: {exc}") from None
                losses.append(loss)

            train_loss = float(np.mean(losses)) if losses else float("nan")
            val_acc = evaluate(params, val_entries, cfg, store, pool) if val_entries else np.nan
            metrics.append({"epoch": epoch, "train_loss": train_loss, "val_acc": val_acc})
            log.info("epoch %d: train_loss=%.4f val_acc=%.4f", epoch, train_loss, val_acc)

            last = _snapshot(params, opt, epoch, val_acc, manifest.class_names, cfg)
            if best is None or not (val_acc <= best.metadata["val_acc"]):
                best = last

    if last is None:  # zero epochs: snapshot the initial state
        last = _snapshot(params, opt, start_epoch - 1, float("nan"), manifest.class_names, cfg)
        best = last
    return TrainResult(best, last, metrics)


def evaluate(params: ModelParams, entries, cfg: TrainConfig,
             store: ClipStore | None = None, pool=None) -> float:
    """Top-1 accuracy over center slices in eval mode, in ``_prepare_batch``
    batches of ``cfg.batch_size``. ``store`` keeps clips and features between
    calls; ``pool``, a ``_helper_pool`` pair, is opened here when not given. A
    model whose input shape is not the pipeline's raises ``ConfigError``."""
    entries = list(entries)
    if not entries:
        raise ValueError("cannot evaluate on an empty split")
    cfg.pipeline.check_model(params.cfg, cfg.window_samples)
    store = store if store is not None else ClipStore()

    def example(entry):
        clip = store.load(entry)
        return store.features(clip, audio_io.center_start(len(clip), cfg.window_samples), cfg)

    correct = 0
    with _helper_pool() if pool is None else contextlib.nullcontext(pool) as pool:
        for lo in range(0, len(entries), cfg.batch_size):
            chunk = entries[lo : lo + cfg.batch_size]
            logits = forward(params, _prepare_batch(example, chunk, pool), training=False)
            correct += int((logits.argmax(axis=1) == np.array([e.label for e in chunk])).sum())
    return correct / len(entries)


def finetune(base: Checkpoint, manifest: DatasetManifest, cfg: TrainConfig,
             model_cfg: ModelConfig | None = None) -> TrainResult:
    """Continue training from a checkpoint on a new label set.

    Trains ``model_cfg`` (default: the base's) at the new class count. The
    classifier is re-initialized; every other tensor is loaded from the base
    and nothing is frozen. The base must match the requested config in every
    field except the class count and the dropout rate.
    """
    want = replace(model_cfg or base.params.cfg, classes=len(manifest.class_names))
    diffs = _config_diffs(replace(base.params.cfg, classes=want.classes,
                                  dropout_rate=want.dropout_rate), want)
    if diffs:
        raise ConfigError("base checkpoint has " + "; ".join(diffs))
    fresh = init_model(want, np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xF17E])))
    tensors = {name: tensor if name.startswith("cls_") else base.params.tensors[name].copy()
               for name, tensor in fresh.tensors.items()}
    start = Checkpoint(ModelParams(want, tensors), None, 0, {"epoch": -1})
    return train_loop(manifest, want, cfg, resume_from=start)


def write_metrics_csv(path, metrics: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_acc"])
        for row in metrics:
            writer.writerow([row["epoch"], repr(row["train_loss"]), repr(row["val_acc"])])
