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
import ctypes
import functools
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import _binio, audio_io, dsp, tokenizer as tokenizer_mod
from .audio_io import AudioClip, DatasetManifest, ManifestEntry
from .augment import AugmentSpec, apply_pipeline
from .errors import CheckpointError, ConfigError, DivergenceError
from .model import (
    CONTINUOUS,
    TOKENS,
    Checkpoint,
    Example,
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

def zero_moments(params: ModelParams) -> dict[str, np.ndarray]:
    """Adam's moments at step 0: float32 zeros ``m__<name>``, then ``v__<name>``."""
    return {f"{kind}__{n}": np.zeros(params.tensors[n].shape, dtype=np.float32)
            for kind in ("m", "v") for n in learnable_names(params.cfg)}


def lr_at(step: int, cfg: "TrainConfig") -> float:
    """Linear warmup from 0 to lr_peak over warmup_steps, then constant."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    if cfg.warmup_steps <= 0:
        return cfg.lr_peak
    return cfg.lr_peak * min(1.0, step / cfg.warmup_steps)


def _flat(tensors) -> np.ndarray:
    """``tensors`` raveled into one float64 vector, in order."""
    return np.concatenate([np.ravel(t) for t in tensors], dtype=np.float64)


def adam_step(params: ModelParams, grads: dict[str, np.ndarray],
              moments: dict[str, np.ndarray], step: int, lr: float) -> int:
    """One bias-corrected Adam update, in place, over one flat vector; returns ``step + 1``.

    Raises ``DivergenceError``, with nothing written, when a new weight or
    moment is not finite in float32.
    """
    t, names = step + 1, learnable_names(params.cfg)
    weights = [params.tensors[n] for n in names]
    ms, vs = ([moments[f"{kind}__{n}"] for n in names] for kind in ("m", "v"))
    p, m, v, g = (_flat(ts) for ts in (weights, ms, vs, [grads[n] for n in names]))
    with np.errstate(over="ignore"):  # overflow is reported below
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / (1.0 - ADAM_BETA1**t)) / (np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS)
        new = np.concatenate([p, m, v]).astype(np.float32)
    targets = weights + ms + vs
    parts = np.split(new, np.cumsum([a.size for a in targets])[:-1])
    if not np.isfinite(new).all():  # one check; the names only on failure
        bad = list(dict.fromkeys(n for n, a in zip(names * 3, parts) if not np.isfinite(a).all()))
        raise DivergenceError(f"Adam step {t} overflows float32 in {', '.join(bad[:3])}")
    for target, part in zip(targets, parts):
        target[...] = part.reshape(target.shape)
    return t


# ---------------------------------------------------------------------------
# Feature pipeline
# ---------------------------------------------------------------------------

MEL, MFCC, AMPLITUDE, CURVE = "mel", "mfcc", "amplitude", "curve"
FEATURE_KINDS = (MEL, MFCC, AMPLITUDE, CURVE)  # the inputs PipelineConfig.extract makes


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
        if self.feature not in FEATURE_KINDS:
            raise ConfigError(f"unknown feature kind {self.feature!r}")
        if self.downsample < 1:
            raise ConfigError(f"downsample must be >= 1, got {self.downsample}")
        if self.feature == CURVE and self.vocab is None:
            raise ConfigError("curve pipeline needs a vocabulary")
        if self.n_coeffs is not None and self.feature != MFCC:
            raise ConfigError(f"n_coeffs is for feature mfcc, got feature {self.feature}")
        for name, unset in (("downsample", 1), ("normalize", False)):  # token ids take neither
            if self.feature == CURVE and getattr(self, name) != unset:
                raise ConfigError(f"{name} is not for feature curve, got {getattr(self, name)}")
        if self.feature == MFCC and not self.spectrogram.log_scale:
            raise ConfigError("log_scale must be true for feature mfcc (log mel energies)")
        if self.n_coeffs is not None and not 1 <= self.n_coeffs <= self.spectrogram.n_mels:
            raise ConfigError(f"n_coeffs must be in 1..n_mels = {self.spectrogram.n_mels}, "
                              f"got {self.n_coeffs}")
        for name in ("reshape_rows", "reshape_cols"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")

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

    def check_window(self, window_samples: int) -> None:
        """Raise ``ConfigError`` unless a window of ``window_samples`` holds one
        input: a spectrogram's hop, or an amplitude matrix's rows x cols samples."""
        hop = self.spectrogram.hop_length, "hop_length"
        cells = self.reshape_rows * self.reshape_cols, "reshape_rows x reshape_cols"
        need, keys = {MEL: hop, MFCC: hop, AMPLITUDE: cells}.get(self.feature, (1, "none"))
        if window_samples < need:  # the message names every config key read here
            raise ConfigError(f"window_samples must be >= {need} ({keys}) for feature "
                              f"{self.feature}, got {window_samples}")

    def model_config(self, window_samples: int, classes: int, **arch) -> ModelConfig:
        """The config of a model that takes this pipeline's inputs of
        ``window_samples``; ``arch`` passes the other ``ModelConfig`` fields."""
        self.check_window(window_samples)
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


@dataclass(frozen=True)
class TrainConfig:
    lr_peak: float = 1e-4
    warmup_steps: int = 10_000
    batch_size: int = 64
    epochs: int = 100
    seed: int = 0
    window_samples: int = 220_500
    augments: tuple[AugmentSpec, ...] = ()
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
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        for name, low, word in (("seed", 0, "non-negative"), ("window_samples", 1, "positive"),
                                ("val_fold", 0, "non-negative")):
            value = getattr(self, name)
            if value is None and name == "val_fold":  # no fold held out
                continue
            if not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ConfigError(f"{name} must be {word}, got {value}")
        self.pipeline.check_window(self.window_samples)
        if not (isinstance(self.val_fraction, (int, float)) and 0.0 < self.val_fraction < 1.0):
            raise ConfigError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        # a spec at p = 0 never fires: without it, an all-zero run reuses cached features
        object.__setattr__(self, "augments", tuple(s for s in self.augments if s.probability))


# ---------------------------------------------------------------------------
# Data plumbing
# ---------------------------------------------------------------------------

MAX_CACHED = 4096  # fixed-window feature matrices a ClipStore keeps, oldest out first


def _model_input(pipeline: PipelineConfig, window: AudioClip) -> np.ndarray:
    """``pipeline.extract(window)``: token ids, or features as a ``model.Example``."""
    feats = pipeline.extract(window)
    return feats if pipeline.feature == CURVE else Example(feats)


class ClipStore:
    """One run's read-only ``_model_input``s of dataset clips' fixed windows, by
    clip path, for ``cfg``; it keeps no decoded clip. One lock guards the table."""

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self._features: dict = {}
        self._lock = threading.Lock()

    def load(self, entry: ManifestEntry) -> AudioClip:
        """``entry``'s clip, decoded at 44.1 kHz: every decode of a dataset clip."""
        return audio_io.load_audio(entry.path)

    def features(self, entry: ManifestEntry, clip: AudioClip | None = None) -> np.ndarray:
        """``cfg.pipeline`` features of the center window of ``clip``, ``entry``'s
        decoded clip; on a miss without ``clip`` it is decoded through ``load``."""
        feats = self.cached(entry)
        if feats is None:
            clip = self.load(entry) if clip is None else clip
            feats = _model_input(self.cfg.pipeline,
                                 audio_io.center_slice(clip, self.cfg.window_samples))
            feats.setflags(write=False)
            with self._lock:  # another thread may have stored this path since the miss
                if entry.path not in self._features and len(self._features) >= MAX_CACHED:
                    self._features.pop(next(iter(self._features)))
                feats = self._features.setdefault(entry.path, feats)
        return feats

    def cached(self, entry: ManifestEntry) -> np.ndarray | None:
        """``features(entry)`` if it is cached, else None."""
        return self._features.get(entry.path)


def split_manifest(manifest: DatasetManifest, cfg: TrainConfig):
    """Hold out fold ``val_fold`` when the manifest has folds, else a stratified
    ``val_fraction`` of each class (with a warning when ``val_fold`` is set)."""
    entries = list(manifest.entries)
    if cfg.val_fold is not None:
        if any(e.fold != -1 for e in entries):
            val = [e for e in entries if e.fold == cfg.val_fold]
            train = [e for e in entries if e.fold != cfg.val_fold]
            if not val or not train:
                raise ValueError(f"val_fold {cfg.val_fold} split leaves an empty partition")
            return train, val
        log.warning("val_fold %d ignored: the manifest has no folds, so a stratified "
                    "val_fraction %g of each class is held out", cfg.val_fold, cfg.val_fraction)
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
        raise ValueError(f"training split is empty at val_fraction {cfg.val_fraction}")
    train.sort(key=lambda e: str(e.path))
    val.sort(key=lambda e: str(e.path))
    return train, val


def _prepare_example(entry: ManifestEntry, store: ClipStore, cfg: TrainConfig,
                     epoch: int, index: int) -> np.ndarray:
    clip = store.load(entry)
    if not cfg.augments and len(clip) <= cfg.window_samples:
        return store.features(entry, clip)  # random_slice starts it at 0 too
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, epoch, index]))
    window = audio_io.random_slice(clip, cfg.window_samples, rng)
    if cfg.augments:
        window = window.with_samples(apply_pipeline(window.samples, cfg.augments, rng))
    return _model_input(cfg.pipeline, window)


@functools.cache
def keep_heap() -> None:
    """Once per process, fix glibc's mmap (32 MB) and trim (128 MB) thresholds, process-wide."""
    with contextlib.suppress(AttributeError, OSError, TypeError):  # no glibc ``mallopt``
        mallopt = ctypes.CDLL(None).mallopt  # takes and returns C ints, ctypes' defaults
        if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD, at its 64-bit cap in mallopt(3)
            mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD; alone, it would freeze the mmap one


@contextlib.contextmanager
def _helper_pool():
    """``(pool, helpers)``: one pool thread per usable CPU besides the caller's."""
    helpers = len(getattr(os, "sched_getaffinity", lambda _: range(os.cpu_count() or 1))(0)) - 1
    with ThreadPoolExecutor(helpers) if helpers else contextlib.nullcontext() as pool:
        yield pool, helpers


def _prepare_batch(build, chunk, pool, cached) -> list:
    """``cached(item)``, else ``build(item)``, for each item of ``chunk``, in a list,
    not stacked: the one maker of training and evaluation examples. This thread and
    the helpers of a ``_helper_pool`` take the items to build from one iterator, so an
    all-cached batch meets no helper. After a failure no example starts; then the
    lowest position's is raised with its own type."""
    executor, helpers = pool
    examples, failures = [cached(item) for item in chunk], []
    todo = [(pos, item) for pos, item in enumerate(chunk) if examples[pos] is None]
    positions = iter(todo)

    def work():
        for pos, item in positions:
            if failures:
                return
            try:
                examples[pos] = build(item)
            except BaseException as exc:  # raised below, after every thread stops
                failures.append((pos, exc))

    running = [executor.submit(work) for _ in range(min(helpers, len(todo) - 1))]
    work()
    for future in running:
        future.result()
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return examples


@dataclass
class TrainResult:
    best: Checkpoint
    last: Checkpoint
    metrics: list[dict]


RUN_FIELDS = ("seed", "window_samples", "val_fold", "val_fraction")  # a checkpoint's run record


def _snapshot(params: ModelParams, moments: dict[str, np.ndarray], step: int, epoch: int,
              val_acc: float, class_names, cfg: TrainConfig) -> Checkpoint:
    meta = {"epoch": epoch, "val_acc": float(val_acc), "class_names": list(class_names),
            **{k: getattr(cfg, k) for k in RUN_FIELDS}}
    params_copy = ModelParams(params.cfg, {k: v.copy() for k, v in params.tensors.items()})
    return Checkpoint(params_copy, {k: t.copy() for k, t in moments.items()}, step, meta)


def run_config(metadata: dict, cfg: TrainConfig, class_names=None) -> TrainConfig:
    """``cfg`` with the ``RUN_FIELDS`` that a checkpoint's ``metadata`` records, the
    rest kept. Recorded class names unlike ``class_names`` raise ``ConfigError``; a
    recorded value that ``TrainConfig`` rejects raises ``CheckpointError``."""
    names = metadata.get("class_names")
    if class_names is not None and names is not None and list(names) != list(class_names):
        raise ConfigError(f"checkpoint has class_names={names}, dataset has {list(class_names)}")
    try:
        return replace(cfg, **{k: metadata[k] for k in RUN_FIELDS if k in metadata})
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint metadata: {exc}") from None


def _config_diffs(have, want, names=None) -> list[str]:
    names = names or [f.name for f in fields(have)]
    return [f"{k}={getattr(have, k)!r}, requested {getattr(want, k)!r}"
            for k in names if getattr(have, k) != getattr(want, k)]


def _check_resume(ckpt: Checkpoint, model_cfg: ModelConfig, cfg: TrainConfig, class_names) -> int:
    """The first epoch to train from ``ckpt``: ``ConfigError`` unless below ``cfg.epochs``.
    A resumed run continues bit for bit only under the model config, the ``RUN_FIELDS``
    and the class names it was saved with. A recorded ``epoch`` other than an integer >= -1,
    or a moment table unlike ``zero_moments``' in names or shapes, is a ``CheckpointError``."""
    diffs = _config_diffs(ckpt.params.cfg, model_cfg)
    diffs += _config_diffs(run_config(ckpt.metadata, cfg, class_names), cfg, RUN_FIELDS)
    if diffs:
        raise ConfigError("cannot resume: checkpoint has " + "; ".join(diffs))
    epoch = ckpt.metadata.get("epoch", -1)
    if not isinstance(epoch, (int, np.integer)) or epoch < -1:
        raise CheckpointError(f"cannot resume: checkpoint epoch {epoch!r} is not an integer >= -1")
    if epoch + 1 >= cfg.epochs:
        raise ConfigError(f"cannot resume: checkpoint has trained {epoch + 1} epochs, "
                          f"so epochs={cfg.epochs} leaves none to train")
    have = {k: t.shape for k, t in (ckpt.opt_tensors or {}).items()}
    want = {k: t.shape for k, t in zero_moments(ckpt.params).items()} if have else {}
    for k in {**want, **have}:
        if have.get(k) != want.get(k):
            raise CheckpointError(f"cannot resume: optimizer moment {k}: checkpoint has "
                                  f"{have.get(k, 'no entry')}, model needs {want.get(k, 'none')}")
    return epoch + 1


def _check_finite(loss: float, grads: dict[str, np.ndarray]) -> None:
    """Stop a diverging run before the optimizer writes NaN or Inf."""
    bad = [] if np.isfinite(loss) else [f"loss {loss}"]
    if not np.isfinite(_flat(grads.values())).all():  # one check; the names only on failure
        bad += [f"gradient of {n}" for n, g in grads.items() if not np.all(np.isfinite(g))]
    if bad:
        raise DivergenceError(f"{', '.join(bad[:3])} not finite")


def train_step(params: ModelParams, moments: dict[str, np.ndarray], step: int, batch,
               labels: np.ndarray, cfg: TrainConfig, epoch: int, index: int):
    """Step ``index`` of ``epoch`` on ``batch``, dropout seeded by both: ``(step + 1, loss)``."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, epoch, index, 1]))
    logits, backwards = forward(params, batch, training=True, rng=rng)
    loss, dlogits = cross_entropy(logits, labels)
    grads = backward(params, backwards, dlogits)
    try:
        _check_finite(loss, grads)
        return adam_step(params, grads, moments, step, lr_at(step + 1, cfg)), loss
    except DivergenceError as exc:
        raise DivergenceError(f"training diverged at epoch {epoch}, step {index}: {exc}") from None


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
    before any example is prepared. It first calls ``keep_heap``, which fixes
    glibc's mmap (32 MB) and trim (128 MB) thresholds for the whole process.
    """
    keep_heap()
    if not manifest.entries:
        raise ValueError("manifest is empty")
    cfg.pipeline.check_model(model_cfg, cfg.window_samples)
    train_entries, val_entries = split_manifest(manifest, cfg)
    store = ClipStore(cfg)

    if resume_from is None:
        resume_from = Checkpoint(init_model(model_cfg, np.random.default_rng(
            np.random.SeedSequence([cfg.seed, 0x1417]))), None, 0, {})
    start_epoch = _check_resume(resume_from, model_cfg, cfg, manifest.class_names)
    params = ModelParams(resume_from.params.cfg,
                         {k: v.copy() for k, v in resume_from.params.tensors.items()})
    zeros = zero_moments(params)
    moments = {k: (resume_from.opt_tensors or zeros)[k].astype(np.float32) for k in zeros}
    step = resume_from.step

    metrics: list[dict] = []
    best: Checkpoint | None = None

    with _helper_pool() as pool:
        for epoch in range(start_epoch, cfg.epochs):
            order = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, epoch])).permutation(len(train_entries))
            losses = []
            for index, lo in enumerate(range(0, len(order), cfg.batch_size)):
                chunk = order[lo : lo + cfg.batch_size].tolist()
                batch = _prepare_batch(lambda i: _prepare_example(
                    train_entries[i], store, cfg, epoch, i), chunk, pool,
                    lambda i: store.cached(train_entries[i]))  # fixed windows only
                labels = np.array([train_entries[i].label for i in chunk])
                step, loss = train_step(params, moments, step, batch, labels, cfg, epoch, index)
                losses.append(loss)

            train_loss = float(np.mean(losses))
            val_acc = evaluate(params, val_entries, cfg, store, pool) if val_entries else np.nan
            metrics.append({"epoch": epoch, "train_loss": train_loss, "val_acc": val_acc})
            log.info("epoch %d: train_loss=%.4f val_acc=%.4f", epoch, train_loss, val_acc)

            last = _snapshot(params, moments, step, epoch, val_acc, manifest.class_names, cfg)
            if best is None or not (val_acc <= best.metadata["val_acc"]):
                best = last
    return TrainResult(best, last, metrics)


def evaluate(params: ModelParams, entries, cfg: TrainConfig,
             store: ClipStore | None = None, pool=None) -> float:
    """Top-1 accuracy over center slices in eval mode, in ``_prepare_batch``
    batches of ``cfg.batch_size``. ``store`` keeps features, not clips, between
    calls and serves ``cfg``; ``pool``, a ``_helper_pool`` pair, is opened here when
    not given. A model whose input shape is not the pipeline's raises ``ConfigError``."""
    entries = list(entries)
    if not entries:
        raise ValueError("cannot evaluate on an empty split")
    cfg.pipeline.check_model(params.cfg, cfg.window_samples)
    store = store if store is not None else ClipStore(cfg)
    correct = 0
    with _helper_pool() if pool is None else contextlib.nullcontext(pool) as pool:
        for lo in range(0, len(entries), cfg.batch_size):
            chunk = entries[lo : lo + cfg.batch_size]
            batch = _prepare_batch(store.features, chunk, pool, store.cached)
            logits = forward(params, batch, training=False)
            correct += int((logits.argmax(axis=1) == np.array([e.label for e in chunk])).sum())
    return correct / len(entries)


def finetune(base: Checkpoint, manifest: DatasetManifest, cfg: TrainConfig,
             model_cfg: ModelConfig) -> TrainResult:
    """Continue training from a checkpoint on a new label set.

    Trains ``model_cfg`` at the new class count. The classifier is
    re-initialized; every other tensor is loaded from the base and nothing is
    frozen. The base must match ``model_cfg`` in every field except the class
    count and the dropout rate.
    """
    want = replace(model_cfg, classes=len(manifest.class_names))
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
    rows = [("epoch", "train_loss", "val_acc")]
    rows += [(m["epoch"], repr(m["train_loss"]), repr(m["val_acc"])) for m in metrics]
    _binio.write_file(path, "".join(f"{epoch},{loss},{acc}\r\n"
                                    for epoch, loss, acc in rows).encode())
