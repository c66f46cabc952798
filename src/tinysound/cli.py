"""Batch command-line front end.

One flat config file (``key = value``, ``#`` comments) is shared by every
subcommand; a key outside ``KNOWN_KEYS`` is an error, and flags override config
values. All randomness is controlled by ``--seed``, else the ``seed`` key.
Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import itertools
import logging
import sys
from pathlib import Path

import numpy as np

from . import audio_io, augment, deploy, dsp, model as model_mod, tokenizer, train
from .errors import ConfigError, TinySoundError

log = logging.getLogger(__name__)

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` UTF-8 file; ``#`` starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


class Config:
    """Typed access over the flat key-value map."""

    def __init__(self, values: dict[str, str]):
        self.values = values

    def get(self, key: str, default=None):
        """The value of ``key`` parsed as the type of ``default``; a str or
        ``None`` default returns the raw string."""
        raw = self.values.get(key)
        if raw is None:
            return default
        if default is None or isinstance(default, str):
            return raw
        if isinstance(default, bool):
            if raw.lower() not in _BOOL_TRUE | _BOOL_FALSE:
                raise ConfigError(f"config key {key} is not a boolean: {raw!r}")
            return raw.lower() in _BOOL_TRUE
        try:
            return type(default)(raw)
        except ValueError as exc:
            kind = "an integer" if isinstance(default, int) else "a number"
            raise ConfigError(f"config key {key} is not {kind}: {raw!r}") from exc


# Each config key that sets one dataclass field, as key: (owner, field). The
# field's default is the key's default and the type its value parses as.
_FIELD_KEYS = {
    **{key: (dsp.SpectrogramConfig, key)
       for key in ("n_fft", "hop_length", "win_length", "n_mels")},
    "log_mel": (dsp.SpectrogramConfig, "log_scale"),
    **{key: (train.PipelineConfig, key)
       for key in ("feature", "downsample", "reshape_rows", "reshape_cols")},
    "normalize01": (train.PipelineConfig, "normalize"),
    **{key: (train.TrainConfig, key) for key in (
        "lr_peak", "warmup_steps", "batch_size", "epochs", "window_samples", "val_fraction")},
    **{key: (model_mod.ModelConfig, key)
       for key in ("hidden", "layers", "heads", "share_layers")},
    "dropout": (model_mod.ModelConfig, "dropout_rate"),
    **{key: (tokenizer.CurveSpec, key) for key in ("curve_len", "resolution", "top_k")},
    "curve_mode": (tokenizer.CurveSpec, "mode"),
}


def _fields(cfg: Config, owner) -> dict:
    """The fields of ``owner`` that ``_FIELD_KEYS`` sets, as parsed from ``cfg``."""
    return {field: cfg.get(key, getattr(owner, field))
            for key, (key_owner, field) in _FIELD_KEYS.items() if key_owner is owner}


def pipeline_config(cfg: Config) -> train.PipelineConfig:
    fields = _fields(cfg, train.PipelineConfig)
    vocab = None
    if fields["feature"] == train.CURVE:
        vocab_path = cfg.get("vocab_path")
        if vocab_path is None:
            raise ConfigError("curve feature requires a vocab_path config key")
        try:
            vocab = tokenizer.load_vocab(vocab_path)
        except OSError as exc:
            raise ConfigError(f"config key vocab_path: {exc}") from exc
    return train.PipelineConfig(
        spectrogram=dsp.SpectrogramConfig(**_fields(cfg, dsp.SpectrogramConfig)),
        n_coeffs=cfg.get("n_coeffs", 0) or None, vocab=vocab, **fields)


def augment_specs(cfg: Config) -> list[augment.AugmentSpec]:
    """One boolean + probability config key per augmentation kind."""
    if not cfg.get("augment", False):
        return []
    default_p = cfg.get("augment_probability", augment.AugmentSpec.probability)
    return [augment.AugmentSpec(kind, cfg.get(f"aug_{kind}_p", default_p))
            for kind in augment.AUGMENTATIONS if cfg.get(f"aug_{kind}", True)]


def train_config(cfg: Config, seed: int) -> train.TrainConfig:
    val_fold = cfg.get("val_fold", -1)
    return train.TrainConfig(
        seed=seed, augments=augment_specs(cfg), pipeline=pipeline_config(cfg),
        val_fold=val_fold if val_fold >= 0 else None, **_fields(cfg, train.TrainConfig))


def model_config(cfg: Config, pipeline: train.PipelineConfig,
                 window_samples: int, classes: int) -> model_mod.ModelConfig:
    return pipeline.model_config(window_samples, classes, **_fields(cfg, model_mod.ModelConfig))


def load_dataset(cfg: Config) -> audio_io.DatasetManifest:
    root = cfg.get("data_root")
    if root is None:
        raise ConfigError("config key data_root is required for this command")
    return audio_io.load_manifest(root, cfg.get("layout", audio_io.CSV_MANIFEST))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_featurize(args, cfg: Config) -> int:
    tcfg = train_config(cfg, args.seed)
    pipeline = tcfg.pipeline
    clip = audio_io.load_audio(args.input)
    window = audio_io.center_slice(clip, tcfg.window_samples)
    if pipeline.feature == train.CURVE:
        raise ConfigError("featurize writes feature matrices; curve tokens have no TSFM form")
    feats = pipeline.extract(window)
    out = args.out or (Path(args.input).stem + ".tsfm")
    dsp.save_features(out, feats, pipeline.feature)
    print(f"wrote {feats.shape[0]}x{feats.shape[1]} {pipeline.feature} features to {out}")
    return 0


def cmd_build_vocab(args, cfg: Config) -> int:
    manifest = load_dataset(cfg)
    spec = tokenizer.CurveSpec(**_fields(cfg, tokenizer.CurveSpec))
    store = train.ClipStore()
    corpus = [store.load(e) for e in manifest.entries]
    vocab, stats = tokenizer.build_curve_vocab(corpus, spec)
    out = args.out or "vocab.tscv"
    tokenizer.save_vocab(out, vocab)
    print(
        f"vocab of {len(vocab)} curves ({spec.mode}) from {stats.distinct_curves} distinct; "
        f"vocab_coverage={stats.vocab_coverage:.4f} token_coverage={stats.token_coverage:.4f}"
    )
    print(f"wrote {out}")
    return 0


def cmd_augment_preview(args, cfg: Config) -> int:
    clip = audio_io.load_audio(args.input)
    specs = augment_specs(cfg) or augment.default_pipeline(1.0)
    rng = np.random.default_rng(args.seed)
    out_samples = augment.apply_pipeline(clip.samples, specs, rng)
    peak = np.max(np.abs(out_samples), initial=0.0)
    if peak > 1.0:  # keep the preview listenable after amplification
        out_samples = out_samples / peak
    out = args.out or (Path(args.input).stem + "_augmented.wav")
    audio_io.write_wav(out, clip.with_samples(out_samples))
    print(f"wrote {out}")
    return 0


def _run_training(args, cfg: Config, base: model_mod.Checkpoint | None) -> int:
    manifest = load_dataset(cfg)
    tcfg = train_config(cfg, args.seed)
    mcfg = model_config(cfg, tcfg.pipeline, tcfg.window_samples,
                        classes=len(manifest.class_names))
    if base is None:
        result = train.train_loop(manifest, mcfg, tcfg)
    else:
        result = train.finetune(base, manifest, tcfg, model_cfg=mcfg)
    out_dir = Path(args.out or "runs")
    out_dir.mkdir(parents=True, exist_ok=True)
    model_mod.save_checkpoint(out_dir / "best.tsck", result.best.params,
                              result.best.opt_tensors, result.best.step,
                              result.best.metadata)
    model_mod.save_checkpoint(out_dir / "last.tsck", result.last.params,
                              result.last.opt_tensors, result.last.step,
                              result.last.metadata)
    train.write_metrics_csv(out_dir / "metrics.csv", result.metrics)
    best_acc = result.best.metadata["val_acc"]
    print(f"best val_acc={best_acc:.4f}; checkpoints and metrics.csv in {out_dir}")
    return 0


def cmd_train(args, cfg: Config) -> int:
    return _run_training(args, cfg, None)


def cmd_finetune(args, cfg: Config) -> int:
    base = model_mod.load_checkpoint(args.base)
    return _run_training(args, cfg, base)


def cmd_eval(args, cfg: Config) -> int:
    manifest = load_dataset(cfg)
    ckpt = model_mod.load_checkpoint(args.ckpt)
    tcfg = train_config(cfg, args.seed)
    _, val_entries = train.split_manifest(manifest, tcfg)
    acc = train.evaluate(ckpt.params, val_entries, tcfg)
    print(f"accuracy {acc:.4f} over {len(val_entries)} held-out clips")
    return 0


def cmd_predict(args, cfg: Config) -> int:
    tcfg = train_config(cfg, args.seed)
    loaded = (deploy.load_quantized if args.quantized else model_mod.load_checkpoint)(args.ckpt)
    model_cfg = loaded.cfg if args.quantized else loaded.params.cfg
    tcfg.pipeline.check_model(model_cfg, tcfg.window_samples)
    clip = audio_io.load_audio(args.input)
    example = tcfg.pipeline.extract(audio_io.center_slice(clip, tcfg.window_samples))
    if args.quantized:
        logits = deploy.qforward(loaded, example[None, ...])[0]
    else:
        logits = model_mod.forward(loaded.params, example[None, ...], training=False)[0]
    metadata = loaded.metadata
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    names = metadata.get("class_names") or [str(i) for i in range(len(probs))]
    order = np.argsort(probs)[::-1]
    print(f"prediction: {names[order[0]]}")
    for i in order:
        print(f"  {names[i]}: {probs[i]:.4f}")
    return 0


def cmd_count(args, cfg: Config) -> int:
    tcfg = train_config(cfg, args.seed)
    mcfg = model_config(cfg, tcfg.pipeline, tcfg.window_samples,
                        cfg.get("classes", model_mod.ModelConfig.classes))
    params = model_mod.count_params(mcfg)
    print(f"parameters: {params:,}")
    print(f"mult-adds (per-position convention): {model_mod.count_mult_adds(mcfg, model_mod.PER_POSITION):,}")
    print(f"mult-adds (total forward pass): {model_mod.count_mult_adds(mcfg, model_mod.TOTAL):,}")
    print(f"mult-adds (executed, last layer at position 0): "
          f"{model_mod.count_mult_adds(mcfg, model_mod.EXECUTED):,}")
    return 0


def cmd_quantize(args, cfg: Config) -> int:
    ckpt = model_mod.load_checkpoint(args.ckpt)
    qparams = deploy.quantize_dynamic(ckpt.params, metadata=ckpt.metadata)
    out = args.out or (str(Path(args.ckpt).with_suffix("")) + ".tscq")
    deploy.save_quantized(out, qparams)
    f32_bytes = deploy.weight_payload_bytes(ckpt.params)
    q_bytes = deploy.weight_payload_bytes(qparams)
    print(f"wrote {out} (weight payload {q_bytes} bytes, {q_bytes / f32_bytes:.1%} of float32)")
    return 0


def cmd_bench(args, cfg: Config) -> int:
    tcfg = train_config(cfg, args.seed)
    if args.quantized:
        target = deploy.load_quantized(args.ckpt)
    else:
        target = model_mod.load_checkpoint(args.ckpt).params
    report = deploy.bench(target, tcfg.pipeline, tcfg.window_samples, n_runs=args.runs)
    print(report.to_json_line())
    return 0


_SWEEP_KEYS = ("n_mels", "hop_length", "layers", "heads", "window_samples", "augment")

# Every key a reader above uses; main rejects any other as a typo.
KNOWN_KEYS = frozenset((
    *_FIELD_KEYS, "data_root", "layout", "vocab_path", "n_coeffs", "augment",
    "augment_probability", "seed", "val_fold", "classes",
    *(f"aug_{kind}{suffix}" for kind in augment.AUGMENTATIONS for suffix in ("", "_p")),
    *(f"sweep_{key}" for key in _SWEEP_KEYS),
))


def cmd_sweep(args, cfg: Config) -> int:
    manifest = load_dataset(cfg)
    axes = []
    for key in _SWEEP_KEYS:
        values = [v.strip() for v in cfg.get(f"sweep_{key}", "").split(",") if v.strip()]
        if values:
            axes.append((key, values))
    if not axes:
        raise ConfigError("sweep needs at least one sweep_* config key with values")
    points = list(itertools.product(*(vals for _, vals in axes)))
    if args.budget is not None and args.budget < len(points):
        rng = np.random.default_rng(args.seed)
        chosen = rng.choice(len(points), size=args.budget, replace=False)
        points = [points[i] for i in sorted(chosen)]

    rows = []
    for point in points:
        overrides = dict(cfg.values)
        overrides.update({key: value for (key, _), value in zip(axes, point)})
        point_cfg = Config(overrides)
        tcfg = train_config(point_cfg, args.seed)
        mcfg = model_config(point_cfg, tcfg.pipeline, tcfg.window_samples,
                            classes=len(manifest.class_names))
        result = train.train_loop(manifest, mcfg, tcfg)
        best = max((m["val_acc"] for m in result.metrics), default=float("nan"))
        label = ";".join(f"{key}={value}" for (key, _), value in zip(axes, point))
        rows.append((label, best))
        print(f"{label}: best_val_acc={best:.4f}")

    out = args.out or "sweep.csv"
    with open(out, "w") as fh:
        fh.write("point,best_val_acc\n")
        for label, best in rows:
            fh.write(f"{label},{best}\n")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tinysound",
        description="Tiny-transformer environmental sound classification toolkit.",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name, handler, needs_input=False, needs_ckpt=False, needs_base=False):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        if needs_input:
            p.add_argument("input", help="input wav file")
        if needs_ckpt:
            p.add_argument("--ckpt", required=True, help="checkpoint path")
        if needs_base:
            p.add_argument("--base", required=True, help="base checkpoint to finetune")
        return p

    add("featurize", cmd_featurize, needs_input=True)
    add("build-vocab", cmd_build_vocab)
    add("augment-preview", cmd_augment_preview, needs_input=True)
    add("train", cmd_train)
    add("finetune", cmd_finetune, needs_base=True)
    add("eval", cmd_eval, needs_ckpt=True)
    p = add("predict", cmd_predict, needs_input=True, needs_ckpt=True)
    p.add_argument("--quantized", action="store_true")
    add("count", cmd_count)
    add("quantize", cmd_quantize, needs_ckpt=True)
    p = add("bench", cmd_bench, needs_ckpt=True)
    p.add_argument("--quantized", action="store_true",
                   help="time float64 inference on the dequantized int8 weights")
    p.add_argument("--runs", type=int, default=10)
    p = add("sweep", cmd_sweep)
    p.add_argument("--budget", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        config = Config(parse_config_file(args.config) if args.config else {})
        unknown = sorted(config.values.keys() - KNOWN_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        if args.seed is None:
            args.seed = config.get("seed", train.TrainConfig.seed)
        return args.handler(args, config)
    except (TinySoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
