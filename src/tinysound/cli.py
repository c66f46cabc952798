"""Batch command-line front end.

One flat config file (``key = value``; ``#`` at a line's start or after
whitespace starts a comment) is shared by every subcommand; a key outside
``KNOWN_KEYS`` is an error. Each command takes only the options it reads
(``_COMMANDS``); ``--seed``, on the five whose output it changes, is the only
spelling of the seed. Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import logging
import re
import sys
from pathlib import Path

import numpy as np

from . import _binio, audio_io, augment, deploy, dsp, model as model_mod, tokenizer, train
from .errors import CheckpointError, ConfigError, TinySoundError

log = logging.getLogger(__name__)

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` UTF-8 file, each key set once; ``#`` at the start of a
    line or after whitespace starts a comment, so ``a = x#2`` keeps its ``#``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    values: dict[str, str] = {}
    lines: dict[str, int] = {}  # the line that set each key
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not (key and eq):
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: config key {key} is already set on line "
                              f"{lines[key]}")
        values[key], lines[key] = value, lineno
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


@contextlib.contextmanager
def _naming_keys(key: str | None = None):
    """A ``ConfigError`` names ``key``, else the key of another name that sets its first word."""
    try:
        yield
    except ConfigError as exc:
        key = key or {f: k for k, (_, f) in _FIELD_KEYS.items()}.get(str(exc).split(" ", 1)[0])
        if key is None or str(exc).startswith(key + " "):
            raise
        raise ConfigError(f"config key {key}: {exc}") from exc


@_naming_keys()
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
        for key, (owner, field) in _FIELD_KEYS.items():  # the vocabulary fixes its spec
            if owner is tokenizer.CurveSpec and key in cfg.values:
                built = getattr(vocab.spec, field)
                if cfg.get(key, built) != built:
                    raise ConfigError(f"config key {key} is {cfg.values[key]}, but "
                                      f"{vocab_path} was built at {key} {built}")
    return train.PipelineConfig(
        spectrogram=dsp.SpectrogramConfig(**_fields(cfg, dsp.SpectrogramConfig)),
        n_coeffs=cfg.get("n_coeffs", 0) if "n_coeffs" in cfg.values else None,
        vocab=vocab, **fields)


def augment_specs(cfg: Config) -> list[augment.AugmentSpec]:
    """One spec per kind, at ``aug_<kind>_p`` else ``augment_probability``; 0 is off."""
    if not cfg.get("augment", False):
        return []
    default_p = cfg.get("augment_probability", augment.AugmentSpec.probability)
    specs = []
    for kind in augment.AUGMENTATIONS:
        key = f"aug_{kind}_p" if f"aug_{kind}_p" in cfg.values else "augment_probability"
        with _naming_keys(key):
            specs.append(augment.AugmentSpec(kind, cfg.get(key, default_p)))
    return specs


def train_config(cfg: Config, seed: int = train.TrainConfig.seed) -> train.TrainConfig:
    return train.TrainConfig(
        seed=seed, augments=augment_specs(cfg), pipeline=pipeline_config(cfg),
        val_fold=cfg.get("val_fold", 0) if "val_fold" in cfg.values else None,
        **_fields(cfg, train.TrainConfig))


@_naming_keys()
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

@_naming_keys()
def cmd_build_vocab(args, cfg: Config) -> int:
    manifest = load_dataset(cfg)
    spec = tokenizer.CurveSpec(**_fields(cfg, tokenizer.CurveSpec))
    corpus = (audio_io.load_audio(e.path) for e in manifest.entries)
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


def _run_training(args, cfg: Config) -> int:
    """``train``, or ``finetune`` from the checkpoint at ``--base``."""
    base = model_mod.load_checkpoint(args.base) if args.command == "finetune" else None
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
    for name, ckpt in (("best", result.best), ("last", result.last)):
        model_mod.save_checkpoint(out_dir / f"{name}.tsck", ckpt.params, ckpt.opt_tensors,
                                  ckpt.step, ckpt.metadata)
    train.write_metrics_csv(out_dir / "metrics.csv", result.metrics)
    best_acc = result.best.metadata["val_acc"]
    print(f"best val_acc={best_acc:.4f}; checkpoints and metrics.csv in {out_dir}")
    return 0


def cmd_eval(args, cfg: Config) -> int:
    """Accuracy on the split the run held out, as ``train.run_config`` reads it."""
    manifest = load_dataset(cfg)
    ckpt = model_mod.load_checkpoint(args.ckpt)
    tcfg = train.run_config(ckpt.metadata, train_config(cfg, args.seed), manifest.class_names)
    _, val_entries = train.split_manifest(manifest, tcfg)
    acc = train.evaluate(ckpt.params, val_entries, tcfg)
    print(f"accuracy {acc:.4f} over {len(val_entries)} held-out clips")
    return 0


def _load_model(args):
    """(weights, metadata) of the TSCQ at ``--ckpt`` with ``--quantized``, else of
    the TSCK; a file of the other format is an error naming it and the flag."""
    try:
        loaded = (deploy.load_quantized if args.quantized else model_mod.load_checkpoint)(args.ckpt)
    except CheckpointError as exc:
        if (found := getattr(exc, "found_format", None)) in ("checkpoint", "quantized checkpoint"):
            raise CheckpointError(f"{args.ckpt} is a {found} by its magic: "
                                  f"{'drop' if args.quantized else 'add'} --quantized") from exc
        raise
    return (loaded if args.quantized else loaded.params), loaded.metadata


def cmd_predict(args, cfg: Config) -> int:
    weights, metadata = _load_model(args)
    run = deploy.qforward if args.quantized else model_mod.forward  # eval mode
    tcfg = train.run_config(metadata, train_config(cfg))
    tcfg.pipeline.check_model(weights.cfg, tcfg.window_samples)
    clip = audio_io.load_audio(args.input)
    example = tcfg.pipeline.extract(audio_io.center_slice(clip, tcfg.window_samples))
    probs = model_mod.softmax(run(weights, example[None, ...])[0])
    names = metadata.get("class_names") or [str(i) for i in range(len(probs))]
    order = np.argsort(probs)[::-1]
    print(f"prediction: {names[order[0]]}")
    for i in order:
        print(f"  {names[i]}: {probs[i]:.4f}")
    return 0


def cmd_count(args, cfg: Config) -> int:
    tcfg = train_config(cfg)
    mcfg = model_config(cfg, tcfg.pipeline, tcfg.window_samples,
                        cfg.get("classes", model_mod.ModelConfig.classes))
    params = model_mod.count_params(mcfg)
    print(f"parameters: {params:,}")
    print(f"mult-adds (total forward pass): {model_mod.count_mult_adds(mcfg, model_mod.TOTAL):,}")
    print(f"mult-adds (executed, last layer one query with no keys or values): "
          f"{model_mod.count_mult_adds(mcfg, model_mod.EXECUTED):,}")
    return 0


def cmd_quantize(args, cfg: Config) -> int:
    out = args.out or (str(Path(args.ckpt).with_suffix("")) + ".tscq")
    if Path(out).resolve() == Path(args.ckpt).resolve():
        raise ConfigError(f"quantize --out {out} is --ckpt {args.ckpt}: refusing to overwrite it")
    ckpt = model_mod.load_checkpoint(args.ckpt)
    qparams = deploy.quantize_dynamic(ckpt.params, metadata=ckpt.metadata)
    deploy.save_quantized(out, qparams)
    print(f"wrote {out} ({Path(out).stat().st_size} bytes, int8 weight payload "
          f"{deploy.weight_payload_bytes(qparams)} bytes)")
    return 0


_SWEEP_KEYS = ("n_mels", "hop_length", "layers", "heads", "window_samples", "augment")

# Every key a reader above uses; main rejects any other as a typo.
KNOWN_KEYS = frozenset((
    *_FIELD_KEYS, "data_root", "layout", "vocab_path", "n_coeffs", "augment",
    "augment_probability", "val_fold", "classes",
    *(f"aug_{kind}_p" for kind in augment.AUGMENTATIONS),
    *(f"sweep_{key}" for key in _SWEEP_KEYS),
))


def cmd_sweep(args, cfg: Config) -> int:
    if args.budget is not None and args.budget < 1:
        raise ConfigError(f"sweep --budget must be at least 1, got {args.budget}")
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

    runs = []  # every point's configs, built before any point trains
    for point in points:
        values = dict(zip((key for key, _ in axes), point))
        label = ";".join(f"{key}={value}" for key, value in values.items())
        point_cfg = Config({**cfg.values, **values})
        try:
            tcfg = train_config(point_cfg, args.seed)
            mcfg = model_config(point_cfg, tcfg.pipeline, tcfg.window_samples,
                                classes=len(manifest.class_names))
        except ConfigError as exc:
            raise ConfigError(f"sweep point {label}: {exc}") from exc
        runs.append((label, mcfg, tcfg))
    rows = []
    for label, mcfg, tcfg in runs:
        result = train.train_loop(manifest, mcfg, tcfg)
        best = max(m["val_acc"] for m in result.metrics)
        rows.append((label, best))
        print(f"{label}: best_val_acc={best:.4f}")

    out = args.out or "sweep.csv"
    _binio.write_file(out, "".join(f"{label},{best}\n" for label, best in
                                   [("point", "best_val_acc"), *rows]).encode())
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# Each option as ``build_parser`` adds it, and the options each command reads.
_OPTIONS = {
    "input": dict(help="input wav file"),
    "--config": dict(help="flat key = value config file"),
    "--seed": dict(type=int, default=train.TrainConfig.seed),
    "--out": dict(),
    "--ckpt": dict(required=True, help="checkpoint path"),
    "--base": dict(required=True, help="base checkpoint to finetune"),
    "--quantized": dict(action="store_true", help="run a TSCQ file through deploy.qforward"),
    "--budget": dict(type=int),
}
_COMMANDS = {
    "build-vocab": (cmd_build_vocab, "--config --out"),
    "augment-preview": (cmd_augment_preview, "input --config --seed --out"),
    "train": (_run_training, "--config --seed --out"),
    "finetune": (_run_training, "--config --seed --base --out"),
    "eval": (cmd_eval, "--config --seed --ckpt"),
    "predict": (cmd_predict, "input --config --ckpt --quantized"),
    "count": (cmd_count, "--config"),
    "quantize": (cmd_quantize, "--ckpt --out"),
    "sweep": (cmd_sweep, "--config --seed --out --budget"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command table, built once per process; ``main`` reuses it."""
    parser = argparse.ArgumentParser(
        prog="tinysound",
        description="Tiny-transformer environmental sound classification toolkit.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (handler, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(handler=handler, config=None)  # quantize reads no config
        for option in options.split():
            p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run a command; first ``train.keep_heap`` fixes glibc's mmap/trim thresholds process-wide."""
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
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"seed must be non-negative, got {args.seed}")
        train.keep_heap()
        return args.handler(args, config)
    except (TinySoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
