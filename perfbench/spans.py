"""In-memory spans around the calls into each tinysound module.

``Tracer.install`` replaces the module attributes that callers look up at
call time (``train.forward``, the values of ``augment.AUGMENTATIONS``,
``dsp.stft`` ...) with wrappers that record a span: name, start, end,
parent and the root span of the call tree. ``uninstall`` puts the
originals back. Nothing in the package itself changes, and the wrappers
neither read nor alter what they pass through, so traced results must be
bit-identical to untraced ones.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    root: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _forward_attrs(args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    b, cfg = len(batch), params.cfg
    training = args[2] if len(args) > 2 else kwargs.get("training", False)
    # float64 score/probability tensor of one layer: computed, not measured
    return {"batch": b, "training": bool(training),
            "attention_bytes": b * cfg.heads * cfg.seq_len ** 2 * 8}


def patch_points(ts) -> list[tuple[str, list[tuple[object, str]], object]]:
    """(span name, [(owner, attribute)], attrs function) for every wrapped call.

    An owner is a module, a class or a dict; each (owner, attribute) is a
    place where some caller looks the function up when it runs.
    """
    a, d, aug, tok, m, tr, dep, cli = (ts.audio_io, ts.dsp, ts.augment, ts.tokenizer,
                                       ts.model, ts.train, ts.deploy, ts.cli)
    points = [
        ("audio_io.read_wav", [(a, "read_wav")], None),
        ("audio_io.decode_wav", [(a, "decode_wav")], None),
        ("audio_io.resample", [(a, "resample")], lambda _a, _k, r: {"out_samples": len(r)}),
        ("audio_io.sinc_resample", [(a, "sinc_resample"), (aug, "sinc_resample")], None),
        ("dsp.stft", [(d, "stft")], None),
        ("dsp.istft", [(d, "istft")], None),
        ("dsp.mel_spectrogram", [(d, "mel_spectrogram")], None),
        ("augment.apply_pipeline", [(aug, "apply_pipeline"), (tr, "apply_pipeline")], None),
        ("tokenizer.build_curve_vocab", [(tok, "build_curve_vocab")], None),
        ("tokenizer.tokenize", [(tok, "tokenize")], None),
        ("model.forward", [(m, "forward"), (tr, "forward"), (dep, "forward")], _forward_attrs),
        ("model.load_checkpoint", [(m, "load_checkpoint")], None),
        ("train.train_loop", [(tr, "train_loop")], None),
        ("train.evaluate", [(tr, "evaluate")], None),
        ("train.cross_entropy", [(tr, "cross_entropy")], None),
        ("train.backward", [(tr, "backward")], None),
        ("train.adam_step", [(tr, "adam_step")], None),
        ("train.ClipStore.load", [(tr.ClipStore, "load")], None),
        ("deploy.load_quantized", [(dep, "load_quantized")], None),
        ("deploy.dequantize", [(dep.QuantizedParams, "dequantize")], None),
        ("deploy.qforward", [(dep, "qforward")], None),
        ("cli.main", [(cli, "main")], lambda args, _k, _r: {"command": args[0][0]}),
    ]
    points += [(f"augment.{kind}", [(aug.AUGMENTATIONS, kind)], None)
               for kind in aug.AUGMENTATIONS]
    return points


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr, None)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []  # patch points the package no longer has
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            span = Span(sid, name, parent.id if parent else None,
                        parent.root if parent else sid)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result
        return wrapper

    def install(self, ts) -> None:
        for name, places, attrs in patch_points(ts):
            for owner, attr in places:
                original = _get(owner, attr)
                if original is None:
                    self.missing.append(f"{name} at {attr}")
                    continue
                self._saved.append((owner, attr, original))
                _set(owner, attr, self.wrap(name, original, attrs))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            _set(owner, attr, original)
        self._saved.clear()

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header, "missing": self.missing}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one traced pass
# ---------------------------------------------------------------------------

AUGMENT_KINDS = ("amplitude_clip", "amplify", "echo", "lowpass", "pitch_shift",
                 "partial_erase", "speed_adjust", "add_noise", "hpss",
                 "bitwise_downsample", "samplerate_downsample")

#: name -> (unit, better) of every per-layer metric, in report order.
LAYER_METRICS = {
    "audio_io.decode_ms": ("ms", "lower"),
    "audio_io.resample_ms": ("ms", "lower"),
    "audio_io.resample_calls": ("count", "lower"),
    "audio_io.resample_out_samples": ("count", "lower"),
    "audio_io.sinc_resample_ms": ("ms", "lower"),
    "dsp.stft_ms": ("ms", "lower"),
    "dsp.istft_ms": ("ms", "lower"),
    "dsp.mel_spectrogram_ms": ("ms", "lower"),
    **{f"augment.{k}_ms": ("ms", "lower") for k in AUGMENT_KINDS},
    **{f"augment.{k}_count": ("count", "lower") for k in AUGMENT_KINDS},
    "augment.share": ("ratio", "lower"),
    "model.forward_ms.b1": ("ms", "lower"),
    "model.forward_ms.b16": ("ms", "lower"),
    "model.forward_ms.b64": ("ms", "lower"),
    "model.forward_calls": ("count", "lower"),
    "model.attention_bytes": ("bytes_computed", "lower"),
    "model.load_checkpoint_ms": ("ms", "lower"),
    "train.backward_ms": ("ms", "lower"),
    "train.adam_step_ms": ("ms", "lower"),
    "train.cross_entropy_ms": ("ms", "lower"),
    "train.data_share": ("ratio", "lower"),
    "train.clipstore_loads": ("count", "lower"),
    "train.clipstore_hit_ratio": ("ratio", "higher"),
    "train.evaluate_ms": ("ms", "lower"),
    "deploy.load_quantized_ms": ("ms", "lower"),
    "deploy.dequantize_ms": ("ms", "lower"),
    "deploy.qforward_ms": ("ms", "lower"),
    "deploy.tsck_bytes": ("count", "lower"),
    "deploy.tscq_bytes": ("count", "lower"),
    "tokenizer.build_curve_vocab_ms_per_clip": ("ms", "lower"),
    "tokenizer.distinct_curves": ("count", "lower"),
    "tokenizer.tokenize_ms": ("ms", "lower"),
    "tokenizer.unk_share": ("ratio", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "process.cpu_per_wall": ("ratio", "lower"),
    "process.tracing_overhead": ("ratio", "lower"),
    "process.error_rate": ("ratio", "lower"),
}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _data_share(spans, children) -> float:
    """Share of training-step time spent before ``forward``.

    A step runs from the end of the previous step (or of the epoch's
    evaluation, or the loop start) to the end of its ``adam_step``; its data
    part is everything up to the start of its training ``forward``.
    """
    data = total = 0.0
    for loop in (s for s in spans if s.name == "train.train_loop"):
        boundary, step_start = loop.start, None
        for child in children.get(loop.id, []):
            if child.name == "model.forward" and child.attrs.get("training"):
                data += child.start - boundary
                step_start = boundary
            elif child.name == "train.adam_step" and step_start is not None:
                total += child.end - step_start
                boundary, step_start = child.end, None
            elif child.name == "train.evaluate":
                boundary = child.end
    return data / total if total else 0.0


def layer_metrics(spans: list[Span], counts: dict) -> dict[str, float]:
    """Every LAYER_METRICS value except the process.* ones.

    ``counts`` carries what the workload measured outside the spans:
    tsck_bytes, tscq_bytes, vocab_clips, distinct_curves, unk_share.
    """
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    for kids in children.values():
        kids.sort(key=lambda s: s.start)

    def med(name, keep=lambda s: True):
        return _median(s.ms for s in by_name.get(name, []) if keep(s))

    forwards = by_name.get("model.forward", [])
    resamples = by_name.get("audio_io.resample", [])
    loads = by_name.get("train.ClipStore.load", [])
    misses = sum(any(c.name == "audio_io.read_wav" for c in children.get(s.id, []))
                 for s in loads)
    builds = by_name.get("tokenizer.build_curve_vocab", [])
    vocab_clips = counts.get("vocab_clips", 0)
    loop_s = sum(s.end - s.start for s in by_name.get("train.train_loop", []))
    augment_s = sum(s.end - s.start for s in by_name.get("augment.apply_pipeline", []))
    predicts = [s for s in by_name.get("cli.main", []) if s.attrs.get("command") == "predict"]

    out = {
        "audio_io.decode_ms": med("audio_io.decode_wav"),
        "audio_io.resample_ms": med("audio_io.resample"),
        "audio_io.resample_calls": len(resamples),
        "audio_io.resample_out_samples": sum(s.attrs.get("out_samples", 0) for s in resamples),
        "audio_io.sinc_resample_ms": med("audio_io.sinc_resample"),
        "dsp.stft_ms": med("dsp.stft"),
        "dsp.istft_ms": med("dsp.istft"),
        "dsp.mel_spectrogram_ms": med("dsp.mel_spectrogram"),
    }
    for kind in AUGMENT_KINDS:
        out[f"augment.{kind}_ms"] = med(f"augment.{kind}")
        out[f"augment.{kind}_count"] = len(by_name.get(f"augment.{kind}", []))
    out.update({
        "augment.share": augment_s / loop_s if loop_s else 0.0,
        "model.forward_ms.b1": med("model.forward", lambda s: s.attrs["batch"] == 1),
        "model.forward_ms.b16": med("model.forward", lambda s: s.attrs["batch"] == 16),
        "model.forward_ms.b64": med("model.forward", lambda s: s.attrs["batch"] == 64),
        "model.forward_calls": len(forwards),
        "model.attention_bytes": max((s.attrs["attention_bytes"] for s in forwards), default=0),
        "model.load_checkpoint_ms": med("model.load_checkpoint"),
        "train.backward_ms": med("train.backward"),
        "train.adam_step_ms": med("train.adam_step"),
        "train.cross_entropy_ms": med("train.cross_entropy"),
        "train.data_share": _data_share(spans, children),
        "train.clipstore_loads": len(loads),
        "train.clipstore_hit_ratio": (len(loads) - misses) / len(loads) if loads else 0.0,
        "train.evaluate_ms": med("train.evaluate"),
        "deploy.load_quantized_ms": med("deploy.load_quantized"),
        "deploy.dequantize_ms": med("deploy.dequantize"),
        "deploy.qforward_ms": med("deploy.qforward"),
        "deploy.tsck_bytes": counts.get("tsck_bytes", 0),
        "deploy.tscq_bytes": counts.get("tscq_bytes", 0),
        "tokenizer.build_curve_vocab_ms_per_clip":
            sum(s.ms for s in builds) / vocab_clips if vocab_clips else 0.0,
        "tokenizer.distinct_curves": counts.get("distinct_curves", 0),
        "tokenizer.tokenize_ms": med("tokenizer.tokenize"),
        "tokenizer.unk_share": counts.get("unk_share", 0.0),
        # request time that no wrapped call accounts for: argument and
        # config parsing, slicing, the softmax and printing
        "cli.self_ms": _median(s.ms - sum(c.ms for c in children.get(s.id, []))
                               for s in predicts),
    })
    return out
