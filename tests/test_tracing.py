"""The benchmark's tracer still finds every call it wraps in the package.

``perfbench/spans.py`` replaces module attributes such as ``train.forward``
and ``train.backward`` with timing wrappers; a renamed or inlined call makes
its per-layer metric silently read 0. Installing the tracer on the package
must find every patch point, a traced training step must record the model
spans, and uninstalling must put every original back. An augmented run whose
batches a pool thread shares must still give the untraced checkpoint and one
span per augmentation that fired.
"""

import importlib.util
import os
import sys
from collections import Counter
from pathlib import Path

import tinysound
from tinysound import audio_io, augment, cli, dsp, train  # noqa: F401  (cli: a patch point owner)

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_records_and_restores_every_patch_point(small_dataset):
    spans = load_spans()
    places = [place for _, where, _ in spans.patch_points(tinysound) for place in where]
    originals = [spans._get(owner, attr) for owner, attr in places]
    manifest = audio_io.load_manifest(small_dataset, audio_io.FOLDER_PER_CLASS)
    tcfg = train.TrainConfig(lr_peak=1e-3, warmup_steps=0, batch_size=8, epochs=1,
                             window_samples=8192, pipeline=train.PipelineConfig(
                                 spectrogram=dsp.SpectrogramConfig(
                                     n_fft=512, hop_length=512, win_length=512, n_mels=32)))
    mcfg = tcfg.pipeline.model_config(tcfg.window_samples, classes=3, hidden=8, heads=2)

    tracer = spans.Tracer()
    tracer.install(tinysound)
    try:
        assert tracer.missing == []
        train.train_loop(manifest, mcfg, tcfg)
    finally:
        tracer.uninstall()

    recorded = {span.name for span in tracer.spans}
    assert {"train.train_loop", "model.forward", "train.cross_entropy", "train.backward",
            "train.adam_step", "train.evaluate", "dsp.mel_spectrogram"} <= recorded
    for (owner, attr), original in zip(places, originals):
        assert spans._get(owner, attr) is original, attr


def test_traced_augmented_run_with_a_pool_thread(small_dataset, monkeypatch):
    spans = load_spans()
    manifest = audio_io.load_manifest(small_dataset, audio_io.FOLDER_PER_CLASS)
    tcfg = train.TrainConfig(lr_peak=1e-3, warmup_steps=0, batch_size=8, epochs=1, seed=2,
                             window_samples=8192, augments=augment.default_pipeline(0.5),
                             pipeline=train.PipelineConfig(spectrogram=dsp.SpectrogramConfig(
                                 n_fft=512, hop_length=512, win_length=512, n_mels=32)))
    mcfg = tcfg.pipeline.model_config(tcfg.window_samples, classes=3, hidden=8, heads=2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    untraced = train.train_loop(manifest, mcfg, tcfg).last

    fired = []  # list.append is atomic, so pool threads may share it

    def counted(kind, fn):
        return lambda *args, **kwargs: fired.append(kind) or fn(*args, **kwargs)

    for kind, fn in list(augment.AUGMENTATIONS.items()):
        monkeypatch.setitem(augment.AUGMENTATIONS, kind, counted(kind, fn))
    tracer = spans.Tracer()
    tracer.install(tinysound)
    try:
        traced = train.train_loop(manifest, mcfg, tcfg).last
    finally:
        tracer.uninstall()

    for name, tensor in untraced.params.tensors.items():
        assert traced.params.tensors[name].tobytes() == tensor.tobytes(), name
    recorded = Counter(s.name[len("augment."):] for s in tracer.spans
                       if s.name[len("augment."):] in augment.AUGMENTATIONS)
    assert sum(recorded.values()) > 0
    assert recorded == Counter(fired)
