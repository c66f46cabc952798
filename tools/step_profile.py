"""Time one training step op by op and print each op's median [q1, q3].

    PYTHONPATH=src python3 tools/step_profile.py --batch 16

The step is ``train.train_step``, the one ``train.train_loop`` takes, on a
list of ``model.Example``s as a ``train.ClipStore`` keeps them with their
batch-norm moments, fixed, drawn with mean -50 and std 30 like log-mel
features in dB. The model is the default ``ModelConfig`` (430 x 128 input,
hidden 16, one layer, two heads, six classes), timed over 30 steps at a
learning rate of 1e-4. A patched ``model._run`` times each top-level forward
op (the ops it calls counted in it) and its backward; patches of the five
``train`` names the step calls (``STAGES``) time those calls whole, so what
lies outside the ops shows as the difference. One untimed step runs first,
and ``train.keep_heap`` fixes glibc's malloc thresholds before any step, as
``train.train_loop`` does. Under the table, ``main`` prints the minor page
faults (``resource.getrusage``) of an untimed step after a warm one, both run
before the timed steps, whose freed arrays would hide what a fresh heap pays;
then two counts of one more untimed step, which do not drift from process to
process as times do: its tracemalloc peak and its Python and C calls as
``sys.setprofile`` sees them.
Standard library, numpy, the package and ``tools/bench_pairs.py`` only.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from bench_pairs import quartiles
from tinysound import model, train

#: the label of one call of each top-level forward op, from its arguments
OPS = {
    "_bn_mapping": lambda a: "bn_mapping",
    "_layer_norm": lambda a: f"layer_norm {a[1]}",
    "dropout": lambda a: "dropout",
    "_attention_sublayer": lambda a: f"attention {a[1]}q={a[5]}",
    "_ffn_sublayer": lambda a: f"ffn {a[1]}",
    "_pooler_classifier": lambda a: "pooler_classifier",
}

#: the ``train`` names ``train_step`` calls, each with its stage and label
STAGES = {"forward": ("forward", "total"), "cross_entropy": ("loss", "cross_entropy"),
          "backward": ("backward", "total"), "_check_finite": ("check", "_check_finite"),
          "adam_step": ("adam", "adam_step")}


class StepTimer:
    """Patches ``model._run`` and the ``STAGES`` of ``train`` to record each step's timings."""

    def __init__(self):
        self.times: dict[str, list[float]] = defaultdict(list)
        self.ops = 0  # top-level forward ops of this step so far
        self._saved = [(model, "_run", model._run),
                       *((train, name, getattr(train, name)) for name in STAGES)]

    def __enter__(self):
        model._run = self._run
        for name, (stage, label) in STAGES.items():
            setattr(train, name, self.timed(stage, label, getattr(train, name)))
        return self

    def __exit__(self, *exc):
        for owner, name, fn in self._saved:
            setattr(owner, name, fn)

    def timed(self, stage: str, label: str, fn):
        def timed_fn(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.times[f"{stage:<8} {label}"].append((time.perf_counter() - t0) * 1e3)
            return out
        return timed_fn

    def _run(self, backwards, op, *args):
        """``model._run`` with ``op`` and its backward timed under the op's label."""
        label = f"{self.ops:2d} {OPS[op.__name__](args)}"
        self.ops += 1
        y, back = self.timed("forward", label, op)(*args)
        if backwards is not None:
            backwards.append(self.timed("backward", label, back))
        return y


def setup(cfg: model.ModelConfig, batch_size: int) -> tuple:
    """``train.train_step``'s arguments before the step number: weights,
    moments, examples, labels and training config."""
    rng = np.random.default_rng(0)
    params = model.init_model(cfg, rng)
    examples = [model.Example(x) for x in
                -50.0 + 30.0 * rng.standard_normal((batch_size, cfg.seq_len, cfg.input_dim))]
    labels = rng.integers(0, cfg.classes, batch_size)
    return params, train.zero_moments(params), examples, labels, train.TrainConfig(warmup_steps=0)


def profile(cfg: model.ModelConfig, batch_size: int, repeats: int) -> dict:
    """Per-op milliseconds over ``repeats`` timed steps, by label in step order."""
    params, moments, examples, labels, train_cfg = setup(cfg, batch_size)
    timer, step = StepTimer(), 0
    with timer:
        for k in range(repeats + 1):
            if k == 1:
                timer.times.clear()  # the first step warms caches and is not reported
            timer.ops = 0
            step, _ = timer.timed("step", "total", train.train_step)(
                params, moments, step, examples, labels, train_cfg, 0, k)
    return dict(timer.times)  # in the order the step first recorded them


def report(cfg: model.ModelConfig, batch_size: int, repeats: int) -> None:
    """Profile ``repeats`` steps and print each op's median [q1, q3]."""
    times = profile(cfg, batch_size, repeats)
    print(f"B={batch_size}, L={cfg.seq_len}, F={cfg.input_dim}, H={cfg.hidden}, "
          f"layers={cfg.layers}: ms per call, median [q1, q3] of {repeats} steps")
    for label, values in times.items():
        q1, median, q3 = quartiles(values)
        print(f"{label:<40} {median:8.3f} [{q1:.3f}, {q3:.3f}]")


def step_faults(cfg: model.ModelConfig, batch_size: int) -> int:
    """The minor page faults of one step after a warm one."""
    params, moments, examples, labels, train_cfg = setup(cfg, batch_size)
    train.train_step(params, moments, 0, examples, labels, train_cfg, 0, 0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train.train_step(params, moments, 1, examples, labels, train_cfg, 0, 1)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def step_counts(cfg: model.ModelConfig, batch_size: int) -> tuple[int, int]:
    """The tracemalloc peak in bytes and the ``sys.setprofile`` calls of one step."""
    params, moments, examples, labels, train_cfg = setup(cfg, batch_size)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    tracemalloc.start()
    sys.setprofile(count)
    try:
        train.train_step(params, moments, 0, examples, labels, train_cfg, 0, 0)
    finally:
        sys.setprofile(None)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--batch", type=int, default=16)
    args = parser.parse_args(argv)
    train.keep_heap()
    faults = step_faults(model.ModelConfig(), args.batch)  # before other steps free arrays
    report(model.ModelConfig(), args.batch, 30)
    print(f"one untimed step after a warm one: {faults} minor page faults")
    peak, calls = step_counts(model.ModelConfig(), args.batch)
    print(f"one untimed step after them: tracemalloc peak {peak} bytes, {calls} profiled calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
