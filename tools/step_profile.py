"""Time one training step op by op and print each op's median [q1, q3].

    PYTHONPATH=src python3 tools/step_profile.py --batch 16

The step is the one ``train.train_loop`` takes: a training forward
(dropout on, batch statistics) on a list of ``model.Example``s, as a
``train.ClipStore`` keeps them with their batch-norm moments,
``cross_entropy``, ``backward``, ``_check_finite`` and ``adam_step``. The
examples are fixed, drawn with mean -50 and std 30 like log-mel features in
dB. The model is the default ``ModelConfig`` (430 x 128 input, hidden 16,
one layer, two heads, six classes), timed over 30 steps. Each forward
op is timed as ``forward`` calls it, ops nested in another op counted in
their caller, and each backward as ``backward`` walks it in reverse;
``forward`` and ``backward`` are also timed whole, so what lies outside the
ops shows as the difference. One untimed step runs first. Standard library,
numpy, the package and ``tools/bench_pairs.py`` only.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import defaultdict

import numpy as np

from bench_pairs import quartiles
from tinysound import model, train

#: the forward ops of a continuous-input ``model``, each with the label of one
#: call from its arguments
OPS = {
    "_bn_mapping": lambda a: "bn_mapping",
    "_layer_norm": lambda a: f"layer_norm {a[1]}",
    "_dropout": lambda a: "dropout",
    "_attention_sublayer": lambda a: f"attention {a[1]}q={a[5]}",
    "_ffn_sublayer": lambda a: f"ffn {a[1]}",
    "_pooler_classifier": lambda a: "pooler_classifier",
}


class StepTimer:
    """Wraps the forward ops of ``model`` and records one step's timings."""

    def __init__(self):
        self.times: dict[str, list[float]] = defaultdict(list)
        self.ops: list[str] = []  # labels of this step's top-level forward ops
        self._depth = 0
        self._saved = {name: getattr(model, name) for name in OPS}

    def __enter__(self):
        for name, label in OPS.items():
            setattr(model, name, self._wrap(self._saved[name], label))
        return self

    def __exit__(self, *exc):
        for name, fn in self._saved.items():
            setattr(model, name, fn)

    def _wrap(self, fn, label):
        def op(*args):
            if self._depth:  # inside another op: counted there
                return fn(*args)
            self._depth += 1
            t0 = time.perf_counter()
            try:
                y, back = fn(*args)
            finally:
                self._depth -= 1
            self._record("forward", f"{len(self.ops):2d} {label(args)}", t0)
            self.ops.append(label(args))
            return y, back
        return op

    def _record(self, stage: str, label: str, t0: float) -> None:
        self.times[f"{stage:<8} {label}"].append((time.perf_counter() - t0) * 1e3)

    def timed(self, stage, label, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self._record(stage, label, t0)
        return out

    def step(self, params, moments, step, batch, labels, rng, lr):
        """One training step; returns the new step count."""
        self.ops = []
        t_step = time.perf_counter()
        logits, backs = self.timed("forward", "total", model.forward, params, batch, True, rng)
        loss, dlogits = self.timed("loss", "cross_entropy", train.cross_entropy, logits, labels)
        if len(backs) != len(self.ops):
            raise RuntimeError(f"{len(backs)} backwards for {len(self.ops)} forward ops")
        timed_backs = [self._timed_back(b, k, label) for k, (b, label) in
                       enumerate(zip(backs, self.ops))]
        grads = self.timed("backward", "total", model.backward, params, timed_backs, dlogits)
        self.timed("check", "_check_finite", train._check_finite, loss, grads, 0, 0)
        step = self.timed("adam", "adam_step", train.adam_step, params, grads, moments, step, lr)
        self._record("step", "total", t_step)
        return step

    def _timed_back(self, back, k, label):
        def timed_back(dy, grads):
            return self.timed("backward", f"{k:2d} {label}", back, dy, grads)
        return timed_back


def profile(cfg: model.ModelConfig, batch_size: int, repeats: int) -> dict:
    """Per-op milliseconds over ``repeats`` timed steps, by label in step order."""
    rng = np.random.default_rng(0)
    params = model.init_model(cfg, rng)
    moments = train.zero_moments(params)
    examples = [model.Example(x) for x in
                -50.0 + 30.0 * rng.standard_normal((batch_size, cfg.seq_len, cfg.input_dim))]
    labels = rng.integers(0, cfg.classes, batch_size)
    timer, step = StepTimer(), 0
    with timer:
        for k in range(repeats + 1):
            if k == 1:
                timer.times.clear()  # the first step warms caches and is not reported
            step = timer.step(params, moments, step, examples, labels, rng, 1e-4)
    return dict(timer.times)  # in the order the step first recorded them


def report(cfg: model.ModelConfig, batch_size: int, repeats: int) -> None:
    """Profile ``repeats`` steps and print each op's median [q1, q3]."""
    times = profile(cfg, batch_size, repeats)
    print(f"B={batch_size}, L={cfg.seq_len}, F={cfg.input_dim}, H={cfg.hidden}, "
          f"layers={cfg.layers}: ms per call, median [q1, q3] of {repeats} steps")
    for label, values in times.items():
        q1, median, q3 = quartiles(values)
        print(f"{label:<40} {median:8.3f} [{q1:.3f}, {q3:.3f}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--batch", type=int, default=16)
    args = parser.parse_args(argv)
    report(model.ModelConfig(), args.batch, 30)
    return 0


if __name__ == "__main__":
    sys.exit(main())
