"""The four benchmark workloads: train, train_augmented, infer and vocab.

Each workload writes its inputs from the seed (``make_inputs``), does the
program-side set-up that ``setup_s`` times (``prepare``), runs a fixed
amount of work through public entry points (``run``) and checks the
program's outputs afterwards (``check``). The work of one pass is fixed by
the pass's share of ``--seconds`` and per-unit costs measured on a 2-core
box, so two passes of the same size do identical work and a faster
program finishes sooner. Every workload reports the same generic
end-to-end metrics; NOTES.md says what each one means per workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import logging
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import CLASSES, write_dataset

WINDOW = 220_500  # 5 s at 44.1 kHz: 430 mel frames, the paper's input
PARAMS_PAPER = 6_642
MULT_ADDS_PAPER = 8.2e6  # "about 8.2M"


@dataclass
class Pass:
    """One measured pass of a workload, as plain JSON-able data."""

    wall: float  # seconds of measured work
    cpu: float  # process CPU seconds over the same interval, all threads
    rates: list  # per-unit rates; throughput_per_s is their median over all passes
    latency_ms: list  # samples for latency_ms_p50 / latency_ms_p90
    extra: dict  # name -> [value, unit]: workload-specific figures
    outputs: object  # what the program produced; traced and untraced must be equal
    counts: dict = field(default_factory=dict)  # per-layer inputs measured outside spans
    ops: int = 0
    failures: list = field(default_factory=list)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def call_cli(ts, argv: list) -> tuple[int, str]:
    """``cli.main(argv)`` with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ts.cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def write_config(path: Path, **values) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))


def accounting_failures(ts, mcfg) -> list[str]:
    """The workload config against the paper's parameter and mult-add counts."""
    failures = []
    n_params = ts.model.count_params(mcfg)
    if n_params != PARAMS_PAPER:
        failures.append(f"count_params gives {n_params}, paper {PARAMS_PAPER}")
    macs = ts.model.count_mult_adds(mcfg, ts.model.TOTAL)
    if round(macs / 1e5) != round(MULT_ADDS_PAPER / 1e5):
        failures.append(f"count_mult_adds gives {macs}, paper ~{MULT_ADDS_PAPER:.3g}")
    return failures


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# train and train_augmented
# ---------------------------------------------------------------------------

class _EpochClock(logging.Handler):
    """Timestamps the per-epoch record that ``train_loop`` logs."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.times: list[float] = []

    def emit(self, record):
        if record.getMessage().startswith("epoch"):
            self.times.append(time.perf_counter())


class Train:
    """``train_loop`` on the criterion-4 config over 5 s clips at 44.1 kHz.

    The training seed is fixed at 0 and only the audio follows ``--seed``:
    with augmentation on, which transforms fire is drawn from the training
    seed, and pitch_shift alone (about 1.4 s per window) would otherwise
    change the work of an epoch by a quarter or more from seed to seed.
    """

    N_TRAIN = 16  # one B=16 step per epoch
    N_VAL = 3
    # seconds per epoch on a 2-core box at the commit that added this file
    EPOCH_S = {False: 0.45, True: 8.5}
    ALIASES = {"throughput_per_s": "train_examples_per_s",
               "latency_ms_p50": "epoch_ms_p50", "latency_ms_p90": "epoch_ms_p90"}

    def __init__(self, augmented: bool):
        self.augmented = augmented

    def make_inputs(self, root: Path, rng) -> None:
        clips = [(CLASSES[i % len(CLASSES)], 1, 5.0, 44100) for i in range(self.N_TRAIN)]
        clips += [(CLASSES[i], 5, 5.0, 44100) for i in range(self.N_VAL)]
        write_dataset(root, rng, clips)

    def prepare(self, ts, root: Path, work: Path, seed: int, seconds: float):
        manifest = ts.audio_io.load_manifest(root, ts.audio_io.CSV_MANIFEST)
        tcfg = ts.train.TrainConfig(
            lr_peak=2e-3, warmup_steps=50, batch_size=16,
            epochs=max(1, round(seconds / self.EPOCH_S[self.augmented])), seed=0,
            window_samples=WINDOW,
            augments=ts.augment.default_pipeline(0.3) if self.augmented else [],
            pipeline=ts.train.PipelineConfig(), val_fold=5)
        # six classes, as in the paper's 6,642-parameter count
        mcfg = tcfg.pipeline.model_config(WINDOW, classes=len(CLASSES))
        return {"ts": ts, "manifest": manifest, "tcfg": tcfg, "mcfg": mcfg}

    def run(self, st) -> Pass:
        ts, tcfg = st["ts"], st["tcfg"]
        clock = _EpochClock()
        logger = logging.getLogger(ts.train.__name__)
        level = logger.level
        logger.setLevel(logging.INFO)
        logger.addHandler(clock)
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            result = ts.train.train_loop(st["manifest"], st["mcfg"], tcfg)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        finally:
            logger.removeHandler(clock)
            logger.setLevel(level)
        epoch_ms = list(np.diff([t0] + clock.times) * 1e3)
        p = Pass(wall, cpu, [self.N_TRAIN * 1e3 / ms for ms in epoch_ms], epoch_ms,
                 {"epochs": [tcfg.epochs, "count"]},
                 [[m["train_loss"], m["val_acc"]] for m in result.metrics])
        if len(clock.times) != tcfg.epochs:
            p.failures.append(f"{len(clock.times)} epoch records for {tcfg.epochs} epochs")
        return p

    def check(self, st, p: Pass, work: Path) -> None:
        p.ops += len(p.outputs) + 2
        p.failures += [f"epoch {i} loss {loss}" for i, (loss, _) in enumerate(p.outputs)
                       if not math.isfinite(loss)]
        p.failures += accounting_failures(st["ts"], st["mcfg"])


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

class Infer:
    """Closed-loop ``predict`` requests, then one ``eval`` pass at B=64.

    One client sends the next request when the previous one returns,
    cycling a pool of 15 clips and alternating a float TSCK and a
    quantized TSCQ checkpoint. Three clips in the pool (a fifth) need a
    resample, two from 22.05 kHz and one from 48 kHz, so p50 falls among
    the 44.1 kHz requests and p90 inside the 22.05 kHz band rather than on
    the edge between two bands.
    """

    POOL_RATES = (44100, 22050, 44100, 44100, 44100, 44100, 22050, 44100,
                  44100, 44100, 44100, 48000, 44100, 44100, 44100)
    N_EVAL = 64
    EVAL_PASSES = 2
    CYCLE_S = 6.5  # one pool cycle plus the eval passes, 2-core box
    ALIASES = {"throughput_per_s": "eval_clips_per_s",
               "latency_ms_p50": "predict_ms_p50", "latency_ms_p90": "predict_ms_p90"}

    def make_inputs(self, root: Path, rng) -> None:
        clips = [(CLASSES[i % len(CLASSES)], 1, 5.0, rate) for i, rate in enumerate(self.POOL_RATES)]
        clips += [(CLASSES[i % len(CLASSES)], 5, 5.0, 44100) for i in range(self.N_EVAL)]
        write_dataset(root, rng, clips)
        write_config(root / "infer.cfg", data_root=root, layout="csv_manifest", val_fold=5,
                     batch_size=self.N_EVAL, window_samples=WINDOW)

    def prepare(self, ts, root: Path, work: Path, seed: int, seconds: float):
        work.mkdir(parents=True, exist_ok=True)
        pipeline = ts.train.PipelineConfig()
        mcfg = pipeline.model_config(WINDOW, classes=len(CLASSES))
        params = ts.model.init_model(mcfg, np.random.default_rng(seed))
        tsck, tscq = work / "model.tsck", work / "model.tscq"
        ts.model.save_checkpoint(tsck, params, metadata={"class_names": list(CLASSES)})
        rc, out = call_cli(ts, ["quantize", "--ckpt", tsck, "--out", tscq])
        if rc != 0:
            raise RuntimeError(f"quantize exited {rc}: {out}")
        audio = root / "audio"
        st = {"ts": ts, "mcfg": mcfg, "pipeline": pipeline, "tsck": tsck, "tscq": tscq,
              "cfg": root / "infer.cfg", "pool": sorted(audio.glob("*.wav"))[: len(self.POOL_RATES)],
              "eval": sorted(audio.glob("*.wav"))[len(self.POOL_RATES):],
              "cycles": max(1, round(seconds / self.CYCLE_S))}
        for quantized in (False, True):  # first calls pay lazy set-up; a server pays it once
            call_cli(ts, self._argv(st, 0, quantized))
        return st

    def _argv(self, st, k: int, quantized: bool) -> list:
        argv = ["predict", st["pool"][k], "--config", st["cfg"],
                "--ckpt", st["tscq"] if quantized else st["tsck"]]
        return argv + ["--quantized"] if quantized else argv

    def requests(self, st) -> list[tuple[int, bool]]:
        n = len(self.POOL_RATES)
        return [(i % n, i % 2 == 1) for i in range(st["cycles"] * n)]

    def run(self, st) -> Pass:
        ts = st["ts"]
        outs, lat_ms = [], []
        t0, c0 = time.perf_counter(), time.process_time()
        for k, quantized in self.requests(st):
            t = time.perf_counter()
            rc, out = call_cli(ts, self._argv(st, k, quantized))
            lat_ms.append((time.perf_counter() - t) * 1e3)
            outs.append([rc, out])
        eval_rates, eval_outs = [], []
        for _ in range(self.EVAL_PASSES):
            t = time.perf_counter()
            eval_outs.append(call_cli(ts, ["eval", "--config", st["cfg"], "--ckpt", st["tsck"]]))
            eval_rates.append(self.N_EVAL / (time.perf_counter() - t))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0

        reqs = self.requests(st)

        def p50(keep):
            return percentile([ms for ms, r in zip(lat_ms, reqs) if keep(r)], 50)

        extra = {
            "predict_requests": [len(lat_ms), "count"],
            "predict_resampled_share":
                [sum(self.POOL_RATES[k] != 44100 for k, _ in reqs) / len(reqs), "ratio"],
            "predict_ms_p50.tsck": [p50(lambda r: not r[1]), "ms"],
            # TSCQ requests dequantize the int8 weights and run the float64
            # forward: float inference on dequantized weights, not int8 math
            "predict_ms_p50.tscq_dequantized_float": [p50(lambda r: r[1]), "ms"],
            "predict_ms_p50.44k": [p50(lambda r: self.POOL_RATES[r[0]] == 44100), "ms"],
            "predict_ms_p50.resampled": [p50(lambda r: self.POOL_RATES[r[0]] != 44100), "ms"],
            "tscq_bytes": [st["tscq"].stat().st_size, "bytes"],
            # the paper's claim is a checkpoint "under 15 KB" quantized
            "tscq_share_of_15kb": [st["tscq"].stat().st_size / 15_000, "ratio"],
        }
        p = Pass(wall, cpu, eval_rates, lat_ms, extra, [outs, eval_outs])
        p.counts = {"tsck_bytes": st["tsck"].stat().st_size,
                    "tscq_bytes": st["tscq"].stat().st_size}
        return p

    def _expected_classes(self, st) -> dict:
        """argmax of a direct forward / qforward on the features predict computes."""
        ts = st["ts"]
        params = ts.model.load_checkpoint(st["tsck"]).params
        qparams = ts.deploy.load_quantized(st["tscq"])
        expected = {}
        for k, path in enumerate(st["pool"]):
            clip = ts.audio_io.read_wav(path)
            if clip.sample_rate != ts.audio_io.TARGET_RATE:
                clip = ts.audio_io.resample(clip, ts.audio_io.TARGET_RATE)
            batch = st["pipeline"].extract(ts.audio_io.center_slice(clip, WINDOW))[None, ...]
            expected[(k, False)] = CLASSES[int(np.argmax(ts.model.forward(params, batch)[0]))]
            expected[(k, True)] = CLASSES[int(np.argmax(ts.deploy.qforward(qparams, batch)[0]))]
        return expected

    def _recount_accuracy(self, st) -> float:
        ts = st["ts"]
        params = ts.model.load_checkpoint(st["tsck"]).params
        correct = 0
        for lo in range(0, len(st["eval"]), self.N_EVAL):
            chunk = st["eval"][lo : lo + self.N_EVAL]
            batch = np.stack([st["pipeline"].extract(ts.audio_io.center_slice(
                ts.audio_io.read_wav(f), WINDOW)) for f in chunk])
            pred = ts.model.forward(params, batch).argmax(axis=1)
            # file names are <index>_<class>_<rate>.wav
            labels = [CLASSES.index(f.stem.split("_", 1)[1].rsplit("_", 1)[0]) for f in chunk]
            correct += int((pred == np.array(labels)).sum())
        return correct / len(st["eval"])

    def check(self, st, p: Pass, work: Path) -> None:
        """Compares a pass made with the checkpoints in ``work`` with results
        computed from ``st``'s own, identical, checkpoints."""
        p.ops += 1
        if any((work / f.name).read_bytes() != f.read_bytes() for f in (st["tsck"], st["tscq"])):
            p.failures.append(f"checkpoints in {work} differ from the reference ones")
        if "expected" not in st:
            st["expected"] = self._expected_classes(st)
            st["recount"] = self._recount_accuracy(st)
        outs, eval_outs = p.outputs
        for (k, quantized), (rc, out) in zip(self.requests(st), outs):
            p.ops += 1
            what = f"predict {st['pool'][k].name} quantized={quantized}"
            lines = out.splitlines()
            if rc != 0 or not lines or not lines[0].startswith("prediction: "):
                p.failures.append(f"{what}: exit {rc}, output {out[:80]!r}")
                continue
            got = lines[0][len("prediction: "):]
            probs = {name.strip(): float(v) for name, v in
                     (line.rsplit(":", 1) for line in lines[1:])}
            want = st["expected"][(k, quantized)]
            if got != want or max(probs, key=probs.get) != got:
                p.failures.append(f"{what}: printed {got}, direct forward gives {want}")
            # printed to 4 decimals, so each term may be off by 5e-5
            elif abs(sum(probs.values()) - 1.0) > 5e-5 * len(probs) + 1e-9:
                p.failures.append(f"{what}: probabilities sum to {sum(probs.values())}")

        for eval_rc, eval_out in eval_outs:
            p.ops += 1
            match = re.search(r"accuracy ([0-9.]+) over (\d+) held-out clips", eval_out)
            if eval_rc != 0 or match is None:
                p.failures.append(f"eval exit {eval_rc}, output {eval_out[:80]!r}")
            elif match.group(1) != f"{st['recount']:.4f}" or int(match.group(2)) != self.N_EVAL:
                p.failures.append(f"eval printed {match.group(0)!r}, recount "
                                  f"{st['recount']:.4f} over {self.N_EVAL}")
        p.ops += 2
        p.failures += accounting_failures(st["ts"], st["mcfg"])


# ---------------------------------------------------------------------------
# vocab
# ---------------------------------------------------------------------------

class Vocab:
    """``build-vocab`` on the default CurveSpec, then ``tokenize`` per clip."""

    N_CLIPS = 18  # one-second clips, three per class
    BUILD_S = 4.0  # one build plus TOKENIZE_PASSES tokenize passes, 2-core box
    TOKENIZE_PASSES = 20
    SPEC = {"curve_len": 8, "resolution": 64, "top_k": 50_000, "curve_mode": "absolute"}
    ALIASES = {"throughput_per_s": "vocab_clips_per_s",
               "latency_ms_p50": "tokenize_ms_p50", "latency_ms_p90": "tokenize_ms_p90"}

    def make_inputs(self, root: Path, rng) -> None:
        clips = [(CLASSES[i % len(CLASSES)], 1, 1.0, 44100) for i in range(self.N_CLIPS)]
        write_dataset(root, rng, clips)
        write_config(root / "vocab.cfg", data_root=root, layout="csv_manifest", **self.SPEC)

    def prepare(self, ts, root: Path, work: Path, seed: int, seconds: float):
        work.mkdir(parents=True, exist_ok=True)
        clips = [ts.audio_io.read_wav(f) for f in sorted((root / "audio").glob("*.wav"))]
        return {"ts": ts, "cfg": root / "vocab.cfg", "clips": clips,
                "vocab_path": work / "vocab.tscv", "work": work,
                "builds": max(1, round(seconds / self.BUILD_S))}

    def run(self, st) -> Pass:
        ts, clips = st["ts"], st["clips"]
        build_rates, tok_ms, outputs, failures = [], [], [], []
        unk = emitted = 0
        t0, c0 = time.perf_counter(), time.process_time()
        for _ in range(st["builds"]):
            t = time.perf_counter()
            rc, out = call_cli(ts, ["build-vocab", "--config", st["cfg"],
                                    "--out", st["vocab_path"]])
            build_rates.append(len(clips) / (time.perf_counter() - t))
            vocab = ts.tokenizer.load_vocab(st["vocab_path"])
            for _ in range(self.TOKENIZE_PASSES):
                tokens = []
                for clip in clips:
                    t = time.perf_counter()
                    ids = ts.tokenizer.tokenize(clip, vocab)
                    tok_ms.append((time.perf_counter() - t) * 1e3)
                    tokens.append(ids)
                    if len(ids) != 1 + len(clip) // self.SPEC["curve_len"]:
                        failures.append(f"tokenize gave {len(ids)} ids for {len(clip)} samples")
            unk += sum(int(np.count_nonzero(ids[1:] == ts.tokenizer.UNK_ID)) for ids in tokens)
            emitted += sum(len(ids) - 1 for ids in tokens)
            # the output names the file, which differs between passes
            out = out.replace(str(st["vocab_path"]), st["vocab_path"].name)
            outputs.append([rc, out, _digest(st["vocab_path"].read_bytes()),
                            _digest(b"".join(ids.tobytes() for ids in tokens))])
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0

        p = Pass(wall, cpu, build_rates, tok_ms,
                 {"tokenize_clips_per_s": [1e3 * len(tok_ms) / sum(tok_ms), "1/s"],
                  "builds": [st["builds"], "count"]}, outputs)
        p.ops, p.failures = len(tok_ms), failures
        match = re.search(r"from (\d+) distinct", outputs[-1][1])
        p.counts = {"vocab_clips": st["builds"] * len(clips), "unk_share": unk / emitted,
                    "distinct_curves": int(match.group(1)) if match else 0}
        return p

    def check(self, st, p: Pass, work: Path) -> None:
        ts = st["ts"]
        for rc, out, vocab_digest, _ in p.outputs:
            p.ops += 1
            if rc != 0 or "distinct" not in out or vocab_digest != p.outputs[0][2]:
                p.failures.append(f"build-vocab exit {rc}, output {out[:80]!r}")
        p.ops += 1
        vocab = ts.tokenizer.load_vocab(work / st["vocab_path"].name)
        again = st["work"] / "roundtrip.tscv"
        ts.tokenizer.save_vocab(again, vocab)
        if (_digest(again.read_bytes()) != p.outputs[-1][2]
                or ts.tokenizer.load_vocab(again).curves != vocab.curves):
            p.failures.append("vocabulary does not round-trip through save_vocab/load_vocab")


WORKLOADS = {
    "train": Train(augmented=False),
    "train_augmented": Train(augmented=True),
    "infer": Infer(),
    "vocab": Vocab(),
}
