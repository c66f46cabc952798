"""tinysound benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. The run writes the workload's inputs from ``--seed``
and splits ``--seconds`` between fresh worker processes that each import
the package, set up and do an equal, fixed share of the work. With
``--trace 0`` three untraced workers run and their medians are reported:
right after start-up the BLAS worker threads of a process sometimes run
ten times slower for seconds, and a median over processes keeps one such
process from moving the result. With ``--trace 1`` one untraced and one
traced worker do the same work; their outputs must be bit-identical, and
the traced one gives the per-layer metrics. Outputs are checked here,
against results this process computes itself.

The last line of standard output is the result object; the lines before
it are an environment header and every metric by name with its unit.
Inputs and worker files live under ``perfbench/_out/`` and are deleted at
exit; the span file of a traced run is kept there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out"
WORKERS = 3
WORKER_TIMEOUT_S = 150

#: name -> unit of the end-to-end metrics every workload reports.
E2E_UNITS = {"throughput_per_s": "1/s", "latency_ms_p50": "ms", "latency_ms_p90": "ms",
             "peak_rss_mb": "MB", "setup_s": "s"}


def import_package():
    """Import tinysound from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "tinysound" / "__init__.py").is_file():
        print(f"error: no tinysound package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import tinysound
    import tinysound.cli  # noqa: F401  (the package does not import it itself)
    if not Path(tinysound.__file__).resolve().is_relative_to(src):
        print(f"error: imported tinysound from {tinysound.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return tinysound


def environment() -> dict:
    """What the numbers depend on. Thread variables are reported, never set."""
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    head = ROOT / ".git" / "HEAD"
    revision = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        revision = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "loadavg": os.getloadavg(),
        "git_revision": revision,
    }


def worker(args) -> int:
    """One measured pass in this fresh process; prints its result as JSON."""
    t0 = time.perf_counter()
    ts = import_package()
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    state = workload.prepare(ts, Path(args.inputs), Path(args.work), args.seed, args.seconds)
    result = {"setup_s": time.perf_counter() - t0}
    tracer = Tracer() if args.spans else None
    if tracer:
        tracer.install(ts)
    try:
        p = workload.run(state)
    finally:
        if tracer:
            tracer.uninstall()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["pass"] = asdict(p)
    if tracer:
        result["layers"] = layer_metrics(tracer.spans, p.counts)
        result["missing"] = tracer.missing
        tracer.write(args.spans, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))
    return 0


def spawn(args, share: float, inputs: Path, work: Path, spans: Path | None) -> dict:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(share), "--worker", "--inputs", str(inputs), "--work", str(work)]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "train_augmented", "infer", "vocab"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    for hidden in ("--inputs", "--work", "--spans"):  # worker processes only
        parser.add_argument(hidden, help=argparse.SUPPRESS)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args)

    ts = import_package()
    import numpy as np
    from spans import LAYER_METRICS
    from workloads import WORKLOADS, Pass, percentile

    workload = WORKLOADS[args.workload]
    share = args.seconds / WORKERS
    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    spans_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    traced_flags = [False, True] if args.trace else [False] * WORKERS
    try:
        workload.make_inputs(inputs, np.random.default_rng(args.seed))
        reference = workload.prepare(ts, inputs, run_dir / "reference", args.seed, share)
        results, passes = [], []
        for i, traced in enumerate(traced_flags):
            work = run_dir / f"worker{i}"
            results.append(spawn(args, share, inputs, work, spans_file if traced else None))
            passes.append(Pass(**results[-1]["pass"]))
            workload.check(reference, passes[-1], work)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        untraced, traced = passes
        traced.ops += 1
        if traced.outputs != untraced.outputs:
            traced.failures.append("traced outputs differ from untraced outputs")
        if results[1]["missing"]:
            traced.failures.append(f"patch points not found: {results[1]['missing']}")
    attempted = sum(p.ops for p in passes)
    failures = [f for p in passes for f in p.failures]

    print(f"# tinysound benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} workers={len(passes)}")
    print("# env " + json.dumps(environment()))
    for failure in failures:
        print(f"# FAILED: {failure}")
    latency = [ms for p in passes for ms in p.latency_ms]
    values = {
        "throughput_per_s": statistics.median(r for p in passes for r in p.rates),
        "latency_ms_p50": percentile(latency, 50),
        "latency_ms_p90": percentile(latency, 90),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
        "setup_s": statistics.median(r["setup_s"] for r in results),
    }
    for name, alias in workload.ALIASES.items():
        print(f"{alias} = {values[name]:.6g} {E2E_UNITS[name]}")
    print(f"latency_samples = {len(latency)} count")
    for name, (_, unit) in passes[0].extra.items():
        print(f"{name} = {statistics.median(p.extra[name][0] for p in passes):.6g} {unit}")
    print(f"error_rate = {len(failures) / attempted:.6g} ratio")

    if args.trace:
        layers = results[1]["layers"]
        layers["process.cpu_per_wall"] = untraced.cpu / untraced.wall
        layers["process.tracing_overhead"] = traced.wall / untraced.wall
        layers["process.error_rate"] = len(failures) / attempted
        print(f"# spans written to {spans_file.relative_to(ROOT)}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
