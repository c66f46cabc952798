"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 tools/bench_pairs.py --parent ../base --change . --workload infer --seeds 301-305

For each seed, the change's BENCHMARK.json ``command`` with ``--workload W
--seed S --seconds T --trace 0``, T its ``run_seconds``, runs once in each
checkout: the parent first in even pairs and the change first in odd ones,
so a slow drift of the machine falls on both sides alike. Each run's result line is printed as it arrives. At the end,
for every end-to-end metric that the change's BENCHMARK.json lists, the
median [q1, q3] of each side and the number of pairs the change won are
printed, with each side's share of failed operations. A metric is marked
unresolved when either side's q3 - q1 exceeds its ``bound`` times that side's
median, unless every change run beats every parent run: its runs spread too
widely to tell a difference. A metric is marked a gain when it meets the
claim rule: over at least ten pairs the change wins at least nine tenths of
them, and its median is better than the parent's by more than the parent's
q3 - q1. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """``"301-305"`` or ``"301,307,311"`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def schedule(seeds: list[int]) -> list[tuple[int, tuple[str, str]]]:
    """Each seed with the order its two runs take: the parent first in even pairs."""
    sides = ("parent", "change")
    return [(seed, sides if i % 2 == 0 else sides[::-1]) for i, seed in enumerate(seeds)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> dict:
    """The comparison of ``pairs`` of (parent, change) result objects, as the
    last line of perfbench/run.py prints them, on the ``end_to_end`` metrics
    of BENCHMARK.json: per metric, each side's (q1, median, q3), the pairs
    in which the change is strictly better, whether it is unresolved and
    whether it is a gain by the claim rule; per side, the failed share."""
    metrics = []
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        sides = quartiles(parent), quartiles(change)
        wide = any(q3 - q1 > metric["bound"] * median for q1, median, q3 in sides)
        apart = min(change) > max(parent) if higher else max(change) < min(parent)
        (q1, median, q3), change_median = sides[0], sides[1][1]
        gap = change_median - median if higher else median - change_median
        metrics.append({"name": name, "unit": metric["unit"], "better": metric["better"],
                        "parent": sides[0], "change": sides[1], "wins": wins,
                        "unresolved": wide and not apart,
                        "gain": len(pairs) >= 10 and 10 * wins >= 9 * len(pairs)
                                and gap > q3 - q1})
    failed = {side: sum(pair[k]["failed"] for pair in pairs)
              / max(1, sum(pair[k]["attempted"] for pair in pairs))
              for k, side in enumerate(("parent", "change"))}
    return {"pairs": len(pairs), "metrics": metrics, "failed_share": failed}


def format_summary(summary: dict) -> list[str]:
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [f"{summary['pairs']} pairs, median [q1, q3]; wins = pairs the change is better in"]
    for m in summary["metrics"]:
        lines.append(f"{m['name']} ({m['unit']}, {m['better']} is better): "
                     f"parent {side(m['parent'])} -> change {side(m['change'])}, "
                     f"wins {m['wins']}/{summary['pairs']}"
                     + (", unresolved: q3 - q1 above bound x median" if m["unresolved"] else "")
                     + (", gain: >= 9/10 wins, median gap > parent q3 - q1" if m["gain"] else ""))
    failed = summary["failed_share"]
    lines.append(f"failed share: parent {failed['parent']:.4g} -> change {failed['change']:.4g}")
    return lines


def run_once(checkout: Path, bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 301-305")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    bench = json.loads((args.change / "BENCHMARK.json").read_text())

    pairs = []
    for seed, order in schedule(args.seeds):
        result = {}
        for side in order:
            result[side] = run_once(checkouts[side], bench, args.workload, seed)
            print(f"seed {seed} {side}: {json.dumps(result[side])}", flush=True)
        pairs.append((result["parent"], result["change"]))
    print("\n".join(format_summary(summarize(pairs, bench["end_to_end"]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
