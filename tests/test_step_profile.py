"""tools/step_profile.py: every op of the step is timed, and its counts are exact."""

import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tinysound
from tinysound import model

TOOL = Path(__file__).resolve().parents[1] / "tools" / "step_profile.py"


def test_two_layer_step_times_each_op_forward_and_back(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    import step_profile

    step_profile.report(model.ModelConfig(seq_len=6, input_dim=5, layers=2), 2, 3)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("B=2, L=6, F=5, H=16, layers=2:")
    rows = [line.rsplit(None, 3) for line in lines[1:]]  # label, median, [q1, q3]
    ops = ["bn_mapping", "layer_norm emb_ln", "dropout",
           "attention layer0_q=6", "ffn layer0_", "attention layer1_q=1", "ffn layer1_",
           "pooler_classifier"]
    numbered = [f"{k} {op}" for k, op in enumerate(ops)]
    assert [" ".join(label.split()) for label, *_ in rows] == (
        [f"forward {n}" for n in numbered]
        + ["forward total", "loss cross_entropy"]
        + [f"backward {n}" for n in reversed(numbered)]
        + ["backward total", "check _check_finite", "adam adam_step", "step total"])
    for _, median, q1, q3 in rows:
        assert 0.0 <= float(q1.strip("[,")) <= float(median) <= float(q3.strip("]"))


def test_step_counts_are_equal_in_two_fresh_processes():
    env = dict(os.environ, PYTHONPATH=str(Path(tinysound.__file__).parents[1]))
    last_lines = [subprocess.run([sys.executable, str(TOOL), "--batch", "4"], env=env,
                                 capture_output=True, text=True, timeout=300,
                                 check=True).stdout.splitlines()[-1] for _ in range(2)]
    counts = [re.fullmatch(r"one untimed step after them: tracemalloc peak (\d+) bytes, "
                           r"(\d+) profiled calls", line) for line in last_lines]
    assert all(counts), last_lines
    peak, calls = map(int, counts[0].groups())
    assert peak > 0 and calls > 0
    assert counts[0].groups() == counts[1].groups()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_warm_step_faults_are_printed_and_few():
    env = dict(os.environ, PYTHONPATH=str(Path(tinysound.__file__).parents[1]))
    lines = subprocess.run([sys.executable, str(TOOL)], env=env, capture_output=True, text=True,
                           timeout=300, check=True).stdout.splitlines()
    faults = re.fullmatch(r"one untimed step after a warm one: (\d+) minor page faults", lines[-2])
    assert faults, lines[-2:]
    assert int(faults.group(1)) < 50
