"""Every script in ``demos/`` runs to the end against the package under test.

Each demo runs in its own interpreter, in a fresh working directory (demo 02
writes its wavs there), with ``PYTHONPATH`` pointing at the package these
tests import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tinysound

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(tinysound.__file__).parents[1]))
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
