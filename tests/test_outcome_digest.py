"""``scripts/outcome_digest.py`` prints the same lines on every run."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "outcome_digest.py"
PARTS = ["train-0", "train-1", "train-705", "synth-top", "synth-seed-0", "synth-seed-1", "synth-seed-705", "synth-length", "overall"]


def digest(hash_seed: str) -> list[str]:
    args = [sys.executable, str(SCRIPT), "--task", "eval_backup", "--budget", "256", "--budget", "4097"]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(args, env=env, capture_output=True, text=True, check=True).stdout.splitlines()


def test_two_runs_print_the_same_lines():
    first = digest("0")
    assert [line.split()[0] for line in first] == PARTS
    assert all(len(line.split()[1]) == 64 for line in first)
    assert digest("1") == first
