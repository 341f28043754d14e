"""``scripts/ab_timing.py`` runs this tree against itself."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from atlas.cli import main
from atlas.corpus import training_task_paths

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab_timing.py"
ATLAS = ROOT / "src" / "atlas"


@pytest.mark.parametrize("workload", ["train", "bundle", "top"])
def test_one_round_of_this_tree_against_itself(tmp_path, workload):
    args = [sys.executable, str(SCRIPT), str(ATLAS), str(ATLAS), "--workload", workload, "--rounds", "1"]
    if workload == "bundle":
        assert main(["train", *map(str, training_task_paths()), "-o", str(tmp_path)]) == 0
        args += ["--bundle", str(tmp_path / "bundle.json")]
    done = subprocess.run(args, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == f"workload {workload}, 1 interleaved rounds"
    assert lines[1].startswith(f"A {ATLAS}: median ") and lines[2].startswith(f"B {ATLAS}: median ")
    assert all(re.fullmatch(r".*\), \d+(\.5)? gen-0 collections per round", line) for line in lines[1:3])
    assert lines[3].startswith("B/A: median paired ratio ") and lines[3].endswith(("in 0/1 rounds", "in 1/1 rounds"))
    assert lines[4:] == ["outcomes identical"]


def test_a_bundle_goes_with_the_bundle_workload():
    done = subprocess.run([sys.executable, str(SCRIPT), str(ATLAS), str(ATLAS), "--workload", "bundle"], capture_output=True, text=True)
    assert done.returncode == 2 and "--bundle goes with" in done.stderr
