"""``scripts/bundle_vs_top.py`` times this tree's bundle runs against top."""

import subprocess
import sys
from pathlib import Path

from atlas.cli import main
from atlas.corpus import eval_task_paths, training_task_paths

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bundle_vs_top.py"
ATLAS = ROOT / "src" / "atlas"


def test_one_round_gives_a_row_per_corpus_task(tmp_path):
    assert main(["train", *map(str, training_task_paths()), "-o", str(tmp_path)]) == 0
    args = [sys.executable, str(SCRIPT), str(ATLAS), "--bundle", str(tmp_path / "bundle.json"), "--rounds", "1"]
    done = subprocess.run(args, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names = [p.stem for p in training_task_paths() + eval_task_paths()]
    head, *rows = done.stdout.splitlines()
    assert head == f"{len(names)} tasks, 1 interleaved rounds: bundle/top"
    assert [row.split(":")[0] for row in rows] == names
    assert all(" median paired ratio " in row and row.endswith(("in 0/1 rounds", "in 1/1 rounds")) for row in rows)


def test_a_bundle_is_required():
    done = subprocess.run([sys.executable, str(SCRIPT), str(ATLAS)], capture_output=True, text=True)
    assert done.returncode == 2 and "--bundle" in done.stderr
