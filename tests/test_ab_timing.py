"""``scripts/ab_timing.py`` runs this tree against itself."""

import importlib.util
import re
import statistics
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
    assert re.fullmatch(r"B/A: median paired ratio (\d+\.\d{3}) \(95 % interval \1-\1\), B faster in [01]/1 rounds", lines[3])
    assert lines[4:] == ["outcomes identical"]


def test_a_bundle_goes_with_the_bundle_workload():
    done = subprocess.run([sys.executable, str(SCRIPT), str(ATLAS), str(ATLAS), "--workload", "bundle"], capture_output=True, text=True)
    assert done.returncode == 2 and "--bundle goes with" in done.stderr


def load_script():
    spec = importlib.util.spec_from_file_location("ab_timing", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_interval_is_a_seeded_bootstrap_of_the_median():
    median_interval = load_script().median_interval
    ratios = [0.80, 0.84, 0.86, 0.87, 0.88, 0.90, 0.95, 1.02, 1.10, 0.85, 0.89]
    low, high = median_interval(ratios)
    # Each bound is a median of some resample, so one of the ratios.
    assert low in ratios and high in ratios
    assert low < statistics.median(ratios) < high
    assert median_interval(ratios) == (low, high)
    # Resamples as large as the rounds: ten times the rounds, a narrower interval.
    many = median_interval(ratios * 10)
    assert many[1] - many[0] < high - low
    # One value gives no width.
    assert median_interval([0.9] * 5) == (0.9, 0.9)
    # A resample of the rounds, with replacement: 20 rounds of 0.8 and one of
    # 1.5 leave the median at 0.8 in every resample but the few that draw
    # 1.5 eleven times or more.
    assert median_interval([0.8] * 20 + [1.5]) == (0.8, 0.8)
