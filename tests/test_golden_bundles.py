"""Golden bundles.

``atlas train`` on e1-e3 must write these exact bytes at seeds 0, 1 and 705:
the sha256, the size and the number of transformer entries of
``bundle.json``.  A change to training, to the table or to the bundle format
that alters what is written shows here.
"""

import hashlib
import json

import pytest

from atlas.cli import main
from atlas.corpus import training_task_paths

# seed -> (sha256, bytes, entries)
BUNDLES = {
    0: ("7e41605046d63b4e0d15786732bf1fbb7040acb4c010dece8d14640152cd0e92", 1844, 5),
    1: ("590b76cd62939dc5ffb1cbc42dd6022269a6abf3dd81cf3ec7f7daf6c078b210", 1844, 5),
    705: ("ecff01aa2a06591765b98b6bd92d0a315fff1c6405c87d147ca47d78c691369b", 1846, 5),
}


@pytest.mark.parametrize("seed", sorted(BUNDLES))
def test_trained_bundle_bytes(seed, tmp_path):
    tasks = [str(p) for p in training_task_paths()]
    assert main(["train", *tasks, "-o", str(tmp_path), "--seed", str(seed)]) == 0
    data = (tmp_path / "bundle.json").read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data), len(json.loads(data)["transformers"])) == BUNDLES[seed]
