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
    0: ("af9ac2a00fc85c902bad3ebce9363790581cc95d841575a2650eb854dde4373c", 3173, 5),
    1: ("ea4947456890fce0f946e34fb489248f6db9c5ceec5963341f1a9428a0b0ac8e", 3173, 5),
    705: ("0caa6a1170b10a961c53b8cb08d55d0aa659f2f518f858ecc3b2ac52d7ddf0c9", 3175, 5),
}


@pytest.mark.parametrize("seed", sorted(BUNDLES))
def test_trained_bundle_bytes(seed, tmp_path):
    tasks = [str(p) for p in training_task_paths()]
    assert main(["train", *tasks, "-o", str(tmp_path), "--seed", str(seed)]) == 0
    data = (tmp_path / "bundle.json").read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data), len(json.loads(data)["transformers"])) == BUNDLES[seed]
