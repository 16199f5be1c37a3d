"""Golden digests of trained models: the trainer's kernels stay bit-identical.

Each registry dataset is trained at seed 7 with 3 trees, and a sha256 is
taken over everything a training run hands to the timing models: every
tree's node arrays, every ``TreeWork`` field of each tree's slice of the
profile (``loss_after`` read from ``profile.losses``), the losses, the root
bin counts and the ``WorkProfile`` scalars (``train_seconds_wall`` excluded,
it is a wall-clock reading).  The pinned digests were recorded before the
kernels skipped dead searches, reused binning scratch and read step 5 off
the partition; a kernel change that moves any trained bit fails here.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.datasets import BENCHMARK_NAMES, load
from repro.gbdt import TrainParams, TrainResult, train
from tests.oracles import tree_works

GOLDEN = {
    "iot": "eb66759a5fcccbb6fce85a44179ab67f093ec5868daab40187a1fe897cff2931",
    "higgs": "b86f5652737e202a44e405b1c55b439c2a4891991043d2baf1193993c70b8abf",
    "allstate": "39087f9c9ccca62bdfdbdae0c32c3e4cb6d8ad0c9a038cf46b21c3a7747100ac",
    "mq2008": "eb5cd4c945a0708b6a51d3fe42cb1eb029f4b2907f2e340e27623f235b18189f",
    "flight": "924ce7ef992b8c69d87ae29548b875cb4eabdc829a3d17135f2e3e2bac6194c4",
}


def _update(hasher: "hashlib._Hash", label: str, value: object) -> None:
    """Feed one labelled value: arrays by dtype, shape and bytes; scalars by repr."""
    hasher.update(label.encode())
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        hasher.update(f"{arr.dtype.str}{arr.shape}".encode())
        hasher.update(arr.tobytes())
    elif isinstance(value, float):
        hasher.update(value.hex().encode())
    else:
        hasher.update(repr(value).encode())


def training_digest(result: TrainResult) -> str:
    hasher = hashlib.sha256()
    for t, tree in enumerate(result.trees):
        _update(hasher, f"tree{t}.field", np.asarray(tree.field, dtype=np.int64))
        _update(hasher, f"tree{t}.threshold_bin", np.asarray(tree.threshold_bin, dtype=np.int64))
        _update(hasher, f"tree{t}.is_categorical", np.asarray(tree.is_categorical, dtype=bool))
        _update(hasher, f"tree{t}.missing_left", np.asarray(tree.missing_left, dtype=bool))
        _update(hasher, f"tree{t}.left", np.asarray(tree.left, dtype=np.int64))
        _update(hasher, f"tree{t}.right", np.asarray(tree.right, dtype=np.int64))
        _update(hasher, f"tree{t}.weight", np.asarray(tree.weight, dtype=np.float64))
        _update(hasher, f"tree{t}.depth", np.asarray(tree.depth, dtype=np.int64))
    profile = result.profile
    for t, work in enumerate(tree_works(profile)):
        for f in dataclasses.fields(work):
            _update(hasher, f"work{t}.{f.name}", getattr(work, f.name))
        _update(hasher, f"work{t}.loss_after", float(profile.losses[t]))
    _update(hasher, "losses", result.losses)
    _update(hasher, "base_margin", result.base_margin)
    _update(hasher, "profile.losses", profile.losses)
    _update(hasher, "root_bin_counts", profile.root_bin_counts)
    for name in ("warp_conflict_factor", "path_len_cv", "smaller_child_fraction_mean", "measured"):
        _update(hasher, f"profile.{name}", getattr(profile, name))
    return hasher.hexdigest()


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_training_digest_is_pinned(name):
    result = train(load(name, seed=7), TrainParams(n_trees=3))
    assert training_digest(result) == GOLDEN[name]
