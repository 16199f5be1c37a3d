"""Golden digests of trained models: the trainer's kernels stay bit-identical.

Each registry dataset is trained at seed 7 with 3 trees, and a sha256 is
taken over everything a training run hands to the timing models: every
tree's node arrays, every ``TreeWork`` field of each tree's slice of the
profile (``loss_after`` read from ``profile.losses``), the losses, the root
bin counts and the ``WorkProfile`` scalars (``train_seconds_wall`` excluded,
it is a wall-clock reading).  The pinned digests were recorded before the
kernels skipped dead searches, reused binning scratch and read step 5 off
the partition; a kernel change that moves any trained bit fails here.  When
the unread per-tree ``max_path_len`` left ``TreeWork``, the digests were
re-taken on the unchanged trainer with only those ``work{t}.max_path_len``
entries skipped, so every other input still hashes as before.
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
    "iot": "429e35cb0237da593920b7d6a3aaf2b4715827917fcb99de63592546332c1bd6",
    "higgs": "d9e912639fb05350d3d5313ced6fbafcf506f97237eff2c47aeffbe962d5c416",
    "allstate": "db21a7cbc46b1aaa352476f32a930612c4a2f8efb4fb3264e39b6eda6b9e1beb",
    "mq2008": "9286d528e8f10d91d69add8bf19a272cd0512afd20f0ebedffc49c583beeda73",
    "flight": "f8e4629aa05a34e2399db55f5c90598ff9633746fe0a1c76c9c82d56c25120c8",
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
