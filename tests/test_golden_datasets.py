"""Golden digests of generated datasets: binning stays bit-identical.

Each registry dataset is generated at seeds 7 and 4977, and a sha256 is
taken over its codes and labels (dtype, shape and bytes of each).  The
pinned digests were recorded when numerical columns were still binned by
``np.quantile`` plus ``np.searchsorted``; the sort-once binning must
reproduce them.  It reproduces ``np.quantile``'s arithmetic as NumPy 2.4
performs it, and the CI job prints each leg's NumPy version, so a failure
here can be traced to the leg's NumPy release.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets import BENCHMARK_NAMES, load

GOLDEN = {
    (7, "iot"): "f1e20817b7ece890793f31f5f2a4103dbad1f3cddad7a84a95791ebb641999f3",
    (7, "higgs"): "ab0836a0dd8839b5f6439cc6e33ad254048b44373bf9e00d86247e89e863f2e8",
    (7, "allstate"): "23aceca7bf125cd8e165985e30c31c8f8664e4ac8cd9012b5788b67261354d5e",
    (7, "mq2008"): "215df6cb189bb8bba3cc5723a989b22fb6b533b59810fd947bf27547a439d559",
    (7, "flight"): "c37d1c9ccbf8dd44430b51ac73fcb84e22e610b1349570aba7cde4cb03e2cc83",
    (4977, "iot"): "619eefb97fb9b3ba25f7a8f87d9987a864f8dae6837d9d86aea7011667cfb1f6",
    (4977, "higgs"): "87134c7ca6dac2ec58369face6ce93a35f032de6df265ed3528156f6718a96ab",
    (4977, "allstate"): "289a538e31a4e00ec835ffc3f94bfc24a18f0540ffe0b5d5215d24486171a396",
    (4977, "mq2008"): "d3cde5fecccb852635d7fa9e4ee0457772afe792d27fb470b45287ca6d8e8a53",
    (4977, "flight"): "d8eceffde3f374bd9cb53f2b1c2cfde82d119a3e15713de2f2f7b8438379b0b8",
}


def dataset_digest(codes: np.ndarray, y: np.ndarray) -> str:
    hasher = hashlib.sha256()
    for arr in (codes, y):
        arr = np.ascontiguousarray(arr)
        hasher.update(f"{arr.dtype.str}{arr.shape}".encode())
        hasher.update(arr.tobytes())
    return hasher.hexdigest()


@pytest.mark.parametrize("seed", [7, 4977])
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_dataset_digest_is_pinned(name, seed):
    data = load(name, seed=seed)
    assert dataset_digest(data.codes, data.y) == GOLDEN[(seed, name)]
