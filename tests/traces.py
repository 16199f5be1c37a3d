"""Non-streaming block traces for the DRAM model's tests.

The timing models price every access pattern at the calibrated streaming
rate; these gathers are how the tests check that choice against the
cycle-level simulator.
"""

from __future__ import annotations

import numpy as np


def gather_blocks(n_universe_blocks: int, density: float, seed: int = 0) -> np.ndarray:
    """Random subset of a block range at the given selection density.

    Models fetching the blocks touched by a scattered record subset: the
    address *order* is ascending (the pointer streams are produced in record
    order), so row-buffer locality survives at high densities and dies at low
    ones -- exactly the step-1/3 behaviour at deep tree vertices.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    rng = np.random.default_rng(seed)
    mask = rng.random(n_universe_blocks) < density
    return np.nonzero(mask)[0].astype(np.int64)


def random_blocks(n_blocks: int, universe: int, seed: int = 0) -> np.ndarray:
    """Uniformly random block addresses (pointer chasing upper bound)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, universe, size=n_blocks, dtype=np.int64)
