"""Access-trace generators for the DRAM model.

* ``sequential`` -- streaming row-major records / whole columns (steps 1 at
  the root, 5, and all double-buffered output streams); the trace
  :func:`repro.memory.bandwidth_profile` calibrates with.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sequential"]


def sequential(n_blocks: int, start: int = 0) -> np.ndarray:
    """Contiguous block stream starting at ``start``."""
    if n_blocks < 0:
        raise ValueError("n_blocks must be non-negative")
    return np.arange(start, start + n_blocks, dtype=np.int64)
