"""Dataset substrate: schemas, synthetic generators, layouts, registry.

Public API::

    from repro.datasets import load, dataset_spec, BENCHMARK_NAMES
    ds = load("higgs")            # BinnedDataset at simulation scale
    spec = dataset_spec("iot", scale=0.01)

Exports resolve on first use (PEP 562), so ``BENCHMARK_NAMES`` and the
schemas import without NumPy.
"""

from typing import TYPE_CHECKING

from .._lazy import export

if TYPE_CHECKING:
    from .encoding import BinnedDataset, discretize_numerical, quantile_bin_edges
    from .layout import LayoutConfig, RecordLayout, expected_touched_blocks, field_element_bytes
    from .registry import (
        BENCHMARK_NAMES,
        DEFAULT_SIM_SCALE,
        dataset_spec,
        load,
        paper_records,
        paper_seq_minutes,
        table3_rows,
    )
    from .schema import (
        DEFAULT_NUMERICAL_BINS,
        DatasetSpec,
        FieldKind,
        FieldSpec,
        TaskKind,
        make_numerical_fields,
    )
    from .synthetic import generate, zipf_probabilities

_EXPORTS: dict[str, tuple[str, ...]] = {
    "encoding": ("BinnedDataset", "discretize_numerical", "quantile_bin_edges"),
    "layout": ("LayoutConfig", "RecordLayout", "expected_touched_blocks", "field_element_bytes"),
    "registry": (
        "BENCHMARK_NAMES",
        "DEFAULT_SIM_SCALE",
        "dataset_spec",
        "load",
        "paper_records",
        "paper_seq_minutes",
        "table3_rows",
    ),
    "schema": (
        "DEFAULT_NUMERICAL_BINS",
        "DatasetSpec",
        "FieldKind",
        "FieldSpec",
        "TaskKind",
        "make_numerical_fields",
    ),
    "synthetic": ("generate", "zipf_probabilities"),
}

__all__ = [
    "BENCHMARK_NAMES",
    "DEFAULT_NUMERICAL_BINS",
    "DEFAULT_SIM_SCALE",
    "BinnedDataset",
    "DatasetSpec",
    "FieldKind",
    "FieldSpec",
    "LayoutConfig",
    "RecordLayout",
    "TaskKind",
    "dataset_spec",
    "discretize_numerical",
    "expected_touched_blocks",
    "field_element_bytes",
    "generate",
    "load",
    "make_numerical_fields",
    "paper_records",
    "paper_seq_minutes",
    "quantile_bin_edges",
    "table3_rows",
    "zipf_probabilities",
]


def __getattr__(name: str) -> object:
    return export(__name__, _EXPORTS, name)
