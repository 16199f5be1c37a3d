"""Registry of the five paper benchmarks (Table III) as synthetic specs.

Table III of the paper:

=========  ========  ======  ======  =================  =========================
Name       #Records  Fields  Categ.  Features (onehot)  Comment
=========  ========  ======  ======  =================  =========================
IoT        7 M       115     0       115                Botnet attack detection
Higgs      10 M      28      0       28                 Exotic particle collider
Allstate   10 M      32      16      4232               Insurance claim prediction
Mq2008     1 M       46      0       46                 Supervised ranking
Flight     10 M      8       7       666                Flight delay prediction
=========  ========  ======  ======  =========================================

The registry reproduces the structural columns exactly.  Record counts are
scaled by ``scale`` (default ``DEFAULT_SIM_SCALE``) because the functional
trainer actually trains on the data; all timing quantities that grow with the
record count are reported both at simulation scale and extrapolated, and the
figures the paper reports are *ratios* that are stable in the record count
once records dominate bins (which the Fig. 12 experiment explores
explicitly).

Dataset-specific statistical shape (Sec. IV observations we must induce):

* **IoT** -- "many shallow trees": a handful of dominant, step-like numerical
  fields make leaves pure early, so splits stop producing gain.
* **Higgs** -- full-depth trees: many weak numerical signals.
* **Allstate / Flight** -- "extremely lopsided (99%-1%)" splits: skewed
  categorical popularity, so one-vs-rest splits peel tiny subsets.
* **Mq2008** -- small dataset; step 2's share of time is largest here.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from .schema import DatasetSpec, FieldKind, FieldSpec, TaskKind, make_numerical_fields

if TYPE_CHECKING:  # the registry itself is NumPy-free; only load() generates
    from .encoding import BinnedDataset

__all__ = [
    "DEFAULT_SIM_SCALE",
    "BENCHMARK_NAMES",
    "dataset_spec",
    "load",
    "paper_records",
    "table3_rows",
]

#: Default ratio of simulated records to the paper's record counts.  1/1000
#: keeps functional training of hundreds of trees tractable in NumPy while
#: records still outnumber histogram bins for every benchmark except Mq2008
#: (which the paper also singles out as bin-dominated).
DEFAULT_SIM_SCALE = 1.0 / 1000.0

BENCHMARK_NAMES = ("iot", "higgs", "allstate", "mq2008", "flight")

_PAPER_RECORDS = {
    "iot": 7_000_000,
    "higgs": 10_000_000,
    "allstate": 10_000_000,
    "mq2008": 1_000_000,
    "flight": 10_000_000,
}

_PAPER_SEQ_MINUTES = {
    # Table III "Seq. Time (mins)" column, for EXPERIMENTS.md comparison.
    "iot": 15.0,
    "higgs": 18.5,
    "allstate": 1.6,
    "mq2008": 2.5,
    "flight": 5.5,
}

# Categorical cardinalities chosen so one-hot feature counts match Table III
# exactly: sum(allstate) = 4216 (+16 numerical = 4232 features);
# sum(flight) = 665 (+1 numerical = 666 features).
_ALLSTATE_CARDINALITIES = (
    1500, 900, 600, 400, 250, 150, 100, 80, 60, 50, 40, 30, 24, 16, 10, 6,
)
_FLIGHT_CARDINALITIES = (300, 250, 60, 25, 15, 10, 5)


def _iot_spec(n_records: int, seed: int) -> DatasetSpec:
    # Dominant step-like fields => shallow trees (Sec. IV: "IoT had many
    # shallow trees").
    weights = [5.0, 4.0, 3.0] + [0.0] * 112
    fields = make_numerical_fields(115, prefix="f", target_weights=weights)
    return DatasetSpec(
        name="iot",
        fields=tuple(fields),
        n_records=n_records,
        task=TaskKind.BINARY,
        paper_records=_PAPER_RECORDS["iot"],
        noise=0.02,
        seed=seed,
        comment="Botnet attack detection",
    )


def _higgs_spec(n_records: int, seed: int) -> DatasetSpec:
    # Many weak signals => trees grow to the full depth.
    weights = [0.35] * 12 + [0.15] * 8 + [0.0] * 8
    fields = make_numerical_fields(28, prefix="f", target_weights=weights)
    return DatasetSpec(
        name="higgs",
        fields=tuple(fields),
        n_records=n_records,
        task=TaskKind.BINARY,
        paper_records=_PAPER_RECORDS["higgs"],
        noise=0.6,
        seed=seed,
        comment="Exotic particle collider data",
    )


def _allstate_spec(n_records: int, seed: int) -> DatasetSpec:
    fields: list[FieldSpec] = []
    for i, cards in enumerate(_ALLSTATE_CARDINALITIES):
        fields.append(
            FieldSpec(
                name=f"cat{i}",
                kind=FieldKind.CATEGORICAL,
                n_categories=cards,
                skew=1.3,
                missing_rate=0.02,
                target_weight=1.5 if i < 8 else 0.5,
            )
        )
    fields.extend(
        make_numerical_fields(16, prefix="num", target_weights=[0.05] * 4, missing_rate=0.01)
    )
    return DatasetSpec(
        name="allstate",
        fields=tuple(fields),
        n_records=n_records,
        task=TaskKind.REGRESSION,
        paper_records=_PAPER_RECORDS["allstate"],
        noise=0.5,
        seed=seed,
        comment="Insurance claim prediction",
    )


def _mq2008_spec(n_records: int, seed: int) -> DatasetSpec:
    weights = [0.5] * 10 + [0.2] * 10 + [0.0] * 26
    fields = make_numerical_fields(46, prefix="f", target_weights=weights)
    return DatasetSpec(
        name="mq2008",
        fields=tuple(fields),
        n_records=n_records,
        task=TaskKind.RANKING,
        paper_records=_PAPER_RECORDS["mq2008"],
        noise=0.4,
        seed=seed,
        comment="Supervised ranking",
    )


def _flight_spec(n_records: int, seed: int) -> DatasetSpec:
    fields: list[FieldSpec] = []
    for i, cards in enumerate(_FLIGHT_CARDINALITIES):
        fields.append(
            FieldSpec(
                name=f"cat{i}",
                kind=FieldKind.CATEGORICAL,
                n_categories=cards,
                skew=1.2,
                missing_rate=0.01,
                target_weight=1.5 if i < 4 else 0.5,
            )
        )
    fields.extend(make_numerical_fields(1, prefix="num", target_weights=[0.1]))
    return DatasetSpec(
        name="flight",
        fields=tuple(fields),
        n_records=n_records,
        task=TaskKind.BINARY,
        paper_records=_PAPER_RECORDS["flight"],
        noise=0.4,
        seed=seed,
        comment="Flight delay prediction",
    )


_BUILDERS = {
    "iot": _iot_spec,
    "higgs": _higgs_spec,
    "allstate": _allstate_spec,
    "mq2008": _mq2008_spec,
    "flight": _flight_spec,
}


def paper_records(name: str) -> int:
    """Record count the paper used for this benchmark (Table III)."""
    return _PAPER_RECORDS[_check(name)]


def paper_seq_minutes(name: str) -> float:
    """Sequential training minutes the paper reports (Table III)."""
    return _PAPER_SEQ_MINUTES[_check(name)]


def _check(name: str) -> str:
    key = name.lower()
    if key not in _BUILDERS:
        raise KeyError(f"unknown benchmark {name!r}; known: {BENCHMARK_NAMES}")
    return key


@functools.lru_cache(maxsize=256)
def dataset_spec(
    name: str,
    scale: float = DEFAULT_SIM_SCALE,
    n_records: int | None = None,
    seed: int = 7,
) -> DatasetSpec:
    """Build the spec for a named benchmark.

    ``scale`` multiplies the paper's record count; ``n_records`` overrides it
    outright.  Structure (fields, cardinalities) never changes with scale.
    Memoized: specs are immutable, and every scenario key derives one.
    """
    key = _check(name)
    if n_records is None:
        n_records = max(256, int(round(_PAPER_RECORDS[key] * scale)))
    return _BUILDERS[key](n_records, seed)


def load(
    name: str,
    scale: float = DEFAULT_SIM_SCALE,
    n_records: int | None = None,
    seed: int = 7,
) -> BinnedDataset:
    """Generate the binned dataset for a named benchmark."""
    from .synthetic import generate

    return generate(dataset_spec(name, scale=scale, n_records=n_records, seed=seed))


def table3_rows(scale: float = DEFAULT_SIM_SCALE) -> list[dict]:
    """Structural rows mirroring Table III (plus our simulated record count)."""
    rows = []
    for name in BENCHMARK_NAMES:
        spec = dataset_spec(name, scale=scale)
        rows.append(
            {
                "name": name,
                "paper_records": spec.paper_records,
                "sim_records": spec.n_records,
                "fields": spec.n_fields,
                "categorical_fields": spec.n_categorical_fields,
                "features_onehot": spec.n_features,
                "paper_seq_minutes": _PAPER_SEQ_MINUTES[name],
                "comment": spec.comment,
            }
        )
    return rows
