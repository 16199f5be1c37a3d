"""Dataset schema descriptions for the GBDT workloads.

The paper (Table III) characterizes each benchmark by the number of records,
the number of fields per record, how many of those are categorical, and the
number of features after one-hot encoding.  Booster's behaviour depends only
on these *structural* properties plus the statistical shape of the data (how
lopsided categorical splits are, how separable the target is), so the schema
layer captures exactly that and nothing else.

A *field* is a column of the raw table.  A *feature* is a column after one-hot
encoding: a numerical field contributes one feature; a categorical field with
``c`` categories contributes ``c`` one-hot features.  A *bin* is a histogram
slot: numerical fields get ``n_bins`` quantile bins plus one missing bin;
categorical fields get one bin per category plus one absent bin (the paper's
pre-processing optimization stores only the 'yes' bins and the absent bin and
reconstructs the 'no' bins by subtraction).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

__all__ = [
    "FieldKind",
    "FieldSpec",
    "DatasetSpec",
    "TaskKind",
    "DEFAULT_NUMERICAL_BINS",
]

#: Default quantile-bin count for numerical fields, *excluding* the missing
#: bin.  The paper discretizes into "256 bins, including one bin for records
#: with a missing field" (Sec. II-A), so 255 value bins + 1 missing bin = 256
#: total -- exactly one 2 KB / 256-entry BU SRAM (Sec. III-C).
DEFAULT_NUMERICAL_BINS = 255


class FieldKind(str, Enum):
    """Kind of a raw table column."""

    NUMERICAL = "numerical"
    CATEGORICAL = "categorical"


class TaskKind(str, Enum):
    """Learning task; selects the loss function."""

    REGRESSION = "regression"
    BINARY = "binary"
    RANKING = "ranking"  # trained as pointwise regression on relevance labels


@dataclass(frozen=True)
class FieldSpec:
    """Description of one raw field (table column).

    Parameters
    ----------
    name:
        Human-readable column name.
    kind:
        Numerical or categorical.
    n_categories:
        Number of categories for a categorical field (ignored for numerical).
    n_bins:
        Histogram bins for a numerical field, *excluding* the missing bin
        (ignored for categorical fields, whose bin count equals
        ``n_categories``).
    missing_rate:
        Fraction of records with this field absent.  The paper reserves a
        default/absent bin per field so that every record updates exactly one
        bin per field ("the higher-level fields are dense").
    skew:
        For categorical fields: Zipf-like exponent of the category popularity
        distribution.  ``0`` means uniform; larger values concentrate mass on
        the first categories, which is what makes one-vs-rest splits lopsided
        (the Allstate/Flight 99%-1% behaviour in Sec. IV).
    target_weight:
        Relative influence of this field on the synthetic target.  Fields with
        zero weight are noise.  A few high-weight fields yield early-pure
        leaves and hence shallow trees (the IoT behaviour).
    """

    name: str
    kind: FieldKind
    n_categories: int = 0
    n_bins: int = DEFAULT_NUMERICAL_BINS
    missing_rate: float = 0.0
    skew: float = 0.0
    target_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is FieldKind.CATEGORICAL:
            if self.n_categories < 2:
                raise ValueError(
                    f"categorical field {self.name!r} needs >=2 categories, "
                    f"got {self.n_categories}"
                )
        else:
            if self.n_bins < 2:
                raise ValueError(
                    f"numerical field {self.name!r} needs >=2 bins, got {self.n_bins}"
                )
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValueError(f"missing_rate must be in [0, 1), got {self.missing_rate}")
        if self.skew < 0.0:
            raise ValueError(f"skew must be >= 0, got {self.skew}")

    @property
    def is_categorical(self) -> bool:
        return self.kind is FieldKind.CATEGORICAL

    @property
    def n_features(self) -> int:
        """Features contributed after one-hot encoding."""
        return self.n_categories if self.is_categorical else 1

    @property
    def n_value_bins(self) -> int:
        """Histogram bins holding actual values (no missing/absent bin)."""
        return self.n_categories if self.is_categorical else self.n_bins

    @cached_property
    def n_total_bins(self) -> int:
        """Value bins plus the one missing/absent bin (computed once)."""
        return self.n_value_bins + 1

    @property
    def missing_bin(self) -> int:
        """Bin index used for records where this field is absent."""
        return self.n_value_bins


@dataclass(frozen=True)
class DatasetSpec:
    """Full structural description of a benchmark dataset.

    ``n_records`` is the instantiated record count; ``paper_records`` records
    the size the paper used so the registry can report the scale factor.
    """

    name: str
    fields: tuple[FieldSpec, ...]
    n_records: int
    task: TaskKind = TaskKind.BINARY
    paper_records: int = 0
    noise: float = 0.1
    seed: int = 0
    comment: str = ""

    def __post_init__(self) -> None:
        if self.n_records <= 0:
            raise ValueError(f"n_records must be positive, got {self.n_records}")
        if len(self.fields) == 0:
            raise ValueError("dataset needs at least one field")
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in dataset {self.name!r}")

    # -- structural aggregates -------------------------------------------------

    @property
    def n_fields(self) -> int:
        return len(self.fields)

    @property
    def n_categorical_fields(self) -> int:
        return sum(1 for f in self.fields if f.is_categorical)

    @property
    def n_numerical_fields(self) -> int:
        return self.n_fields - self.n_categorical_fields

    @property
    def n_features(self) -> int:
        """Features after one-hot encoding (Table III column)."""
        return sum(f.n_features for f in self.fields)

    @cached_property
    def n_total_bins(self) -> int:
        """Total histogram bins across fields (group-by-field view; computed
        once per spec)."""
        return sum(f.n_total_bins for f in self.fields)

    def with_records(self, n_records: int) -> "DatasetSpec":
        """Return a copy with an explicit record count."""
        return DatasetSpec(
            name=self.name,
            fields=self.fields,
            n_records=n_records,
            task=self.task,
            paper_records=self.paper_records,
            noise=self.noise,
            seed=self.seed,
            comment=self.comment,
        )


def make_numerical_fields(
    count: int,
    prefix: str = "num",
    n_bins: int = DEFAULT_NUMERICAL_BINS,
    missing_rate: float = 0.0,
    target_weights: Sequence[float] | None = None,
) -> list[FieldSpec]:
    """Convenience constructor for a block of numerical fields."""
    weights = list(target_weights) if target_weights is not None else []
    out = []
    for i in range(count):
        w = weights[i] if i < len(weights) else 0.0
        out.append(
            FieldSpec(
                name=f"{prefix}{i}",
                kind=FieldKind.NUMERICAL,
                n_bins=n_bins,
                missing_rate=missing_rate,
                target_weight=w,
            )
        )
    return out
