"""Cross-module property-based tests (hypothesis) on core invariants.

These go beyond per-module unit tests: they generate random dataset shapes
and check the invariants every layer of the stack relies on -- work
conservation in the trainer, mapping completeness, timing monotonicity.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BoosterConfig, group_by_field_mapping, naive_packing_mapping
from repro.datasets import (
    DatasetSpec,
    FieldKind,
    FieldSpec,
    RecordLayout,
    TaskKind,
    generate,
)
from repro.gbdt import TrainParams, train
from tests.oracles import tree_works

# -- strategies -------------------------------------------------------------------


@st.composite
def random_specs(draw):
    """Small random mixed-type dataset specs."""
    n_num = draw(st.integers(min_value=1, max_value=5))
    n_cat = draw(st.integers(min_value=0, max_value=3))
    fields = []
    for i in range(n_num):
        fields.append(
            FieldSpec(
                name=f"n{i}",
                kind=FieldKind.NUMERICAL,
                n_bins=draw(st.integers(min_value=3, max_value=24)),
                missing_rate=draw(st.sampled_from([0.0, 0.1])),
                target_weight=draw(st.sampled_from([0.0, 0.8])),
            )
        )
    for i in range(n_cat):
        fields.append(
            FieldSpec(
                name=f"c{i}",
                kind=FieldKind.CATEGORICAL,
                n_categories=draw(st.integers(min_value=2, max_value=30)),
                skew=draw(st.sampled_from([0.0, 1.2])),
                target_weight=draw(st.sampled_from([0.0, 1.0])),
            )
        )
    n_records = draw(st.integers(min_value=64, max_value=400))
    task = draw(st.sampled_from([TaskKind.BINARY, TaskKind.REGRESSION]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return DatasetSpec(
        name="prop",
        fields=tuple(fields),
        n_records=n_records,
        task=task,
        noise=0.3,
        seed=seed,
    )


_PROP_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# -- trainer invariants --------------------------------------------------------------


class TestTrainerProperties:
    @given(random_specs())
    @_PROP_SETTINGS
    def test_work_conservation(self, spec):
        data = generate(spec)
        result = train(data, TrainParams(n_trees=2, max_depth=4))
        for tw in tree_works(result.profile):
            # Records reaching any level equal records partitioned above it.
            for d in range(1, int(tw.depth.max()) + 1):
                above = tw.n_reach[(tw.depth == d - 1) & tw.is_split].sum()
                here = tw.n_reach[tw.depth == d].sum()
                assert above == here
            # Roots always see every record.
            assert tw.n_reach[tw.depth == 0][0] == spec.n_records

    @given(random_specs())
    @_PROP_SETTINGS
    def test_loss_never_increases(self, spec):
        data = generate(spec)
        result = train(data, TrainParams(n_trees=3, max_depth=3))
        assert np.all(np.diff(result.losses) <= 1e-9)

    @given(random_specs())
    @_PROP_SETTINGS
    def test_trees_structurally_valid(self, spec):
        data = generate(spec)
        result = train(data, TrainParams(n_trees=2, max_depth=3))
        for t in result.trees:
            t.validate()
            assert t.max_depth <= 3

    @given(random_specs())
    @_PROP_SETTINGS
    def test_predictions_finite(self, spec):
        data = generate(spec)
        result = train(data, TrainParams(n_trees=2, max_depth=3))
        pred = result.predict(data.codes)
        assert np.all(np.isfinite(pred))


# -- mapping invariants ------------------------------------------------------------------


class TestMappingProperties:
    CFG = BoosterConfig()

    @given(random_specs())
    @_PROP_SETTINGS
    def test_every_bin_placed_exactly_once(self, spec):
        m = naive_packing_mapping(spec, self.CFG)
        # Total expected load equals the field count: one update per field
        # per record, fully distributed over the SRAMs.
        assert m.sram_load.sum() == pytest.approx(spec.n_fields)

    @given(random_specs())
    @_PROP_SETTINGS
    def test_group_by_field_never_serializes(self, spec):
        m = group_by_field_mapping(spec, self.CFG)
        assert m.serialization == 1.0
        assert np.all(m.sram_load <= 1.0 + 1e-12)

    @given(random_specs())
    @_PROP_SETTINGS
    def test_naive_capacity_never_exceeded(self, spec):
        m = naive_packing_mapping(spec, self.CFG)
        entries = self.CFG.sram_entries(8)
        assert m.srams_per_copy * entries >= spec.n_total_bins

    @given(random_specs())
    @_PROP_SETTINGS
    def test_throughput_ordering(self, spec):
        # Naive packing can nose ahead by a floor-rounding sliver when all
        # fields are tiny (denser packing wins back replica rounding), which
        # is exactly the paper's extension-(4) observation that packing "may
        # not reduce overall throughput" when SRAM throughput is to spare.
        # Beyond that sliver, group-by-field must never lose.
        g = group_by_field_mapping(spec, self.CFG)
        n = naive_packing_mapping(spec, self.CFG)
        assert n.throughput_records_per_cycle(8) <= g.throughput_records_per_cycle(8) * 1.01


# -- timing monotonicity ---------------------------------------------------------------------


class TestTimingProperties:
    @given(st.sampled_from(["iot", "higgs", "allstate", "mq2008", "flight"]),
           st.floats(min_value=1.5, max_value=20.0))
    @settings(max_examples=10, deadline=None)
    def test_more_records_never_faster(self, executor, name, factor):
        base = executor.profile(name)
        big = executor.profile(name, extra_scale=factor)
        for system in ("ideal-32-core", "booster", "ideal-gpu"):
            model = executor.model(system)
            assert model.training_seconds(big) >= model.training_seconds(base)

    @given(st.sampled_from(["higgs", "flight"]))
    @settings(max_examples=4, deadline=None)
    def test_booster_time_bounded_below_by_memory(self, executor, name):
        # Rate-matching sanity: Booster can never beat the raw DRAM time of
        # its column-format byte footprint.
        prof = executor.profile(name)
        engine = executor.model("booster")
        layout = RecordLayout(prof.spec)
        floor = engine.mem_seconds(
            prof.step1_bytes(layout)
            + prof.step3_bytes(layout, column_format=True)
            + prof.step5_bytes(layout, column_format=True)
        )
        assert engine.training_seconds(prof) >= floor
