"""Pin ``extra_scale`` composition across the inference-cost paths.

``Executor.profile`` applies the paper extrapolation and the extra record
scale as one combined ``scaled(k * extra_scale)`` call; the audit question
was whether ``Executor.inference`` (and, by extension, ``serve``'s
per-batch costing) composes the same way or double-applies one factor.
These tests pin the answer -- every path applies the combined factor
exactly once -- so a future refactor that regresses to double scaling
fails loudly instead of silently shifting every published speedup.
"""

from __future__ import annotations

import pytest

from repro.sim.executor import PAPER_TREES

DATASET = "mq2008"
SCALE = 3.0


def _paper_work(executor, dataset, n_trees=PAPER_TREES):
    """The unscaled inference work exactly as the executor derives it."""
    return executor.train_result(dataset).profile.inference_work(n_trees)


class TestInferenceComposition:
    def test_extra_scale_applied_once_with_paper_extrapolation(self, executor):
        work = _paper_work(executor, DATASET)
        combined = work.scaled(work.spec.paper_records / work.n_records * SCALE)
        result = executor.inference(DATASET, extra_scale=SCALE)
        for name, seconds in result.seconds.items():
            assert seconds == executor.model(name).inference_seconds(combined)

    def test_double_application_would_be_caught(self, executor):
        """The regression the audit feared: paper factor and extra_scale
        each applied in their own ``scaled()`` call compounds them."""
        work = _paper_work(executor, DATASET)
        k = work.spec.paper_records / work.n_records
        double = work.scaled(k * SCALE).scaled(SCALE)
        once = work.scaled(k * SCALE)
        assert double.n_records != once.n_records
        result = executor.inference(DATASET, extra_scale=SCALE)
        booster = executor.model("booster")
        assert result.seconds["booster"] == booster.inference_seconds(once)
        assert result.seconds["booster"] != booster.inference_seconds(double)

    def test_profile_and_inference_agree_on_effective_records(self, executor):
        """Both paths must price the same effective record count for the
        same ``extra_scale`` -- the cross-path consistency the sweep axes
        assume when they scale training and inference work together."""
        prof = executor.profile(DATASET, extra_scale=SCALE)
        work = _paper_work(executor, DATASET)
        scaled = work.scaled(work.spec.paper_records / work.n_records * SCALE)
        assert scaled.n_records == prof.n_records

    def test_unit_scale_is_identity_composition(self, executor):
        work = _paper_work(executor, DATASET)
        paper_only = work.scaled(work.spec.paper_records / work.n_records)
        result = executor.inference(DATASET)
        booster = executor.model("booster")
        assert result.seconds["booster"] == booster.inference_seconds(paper_only)


class TestServeComposition:
    def test_serve_batch_costs_share_the_inference_work_model(self, executor):
        """``serve`` prices a batch of n records as the paper work rescaled
        to ``n * extra_scale`` records -- the same one-shot composition, so
        serving latencies and Fig. 13 batch times share one cost model."""
        from repro.serving import ServingParams

        params = ServingParams(qps=200.0, duration_s=0.5, policy="batch", max_batch=4)
        result = executor.serve(DATASET, serving=params, extra_scale=SCALE)
        base = _paper_work(executor, DATASET)
        booster = executor.model("booster")
        stats = result.stats("booster")
        assert stats.n_requests > 0
        # Capacity probes batch sizes {1, cap//2, cap}; recompute it from
        # the once-composed work and it must match exactly.
        expected_capacity = max(
            k / booster.inference_seconds(base.scaled(k * SCALE / base.n_records))
            for k in (1, 2, 4)
        )
        assert stats.capacity_qps == pytest.approx(expected_capacity, rel=0, abs=0)
