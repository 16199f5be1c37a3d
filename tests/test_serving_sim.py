"""Discrete-event queue semantics: policies, disciplines, saturation, and
the array path pinned to the event-loop oracle."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    POLICIES,
    QUEUE_DISCIPLINES,
    diurnal_times,
    load_trace,
    poisson_times,
    simulate,
)
from tests.oracles import simulate_oracle

COST = 0.010  # flat 10 ms per batch unless a test says otherwise
# Binary time grid: sums of grid multiples are exact, so rounded arrivals
# land exactly on completions (``t == done`` ties).
TICK = 2.0**-13
TRACE = Path(__file__).parent / "data" / "serving_trace.jsonl"


def flat_cost(n_records: int) -> float:
    return COST


def run(times, priorities=None, simulator=simulate, **overrides):
    ts = np.asarray(times, dtype=np.float64)
    ps = np.asarray(
        priorities if priorities is not None else np.zeros(ts.size), dtype=np.int64
    )
    kwargs = dict(
        policy="batch",
        max_batch=32,
        timeout_s=0.0,
        queue="fifo",
        records_per_request=1,
        service_seconds=flat_cost,
    )
    kwargs.update(overrides)
    return simulator(ts, ps, **kwargs)


class TestPolicies:
    def test_immediate_serves_one_request_per_batch(self):
        trace = run([0.0, 0.0, 0.0, 0.0], policy="immediate")
        assert trace.batch_sizes == [1, 1, 1, 1]
        # Serialized through a single server: each waits for its predecessors.
        assert trace.latencies_s.tolist() == pytest.approx([COST * k for k in (1, 2, 3, 4)])

    def test_batch_greedy_caps_at_max_batch(self):
        trace = run([0.0] * 10, max_batch=4)
        assert trace.batch_sizes == [4, 4, 2]
        assert trace.queue_depth == [(0.0, 6), (COST, 2), (2 * COST, 0)]
        assert trace.max_queue_depth == 10

    def test_timeout_holds_unfilled_window_to_deadline(self):
        trace = run([0.0], policy="timeout", max_batch=4, timeout_s=0.005)
        # Alone in the window: the server launches at the deadline.
        assert trace.latencies_s.tolist() == pytest.approx([0.005 + COST])

    def test_timeout_launches_early_once_window_fills(self):
        trace = run(
            [0.0, 0.001, 0.002, 0.5], policy="timeout", max_batch=3, timeout_s=0.005
        )
        assert trace.batch_sizes == [3, 1]
        # Window fills at t=0.002 and launches immediately -- the deadline
        # (t=0.005) never binds; the straggler waits out its own window.
        assert trace.latencies_s.tolist() == pytest.approx(
            [0.002 + COST, 0.001 + COST, COST, 0.005 + COST]
        )

    def test_zero_timeout_degenerates_to_greedy_batching(self):
        greedy = run([0.0] * 6, max_batch=4)
        timeout = run([0.0] * 6, policy="timeout", max_batch=4, timeout_s=0.0)
        assert timeout.batch_sizes == greedy.batch_sizes
        assert np.array_equal(timeout.latencies_s, greedy.latencies_s)


class TestQueueDisciplines:
    def test_fifo_serves_in_arrival_order(self):
        trace = run([0.0, 0.0, 0.0], [2, 1, 0], policy="immediate", queue="fifo")
        assert trace.latencies_s.tolist() == pytest.approx([COST, 2 * COST, 3 * COST])

    def test_priority_serves_lowest_rank_first(self):
        trace = run([0.0, 0.0, 0.0], [2, 1, 0], policy="immediate", queue="priority")
        assert trace.latencies_s.tolist() == pytest.approx([3 * COST, 2 * COST, COST])

    def test_priority_ties_break_by_arrival(self):
        trace = run([0.0, 0.0], [5, 5], policy="immediate", queue="priority")
        assert trace.latencies_s.tolist() == pytest.approx([COST, 2 * COST])


class TestMechanics:
    def test_bit_identical_across_calls(self):
        rng = np.random.default_rng(11)
        times = np.sort(rng.uniform(0.0, 1.0, size=400))
        priorities = rng.integers(0, 4, size=400)
        a = run(times, priorities, max_batch=8, queue="priority")
        b = run(times, priorities, max_batch=8, queue="priority")
        assert np.array_equal(a.latencies_s, b.latencies_s)
        assert a.batch_sizes == b.batch_sizes
        assert a.queue_depth == b.queue_depth

    def test_empty_trace(self):
        trace = run([])
        assert trace.latencies_s.size == 0
        assert trace.batch_sizes == [] and trace.queue_depth == []
        assert trace.max_queue_depth == 0

    def test_unsorted_input_is_sorted_stably(self):
        trace = run([0.5, 0.0], policy="immediate")
        # latencies_s is indexed in arrival-time order after the stable sort.
        assert trace.first_arrival_s == 0.0
        assert trace.latencies_s.tolist() == pytest.approx([COST, COST])

    def test_per_record_costs_reach_service_function(self):
        seen: list[int] = []

        def record_cost(n_records: int) -> float:
            seen.append(n_records)
            return 1e-4 * n_records

        run([0.0] * 4, max_batch=4, records_per_request=3, service_seconds=record_cost)
        assert seen == [12]  # one batch of 4 requests x 3 records each

    def test_saturation_grows_the_queue_without_bound(self):
        # Offered 1000 qps against a 100 qps server: the backlog and the
        # latency ramp are the signature the saturation verdict keys on.
        times = np.linspace(0.0, 0.999, 1000)
        trace = run(times, policy="immediate")
        assert trace.max_queue_depth > 100
        assert float(trace.latencies_s[-1]) > 50 * COST
        depths = [d for _, d in trace.queue_depth]
        assert max(depths) > depths[0]


class TestValidation:
    def test_rejects_unknown_policy_and_queue(self):
        with pytest.raises(ValueError, match="unknown batching policy"):
            run([0.0], policy="psychic")
        with pytest.raises(ValueError, match="unknown queue discipline"):
            run([0.0], queue="lifo")

    def test_rejects_bad_sizes_and_timeouts(self):
        with pytest.raises(ValueError, match=">= 1"):
            run([0.0], max_batch=0)
        with pytest.raises(ValueError, match=">= 1"):
            run([0.0], records_per_request=0)
        with pytest.raises(ValueError, match="timeout_s"):
            run([0.0], timeout_s=float("nan"))
        with pytest.raises(ValueError, match="timeout_s"):
            run([0.0], timeout_s=-1.0)

    def test_rejects_nonpositive_service_cost(self):
        with pytest.raises(ValueError, match="finite and positive"):
            run([0.0], service_seconds=lambda n: 0.0)


def assert_same_trace(got, want):
    assert np.array_equal(got.latencies_s, want.latencies_s)
    assert got.batch_sizes == want.batch_sizes
    assert got.queue_depth == want.queue_depth
    assert got.max_queue_depth == want.max_queue_depth
    assert got.first_arrival_s == want.first_arrival_s
    assert got.last_finish_s == want.last_finish_s


def _recorder(cost, seen):
    def recorded(n_records):
        seen.append(n_records)
        return cost(n_records)

    return recorded


def both(times, priorities=None, **overrides):
    """Run ``simulate`` and the oracle; return both traces and the
    ``service_seconds`` arguments each one passed."""
    cost = overrides.pop("service_seconds", flat_cost)
    calls: tuple[list[int], list[int]] = ([], [])
    got, want = (
        run(times, priorities, simulator=fn, service_seconds=_recorder(cost, seen), **overrides)
        for fn, seen in zip((simulate, simulate_oracle), calls)
    )
    return got, want, calls[0], calls[1]


def _arrivals(kind, qps, seed):
    rng = np.random.default_rng(seed)
    if kind == "trace":
        return load_trace(str(TRACE))
    if kind == "diurnal":
        times = diurnal_times(qps, 0.1, rng, amplitude=0.8, periods=2.0)
    else:
        times = poisson_times(qps, 0.1, rng)
    return times, rng.integers(0, 3, size=times.size)


class TestOracleEquivalence:
    """``simulate`` equals the heap-driven oracle to the bit, on every path."""

    @settings(max_examples=250, deadline=None)
    @given(
        arrival=st.sampled_from(["poisson", "diurnal", "trace"]),
        qps=st.sampled_from([100.0, 1000.0, 4000.0, 16000.0]),
        rounded=st.booleans(),
        ranks=st.sampled_from(["zero", "uniform", "mixed"]),
        policy=st.sampled_from(POLICIES),
        queue=st.sampled_from(QUEUE_DISCIPLINES),
        max_batch=st.integers(1, 8),
        records_per_request=st.integers(1, 3),
        shape=st.sampled_from(["flat", "affine", "sublinear", "absorbed"]),
        base_ticks=st.integers(1, 6),
        timeout_ticks=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_event_loop(
        self,
        arrival,
        qps,
        rounded,
        ranks,
        policy,
        queue,
        max_batch,
        records_per_request,
        shape,
        base_ticks,
        timeout_ticks,
        seed,
    ):
        times, priorities = _arrivals(arrival, qps, seed)
        if rounded:
            times = np.floor(times / TICK) * TICK
        if ranks == "zero":
            priorities = np.zeros(times.size, dtype=np.int64)
        elif ranks == "uniform":
            priorities = np.full(times.size, 2, dtype=np.int64)
        base = base_ticks * TICK
        costs = {
            "flat": lambda n: base,
            "affine": lambda n: base + n * TICK / 8,
            "sublinear": lambda n: base * n**0.5,
            # Below half an ulp of any arrival: ``t + cost == t``.
            "absorbed": lambda n: 1e-300 * n,
        }
        got, want, calls, oracle_calls = both(
            times,
            priorities,
            policy=policy,
            queue=queue,
            max_batch=max_batch,
            timeout_s=timeout_ticks * TICK,
            records_per_request=records_per_request,
            service_seconds=costs[shape],
        )
        assert_same_trace(got, want)
        if policy != "timeout" and (queue == "fifo" or np.all(priorities == priorities[:1])):
            # The array path prices each distinct batch size once, in the
            # order the sizes are first dispatched.
            assert calls == list(dict.fromkeys(oracle_calls))
        else:
            assert calls == oracle_calls


class TestArrayPathEdges:
    @pytest.mark.parametrize("bad", [0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("policy", ["immediate", "batch"])
    def test_bad_cost_raises_the_loop_error(self, bad, policy):
        # Under ``batch`` only the tied pair at t=0.5 (a batch of 2) is
        # mispriced, after two good single-request batches.
        def cost(n_records):
            return COST if n_records == 1 and policy == "batch" else bad

        with pytest.raises(ValueError) as got:
            run([0.0, 0.2, 0.5, 0.5], policy=policy, max_batch=4, service_seconds=cost)
        with pytest.raises(ValueError) as want:
            run(
                [0.0, 0.2, 0.5, 0.5],
                simulator=simulate_oracle,
                policy=policy,
                max_batch=4,
                service_seconds=cost,
            )
        assert str(got.value) == str(want.value)
        assert "must be finite and positive" in str(got.value)

    def test_all_batches_above_one_never_price_a_single_request(self):
        seen: list[int] = []

        def cost(n_records: int) -> float:
            seen.append(n_records)
            return COST

        trace = run(
            [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 2.0],
            max_batch=4,
            records_per_request=3,
            service_seconds=cost,
        )
        assert trace.batch_sizes == [2, 2, 3]
        assert 3 not in seen
        assert seen == [6, 9]

    @pytest.mark.parametrize("times", [[], [0.25]])
    @pytest.mark.parametrize("policy", ["immediate", "batch"])
    @pytest.mark.parametrize("queue", ["fifo", "priority"])
    def test_empty_and_single_request(self, times, policy, queue):
        got, want, calls, oracle_calls = both(times, policy=policy, queue=queue)
        assert_same_trace(got, want)
        assert calls == oracle_calls
