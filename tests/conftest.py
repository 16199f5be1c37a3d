"""Shared fixtures: tiny datasets, cached training runs, cached DRAM profile.

Heavy artifacts (a trained ensemble, the DRAM bandwidth calibration, the
paper-shape executor) are session-scoped so the whole suite trains each thing
exactly once.
"""

from __future__ import annotations

import contextlib
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import (
    DatasetSpec,
    FieldKind,
    FieldSpec,
    TaskKind,
    generate,
    make_numerical_fields,
)
from repro.experiments.store_server import serve_store
from repro.gbdt import GBDTTrainer, TrainParams, train
from repro.memory import bandwidth_profile
from repro.sim import Executor


def small_spec_factory(
    n_records: int = 800,
    n_numerical: int = 6,
    n_categorical: int = 2,
    n_bins: int = 15,
    seed: int = 3,
    task: TaskKind = TaskKind.BINARY,
    missing_rate: float = 0.05,
) -> DatasetSpec:
    """A tiny mixed-type dataset for unit tests."""
    fields = make_numerical_fields(
        n_numerical,
        n_bins=n_bins,
        target_weights=[1.0, 0.8],
        missing_rate=missing_rate,
    )
    for i in range(n_categorical):
        fields.append(
            FieldSpec(
                name=f"cat{i}",
                kind=FieldKind.CATEGORICAL,
                n_categories=7 + 3 * i,
                skew=1.0,
                missing_rate=missing_rate,
                target_weight=0.6,
            )
        )
    return DatasetSpec(
        name="unit-test",
        fields=tuple(fields),
        n_records=n_records,
        task=task,
        paper_records=n_records * 1000,
        noise=0.3,
        seed=seed,
    )


@pytest.fixture(scope="session")
def small_spec():
    return small_spec_factory()


@pytest.fixture(scope="session")
def small_data(small_spec):
    return generate(small_spec)


@pytest.fixture(scope="session")
def trained(small_data):
    """A small trained ensemble + profile, shared across the suite."""
    return train(small_data, TrainParams(n_trees=6))


@pytest.fixture(scope="session")
def trainer(small_data):
    return GBDTTrainer(small_data, TrainParams(n_trees=2))


@pytest.fixture(scope="session")
def bw_profile():
    return bandwidth_profile()


@pytest.fixture(scope="session", autouse=True)
def _isolated_profile_cache(tmp_path_factory):
    """Point the default profile cache at a session-fresh directory.

    Keeps the unit suite hermetic: no artifacts are read from or written to
    the repo's ``results/cache/`` (the durable cross-session cache stays
    the default for benchmarks, examples, and the CLI).
    """
    import repro.experiments.cache as cache_mod

    previous = cache_mod._DEFAULT_CACHE
    cache_mod._DEFAULT_CACHE = cache_mod.ProfileCache(
        root=tmp_path_factory.mktemp("profile-cache")
    )
    yield
    cache_mod._DEFAULT_CACHE = previous


@pytest.fixture(scope="session")
def executor():
    """Paper-shape executor built through the scenario layer: every benchmark
    trains once for the session (served from the session's profile cache)."""
    from repro.experiments import ScenarioSpec

    return Executor(ScenarioSpec(train=TrainParams(n_trees=6)))


@pytest.fixture(scope="session")
def paper_comparisons(executor):
    """Fig. 7-style comparisons for all five benchmarks (cached)."""
    return {name: executor.compare(name) for name in executor.all_datasets()}


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@contextlib.contextmanager
def serving(root: Path, accepted: list | None = None):
    """Run ``repro store-serve`` over ``root`` in a thread; yields its URL.

    With ``accepted`` given, the client address of every connection the
    server accepts is appended to it.
    """
    server = serve_store(root)
    if accepted is not None:
        process = server.process_request

        def counting(request, client_address):
            accepted.append(client_address)
            process(request, client_address)

        server.process_request = counting
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture()
def served_url(tmp_path):
    """A live store server over a fresh directory; yields its URL."""
    with serving(tmp_path / "served") as url:
        yield url
