"""Run one ``repro`` command with per-layer timers around its public entry points.

Usage (``perfbench/run.py`` does this for its traced iteration)::

    PERFBENCH_TRACE_DIR=DIR PERFBENCH_SPAWN_T=<time.time() at spawn> \\
        python perfbench/launch.py <repro arguments...>

The launcher imports ``repro.cli``, wraps the layer boundaries listed in
``install()`` -- each patched where its caller looks it up -- and then calls
``repro.cli.main(argv)``.  Nothing under ``src/`` is modified.  Every
process of the command (the CLI process and any forked pool workers)
writes one JSON file of per-span totals into ``DIR`` when it exits.

Span rules:

* only a span name's outermost call is counted (a binning call made from
  inside another binning call adds neither time nor a call);
* a span's self time is its duration minus the time of the spans nested
  directly inside it, whatever their names;
* each thread keeps its own span stack (lease renewal runs in a thread).
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import threading
import time
import uuid
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    """Per-process span totals, reset in forked children."""

    def __init__(self) -> None:
        self.main_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.lock = threading.Lock()
        self.local = threading.local()
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.flushed = False

    def _stack(self) -> list[list]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack())

    def count(self, name: str, amount: float = 1) -> None:
        with self.lock:
            self.counts[name] += amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_call: Callable[[tuple, dict], None] | None = None,
        on_result: Callable[[Any], None] | None = None,
    ) -> Callable:
        """``fn`` timed under span ``name``; hooks run for outermost calls only."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            if any(frame[0] == name for frame in stack):
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with self.lock:
                    self.total[name] += elapsed
                    self.self_time[name] += elapsed - frame[1]
                    self.calls[name] += 1
                    if failed:
                        self.counts[name + ".errors"] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def flush(self, import_s: float | None = None) -> None:
        """Write this process's totals once (``PERFBENCH_TRACE_DIR``)."""
        if self.flushed:
            return
        self.flushed = True
        out_dir = os.environ.get("PERFBENCH_TRACE_DIR")
        if not out_dir:
            return
        payload = {
            "pid": os.getpid(),
            "main": os.getpid() == self.main_pid,
            "import_s": import_s,
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
        path = os.path.join(out_dir, f"{os.getpid()}-{uuid.uuid4().hex[:8]}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)


TRACER = Tracer()


def _patch_method(cls: type, name: str, span: str, **hooks: Any) -> None:
    fn = cls.__dict__.get(name)
    if fn is None or getattr(fn, "__isabstractmethod__", False):
        return
    setattr(cls, name, TRACER.wrap(span, fn, **hooks))


def _patch_inherited(cls: type, name: str, span: str, **hooks: Any) -> None:
    """Wrap ``cls.name`` even when ``cls`` inherits it (set on ``cls`` only)."""
    setattr(cls, name, TRACER.wrap(span, getattr(cls, name), **hooks))


def install() -> None:
    """Wrap every traced layer boundary (see the module docstring)."""
    from repro.baselines import base as baselines_base
    from repro.baselines.gpu import IdealGPU, RealGPU
    from repro.baselines.interrecord import InterRecordAccelerator
    from repro.baselines.multicore import IdealMulticore, RealMulticore, SequentialCPU
    from repro.core.engine import BoosterEngine
    from repro.experiments import pipeline
    from repro.experiments.backend import HTTPBackend, LocalBackend
    from repro.experiments.cache import KeyedStore, ProfileCache, ResultStore
    from repro.experiments.steal import Coordinator
    from repro.gbdt.histogram import HistogramBuilder
    from repro.gbdt.predict import EnsemblePredictor
    from repro.gbdt.split import SplitSearcher
    from repro.gbdt.tree import Tree
    from repro.memory.dram import DRAMSimulator
    from repro.sim import executor

    wrap = TRACER.wrap
    # Module-level functions, patched in the modules that call them.
    pipeline.generate = wrap("datasets.generate", pipeline.generate)
    pipeline.train = wrap("gbdt.train", pipeline.train)
    executor.bandwidth_profile = wrap("memory.calibrate", executor.bandwidth_profile)
    baselines_base.bandwidth_profile = wrap(
        "memory.calibrate", baselines_base.bandwidth_profile
    )
    executor.build_arrivals = wrap("serving.arrivals", executor.build_arrivals)
    executor.simulate = wrap(
        "serving.simulate",
        executor.simulate,
        on_call=lambda args, kwargs: TRACER.count("serving.requests", len(args[0])),
    )
    executor.summarize = wrap("serving.summarize", executor.summarize)

    # gbdt: every public builder and searcher method, traversal, inference.
    for name in ("build", "build_grouped", "build_grouped_arrays"):
        _patch_method(HistogramBuilder, name, "gbdt.binning")
    for name in ("best_split", "best_split_many"):
        _patch_method(SplitSearcher, name, "gbdt.split")
    _patch_method(Tree, "predict", "gbdt.traversal")
    _patch_method(EnsemblePredictor, "inference_work", "gbdt.inference_work")

    _patch_method(DRAMSimulator, "run", "memory.dram_run")

    # Hardware-model pricing (the baselines and core models).
    for cls in (
        baselines_base.HardwareModel,
        SequentialCPU,
        IdealMulticore,
        RealMulticore,
        IdealGPU,
        RealGPU,
        InterRecordAccelerator,
        BoosterEngine,
    ):
        _patch_method(cls, "training_times", "pricing.training")
        _patch_method(cls, "inference_seconds", "pricing.inference")

    # Store: the keyed cache/result stores and both backends.
    def on_store_get(result: Any) -> None:
        if result is not None:
            TRACER.count("store.hits")

    for cls in (KeyedStore, ProfileCache, ResultStore):
        _patch_method(cls, "get", "store.get", on_result=on_store_get)
        _patch_method(cls, "put", "store.put")

    def count_written(args: tuple, kwargs: dict) -> None:
        data = args[2] if len(args) > 2 else kwargs.get("data", b"")
        if TRACER.active("store.put"):
            TRACER.count("store.put_bytes", len(data))

    for cls in (LocalBackend, HTTPBackend):
        for name in ("get", "get_entry", "contains", "list", "delete", "delete_if", "sweep_tmp"):
            _patch_inherited(cls, name, "backend")
        for name in ("put", "create"):
            _patch_inherited(cls, name, "backend", on_call=count_written)

    # Lease coordinator.
    def on_claim(won: bool) -> None:
        if won:
            TRACER.count("lease.won")

    _patch_method(Coordinator, "claim", "lease.claim", on_result=on_claim)
    _patch_method(Coordinator, "renew", "lease.renew")
    _patch_method(Coordinator, "mark_done", "lease.done")
    _patch_method(Coordinator, "release", "lease.release")


def _child_after_fork() -> None:
    TRACER.reset()


def _register_worker_flush(tracer: Tracer) -> None:
    # Runs in multiprocessing children after their finalizer registry was
    # cleared; the finalizer fires from the worker's normal exit path.
    multiprocessing.util.Finalize(None, tracer.flush, exitpriority=10)


def main(argv: list[str]) -> int:
    spawned = float(os.environ.get("PERFBENCH_SPAWN_T", time.time()))
    import repro.cli

    install()
    os.register_at_fork(after_in_child=_child_after_fork)
    multiprocessing.util.register_after_fork(TRACER, _register_worker_flush)
    import_s = time.time() - spawned
    try:
        return repro.cli.main(argv)
    except SystemExit as exc:  # argparse errors exit from inside main
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        TRACER.flush(import_s=import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
