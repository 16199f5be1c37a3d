"""End-to-end benchmark of the Booster reproduction's user paths.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload cold-train --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Every measured operation is a fresh ``repro`` process started exactly as a
user would start it (``python -m repro.cli ...`` with ``PYTHONPATH=src``).
Workloads (see ``perfbench/README.md`` for why each exists):

* ``cold-train``: one ``repro sweep --workers 2`` over every registry
  dataset at two dataset seeds, from an empty store, per iteration;
* ``warm-cli``: a one-client closed loop of ``repro compare <ds>`` and
  ``repro inference <ds>`` over the five datasets against a warm store;
* ``serve-coordinated``: ``repro store-serve`` plus two
  ``repro sweep --serve --coordinate URL`` workers sharing it as cache and
  lease store, per iteration.

Each run sets up several times (``setup_s`` is the median), then repeats
the workload's iteration until ``--seconds`` of iterations have passed
(``MIN_ITERATIONS`` at least), with warm ``repro validate`` runs (15/15
claims required) in between and after.  With ``--trace 1`` it then
runs one more iteration through ``perfbench/launch.py``, which times the
calls into each layer, and reports per-layer totals instead of the
end-to-end metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  All scratch state lives
in a private directory under ``.bench_build/`` in the checkout and is
removed at exit; every child process is killed and reaped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

DATASETS = ("iot", "higgs", "allstate", "mq2008", "flight")
#: The CLI's default ``--seed``; ``repro validate`` is measured at it, so the
#: Fig. 7 / Fig. 13 errors are the ones a plain ``repro validate`` prints.
REFERENCE_SEED = 7
CLAIMS = 15
PAPER_FIG7_GEOMEAN = 11.4
PAPER_FIG13_MEAN = 45.0

SETUP_REPEATS = {"cold-train": 3, "warm-cli": 2, "serve-coordinated": 2}
#: Warm ``repro validate`` runs per run, one after each of the first timed
#: iterations; ``validate_s`` is their median.  A validate is a short
#: single process, so it needs more samples than the iterations.
VALIDATE_REPEATS = 5
#: Iterations per run even when ``--seconds`` is shorter.  They keep the
#: op-latency count, hence the tail percentile, the same on any host speed
#: (60 training scenarios: p83; 96 serving scenarios: p89; 30 commands:
#: p66).  Six iterations also average over more of the speed swings of a
#: shared host than three do.
MIN_ITERATIONS = {"cold-train": 6, "warm-cli": 3, "serve-coordinated": 6}
CMD_TIMEOUT_S = 60.0
#: Every command of a run is cut off by this many seconds after the run
#: starts, so a hung program still yields a result well inside 180 s.
RUN_BUDGET_S = 150.0
SERVER_START_TIMEOUT_S = 30.0

#: serve-coordinated: 16 serving scenarios of similar cost at high offered
#: load, so the serving simulator dominates and claim order barely matters.
#: (The ``timeout`` policy batches requests and would make half of them
#: several times cheaper, which splits op latencies into two clusters.)
SERVE_AXES = (
    "arrival_qps=12000,12800",
    "policy=immediate,batch",
    "queue=fifo,priority",
    "max_batch=16,32",
)
SERVE_DURATION_S = 3.0
SERVE_SYSTEMS = ("ideal-32-core", "booster")
SERVE_LEASE_TTL_S = 2.0
SERVE_WORKERS = 2
#: Manifest fields that record where and how fast a row ran, not what it
#: computed; they are left out of the output digest.
TIMING_FIELDS = ("duration_s", "worker_pid", "cache_hit", "stored")

#: Tail percentiles tried from the highest down (nearest rank).
TAIL_PERCENTILES = (99.9, *range(99, 49, -1))
TAIL_MIN_BEYOND = 10


class SetupError(RuntimeError):
    """The workload could not reach its timed phase; no result is printed."""


def derived_seed(seed: int, salt: str) -> int:
    """A dataset/arrival seed drawn from the workload seed (never 7)."""
    return random.Random(f"{salt}:{seed}").randrange(100, 10_000)


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile (p50 or above) with at least ten samples
    beyond it; the maximum when there are too few samples for any."""
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= TAIL_MIN_BEYOND:
            return value, f"p{pct:g}"
    return ordered[-1], "max"


# -- child processes ------------------------------------------------------------


class Child:
    """One child process in its own session, reaped with ``os.wait4`` so its
    peak RSS (including reaped pool workers) is known."""

    def __init__(self, argv: list[str], env: dict, cwd: Path, log_stem: Path) -> None:
        self.out_path = log_stem.with_suffix(".out")
        self.err_path = log_stem.with_suffix(".err")
        self.rc: int | None = None
        self.maxrss_kb = 0
        self.timed_out = False
        self.end: float | None = None
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.start = time.perf_counter()
            self.popen = subprocess.Popen(
                argv,
                env=env,
                cwd=cwd,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                start_new_session=True,
            )
        # An Event, not Thread.join/is_alive: on Python 3.11 a join that a
        # signal interrupts marks the still-running thread as stopped.
        self._exited = threading.Event()
        threading.Thread(target=self._reap, daemon=True).start()

    def _reap(self) -> None:
        try:
            _, status, usage = os.wait4(self.popen.pid, 0)
            self.end = time.perf_counter()
            self.maxrss_kb = usage.ru_maxrss
            self.rc = os.waitstatus_to_exitcode(status)
            self.popen.returncode = self.rc
        finally:
            self._exited.set()

    @property
    def alive(self) -> bool:
        return not self._exited.is_set()

    def signal_group(self, sig: int) -> None:
        if self.alive:
            try:
                os.killpg(self.popen.pid, sig)
            except ProcessLookupError:
                pass

    def wait(self, timeout: float) -> None:
        """Wait up to ``timeout`` s; past it, kill the whole process group."""
        if not self._exited.wait(timeout):
            self.timed_out = True
            self.signal_group(signal.SIGKILL)
            self._exited.wait()

    @property
    def elapsed(self) -> float:
        assert self.end is not None
        return self.end - self.start

    def stdout(self) -> str:
        return self.out_path.read_text(errors="replace")


@dataclass
class Op:
    """One measured command."""

    label: str
    child: Child
    ok: bool = True
    reasons: list[str] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return self.child.elapsed


@dataclass
class Iteration:
    """One pass of a workload's timed phase."""

    wall: float
    ops: list[Op]  # the measured commands of the iteration
    latencies: list[float]  # one per op of the workload: command or scenario
    digest: str
    work: float  # units of work done (see work_per_s)
    scenario_s: float = 0.0
    workers: int = 0


class Bench:
    """Hermetic scratch space, child bookkeeping and failure accounting."""

    def __init__(self, seed: int) -> None:
        scratch = ROOT / ".bench_build" / "perfbench"
        scratch.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"run-{seed}-", dir=scratch))
        self.children: list[Child] = []
        self.measured: list[Op] = []
        self._n = 0
        self.deadline = time.perf_counter() + RUN_BUDGET_S

    def timeout(self, limit: float) -> float:
        return max(0.1, min(limit, self.deadline - time.perf_counter()))

    def fresh(self, name: str) -> Path:
        self._n += 1
        path = self.tmp / f"{self._n:03d}-{name}"
        path.mkdir()
        return path

    def env(self, cache: str | Path | None, trace_dir: Path | None = None) -> dict:
        env = {
            k: v
            for k, v in os.environ.items()
            if not k.startswith(("REPRO_", "PERFBENCH_", "PYTHON"))
        }
        env["PYTHONPATH"] = str(ROOT / "src")
        env["TMPDIR"] = str(self.tmp)
        if cache is not None:
            env["REPRO_CACHE_DIR"] = str(cache)
        if trace_dir is not None:
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
            env["PERFBENCH_SPAWN_T"] = repr(time.time())
        return env

    def spawn(
        self,
        args: list[str],
        cache: str | Path | None,
        trace_dir: Path | None = None,
        label: str | None = None,
    ) -> Child:
        """Start ``repro <args>`` (through the launcher when traced); with
        ``label`` set, ``args`` go to the bare interpreter instead."""
        if label is not None:
            argv = [sys.executable, *args]
        elif trace_dir is not None:
            argv = [sys.executable, str(LAUNCHER), *args]
        else:
            argv = [sys.executable, "-m", "repro.cli", *args]
        self._n += 1
        stem = self.tmp / f"{self._n:03d}-{label or args[0]}"
        child = Child(argv, self.env(cache, trace_dir), self.tmp, stem)
        self.children.append(child)
        return child

    def finish(self, label: str, child: Child, timeout: float = CMD_TIMEOUT_S) -> Op:
        """Wait for a measured command and record its exit as an op."""
        timeout = self.timeout(timeout)
        child.wait(timeout)
        op = Op(label, child)
        self.measured.append(op)
        if child.timed_out:
            self.fail([op], f"timed out after {timeout:g}s")
        elif child.rc != 0:
            err = child.err_path.read_text(errors="replace").strip().splitlines()
            self.fail([op], f"exit {child.rc}: {err[-1] if err else ''}")
        return op

    def run(self, label: str, args: list[str], cache: str | Path | None, trace_dir=None) -> Op:
        return self.finish(label, self.spawn(args, cache, trace_dir))

    def run_setup(self, args: list[str], cache: str | Path | None) -> float:
        child = self.spawn(args, cache)
        child.wait(self.timeout(CMD_TIMEOUT_S))
        if child.rc != 0 or child.timed_out:
            raise SetupError(f"set-up command {' '.join(args)} failed: exit {child.rc}")
        return child.elapsed

    @staticmethod
    def fail(ops: list[Op], reason: str) -> None:
        for op in ops:
            op.ok = False
            op.reasons.append(reason)

    def close(self) -> None:
        for child in self.children:
            child.signal_group(signal.SIGKILL)
        for child in self.children:
            child.wait(30.0)
        shutil.rmtree(self.tmp, ignore_errors=True)


# -- output checks -------------------------------------------------------------------


def read_manifest(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def check_manifests(
    bench: Bench, ops: list[Op], paths: list[Path], expected: int
) -> tuple[list[dict], str]:
    """Every scenario exactly once across ``paths``, no error rows.

    Returns the rows and a digest of them without timing fields.
    """
    try:
        rows = [row for path in paths for row in read_manifest(path)]
    except ValueError as exc:
        bench.fail(ops, f"unreadable manifest line: {exc}")
        rows = []
    keys = [row.get("cache_key") for row in rows]
    if len(keys) != expected or len(set(keys)) != expected:
        bench.fail(ops, f"manifests hold {len(keys)} rows / {len(set(keys))} keys, want {expected}")
    errors = [row["cache_key"] for row in rows if row.get("error")]
    if errors:
        bench.fail(ops, f"error rows for {errors}")
    clean = [
        {k: v for k, v in row.items() if k not in TIMING_FIELDS}
        for row in sorted(rows, key=lambda r: str(r.get("cache_key")))
    ]
    return rows, digest_of(clean)


def digest_of(obj: object) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


_FIG7 = re.compile(r"Booster geomean over Ideal 32-core\s+11\.4x\s+([0-9.]+)x")
_FIG13 = re.compile(r"inference mean / IoT outlier / deep cluster\s+\S+ / \S+ / \S+\s+([0-9.]+)x")


def check_validate(bench: Bench, op: Op) -> tuple[float, float]:
    """15/15 claims, and the Fig. 7 / Fig. 13 relative errors computed from
    the measured values ``repro validate`` prints."""
    text = op.child.stdout()
    if f"{CLAIMS}/{CLAIMS} passing" not in text:
        bench.fail([op], f"validate did not pass {CLAIMS}/{CLAIMS}")
    fig7, fig13 = _FIG7.search(text), _FIG13.search(text)
    if fig7 is None or fig13 is None:
        bench.fail([op], "validate output lacks the Fig. 7 / Fig. 13 rows")
        return math.nan, math.nan
    return (
        abs(float(fig7.group(1)) - PAPER_FIG7_GEOMEAN) / PAPER_FIG7_GEOMEAN,
        abs(float(fig13.group(1)) - PAPER_FIG13_MEAN) / PAPER_FIG13_MEAN,
    )


# -- workloads -----------------------------------------------------------------------


def training_sweep_args(seeds: tuple[int, ...], out: Path | None = None) -> list[str]:
    args = [
        "sweep",
        "--workers",
        "2",
        "--axis",
        "dataset=" + ",".join(DATASETS),
        "--axis",
        "seed=" + ",".join(map(str, seeds)),
    ]
    return args + ["--out", str(out)] if out is not None else args


class ColdTrain:
    """A cold ``repro sweep --workers 2`` over every dataset, two seeds."""

    def __init__(self, bench: Bench, seed: int) -> None:
        self.bench = bench
        self.seeds = (REFERENCE_SEED, derived_seed(seed, "cold-train"))
        self.validate_store: Path | None = None

    def describe(self) -> str:
        return f"dataset seeds {self.seeds}, {len(DATASETS) * len(self.seeds)} scenarios"

    def setup(self) -> float:
        # Fresh hermetic directories plus one CLI start (`repro datasets`).
        start = time.perf_counter()
        store = self.bench.fresh("setup-store")
        self.bench.run_setup(["datasets"], store)
        return time.perf_counter() - start

    def iteration(self, trace_dir: Path | None = None) -> Iteration:
        store = self.bench.fresh("cold-store")
        out = store.parent / f"{store.name}.jsonl"
        op = self.bench.run("sweep", training_sweep_args(self.seeds, out), store, trace_dir)
        expected = len(DATASETS) * len(self.seeds)
        rows, digest = check_manifests(self.bench, [op], [out], expected)
        self.validate_store = store  # holds the seed-7 artifacts validate needs
        durations = [row.get("duration_s") or 0.0 for row in rows]
        return Iteration(
            wall=op.elapsed,
            ops=[op],
            latencies=durations,
            digest=digest,
            work=expected,
            scenario_s=sum(durations),
            workers=2,
        )


class WarmCli:
    """One client: fresh-process compare/inference over the five datasets."""

    def __init__(self, bench: Bench, seed: int) -> None:
        self.bench = bench
        self.seed = derived_seed(seed, "warm-cli")
        self.validate_store: Path | None = None

    def describe(self) -> str:
        return f"--seed {self.seed}, {2 * len(DATASETS)} commands per round"

    def setup(self) -> float:
        start = time.perf_counter()
        store = self.bench.fresh("warm-store")
        self.bench.run_setup(training_sweep_args((REFERENCE_SEED, self.seed)), store)
        self.validate_store = store
        return time.perf_counter() - start

    def iteration(self, trace_dir: Path | None = None) -> Iteration:
        ops: list[Op] = []
        outputs: list[tuple[str, str, str]] = []
        start = time.perf_counter()
        for dataset in DATASETS:
            for command in ("compare", "inference"):
                args = [command, dataset, "--seed", str(self.seed)]
                op = self.bench.run(command, args, self.validate_store, trace_dir)
                text = op.child.stdout()
                header = "dataset: " if command == "compare" else "batch inference: "
                if header + dataset not in text or "booster" not in text:
                    self.bench.fail([op], f"{command} {dataset}: no result table")
                outputs.append((command, dataset, text))
                ops.append(op)
        wall = time.perf_counter() - start
        return Iteration(
            wall=wall,
            ops=ops,
            latencies=[op.elapsed for op in ops],
            digest=digest_of(outputs),
            work=len(ops),
        )


class ServeCoordinated:
    """``repro store-serve`` plus two coordinated ``--serve`` sweep workers."""

    def __init__(self, bench: Bench, seed: int) -> None:
        self.bench = bench
        self.seed = derived_seed(seed, "serve-coordinated")
        self.validate_store: Path | None = None
        self.n_scenarios = math.prod(len(axis.split("=")[1].split(",")) for axis in SERVE_AXES)

    def describe(self) -> str:
        return (
            f"arrival seed {self.seed}, {self.n_scenarios} scenarios x "
            f"{SERVE_DURATION_S:g}s, {SERVE_WORKERS} workers"
        )

    def setup(self) -> float:
        # The template store: higgs trained at the arrival seed, plus the
        # seed-7 artifacts the closing `repro validate` reads.
        start = time.perf_counter()
        store = self.bench.fresh("template")
        self.bench.run_setup(training_sweep_args((REFERENCE_SEED, self.seed)), store)
        self.validate_store = store
        return time.perf_counter() - start

    def worker_args(self, url: str, out: Path) -> list[str]:
        args = [
            "sweep",
            "--serve",
            "--coordinate",
            url,
            "--lease-ttl",
            f"{SERVE_LEASE_TTL_S:g}",
            "--dataset",
            "higgs",
            "--seed",
            str(self.seed),
            "--serve-duration",
            f"{SERVE_DURATION_S:g}",
            "--systems",
            *SERVE_SYSTEMS,
            "--out",
            str(out),
        ]
        for axis in SERVE_AXES:
            args += ["--axis", axis]
        return args

    def start_server(self, store: Path) -> tuple[Child, str]:
        server = self.bench.spawn(
            ["store-serve", str(store), "--host", "127.0.0.1", "--port", "0"], None
        )
        deadline = time.perf_counter() + self.bench.timeout(SERVER_START_TIMEOUT_S)
        while time.perf_counter() < deadline and server.alive:
            first = server.stdout().partition("\n")
            if first[1]:
                match = re.search(r"(http://127\.0\.0\.1:\d+/)", first[0])
                if match is None:
                    break
                return server, match.group(1)
            time.sleep(0.005)
        server.signal_group(signal.SIGKILL)
        server.wait(10.0)
        raise SetupError(f"store-serve did not report its URL: {server.stdout()!r}")

    def iteration(self, trace_dir: Path | None = None) -> Iteration:
        assert self.validate_store is not None
        store = self.bench.fresh("served")
        shutil.copytree(self.validate_store, store, dirs_exist_ok=True)
        start = time.perf_counter()
        server, url = self.start_server(store)
        outs = [store.parent / f"{store.name}-w{k}.jsonl" for k in range(SERVE_WORKERS)]
        try:
            children = [self.bench.spawn(self.worker_args(url, out), url, trace_dir) for out in outs]
            ops = [self.bench.finish("serve-worker", child) for child in children]
            wall = max(op.child.end or 0.0 for op in ops) - start
        finally:
            server.signal_group(signal.SIGINT)
            server_op = self.bench.finish("store-serve", server, timeout=15.0)
        rows, digest = check_manifests(self.bench, ops + [server_op], outs, self.n_scenarios)
        requests = sum(
            stats["n_requests"]
            for row in rows
            if row.get("serving")
            for stats in row["serving"]["systems"].values()
        )
        durations = [row.get("duration_s") or 0.0 for row in rows]
        return Iteration(
            wall=wall,
            ops=ops,
            latencies=durations,
            digest=digest,
            work=requests,
            scenario_s=sum(durations),
            workers=SERVE_WORKERS,
        )


WORKLOADS = {
    "cold-train": ColdTrain,
    "warm-cli": WarmCli,
    "serve-coordinated": ServeCoordinated,
}


# -- traced run ----------------------------------------------------------------------


def collect_trace(trace_dir: Path) -> dict:
    """Sum the per-process span files written by ``launch.py``."""
    agg: dict = {"total": {}, "self": {}, "calls": {}, "counts": {}, "import_s": 0.0, "procs": 0}
    for path in sorted(trace_dir.glob("*.json")):
        data = json.loads(path.read_text())
        agg["procs"] += 1
        if data.get("main") and data.get("import_s") is not None:
            agg["import_s"] += data["import_s"]
        for section in ("total", "self", "calls", "counts"):
            for name, value in data[section].items():
                agg[section][name] = agg[section].get(name, 0) + value
    return agg


def layer_metrics(agg: dict, it: Iteration, untraced_wall: float) -> dict[str, float]:
    total, self_t, calls, counts = agg["total"], agg["self"], agg["calls"], agg["counts"]

    def t(name: str) -> float:
        return float(total.get(name, 0.0))

    def n(name: str) -> float:
        return float(calls.get(name, 0))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    gets, claims = n("store.get"), n("lease.claim")
    busy = it.workers * it.wall
    return {
        "cli.import_s": agg["import_s"],
        "datasets.generate_s": t("datasets.generate"),
        "datasets.generate_calls": n("datasets.generate"),
        "gbdt.train_s": t("gbdt.train"),
        "gbdt.train_calls": n("gbdt.train"),
        "gbdt.binning_s": t("gbdt.binning"),
        "gbdt.binning_calls": n("gbdt.binning"),
        "gbdt.split_s": t("gbdt.split"),
        "gbdt.split_calls": n("gbdt.split"),
        "gbdt.traversal_s": t("gbdt.traversal"),
        "gbdt.train_self_s": float(self_t.get("gbdt.train", 0.0)),
        "gbdt.inference_work_s": t("gbdt.inference_work"),
        "memory.calibrate_s": t("memory.calibrate"),
        "memory.calibrate_calls": n("memory.calibrate"),
        "memory.dram_runs": n("memory.dram_run"),
        "memory.dram_run_s": t("memory.dram_run"),
        "pricing.training_s": t("pricing.training"),
        "pricing.inference_s": t("pricing.inference"),
        "pricing.calls": n("pricing.training") + n("pricing.inference"),
        "serving.arrivals_s": t("serving.arrivals"),
        "serving.simulate_s": t("serving.simulate"),
        "serving.simulate_calls": n("serving.simulate"),
        "serving.requests": float(counts.get("serving.requests", 0)),
        "serving.summarize_s": t("serving.summarize"),
        "store.gets": gets,
        "store.get_s": t("store.get"),
        "store.hit_ratio": ratio(float(counts.get("store.hits", 0)), gets),
        "store.puts": n("store.put"),
        "store.put_s": t("store.put"),
        "store.put_bytes": float(counts.get("store.put_bytes", 0)),
        "backend.ops": n("backend"),
        "backend.op_s": t("backend"),
        "backend.errors": float(counts.get("backend.errors", 0)),
        "lease.claims": claims,
        "lease.claim_ratio": ratio(float(counts.get("lease.won", 0)), claims),
        "lease.claim_s": t("lease.claim"),
        "lease.renews": n("lease.renew"),
        "lease.done_s": t("lease.done"),
        "runner.scenario_s": it.scenario_s,
        "runner.idle_s": busy - it.scenario_s if busy else 0.0,
        "trace.wall_s": it.wall,
        "trace.overhead_s": it.wall - untraced_wall,
        "trace.cmd_s": sum(op.elapsed for op in it.ops),
        "trace.processes": float(agg["procs"]),
    }


def layer_shares(m: dict[str, float]) -> list[tuple[str, float]]:
    """Top-level layer seconds, largest first (nested spans excluded)."""
    layers = {
        "cli.import": m["cli.import_s"],
        "datasets.generate": m["datasets.generate_s"],
        "gbdt (train + inference_work)": m["gbdt.train_s"] + m["gbdt.inference_work_s"],
        "memory.calibrate": m["memory.calibrate_s"],
        "pricing": m["pricing.training_s"] + m["pricing.inference_s"],
        "serving (arrivals + simulate + summarize)": m["serving.arrivals_s"]
        + m["serving.simulate_s"]
        + m["serving.summarize_s"],
        "store (get + put)": m["store.get_s"] + m["store.put_s"],
        "lease (claim + done)": m["lease.claim_s"] + m["lease.done_s"],
    }
    return sorted(layers.items(), key=lambda kv: -kv[1])


# -- entry point ----------------------------------------------------------------------


def provenance(bench: Bench) -> dict:
    probe = bench.spawn(
        [
            "-c",
            "import sys, numpy; from repro.experiments.cache import sim_fingerprint; "
            "print(sim_fingerprint(), sys.version.split()[0], numpy.__version__)",
        ],
        None,
        label="provenance",
    )
    probe.wait(CMD_TIMEOUT_S)
    if probe.rc != 0:
        raise SetupError("source tree does not import: " + probe.err_path.read_text()[-500:])
    sim_code, python, numpy = probe.stdout().split()
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    return {
        "git_rev": rev or "unknown (not a git checkout)",
        "sim_code": sim_code,
        "nproc": os.cpu_count(),
        "python": python,
        "numpy": numpy,
    }


def end_to_end(
    setups: list[float], iters: list[Iteration], validates: list[Op], errors: tuple[float, float]
) -> dict[str, float]:
    latencies = [lat for it in iters for lat in it.latencies]
    tail_value, tail_label = tail(latencies)
    walls = [it.wall for it in iters]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "validate_s": statistics.median(op.elapsed for op in validates),
        "work_per_s": statistics.median(it.work / it.wall for it in iters),
        "peak_rss_mb": 0.0,
        "fig7_geomean_err": errors[0],
        "fig13_mean_err": errors[1],
    }
    print(f"  iterations: {len(iters)}  walls: {', '.join(f'{w:.3f}' for w in walls)} s")
    print(f"  setups: {', '.join(f'{s:.3f}' for s in setups)} s")
    print(f"  op latency: {len(latencies)} samples, tail = {tail_label}")
    return metrics


def declared_units() -> dict[str, dict[str, str]]:
    """Metric name -> unit for each section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        section: {metric["name"]: metric["unit"] for metric in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed last."""
    units = declared_units()
    bench = Bench(seed)
    try:
        prov = provenance(bench)
        workload = WORKLOADS[name](bench, seed)
        print(f"workload {name} seed {seed}: {workload.describe()}")
        print("  provenance: " + json.dumps(prov, sort_keys=True))

        setups = [workload.setup() for _ in range(SETUP_REPEATS[name])]

        # Spreading the validate runs between the iterations makes their
        # median sample the whole run rather than one moment of the host.
        iters: list[Iteration] = []
        validates: list[Op] = []
        while time.perf_counter() < bench.deadline and (
            len(iters) < MIN_ITERATIONS[name] or sum(it.wall for it in iters) < seconds
        ):
            iters.append(workload.iteration())
            if len(validates) < VALIDATE_REPEATS:
                validates.append(bench.run("validate", ["validate"], workload.validate_store))
        while len(validates) < VALIDATE_REPEATS:
            validates.append(bench.run("validate", ["validate"], workload.validate_store))
        errors = check_validate(bench, validates[0])
        for op in validates[1:]:
            check_validate(bench, op)
        if len({op.child.stdout() for op in validates}) != 1:
            bench.fail(validates, "validate output differs between runs")

        checked = list(iters)
        if trace:
            trace_dir = bench.fresh("trace")
            checked.append(workload.iteration(trace_dir))
        if len({it.digest for it in checked}) != 1:
            bench.fail(
                [op for it in checked for op in it.ops],
                "output digest differs between iterations",
            )
        print(f"  output digest: {iters[0].digest} ({len(checked)} iterations)")

        values = end_to_end(setups, iters, validates, errors)
        values["peak_rss_mb"] = max(op.child.maxrss_kb for op in bench.measured) / 1024.0
        section = "end_to_end"
        if trace:
            values = layer_metrics(collect_trace(trace_dir), checked[-1], values["wall_s"])
            section = "per_layer"
            print("  layer shares of the traced iteration:")
            shares = layer_shares(values)
            top = sum(v for _, v in shares) or 1.0
            for layer_name, secs in shares:
                print(f"    {layer_name:45s} {secs:9.3f} s  {100 * secs / top:5.1f}%")
            if values["trace.cmd_s"]:
                startup = values["memory.calibrate_s"] + values["cli.import_s"]
                print(
                    "    (memory.calibrate + cli.import) / command time = "
                    f"{startup / values['trace.cmd_s']:.3f}"
                )
        report = {k: {"value": values[k], "unit": unit} for k, unit in units[section].items()}
        for k, v in report.items():
            print(f"  {k} = {v['value']:.6g} {v['unit']}")

        failed = [op for op in bench.measured if not op.ok]
        for op in failed:
            print(f"  FAILED {op.label}: {'; '.join(op.reasons)}")
        return {
            "correct": not failed,
            "attempted": len(bench.measured),
            "failed": len(failed),
            "metrics": report,
        }
    finally:
        bench.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills and reaps its children (``finally``).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # `store-serve` stops on SIGINT; an ignored SIGINT inherited from a
    # background shell would be inherited by it too, so install the default.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except SetupError as exc:
            print(f"set-up failed: {exc}", file=sys.stderr)
            return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        print(f"{name}: " + json.dumps(result))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
