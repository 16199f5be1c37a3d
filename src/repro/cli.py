"""Command-line interface for the Booster reproduction.

Installed as the ``repro`` console script::

    repro datasets                      # Table III structure
    repro train higgs --trees 20        # functional training summary
    repro compare flight --scale 10     # hardware comparison (Fig. 7 style)
    repro inference iot                 # batch inference (Fig. 13 style)
    repro figures fig7 fig13            # regenerate paper artifacts
    repro sweep --dataset higgs         # accelerator design space
    repro sweep --axis n_bus=1600,3200 --out results/sweeps/bus.jsonl
    repro sweep --axis n_bus=1600,3200 --out results/sweeps/bus.jsonl --resume
    repro sweep --axis seed=1,2,3 --coordinate /shared/lease --out w1.jsonl
    repro store-serve /srv/store --port 8123     # remote store for URL sweeps
    repro sweep --axis seed=1,2,3 --coordinate http://host:8123/ --out w1.jsonl
    repro sweep --serve --axis arrival_qps=100,400 --out serve.jsonl  # latency tail
    repro steal-status /shared/lease    # who holds what, what is claimable
    repro steal-status http://host:8123/         # same ledger, over the wire
    repro merge merged.jsonl w1.jsonl w2.jsonl          # union worker manifests
    repro report --from-manifest merged.jsonl           # render, zero re-runs
    repro cache export /media/warm --axis seed=1,2,3    # seed a cold host
    repro validate                      # full reproduction claim checklist
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # annotation-only: commands lazy-import the heavy layers
    from .experiments import ScenarioSpec, SweepResult

from .datasets import BENCHMARK_NAMES, dataset_spec, generate, table3_rows
from .gbdt import TrainParams, train
from .serving.params import ARRIVAL_KINDS, POLICIES, QUEUE_DISCIPLINES
from .sim.artifacts import ARTIFACTS, build
from .sim.executor import Executor
from .sim.report import render_table

_EPILOG = """\
examples:
  repro compare flight --scale 10
  repro sweep --axis n_bus=1600,3200 --axis dataset=higgs,flight
  repro sweep --axis seed=1,2,3 --out results/sweeps/seeds.jsonl
  repro sweep --axis seed=1,2,3 --out results/sweeps/seeds.jsonl --resume
  repro sweep --axis seed=1,2,3 --coordinate /shared/lease --out w2.jsonl
  repro sweep --serve --axis arrival_qps=100,400,1600 --policy timeout
  repro merge merged.jsonl w1.jsonl w2.jsonl
  repro report --from-manifest merged.jsonl

Sweeps stream one JSONL line per scenario to --out as results complete
(failures included, as structured error lines); --resume skips every
scenario with a successful line in the manifest, and the persistent result
store (results/cache/ or $REPRO_CACHE_DIR) replays completed timings with
zero retraining and zero re-simulation.  --coordinate DIR-or-URL spreads
a sweep over workers and hosts by work stealing: workers claim scenarios
at runtime, most expensive first, through atomic lease entries in a
shared store -- a shared directory, or a `repro store-serve` URL for
hosts with no shared filesystem (crashed workers' stale leases are
reclaimed either way).  `repro steal-status DIR-or-URL` shows the live
ledger, `repro merge` unions the per-worker manifests back into one, and
`repro report --from-manifest` renders it (with the recorded wall times)
without running anything.  $REPRO_CACHE_DIR may also be a store URL, and
`repro cache export/import` push/pull entries to or from a store
directory or URL directly.
"""

__all__ = ["main", "build_parser"]


def _add_axis_options(
    parser: argparse.ArgumentParser,
    axis_help: str,
    systems_help: str,
) -> None:
    """The sweep-expansion surface shared by `sweep` and `cache export`:
    both must expand byte-identical scenarios (hence identical keys) for
    the same command line, so the flags that feed
    :func:`_expand_cli_scenarios` are declared exactly once."""
    parser.add_argument("--dataset", choices=BENCHMARK_NAMES, default="higgs")
    parser.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help=axis_help,
    )
    parser.add_argument("--systems", nargs="*", default=None, help=systems_help)


def _add_lease_ttl_option(parser: argparse.ArgumentParser, help: str) -> None:
    """`--lease-ttl SECONDS`, shared by `sweep --coordinate` and
    `steal-status` so both judge staleness on the same knob."""
    parser.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS", help=help
    )


def _add_coordinate_options(parser: argparse.ArgumentParser) -> None:
    """The work-stealing surface: `--coordinate` (a lease directory or a
    ``repro store-serve`` URL) plus its TTL knob, declared once."""
    parser.add_argument(
        "--coordinate",
        metavar="DIR_OR_URL",
        default=None,
        help="work-stealing mode: claim scenarios at runtime through atomic "
        "lease entries in this shared store (most expensive scenario "
        "first); the store is a shared directory or the URL of a `repro "
        "store-serve` process, every worker pointed at the same store "
        "drains the same sweep, and stale leases from crashed workers are "
        "reclaimed",
    )
    _add_lease_ttl_option(
        parser,
        help="with --coordinate: seconds after which an unrenewed lease "
        "counts as abandoned and may be stolen (default: 300; set it well "
        "above the longest single scenario's wall time)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Booster: An Accelerator for Gradient "
        "Boosting Decision Trees' (He, Vijaykumar, Thottethodi).",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--trees", type=int, default=10, help="boosting rounds to simulate functionally"
    )
    common.add_argument("--seed", type=int, default=7, help="dataset seed")

    # Serving-scenario knobs, shared by `sweep` and `cache export` so both
    # expand byte-identical scenarios (hence identical keys) for the same
    # command line.
    serving_opts = argparse.ArgumentParser(add_help=False)
    serve_group = serving_opts.add_argument_group("serving (with --serve)")
    serve_group.add_argument(
        "--serve",
        action="store_true",
        help="measure traffic-driven serving latency (arrival trace through "
        "a batching queue -> p50/p99/QPS) instead of training times; "
        "results persist in their own result-store namespace",
    )
    serve_group.add_argument(
        "--arrival",
        choices=ARRIVAL_KINDS,
        default="poisson",
        help="arrival process: homogeneous poisson, diurnal-modulated "
        "poisson, or a recorded trace (default: poisson)",
    )
    serve_group.add_argument(
        "--qps",
        type=float,
        default=200.0,
        help="offered load in requests/second for generated arrivals "
        "(default: 200)",
    )
    serve_group.add_argument(
        "--serve-duration",
        type=float,
        default=5.0,
        metavar="SECONDS",
        dest="serve_duration",
        help="generated-trace horizon in seconds (default: 5)",
    )
    serve_group.add_argument(
        "--policy",
        choices=POLICIES,
        default="batch",
        help="batching policy: immediate (one request per batch), batch "
        "(greedy up to --max-batch), or timeout (hold the batch open up "
        "to --batch-timeout-ms to fill; default: batch)",
    )
    serve_group.add_argument(
        "--max-batch", type=int, default=32, help="batch-size cap (default: 32)"
    )
    serve_group.add_argument(
        "--batch-timeout-ms",
        type=float,
        default=2.0,
        metavar="MS",
        help="microbatch window for --policy timeout (default: 2.0)",
    )
    serve_group.add_argument(
        "--queue",
        choices=QUEUE_DISCIPLINES,
        default="fifo",
        help="queue discipline: fifo, or priority (lower trace priority "
        "values served first; default: fifo)",
    )
    serve_group.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="replay a recorded JSONL arrival trace (implies --arrival "
        "trace; the scenario is keyed by the file's content digest, not "
        "its path)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "datasets", parents=[common], help="list the benchmark datasets (Table III)"
    )

    p_train = sub.add_parser(
        "train", parents=[common], help="functionally train one benchmark"
    )
    p_train.add_argument("dataset", choices=BENCHMARK_NAMES)
    p_train.add_argument("--records", type=int, default=None, help="override record count")

    p_cmp = sub.add_parser(
        "compare", parents=[common], help="compare hardware models on one benchmark"
    )
    p_cmp.add_argument("dataset", choices=BENCHMARK_NAMES)
    p_cmp.add_argument("--scale", type=float, default=1.0, help="extra record scaling (Fig. 12)")
    p_cmp.add_argument(
        "--systems", nargs="*", default=None, help="subset of hardware models to include"
    )

    p_inf = sub.add_parser(
        "inference", parents=[common], help="batch-inference comparison (Fig. 13)"
    )
    p_inf.add_argument("dataset", choices=BENCHMARK_NAMES)

    p_fig = sub.add_parser(
        "figures", parents=[common], help="regenerate paper tables/figures"
    )
    p_fig.add_argument(
        "names",
        nargs="*",
        default=[],
        help=f"artifacts to render (default: all of {sorted(ARTIFACTS)})",
    )

    p_sweep = sub.add_parser(
        "sweep",
        parents=[common, serving_opts],
        help="scenario sweep: cartesian axes, parallel workers, persistent cache",
        description="Without --axis, prints the classic Booster design-space "
        "table. With one or more --axis NAME=V1,V2,... arguments, expands the "
        "cartesian product into scenarios and runs them across a process "
        "pool, serving functional training and completed timing results from "
        "the persistent stores (results/cache/ or $REPRO_CACHE_DIR).  A "
        "failing scenario is reported and streamed like any other result; "
        "the rest of the sweep completes.",
    )
    _add_axis_options(
        p_sweep,
        axis_help="sweep axis (repeatable); e.g. --axis n_bus=1600,3200 "
        "--axis dataset=higgs,flight",
        systems_help="hardware models to time in each scenario",
    )
    p_sweep.add_argument(
        "--workers", type=int, default=None, help="process-pool size (default: auto)"
    )
    p_sweep.add_argument(
        "--serial", action="store_true", help="run scenarios in-process, one by one"
    )
    p_sweep.add_argument(
        "--refresh",
        action="store_true",
        help="drop cached training artifacts and stored timing results for "
        "these scenarios first",
    )
    p_sweep.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="stream results to a JSONL manifest, one line per scenario "
        "(written as each completes; failures become structured error lines)",
    )
    p_sweep.add_argument(
        "--resume",
        action="store_true",
        help="with --out: skip scenarios that already have a successful line "
        "in the manifest and run only the missing/failed ones",
    )
    p_sweep.add_argument(
        "--inference",
        action="store_true",
        help="measure batch inference (Fig. 13) instead of training times; "
        "results persist in their own result-store namespace",
    )
    _add_coordinate_options(p_sweep)

    p_status = sub.add_parser(
        "steal-status",
        help="inspect a work-stealing sweep's lease store",
        description="Summarize a --coordinate lease store (a shared "
        "directory or a `repro store-serve` URL): which scenarios are "
        "done, failed, running, or stale (claimable), and by which "
        "host/pid.  Purely a read -- nothing is claimed, stolen, or run.",
    )
    p_status.add_argument(
        "dir",
        metavar="DIR_OR_URL",
        help="the --coordinate store to inspect (directory or URL)",
    )
    _add_lease_ttl_option(
        p_status, help="staleness horizon used for display (default: 300)"
    )

    p_store_serve = sub.add_parser(
        "store-serve",
        help="serve a store directory over HTTP for --coordinate URL sweeps",
        description="Serve DIR as a remote object store speaking the "
        "StoreBackend protocol (atomic writes, create-exclusive "
        "conditional PUT, ETag-guarded DELETE), so sweep workers on hosts "
        "with no shared filesystem can point --coordinate and "
        "$REPRO_CACHE_DIR at http://HOST:PORT/.  Plain HTTP, no auth: bind "
        "it to an interface only your worker pool can reach (see "
        "docs/experiments.md, 'Remote stores').",
    )
    p_store_serve.add_argument("dir", help="store directory to serve (created if missing)")
    p_store_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    p_store_serve.add_argument(
        "--port", type=int, default=8123, help="bind port; 0 picks a free port (default: 8123)"
    )

    p_merge = sub.add_parser(
        "merge",
        help="union sweep manifests into one manifest",
        description="Merge JSONL sweep manifests (e.g. one per --coordinate "
        "worker) into OUT: lines are deduped per (sweep kind, scenario "
        "cache_key), successful lines are preferred over error lines, and manifests "
        "recorded under different simulation source (sim_code) are "
        "rejected rather than silently mixed.  Compare, inference, and "
        "serving manifests of the same sweep merge side by side.  Nothing "
        "is retrained or re-simulated.",
    )
    p_merge.add_argument("out", help="merged manifest to write")
    p_merge.add_argument("inputs", nargs="+", help="manifests to union")

    p_report = sub.add_parser(
        "report",
        help="render a sweep comparison table from a manifest (zero re-runs)",
        description="Render the comparison table for a sweep manifest "
        "(typically the output of `repro merge`): axes are inferred from "
        "the scenarios, rows keep their recorded provenance, and nothing "
        "is trained or simulated.",
    )
    p_report.add_argument(
        "--from-manifest",
        metavar="PATH",
        required=True,
        dest="from_manifest",
        help="JSONL sweep manifest to render",
    )

    p_cache = sub.add_parser(
        "cache",
        help="export/import persistent store entries between hosts",
        description="Copy store entries (trained-profile pickles, the DRAM "
        "calibration and stored results) between the local store and "
        "another store, so a warm host can seed cold ones.  The other "
        "store is a directory (a shared mount, or removable media for "
        "hosts with no network path) or the URL of a `repro store-serve` "
        "store.",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cexp = cache_sub.add_parser(
        "export",
        parents=[common, serving_opts],
        help="copy local store entries to a store directory or URL "
        "(optionally filtered to one sweep's keys)",
    )
    p_cexp.add_argument(
        "store",
        help="store directory (created if missing) or http(s):// store URL "
        "to push entries to",
    )
    _add_axis_options(
        p_cexp,
        axis_help="restrict the export to this sweep's scenarios (repeatable); "
        "without --axis every store entry is exported",
        systems_help="systems of the target sweep",
    )
    p_cimp = cache_sub.add_parser(
        "import",
        help="pull a store directory's or URL's entries into the local store",
    )
    p_cimp.add_argument(
        "store",
        help="store directory or http(s):// store URL to pull entries from",
    )

    sub.add_parser(
        "validate", parents=[common], help="run the reproduction claim checklist"
    )

    p_lint = sub.add_parser(
        "lint",
        help="run the project invariant linter (RPR rules)",
        description="AST-based checker for the invariants the orchestration "
        "stack depends on: atomic store writes, hash-stable keys, "
        "fork-safe worker state, flushed manifests, and more.  See "
        "docs/development.md for the rule catalogue and the inline "
        "'# repro: noqa RPRxxx -- reason' suppression policy.",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        default=[],
        help="files or directories to lint (default: src tests)",
    )
    p_lint.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule codes to run (e.g. RPR001,RPR005)",
    )
    return parser


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = [
        [
            r["name"],
            f"{r['paper_records'] / 1e6:.0f}M",
            r["sim_records"],
            r["fields"],
            r["categorical_fields"],
            r["features_onehot"],
            r["comment"],
        ]
        for r in table3_rows()
    ]
    print(
        render_table(
            ["name", "paper recs", "sim recs", "fields", "categ", "features", "comment"],
            rows,
            title="benchmarks (Table III structure)",
        )
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    spec = dataset_spec(args.dataset, n_records=args.records, seed=args.seed)
    data = generate(spec)
    result = train(data, TrainParams(n_trees=args.trees))
    summary = result.profile.summary()
    rows = [[k, v] for k, v in summary.items()]
    rows.append(["final loss", f"{result.losses[-1]:.5f}"])
    rows.append(["wall seconds", f"{result.profile.train_seconds_wall:.2f}"])
    print(render_table(["quantity", "value"], rows, title=f"training summary: {args.dataset}"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    ex = Executor(sim_trees=args.trees, seed=args.seed)
    cmp = ex.compare(args.dataset, systems=args.systems, extra_scale=args.scale)
    print(cmp.table())
    return 0


def _cmd_inference(args: argparse.Namespace) -> int:
    ex = Executor(sim_trees=args.trees, seed=args.seed)
    print(ex.inference(args.dataset).table())
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    ex = Executor(sim_trees=args.trees, seed=args.seed)
    names = args.names or list(ARTIFACTS)
    for name in names:
        try:
            print(build(name, ex))
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        print()
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.axis:
        return _cmd_sweep_axes(args)
    if (
        args.out
        or args.resume
        or args.inference
        or args.serve
        or args.coordinate
        or args.lease_ttl is not None
    ):
        # Silently ignoring these would leave a scripted caller waiting on a
        # manifest that never appears.
        print(
            "--out/--resume/--inference/--serve/--coordinate/--lease-ttl "
            "apply to axis sweeps; add at least one --axis NAME=V1,V2,...",
            file=sys.stderr,
        )
        return 2
    return _cmd_sweep_design_space(args)


def _resumable_results(
    path: pathlib.Path, mode: str = "compare"
) -> "dict[str, SweepResult]":
    """Parse a JSONL sweep manifest into ``(cache_key, SweepResult)`` pairs
    that are safe to resume from.

    Corrupt/partial lines are skipped (an interrupted run can leave a
    truncated final line; tolerating it is what makes ``--resume`` safe
    after any kind of crash), and so are failed results, lines of a
    different *known* sweep kind (a compare manifest cannot resume an
    inference sweep), and lines whose recorded ``sim_code`` does not match
    the running simulation source -- replaying a pre-edit timing as
    current would silently mix stale rows into the sweep.  Skipped
    scenarios simply re-run.

    A well-formed line of an *unknown* kind is different: it was written
    by a newer repro, and silently dropping it would quietly re-run (and
    re-append) work the manifest already holds.  That raises
    :class:`ValueError` instead -- forward compatibility fails loudly.
    """
    from .experiments import SWEEP_MODES, SweepResult, sim_fingerprint

    payload_fields = {"compare": "comparison", "inference": "inference", "serving": "serving"}
    payload_field = payload_fields[mode]
    pairs = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            d = json.loads(line)
        except Exception:
            continue
        if not isinstance(d, dict) or "scenario" not in d:
            continue
        kind = d.get("kind", "compare")
        if kind not in SWEEP_MODES:
            raise ValueError(
                f"manifest {path} contains result lines of unknown sweep "
                f"kind {kind!r} (written by a newer repro?); refusing to "
                "--resume -- upgrade repro or resume with a manifest this "
                "version understands"
            )
        try:
            if kind != mode:
                continue
            if d.get("error") is not None or d.get(payload_field) is None:
                continue
            if d.get("sim_code") != sim_fingerprint():
                continue
            result = SweepResult.from_dict(d)
            key = d.get("cache_key") or result.scenario.cache_key()
        except Exception:
            continue
        pairs.append((key, result))
    return pairs


def _manifest_entries(
    path: pathlib.Path,
) -> "tuple[list[tuple[dict, SweepResult]], int]":
    """Every parseable ``SweepResult`` line of a manifest (errors included).

    Returns ``(entries, skipped)`` where ``entries`` are ``(raw_dict,
    SweepResult)`` pairs in file order and ``skipped`` counts corrupt or
    partial lines (tolerated, as everywhere else manifests are read).
    """
    from .experiments import SweepResult

    entries, skipped = [], 0
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            d = json.loads(line)
            entries.append((d, SweepResult.from_dict(d)))
        except Exception:
            skipped += 1
    return entries, skipped


def _line_is_success(d: dict) -> bool:
    payload = d.get("comparison")
    if payload is None:
        payload = d.get("inference")
    if payload is None:
        payload = d.get("serving")
    return d.get("error") is None and payload is not None


def _dedupe_manifest_lines(
    pairs: "Iterable[tuple[dict, SweepResult]]",
) -> "dict[tuple[str, str], dict]":
    """Collapse manifest lines to one winner per ``(kind, cache_key)``.

    Manifests append chronologically (``--resume`` re-runs are written
    after the lines they supersede), so later lines win -- except an error
    line never replaces a success.  Across files the same rule applies in
    input order: list the freshest manifest last.  The two sweep kinds
    never collapse into each other (they are different measurements of the
    same scenario, not retries).  Returns ``(winners, order, collapsed)``
    where ``order`` is first-appearance order of the surviving keys.
    """
    best: dict[tuple, dict] = {}
    order: list[tuple] = []
    collapsed = 0
    for key, d in pairs:
        key = (d.get("kind", "compare"), key)
        if key not in best:
            best[key] = d
            order.append(key)
            continue
        collapsed += 1
        if _line_is_success(d) or not _line_is_success(best[key]):
            best[key] = d
    return best, order, collapsed


def _provenance(result: "SweepResult") -> str:
    if result.error is not None:
        return "error"
    if result.stored:
        return "stored"
    return "hit" if result.cache_hit else "trained"


def _metric_cells(result: "SweepResult") -> list[str]:
    """The per-mode measurement table cells for one sweep result.

    Compare results report booster training seconds and the speedup;
    inference results the batch milliseconds and the speedup; serving
    results the booster p50/p99 latency, sustained QPS, and p99 speedup.
    The cell count always matches :func:`_metric_headers` for the result's
    kind, and a missing booster system or baseline renders as ``-``
    instead of raising.
    """
    payload = result.payload
    if result.kind == "serving":
        systems = payload.systems if payload is not None else {}
        if "booster" not in systems:
            return ["-", "-", "-", "-"]
        st = systems["booster"]
        if payload.baseline in systems and st.p99_ms > 0:
            speedup = f"{payload.speedup('booster'):.2f}x"
        else:
            speedup = "-"
        return [
            f"{st.p50_ms:.4g}",
            f"{st.p99_ms:.4g}",
            f"{st.sustained_qps:.4g}",
            speedup,
        ]
    if result.kind == "inference":
        seconds = payload.seconds if payload is not None else {}
        metric = f"{seconds['booster'] * 1e3:.4g}" if "booster" in seconds else "-"
    else:
        seconds = payload.systems if payload is not None else {}
        metric = f"{seconds['booster'].total:.4g}" if "booster" in seconds else "-"
    if payload is not None and "booster" in seconds and payload.baseline in seconds:
        speedup = f"{payload.speedup('booster'):.2f}x"
    else:
        speedup = "-"
    return [metric, speedup]


def _metric_headers(mode: str) -> list[str]:
    """Table headers matching :func:`_metric_cells` for one sweep kind."""
    if mode == "serving":
        return ["p50 (ms)", "p99 (ms)", "QPS", "p99 speedup"]
    if mode == "inference":
        return ["booster (ms)", "speedup"]
    return ["booster (s)", "speedup"]


def _sweep_noun(mode: str) -> str:
    nouns = {"compare": "sweep", "inference": "inference sweep", "serving": "serving sweep"}
    return nouns.get(mode, f"{mode} sweep")


def _duration_cell(result: "SweepResult") -> str:
    """The recorded wall-seconds table cell (``-`` when never recorded:
    error results and manifests written before durations existed)."""
    return "-" if result.duration_s is None else f"{result.duration_s:.2f}"


def _infer_axes(scenarios: "Sequence[ScenarioSpec]") -> list[str]:
    """The axes along which ``scenarios`` actually vary (for ``report``).

    Manifests do not record the sweep's axis declarations, so the report
    derives them: every canonical axis (plus any cost field some scenario
    overrides) that takes more than one value across the scenarios becomes
    a table column.  When clusters vary but the cluster width does not,
    the derived ``n_bus`` axis is shown instead of ``n_clusters`` -- BUs
    are the paper's design-space unit.
    """
    from .experiments import CANONICAL_AXES, read_axis

    # n_bus is derived from n_clusters x bus_per_cluster; the base axes are
    # scanned and the substitution below picks the better label.
    candidates = [name for name in CANONICAL_AXES if name != "n_bus"]
    candidates += sorted(
        {name for s in scenarios for name, _ in s.cost_overrides}
    )
    varying = []
    for name in candidates:
        values = set()
        for scenario in scenarios:
            try:
                values.add(repr(read_axis(scenario, name)))
            except Exception:
                values.add("?")  # e.g. records of an unknown dataset
        if len(values) > 1:
            varying.append(name)
    if "n_clusters" in varying and "bus_per_cluster" not in varying:
        varying[varying.index("n_clusters")] = "n_bus"
    return varying or ["dataset"]


def _expand_cli_scenarios(
    args: argparse.Namespace,
) -> "tuple[dict[str, list], list[ScenarioSpec]]":
    """Validate and expand the sweep-shaped CLI inputs shared by ``sweep``
    and ``cache export``: ``--dataset/--seed/--trees/--systems``
    plus repeatable ``--axis`` specs.  Returns ``(axes, scenarios)``;
    raises ``ValueError``/``KeyError`` with a printable message, so the
    two commands cannot drift in what they accept.
    """
    from .experiments import ScenarioSpec, ServingParams, expand_axes, parse_axis_specs
    from .gbdt import TrainParams
    from .sim.executor import MODEL_NAMES

    unknown_systems = [s for s in (args.systems or []) if s not in MODEL_NAMES]
    if unknown_systems:
        raise ValueError(
            f"unknown systems {unknown_systems}; known: {list(MODEL_NAMES)}"
        )
    axes = parse_axis_specs(args.axis)
    serving = None
    if getattr(args, "serve", False):
        trace = getattr(args, "trace", None)
        kwargs = dict(
            arrival=getattr(args, "arrival", "poisson"),
            qps=getattr(args, "qps", 200.0),
            duration_s=getattr(args, "serve_duration", 5.0),
            policy=getattr(args, "policy", "batch"),
            max_batch=getattr(args, "max_batch", 32),
            timeout_ms=getattr(args, "batch_timeout_ms", 2.0),
            queue=getattr(args, "queue", "fifo"),
        )
        if trace:
            from .serving import trace_digest

            # Key the scenario by the trace's CONTENT, pinned now: the same
            # file on another host keys identically, an edited file misses.
            kwargs.update(arrival="trace", trace_path=trace, trace_sha=trace_digest(trace))
        serving = ServingParams(**kwargs)
    base = ScenarioSpec(
        dataset=args.dataset,
        seed=args.seed,
        train=TrainParams(n_trees=args.trees),
        systems=tuple(args.systems) if args.systems else (),
        serving=serving,
    )
    scenarios = expand_axes(base, axes)
    for scenario in scenarios:
        scenario.resolved_records()  # rejects unknown dataset axis values
    return axes, scenarios


def _cmd_sweep_axes(args: argparse.Namespace) -> int:
    """Scenario sweep over declared axes (the experiments layer)."""
    from .experiments import (
        SERVING_AXIS_NAMES,
        ResultStore,
        SweepRunner,
        default_cache,
        read_axis,
        result_store_key,
        scenario_key,
    )

    if args.serve and args.inference:
        print(
            "--serve and --inference select different measurements of the "
            "same scenarios; pick one (run two sweeps to get both)",
            file=sys.stderr,
        )
        return 2
    mode = "serving" if args.serve else ("inference" if args.inference else "compare")
    try:
        if args.resume and not args.out:
            raise ValueError("--resume requires --out (the manifest to resume from)")
        if args.resume and args.refresh:
            raise ValueError(
                "--refresh forces recomputation and --resume skips completed "
                "scenarios; the combination is contradictory -- drop one"
            )
        if args.coordinate and args.workers is not None:
            raise ValueError(
                "--coordinate workers run their claimed scenarios one at a "
                "time; for parallelism start more workers sharing the "
                "directory instead of passing --workers"
            )
        if args.lease_ttl is not None and not args.coordinate:
            raise ValueError("--lease-ttl only applies with --coordinate DIR_OR_URL")
        if args.lease_ttl is not None and args.lease_ttl <= 0:
            raise ValueError(
                f"--lease-ttl must be positive, got {args.lease_ttl:g}"
            )
        axes, scenarios = _expand_cli_scenarios(args)
        serving_axes = sorted(set(axes) & SERVING_AXIS_NAMES)
        if serving_axes and mode != "serving":
            raise ValueError(
                f"axes {serving_axes} are serving knobs; add --serve (a "
                "training/inference sweep would key scenarios on knobs "
                "that cannot change its measurement)"
            )
    except (KeyError, ValueError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    coordinator = None
    if args.coordinate:
        from .experiments.steal import DEFAULT_LEASE_TTL, Coordinator

        ttl = args.lease_ttl if args.lease_ttl is not None else DEFAULT_LEASE_TTL
        coordinator = Coordinator(args.coordinate, ttl=ttl)

    cache = default_cache()
    results_store = ResultStore(root=cache.root)
    if args.refresh:
        for scenario in scenarios:
            try:
                keys = (scenario.train_key(), result_store_key(scenario, mode))
            except Exception:
                # Unkeyable scenario: nothing can be stored under its key
                # anyway, and it will surface as an error result below.
                continue
            # Deliberately not guarded: a failing unlink (permissions on a
            # shared cache dir, say) must not silently replay the stale
            # result the user explicitly asked to recompute.
            cache.invalidate(keys[0])
            results_store.invalidate(keys[1])

    manifest = pathlib.Path(args.out) if args.out else None
    # Index -> result for scenarios already completed in the manifest.
    resumed: dict[int, object] = {}
    if args.resume and manifest is not None and manifest.exists():
        by_key: dict[str, list] = {}
        try:
            resumable = _resumable_results(manifest, mode)
        except ValueError as exc:
            # e.g. the manifest holds rows of a sweep kind this version
            # does not know; dropping them would silently redo that work.
            print(exc.args[0] if exc.args else exc, file=sys.stderr)
            return 2
        for key, result in resumable:
            by_key.setdefault(key, []).append(result)
        for i, scenario in enumerate(scenarios):
            bucket = by_key.get(scenario_key(scenario))
            if bucket:
                resumed[i] = bucket.pop(0)

    axis_names = list(axes)
    what = _sweep_noun(mode)
    steal_note = (
        f" (stealing from {coordinator.root}, lease TTL {coordinator.ttl:g}s)"
        if coordinator is not None
        else ""
    )
    print(
        f"{what}: {len(scenarios)} scenarios over axes "
        f"{', '.join(axis_names)}{steal_note} (cache: {cache.root})"
    )
    if resumed:
        print(
            f"resume: {len(resumed)}/{len(scenarios)} scenarios already in "
            f"{manifest}; running the remaining {len(scenarios) - len(resumed)}"
        )

    def axis_cells(scenario: "ScenarioSpec") -> list[str]:
        cells = []
        for name in axis_names:
            try:
                cells.append(str(read_axis(scenario, name)))
            except Exception:
                cells.append("?")  # e.g. records of an unknown dataset
        return cells

    def to_row(result: "SweepResult") -> list[str]:
        return axis_cells(result.scenario) + _metric_cells(result) + [
            _provenance(result),
            str(result.worker_pid),
        ]

    ordered: list[list[str] | None] = [None] * len(scenarios)
    for index, result in resumed.items():
        row = to_row(result)
        row[-2] = "resumed"  # provenance: completed in the manifest already
        ordered[index] = row

    pending = [(i, s) for i, s in enumerate(scenarios) if i not in resumed]
    manifest_fh = None
    if manifest is not None:
        manifest.parent.mkdir(parents=True, exist_ok=True)
        # An interrupted run can leave a partial final line with no trailing
        # newline; terminate it before appending so the new result line
        # doesn't fuse with the garbage into one unparseable line.
        needs_newline = (
            args.resume
            and manifest.exists()
            and manifest.stat().st_size > 0
            and not manifest.read_bytes().endswith(b"\n")
        )
        manifest_fh = open(manifest, "a" if args.resume else "w")
        if needs_newline:
            manifest_fh.write("\n")

    failures = 0
    unit = "ms" if mode == "inference" else "s"
    runner = SweepRunner(
        cache=cache,
        max_workers=args.workers,
        parallel=not args.serial and coordinator is None,
        results=results_store,
        mode=mode,
    )

    def emit(index: int | None, result: "SweepResult") -> None:
        """Record one completed result: table row, manifest line, progress."""
        nonlocal failures
        if index is not None:
            ordered[index] = to_row(result)
        if manifest_fh is not None:
            manifest_fh.write(json.dumps(result.to_dict()) + "\n")
            manifest_fh.flush()
        cells = "x".join(axis_cells(result.scenario))
        if result.error is not None:
            failures += 1
            print(f"  FAILED {cells}: {result.error}")
        else:
            label = {"hit": "cache hit"}.get(_provenance(result), _provenance(result))
            if result.kind == "serving":
                p50, p99, qps, speedup = _metric_cells(result)
                print(
                    f"  done {cells}: booster p99 {p99} ms at {qps} qps "
                    f"({speedup}) [{label}]"
                )
            else:
                metric, speedup = _metric_cells(result)
                print(f"  done {cells}: booster {metric} {unit} ({speedup}) [{label}]")

    claimed = 0
    try:
        if coordinator is not None:
            # Work-stealing mode: the lease directory decides who runs what,
            # so this worker's table holds only the scenarios it claimed
            # (plus its own resumed rows); `repro merge` over the workers'
            # manifests reassembles the whole sweep.
            slots: dict[str, list[int]] = {}
            for i, s in enumerate(scenarios):
                if i not in resumed:
                    slots.setdefault(scenario_key(s), []).append(i)
            completed_keys = {scenario_key(scenarios[i]) for i in resumed}
            try:
                for result in runner.run_stealing(
                    scenarios, coordinator, completed=completed_keys
                ):
                    claimed += 1
                    bucket = slots.get(scenario_key(result.scenario))
                    emit(bucket.pop(0) if bucket else None, result)
            except ValueError as exc:
                # e.g. the directory is coordinating a different sweep.
                print(exc.args[0] if exc.args else exc, file=sys.stderr)
                return 2
        else:
            for sub_index, result in runner.run_indexed([s for _, s in pending]):
                emit(pending[sub_index][0], result)
    finally:
        if manifest_fh is not None:
            manifest_fh.close()
    if coordinator is not None:
        distinct = len({scenario_key(s) for s in scenarios})
        print(
            f"steal: claimed {claimed}/{distinct} scenario(s) "
            f"(lease dir: {coordinator.root}, "
            f"{coordinator.stolen} stale lease(s) reclaimed)"
        )

    rows = [row for row in ordered if row is not None]
    print()
    title = (
        f"scenario sweep ({len(rows)} scenarios)"
        if mode == "compare"
        else f"{what} ({len(rows)} scenarios)"
    )
    print(
        render_table(
            axis_names + _metric_headers(mode) + ["training", "pid"],
            rows,
            title=title,
        )
    )
    if failures:
        print(f"{failures} scenario(s) failed; see the error lines above", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep_design_space(args: argparse.Namespace) -> int:
    from .core import BoosterConfig, BoosterEngine
    from .energy import AreaPowerModel

    ex = Executor(sim_trees=args.trees, seed=args.seed)
    profile = ex.profile(args.dataset)
    baseline = ex.model("ideal-32-core").training_seconds(profile)
    area = AreaPowerModel()
    rows = []
    for clusters in (5, 10, 25, 50, 100):
        cfg = BoosterConfig(n_clusters=clusters)
        engine = BoosterEngine(config=cfg, bandwidth=ex.bandwidth)
        seconds = engine.training_times(profile).total
        budget = area.estimate(n_bus=cfg.n_bus, n_clusters=clusters)
        rows.append(
            [
                cfg.n_bus,
                f"{baseline / seconds:.2f}x",
                f"{budget.total_mm2:.1f}",
                f"{budget.total_w:.1f}",
            ]
        )
    print(
        render_table(
            ["BUs", "speedup", "area mm2", "power W"],
            rows,
            title=f"design space on {args.dataset} (paper point: 3200 BUs)",
        )
    )
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    """Union sweep manifests into one manifest (pure file work).

    Lines are deduped by scenario ``cache_key`` with later-lines-supersede
    semantics (see :func:`_dedupe_manifest_lines`): a ``--resume``-healed
    failure or a re-run under edited simulation source survives as its
    freshest line only.  After deduping, the surviving lines must agree on
    ``sim_code``; mixed winners are rejected -- unioning them would
    silently mix stale rows into one table.  Mixed sweep *kinds* merge
    fine: lines dedupe per ``(kind, cache_key)``, so one manifest can hold
    the compare, inference, and serving measurements of the same sweep
    side by side (``repro report`` renders one table per kind).
    """
    from .experiments import scenario_key

    inputs = [pathlib.Path(p) for p in args.inputs]
    missing = [str(p) for p in inputs if not p.exists()]
    if missing:
        print(f"no such manifest(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    pairs = []
    skipped = 0
    for path in inputs:
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
            except Exception:
                skipped += 1  # corrupt / partial line: tolerated
                continue
            if not isinstance(d, dict) or "scenario" not in d:
                skipped += 1
                continue
            key = d.get("cache_key")
            if not isinstance(key, str):
                try:
                    from .experiments import SweepResult

                    result = SweepResult.from_dict(d)  # pre-cache_key manifest
                    key = scenario_key(result.scenario)
                except Exception:
                    skipped += 1
                    continue
            pairs.append((key, d))
    best, order, collapsed = _dedupe_manifest_lines(pairs)
    # Uniformity is judged on the WINNERS: superseded stale lines (e.g. a
    # worker resumed after a simulator edit re-ran everything and appended
    # fresh lines) must not poison an otherwise-consistent merge.
    sim_codes = {best[key].get("sim_code") for key in order}
    kinds = sorted({kind for kind, _ in order})
    if len(sim_codes) > 1:
        print(
            "refusing to merge manifests recorded under different simulation "
            f"source: sim_code {sorted(map(repr, sim_codes))}; re-run the "
            "stale sweeps (or --resume them) instead",
            file=sys.stderr,
        )
        return 2
    if not best:
        print("nothing to merge: no parseable result lines", file=sys.stderr)
        return 2

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        for key in order:
            fh.write(json.dumps(best[key]) + "\n")
            # Flush per line, like the sweep writer: an interrupted merge
            # leaves a prefix of durable lines, never a buffered torso.
            fh.flush()
    errors = sum(not _line_is_success(best[key]) for key in order)
    kinds_note = f", kinds: {'+'.join(kinds)}" if len(kinds) > 1 else ""
    print(
        f"merged {len(inputs)} manifest(s) -> {out}: {len(order)} scenarios "
        f"({len(order) - errors} ok, {errors} failed; "
        f"{collapsed} duplicate line(s) dropped, {skipped} unparseable "
        f"line(s) skipped{kinds_note})"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render a sweep table straight from a manifest: zero re-runs.

    This is the multi-host endgame: each worker streamed its own manifest,
    ``repro merge`` unioned them, and the report renders the merged rows
    without training or simulating anything.
    """
    from .experiments import SweepResult, scenario_key

    path = pathlib.Path(args.from_manifest)
    if not path.exists():
        print(f"no such manifest: {path}", file=sys.stderr)
        return 2
    raw_entries, skipped = _manifest_entries(path)
    # A resumed manifest appends healed/re-run lines after the ones they
    # supersede; render one row per scenario (the freshest), exactly as
    # merge would keep it.
    pairs = []
    for d, result in raw_entries:
        key = d.get("cache_key")
        if not isinstance(key, str):
            key = scenario_key(result.scenario)
        pairs.append((key, d))
    best, order, collapsed = _dedupe_manifest_lines(pairs)
    entries = [SweepResult.from_dict(best[key]) for key in order]
    if not entries:
        print(f"no parseable result lines in {path}", file=sys.stderr)
        return 2
    if skipped:
        print(f"note: skipped {skipped} unparseable manifest line(s)", file=sys.stderr)
    if collapsed:
        print(
            f"note: collapsed {collapsed} superseded manifest line(s)",
            file=sys.stderr,
        )

    from .experiments import read_axis
    from .sim.results import geomean

    # One table per sweep kind, in first-appearance order: a merged
    # manifest can carry the compare, inference, and serving measurements
    # of the same sweep side by side.
    by_kind: dict[str, list] = {}
    for result in entries:
        by_kind.setdefault(result.kind, []).append(result)

    failures = 0
    first = True
    for mode, group in by_kind.items():
        if not first:
            print()
        first = False
        axis_names = _infer_axes([result.scenario for result in group])
        rows = []
        speedups = []
        for result in group:
            cells = []
            for name in axis_names:
                try:
                    cells.append(str(read_axis(result.scenario, name)))
                except Exception:
                    cells.append("?")
            rows.append(
                cells
                + _metric_cells(result)
                + [_duration_cell(result), _provenance(result), str(result.worker_pid)]
            )
            failures += result.error is not None
            try:
                speedups.append(result.payload.speedup("booster"))
            except Exception:
                pass  # failed scenario, missing system, or degenerate timing
        title = (
            f"scenario sweep ({len(rows)} scenarios, from {path.name})"
            if mode == "compare"
            else f"{_sweep_noun(mode)} ({len(rows)} scenarios, from {path.name})"
        )
        print(
            render_table(
                axis_names + _metric_headers(mode) + ["wall (s)", "training", "pid"],
                rows,
                title=title,
            )
        )
        # Guarded: a manifest whose rows all failed (or lack the booster
        # system) has nothing to aggregate -- that is a note, not a
        # geomean-of-empty traceback.
        if speedups:
            print(
                f"geomean booster speedup: {geomean(speedups):.2f}x "
                f"over {len(speedups)}/{len(group)} scenario(s)"
            )
    durations = [r.duration_s for r in entries if r.duration_s is not None]
    if durations:
        print(
            f"recorded wall time: {sum(durations):.2f} s over "
            f"{len(durations)}/{len(entries)} scenario(s)"
        )
    if failures:
        print(f"{failures} scenario(s) failed in this manifest", file=sys.stderr)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """`repro cache export/import`: copy store entries to or from another store.

    The other store is a directory or the URL of a `repro store-serve`
    store: `export STORE` pushes the local store's entries there, `import
    STORE` pulls its entries into the local store.
    """
    from .experiments import default_cache
    from .experiments.backend import is_store_url
    from .experiments.cache import copy_entries

    cache = default_cache()
    if cache.root is None:  # pragma: no cover - default cache is always rooted
        print("the default cache has no disk root; nothing to move", file=sys.stderr)
        return 2
    other = args.store
    local_path = None if is_store_url(other) else pathlib.Path(other)
    if args.cache_command == "import":
        if local_path is not None and not local_path.is_dir():
            print(f"no such store directory: {other}", file=sys.stderr)
            return 2
        try:
            imported = copy_entries(other, cache.root)
        except (OSError, ValueError) as exc:
            print(f"cannot read store {other}: {exc}", file=sys.stderr)
            return 2
        print(f"imported {len(imported)} entr(ies) from {other} into {cache.root}")
        return 0

    if local_path is not None and local_path.exists() and not local_path.is_dir():
        print(f"not a store directory: {other}", file=sys.stderr)
        return 2
    keys = None
    if args.axis:
        from .experiments import SWEEP_MODES, result_store_key
        from .memory.profile import calibration_key

        try:
            _, scenarios = _expand_cli_scenarios(args)
            # The DRAM calibration every executor loads from the store.
            keys = {calibration_key()}
            for scenario in scenarios:
                keys.add(scenario.train_key())
                keys.update(result_store_key(scenario, mode) for mode in SWEEP_MODES)
        except (KeyError, ValueError) as exc:
            print(exc.args[0] if exc.args else exc, file=sys.stderr)
            return 2
    scope = "matching the sweep" if keys is not None else "in the store"
    try:
        exported = copy_entries(cache.root, other, keys=keys)
    except OSError as exc:
        print(f"cannot write store {other}: {exc}", file=sys.stderr)
        return 2
    print(f"exported {len(exported)} entr(ies) {scope} -> {other}")
    return 0


def _cmd_steal_status(args: argparse.Namespace) -> int:
    """Render a work-stealing lease store: the sweep's live ledger.

    The target is a lease directory or a `repro store-serve` URL; either
    way the listing goes through the coordinator's store backend, so this
    renders exactly what a stealing worker would see.
    """
    import time

    from .experiments.steal import DEFAULT_LEASE_TTL, steal_status

    ttl = args.lease_ttl if args.lease_ttl is not None else DEFAULT_LEASE_TTL
    if ttl <= 0:
        print(f"--lease-ttl must be positive, got {ttl:g}", file=sys.stderr)
        return 2
    status = steal_status(args.dir, ttl=ttl)
    if status is None:
        print(f"no such lease store (or unreachable): {args.dir}", file=sys.stderr)
        return 2
    now = time.time()
    rows = []
    for lease, state in status["rows"]:
        # For finished scenarios `renewed` is the completion stamp, so
        # renewed-started is the held wall time; for running ones the
        # clock is still ticking.
        wall = (lease.renewed if lease.done else now) - lease.started
        rows.append(
            [
                lease.key,
                lease.host,
                str(lease.pid or "?"),
                state,
                f"{wall:.1f}",
                f"{now - lease.renewed:.1f}",
            ]
        )
    sweep = status["sweep"]
    mode_note = f", {sweep['mode']}" if sweep and sweep.get("mode") else ""
    print(
        render_table(
            ["scenario", "host", "pid", "state", "held (s)", "renewed (s ago)"],
            rows,
            title=f"work-stealing leases: {args.dir}{mode_note}",
        )
    )
    counts = status["counts"]
    summary = (
        f"{counts['done']} done, {counts['failed']} failed, "
        f"{counts['running']} running, {counts['stale']} stale (claimable)"
    )
    if status["unclaimed"] is not None:
        summary += f", {status['unclaimed']} unclaimed of {sweep['n_scenarios']} scenario(s)"
    print(summary)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """`repro lint`: machine-check the project invariants (RPR rules)."""
    from .devtools.lint import lint_main

    return lint_main(args.paths, select=args.select)


def _cmd_store_serve(args: argparse.Namespace) -> int:
    """`repro store-serve`: serve a store directory over HTTP.

    Runs until interrupted; prints the bound URL first (with --port 0 the
    kernel picks the port, so scripts parse it from this line).
    """
    from .experiments.store_server import serve_store

    root = pathlib.Path(args.dir)
    root.mkdir(parents=True, exist_ok=True)
    server = serve_store(root, host=args.host, port=args.port)
    host, port = server.server_address[0], server.server_address[1]
    print(f"store-serve: serving {root.resolve()} at http://{host}:{port}/", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .sim.validate import report, validate_all

    ex = Executor(sim_trees=args.trees, seed=args.seed)
    claims = validate_all(ex)
    print(report(claims))
    return 0 if all(c.passed for c in claims) else 1


_COMMANDS = {
    "datasets": _cmd_datasets,
    "train": _cmd_train,
    "compare": _cmd_compare,
    "inference": _cmd_inference,
    "figures": _cmd_figures,
    "sweep": _cmd_sweep,
    "merge": _cmd_merge,
    "report": _cmd_report,
    "cache": _cmd_cache,
    "steal-status": _cmd_steal_status,
    "store-serve": _cmd_store_serve,
    "validate": _cmd_validate,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
