"""Tests for the command-line interface (repro.cli) and artifact builders."""

import pytest

from repro.cli import build_parser, main
from repro.sim.artifacts import ARTIFACTS, build, build_all


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_args(self):
        args = build_parser().parse_args(["train", "higgs", "--trees", "3"])
        assert args.command == "train"
        assert args.dataset == "higgs"
        assert args.trees == 3

    def test_compare_args(self):
        args = build_parser().parse_args(
            ["compare", "flight", "--scale", "10", "--systems", "booster"]
        )
        assert args.scale == 10.0
        assert args.systems == ["booster"]

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "mnist"])

    def test_figures_defaults_empty(self):
        args = build_parser().parse_args(["figures"])
        assert args.names == []


#: Run in a fresh interpreter: the parser and the whole `store-serve`
#: path must leave NumPy unimported (serve_forever is replaced by a probe).
LEAN_START = """
import sys
import repro.cli
loaded = sorted(m for m in sys.modules if m.startswith("repro"))
assert loaded == ["repro", "repro.cli"], loaded
repro.cli.build_parser()
assert "numpy" not in sys.modules, "build_parser imported numpy"
from repro.experiments import store_server

def probe(self, poll_interval=0.5):
    assert "numpy" not in sys.modules, "store-serve imported numpy"
    print("lean", flush=True)

store_server.StoreHTTPServer.serve_forever = probe
sys.exit(repro.cli.main(["store-serve", sys.argv[1], "--port", "0"]))
"""


class TestLeanStart:
    def test_parser_and_store_serve_do_not_import_numpy(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", LEAN_START, str(tmp_path / "store")],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("store-serve: serving ") and lines[1] == "lean"

    def test_steal_status_does_not_import_numpy(self, tmp_path):
        """`repro steal-status` reads lease stamps and renders one table:
        neither NumPy nor the serving simulator may load for it."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.experiments import Coordinator

        coordinator = Coordinator(tmp_path / "coord", ttl=60.0)
        coordinator.ensure_sweep(["sk1", "sk2"], "compare")
        coordinator.claim("sk1")
        coordinator.mark_done("sk1")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['steal-status', sys.argv[1]]) == 0\n"
            "print(sorted({'numpy', 'repro.serving.simulator'} & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "coord")],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "1 done, 0 failed" in proc.stdout
        assert lines[-1] == "[]"

    @pytest.mark.parametrize(
        "package", ["repro.datasets", "repro.serving", "repro.experiments", "repro.sim"]
    )
    def test_lazy_exports_cover_all_and_resolve(self, package):
        import importlib

        module = importlib.import_module(package)
        lazy = {name for names in module._EXPORTS.values() for name in names}
        assert lazy == set(module.__all__)
        for submodule, names in module._EXPORTS.items():
            source = importlib.import_module(f"{package}.{submodule}")
            for name in names:
                assert getattr(module, name) is getattr(source, name)


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("iot", "higgs", "allstate", "mq2008", "flight"):
            assert name in out

    def test_train(self, capsys):
        assert main(["train", "flight", "--trees", "2", "--records", "800"]) == 0
        out = capsys.readouterr().out
        assert "training summary: flight" in out
        assert "final loss" in out

    def test_train_reuses_the_stored_artifact(self, capsys, monkeypatch):
        """`repro train` reads and writes the store like every other command."""
        argv = ["train", "mq2008", "--trees", "2", "--seed", "23"]
        assert main(argv) == 0
        first = capsys.readouterr().out

        def boom(*args, **kwargs):
            raise AssertionError("the second run trained again")

        monkeypatch.setattr("repro.experiments.pipeline.train", boom)
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_compare(self, capsys):
        code = main(
            ["compare", "mq2008", "--trees", "2", "--systems", "ideal-32-core", "booster"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "booster" in out and "speedup" in out

    def test_inference(self, capsys):
        assert main(["inference", "mq2008", "--trees", "2"]) == 0
        assert "batch inference" in capsys.readouterr().out

    def test_figures_unknown_name(self, capsys):
        assert main(["figures", "fig99", "--trees", "2"]) == 2

    def test_figures_single(self, capsys):
        assert main(["figures", "table5", "--trees", "2"]) == 0
        out = capsys.readouterr().out
        assert "0.71" in out and "2.64" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--dataset", "mq2008", "--trees", "2"]) == 0
        assert "3200" in capsys.readouterr().out

    def test_sweep_axes_serial_and_warm_rerun(self, capsys, monkeypatch, tmp_path):
        import repro.experiments.cache as cache_mod

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cache_mod, "_DEFAULT_CACHE", None)
        argv = [
            "sweep",
            "--trees", "2",
            "--serial",
            "--dataset", "mq2008",
            "--axis", "max_depth=2,3",
            "--systems", "ideal-32-core", "booster",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "scenario sweep (2 scenarios)" in out
        assert out.count("[trained]") == 2
        # Identical sweep again: timing results replayed from the result
        # store -- zero retraining AND zero re-simulation.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("[stored]") == 2
        assert "[trained]" not in out

    def test_sweep_duplicate_axis_values_keep_rows(self, capsys, monkeypatch, tmp_path):
        import repro.experiments.cache as cache_mod

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cache_mod, "_DEFAULT_CACHE", None)
        assert main([
            "sweep",
            "--trees", "2",
            "--serial",
            "--dataset", "mq2008",
            "--axis", "seed=7,7",
            "--systems", "ideal-32-core", "booster",
        ]) == 0
        out = capsys.readouterr().out
        assert "scenario sweep (2 scenarios)" in out

    def _isolate_cache(self, monkeypatch, tmp_path):
        import repro.experiments.cache as cache_mod

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(cache_mod, "_DEFAULT_CACHE", None)

    SWEEP_ARGV = [
        "sweep",
        "--trees", "2",
        "--serial",
        "--dataset", "mq2008",
        "--axis", "max_depth=2,3",
        "--systems", "ideal-32-core", "booster",
    ]

    #: Appended to SWEEP_ARGV for serving-mode sweeps (short horizon so the
    #: generated arrival traces stay small).
    SERVE_ARGV = ["--serve", "--qps", "150", "--serve-duration", "1.0"]

    def test_sweep_out_writes_jsonl_manifest(self, capsys, monkeypatch, tmp_path):
        import json

        self._isolate_cache(monkeypatch, tmp_path)
        manifest = tmp_path / "sweeps" / "m.jsonl"
        assert main(self.SWEEP_ARGV + ["--out", str(manifest)]) == 0
        lines = [json.loads(l) for l in manifest.read_text().splitlines()]
        assert len(lines) == 2
        assert all(l["error"] is None for l in lines)
        assert all(l["comparison"]["systems"]["booster"]["total"] > 0 for l in lines)
        assert {l["scenario"]["train"]["max_depth"] for l in lines} == {2, 3}

    def test_sweep_resume_runs_only_missing(self, capsys, monkeypatch, tmp_path):
        """Interrupt-and-resume: the missing scenario is re-executed with
        zero training and zero simulation (replayed from the result store)."""
        import json

        self._isolate_cache(monkeypatch, tmp_path)
        manifest = tmp_path / "m.jsonl"
        argv = self.SWEEP_ARGV + ["--out", str(manifest)]
        assert main(argv) == 0
        capsys.readouterr()
        lines = manifest.read_text().splitlines()
        manifest.write_text(lines[0] + "\n")  # simulate an interrupted run

        def boom(*a, **k):
            raise AssertionError("resumed run retrained or re-simulated")

        monkeypatch.setattr("repro.experiments.pipeline.train", boom)
        monkeypatch.setattr("repro.sim.executor.Executor.__post_init__", boom)
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resume: 1/2 scenarios already in" in out
        assert out.count("[stored]") == 1
        assert "resumed" in out  # the manifest-served row's provenance
        recovered = [json.loads(l) for l in manifest.read_text().splitlines()]
        assert len(recovered) == 2
        assert recovered[1]["stored"] is True and recovered[1]["error"] is None

    def test_sweep_failure_streams_error_and_resume_retries(
        self, capsys, monkeypatch, tmp_path
    ):
        """A failing scenario streams a structured error line (exit code 1)
        without aborting the sweep; --resume re-runs only the failed one."""
        import json

        from repro.gbdt import train as real_train

        self._isolate_cache(monkeypatch, tmp_path)
        manifest = tmp_path / "m.jsonl"
        argv = self.SWEEP_ARGV + ["--out", str(manifest)]

        def flaky(data, params):
            if params.max_depth == 3:
                raise RuntimeError("injected trainer fault")
            return real_train(data, params)

        monkeypatch.setattr("repro.experiments.pipeline.train", flaky)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out and "injected trainer fault" in captured.out
        assert "1 scenario(s) failed" in captured.err
        lines = [json.loads(l) for l in manifest.read_text().splitlines()]
        assert len(lines) == 2  # the good scenario still completed + streamed
        assert sorted(l["error"] is None for l in lines) == [False, True]

        # Heal the trainer; resume re-runs exactly the failed scenario.
        monkeypatch.setattr("repro.experiments.pipeline.train", real_train)
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resume: 1/2 scenarios already in" in out
        lines = [json.loads(l) for l in manifest.read_text().splitlines()]
        assert len(lines) == 3  # appended, not rewritten
        assert lines[-1]["error"] is None
        assert lines[-1]["scenario"]["train"]["max_depth"] == 3

    def test_sweep_resume_requires_out(self, capsys):
        assert main(["sweep", "--axis", "seed=1", "--resume", "--trees", "2"]) == 2
        assert "--resume requires --out" in capsys.readouterr().err

    def test_sweep_resume_skips_stale_sim_fingerprint_lines(
        self, capsys, monkeypatch, tmp_path
    ):
        """Manifest lines recorded under different simulation source must
        not be replayed as current results: they re-run instead."""
        import repro.experiments.cache as cache_mod

        self._isolate_cache(monkeypatch, tmp_path)
        manifest = tmp_path / "m.jsonl"
        argv = self.SWEEP_ARGV + ["--out", str(manifest)]
        assert main(argv) == 0
        capsys.readouterr()
        # Pretend the simulation source changed since the manifest was
        # written (also invalidates the result store, so everything re-runs).
        monkeypatch.setattr(cache_mod, "_SIM_FINGERPRINT", "feedfacefeedface")
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resume:" not in out  # nothing was considered resumable
        assert out.count("[cache hit]") == 2  # re-simulated, training cached

    def test_sweep_out_requires_axes(self, capsys, tmp_path):
        assert main(["sweep", "--trees", "2", "--out", str(tmp_path / "m.jsonl")]) == 2
        assert "apply to axis sweeps" in capsys.readouterr().err

    def test_sweep_inference_requires_axes(self, capsys):
        assert main(["sweep", "--trees", "2", "--inference"]) == 2
        assert "apply to axis sweeps" in capsys.readouterr().err

    def test_sweep_resume_rejects_refresh(self, capsys, tmp_path):
        """--refresh forces recomputation, --resume skips completed work:
        accepting both would silently replay the manifest (stale timings)."""
        argv = self.SWEEP_ARGV + [
            "--out", str(tmp_path / "m.jsonl"), "--resume", "--refresh"
        ]
        assert main(argv) == 2
        assert "contradictory" in capsys.readouterr().err

    def test_sweep_resume_terminates_partial_manifest_line(
        self, capsys, monkeypatch, tmp_path
    ):
        """A run killed mid-write leaves a final line without a newline; the
        appended resume lines must not fuse with that garbage."""
        import json

        self._isolate_cache(monkeypatch, tmp_path)
        manifest = tmp_path / "m.jsonl"
        argv = self.SWEEP_ARGV + ["--out", str(manifest)]
        assert main(argv) == 0
        capsys.readouterr()
        lines = manifest.read_text().splitlines()
        # First line intact, second line cut mid-JSON with no trailing newline.
        manifest.write_text(lines[0] + "\n" + lines[1][:40])
        assert main(argv + ["--resume"]) == 0
        parsed = []
        for line in manifest.read_text().splitlines():
            try:
                parsed.append(json.loads(line))
            except ValueError:
                continue  # the tolerated partial-line garbage
        assert len(parsed) == 2  # original + appended, none fused
        assert parsed[-1]["error"] is None
        assert parsed[-1]["scenario"]["train"]["max_depth"] == 3

    def _tripwire_runs(self, monkeypatch):
        """Fail the test if anything trains or simulates from here on."""

        def boom(*a, **k):
            raise AssertionError("retrained or re-simulated")

        monkeypatch.setattr("repro.experiments.pipeline.train", boom)
        monkeypatch.setattr("repro.sim.executor.Executor.__post_init__", boom)

    def test_sweep_shard_merge_report_equals_unsharded(
        self, capsys, monkeypatch, tmp_path
    ):
        """Two sweeps over disjoint halves of an axis, merged, yield a
        manifest and report identical (up to line order) to the full sweep,
        with zero retraining on merge/report."""
        import json

        self._isolate_cache(monkeypatch, tmp_path)
        full = tmp_path / "full.jsonl"
        s1, s2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
        merged = tmp_path / "merged.jsonl"
        assert main(self.SWEEP_ARGV + ["--out", str(full)]) == 0
        half = ["sweep", "--trees", "2", "--serial", "--dataset", "mq2008"]
        half += ["--systems", "ideal-32-core", "booster"]
        assert main(half + ["--axis", "max_depth=2", "--out", str(s1)]) == 0
        assert main(half + ["--axis", "max_depth=3", "--out", str(s2)]) == 0
        capsys.readouterr()

        def by_key(path):
            return {
                json.loads(l)["cache_key"]: json.loads(l)
                for l in path.read_text().splitlines()
            }

        # The halves are a disjoint cover of the full sweep.
        half_lines = len(s1.read_text().splitlines()) + len(
            s2.read_text().splitlines()
        )
        assert half_lines == 2
        assert set(by_key(s1)) | set(by_key(s2)) == set(by_key(full))

        # Merge and report are pure file work: no training, no simulation.
        self._tripwire_runs(monkeypatch)
        assert main(["merge", str(merged), str(s1), str(s2)]) == 0
        full_lines, merged_lines = by_key(full), by_key(merged)
        assert set(merged_lines) == set(full_lines)
        for key, line in merged_lines.items():
            assert line["error"] is None
            assert line["scenario"] == full_lines[key]["scenario"]
            assert line["comparison"] == full_lines[key]["comparison"]
        assert main(["report", "--from-manifest", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "scenario sweep (2 scenarios" in out
        assert "max_depth" in out  # the varying axis was inferred

    def test_sweep_resume_skips_alias_respelled_manifest(
        self, capsys, monkeypatch, tmp_path
    ):
        """Regression: a manifest written by a `trees=` sweep must fully
        resume an `n_trees=` invocation of the same sweep (axis aliases
        canonicalize at parse time; scenario keys hash content)."""
        self._isolate_cache(monkeypatch, tmp_path)
        manifest = tmp_path / "m.jsonl"
        base = [
            "sweep",
            "--trees", "2",
            "--serial",
            "--dataset", "mq2008",
            "--systems", "ideal-32-core", "booster",
            "--out", str(manifest),
        ]
        assert main(base + ["--axis", "trees=3,4"]) == 0
        out = capsys.readouterr().out
        assert "axes n_trees" in out  # canonical label, not the raw alias
        self._tripwire_runs(monkeypatch)
        assert main(base + ["--axis", "n_trees=3,4", "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resume: 2/2 scenarios already in" in out

    def test_sweep_bad_shard_spec(self, capsys):
        """Work stealing is the one multi-host path: every --shard spec,
        well-formed or not, is an argparse usage error."""
        for spec in ("1/2", "3/2", "0/2", "x/2", "2"):
            argv = ["sweep", "--axis", "seed=1", "--shard", spec, "--trees", "2"]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments: --shard" in capsys.readouterr().err

    def test_sweep_shard_requires_axes(self, capsys, tmp_path):
        """Without axes --shard is still a usage error, and the scale-out
        flag that replaced it, --coordinate, applies to axis sweeps only."""
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--trees", "2", "--shard", "1/2"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        coord = tmp_path / "coord"
        assert main(["sweep", "--trees", "2", "--coordinate", str(coord)]) == 2
        assert "apply to axis sweeps" in capsys.readouterr().err
        assert not coord.exists()

    def test_merge_prefers_success_over_error(self, capsys, monkeypatch, tmp_path):
        import json

        from repro.gbdt import train as real_train

        self._isolate_cache(monkeypatch, tmp_path)
        broken = tmp_path / "broken.jsonl"
        healed = tmp_path / "healed.jsonl"
        merged = tmp_path / "merged.jsonl"

        def flaky(data, params):
            if params.max_depth == 3:
                raise RuntimeError("injected trainer fault")
            return real_train(data, params)

        monkeypatch.setattr("repro.experiments.pipeline.train", flaky)
        assert main(self.SWEEP_ARGV + ["--out", str(broken)]) == 1
        monkeypatch.setattr("repro.experiments.pipeline.train", real_train)
        assert main(self.SWEEP_ARGV + ["--out", str(healed)]) == 0
        capsys.readouterr()
        # Overlapping manifests: the failed line loses to the success.
        assert main(["merge", str(merged), str(broken), str(healed)]) == 0
        out = capsys.readouterr().out
        assert "2 scenarios (2 ok, 0 failed" in out
        assert "2 duplicate line(s) dropped" in out  # collapsed, not lost
        lines = [json.loads(l) for l in merged.read_text().splitlines()]
        assert len(lines) == 2
        assert all(l["error"] is None for l in lines)

    def test_report_dedupes_healed_resumed_manifest(
        self, capsys, monkeypatch, tmp_path
    ):
        """A --resume run appends the healed line after the error line it
        supersedes; report must render one (freshest) row per scenario and
        not count the healed failure."""
        from repro.gbdt import train as real_train

        self._isolate_cache(monkeypatch, tmp_path)
        manifest = tmp_path / "m.jsonl"
        argv = self.SWEEP_ARGV + ["--out", str(manifest)]

        def flaky(data, params):
            if params.max_depth == 3:
                raise RuntimeError("injected trainer fault")
            return real_train(data, params)

        monkeypatch.setattr("repro.experiments.pipeline.train", flaky)
        assert main(argv) == 1
        monkeypatch.setattr("repro.experiments.pipeline.train", real_train)
        assert main(argv + ["--resume"]) == 0
        assert len(manifest.read_text().splitlines()) == 3  # err + ok + ok
        capsys.readouterr()
        assert main(["report", "--from-manifest", str(manifest)]) == 0
        captured = capsys.readouterr()
        assert "scenario sweep (2 scenarios" in captured.out
        assert "error" not in captured.out.split("training")[-1]
        assert "scenario(s) failed" not in captured.err
        assert "collapsed 1 superseded" in captured.err

    def test_merge_accepts_manifest_resumed_after_sim_edit(
        self, capsys, monkeypatch, tmp_path
    ):
        """A manifest resumed after a simulator edit appends fresh lines for
        every scenario; the stale lines are superseded, so the manifest
        must merge cleanly (uniformity is judged on the winners)."""
        import json

        import repro.experiments.cache as cache_mod

        self._isolate_cache(monkeypatch, tmp_path)
        manifest = tmp_path / "m.jsonl"
        argv = self.SWEEP_ARGV + ["--out", str(manifest)]
        assert main(argv) == 0
        # The simulation source "changes": every old line becomes stale,
        # resume re-runs everything and appends fresh lines.
        monkeypatch.setattr(cache_mod, "_SIM_FINGERPRINT", "feedfacefeedface")
        assert main(argv + ["--resume"]) == 0
        assert len(manifest.read_text().splitlines()) == 4
        capsys.readouterr()
        merged = tmp_path / "merged.jsonl"
        assert main(["merge", str(merged), str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "2 scenarios (2 ok, 0 failed; 2 duplicate line(s) dropped" in out
        lines = [json.loads(l) for l in merged.read_text().splitlines()]
        assert len(lines) == 2
        assert all(l["sim_code"] == "feedfacefeedface" for l in lines)

    def test_merge_rejects_mixed_sim_code(self, capsys, monkeypatch, tmp_path):
        import json

        self._isolate_cache(monkeypatch, tmp_path)
        m1 = tmp_path / "m1.jsonl"
        assert main(self.SWEEP_ARGV + ["--out", str(m1)]) == 0
        lines = m1.read_text().splitlines()
        stale = json.loads(lines[1])
        stale["sim_code"] = "feedfacefeedface"  # recorded under other source
        m2 = tmp_path / "m2.jsonl"
        m2.write_text(json.dumps(stale) + "\n")
        m1.write_text(lines[0] + "\n")
        capsys.readouterr()
        assert main(["merge", str(tmp_path / "out.jsonl"), str(m1), str(m2)]) == 2
        assert "sim_code" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    def test_merge_accepts_mixed_kinds(self, capsys, monkeypatch, tmp_path):
        """Compare/inference/serving manifests of one sweep merge side by
        side: lines dedupe per (kind, cache_key), so the kinds never
        collapse into each other, and `repro report` renders one table
        per kind from the merged manifest."""
        import json

        self._isolate_cache(monkeypatch, tmp_path)
        cmp_m = tmp_path / "cmp.jsonl"
        inf_m = tmp_path / "inf.jsonl"
        srv_m = tmp_path / "srv.jsonl"
        assert main(self.SWEEP_ARGV + ["--out", str(cmp_m)]) == 0
        assert main(self.SWEEP_ARGV + ["--inference", "--out", str(inf_m)]) == 0
        assert main(self.SWEEP_ARGV + self.SERVE_ARGV + ["--out", str(srv_m)]) == 0
        capsys.readouterr()
        out_m = tmp_path / "out.jsonl"
        assert main(["merge", str(out_m), str(cmp_m), str(inf_m), str(srv_m)]) == 0
        assert "kinds: compare+inference+serving" in capsys.readouterr().out
        lines = [json.loads(x) for x in out_m.read_text().splitlines()]
        assert {d["kind"] for d in lines} == {"compare", "inference", "serving"}
        # Every line of every input survives: the kinds are different
        # measurements of the same scenarios, not supersessions.
        assert len(lines) == 6
        capsys.readouterr()
        assert main(["report", "--from-manifest", str(out_m)]) == 0
        out = capsys.readouterr().out
        assert "scenario sweep" in out
        assert "inference sweep" in out
        assert "serving sweep" in out
        assert "geomean booster speedup" in out

    def test_merge_missing_input(self, capsys, tmp_path):
        assert main(["merge", str(tmp_path / "out.jsonl"), str(tmp_path / "no.jsonl")]) == 2
        assert "no such manifest" in capsys.readouterr().err

    def test_report_missing_manifest(self, capsys, tmp_path):
        assert main(["report", "--from-manifest", str(tmp_path / "no.jsonl")]) == 2
        assert "no such manifest" in capsys.readouterr().err

    def test_sweep_inference_mode_stores_and_replays(
        self, capsys, monkeypatch, tmp_path
    ):
        """Inference sweeps write `kind: inference` manifests and replay
        from the ResultStore on identical re-runs (the acceptance
        criterion's inference half)."""
        import json

        self._isolate_cache(monkeypatch, tmp_path)
        manifest = tmp_path / "inf.jsonl"
        assert main(self.SWEEP_ARGV + ["--inference", "--out", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "inference sweep (2 scenarios)" in out
        lines = [json.loads(l) for l in manifest.read_text().splitlines()]
        assert len(lines) == 2
        assert all(l["kind"] == "inference" and l["comparison"] is None for l in lines)
        assert all(l["inference"]["seconds"]["booster"] > 0 for l in lines)
        self._tripwire_runs(monkeypatch)
        assert main(self.SWEEP_ARGV + ["--inference"]) == 0
        out = capsys.readouterr().out
        assert out.count("[stored]") == 2

    def test_compare_manifest_does_not_resume_inference_sweep(
        self, capsys, monkeypatch, tmp_path
    ):
        """A compare manifest must not satisfy --resume for an inference
        sweep: the kinds measure different things."""
        self._isolate_cache(monkeypatch, tmp_path)
        manifest = tmp_path / "m.jsonl"
        argv = self.SWEEP_ARGV + ["--out", str(manifest)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--inference", "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resume:" not in out  # nothing in the manifest was resumable

    def test_sweep_serving_mode_stores_and_replays(self, capsys, monkeypatch, tmp_path):
        """Serving sweeps write `kind: serving` manifests with latency-tail
        payloads and replay from the ResultStore's `v` namespace on
        identical re-runs, with zero retraining and zero re-simulation."""
        import json

        self._isolate_cache(monkeypatch, tmp_path)
        manifest = tmp_path / "srv.jsonl"
        argv = self.SWEEP_ARGV + self.SERVE_ARGV
        assert main(argv + ["--out", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "serving sweep (2 scenarios)" in out
        lines = [json.loads(x) for x in manifest.read_text().splitlines()]
        assert len(lines) == 2
        assert all(d["kind"] == "serving" and d["comparison"] is None for d in lines)
        for d in lines:
            stats = d["serving"]["systems"]["booster"]
            assert stats["n_requests"] > 0
            assert stats["p99_ms"] >= stats["p50_ms"] > 0
            assert stats["sustained_qps"] > 0
        self._tripwire_runs(monkeypatch)
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("[stored]") == 2

    def test_serving_axes_require_serve_flag(self, capsys, monkeypatch, tmp_path):
        """A serving knob axis on a compare sweep is an error, not a
        silently key-changing no-op."""
        self._isolate_cache(monkeypatch, tmp_path)
        assert main(self.SWEEP_ARGV + ["--axis", "policy=batch,timeout"]) == 2
        err = capsys.readouterr().err
        assert "serving knobs" in err and "--serve" in err

    def test_serve_and_inference_conflict(self, capsys, monkeypatch, tmp_path):
        self._isolate_cache(monkeypatch, tmp_path)
        assert main(self.SWEEP_ARGV + self.SERVE_ARGV + ["--inference"]) == 2
        assert "pick one" in capsys.readouterr().err

    def test_resume_refuses_unknown_kind_manifest(self, capsys, monkeypatch, tmp_path):
        """Forward compatibility fails loudly: a manifest holding rows of a
        sweep kind this version does not know (written by a newer repro)
        must not be silently dropped and re-run under --resume."""
        import json

        from repro.experiments import ScenarioSpec

        self._isolate_cache(monkeypatch, tmp_path)
        manifest = tmp_path / "future.jsonl"
        line = {
            "kind": "holographic",
            "scenario": ScenarioSpec(dataset="mq2008").to_dict(),
            "error": None,
        }
        manifest.write_text(json.dumps(line) + "\n")
        capsys.readouterr()
        assert main(self.SWEEP_ARGV + ["--out", str(manifest), "--resume"]) == 2
        err = capsys.readouterr().err
        assert "unknown sweep kind 'holographic'" in err

    def test_report_all_failed_manifest_renders_without_geomean(
        self, capsys, monkeypatch, tmp_path
    ):
        """A manifest whose surviving rows all failed still renders a
        table; the geomean summary is simply omitted (no geomean-of-empty
        traceback)."""
        import json

        from repro.experiments import ScenarioSpec

        manifest = tmp_path / "failed.jsonl"
        line = {
            "kind": "compare",
            "scenario": ScenarioSpec(dataset="mq2008").to_dict(),
            "comparison": None,
            "error": "RuntimeError: boom",
            "worker_pid": 1,
            "cache_hit": False,
        }
        manifest.write_text(json.dumps(line) + "\n")
        assert main(["report", "--from-manifest", str(manifest)]) == 0
        captured = capsys.readouterr()
        assert "scenario sweep (1 scenarios" in captured.out
        assert "geomean" not in captured.out
        assert "1 scenario(s) failed" in captured.err

    def test_cache_export_import_seeds_cold_host(self, capsys, monkeypatch, tmp_path):
        """A warm host's entries, exported to a directory (removable media,
        say), let a cold host run the same sweep with zero retraining and
        zero simulation."""
        import repro.experiments.cache as cache_mod

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "warm"))
        monkeypatch.setattr(cache_mod, "_DEFAULT_CACHE", None)
        assert main(self.SWEEP_ARGV) == 0
        media = tmp_path / "media"
        assert main([
            "cache", "export", str(media),
            "--trees", "2",
            "--dataset", "mq2008",
            "--axis", "max_depth=2,3",
            "--systems", "ideal-32-core", "booster",
        ]) == 0
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cold"))
        monkeypatch.setattr(cache_mod, "_DEFAULT_CACHE", None)
        assert main(["cache", "import", str(media)]) == 0
        capsys.readouterr()
        self._tripwire_runs(monkeypatch)
        assert main(self.SWEEP_ARGV) == 0
        out = capsys.readouterr().out
        assert out.count("[stored]") == 2

    def test_old_manifest_without_durations_resumes_merges_reports(
        self, capsys, monkeypatch, tmp_path
    ):
        """A manifest written before wall times existed (no duration_s
        field) must still resume completely, merge cleanly, and report --
        with `-` duration cells and no wall-time total."""
        import json

        self._isolate_cache(monkeypatch, tmp_path)
        manifest = tmp_path / "old.jsonl"
        argv = self.SWEEP_ARGV + ["--out", str(manifest)]
        assert main(argv) == 0
        lines = []
        for line in manifest.read_text().splitlines():
            d = json.loads(line)
            del d["duration_s"]  # age the manifest to the pre-duration format
            lines.append(json.dumps(d))
        manifest.write_text("".join(l + "\n" for l in lines))
        capsys.readouterr()

        self._tripwire_runs(monkeypatch)
        assert main(argv + ["--resume"]) == 0
        assert "resume: 2/2 scenarios already in" in capsys.readouterr().out
        merged = tmp_path / "merged.jsonl"
        assert main(["merge", str(merged), str(manifest)]) == 0
        capsys.readouterr()
        assert main(["report", "--from-manifest", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "wall (s)" in out
        assert "recorded wall time" not in out  # nothing was recorded

    def test_cache_import_rejects_non_directory(self, capsys, monkeypatch, tmp_path):
        """`repro cache import` of a path that is not a store directory (a
        plain file such as an old tar archive, or nothing at all) exits 2
        without writing anything."""
        import repro.experiments.cache as cache_mod

        store = tmp_path / "store"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(store))
        monkeypatch.setattr(cache_mod, "_DEFAULT_CACHE", None)
        archive = tmp_path / "warm.tar"
        archive.write_bytes(b"not a store")
        for source in (archive, tmp_path / "missing"):
            assert main(["cache", "import", str(source)]) == 2
            assert "no such store directory" in capsys.readouterr().err
        assert not store.exists()
        assert main(["cache", "export", str(archive)]) == 2
        assert "not a store directory" in capsys.readouterr().err

    def test_cache_export_carries_calibration(self, capsys, monkeypatch, tmp_path):
        """A sweep-filtered export carries the DRAM calibration, so the host
        that imports it neither trains nor calibrates."""
        import repro.experiments.cache as cache_mod
        import repro.memory.profile as profile_mod

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "warm"))
        monkeypatch.setattr(cache_mod, "_DEFAULT_CACHE", None)
        monkeypatch.setattr(profile_mod, "_CACHE", {})
        compare = ["compare", "mq2008", "--trees", "2"]
        assert main(compare) == 0
        warm_out = capsys.readouterr().out
        media = tmp_path / "media"
        argv = ["cache", "export", str(media), "--trees", "2", "--dataset", "mq2008"]
        assert main(argv + ["--axis", "seed=7"]) == 0
        assert (media / f"{profile_mod.calibration_key()}.pkl").is_file()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cold"))
        monkeypatch.setattr(cache_mod, "_DEFAULT_CACHE", None)
        assert main(["cache", "import", str(media)]) == 0
        capsys.readouterr()

        def boom(*a, **k):
            raise AssertionError("recalibrated or retrained")

        monkeypatch.setattr(profile_mod, "_CACHE", {})
        monkeypatch.setattr("repro.memory.dram.DRAMSimulator.run_many", boom)
        monkeypatch.setattr("repro.experiments.pipeline.train", boom)
        assert main(compare) == 0
        assert capsys.readouterr().out == warm_out

    def test_cache_export_unfiltered_and_bad_axis(self, capsys, monkeypatch, tmp_path):
        import repro.experiments.cache as cache_mod
        import repro.memory.profile as profile_mod

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "warm"))
        monkeypatch.setattr(cache_mod, "_DEFAULT_CACHE", None)
        # An empty memo makes the sweep calibrate and store the profile.
        monkeypatch.setattr(profile_mod, "_CACHE", {})
        assert main(self.SWEEP_ARGV) == 0
        capsys.readouterr()
        media = tmp_path / "all"
        assert main(["cache", "export", str(media)]) == 0
        names = [p.name for p in media.iterdir()]
        # Two trained profiles (max_depth is a train axis), the DRAM
        # calibration, and two stored results.
        assert f"{profile_mod.calibration_key()}.pkl" in names
        assert sum(n.endswith(".pkl") for n in names) == 3
        assert sum(n.endswith(".json") for n in names) == 2
        assert main(["cache", "export", str(media), "--axis", "bogus=1"]) == 2
        assert "unknown sweep axis" in capsys.readouterr().err

    def test_sweep_bad_axis(self, capsys):
        assert main(["sweep", "--axis", "bogus=1", "--trees", "2"]) == 2
        assert "unknown sweep axis" in capsys.readouterr().err

    def test_sweep_unknown_dataset_value(self, capsys):
        assert main(["sweep", "--axis", "dataset=bogus", "--trees", "2"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_sweep_empty_axis_values(self, capsys):
        assert main(["sweep", "--axis", "seed=,", "--trees", "2"]) == 2
        assert "bad axis spec" in capsys.readouterr().err

    def test_sweep_unknown_system(self, capsys):
        code = main(["sweep", "--axis", "seed=1", "--systems", "boster", "--trees", "2"])
        assert code == 2
        assert "unknown systems" in capsys.readouterr().err

    def test_sweep_non_numeric_axis_value(self, capsys):
        assert main(["sweep", "--axis", "pcie_gbps=fast", "--trees", "2"]) == 2
        assert "needs a numeric value" in capsys.readouterr().err


class TestArtifacts:
    def test_registry_complete(self):
        expected = {"table3", "table4", "table5", "table6"} | {
            f"fig{i}" for i in range(6, 14)
        }
        assert set(ARTIFACTS) == expected

    def test_unknown_raises(self, executor):
        with pytest.raises(KeyError, match="unknown artifact"):
            build("fig1", executor)

    def test_every_artifact_renders(self, executor):
        for name in ARTIFACTS:
            text = build(name, executor)
            assert len(text.splitlines()) >= 3, name

    def test_build_all_joins(self, executor):
        text = build_all(executor, ["table5", "table6"])
        assert "Table V" in text and "Table VI" in text


class TestValidateCommand:
    def test_validate_passes(self, capsys):
        assert main(["validate", "--trees", "3"]) == 0
        out = capsys.readouterr().out
        assert "claim checklist" in out
        assert "FAIL" not in out
