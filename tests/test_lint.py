"""Tests for the ``repro lint`` invariant checker (repro.devtools).

Every rule gets at least one positive fixture (the violation fires) and one
negative fixture (the compliant idiom stays silent).  Fixtures live in
``tests/data/lint_fixtures/*.py.txt`` and are copied under a temporary
directory at scope-appropriate paths (rules scope themselves by POSIX path
suffix, e.g. ``src/repro/experiments/...``).
"""

from io import StringIO
from pathlib import Path

import pytest

from repro.cli import build_parser, main as cli_main
from repro.devtools.lint import (
    format_text,
    iter_python_files,
    lint_main,
    run_lint,
)
from repro.devtools.rules import ALL_RULES

FIXTURES = Path(__file__).parent / "data" / "lint_fixtures"
REPO_ROOT = Path(__file__).parents[1]


def place(tmp_path, fixture: str, dest: str) -> Path:
    """Copy a fixture into ``tmp_path/dest`` so path-scoped rules see it."""
    target = tmp_path / dest
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text((FIXTURES / fixture).read_text(encoding="utf-8"), encoding="utf-8")
    return target


def lint(*targets, select=None):
    return run_lint([str(t) for t in targets], select=select)


def codes(report):
    return [v.code for v in report.violations]


class TestRPR001RawStoreWrite:
    def test_raw_writes_into_store_dirs_fire(self, tmp_path):
        bad = place(tmp_path, "rpr001_raw_store_write.py.txt", "src/repro/experiments/badwrite.py")
        report = lint(bad, select="RPR001")
        assert codes(report) == ["RPR001"] * 4  # write_bytes, write_text, os.rename, open(.., "w")
        assert "atomic_write_bytes" in report.violations[0].message

    def test_sees_through_one_assignment_level(self, tmp_path):
        bad = place(tmp_path, "rpr001_raw_store_write.py.txt", "src/repro/experiments/badwrite.py")
        report = lint(bad, select="RPR001")
        # tmp = self.root / name; tmp.write_bytes(...) is attributed to the store.
        assert any("tmp" in v.message and "root" in v.message for v in report.violations)

    def test_blessed_and_out_of_store_writes_pass(self, tmp_path):
        good = place(tmp_path, "rpr001_clean.py.txt", "src/repro/experiments/goodwrite.py")
        assert lint(good, select="RPR001").ok

    def test_out_of_src_files_are_not_scanned(self, tmp_path):
        script = place(tmp_path, "rpr001_raw_store_write.py.txt", "scripts/badwrite.py")
        assert lint(script, select="RPR001").ok

    def test_cache_module_is_exempt(self, tmp_path):
        impl = place(tmp_path, "rpr001_raw_store_write.py.txt", "src/repro/experiments/cache.py")
        assert lint(impl, select="RPR001").ok


class TestRPR002UnstableHash:
    def test_builtin_hash_and_id_fire(self, tmp_path):
        bad = place(tmp_path, "rpr002_unstable_hash.py.txt", "src/repro/core/ident.py")
        report = lint(bad, select="RPR002")
        assert codes(report) == ["RPR002"] * 2
        assert "PYTHONHASHSEED" in report.violations[0].message

    def test_hashlib_identity_passes(self, tmp_path):
        good = place(tmp_path, "rpr002_clean.py.txt", "src/repro/core/ident.py")
        assert lint(good, select="RPR002").ok


class TestRPR003NondeterministicKey:
    def test_wallclock_and_rng_in_key_paths_fire(self, tmp_path):
        bad = place(tmp_path, "rpr003_wallclock_key.py.txt", "src/repro/experiments/keys.py")
        report = lint(bad, select="RPR003")
        # time.time + random.random in cache_key, datetime.now in a *Spec method.
        assert codes(report) == ["RPR003"] * 3

    def test_pure_keys_and_out_of_scope_clock_pass(self, tmp_path):
        good = place(tmp_path, "rpr003_clean.py.txt", "src/repro/experiments/keys.py")
        assert lint(good, select="RPR003").ok


class TestRPR005ModuleMutableState:
    def test_mutated_module_container_and_lock_fire(self, tmp_path):
        bad = place(tmp_path, "rpr005_mutable_state.py.txt", "src/repro/experiments/state.py")
        report = lint(bad, select="RPR005")
        assert codes(report) == ["RPR005"] * 2
        messages = " ".join(v.message for v in report.violations)
        assert "_MEMO" in messages and "_LOCK" in messages

    def test_read_only_module_containers_pass(self, tmp_path):
        good = place(tmp_path, "rpr005_clean.py.txt", "src/repro/experiments/state.py")
        assert lint(good, select="RPR005").ok

    def test_cli_module_is_exempt(self, tmp_path):
        bad = place(tmp_path, "rpr005_mutable_state.py.txt", "src/repro/cli.py")
        assert lint(bad, select="RPR005").ok


class TestRPR006SwallowedException:
    def test_swallowed_broad_excepts_fire(self, tmp_path):
        bad = place(tmp_path, "rpr006_swallowed.py.txt", "src/repro/experiments/lease.py")
        report = lint(bad, select="RPR006")
        assert codes(report) == ["RPR006"] * 2

    def test_narrow_or_structured_handlers_pass(self, tmp_path):
        good = place(tmp_path, "rpr006_clean.py.txt", "src/repro/experiments/lease.py")
        assert lint(good, select="RPR006").ok

    def test_only_experiments_paths_are_in_scope(self, tmp_path):
        elsewhere = place(tmp_path, "rpr006_swallowed.py.txt", "src/repro/gbdt/other.py")
        assert lint(elsewhere, select="RPR006").ok


class TestRPR007UnvalidatedStoreName:
    def test_formatted_store_names_fire(self, tmp_path):
        bad = place(tmp_path, "rpr007_unvalidated_name.py.txt", "src/repro/experiments/naming.py")
        report = lint(bad, select="RPR007")
        # One f-string join, one %-format join.
        assert codes(report) == ["RPR007"] * 2

    def test_validated_or_out_of_store_names_pass(self, tmp_path):
        good = place(tmp_path, "rpr007_clean.py.txt", "src/repro/experiments/naming.py")
        assert lint(good, select="RPR007").ok


class TestRPR008UnflushedManifest:
    def test_buffered_manifest_loop_fires(self, tmp_path):
        bad = place(tmp_path, "rpr008_unflushed.py.txt", "src/repro/experiments/manifest.py")
        report = lint(bad, select="RPR008")
        assert codes(report) == ["RPR008"]
        assert "flush" in report.violations[0].message

    def test_flush_per_line_passes(self, tmp_path):
        good = place(tmp_path, "rpr008_clean.py.txt", "src/repro/experiments/manifest.py")
        assert lint(good, select="RPR008").ok


class TestSuppressionProtocol:
    def test_malformed_noqa_is_reported(self, tmp_path):
        sloppy = place(tmp_path, "rpr000_malformed_noqa.py.txt", "src/repro/experiments/sloppy.py")
        report = lint(sloppy)
        # Bare noqa, code-without-reason and a code no rule emits all
        # violate the protocol.
        assert codes(report) == ["RPR000"] * 3
        assert "RPR777, which no rule emits" in report.violations[2].message

    def test_well_formed_noqa_suppresses(self, tmp_path):
        ok = place(tmp_path, "rpr000_suppressed_ok.py.txt", "src/repro/experiments/memo.py")
        report = lint(ok)
        assert report.ok, [v.render() for v in report.violations]

    def test_noqa_for_a_different_code_does_not_suppress(self, tmp_path):
        source = (FIXTURES / "rpr000_suppressed_ok.py.txt").read_text(encoding="utf-8")
        target = tmp_path / "src/repro/experiments/memo.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source.replace("RPR005", "RPR006"), encoding="utf-8")
        report = lint(target)
        assert codes(report) == ["RPR005"]


class TestFramework:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        broken = tmp_path / "src/repro/broken.py"
        broken.parent.mkdir(parents=True)
        broken.write_text("def broken(:\n", encoding="utf-8")
        report = lint(broken)
        assert codes(report) == ["RPR901"]

    def test_discovery_skips_pycache(self, tmp_path):
        (tmp_path / "pkg/__pycache__").mkdir(parents=True)
        (tmp_path / "pkg/mod.py").write_text("x = 1\n", encoding="utf-8")
        (tmp_path / "pkg/__pycache__/mod.py").write_text("x = 1\n", encoding="utf-8")
        found = list(iter_python_files([tmp_path]))
        assert [p.name for p in found] == ["mod.py"]

    def test_iter_python_files_dedupes_resolved_spellings(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text("x = 1\n", encoding="utf-8")
        listed = list(
            iter_python_files([str(pkg), str(pkg / "mod.py"), str((pkg / "mod.py").resolve())])
        )
        assert len(listed) == 1

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_lint([str(tmp_path / "nope")])

    def test_select_limits_rules(self, tmp_path):
        bad = place(tmp_path, "rpr001_raw_store_write.py.txt", "src/repro/experiments/badwrite.py")
        assert lint(bad, select="RPR002").ok

    def test_every_rule_has_code_and_doc(self):
        seen = set()
        for rule in ALL_RULES:
            assert rule.code.startswith("RPR") and len(rule.code) == 6
            assert rule.code not in seen
            seen.add(rule.code)
            assert (type(rule).__doc__ or "").strip(), f"{rule.code} has no docstring"
        assert len(seen) == 7

    def test_format_text_summary(self, tmp_path):
        good = place(tmp_path, "rpr008_clean.py.txt", "src/repro/experiments/manifest.py")
        clean = format_text(lint(good))
        assert "clean: 1 file(s), 0 violations" in clean
        bad = place(tmp_path, "rpr008_unflushed.py.txt", "src/repro/experiments/manifest2.py")
        dirty = format_text(lint(bad, select="RPR008"))
        assert "1 violation(s) in" in dirty and "RPR008" in dirty

    def test_lint_main_exit_codes(self, tmp_path):
        good = place(tmp_path, "rpr008_clean.py.txt", "src/repro/experiments/manifest.py")
        bad = place(tmp_path, "rpr008_unflushed.py.txt", "src/repro/experiments/manifest2.py")
        assert lint_main([str(good)], out=StringIO()) == 0
        assert lint_main([str(bad)], out=StringIO()) == 1
        assert lint_main([str(tmp_path / "nope")], out=StringIO()) == 2


class TestCLI:
    def test_parser_accepts_lint_args(self):
        args = build_parser().parse_args(["lint", "src", "--select", "RPR001,RPR002"])
        assert args.command == "lint"
        assert args.paths == ["src"]
        assert args.select == "RPR001,RPR002"
        assert sorted(vars(args)) == sorted(["command", "paths", "select"])

    def test_cli_exit_codes_and_output(self, tmp_path, capsys):
        bad = place(tmp_path, "rpr006_swallowed.py.txt", "src/repro/experiments/lease.py")
        assert cli_main(["lint", str(bad), "--select", "RPR006"]) == 1
        out = capsys.readouterr().out
        assert "RPR006" in out and "violation(s)" in out
        good = place(tmp_path, "rpr006_clean.py.txt", "src/repro/experiments/ok.py")
        assert cli_main(["lint", str(good)]) == 0


class TestTreeIsClean:
    def test_repository_lints_clean(self):
        """The acceptance gate: `repro lint src tests` exits 0 on this tree."""
        report = run_lint([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
        assert report.ok, "\n".join(v.render() for v in report.violations)
