"""Framework for the ``repro lint`` invariant checker.

Pure-stdlib AST analysis: every rule is a class in
:mod:`repro.devtools.rules` with a stable ``RPRxxx`` code and a docstring
explaining the invariant it guards.  This module owns everything that is
*not* a rule: file discovery, parsing, the inline-suppression protocol,
rule selection, and the text report.

Suppression protocol
--------------------

A violation may be silenced with an inline comment on the flagged line::

    tmp.write_bytes(payload)  # repro: noqa RPR001 -- exclusive publish via hard link

The comment must name the code(s) it suppresses *and* carry a ``--
reason``: an unexplained suppression is itself reported (``RPR000``), so
every exception to an invariant is documented where it lives.  Naming a
code no rule emits is reported too, so a suppression cannot outlive the
rule it silences.  There is no file-wide or bare ``noqa`` form on purpose
-- blanket waivers are how hand-maintained invariants rot.
"""

from __future__ import annotations

import ast
import re
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

__all__ = [
    "FileContext",
    "LintReport",
    "Violation",
    "format_text",
    "iter_python_files",
    "lint_main",
    "run_lint",
]

#: ``# repro: noqa RPR001[,RPR002] [-- reason]`` -- the only suppression form.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\b(?P<codes>[\sA-Z0-9,]*?)(?:--\s*(?P<reason>\S.*))?$"
)

_CODE_RE = re.compile(r"\bRPR\d{3}\b")

#: Framework codes: malformed suppression, unreadable file, syntax error.
#: They are never suppressed and exist whichever rules are selected.
_META_CODES = frozenset({"RPR000", "RPR900", "RPR901"})

#: Directories never descended into during file discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", "build", "dist"}


@dataclass(frozen=True)
class Violation:
    """One rule hit: a stable code, a location, and a one-line message."""

    code: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: noqa`` comment."""

    line: int
    codes: frozenset[str]
    reason: str | None


@dataclass
class FileContext:
    """One parsed Python file, as rules see it.

    ``rel`` is the path as given on the command line (what reports print);
    rules scope themselves by matching its POSIX form, so fixture tests can
    place a file anywhere and still exercise a path-scoped rule.
    """

    rel: str
    tree: ast.Module
    suppressions: dict[int, Suppression] = field(default_factory=dict)

    @property
    def posix(self) -> str:
        return Path(self.rel).as_posix()

    def in_src(self) -> bool:
        """Whether this file is part of the ``repro`` package source."""
        return "src/repro/" in self.posix or self.posix.startswith("repro/")

    def module_is(self, suffix: str) -> bool:
        """Whether this file is the source module ending in ``suffix``."""
        return self.posix.endswith(suffix)


def _parse_suppressions(
    source: str, path: str, known: frozenset[str]
) -> tuple[dict[int, Suppression], list[Violation]]:
    """Extract ``# repro: noqa`` comments; malformed ones become RPR000.

    A comment naming a code outside ``known`` (the rule set plus the
    framework codes) is malformed too: it silences nothing today and would
    hide a future rule's findings without review.
    """
    out: dict[int, Suppression] = {}
    bad: list[Violation] = []
    try:
        tokens = tokenize.generate_tokens(iter(source.splitlines(True)).__next__)
        comments = [(t.start[0], t.string) for t in tokens if t.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        comments = [
            (i, line[line.index("#"):])
            for i, line in enumerate(source.splitlines(), 1)
            if "#" in line
        ]
    for lineno, comment in comments:
        m = _NOQA_RE.search(comment)
        if m is None:
            continue
        codes = frozenset(_CODE_RE.findall(m.group("codes") or ""))
        reason = (m.group("reason") or "").strip() or None
        out[lineno] = Suppression(line=lineno, codes=codes, reason=reason)
        if not codes or reason is None:
            bad.append(
                Violation(
                    code="RPR000",
                    path=path,
                    line=lineno,
                    message=(
                        "suppression must name the code(s) it silences and "
                        "carry a '-- reason' (see docs/development.md): "
                        "'# repro: noqa RPRxxx -- why this site is safe'"
                    ),
                )
            )
        for code in sorted(codes - known):
            bad.append(
                Violation(
                    code="RPR000",
                    path=path,
                    line=lineno,
                    message=f"suppression names {code}, which no rule emits; drop it",
                )
            )
    return out, bad


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Yield the ``.py`` files under ``paths`` (files given directly pass through).

    Dedupes on the *resolved* path, so the same file reached via two
    spellings (``src/repro`` and ``src/repro/cli.py``, or a relative and an
    absolute path) is linted once.
    """
    seen: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_file():
            candidates: Iterable[Path] = [p]
        elif p.is_dir():
            candidates = sorted(
                f
                for f in p.rglob("*.py")
                if not any(part in _SKIP_DIRS for part in f.parts)
            )
        else:
            raise FileNotFoundError(f"no such file or directory: {p}")
        for f in candidates:
            resolved = f.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield f


def load_context(path: Path, known: frozenset[str]) -> tuple[FileContext | None, list[Violation]]:
    """Parse one file into a :class:`FileContext` (``None`` on syntax error)."""
    rel = str(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return None, [Violation("RPR900", rel, 1, f"unreadable file: {exc}")]
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        return None, [
            Violation("RPR901", rel, exc.lineno or 1, f"syntax error: {exc.msg}")
        ]
    suppressions, bad = _parse_suppressions(source, rel, known)
    ctx = FileContext(rel=rel, tree=tree, suppressions=suppressions)
    return ctx, bad


@dataclass
class LintReport:
    """The outcome of one lint run: the surviving violations, sorted."""

    violations: list[Violation]
    n_files: int

    @property
    def ok(self) -> bool:
        return not self.violations


def _select_codes(select: str | None) -> frozenset[str] | None:
    if select is None:
        return None
    codes = frozenset(c.strip().upper() for c in select.split(",") if c.strip())
    if not codes:
        return None
    return codes


def run_lint(paths: Sequence[str | Path], select: str | None = None) -> LintReport:
    """Lint ``paths`` and return the surviving violations, sorted.

    ``select`` limits the run to a comma-separated list of codes
    (``RPR000`` meta-violations are always reported).  Suppressions are
    applied last: a violation whose line carries a well-formed ``# repro:
    noqa`` naming its code is dropped.
    """
    from .rules import ALL_RULES

    known = frozenset(r.code for r in ALL_RULES) | _META_CODES
    active = list(ALL_RULES)
    wanted = _select_codes(select)
    if wanted is not None:
        active = [r for r in active if r.code in wanted]

    kept: list[Violation] = []
    n_files = 0
    for path in iter_python_files(paths):
        n_files += 1
        ctx, problems = load_context(path, known)
        kept.extend(problems)
        if ctx is None:
            continue
        for rule in active:
            for v in rule.check(ctx):
                sup = ctx.suppressions.get(v.line)
                if sup is None or sup.reason is None or v.code not in sup.codes:
                    kept.append(v)
    kept.sort(key=lambda v: (v.path, v.line, v.code))
    return LintReport(violations=kept, n_files=n_files)


def format_text(report: LintReport) -> str:
    lines = [v.render() for v in report.violations]
    summary = (
        f"{len(report.violations)} violation(s) in {report.n_files} file(s)"
        if report.violations
        else f"clean: {report.n_files} file(s), 0 violations"
    )
    return "\n".join(lines + [summary])


def lint_main(
    paths: Sequence[str] | None,
    select: str | None = None,
    out: "TextIO | None" = None,
) -> int:
    """Run the linter as the CLI does; returns the process exit code.

    Default paths are ``src`` and ``tests`` when they exist under the
    current directory (the repo layout), else the current directory.
    """
    out = out if out is not None else sys.stdout
    if not paths:
        paths = [p for p in ("src", "tests") if Path(p).exists()] or ["."]
    try:
        report = run_lint(paths, select=select)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(format_text(report), file=out)
    return 0 if report.ok else 1
