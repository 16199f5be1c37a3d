"""Development tooling: the project-specific invariant linter.

The orchestration stack survives on hand-maintained invariants (atomic
writes into live store directories, cross-process-stable content hashing,
fork-safe worker state, flushed manifests) and each of them has already
caused a real runtime bug.  :mod:`repro.devtools.lint` makes the per-file
ones machine-checked: an AST walker with project-specific ``RPR`` rules,
run as ``repro lint`` and in CI.  Invariants that span functions or
processes are guarded by behavioural tests instead.  See
``docs/development.md`` for the rule catalogue, the suppression policy and
where each of those tests lives.
"""

from .lint import LintReport, Violation, lint_main, run_lint
from .rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "LintReport",
    "Violation",
    "lint_main",
    "run_lint",
]
