"""Reading JSONL sweep manifests: one line parser, one key rule, one dedupe.

A sweep manifest (``repro sweep --out``) holds one
:meth:`SweepResult.to_dict` line per completed scenario, appended in
completion order: ``--resume`` appends its re-runs after the lines they
supersede, and ``repro merge`` concatenates several workers' manifests.
``repro merge``, ``repro report --from-manifest`` and ``repro sweep
--resume`` all read manifests through this module, so they agree on which
lines count and which line wins:

* :func:`read` -- every line :meth:`SweepResult.from_dict` accepts, keyed
  by its recorded ``cache_key`` (or, for manifests written before lines
  carried one, by :func:`scenario_key` of its scenario); corrupt and
  partial lines -- an interrupted run leaves a truncated tail -- are
  counted and skipped;
* :func:`latest` -- one winner per ``(kind, key)``: later lines supersede
  earlier ones, except that an error never replaces a success;
* :func:`resumable` -- the lines one sweep mode may resume from.
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterable

from .cache import sim_fingerprint
from .runner import SWEEP_MODES, SweepResult, scenario_key

__all__ = ["is_success", "latest", "read", "resumable"]


def read(path: pathlib.Path) -> tuple[list[tuple[str, dict]], int]:
    """The manifest's result lines as ``(key, line)`` pairs in file order,
    plus the number of lines skipped.

    A line counts only if it is JSON that :meth:`SweepResult.from_dict`
    accepts -- so no consumer can later trip over a line it cannot parse.
    Every other non-blank line (corrupt, partial, not an object, no
    ``scenario``) is skipped and counted; blank lines are ignored.
    """
    lines: list[tuple[str, dict]] = []
    skipped = 0
    for text in pathlib.Path(path).read_text().splitlines():
        text = text.strip()
        if not text:
            continue
        try:
            d = json.loads(text)
            result = SweepResult.from_dict(d)
        except Exception:
            skipped += 1
            continue
        key = d.get("cache_key")
        lines.append((key if isinstance(key, str) else scenario_key(result.scenario), d))
    return lines, skipped


def is_success(line: dict) -> bool:
    """Whether a manifest line carries a measurement and no error."""
    payloads = (line.get(name) for name in ("comparison", "inference", "serving"))
    return line.get("error") is None and any(p is not None for p in payloads)


def latest(lines: Iterable[tuple[str, dict]]) -> tuple[list[dict], int]:
    """Collapse ``(key, line)`` pairs to one winner per ``(kind, key)``.

    Manifests append chronologically, so later lines win -- except that an
    error line never replaces a success.  Across files the same rule
    applies in input order: list the freshest manifest last.  Sweep kinds
    never collapse into each other (they are different measurements of the
    same scenario, not retries).  Returns the winners in first-appearance
    order and the number of lines they superseded.
    """
    best: dict[tuple[str, str], dict] = {}
    collapsed = 0
    for key, d in lines:
        slot = (d.get("kind", "compare"), key)
        if slot in best:
            collapsed += 1
            if is_success(best[slot]) and not is_success(d):
                continue
        best[slot] = d
    return list(best.values()), collapsed


def resumable(path: pathlib.Path, mode: str = "compare") -> list[tuple[str, SweepResult]]:
    """The ``(key, SweepResult)`` pairs of a manifest that a ``mode`` sweep
    may resume from, in file order.

    Failed results are skipped, and so are lines of a different *known*
    sweep kind (a compare manifest cannot resume an inference sweep) and
    lines whose recorded ``sim_code`` does not match the running
    simulation source -- replaying a pre-edit timing as current would
    silently mix stale rows into the sweep.  Skipped scenarios simply
    re-run.

    A line of an *unknown* kind is different: it was written by a newer
    repro, and silently dropping it would quietly re-run (and re-append)
    work the manifest already holds.  That raises :class:`ValueError`
    instead -- forward compatibility fails loudly.
    """
    pairs: list[tuple[str, SweepResult]] = []
    for key, d in read(path)[0]:
        kind = d.get("kind", "compare")
        if kind not in SWEEP_MODES:
            raise ValueError(
                f"manifest {path} contains result lines of unknown sweep "
                f"kind {kind!r} (written by a newer repro?); refusing to "
                "--resume -- upgrade repro or resume with a manifest this "
                "version understands"
            )
        if kind != mode or d.get("sim_code") != sim_fingerprint():
            continue
        result = SweepResult.from_dict(d)
        if result.ok and result.payload is not None:
            pairs.append((key, result))
    return pairs
