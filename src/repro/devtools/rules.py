"""The ``RPR`` rule set: one class per machine-checked project invariant.

Each rule guards an invariant that has already caused (or nearly caused) a
real bug in the orchestration stack; the rule docstring states the
invariant, and ``docs/development.md`` carries the full catalogue with
example violations and the suppression policy.  Rules are deliberately
narrow: they pattern-match the specific idioms this codebase uses, not
Python in general, so a hit is nearly always a real hazard and the rare
false positive is silenced inline with a documented ``# repro: noqa``.

Path scoping is by POSIX path suffix/segments (``src/repro/...``), so
fixture tests can reproduce any rule's scope under a temporary directory.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .lint import FileContext, Violation

__all__ = ["ALL_RULES"]

#: Identifier tokens that mark a path expression as pointing into a store,
#: cache, or lease directory (the directories whose write protocol is owned
#: by :mod:`repro.experiments.cache`).
_STORE_TOKEN = re.compile(r"\b(root|lease|store|cache)\b|\.lease")

#: Method names that mutate a container in place.
_MUTATORS = {
    "append",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "clear",
    "extend",
    "insert",
    "remove",
    "discard",
}

_WRITE_MODE = re.compile(r"[wax]")


def _unparse(node: ast.AST | None) -> str:
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:
        return ""


class _Scope:
    """One lexical scope (module or function) with its simple assignments."""

    def __init__(self, node: ast.AST) -> None:
        self.node = node
        self.assigns: dict[str, str] = {}
        self.nodes: list[ast.AST] = []


def _scopes(tree: ast.Module) -> list[_Scope]:
    """Split a module into scopes, attributing every node to the nearest one.

    Nested functions own their bodies; a node appears in exactly one
    scope's ``nodes`` list.  ``assigns`` maps a name to the unparsed source
    of its most recent simple assignment in that scope -- one level of
    dataflow, enough to see through ``tmp = self.root / ...`` before
    ``tmp.write_bytes(...)``.
    """
    scopes: list[_Scope] = []

    def visit(node: ast.AST, scope: _Scope) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = _Scope(child)
                scopes.append(inner)
                inner.nodes.append(child)
                visit(child, inner)
            else:
                scope.nodes.append(child)
                if isinstance(child, ast.Assign) and len(child.targets) == 1:
                    target = child.targets[0]
                    if isinstance(target, ast.Name):
                        scope.assigns[target.id] = _unparse(child.value)
                elif isinstance(child, ast.AnnAssign) and child.value is not None:
                    if isinstance(child.target, ast.Name):
                        scope.assigns[child.target.id] = _unparse(child.value)
                visit(child, scope)

    module_scope = _Scope(tree)
    scopes.append(module_scope)
    visit(tree, module_scope)
    return scopes


def _expanded(expr: ast.AST | None, scope: _Scope) -> str:
    """Unparse ``expr``, substituting one level of local assignments."""
    text = _unparse(expr)
    if isinstance(expr, ast.Name) and expr.id in scope.assigns:
        text = f"{text} = {scope.assigns[expr.id]}"
    return text


def _call_name(node: ast.Call) -> str:
    return _unparse(node.func)


def _is_store_path(text: str) -> bool:
    return bool(_STORE_TOKEN.search(text))


#: Modules that *implement* the blessed store-write protocol (atomic
#: temp+rename publication, create-exclusive hard links, flat-name
#: validation).  They necessarily contain the raw writes every other
#: module is forbidden, so the store-discipline rules exempt them.
_PROTOCOL_MODULES = ("experiments/backend.py", "experiments/cache.py")


def _implements_store_protocol(ctx: FileContext) -> bool:
    return any(ctx.module_is(suffix) for suffix in _PROTOCOL_MODULES)


class Rule:
    """Base class: per-file rules implement :meth:`check`."""

    code = "RPR999"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def hit(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            code=self.code, path=ctx.rel, line=getattr(node, "lineno", 1), message=message
        )


class RawStoreWrite(Rule):
    """RPR001: raw writes into store/cache/lease directories.

    Every file that lands in a shared store, cache, or lease directory
    must go through :func:`repro.experiments.cache.atomic_write_bytes` (or
    ``KeyedStore.put``): a raw ``open(.., "w")``/``write_text``/
    ``write_bytes``/``os.rename`` can expose a partial file to a
    concurrent sweep worker -- the provenance race that bit PR 2.  The
    rule flags write calls whose target path expression (one assignment
    level expanded) mentions a store-directory token (``root``/``lease``/
    ``store``/``cache``); ``experiments/backend.py`` and
    ``experiments/cache.py`` -- the modules that *implement* the blessed
    protocol -- are exempt.
    """

    code = "RPR001"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_src() or _implements_store_protocol(ctx):
            return
        for scope in _scopes(ctx.tree):
            for node in scope.nodes:
                if not isinstance(node, ast.Call):
                    continue
                name = _call_name(node)
                target: str | None = None
                what = ""
                if name == "open" and node.args:
                    mode = ""
                    if len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                        mode = str(node.args[1].value)
                    for kw in node.keywords:
                        if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                            mode = str(kw.value.value)
                    if not _WRITE_MODE.search(mode):
                        continue
                    target = _expanded(node.args[0], scope)
                    what = f"open(..., {mode!r})"
                elif name.endswith((".write_text", ".write_bytes")) and isinstance(
                    node.func, ast.Attribute
                ):
                    target = _expanded(node.func.value, scope)
                    what = node.func.attr
                elif name in ("os.rename", "os.replace"):
                    target = " ".join(_expanded(a, scope) for a in node.args)
                    what = name
                if target is not None and _is_store_path(target):
                    yield self.hit(
                        ctx,
                        node,
                        f"raw {what} targets a store/lease path ({target!r}); "
                        "use atomic_write_bytes or KeyedStore.put so concurrent "
                        "readers never observe a partial file",
                    )


class UnstableHash(Rule):
    """RPR002: builtin ``hash()``/``id()`` near persisted identity.

    Persisted keys, claim orders, and lease stems must be identical
    across hosts, processes, and ``PYTHONHASHSEED`` values; builtin
    ``hash()`` is salted per process and ``id()`` is an address.  Content
    identity in this codebase is always ``hashlib`` over canonical JSON
    (see ``ScenarioSpec.cache_key``/``lease_name``) -- any bare ``hash()``
    or ``id()`` call in package source is flagged, because there is no
    call site here where they are the right tool.
    """

    code = "RPR002"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_src():
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("hash", "id")
            ):
                yield self.hit(
                    ctx,
                    node,
                    f"builtin {node.func.id}() is PYTHONHASHSEED/address-"
                    "unstable; derive persisted keys, claim orders, and lease "
                    "stems with hashlib over canonical content instead",
                )


class NondeterministicKey(Rule):
    """RPR003: wall clock / default RNG inside key-construction paths.

    Cache keys, train keys, and fingerprints must be pure functions of
    content -- two hosts (or two runs) computing different keys for the
    same scenario silently defeats the zero-retrain/zero-re-simulate
    guarantees.  Inside any function whose name mentions ``key``,
    ``fingerprint``, or ``digest`` (or any method of a ``*Spec`` class),
    calls to ``time.time``/``datetime.now``/``random.*``/``np.random.*``
    are flagged.
    """

    code = "RPR003"

    _BAD = re.compile(
        r"^(time\.time(_ns)?|datetime\.(datetime\.)?(now|utcnow)"
        r"|random\.\w+|np\.random\.\w+|numpy\.random\.\w+)$"
    )
    _SCOPE_NAME = re.compile(r"key|fingerprint|digest")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_src():
            return
        spec_methods: set[ast.AST] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Spec"):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        spec_methods.add(item)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not (self._SCOPE_NAME.search(node.name) or node in spec_methods):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call) and self._BAD.match(_call_name(inner)):
                    yield self.hit(
                        ctx,
                        inner,
                        f"{_call_name(inner)}() inside key-construction path "
                        f"{node.name!r}: keys must be pure functions of "
                        "content (seed RNGs explicitly, pass times in)",
                    )


class ModuleMutableState(Rule):
    """RPR005: module-level mutable containers in worker-imported modules.

    ``SweepRunner`` pool workers fork (or re-import) the package: a
    module-level dict/list/set that functions mutate in place is state the
    parent may have populated before the fork, silently shared into every
    worker -- or state a worker populates believing it is shared when it
    is not.  Flags module-level mutable containers that the module itself
    mutates (subscript stores, ``.append``/``.update``/... calls), plus
    module-level ``threading.Lock`` instances (locks do not survive
    pickling and a pre-fork-held lock deadlocks children).  Deliberate
    per-process memos are suppressed inline with the reason they are
    fork-safe.
    """

    code = "RPR005"

    _CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
    _LOCK_CALLS = {"threading.Lock", "threading.RLock", "Lock", "RLock"}

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_src() or "devtools/" in ctx.posix or ctx.module_is("cli.py"):
            return
        candidates: dict[str, ast.AST] = {}
        locks: dict[str, ast.AST] = {}
        for node in ctx.tree.body:
            target = None
            value = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            if not isinstance(target, ast.Name) or value is None:
                continue
            if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
                candidates[target.id] = node
            elif isinstance(value, ast.Call):
                callee = _call_name(value)
                if callee in self._CONTAINER_CALLS:
                    candidates[target.id] = node
                elif callee in self._LOCK_CALLS:
                    locks[target.id] = node
        mutated: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name):
                        mutated.add(t.value.id)
            elif isinstance(node, ast.Delete):
                for t in node.targets:
                    if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name):
                        mutated.add(t.value.id)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
                and isinstance(node.func.value, ast.Name)
            ):
                mutated.add(node.func.value.id)
        for name, node in sorted(candidates.items()):
            if name in mutated:
                yield self.hit(
                    ctx,
                    node,
                    f"module-level mutable container {name!r} is mutated in "
                    "place: pool workers fork/reimport this module, so such "
                    "state is either silently copied into every worker or "
                    "never actually shared -- make it per-instance, or "
                    "suppress with the reason it is fork-safe",
                )
        for name, node in sorted(locks.items()):
            yield self.hit(
                ctx,
                node,
                f"module-level lock {name!r}: a lock held across fork "
                "deadlocks pool workers; scope locks to the objects whose "
                "state they guard",
            )


class SwallowedException(Rule):
    """RPR006: silently swallowed exceptions in steal/runner code paths.

    The sweep contract is that failures are *data*: a raising scenario
    becomes a structured ``SweepResult(error=...)`` line, and lease-
    protocol errors either retry or surface.  A bare ``except:`` or
    ``except Exception: pass`` in ``experiments/`` hides exactly the
    failures the whole manifest/lease machinery exists to record.  The
    two legitimate shapes -- a retry loop whose backstop is the TTL, and
    tolerating a peer's concurrent unlink -- are narrow enough to
    suppress inline with their reason.
    """

    code = "RPR006"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_src() or "experiments/" not in ctx.posix:
            return
        if _implements_store_protocol(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            kind = _unparse(node.type) if node.type is not None else None
            if kind not in (None, "Exception", "BaseException"):
                continue
            if all(
                isinstance(stmt, ast.Pass)
                or (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is Ellipsis
                )
                for stmt in node.body
            ):
                shown = kind if kind is not None else "bare except"
                yield self.hit(
                    ctx,
                    node,
                    f"swallowed exception ({shown}: pass) in a steal/runner "
                    "code path: failures here must surface as structured "
                    "SweepResult errors or retry with a bounded backstop",
                )


class UnvalidatedStoreName(Rule):
    """RPR007: formatted filenames entering store dirs without validation.

    Everything written into a store/lease directory under a *computed*
    name must pass :func:`repro.experiments.cache.validate_flat_name`
    first -- a name assembled by f-string or ``%`` interpolation can
    smuggle a path separator and escape the directory (the reason lease
    stems are hashed).  Flags ``<store path> / f"..."`` joins in functions
    that never call ``validate_flat_name``; ``experiments/backend.py``
    and ``experiments/cache.py`` (which implement the gate and the
    blessed helpers) are exempt.
    """

    code = "RPR007"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_src() or _implements_store_protocol(ctx):
            return
        for scope in _scopes(ctx.tree):
            validates = any(
                isinstance(n, ast.Call) and "validate_flat_name" in _call_name(n)
                for n in scope.nodes
            )
            if validates:
                continue
            for node in scope.nodes:
                if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
                    continue
                right = node.right
                formatted = isinstance(right, ast.JoinedStr) or (
                    isinstance(right, ast.BinOp)
                    and isinstance(right.op, ast.Mod)
                    and isinstance(right.left, ast.Constant)
                    and isinstance(right.left.value, str)
                )
                if not formatted:
                    continue
                left = _expanded(node.left, scope)
                if _is_store_path(left):
                    yield self.hit(
                        ctx,
                        node,
                        f"formatted filename joined onto store path {left!r} "
                        "without validate_flat_name in this function; an "
                        "interpolated component could escape the directory",
                    )


class UnflushedManifest(Rule):
    """RPR008: JSONL manifest loops that never flush.

    A manifest line is the durability record for a completed scenario:
    resume, merge, and the work-stealing done-marking all assume a line is
    on disk once its scenario finished.  A writer loop that buffers lines
    and crashes loses completed work -- or worse, marks leases done for
    scenarios no manifest records.  Flags ``fh.write(... + "\\n")`` calls
    inside a loop when the enclosing function never calls ``fh.flush()``.
    """

    code = "RPR008"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_src():
            return
        for scope in _scopes(ctx.tree):
            flushed = {
                n.func.value.id
                for n in scope.nodes
                if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr == "flush"
                and isinstance(n.func.value, ast.Name)
            }
            loops = [n for n in scope.nodes if isinstance(n, (ast.For, ast.While))]
            for loop in loops:
                for node in ast.walk(loop):
                    if not (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "write"
                        and isinstance(node.func.value, ast.Name)
                        and node.args
                    ):
                        continue
                    arg = node.args[0]
                    newline = (
                        isinstance(arg, ast.BinOp)
                        and isinstance(arg.op, ast.Add)
                        and isinstance(arg.right, ast.Constant)
                        and isinstance(arg.right.value, str)
                        and arg.right.value.endswith("\n")
                    ) or (
                        isinstance(arg, ast.JoinedStr)
                        and arg.values
                        and isinstance(arg.values[-1], ast.Constant)
                        and str(arg.values[-1].value).endswith("\n")
                    )
                    if newline and node.func.value.id not in flushed:
                        yield self.hit(
                            ctx,
                            node,
                            f"JSONL line written to {node.func.value.id!r} in a "
                            "loop with no flush in this function; a crash "
                            "loses completed scenarios -- flush per line",
                        )


ALL_RULES = (
    RawStoreWrite(),
    UnstableHash(),
    NondeterministicKey(),
    ModuleMutableState(),
    SwallowedException(),
    UnvalidatedStoreName(),
    UnflushedManifest(),
)
