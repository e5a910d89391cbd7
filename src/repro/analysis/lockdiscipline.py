"""Lock and atomic-write discipline for the persistence/service tiers.

PR 5 made both stores crash-consistent: every data-file write goes
through a writer-unique temp + ``os.replace`` (so readers never see a
torn file), mutations hold per-shard advisory locks, and shared service
state hides behind one mutex.  Those guarantees only hold while *every*
write site keeps the discipline — which is exactly what dynamic tests
cannot prove (they execute the writes that exist, not the ones a patch
adds).  Two rules make the discipline structural:

* ``locks/raw-write`` — in ``runtime``, ``service``, and
  ``characterization``, file writes must route through the
  :mod:`repro.util.atomicio` helpers (re-exported by
  :mod:`repro.runtime.shards`).  Raw ``open(..., "w")``,
  ``Path.write_text``/``write_bytes``, ``json.dump``-to-handle, and bare
  ``os.replace``/``os.rename`` are flagged.
* ``locks/guarded-attr`` — a lock assignment annotated
  ``# repro: guards[a, b, ...]`` declares that those sibling attributes
  (or module globals, for a module-level lock) may only be touched while
  holding that lock.  Accesses outside a ``with <lock>:`` block are
  flagged, except in ``__init__`` (construction precedes sharing) and in
  methods/functions named ``*_locked`` (documented as
  called-under-lock).
* ``locks/locked-call`` — the other half of the ``*_locked`` convention
  (PR 7's job queue leans on it hard: the per-path shard mutex is *not*
  reentrant, so multi-entry operations compose ``*_locked`` helpers
  under one acquisition).  A call to any ``*_locked`` function must be
  lexically inside a ``with`` on something lock-like — a ``shard_lock``
  call, a guards-declared lock attribute, anything named ``*lock*`` —
  or inside a function itself named ``*_locked``.  Calling one unheld
  is either a data race or (re-entering) a deadlock.
* ``locks/io-seam`` — PR 9 routes every store-tier write through the
  injectable seam :mod:`repro.runtime.iolayer`, which is where the
  deterministic fault plans, degraded (read-only) mode, and ``io_errors``
  accounting all live.  In the seam-covered modules
  (:data:`IO_SEAM_MODULES`) a raw write *or* a direct
  ``atomic_write_text``/``atomic_write_json`` call is a write the fault
  plan cannot see and degraded mode cannot refuse — flagged here (in
  place of ``locks/raw-write``, so one bad call yields one finding).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from .base import Checker, Project
from .findings import Finding, Rule
from .source import SourceModule, resolve_call_name

#: Packages whose file writes must be crash-safe.
WRITE_SCOPE_PACKAGES = frozenset({"runtime", "service", "characterization"})

WRITE_METHODS = frozenset({"write_text", "write_bytes"})
RENAME_CALLS = frozenset({"os.replace", "os.rename", "os.renames"})

#: Modules whose writes must route through :mod:`repro.runtime.iolayer`.
#: The seam is where fault plans fire, degraded mode flips, and
#: ``io_errors`` are counted — a write that bypasses it is invisible to
#: all three.  ``runtime.iolayer`` itself is deliberately absent: it is
#: the seam's implementation, and its raw sites carry explicit
#: ``# repro: allow[locks/raw-write]`` pragmas.
IO_SEAM_MODULES = frozenset({
    "runtime.bundlestore",
    "runtime.colfmt",
    "runtime.shards",
    "runtime.store",
    "runtime.runstore",
    "runtime.export",
    "runtime.maintenance",
    "service.queue",
})

#: Function tails that name the un-instrumented atomic writers.  Matched
#: on the last dotted component so every import path is caught —
#: ``util.atomicio.atomic_write_text``, the ``util`` package re-export,
#: and the ``runtime.shards`` compatibility re-export alike.
ATOMICIO_TAILS = frozenset({"atomic_write_text", "atomic_write_json"})


class LockDisciplineChecker(Checker):
    rules = (
        Rule("locks/raw-write", "error",
             "file writes in the persistence tiers must be atomic (temp + os.replace)"),
        Rule("locks/guarded-attr", "error",
             "state declared lock-guarded may only be touched while holding the lock"),
        Rule("locks/locked-call", "error",
             "*_locked functions assume a held lock; call them under `with <lock>:` "
             "or from another *_locked function"),
        Rule("locks/io-seam", "error",
             "store-tier writes must route through repro.runtime.iolayer so "
             "fault plans, degraded mode, and io_error accounting see them"),
    )

    def check_module(self, module: SourceModule, project: Project) -> Iterable[Finding]:
        findings: list[Finding] = []
        if module.package in WRITE_SCOPE_PACKAGES:
            seam = module.module_name in IO_SEAM_MODULES
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call):
                    findings.extend(self._check_write(node, module, seam=seam))
            findings.extend(self._check_locked_calls(module))
        if module.guards:
            findings.extend(self._check_guards(module))
        return findings

    # ------------------------------------------------------------ raw writes

    def _check_write(
        self, node: ast.Call, module: SourceModule, *, seam: bool = False
    ) -> Iterator[Finding]:
        # In a seam-covered module every raw form is reported as io-seam
        # (not raw-write): the fix is the same single call either way, and
        # one bad write should yield one finding, not two.
        rule = "locks/io-seam" if seam else "locks/raw-write"
        remedy = (
            "repro.runtime.iolayer.write_text" if seam
            else "repro.util.atomicio.atomic_write_text"
        )
        name = resolve_call_name(node, module.symbol_origins)
        if name is not None and name.startswith("runtime.iolayer."):
            return  # a call INTO the seam is the discipline, not a breach
        if name == "open" or (name is None and _method_name(node) == "open"):
            mode = _open_mode(node)
            if mode is not None and any(flag in mode for flag in "wax+"):
                yield self.finding(
                    rule, module, node,
                    f"raw open(..., {mode!r}): a crash mid-write leaves a torn file; "
                    f"use {remedy}",
                )
            return
        if name in RENAME_CALLS:
            yield self.finding(
                rule, module, node,
                f"bare {name}(): renames belong inside the "
                f"{'iolayer' if seam else 'shards/atomicio'} helpers "
                f"so temp hygiene and shard indexes stay consistent",
            )
            return
        if name == "json.dump":
            yield self.finding(
                rule, module, node,
                f"json.dump to an open handle is not crash-safe; serialize with "
                f"json.dumps and write via {remedy}",
            )
            return
        if seam and name is not None and name.rsplit(".", 1)[-1] in ATOMICIO_TAILS:
            yield self.finding(
                "locks/io-seam", module, node,
                f"{name}() bypasses the repro.runtime.iolayer seam: the write "
                f"is atomic but invisible to fault plans, degraded mode, and "
                f"io_error accounting; use iolayer.write_text / write_bytes / "
                f"replace with root= set to the store root",
            )
            return
        method = _method_name(node)
        if method in WRITE_METHODS:
            yield self.finding(
                rule, module, node,
                f".{method}() is not crash-safe; use {remedy}",
            )

    # ----------------------------------------------------------- locked calls

    def _check_locked_calls(self, module: SourceModule) -> Iterator[Finding]:
        attr_locks, global_locks = _declared_locks(module)
        for func in _all_functions(module.tree):
            if func.name.endswith("_locked"):
                continue
            walker = _LockedCallWalker(module, attr_locks, global_locks)
            walker.walk(func)
            for call, callee in walker.violations:
                yield self.finding(
                    "locks/locked-call", module, call,
                    f"{callee}() assumes its lock is already held, but no enclosing "
                    f"`with <lock>:` is visible in {func.name}; acquire the lock "
                    f"around it (or rename the caller *_locked if its own callers "
                    f"hold it)",
                )

    # --------------------------------------------------------- guarded state

    def _check_guards(self, module: SourceModule) -> Iterator[Finding]:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class_guards(node, module)
        yield from self._check_module_guards(module)

    def _check_class_guards(self, cls: ast.ClassDef, module: SourceModule) -> Iterator[Finding]:
        # Lock declarations: `self.<lock> = ...  # repro: guards[...]` in any method.
        declarations: list[tuple[str, tuple[str, ...]]] = []
        for method in _methods(cls):
            for stmt in ast.walk(method):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                guarded = module.guards.get(stmt.lineno)
                if not guarded:
                    continue
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if _is_self_attribute(target):
                        declarations.append((target.attr, guarded))
        for lock_attr, guarded in declarations:
            guarded_set = frozenset(guarded)
            for method in _methods(cls):
                if method.name == "__init__" or method.name.endswith("_locked"):
                    continue
                walker = _GuardWalker(
                    lock_is_attr=True, lock_name=lock_attr, guarded=guarded_set
                )
                walker.walk(method)
                for access in walker.violations:
                    yield self.finding(
                        "locks/guarded-attr", module, access,
                        f"self.{access.attr} is declared guarded by self.{lock_attr} "
                        f"but is touched outside `with self.{lock_attr}:` "
                        f"(in {cls.name}.{method.name})",
                    )

    def _check_module_guards(self, module: SourceModule) -> Iterator[Finding]:
        declarations: list[tuple[str, tuple[str, ...]]] = []
        for stmt in module.tree.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            guarded = module.guards.get(stmt.lineno)
            if not guarded:
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    declarations.append((target.id, guarded))
        for lock_name, guarded in declarations:
            guarded_set = frozenset(guarded)
            for stmt in module.tree.body:
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if stmt.name.endswith("_locked"):
                    continue
                walker = _GuardWalker(
                    lock_is_attr=False, lock_name=lock_name, guarded=guarded_set
                )
                walker.walk(stmt)
                for access in walker.violations:
                    label = access.attr if isinstance(access, ast.Attribute) else access.id
                    yield self.finding(
                        "locks/guarded-attr", module, access,
                        f"{label} is declared guarded by {lock_name} but is touched "
                        f"outside `with {lock_name}:` (in {stmt.name})",
                    )


class _GuardWalker:
    """Walks one function tracking whether the declared lock is held."""

    def __init__(self, *, lock_is_attr: bool, lock_name: str, guarded: frozenset[str]) -> None:
        self.lock_is_attr = lock_is_attr
        self.lock_name = lock_name
        self.guarded = guarded
        self.violations: list[ast.AST] = []

    def walk(self, func: ast.AST) -> None:
        for stmt in getattr(func, "body", []):
            self._visit(stmt, held=False)

    def _visit(self, node: ast.AST, held: bool) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            takes = any(self._is_lock(item.context_expr) for item in node.items)
            for item in node.items:
                self._visit(item.context_expr, held)
            for child in node.body:
                self._visit(child, held or takes)
            return
        if self._is_violation(node, held):
            self.violations.append(node)
            # Still recurse: the subexpression may contain more accesses.
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    def _is_lock(self, expr: ast.expr) -> bool:
        if self.lock_is_attr:
            return _is_self_attribute(expr) and expr.attr == self.lock_name
        return isinstance(expr, ast.Name) and expr.id == self.lock_name

    def _is_violation(self, node: ast.AST, held: bool) -> bool:
        if held:
            return False
        if self.lock_is_attr:
            return _is_self_attribute(node) and node.attr in self.guarded
        return isinstance(node, ast.Name) and node.id in self.guarded


class _LockedCallWalker:
    """Finds ``*_locked(...)`` calls made without a visible lock context.

    Lexical and per-function: a ``with`` on anything lock-like (a call or
    name containing ``lock``, or a guards-declared lock attribute/global)
    marks its body held.  Nested function bodies are *not* marked by an
    enclosing ``with`` — they run later, at their call site — and are
    walked separately on their own.
    """

    def __init__(self, module: SourceModule, attr_locks: frozenset[str],
                 global_locks: frozenset[str]) -> None:
        self.module = module
        self.attr_locks = attr_locks
        self.global_locks = global_locks
        self.violations: list[tuple[ast.Call, str]] = []

    def walk(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for stmt in func.body:
            self._visit(stmt, held=False)

    def _visit(self, node: ast.AST, held: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # gets its own walk; the lock is not held at *its* call time
        if isinstance(node, ast.Lambda):
            self._visit(node.body, False)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            takes = any(self._is_lockish(item.context_expr) for item in node.items)
            for item in node.items:
                self._visit(item.context_expr, held)
            for child in node.body:
                self._visit(child, held or takes)
            return
        if isinstance(node, ast.Call) and not held:
            callee = self._locked_callee(node)
            if callee is not None:
                self.violations.append((node, callee))
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    def _locked_callee(self, node: ast.Call) -> str | None:
        name = resolve_call_name(node, self.module.symbol_origins)
        if name is not None and name.rsplit(".", 1)[-1].endswith("_locked"):
            return name
        if isinstance(node.func, ast.Attribute) and node.func.attr.endswith("_locked"):
            return node.func.attr
        return None

    def _is_lockish(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Call):
            name = resolve_call_name(expr, self.module.symbol_origins)
            if name is not None and "lock" in name.lower():
                return True
            return (isinstance(expr.func, ast.Attribute)
                    and "lock" in expr.func.attr.lower())
        if _is_self_attribute(expr):
            return "lock" in expr.attr.lower() or expr.attr in self.attr_locks
        if isinstance(expr, ast.Attribute):
            return "lock" in expr.attr.lower()
        if isinstance(expr, ast.Name):
            return "lock" in expr.id.lower() or expr.id in self.global_locks
        return False


def _declared_locks(module: SourceModule) -> tuple[frozenset[str], frozenset[str]]:
    """Lock names declared via ``# repro: guards[...]``: (self-attrs, globals)."""
    attr_locks: set[str] = set()
    global_locks: set[str] = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        if not module.guards.get(node.lineno):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if _is_self_attribute(target):
                attr_locks.add(target.attr)
            elif isinstance(target, ast.Name):
                global_locks.add(target.id)
    return frozenset(attr_locks), frozenset(global_locks)


def _all_functions(tree: ast.Module) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _methods(cls: ast.ClassDef) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    return [n for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _is_self_attribute(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _method_name(node: ast.Call) -> str | None:
    return node.func.attr if isinstance(node.func, ast.Attribute) else None


def _open_mode(node: ast.Call) -> str | None:
    mode: ast.expr | None = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return None  # default "r": read-only
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None  # dynamic mode: beyond static reach
