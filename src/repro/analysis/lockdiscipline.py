"""Lock and atomic-write discipline for the persistence/service tiers.

Every data-file write in the persistence tiers goes through a
writer-unique temp + ``os.replace`` (so readers never see a torn file),
mutations hold per-shard advisory locks, and shared service state hides
behind one mutex.  Those guarantees only hold while *every* write site
keeps the discipline — which is exactly what dynamic tests cannot prove
(they execute the writes that exist, not the ones a patch adds).  These
rules make the discipline structural:

* ``locks/raw-write`` — in ``runtime``, ``service``, and
  ``characterization``, file writes must route through the injectable
  I/O seam :mod:`repro.runtime.iolayer`, the one temp + ``os.replace``
  writer, where the deterministic fault plans, degraded (read-only)
  mode, and ``io_errors`` accounting all live.  Raw ``open(..., "w")``,
  ``Path.write_text``/``write_bytes``, ``json.dump``-to-handle, and bare
  ``os.replace``/``os.rename`` are flagged.  The seam's own raw sites
  carry explicit ``# repro: allow[locks/raw-write]`` pragmas.
* ``locks/io-seam`` — in the same packages, an ``atomic_write_text`` /
  ``atomic_write_json`` call is a write that is atomic but that the
  fault plan cannot see and degraded mode cannot refuse.
* ``locks/guarded-attr`` — a lock assignment annotated
  ``# repro: guards[a, b, ...]`` declares that those sibling attributes
  (or module globals, for a module-level lock) may only be touched while
  holding that lock.  Accesses outside a ``with <lock>:`` block are
  flagged, except in ``__init__`` (construction precedes sharing) and in
  methods/functions named ``*_locked`` (documented as
  called-under-lock).
* ``locks/locked-call`` — the other half of the ``*_locked`` convention
  (the job queue leans on it hard: the per-path shard mutex is *not*
  reentrant, so multi-entry operations compose ``*_locked`` helpers
  under one acquisition).  A call to any ``*_locked`` function must be
  lexically inside a ``with`` on something lock-like — a ``shard_lock``
  call, a guards-declared lock attribute, anything named ``*lock*`` —
  or inside a function itself named ``*_locked``.  Calling one unheld
  is either a data race or (re-entering) a deadlock.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from .base import Checker, Project
from .findings import Finding, Rule
from .source import SourceModule, resolve_call_name

#: Packages whose file writes must route through the I/O seam.
WRITE_SCOPE_PACKAGES = frozenset({"runtime", "service", "characterization"})

WRITE_METHODS = frozenset({"write_text", "write_bytes"})
RENAME_CALLS = frozenset({"os.replace", "os.rename", "os.renames"})

#: Function tails that name atomic writers outside the seam.  Matched on
#: the last dotted component so every import path is caught.
ATOMIC_HELPER_TAILS = frozenset({"atomic_write_text", "atomic_write_json"})

#: What every locks/raw-write and locks/io-seam finding names as the fix.
SEAM = "repro.runtime.iolayer"


class LockDisciplineChecker(Checker):
    rules = (
        Rule("locks/raw-write", "error",
             "file writes in the persistence tiers must go through the "
             "repro.runtime.iolayer seam (atomic temp + os.replace)"),
        Rule("locks/guarded-attr", "error",
             "state declared lock-guarded may only be touched while holding the lock"),
        Rule("locks/locked-call", "error",
             "*_locked functions assume a held lock; call them under `with <lock>:` "
             "or from another *_locked function"),
        Rule("locks/io-seam", "error",
             "atomic writes in the persistence tiers must route through "
             "repro.runtime.iolayer so fault plans, degraded mode, and "
             "io_error accounting see them"),
    )

    def check_module(self, module: SourceModule, project: Project) -> Iterable[Finding]:
        findings: list[Finding] = []
        if module.package in WRITE_SCOPE_PACKAGES:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call):
                    findings.extend(self._check_write(node, module))
            findings.extend(self._check_locked_calls(module))
        if module.guards:
            findings.extend(self._check_guards(module))
        return findings

    # ------------------------------------------------------------ raw writes

    def _check_write(self, node: ast.Call, module: SourceModule) -> Iterator[Finding]:
        name = resolve_call_name(node, module.symbol_origins)
        if name is not None and name.startswith("runtime.iolayer."):
            return  # a call INTO the seam is the discipline, not a breach
        if name == "open" or (name is None and _method_name(node) == "open"):
            mode = _open_mode(node)
            if mode is not None and any(flag in mode for flag in "wax+"):
                yield self.finding(
                    "locks/raw-write", module, node,
                    f"raw open(..., {mode!r}): a crash mid-write leaves a torn file; "
                    f"use {SEAM}.write_text",
                )
            return
        if name in RENAME_CALLS:
            yield self.finding(
                "locks/raw-write", module, node,
                f"bare {name}(): renames belong inside the {SEAM} seam "
                f"({SEAM}.replace) so temp hygiene and fault plans see them",
            )
            return
        if name == "json.dump":
            yield self.finding(
                "locks/raw-write", module, node,
                f"json.dump to an open handle is not crash-safe; serialize with "
                f"json.dumps and write via {SEAM}.write_text",
            )
            return
        if name is not None and name.rsplit(".", 1)[-1] in ATOMIC_HELPER_TAILS:
            yield self.finding(
                "locks/io-seam", module, node,
                f"{name}() bypasses the {SEAM} seam: the write is atomic but "
                f"invisible to fault plans, degraded mode, and io_error "
                f"accounting; use {SEAM}.write_text / write_bytes / replace",
            )
            return
        method = _method_name(node)
        if method in WRITE_METHODS:
            yield self.finding(
                "locks/raw-write", module, node,
                f".{method}() is not crash-safe; use {SEAM}.{method}",
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
