"""Repo-aware static analysis: the invariants the tests assume, checked at lint time.

The differential fuzz harness (``repro verify``) proves determinism
*dynamically* — same seeds, same bytes.  This package proves the
structural preconditions *statically*, on every file, before anything
runs: no ambient entropy in the deterministic tiers, atomic writes and
lock discipline in the stores, persisted schemas pinned to a committed
manifest, imports pointing down the layer tower, and no swallowed
exceptions in the execution loops.

Run it as ``python -m repro lint`` (exit 0 clean / 1 findings / 2 bad
usage).  Silence a deliberate violation inline::

    handle = open(lock_path, "a+")  # repro: allow[locks/raw-write]

and declare lock-guarded state so the guard is enforced::

    self._state = threading.Lock()  # repro: guards[_jobs, _closed]
"""

from ..util.lazy import lazy_exports

# Lazy (PEP 562): ``repro lint``'s options are declared on every CLI run,
# the checkers load only when lint runs.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("Checker", "Project", "Registry"),
    "engine": ("LintConfig", "LintResult", "default_registry", "run_lint"),
    "findings": ("Finding", "Rule"),
    "source": ("SourceModule", "parse_module"),
})
