"""locks/* rules: raw writes and unguarded state in the persistence tiers."""

from __future__ import annotations

import pytest


class TestRawWrite:
    def test_fires_on_raw_open_for_write(self, tree):
        tree.write("runtime/dump.py", """
            def save(path, text):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
        """)
        assert "locks/raw-write" in tree.rules_fired()

    def test_fires_on_write_text(self, tree):
        tree.write("service/dump.py", """
            def save(path, text):
                path.write_text(text)
        """)
        assert "locks/raw-write" in tree.rules_fired()

    def test_fires_on_bare_os_replace(self, tree):
        tree.write("runtime/dump.py", """
            import os

            def promote(src, dst):
                os.replace(src, dst)
        """)
        assert "locks/raw-write" in tree.rules_fired()

    def test_fires_on_json_dump(self, tree):
        tree.write("characterization/dump.py", """
            import json

            def save(payload, handle):
                json.dump(payload, handle)
        """)
        assert "locks/raw-write" in tree.rules_fired()

    def test_quiet_on_reads_and_atomic_helper(self, tree):
        # Quiet for this rule only: the helper draws locks/io-seam (TestIoSeam).
        tree.write("runtime/dump.py", """
            import json

            def load(path):
                with open(path, encoding="utf-8") as handle:
                    return json.load(handle)

            def save(path, payload):
                from ..util.atomicio import atomic_write_json
                atomic_write_json(path, payload)
        """)
        assert "locks/raw-write" not in tree.rules_fired()

    def test_quiet_outside_persistence_tiers(self, tree):
        # experiments/ writes tables and figures; that output is not a store.
        tree.write("experiments/tables.py", """
            def save(path, text):
                path.write_text(text)
        """)
        assert "locks/raw-write" not in tree.rules_fired()

    def test_suppression_pragma_silences_it(self, tree):
        tree.write("runtime/locks.py", """
            def grab(lock_path):
                return open(lock_path, "a+")  # repro: allow[locks/raw-write]
        """)
        assert "locks/raw-write" not in tree.rules_fired()


GUARDED_CLASS = """
    import threading

    class Service:
        def __init__(self):
            self._lock = threading.Lock()  # repro: guards[_jobs, _closed]
            self._jobs = {{}}
            self._closed = False

        def submit(self, key, value):
            {body}

        def _evict_locked(self):
            self._jobs.clear()
"""


class TestGuardedAttr:
    def test_fires_on_unlocked_access(self, tree):
        tree.write("service/svc.py", GUARDED_CLASS.format(
            body="self._jobs[key] = value"))
        assert "locks/guarded-attr" in tree.rules_fired()

    def test_quiet_under_the_lock(self, tree):
        tree.write("service/svc.py", GUARDED_CLASS.format(
            body="with self._lock:\n                self._jobs[key] = value"))
        assert "locks/guarded-attr" not in tree.rules_fired()

    def test_init_and_locked_suffix_are_exempt(self, tree):
        # __init__ constructs the state; _evict_locked documents its contract.
        tree.write("service/svc.py", GUARDED_CLASS.format(body="pass"))
        assert "locks/guarded-attr" not in tree.rules_fired()

    def test_undeclared_attrs_are_not_guarded(self, tree):
        tree.write("service/svc.py", GUARDED_CLASS.format(
            body="self.stats = 1"))
        assert "locks/guarded-attr" not in tree.rules_fired()

    def test_module_level_lock(self, tree):
        tree.write("runtime/reg.py", """
            import threading

            _CACHE = {}
            _GUARD = threading.Lock()  # repro: guards[_CACHE]

            def get(key):
                return _CACHE.get(key)

            def get_safe(key):
                with _GUARD:
                    return _CACHE.get(key)
        """)
        findings = [f for f in tree.lint().findings if f.rule == "locks/guarded-attr"]
        assert len(findings) == 1
        assert "get" in findings[0].message


class TestLockedCall:
    def test_fires_on_unheld_locked_call(self, tree):
        tree.write("service/queue.py", """
            def read_record(shard, path):
                return _read_record_locked(shard, path)

            def _read_record_locked(shard, path):
                return None
        """)
        assert "locks/locked-call" in tree.rules_fired()

    def test_fires_on_unheld_locked_method_call(self, tree):
        tree.write("runtime/store.py", """
            class Store:
                def load(self, shard, name):
                    return self._load_locked(shard, name)

                def _load_locked(self, shard, name):
                    return None
        """)
        assert "locks/locked-call" in tree.rules_fired()

    def test_quiet_under_a_lock_call_context(self, tree):
        tree.write("service/queue.py", """
            from ..runtime.shards import shard_lock, write_entry_locked

            def write(shard, name, text, meta):
                with shard_lock(shard):
                    return write_entry_locked(shard, name, text, meta)
        """)
        assert "locks/locked-call" not in tree.rules_fired()

    def test_quiet_under_a_guards_declared_lock(self, tree):
        tree.write("service/service.py", """
            import threading

            class Service:
                def __init__(self):
                    self._state = threading.Lock()  # repro: guards[_jobs]
                    self._jobs = {}

                def evict(self):
                    with self._state:
                        self._evict_locked()

                def _evict_locked(self):
                    self._jobs.clear()
        """)
        assert "locks/locked-call" not in tree.rules_fired()

    def test_quiet_inside_another_locked_function(self, tree):
        tree.write("service/queue.py", """
            def _sweep_locked(shard):
                for path in shard.glob("*.json"):
                    _read_record_locked(shard, path)

            def _read_record_locked(shard, path):
                return None
        """)
        assert "locks/locked-call" not in tree.rules_fired()

    def test_nested_function_does_not_inherit_the_lock(self, tree):
        # The closure runs later, at its call site — the enclosing
        # `with` proves nothing about lock state at that moment.
        tree.write("service/queue.py", """
            def update(lock, shard, path):
                def mutate():
                    return _read_record_locked(shard, path)
                with lock:
                    pass
                return mutate

            def _read_record_locked(shard, path):
                return None
        """)
        assert "locks/locked-call" in tree.rules_fired()

    def test_quiet_outside_persistence_tiers(self, tree):
        tree.write("experiments/report.py", """
            def render(table):
                return _render_locked(table)

            def _render_locked(table):
                return str(table)
        """)
        assert "locks/locked-call" not in tree.rules_fired()

    def test_suppression_pragma_silences_it(self, tree):
        tree.write("service/queue.py", """
            def probe(shard, path):
                return _read_record_locked(shard, path)  # repro: allow[locks/locked-call]

            def _read_record_locked(shard, path):
                return None
        """)
        assert "locks/locked-call" not in tree.rules_fired()


class TestIoSeam:
    """Persistence-tier writes must route through the repro.runtime.iolayer seam."""

    def test_atomic_helper_in_a_seam_module_fires_io_seam(self, tree):
        # Atomic is necessary but not sufficient: a direct atomic-helper
        # call is invisible to fault plans and degraded mode, so it draws
        # io-seam rather than raw-write.
        tree.write("runtime/shards.py", """
            def save(path, text):
                from ..util.atomicio import atomic_write_text
                atomic_write_text(path, text)
        """)
        fired = tree.rules_fired()
        assert "locks/io-seam" in fired
        assert "locks/raw-write" not in fired

    @pytest.mark.parametrize("module", [
        "characterization/serialization.py", "service/worker.py", "runtime/metrics.py",
    ])
    def test_atomic_helper_anywhere_in_the_write_scope_fires_io_seam(self, tree, module):
        # No hand-kept module list: the bundle writer once sat outside it.
        tree.write(module, """
            def save(path, payload):
                from ..util.atomicio import atomic_write_json
                atomic_write_json(path, payload)
        """)
        findings = [f for f in tree.lint().findings if f.rule.startswith("locks/")]
        assert [f.rule for f in findings] == ["locks/io-seam"]
        assert "repro.runtime.iolayer" in findings[0].message

    def test_raw_write_in_a_seam_module_reports_as_io_seam(self, tree):
        # A store module's raw write names the iolayer seam as its fix,
        # under the one raw-write rule, so one bad call is one finding.
        tree.write("service/queue.py", """
            def save(path, text):
                path.write_text(text)
        """)
        findings = [f for f in tree.lint().findings if f.rule.startswith("locks/")]
        assert [f.rule for f in findings] == ["locks/raw-write"]
        assert "repro.runtime.iolayer" in findings[0].message

    def test_non_seam_modules_keep_the_raw_write_rule(self, tree):
        # No hand-kept module list: a module that was never a store module
        # draws the same finding, naming the same seam.
        tree.write("runtime/metrics.py", """
            def save(path, text):
                path.write_text(text)
        """)
        findings = [f for f in tree.lint().findings if f.rule.startswith("locks/")]
        assert [f.rule for f in findings] == ["locks/raw-write"]
        assert "repro.runtime.iolayer" in findings[0].message

    def test_one_finding_per_bad_call(self, tree):
        tree.write("runtime/store.py", """
            def save(path, text):
                from ..util.atomicio import atomic_write_text
                atomic_write_text(path, text)
        """)
        findings = [f for f in tree.lint().findings if f.rule.startswith("locks/")]
        assert len(findings) == 1

    def test_calls_into_the_seam_are_the_discipline(self, tree):
        tree.write("runtime/export.py", """
            from . import iolayer

            def save(path, text, root):
                iolayer.write_text(path, text, root=root)
                iolayer.replace(path, path.with_suffix(".new"), root=root)
        """)
        fired = tree.rules_fired()
        assert "locks/io-seam" not in fired
        assert "locks/raw-write" not in fired

    def test_suppression_pragma_silences_it(self, tree):
        tree.write("runtime/shards.py", """
            def save(path, text):
                from ..util.atomicio import atomic_write_text
                atomic_write_text(path, text)  # repro: allow[locks/io-seam]
        """)
        assert not [rule for rule in tree.rules_fired() if rule.startswith("locks/")]

    def test_iolayer_itself_ranks_with_the_runtime_layer(self):
        from repro.analysis.layering import LAYER_RANKS, rank_for

        assert rank_for("runtime.iolayer") == LAYER_RANKS["runtime.iolayer"]
        assert LAYER_RANKS["runtime.iolayer"] == LAYER_RANKS["runtime"]
