"""Public API surface tests: the names a downstream user depends on."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent.parent

#: Tiny stores: every warm command below reads them back as run-store hits.
FAST = ["--scale", "0.05", "--validation", "80"]
SWEEP = ["sweep", "shift,marlin,single:yolov7@gpu", "--scenarios", "s3_indoor_close_wall"]

#: NumPy and the per-frame vision code: they load with the first run or
#: column decode, so no warm op loads them.
ARRAY_SKIPS = (
    "numpy", "repro.vision.rendering", "repro.vision.ncc", "repro.vision.tracker",
    "repro.core.context",
)
#: The cold path a warm sweep's run-store hits skip.
SWEEP_SKIPS = (
    "repro.runtime.trace", "repro.data.generator", "repro.data.dataset", "repro.data.grammar",
    "repro.models.detector", "repro.core.scheduler", "repro.core.loader", "repro.sim.engine",
    "repro.service.queue", "repro.service.worker", "concurrent.futures.process", *ARRAY_SKIPS,
)
#: What a warm drain of baseline jobs never needs (each with its submodules):
#: the shift path, the trace builder and the array code.
WORK_SKIPS = (
    "repro.characterization", "repro.core.confidence_graph", "repro.core.pipeline",
    "repro.experiments", "repro.runtime.trace", "repro.data.grammar", "repro.models.detector",
    *ARRAY_SKIPS,
)


def python(code: str, *argv: str) -> subprocess.CompletedProcess:
    """``python -c CODE ARGV`` in a fresh interpreter that imports this checkout."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code), *argv], env=env,
                          capture_output=True, text=True, timeout=300)


#: Runs ``repro ARGV`` like ``python -m repro``, then prints the modules it loaded.
LOADED_BY = """
    import json
    import sys

    from repro.cli import main

    code = main(sys.argv[1:])
    print(json.dumps({"exit": code, "modules": sorted(sys.modules)}))
"""


def loaded_by(*argv: str) -> tuple[str, list[str]]:
    """``repro ARGV``'s stdout (its last line dropped) and the modules it loaded."""
    done = python(LOADED_BY, *argv)
    assert done.returncode == 0, done.stderr
    *lines, last = done.stdout.splitlines()
    report = json.loads(last)
    assert report["exit"] == 0, done.stderr
    return "\n".join(lines), report["modules"]


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"

    def test_core_entry_points(self):
        assert callable(repro.characterize)
        assert callable(repro.default_zoo)
        assert callable(repro.xavier_nx_with_oakd)
        assert callable(repro.run_policy)

    def test_policies_are_policies(self):
        from repro.runtime import Policy

        assert issubclass(repro.ShiftPipeline, Policy)
        assert issubclass(repro.MarlinPolicy, Policy)
        assert issubclass(repro.SingleModelPolicy, Policy)
        assert issubclass(repro.OraclePolicy, Policy)

    def test_quickstart_docstring_names_exist(self):
        # The module docstring's quickstart must only use exported names.
        for name in (
            "default_zoo", "xavier_nx_with_oakd", "characterize",
            "ShiftPipeline", "ExperimentRunner", "TraceStore", "TraceCache",
            "run_policy", "aggregate", "average_metrics",
            "evaluation_scenarios", "scenario_by_name",
        ):
            assert hasattr(repro, name)

    def test_experiments_importable(self):
        from repro import experiments

        assert callable(experiments.table3)
        assert callable(experiments.figure5)

    def test_cli_loads_only_what_its_commands_run(self, tmp_path):
        # A fresh interpreter: this test process has imported everything.
        done = python("""
            import sys
            import repro.cli

            repro.cli.build_parser()
            heavy = ("repro.service.http", "repro.service.worker", "repro.verify.differential",
                     "repro.analysis.engine")
            loaded = [name for name in heavy if name in sys.modules]
            assert not loaded, loaded
            import repro

            missing = [name for name in repro.__all__ if not hasattr(repro, name)]
            assert not missing, missing
            assert "repro.verify.differential" in sys.modules  # resolved on demand
        """)
        assert done.returncode == 0, done.stderr

        # Warm commands: one child fills tiny stores and enqueues baseline
        # jobs whose runs it already stored; each warm command then runs in
        # a fresh child, where every cell is a run-store hit.
        traces, runs, queue = (str(tmp_path / name) for name in ("traces", "runs", "queue"))
        stores = ["--trace-store", traces, "--run-store", runs]
        done = python("""
            import sys

            from repro.cli import main
            from repro.data import scenario_by_name
            from repro.service import JobQueue, SweepRequest, decompose

            *argv, queue = sys.argv[1:]
            assert main(argv) == 0
            request = SweepRequest(policies=("marlin", "single:yolov7@gpu"),
                                   scenarios=(scenario_by_name("s3_indoor_close_wall").scaled(0.05),))
            assert JobQueue(queue).enqueue_all(decompose(request)) == 2
        """, *FAST, *stores, *SWEEP, queue)
        assert done.returncode == 0, done.stderr
        cold_table = done.stdout.rstrip("\n")

        def run_entries():
            return sorted((path, path.stat().st_mtime_ns)
                          for path in (tmp_path / "runs").rglob("run-*.col"))

        cold_runs = run_entries()
        [bundle] = (tmp_path / "traces" / "_characterization").rglob("bundle-*.col")
        written = bundle.stat().st_mtime_ns

        table, modules = loaded_by(*FAST, *stores, *SWEEP)
        assert table == cold_table
        loaded = sorted(set(modules) & set(SWEEP_SKIPS))
        assert not loaded, f"a warm sweep loaded its cold path: {loaded}"
        # Every cell was a hit: no run executed, no entry written or rewritten.
        assert run_entries() == cold_runs
        assert bundle.stat().st_mtime_ns == written

        _, modules = loaded_by("work", queue, "--run-store", runs, "--trace-store", traces)
        done = python("""
            import sys

            from repro.service import JobQueue

            counts = JobQueue(sys.argv[1]).counts()
            assert counts["done"] == counts["total"] == 2, counts
        """, queue)
        assert done.returncode == 0, done.stderr
        loaded = sorted(name for name in modules
                        if any(name == skip or name.startswith(f"{skip}.") for skip in WORK_SKIPS))
        assert not loaded, f"a warm drain of baseline jobs loaded: {loaded}"


def _lazy_packages() -> list[str]:
    """Every package whose ``__init__`` exports through ``lazy_exports``."""
    src = PACKAGE_ROOT / "repro"
    return sorted(
        ".".join(("repro", *init.parent.relative_to(src).parts))
        for init in src.rglob("__init__.py") if "lazy_exports(__name__" in init.read_text()
    )


class TestLazyExports:
    def test_the_runtime_and_the_tiers_export_lazily(self):
        assert {"repro.core", "repro.data", "repro.runtime", "repro.vision"} <= set(_lazy_packages())

    @pytest.mark.parametrize("package", _lazy_packages())
    def test_every_name_resolves_to_its_defining_module(self, package):
        # The export table is read from the __init__ source, so the check
        # does not trust the mapping it verifies; a fresh interpreter, so
        # nothing is resolved before the package's own __getattr__ runs.
        done = python("""
            import ast
            import importlib
            import sys

            package = sys.argv[1]
            module = importlib.import_module(package)
            call = next(node for node in ast.walk(ast.parse(open(module.__file__).read()))
                        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "lazy_exports")
            exports = ast.literal_eval(call.args[1])
            listed = set(dir(module))
            for source, names in exports.items():
                for name in names:
                    value = getattr(module, name)
                    relative = source if source.startswith(".") else "." + source
                    defining = importlib.import_module(relative, package)
                    assert value is vars(defining)[name], (name, source)
                    assert name in module.__all__ and name in listed, name
            exported = {name for names in exports.values() for name in names}
            assert exported <= set(module.__all__)
            # Anything else __all__ lists is defined by the __init__ itself.
            assert all(name in vars(module) for name in set(module.__all__) - exported)
        """, package)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("first", ["import repro.vision.ncc", "from repro.vision import ncc",
                                       "from repro.vision.tracker import TemplateTracker"])
    def test_an_export_named_like_its_submodule_stays_the_export(self, first):
        done = python(f"""
            {first}
            import sys

            import repro.vision
            import repro.vision.ncc
            from repro.vision import ncc

            function = vars(sys.modules["repro.vision.ncc"])["ncc"]
            assert repro.vision.ncc is function and ncc is function, repro.vision.ncc
        """)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("check", [
        """assert scenario_by_name("g_dm_s001_crx_day_96f").total_frames == 96""",
        """assert sum(name.startswith("g_dm_") for name in scenario_names()) == 144""",
        """
        import dataclasses

        import pytest

        generated = dataclasses.replace(scenario_by_name("s3_indoor_close_wall"),
                                        name="g_dm_s001_crx_day_96f")
        with pytest.raises(ValueError, match="shadows a generated"):
            register_scenario(generated)
        """,
    ], ids=["lookup", "names", "register"])
    def test_generated_names_need_no_grammar_import(self, check):
        done = python(textwrap.dedent("""
            import sys

            from repro.data import register_scenario, scenario_by_name, scenario_names

            assert "repro.data.grammar" not in sys.modules
        """) + textwrap.dedent(check))
        assert done.returncode == 0, done.stderr
