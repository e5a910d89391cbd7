"""Public API surface tests: the names a downstream user depends on."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro


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

    def test_cli_loads_only_what_its_commands_run(self):
        # A fresh interpreter: this test process has imported everything.
        code = textwrap.dedent("""
            import sys
            import repro.cli

            repro.cli.build_parser()
            heavy = ("repro.service.http", "repro.verify.differential", "repro.analysis.engine")
            loaded = [name for name in heavy if name in sys.modules]
            assert not loaded, loaded
            import repro

            missing = [name for name in repro.__all__ if not hasattr(repro, name)]
            assert not missing, missing
            assert "repro.verify.differential" in sys.modules  # resolved on demand
        """)
        package_root = Path(repro.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(package_root)}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
