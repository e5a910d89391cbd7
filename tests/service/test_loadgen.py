"""The load generator is a CI gate (service-smoke), so it is itself tested:
a small mix must pass all four properties and exit 0, and its checks must
actually be able to fail."""

import importlib.util
import pathlib

import pytest

_LOADGEN = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "loadgen.py"


@pytest.fixture(scope="module")
def loadgen():
    spec = importlib.util.spec_from_file_location("loadgen", _LOADGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_mix_passes(loadgen, tmp_path, capsys):
    code = loadgen.main([
        "--requests", "4", "--workers", "2", "--budget", "24", "--scenario-count", "2",
        "--trace-store", str(tmp_path / "t"), "--run-store", str(tmp_path / "r"),
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "all checks passed" in out
    assert "warm re-serve: 0 runs, 0 trace builds" in out


def test_warm_second_process_equivalent(loadgen, tmp_path, capsys):
    args = [
        "--requests", "3", "--workers", "2", "--budget", "24", "--scenario-count", "2",
        "--trace-store", str(tmp_path / "t"), "--run-store", str(tmp_path / "r"),
        "--skip-serial-check",
    ]
    assert loadgen.main(args) == 0
    capsys.readouterr()
    # Second invocation (fresh "process" state): --expect-warm demands
    # the first serve already executes zero runs and builds zero traces.
    assert loadgen.main(args + ["--expect-warm"]) == 0
    assert "0 runs," in capsys.readouterr().out

    # And the gate really gates: against empty stores it must fail.
    assert loadgen.main([
        "--requests", "2", "--workers", "2", "--budget", "24", "--scenario-count", "1",
        "--trace-store", str(tmp_path / "cold-t"), "--run-store", str(tmp_path / "cold-r"),
        "--skip-serial-check", "--expect-warm",
    ]) == 1
    assert "expected a warm serve" in capsys.readouterr().err


def test_loadgen_detects_divergence(loadgen, tmp_path, capsys, monkeypatch):
    # Force the service's runs onto a different engine seed than the
    # serial checker: bit-equality must fail and the exit code flip.
    import repro.runtime.experiment as executor_mod

    real = executor_mod.run_policy

    def skewed(policy, trace, soc=None, engine_seed=1234, fast=False):
        return real(policy, trace, soc=soc, engine_seed=engine_seed + 1, fast=fast)

    monkeypatch.setattr(executor_mod, "run_policy", skewed)
    code = loadgen.main([
        "--requests", "2", "--workers", "2", "--budget", "24", "--scenario-count", "1",
        "--trace-store", str(tmp_path / "t"), "--run-store", str(tmp_path / "r"),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "diverges from serial run" in captured.err
