"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

FAST = ["--scale", "0.03", "--validation", "60"]


def repro_child(argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m repro ARGV`` in a child process, bounded by a timeout.

    For ``serve --http`` cases: a server that starts serving, or hangs on
    its way out, fails the test instead of wedging the suite.
    """
    package_root = Path(repro.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    return subprocess.run([sys.executable, "-m", "repro", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.fixture
def executed_runs(monkeypatch):
    """Every run the cell executor executes, as (policy, scenario) names."""
    from repro.runtime import experiment

    runs = []
    real = experiment.run_policy

    def counting(policy, trace, *args, **kwargs):
        runs.append((policy.name, trace.scenario.name))
        return real(policy, trace, *args, **kwargs)

    monkeypatch.setattr(experiment, "run_policy", counting)
    return runs


#: ``repro --scale 0.03 --validation 60 run marlin-tiny s3_indoor_close_wall``
#: as the scalar reference engine prints it.
RUN_MARLIN_TINY_S3 = """\
policy       marlin:yolov7-tiny
scenario     s3_indoor_close_wall (15 frames)
mean IoU     0.681
success      100.0%
time/frame   0.0368 s
energy/frame 0.3003 J
total energy 4.5 J
non-GPU      0.0%
swaps        0
pairs used   1
"""


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["table", "2"])
        assert args.scale == 1.0
        assert args.validation == 800

    def test_run_objective_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "shift", "s", "--objective", "nope"])

    @pytest.mark.parametrize("argv", [
        ["--scale", "0", "table", "1"],
        ["--scale", "-0.5", "table", "1"],
        ["--scale", "nan", "table", "1"],
        ["--scale", "inf", "table", "1"],
        ["--validation", "0", "table", "1"],
        ["figure", "5", "--sweep-scale", "0"],
        ["figure", "5", "--sweep-scale", "nan"],
        ["figure", "5", "--sweep-scale", "inf"],
        ["serve", "--http", "0", "--request-timeout", "0"],
        ["serve", "--http", "0", "--request-timeout", "7200"],
        ["serve", "--http", "0", "--request-timeout", "nan"],
        ["serve", "jobs.json", "--procs", "1", "--lease", "0"],
        ["serve", "jobs.json", "--procs", "1", "--worker-timeout", "-1"],
        ["work", "q", "--run-store", "r", "--lease", "-1"],
        ["--workers", "0", "table", "1"],
        ["serve", "jobs.json", "--service-workers", "0"],
        ["serve", "--http", "0", "--max-pending", "0"],
        ["work", "q", "--run-store", "r", "--max-attempts", "0"],
    ])
    def test_unusable_sizes_exit_2_before_any_work(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "finite positive" in err or "at least 1" in err
        assert "Traceback" not in err

    def test_request_timeout_above_the_cap_names_it(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--http", "0", "--request-timeout", "7200"])
        assert exit_info.value.code == 2
        assert "no larger than 3600" in capsys.readouterr().err


class TestCommands:
    def test_table2_static(self, capsys):
        assert main(FAST + ["table", "2"]) == 0
        out = capsys.readouterr().out
        assert "SHIFT" in out and "MARLIN" in out

    def test_table1(self, capsys):
        assert main(FAST + ["table", "1"]) == 0
        assert "yolov7" in capsys.readouterr().out

    def test_table4(self, capsys):
        assert main(FAST + ["table", "4"]) == 0
        assert "ssd-mobilenet-v2-320" in capsys.readouterr().out

    def test_unknown_table_number(self, capsys):
        assert main(FAST + ["table", "9"]) == 2
        assert "tables 1-4" in capsys.readouterr().err

    def test_figure1(self, capsys):
        assert main(FAST + ["figure", "1"]) == 0
        assert "single-family" in capsys.readouterr().out

    def test_unknown_figure_number(self, capsys):
        assert main(FAST + ["figure", "7"]) == 2
        assert "figures 1-5" in capsys.readouterr().err

    def test_run_single_model(self, capsys):
        code = main(FAST + ["run", "single:yolov7-tiny@dla0", "s3_indoor_close_wall"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean IoU" in out and "single:yolov7-tiny@dla0" in out

    def test_run_shift_with_objective(self, capsys):
        code = main(FAST + ["run", "shift", "s3_indoor_close_wall", "--objective", "energy"])
        assert code == 0
        assert "energy/frame" in capsys.readouterr().out

    def test_run_honours_the_run_store(self, tmp_path, capsys, executed_runs):
        from repro.runtime import RunStore

        argv = FAST + ["--run-store", str(tmp_path / "runs"),
                       "run", "marlin-tiny", "s3_indoor_close_wall"]
        assert main(argv) == 0
        assert capsys.readouterr().out == RUN_MARLIN_TINY_S3
        assert executed_runs == [("marlin:yolov7-tiny", "s3_indoor_close_wall")]
        assert len(RunStore(tmp_path / "runs")) == 1
        assert main(argv) == 0  # warm: a metrics reload, no run
        assert capsys.readouterr().out == RUN_MARLIN_TINY_S3
        assert len(executed_runs) == 1

    @pytest.mark.parametrize("number", ["2", "3", "4", "5"])
    def test_figure_honours_the_run_store(self, tmp_path, capsys, executed_runs, number):
        argv = FAST + ["--run-store", str(tmp_path / "runs"), "figure", number]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert executed_runs
        executed_runs.clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        assert executed_runs == []

    def test_run_unknown_policy(self, capsys):
        assert main(FAST + ["run", "quantum", "s3_indoor_close_wall"]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_run_unknown_scenario(self, capsys):
        assert main(FAST + ["run", "marlin", "s99"]) == 2
        assert "known" in capsys.readouterr().err

    def test_characterize_writes_bundle(self, tmp_path, capsys):
        out_path = tmp_path / "bundle.json"
        assert main(FAST + ["characterize", "--out", str(out_path)]) == 0
        assert out_path.exists()
        from repro.characterization import load_bundle

        bundle = load_bundle(out_path)
        assert len(bundle.accuracy) == 8

    def test_scenarios_lists_library(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "s1_multi_background_varying_distance" in out
        assert "x_night_watch_400f" in out

    def test_sweep_over_named_scenarios(self, capsys):
        code = main(FAST + ["sweep", "single:yolov7-tiny@gpu,marlin-tiny",
                            "--scenarios", "s3_indoor_close_wall"])
        assert code == 0
        out = capsys.readouterr().out
        assert "single:yolov7-tiny@gpu" in out and "average" in out

    def test_sweep_unknown_policy(self, capsys):
        assert main(FAST + ["sweep", "quantum"]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_sweep_unknown_scenario(self, capsys):
        assert main(FAST + ["sweep", "marlin-tiny", "--scenarios", "s99_missing"]) == 2
        assert "known scenarios" in capsys.readouterr().err

    def test_sweep_without_policies_or_jobs(self, capsys):
        assert main(FAST + ["sweep"]) == 2
        assert "POLICIES" in capsys.readouterr().err

    def test_sweep_parallel_runs_requires_store(self, capsys):
        code = main(FAST + ["--workers", "2", "sweep", "marlin-tiny",
                            "--scenarios", "s3_indoor_close_wall", "--parallel-runs"])
        assert code == 2
        assert "TraceStore" in capsys.readouterr().err

    def test_trace_store_persists_across_invocations(self, tmp_path, capsys):
        store = tmp_path / "traces"
        args = FAST + ["--trace-store", str(store), "run", "marlin-tiny", "s3_indoor_close_wall"]
        assert main(args) == 0
        files = [
            p
            for p in store.rglob("trace-*")
            if p.suffix in (".json", ".col") and ".tmp" not in p.name
        ]
        assert len(files) == 1
        first_mtime = files[0].stat().st_mtime_ns
        assert main(args) == 0
        assert files[0].stat().st_mtime_ns == first_mtime, "second run must reuse, not rewrite"
        capsys.readouterr()

    def test_a_cold_sweep_leaves_entry_files_and_no_index(self, tmp_path, capsys):
        traces, runs = tmp_path / "traces", tmp_path / "runs"
        assert main(FAST + ["--trace-store", str(traces), "--run-store", str(runs),
                            "sweep", "shift,marlin-tiny",
                            "--scenarios", "s3_indoor_close_wall"]) == 0
        capsys.readouterr()
        assert len(list(traces.rglob("trace-*.col"))) == 1
        assert len(list((traces / "_characterization").rglob("bundle-*.col"))) == 1
        assert len(list(runs.rglob("run-*.col"))) == 2
        assert not list(tmp_path.rglob("index.json"))

    def test_scenarios_generated_lists_grammar_flights(self, capsys):
        assert main(["scenarios", "--generated"]) == 0
        out = capsys.readouterr().out
        assert "s1_multi_background_varying_distance" in out
        assert "g_dm_s001_crx_day_96f" in out

    def test_run_resolves_generated_scenario(self, capsys):
        code = main(FAST + ["run", "single:yolov7-tiny@gpu", "g_dm_s001_crx_day_96f"])
        assert code == 0
        assert "g_dm_s001_crx_day_96f" in capsys.readouterr().out

    def test_sweep_generated_scenario_with_workers_and_store(self, tmp_path, capsys):
        # Grammar-generated flights must flow through the full runner
        # stack: worker trace builds, the on-disk store, parallel runs.
        store = tmp_path / "traces"
        code = main(FAST + ["--workers", "2", "--trace-store", str(store),
                            "sweep", "single:yolov7-tiny@gpu,marlin-tiny",
                            "--scenarios", "g_dm_s001_crx_day_96f,g_dm_s002_loi-pop_fog_96f",
                            "--parallel-runs"])
        assert code == 0
        out = capsys.readouterr().out
        assert "g_dm_s001_crx_day_96f" in out and "g_dm_s002_loi-pop_fog_96f" in out
        assert "average" in out
        persisted = [p for p in store.rglob("trace-*") if p.suffix in (".json", ".col")]
        assert len(persisted) == 2, "generated traces must persist"


class TestServeCommand:
    def _jobs_file(self, tmp_path, payload):
        import json

        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_serve_happy_path(self, tmp_path, capsys):
        jobs = self._jobs_file(tmp_path, {"requests": [
            {"id": "r1", "policies": ["marlin-tiny"],
             "scenarios": ["s3_indoor_close_wall"]},
            {"id": "r2", "policies": ["marlin-tiny", "single:yolov7-tiny@gpu"],
             "scenarios": ["s3_indoor_close_wall"]},
        ]})
        assert main(FAST + ["serve", jobs, "--service-workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "Request r1" in out and "Request r2" in out
        assert "0 corrupt entries" in out
        # r2's (marlin-tiny, s3) cell duplicates r1's: exactly one pair
        # coalesces in this deterministic mix.
        assert "1 coalesced" in out

    def test_serve_missing_jobs_file(self, tmp_path, capsys):
        assert main(FAST + ["serve", str(tmp_path / "nope.json")]) == 2
        assert "cannot read jobs file" in capsys.readouterr().err

    def test_serve_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(FAST + ["serve", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_serve_malformed_request_shape(self, tmp_path, capsys):
        jobs = self._jobs_file(tmp_path, [{"policies": [], "scenarios": ["s5_far_patrol"]}])
        assert main(FAST + ["serve", jobs]) == 2
        assert "'policies'" in capsys.readouterr().err

    def test_serve_unknown_policy_in_request(self, tmp_path, capsys):
        jobs = self._jobs_file(tmp_path, [
            {"policies": ["quantum"], "scenarios": ["s3_indoor_close_wall"]}
        ])
        assert main(FAST + ["serve", jobs]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_serve_unknown_scenario_in_request(self, tmp_path, capsys):
        jobs = self._jobs_file(tmp_path, [
            {"policies": ["marlin-tiny"], "scenarios": ["s99_missing"]}
        ])
        assert main(FAST + ["serve", jobs]) == 2
        assert "known scenarios" in capsys.readouterr().err

    def test_serve_rejects_a_bad_request_before_running_any(self, tmp_path, capsys,
                                                             executed_runs):
        from repro.runtime import RunStore

        jobs = self._jobs_file(tmp_path, [
            {"policies": ["marlin-tiny"], "scenarios": ["s3_indoor_close_wall"]},
            {"policies": ["quantum"], "scenarios": ["s3_indoor_close_wall"]},
        ])
        assert main(FAST + ["--run-store", str(tmp_path / "r"), "serve", jobs]) == 2
        assert "unknown policy" in capsys.readouterr().err
        assert executed_runs == []
        assert len(RunStore(tmp_path / "r")) == 0

    def test_serve_http_refuses_a_scale(self):
        # The wire names scenarios at their registered length; a scale
        # the server would silently ignore is refused instead.
        done = repro_child(["--scale", "0.05", "serve", "--http", "0"])
        assert done.returncode == 2
        assert done.stderr.count("\n") == 1 and "--scale" in done.stderr

    def test_serve_shift_bundle_needs_procs(self, tmp_path):
        jobs = self._jobs_file(tmp_path, [
            {"policies": ["marlin-tiny"], "scenarios": ["s3_indoor_close_wall"]}
        ])
        for mode in ([jobs], ["--http", "0"]):
            done = repro_child(["serve", *mode, "--shift-bundle", "bundle.json"])
            assert done.returncode == 2
            assert done.stderr.count("\n") == 1 and "--procs" in done.stderr

    def test_serve_http_bad_startup_jobs_file_exits_2(self, tmp_path):
        jobs = self._jobs_file(tmp_path, [
            {"policies": ["quantum"], "scenarios": ["s3_indoor_close_wall"]}
        ])
        done = repro_child(["serve", "--http", "0", jobs])
        assert done.returncode == 2, done.stderr
        assert "unknown policy" in done.stderr

    def test_serve_with_stores_warm_reserve(self, tmp_path, capsys):
        jobs = self._jobs_file(tmp_path, [
            {"policies": ["marlin-tiny"], "scenarios": ["s3_indoor_close_wall"]}
        ])
        args = FAST + ["--trace-store", str(tmp_path / "t"),
                       "--run-store", str(tmp_path / "r"), "serve", jobs]
        assert main(args) == 0
        assert "1 runs executed" in capsys.readouterr().out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 runs executed" in out and "1 run-store hits" in out
        assert "0 trace builds" in out


class TestVerifyCommand:
    def test_verify_named_scenario_passes(self, capsys):
        code = main(["verify", "--scenarios", "g_dm_s001_crx_day_96f",
                     "--checks", "render,trace,store"])
        assert code == 0
        out = capsys.readouterr().out
        assert "all engines agree" in out
        assert "g_dm_s001_crx_day_96f" in out

    def test_verify_unknown_check_rejected(self, capsys):
        assert main(["verify", "--checks", "psychic"]) == 2
        assert "unknown checks" in capsys.readouterr().err

    def test_verify_empty_checks_rejected(self, capsys):
        # An empty checks list must not masquerade as a passing gate.
        assert main(["verify", "--checks", ","]) == 2
        assert "no checks selected" in capsys.readouterr().err

    def test_verify_negative_count_rejected(self):
        import pytest

        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--count", "-5"])

    def test_verify_malformed_env_knob_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FUZZ_SCENARIOS", "banana")
        assert main(["verify"]) == 2
        assert "REPRO_FUZZ_SCENARIOS" in capsys.readouterr().err

    def test_verify_unknown_scenario_rejected(self, capsys):
        assert main(["verify", "--scenarios", "g_nope"]) == 2
        assert "known scenarios" in capsys.readouterr().err

    def test_verify_store_dir(self, tmp_path, capsys):
        store = tmp_path / "verify-traces"
        code = main(["verify", "--scenarios", "g_dm_s001_crx_day_96f",
                     "--checks", "store", "--store", str(store)])
        assert code == 0
        persisted = [p for p in store.rglob("trace-*") if p.suffix in (".json", ".col")]
        assert len(persisted) == 1
        capsys.readouterr()


class TestQueueCommands:
    def _jobs_file(self, tmp_path, payload):
        import json

        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_work_and_queue_parsers_register(self):
        args = build_parser().parse_args(["work", "qdir", "--run-store", "rs"])
        assert args.queue_dir == "qdir" and args.run_store == "rs"
        args = build_parser().parse_args(["queue", "qdir", "--requeue-dead", "--list"])
        assert args.queue_dir == "qdir" and args.requeue_dead and args.list

    def test_serve_procs_requires_run_store(self, tmp_path, capsys):
        jobs = self._jobs_file(tmp_path, [
            {"policies": ["marlin-tiny"], "scenarios": ["s3_indoor_close_wall"]}
        ])
        assert main(FAST + ["serve", jobs, "--procs", "1"]) == 2
        assert "--run-store" in capsys.readouterr().err

    def test_serve_procs_rejects_a_bad_request_before_enqueueing_any(self, tmp_path, capsys):
        from repro.service import JobQueue

        jobs = self._jobs_file(tmp_path, [
            {"policies": ["marlin-tiny"], "scenarios": ["s3_indoor_close_wall"]},
            {"policies": ["quantum"], "scenarios": ["s3_indoor_close_wall"]},
        ])
        runs = tmp_path / "runs"
        assert main(FAST + ["--run-store", str(runs), "serve", jobs, "--procs", "1"]) == 2
        assert "unknown policy" in capsys.readouterr().err
        assert JobQueue(runs / "_queue").counts()["total"] == 0

    def test_serve_procs_drains_and_reports(self, tmp_path, capsys):
        jobs = self._jobs_file(tmp_path, {"requests": [
            {"id": "r1", "policies": ["marlin-tiny"],
             "scenarios": ["s3_indoor_close_wall"]},
            {"id": "r2", "policies": ["marlin-tiny", "single:yolov7-tiny@gpu"],
             "scenarios": ["s3_indoor_close_wall"]},
        ]})
        code = main(FAST + ["--run-store", str(tmp_path / "runs"),
                            "--trace-store", str(tmp_path / "traces"),
                            "serve", jobs, "--procs", "1",
                            "--worker-timeout", "240"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "Request r1" in out and "Request r2" in out
        assert "2 enqueued (1 deduplicated)" in out
        # And the queue command reads the same directory back:
        assert main(["queue", str(tmp_path / "runs" / "_queue"), "--list"]) == 0
        out = capsys.readouterr().out
        assert "2 done" in out and "0 problems" in out
        # The queue's shards keep their claim index; no store shard has one.
        indexes = list(tmp_path.rglob("index.json"))
        assert indexes and all(p.is_relative_to(tmp_path / "runs" / "_queue") for p in indexes)

    def test_queue_refuses_a_directory_that_does_not_exist(self, tmp_path, capsys):
        missing = tmp_path / "typo"
        assert main(["queue", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(missing) in err
        assert not missing.exists(), "inspecting a queue must not create it"

    def test_batch_serve_modes_print_the_same_tables(self, tmp_path, capsys):
        # In-process and --procs serves read their rows through different
        # backends' handles; only the summary line may tell them apart.
        jobs = self._jobs_file(tmp_path, {"requests": [
            {"id": "r1", "policies": ["shift", "marlin-tiny", "single:yolov7-tiny@gpu"],
             "scenarios": ["s3_indoor_close_wall", "s4_indoor_clutter"]},
            {"id": "r2", "policies": ["single:yolov7-tiny@gpu", "marlin-tiny"],
             "scenarios": ["s4_indoor_clutter"]},
        ]})
        assert main(FAST + ["serve", jobs]) == 0
        inproc = capsys.readouterr().out.splitlines()
        code = main(FAST + ["--run-store", str(tmp_path / "runs"),
                            "--trace-store", str(tmp_path / "traces"),
                            "serve", jobs, "--procs", "1", "--worker-timeout", "240"])
        procs = capsys.readouterr().out.splitlines()
        assert code == 0, procs
        assert inproc[-1].startswith("service: 2 requests")
        assert procs[-1].startswith("queue: 8 unit jobs, 6 enqueued (2 deduplicated)")
        assert "Request r1" in "\n".join(procs)
        assert procs[:-1] == inproc[:-1]

    @pytest.mark.parametrize("content", [b'{"schema_version": 1, "accur', b"\xff\xfe\x00", None])
    def test_work_rejects_an_unreadable_shift_bundle(self, tmp_path, capsys, content):
        bundle = tmp_path / "torn.json"
        if content is not None:
            bundle.write_bytes(content)
        code = main(["work", str(tmp_path / "q"), "--run-store", str(tmp_path / "r"),
                     "--shift-bundle", str(bundle)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--shift-bundle" in err and str(bundle) in err

    def test_serve_batch_procs_rejects_an_unreadable_shift_bundle(self, tmp_path, capsys):
        bundle = tmp_path / "torn.json"
        bundle.write_text('{"schema_version": 1, "accur', encoding="utf-8")
        jobs = self._jobs_file(tmp_path, [
            {"policies": ["marlin-tiny"], "scenarios": ["s3_indoor_close_wall"]}
        ])
        code = main(FAST + ["--run-store", str(tmp_path / "r"), "serve", jobs,
                            "--procs", "1", "--shift-bundle", str(bundle)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--shift-bundle" in err and str(bundle) in err

    def test_serve_http_procs_rejects_an_unreadable_shift_bundle(self, tmp_path):
        bundle = tmp_path / "torn.json"
        bundle.write_text('{"schema_version": 1, "accur', encoding="utf-8")
        done = repro_child(["--run-store", str(tmp_path / "r"), "serve", "--http", "0",
                            "--procs", "1", "--shift-bundle", str(bundle)])
        assert done.returncode == 2
        assert done.stderr.count("\n") == 1
        assert "--shift-bundle" in done.stderr and str(bundle) in done.stderr

    def test_queue_requeue_dead(self, tmp_path, capsys):
        from repro.data import scenario_by_name
        from repro.service import JobQueue, SweepRequest, decompose

        queue = JobQueue(tmp_path / "q", max_attempts=1)
        [job] = decompose(SweepRequest(
            policies=("marlin-tiny",),
            scenarios=(scenario_by_name("s3_indoor_close_wall"),),
        ))
        queue.enqueue(job)
        queue.fail(queue.claim("w0"), "induced")
        assert main(["queue", str(tmp_path / "q")]) == 0
        assert "1 dead" in capsys.readouterr().out
        assert main(["queue", str(tmp_path / "q"), "--requeue-dead"]) == 0
        out = capsys.readouterr().out
        assert "requeued 1 dead-lettered jobs" in out and "1 pending" in out


class TestStoreMaintenance:
    """``repro store scrub|gc|repair``: exit codes, dry-run discipline, refused roots."""

    def _torn_store(self, tmp_path):
        runs = tmp_path / "runs"
        shard = runs / "ab"
        shard.mkdir(parents=True)
        # Garbage at a final entry path, as a crash outside the atomic
        # helpers (or the `faults` plan's torn kind) leaves it.
        (shard / ("run-v1-" + "ab" * 16 + ".col")).write_text('{"torn', encoding="utf-8")
        return runs

    def test_store_requires_a_target(self, capsys):
        assert main(["store", "scrub"]) == 2
        assert "needs at least one root" in capsys.readouterr().err

    def test_scrub_exit_code_is_the_integrity_alarm(self, tmp_path, capsys):
        runs = self._torn_store(tmp_path)
        assert main(["--run-store", str(runs), "store", "scrub"]) == 1
        out = capsys.readouterr().out
        assert "runs:" in out
        assert (runs / "_quarantine").exists()
        # The alarm is edge-triggered: a second scrub of the healed tree
        # is clean, so a cron'd scrub only pages when something tore.
        assert main(["--run-store", str(runs), "store", "scrub"]) == 0

    def test_scrub_finds_a_torn_run_entry_no_save_wrote(self, tmp_path, capsys):
        runs = self._torn_store(tmp_path)
        [torn] = list(runs.rglob("run-*.col"))
        assert main(["--run-store", str(runs), "store", "scrub"]) == 1
        out = capsys.readouterr().out
        assert "1 entries checked, 1 problems, 1 quarantined" in out
        assert not torn.exists()
        assert [p.name for p in (runs / "_quarantine").iterdir()] == [f"ab-{torn.name}"]

    def test_scrub_finds_a_torn_job_record_no_transition_wrote(self, tmp_path, capsys):
        from repro.service import JobQueue

        queue_root = tmp_path / "q"
        JobQueue(queue_root)  # lay out a real queue directory
        torn = queue_root / "cd" / ("job-v1-" + "cd" * 16 + ".json")
        torn.parent.mkdir()
        torn.write_text('{"torn', encoding="utf-8")
        assert main(["store", "scrub", "--queue", str(queue_root)]) == 1
        out = capsys.readouterr().out
        assert "1 entries checked, 1 problems, 1 quarantined" in out
        assert not torn.exists()
        assert [p.name for p in (queue_root / "_quarantine").iterdir()] == [f"cd-{torn.name}"]

    @pytest.mark.parametrize("flag", ["--trace-store", "--run-store", "--queue"])
    def test_store_refuses_a_root_that_does_not_exist(self, tmp_path, capsys, flag):
        missing = tmp_path / "typo"
        argv = (["store", "scrub", flag, str(missing)] if flag == "--queue"
                else [flag, str(missing), "store", "scrub"])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(missing) in err
        assert not missing.exists(), "maintenance must not create the root it was pointed at"

    def test_a_trace_store_without_bundles_gets_no_bundle_root(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        assert main(["--trace-store", str(traces), "store", "scrub"]) == 0
        assert "characterization:" not in capsys.readouterr().out
        assert not (traces / "_characterization").exists()

    @pytest.mark.parametrize("ttl", ["nan", "inf", "-1", "0"])
    def test_gc_ttl_must_be_finite_and_non_negative(self, ttl, capsys):
        argv = ["store", "gc", "--ttl", ttl, "--apply"]
        if ttl == "0":
            assert build_parser().parse_args(argv).ttl == 0.0
            return
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "--ttl" in capsys.readouterr().err

    def test_migrate_is_not_an_action(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["store", "migrate"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "migrate" in err

    def test_gc_is_dry_run_unless_applied(self, tmp_path, capsys):
        import time

        runs = self._torn_store(tmp_path)
        main(["--run-store", str(runs), "store", "scrub"])
        quarantined = list((runs / "_quarantine").iterdir())
        assert quarantined
        capsys.readouterr()
        time.sleep(0.05)
        base = ["--run-store", str(runs), "store", "gc", "--ttl", "0.01"]
        assert main(base) == 0
        assert "dry run" in capsys.readouterr().out
        assert all(path.exists() for path in quarantined)  # reported, not touched
        assert main(base + ["--apply"]) == 0
        assert not any(path.exists() for path in quarantined)

    def test_trace_store_brings_its_characterization_root(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        out_path = str(tmp_path / "bundle.json")
        assert main(FAST + ["--trace-store", str(traces), "characterize", "--out", out_path]) == 0
        capsys.readouterr()
        for action in ("scrub", "gc"):
            assert main(["--trace-store", str(traces), "store", action]) == 0
            out = capsys.readouterr().out
            assert "traces:" in out and "characterization:" in out
            if action == "scrub":
                assert "_characterization: 1 entries checked, 0 problems" in out

        [entry] = list((traces / "_characterization").rglob("bundle-*.col"))
        entry.write_bytes(entry.read_bytes()[:-64])
        assert main(["--trace-store", str(traces), "store", "scrub"]) == 1
        out = capsys.readouterr().out
        [line] = [line for line in out.splitlines() if line.startswith("characterization:")]
        assert line.endswith("1 problems, 1 quarantined")
        assert not entry.exists()
        # The next process that needs the bundle characterizes again.
        assert main(FAST + ["--trace-store", str(traces), "characterize", "--out", out_path]) == 0
        assert entry.exists()

    def test_repair_maintains_only_the_queue(self, tmp_path, capsys):
        from repro.service import JobQueue

        JobQueue(tmp_path / "q")  # lay out a real queue directory
        stores = ["--run-store", str(tmp_path / "runs"), "--trace-store", str(tmp_path / "traces")]
        assert main(stores + ["store", "repair", "--queue", str(tmp_path / "q")]) == 0
        out = capsys.readouterr().out
        assert "queue: repair" in out and "runs:" not in out and "traces:" not in out
        # The stores keep no index, so repair without a queue is a usage error.
        assert main(stores + ["store", "repair"]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "runs").exists() and not (tmp_path / "traces").exists()