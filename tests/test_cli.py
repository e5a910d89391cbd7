"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main

FAST = ["--scale", "0.03", "--validation", "60"]


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
        assert "--jobs" in capsys.readouterr().err

    def test_sweep_rejects_policies_and_jobs_together(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.json"
        jobs.write_text("[]", encoding="utf-8")
        assert main(FAST + ["sweep", "marlin-tiny", "--jobs", str(jobs)]) == 2
        assert "not both" in capsys.readouterr().err

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

    def test_sweep_jobs_batch_front_end(self, tmp_path, capsys):
        jobs = self._jobs_file(tmp_path, [
            {"policies": ["marlin-tiny"], "scenarios": ["s3_indoor_close_wall"]}
        ])
        assert main(FAST + ["sweep", "--jobs", jobs]) == 0
        out = capsys.readouterr().out
        assert "Request request-0" in out and "service:" in out

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
    """``repro store scrub|gc|repair|migrate``: exit codes and dry-run discipline."""

    def _torn_store(self, tmp_path):
        from repro.runtime import shards

        runs = tmp_path / "runs"
        shard = runs / "ab"
        shard.mkdir(parents=True)
        with shards.shard_lock(shard):
            shards.write_entry_locked(
                shard, "run-v1-" + "ab" * 16 + ".col", '{"torn', {}
            )
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

    def test_migrate_upgrades_legacy_json_entries(self, tmp_path, capsys):
        from repro.baselines import SingleModelPolicy
        from repro.data import scenario_by_name
        from repro.models import default_zoo
        from repro.runtime import (
            RunKey, RunStore, ScenarioTrace, TraceStore, aggregate, run_policy,
            run_to_dict, shards, trace_to_dict,
        )
        from repro.sim import xavier_nx_with_oakd
        from repro.util import jsonsafe

        zoo = default_zoo()
        scenario = scenario_by_name("s3_indoor_close_wall").scaled(0.05)
        trace = ScenarioTrace.build(scenario, zoo)
        policy = SingleModelPolicy("yolov7-tiny", "gpu")
        result = run_policy(policy, trace)
        key = RunKey(
            policy_name=policy.name,
            policy_fingerprint=policy.fingerprint(),
            scenario_fingerprint=scenario.fingerprint(),
            zoo_fingerprint=zoo.fingerprint(),
            soc_fingerprint=xavier_nx_with_oakd().fingerprint(),
            engine_seed=1234,
        )
        traces, runs = tmp_path / "traces", tmp_path / "runs"
        # A flat-layout JSON trace entry (a store from before sharding) and
        # a sharded JSON run entry (a store from before the binary format).
        trace_col = TraceStore(traces).path_for(scenario, zoo)
        flat = traces / trace_col.with_suffix(".json").name
        flat.write_text(jsonsafe.dumps(trace_to_dict(trace, zoo)), encoding="utf-8")
        run_col = RunStore(runs).path_for(key)
        sharded = shards.write_entry(  # indexed, as sharded stores were
            runs, key.digest(), run_col.with_suffix(".json").name,
            jsonsafe.dumps(run_to_dict(result, key)), {},
        )

        def migrated(out):
            return sum(int(n) for n in re.findall(r"(\d+) legacy entries migrated", out))

        command = ["--trace-store", str(traces), "--run-store", str(runs), "store", "migrate"]
        assert main(command) == 0
        assert migrated(capsys.readouterr().out) == 2
        entries = sorted(p.name for p in tmp_path.rglob("*-v1-*"))
        assert entries == sorted([trace_col.name, run_col.name]), "only .col entries remain"
        tstore, rstore = TraceStore(traces), RunStore(runs)
        assert tstore.audit() == (1, []) and rstore.audit() == (1, [])
        assert tstore.load(scenario, zoo).outcomes == trace.outcomes
        assert rstore.load(key).records == result.records
        assert rstore.load_metrics(key) == aggregate(result)

        assert main(command) == 0
        assert migrated(capsys.readouterr().out) == 0, "a second run finds nothing"

        # An unparseable legacy entry is quarantined and counted, not migrated.
        sharded.write_text('{"torn', encoding="utf-8")
        assert main(command) == 1
        out = capsys.readouterr().out
        assert migrated(out) == 0
        assert "runs: 0 legacy entries migrated to .col, 1 unparseable quarantined" in out
        assert not sharded.exists()
        assert len(list((runs / "_quarantine").iterdir())) == 1
        assert RunStore(runs).load(key).records == result.records

    def test_repair_covers_every_named_root(self, tmp_path, capsys):
        from repro.service import JobQueue

        JobQueue(tmp_path / "q")  # lay out a real queue directory
        code = main([
            "--run-store", str(tmp_path / "runs"),
            "--trace-store", str(tmp_path / "traces"),
            "store", "repair", "--queue", str(tmp_path / "q"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "runs:" in out and "traces:" in out and "queue:" in out
