"""Service-tier tests: concurrency, dedup, determinism, warm re-serves.

The acceptance bar for the tier (pinned here, re-proven at larger scale
by ``scripts/loadgen.py`` in CI): a multi-worker service run of many
overlapping sweep requests over generated scenarios is field-for-field
identical to a serial :meth:`ExperimentRunner.sweep`, executes each
deduplicated (policy, scenario) job at most once, and a warm re-serve
executes zero runs and zero trace builds.
"""

import pytest

from repro.data import ScenarioMatrix
from repro.models import default_zoo
from repro.runtime import ExperimentRunner, RunStore, TraceCache, TraceStore
from repro.service import (
    JobQueue,
    QueueWorker,
    ServiceError,
    SweepRequest,
    SweepService,
    overlapping_requests,
    policy_resolver,
)
from repro.service.jobs import UnitJob

# Generated flights (not hand-written ones): the service must serve the
# grammar matrix exactly like the library.  Budgets stay small for tier-1.
SERVICE_MATRIX = ScenarioMatrix(
    name="svc",
    compositions=(("loiter",), ("popup", "pan_burst"), ("crossing",)),
    regimes=("day", "indoor"),
    seeds=(8,),
    frame_budgets=(24,),
)

POLICIES = ("single:yolov7-tiny@gpu", "marlin-tiny", "single:ssd-mobilenet-v2-320@gpu")


@pytest.fixture(scope="module")
def zoo():
    return default_zoo()


@pytest.fixture(scope="module")
def scenarios():
    return SERVICE_MATRIX.scenarios()


@pytest.fixture(scope="module")
def serial_rows(zoo, scenarios):
    """The ground truth: one serial foreground sweep over the full grid."""
    resolve = policy_resolver()
    runner = ExperimentRunner(cache=TraceCache(zoo))
    result = runner.sweep([resolve(spec) for spec in POLICIES], scenarios)
    return {
        (name, m.scenario_name): m for name, rows in result.items() for m in rows
    }


class TestAcceptance:
    def test_overlapping_requests_match_serial_sweep_exactly(
        self, tmp_path, zoo, scenarios, serial_rows
    ):
        # >= 8 overlapping requests, 4 workers, generated scenarios: the
        # tentpole acceptance criterion, end to end.
        requests = overlapping_requests(POLICIES, scenarios, count=8, seed=21)
        with SweepService(
            zoo=zoo,
            trace_store=tmp_path / "traces",
            run_store=tmp_path / "runs",
            workers=4,
        ) as service:
            handles = service.serve(requests)
            results = [handle.result() for handle in handles]

            # Field-for-field equality with the serial runner, per request.
            for request, result in zip(requests, results, strict=True):
                for policy_name, rows in result.items():
                    for metrics in rows:
                        assert metrics == serial_rows[(policy_name, metrics.scenario_name)]
                # Shape: every requested (policy, scenario) cell is present.
                assert sum(len(rows) for rows in result.values()) == len(
                    request.policies
                ) * len(request.scenarios)

            # Dedup: each distinct (policy, scenario) job ran at most once.
            distinct = {
                (spec, scenario.fingerprint())
                for request in requests
                for spec in request.policies
                for scenario in request.resolve_scenarios()
            }
            assert service.jobs_scheduled == len(distinct)
            assert service.runs_executed <= len(distinct)
            assert service.runs_executed + service.run_store_hits == len(distinct)
            assert service.jobs_coalesced > 0, "the mix must actually overlap"
            assert service.corrupt_entries == 0
            # Single flight: four threads racing over shared scenarios
            # build each trace exactly once and never reload one.
            requested = {
                scenario.fingerprint()
                for request in requests
                for scenario in request.resolve_scenarios()
            }
            assert service.trace_builds == len(requested)
            assert service.trace_store_hits == 0

        # Warm re-serve against the same stores: zero runs, zero builds.
        with SweepService(
            zoo=zoo,
            trace_store=tmp_path / "traces",
            run_store=tmp_path / "runs",
            workers=4,
        ) as warm:
            warm_results = [handle.result() for handle in warm.serve(requests)]
            assert warm.runs_executed == 0, "warm re-serve re-executed runs"
            assert warm.trace_builds == 0, "warm re-serve rebuilt traces"
            assert warm.trace_store_hits == 0, "metrics hits must not touch traces"
            assert warm.corrupt_entries == 0
        assert warm_results == results, "warm metrics diverged from cold metrics"

    def test_streaming_results_cover_every_cell(self, zoo, scenarios):
        request = SweepRequest(
            policies=POLICIES[:2], scenarios=tuple(scenarios[:2]), request_id="stream"
        )
        with SweepService(zoo=zoo, workers=2) as service:
            rows = list(service.submit(request).results())
        assert {(spec, name) for spec, name, _ in rows} == {
            (spec, s.name) for spec in request.policies for s in scenarios[:2]
        }
        for _spec, name, metrics in rows:
            assert metrics.scenario_name == name


class TestDedupAndSharing:
    def test_identical_requests_share_every_job(self, zoo, scenarios):
        request = SweepRequest(
            policies=("marlin-tiny",), scenarios=tuple(scenarios[:3]), request_id="a"
        )
        clone = SweepRequest(
            policies=("marlin-tiny",), scenarios=tuple(scenarios[:3]), request_id="b"
        )
        with SweepService(zoo=zoo, workers=3) as service:
            first = service.submit(request).result()
            second = service.submit(clone).result()
            assert service.jobs_scheduled == 3
            assert service.jobs_coalesced == 3
            assert service.runs_executed == 3
        assert first == second

    def test_storeless_service_still_dedups_in_flight(self, zoo, scenarios):
        # No run store: dedup comes purely from the shared job table.
        requests = overlapping_requests(POLICIES[:2], scenarios[:2], count=6, seed=3)
        with SweepService(zoo=zoo, workers=4) as service:
            results = service.run(requests)
        assert service.runs_executed == service.jobs_scheduled
        assert len(results) == 6

    def test_duplicate_cells_within_one_request_coalesce(self, zoo, scenarios):
        request = SweepRequest(
            policies=("marlin-tiny",),
            scenarios=(scenarios[0], scenarios[0]),
            request_id="dup",
        )
        with SweepService(zoo=zoo, workers=2) as service:
            result = service.submit(request).result()
            assert service.jobs_scheduled == 1
            assert service.jobs_coalesced == 1
        (rows,) = result.values()
        assert len(rows) == 2  # both requested cells are answered


class TestValidationAndLifecycle:
    def test_unknown_policy_fails_at_submit(self, zoo, scenarios):
        with SweepService(zoo=zoo, workers=1) as service:
            with pytest.raises(ServiceError, match="unknown policy"):
                service.submit(
                    SweepRequest(policies=("quantum",), scenarios=(scenarios[0],))
                )
            assert service.jobs_scheduled == 0

    def test_unknown_scenario_fails_at_submit(self, zoo):
        with (
            SweepService(zoo=zoo, workers=1) as service,
            pytest.raises(ServiceError, match="known scenarios"),
        ):
            service.submit(
                SweepRequest(policies=("marlin-tiny",), scenarios=("s99_nope",))
            )

    def test_closed_service_rejects_requests(self, zoo, scenarios):
        service = SweepService(zoo=zoo, workers=1)
        service.close()
        with pytest.raises(ServiceError, match="closed"):
            service.submit(
                SweepRequest(policies=("marlin-tiny",), scenarios=(scenarios[0],))
            )

    def test_run_store_respects_fingerprintless_policies(self, zoo, scenarios, tmp_path):
        # A policy without a content identity is served but never
        # persisted (the store cannot key it) — and never crashes the job.
        from repro.baselines import SingleModelPolicy

        class AnonymousPolicy(SingleModelPolicy):
            def fingerprint(self):
                raise NotImplementedError("no identity")

        def resolver(spec):
            assert spec == "anon"
            return AnonymousPolicy("yolov7-tiny", "gpu")

        with SweepService(
            zoo=zoo, workers=2, run_store=tmp_path / "runs", policy_resolver=resolver
        ) as service:
            result = service.submit(
                SweepRequest(policies=("anon",), scenarios=(scenarios[0],))
            ).result()
            assert service.runs_executed == 1
            assert service.run_store_hits == 0
        assert len(RunStore(tmp_path / "runs")) == 0
        (rows,) = result.values()
        assert rows[0].scenario_name == scenarios[0].name


class TestResilienceAndBounds:
    def test_transient_job_failure_does_not_poison_the_cell(self, zoo, scenarios):
        # One flaky execution must fail the requests that raced it, but a
        # later submit of the same (policy, scenario) cell retries fresh.
        calls = {"n": 0}

        def flaky_resolver(spec):
            # Call 1 is submit-time validation, call 2 the first job's
            # fresh-policy resolution (the simulated transient failure),
            # calls 3/4 the retry's validation + execution.
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("transient: store hiccup")
            return policy_resolver()(spec)

        request = SweepRequest(policies=("marlin-tiny",), scenarios=(scenarios[0],))
        with SweepService(zoo=zoo, workers=1, policy_resolver=flaky_resolver) as service:
            handle = service.submit(request)
            with pytest.raises(RuntimeError, match="transient"):
                handle.result()
            retry = service.submit(request)
            (rows,) = retry.result().values()
        assert rows[0].scenario_name == scenarios[0].name

    def test_trace_memo_is_bounded(self, zoo, scenarios):
        with SweepService(zoo=zoo, workers=1, trace_cache_size=2) as service:
            for scenario in scenarios[:4]:
                service.submit(
                    SweepRequest(policies=("marlin-tiny",), scenarios=(scenario,))
                ).result()
                assert len(service.runner.cache) <= 2
            assert service.runs_executed == 4

    def test_evicted_trace_reloads_from_store(self, zoo, scenarios, tmp_path):
        with SweepService(
            zoo=zoo, workers=1, trace_store=tmp_path / "t", trace_cache_size=1
        ) as service:
            for scenario in scenarios[:3]:
                service.submit(
                    SweepRequest(policies=("marlin-tiny",), scenarios=(scenario,))
                ).result()
            # Re-serve the first (evicted) scenario with a new policy: the
            # trace comes back from the store, not a rebuild.
            service.submit(
                SweepRequest(policies=("single:yolov7-tiny@gpu",), scenarios=(scenarios[0],))
            ).result()
            assert service.trace_builds == 3
            assert service.trace_store_hits == 1


class TestSharedStoreInterop:
    @pytest.mark.parametrize("populate", ["runner", "queue"])
    def test_service_hits_runner_populated_stores(
        self, tmp_path, zoo, scenarios, serial_rows, populate
    ):
        # The service, the foreground runner and the queue worker speak
        # the same store format: stores either tier populated warm the
        # service completely.
        resolve = policy_resolver()
        if populate == "runner":
            ExperimentRunner(
                zoo,
                store=TraceStore(tmp_path / "traces"),
                run_store=RunStore(tmp_path / "runs"),
            ).sweep([resolve(s) for s in POLICIES[:2]], scenarios[:2])
        else:
            queue = JobQueue(tmp_path / "queue")
            queue.enqueue_all(
                [UnitJob(policy_spec=spec, scenario=s)
                 for spec in POLICIES[:2] for s in scenarios[:2]]
            )
            QueueWorker(
                queue, run_store=tmp_path / "runs", trace_store=tmp_path / "traces", zoo=zoo
            ).drain()
        with SweepService(
            zoo=zoo,
            trace_store=tmp_path / "traces",
            run_store=tmp_path / "runs",
            workers=4,
        ) as service:
            served = service.submit(
                SweepRequest(policies=POLICIES[:2], scenarios=tuple(scenarios[:2]))
            ).result()
            assert service.runs_executed == 0
            assert service.trace_builds == 0
        names = [resolve(spec).name for spec in POLICIES[:2]]
        assert served == {
            name: [serial_rows[(name, s.name)] for s in scenarios[:2]] for name in names
        }


class TestCloseRace:
    def test_close_racing_submit_never_strands_a_handle(self, zoo, scenarios, tmp_path):
        """Regression: ``submit`` used to schedule pool tasks after
        releasing the state lock, so a concurrent ``close`` could shut
        the pool between registration and scheduling — RuntimeError out
        of ``submit`` and a ``SweepHandle.result()`` that never returns.
        Now submit either succeeds fully or raises ServiceError, and
        every successfully returned handle resolves."""
        import threading

        request = SweepRequest(policies=("marlin-tiny",), scenarios=(scenarios[0],))
        for round_index in range(6):
            service = SweepService(
                zoo=zoo, workers=2,
                trace_store=tmp_path / "traces", run_store=tmp_path / "runs",
            )
            handles: list = []
            errors: list = []
            barrier = threading.Barrier(5)

            def submit_one() -> None:
                barrier.wait()
                try:
                    handles.append(service.submit(request))
                except ServiceError:
                    errors.append("closed")
                except BaseException as exc:  # the old bug: RuntimeError
                    errors.append(f"unexpected: {exc!r}")

            threads = [threading.Thread(target=submit_one) for _ in range(4)]
            for thread in threads:
                thread.start()
            barrier.wait()
            service.close()
            for thread in threads:
                thread.join()
            assert all(error == "closed" for error in errors), errors

            outcomes: list = []

            def resolve_all() -> None:
                for handle in handles:
                    try:
                        handle.result()
                        outcomes.append("done")
                    except ServiceError:
                        outcomes.append("failed-loudly")

            waiter = threading.Thread(target=resolve_all)
            waiter.start()
            waiter.join(timeout=60)
            assert not waiter.is_alive(), "a SweepHandle.result() hung after close()"
            assert len(outcomes) == len(handles)
