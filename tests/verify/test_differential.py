"""Differential fuzz suite: every engine must agree on generated scenarios.

The core guarantee of the vectorized trace tier is bit-equality with the
scalar reference path; these tests extend that guarantee from the ten
hand-written flights to a 25-scenario grammar-generated matrix, and prove
the harness itself can *fail* (a harness that passes everything proves
nothing).  Seeded and stdlib-random only, sized for tier-1 time.
"""

import dataclasses
import random
import re

import pytest

from repro.data import ScenarioMatrix
from repro.models import default_zoo
from repro.runtime import RunMetrics, RunStore, ScenarioTrace, TraceStore
from repro.verify import (
    CHECKS,
    FuzzReport,
    check_detect_equality,
    check_fast_run_equivalence,
    check_run_invariants,
    check_store_roundtrip,
    check_trace_invariants,
    fuzz_scenarios,
    sample_matrix,
    verify_scenario,
)

# A compact grid over every family and regime; budgets stay small so the
# full differential suite over 25 scenarios fits in tier-1 time.
TEST_MATRIX = ScenarioMatrix(
    name="t25",
    compositions=(
        ("crossing",),
        ("loiter", "popup"),
        ("altitude_ramp", "crossing"),
        ("occlusion_dip", "loiter"),
        ("pan_burst", "altitude_ramp"),
        ("popup", "occlusion_dip", "pan_burst"),
    ),
    regimes=("day", "night", "fog", "indoor"),
    seeds=(11,),
    frame_budgets=(36, 54),
)


@pytest.fixture(scope="module")
def zoo():
    return default_zoo()


@pytest.fixture(scope="module")
def fuzz_report(zoo) -> FuzzReport:
    scenarios = sample_matrix(TEST_MATRIX, count=25, seed=4)
    assert len(scenarios) == 25
    return fuzz_scenarios(scenarios, zoo=zoo)


class TestGeneratedMatrixSuite:
    def test_every_scenario_passes_every_check(self, fuzz_report):
        failed = {
            r.scenario_name: [str(f) for f in r.failures()] for r in fuzz_report.failures()
        }
        assert fuzz_report.passed, f"differential disagreements: {failed}"

    def test_full_suite_ran(self, fuzz_report):
        assert fuzz_report.scenario_count == 25
        assert fuzz_report.check_count == 25 * len(CHECKS)
        for report in fuzz_report.reports:
            assert [r.check for r in report.results] == list(CHECKS)

    def test_sample_is_seed_stable(self):
        a = [s.name for s in sample_matrix(TEST_MATRIX, count=10, seed=9)]
        b = [s.name for s in sample_matrix(TEST_MATRIX, count=10, seed=9)]
        c = [s.name for s in sample_matrix(TEST_MATRIX, count=10, seed=10)]
        assert a == b
        assert a != c

    def test_sample_count_zero_selects_all(self):
        assert len(sample_matrix(TEST_MATRIX, count=0, seed=1)) == len(TEST_MATRIX)

    def test_random_scenario_passes_offline(self, zoo):
        # Property-style spot check: a freshly drawn recipe outside the
        # grid must satisfy the suite too (seeded stdlib randomness).
        from repro.data import ScenarioRecipe

        rng = random.Random(77)
        recipe = ScenarioRecipe(
            name="offgrid",
            families=tuple(rng.sample(["crossing", "popup", "pan_burst"], 2)),
            regime_name=rng.choice(["day", "night"]),
            base_seed=rng.randint(0, 2**31),
            frame_budget=40,
        )
        report = verify_scenario(recipe.build(), zoo=zoo)
        assert report.passed, [str(f) for f in report.failures()]


class TestHarnessDetectsViolations:
    """The suite must fail loudly when an engine actually disagrees."""

    @pytest.fixture(scope="class")
    def trace(self, zoo):
        scenario = TEST_MATRIX.scenarios()[0]
        return ScenarioTrace.build(scenario, zoo)

    def _tampered(self, trace, **changes):
        outcomes = {m: list(rows) for m, rows in trace.outcomes.items()}
        model = next(iter(outcomes))
        outcomes[model][0] = dataclasses.replace(outcomes[model][0], **changes)
        return ScenarioTrace(scenario=trace.scenario, frames=None, outcomes=outcomes)

    def test_confidence_bound_violation_detected(self, trace):
        result = check_trace_invariants(self._tampered(trace, confidence=1.5))
        assert not result.passed and "confidence" in result.detail

    def test_phantom_detection_detected(self, trace):
        result = check_trace_invariants(self._tampered(trace, detected=True, box=None))
        assert not result.passed

    @pytest.mark.parametrize(
        ("changes", "named"),
        [
            ({"quality": 0.5, "confidence": 0.25}, "quality differs: scalar "),
            ({"confidence": 0.123456}, "confidence differs: scalar "),
            ({"iou": 0.0625}, "iou differs: scalar "),
        ],
    )
    def test_detect_divergence_names_the_first_differing_field(
        self, trace, zoo, changes, named
    ):
        tampered = self._tampered(trace, **changes)
        model = next(iter(tampered.outcomes))
        result = check_detect_equality(trace.scenario, zoo, tampered)
        assert not result.passed
        assert result.detail.startswith(f"model {model!r}, frame 0: {named}")
        name, value = next(iter(changes.items()))
        original = getattr(trace.outcomes[model][0], name)
        assert result.detail.endswith(f"scalar {original!r}, batched {value!r}")

    def test_misaligned_outcomes_detected(self, trace):
        outcomes = {m: rows[:-1] for m, rows in trace.outcomes.items()}
        broken = ScenarioTrace(scenario=trace.scenario, frames=None, outcomes=outcomes)
        result = check_trace_invariants(broken)
        assert not result.passed and "outcomes" in result.detail

    def test_lossy_store_reload_detected(self, trace, zoo, tmp_path, monkeypatch):
        # A store whose reload drifts from what was saved must fail the
        # round-trip check, naming the model, the frame and the field;
        # simulate the drift at the load boundary.
        tampered = self._tampered(trace, confidence=0.123456)
        monkeypatch.setattr(TraceStore, "load", lambda self, scenario, zoo: tampered)
        result = check_store_roundtrip(trace, zoo, store_root=tmp_path)
        assert not result.passed and "outcomes changed" in result.detail
        model = next(iter(trace.outcomes))
        saved = trace.outcomes[model][0].confidence
        assert result.detail == (
            f"model {model!r}, frame 0: outcomes changed through the store: "
            f"confidence differs: saved {saved!r}, loaded 0.123456"
        )

    def test_lossy_run_reload_names_the_frame_and_field(self, trace, zoo, tmp_path, monkeypatch):
        # The store check also sends one run through a RunStore: a record
        # that drifts on reload is named by frame and first field.
        real_load = RunStore.load

        def drifting_load(self, key):
            result = real_load(self, key)
            result.records[3] = dataclasses.replace(result.records[3], energy_j=-1.0)
            return result

        monkeypatch.setattr(RunStore, "load", drifting_load)
        result = check_store_roundtrip(trace, zoo, store_root=tmp_path)
        assert not result.passed
        assert result.detail.startswith(
            "run of 'yolov7-tiny', frame 3: records changed through the store: "
            "energy_j differs: saved "
        )
        assert result.detail.endswith(", loaded -1.0")

    def test_drifting_stored_metrics_are_named(self, trace, zoo, tmp_path, monkeypatch):
        real_metrics = RunStore.load_metrics
        monkeypatch.setattr(RunStore, "load_metrics", lambda self, key: dataclasses.replace(
            real_metrics(self, key), swaps=99))
        result = check_store_roundtrip(trace, zoo, store_root=tmp_path)
        assert not result.passed
        assert result.detail.startswith("run of 'yolov7-tiny': stored metrics differ: swaps ")
        assert result.detail.endswith(", stored 99")

    def test_store_corruption_fails_loudly(self, trace, zoo, tmp_path, rewrite_header):
        # A well-formed entry with another identity surfaces as a
        # TraceSchemaError from the store's own validation, not as a
        # silently wrong trace.
        from repro.runtime import TraceSchemaError

        store = TraceStore(tmp_path)
        path = store.save(trace, zoo)
        rewrite_header(path, lambda header: header["meta"].update(scenario_fingerprint="0" * 64))
        with pytest.raises(TraceSchemaError):
            store.load(trace.scenario, zoo)

    def test_negative_energy_detected(self, trace):
        class NegativeEnergyPolicy:
            name = "negative-energy"

            def begin(self, services):
                self._trace = services.trace

            def step(self, frame):
                from repro.runtime import FrameRecord

                outcome = self._trace.outcome(self._trace.model_names()[0], frame.index)
                return FrameRecord(
                    frame_index=frame.index,
                    model_name=outcome.model_name,
                    accelerator_name="gpu",
                    box=outcome.box,
                    confidence=outcome.confidence,
                    iou=outcome.iou,
                    ground_truth_present=frame.ground_truth is not None,
                    detected=outcome.detected,
                    latency_s=0.01,
                    inference_s=0.01,
                    stall_s=0.0,
                    overhead_s=0.0,
                    energy_j=-1.0,
                    swap=False,
                    cold_load=False,
                )

        result = check_run_invariants(trace, policy_factory=NegativeEnergyPolicy)
        assert not result.passed and "energy" in result.detail

    def test_unknown_check_name_rejected(self, trace, zoo):
        with pytest.raises(ValueError, match="unknown checks"):
            verify_scenario(trace.scenario, zoo=zoo, checks=("render", "psychic"))

    def test_fastrun_divergence_detected(self, trace):
        # A policy whose records depend on the tier it runs under is
        # exactly the bug class the fastrun check exists for; the detail
        # must name the policy, frame, and differing fields.
        from repro.baselines import SingleModelPolicy

        class TierSensitivePolicy(SingleModelPolicy):
            def __init__(self, model_name):
                super().__init__(model_name)
                self.name = "tier-sensitive"

            def begin(self, services):
                super().begin(services)
                self._cheat = services.fast

            def step(self, frame):
                record = super().step(frame)
                if self._cheat:
                    import dataclasses

                    record = dataclasses.replace(record, latency_s=record.latency_s * 2)
                return record

        from repro.runtime import run_policy

        result = check_fast_run_equivalence(
            trace, policy_factories=[lambda: TierSensitivePolicy("yolov7-tiny")]
        )
        assert not result.passed
        reference, fast = (
            run_policy(TierSensitivePolicy("yolov7-tiny"), trace, fast=tier).records[0].latency_s
            for tier in (False, True)
        )
        assert fast == 2 * reference
        assert result.detail == (
            "policy 'tier-sensitive', frame 0: fast engine diverges: "
            f"latency_s differs: reference {reference!r}, fast {fast!r}"
        )

    def test_fastrun_adapts_to_reduced_zoos(self, trace, zoo):
        # A trace built from a reduced zoo must still get a meaningful
        # fastrun check (over the models it has), not a KeyError.
        from repro.models import ModelZoo
        from repro.verify import default_fast_run_policy_factories

        small_zoo = ModelZoo([zoo.get("ssd-mobilenet-v2")])
        small_trace = ScenarioTrace.build(trace.scenario, small_zoo)
        factories = default_fast_run_policy_factories(small_trace.model_names())
        assert len(factories) == 1  # single-model fallback over the traced model
        result = check_fast_run_equivalence(small_trace)
        assert result.passed, result.detail

    def test_fastrun_passes_for_well_behaved_policies(self, trace):
        from repro.baselines import MarlinPolicy, SingleModelPolicy

        result = check_fast_run_equivalence(
            trace,
            policy_factories=[
                lambda: SingleModelPolicy("yolov7-tiny", "gpu"),
                lambda: MarlinPolicy("yolov7"),
            ],
        )
        assert result.passed, result.detail

    @pytest.fixture
    def skewed_executor(self, monkeypatch):
        # A tier whose runs are not bit-identical to the serial loop (here:
        # a skewed engine seed standing in for any concurrency bug).
        import repro.runtime.experiment as executor_mod

        real = executor_mod.run_policy

        def skewed(policy, run_trace, soc=None, engine_seed=1234, fast=False):
            return real(policy, run_trace, soc=soc, engine_seed=engine_seed + 1, fast=fast)

        monkeypatch.setattr(executor_mod, "run_policy", skewed)

    @staticmethod
    def named_difference(detail, tier):
        """The field a divergence detail names, after checking both values are shown."""
        match = re.search(rf"metrics diverge from the serial run: (\w+) differs: "
                          rf"serial (\S+), {tier} (\S+)$", detail)
        assert match, detail
        field, serial, served = match.groups()
        assert serial != served
        return field

    def test_service_divergence_detected(self, trace, zoo, skewed_executor):
        # The service check must fail, naming the first differing field
        # with both values.
        from repro.verify import check_service_equivalence

        result = check_service_equivalence(trace, zoo)
        assert not result.passed
        field = self.named_difference(result.detail, "service")
        assert field in {f.name for f in dataclasses.fields(RunMetrics)}

    def test_http_divergence_detected(self, trace, zoo, skewed_executor):
        # The same skew behind the wire: the first differing metrics key,
        # in sorted order, with the serial and the wire value.
        from repro.verify.differential import check_http_equivalence

        result = check_http_equivalence(trace, zoo)
        assert not result.passed
        self.named_difference(result.detail, "wire")

    def test_service_duplicate_execution_detected(self, trace, zoo, monkeypatch):
        # A dedup layer that stops deduplicating is a correctness bug for
        # the counters contract, even when results still agree.
        from repro.service.service import SweepService
        from repro.verify import check_service_equivalence

        original = SweepService._execute

        def double_counting(self, job):
            metrics = original(self, job)
            with self.runner._lock:
                self.runner.runs_executed += 5  # simulate re-executions
            return metrics

        monkeypatch.setattr(SweepService, "_execute", double_counting)
        result = check_service_equivalence(trace, zoo)
        assert not result.passed
        assert "duplicate execution" in result.detail

    def test_service_check_passes_on_shared_trace(self, trace, zoo):
        from repro.verify import check_service_equivalence

        result = check_service_equivalence(trace, zoo)
        assert result.passed, result.detail
