"""Tests for scenario traces and the trace cache."""

import dataclasses

import pytest

from repro.data import scenario_by_name
from repro.models import default_zoo, detect
from repro.runtime import ScenarioTrace, TraceCache


@pytest.fixture(scope="module")
def zoo():
    return default_zoo()


@pytest.fixture(scope="module")
def scenario():
    return scenario_by_name("s3_indoor_close_wall").scaled(0.05)


@pytest.fixture(scope="module")
def trace(scenario, zoo):
    return ScenarioTrace.build(scenario, zoo)


class TestScenarioTrace:
    def test_covers_every_model_and_frame(self, trace, zoo, scenario):
        assert set(trace.model_names()) == set(zoo.names())
        assert trace.frame_count == scenario.total_frames
        for name in zoo.names():
            assert len(trace.outcomes[name]) == trace.frame_count

    def test_outcome_matches_direct_detection(self, trace, zoo, scenario):
        spec = zoo.get("yolov7")
        frame = trace.frames[3]
        direct = detect(spec, frame.scene, (scenario.seed, frame.index))
        assert trace.outcome("yolov7", 3) == direct

    def test_unknown_model_raises(self, trace):
        with pytest.raises(KeyError, match="traced"):
            trace.outcome("ghost", 0)

    def test_out_of_range_frame_raises(self, trace):
        with pytest.raises(IndexError):
            trace.outcome("yolov7", 10_000)


class TestTraceCache:
    def test_caches_by_scenario_identity(self, zoo, scenario):
        cache = TraceCache(zoo)
        a = cache.get(scenario)
        b = cache.get(scenario)
        assert a is b
        assert len(cache) == 1
        assert cache.builds == 1

    def test_scaled_variant_is_distinct(self, zoo, scenario):
        cache = TraceCache(zoo)
        cache.get(scenario)
        cache.get(scenario.scaled(0.5))
        assert len(cache) == 2

    def test_same_name_and_length_different_seed_is_distinct(self, zoo, scenario):
        # Regression: keying by (name, total_frames) silently reused the
        # wrong trace for scenarios differing only in seed.
        reseeded = dataclasses.replace(scenario, seed=scenario.seed + 1)
        assert reseeded.name == scenario.name
        assert reseeded.total_frames == scenario.total_frames
        cache = TraceCache(zoo)
        a = cache.get(scenario)
        b = cache.get(reseeded)
        assert len(cache) == 2
        assert a.outcomes != b.outcomes

    def test_same_name_and_length_different_segments_is_distinct(self, zoo, scenario):
        # Same name, same frame count, different segment content.
        segments = tuple(
            dataclasses.replace(seg, background_name="indoor_lab") for seg in scenario.segments
        )
        restyled = dataclasses.replace(scenario, segments=segments)
        assert restyled.name == scenario.name
        assert restyled.total_frames == scenario.total_frames
        cache = TraceCache(zoo)
        a = cache.get(scenario)
        b = cache.get(restyled)
        assert len(cache) == 2
        assert a.outcomes != b.outcomes

    def test_a_bound_of_one_drops_the_held_trace_before_the_next_build(
        self, zoo, scenario, monkeypatch
    ):
        # A queue worker's memo: the trace it holds is gone before the
        # next scenario's build starts, so two traces are never held.
        cache = TraceCache(zoo, max_size=1)
        first = cache.get(scenario)
        assert cache.get(scenario) is first and cache.builds == 1
        held_at_build = []
        real_build = TraceCache._build

        def build(self, scenarios):
            held_at_build.append(len(self))
            return real_build(self, scenarios)

        monkeypatch.setattr(TraceCache, "_build", build)
        second = cache.get(scenario.scaled(0.5))
        assert held_at_build == [1]  # only the acquisition in flight
        assert len(cache) == 1 and cache.builds == 2
        assert cache.get(scenario.scaled(0.5)) is second

    def test_room_is_made_from_traces_the_call_does_not_ask_for(self, zoo, scenario):
        cache = TraceCache(zoo, max_size=2)
        held, other, fresh = scenario, scenario.scaled(0.5), scenario.scaled(0.25)
        first = cache.get(held)
        cache.get(other)
        # The memo is full: ``other`` goes, although ``held`` is older,
        # because this call asks for ``held``.
        _, built = cache.get_all([held, fresh])
        assert cache.builds == 3 and len(cache) == 2
        assert cache.get(held) is first and cache.get(fresh) is built
        assert cache.builds == 3

    @pytest.mark.parametrize("max_size", [0, -1])
    def test_a_bound_below_one_is_refused(self, zoo, max_size):
        with pytest.raises(ValueError, match="at least 1"):
            TraceCache(zoo, max_size=max_size)


class TestParallelBuild:
    def test_parallel_build_matches_serial(self, zoo, scenario):
        serial = ScenarioTrace.build(scenario, zoo)
        parallel = ScenarioTrace.build(scenario, zoo, max_workers=2)
        assert serial.outcomes == parallel.outcomes
        assert parallel.model_names() == serial.model_names()
        assert parallel.frame_count == serial.frame_count

    def test_worker_count_larger_than_zoo_is_fine(self, zoo, scenario):
        trace = ScenarioTrace.build(scenario, zoo, max_workers=len(zoo) + 5)
        assert set(trace.model_names()) == set(zoo.names())


class TestWorkerThreshold:
    """build(workers=N) must never regress below the serial path."""

    def test_effective_workers_caps_by_volume(self):
        from repro.runtime.trace import MIN_MODEL_FRAMES_PER_WORKER, _effective_workers

        models, cpus = 8, 64
        plenty = 10 * models * MIN_MODEL_FRAMES_PER_WORKER
        assert _effective_workers(None, models, plenty) == 1
        assert _effective_workers(1, models, plenty) == 1
        # Tiny builds fall back to serial no matter how many workers asked.
        assert _effective_workers(cpus, models, 10) == 1
        # Just enough volume for exactly two workers.
        assert _effective_workers(cpus, models, 2 * MIN_MODEL_FRAMES_PER_WORKER) <= 2

    def test_effective_workers_caps_by_models_and_cpus(self, monkeypatch):
        import repro.runtime.trace as trace_module

        monkeypatch.setattr(trace_module, "_available_cpus", lambda: 4)
        huge = 100 * trace_module.MIN_MODEL_FRAMES_PER_WORKER
        assert trace_module._effective_workers(64, 3, huge) == 3  # model cap
        assert trace_module._effective_workers(64, 16, huge) == 4  # cpu cap

    def test_small_build_never_spins_a_pool(self, monkeypatch, zoo, scenario):
        import repro.runtime.trace as trace_module

        def _boom(*args, **kwargs):
            raise AssertionError("a worker pool was spawned for a tiny build")

        monkeypatch.setattr(trace_module, "ProcessPoolExecutor", _boom)
        trace = ScenarioTrace.build(scenario, zoo, max_workers=8)
        assert set(trace.model_names()) == set(zoo.names())

    def test_forced_pool_path_is_bit_identical(self, monkeypatch, zoo, scenario):
        # Exercise the real worker-pool path even on small boxes/scenarios
        # by dropping both guards; outcomes must match serial exactly.
        import repro.runtime.trace as trace_module

        monkeypatch.setattr(trace_module, "MIN_MODEL_FRAMES_PER_WORKER", 1)
        monkeypatch.setattr(trace_module, "_available_cpus", lambda: 8)
        serial = ScenarioTrace.build(scenario, zoo)
        pooled = ScenarioTrace.build(scenario, zoo, max_workers=2)
        assert pooled.outcomes == serial.outcomes


class TestLazyFrames:
    def test_built_traces_carry_frames(self, trace):
        assert trace.frames_materialized
        assert len(trace.frames) == trace.frame_count

    def test_outcome_only_traces_defer_rendering(self, scenario, zoo, trace):
        lazy = ScenarioTrace(scenario=scenario, frames=None, outcomes=trace.outcomes)
        assert not lazy.frames_materialized
        assert lazy.frame_count == scenario.total_frames  # no render needed
        assert lazy.model_names() == trace.model_names()
        # First access renders (bit-identical to the eager frames)…
        import numpy as np

        assert np.array_equal(lazy.frames[3].image, trace.frames[3].image)
        assert lazy.frames_materialized
        # …and caches.
        assert lazy.frames is lazy.frames

    def test_outcomes_are_required(self, scenario):
        with pytest.raises(ValueError):
            ScenarioTrace(scenario=scenario, frames=None, outcomes=None)

    def test_consecutive_frame_ncc_matches_scalar_loop(self, trace):
        import numpy as np

        from repro.vision import ncc

        values = trace.consecutive_frame_ncc()
        images = [frame.image for frame in trace.frames]
        expected = np.array([ncc(images[i], images[i + 1]) for i in range(len(images) - 1)])
        assert np.array_equal(values, expected)
        assert trace.consecutive_frame_ncc() is values  # cached
