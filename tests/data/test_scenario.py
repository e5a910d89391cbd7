"""Tests for scenario definitions and motion paths."""

import dataclasses

import pytest

from repro.data import (
    PATHS,
    Scenario,
    Segment,
    all_scenarios,
    evaluation_scenarios,
    extended_scenarios,
    fog_crossing_scenario,
    long_endurance_patrol_scenario,
    multi_pan_survey_scenario,
    night_watch_scenario,
    path_position,
    register_scenario,
    registered_scenarios,
    scenario_by_name,
    scenario_names,
)


def _segment(**overrides):
    params = {
        "name": "seg",
        "frames": 10,
        "background_name": "open_sky",
        "distance_start": 0.2,
        "distance_end": 0.5,
        "path": "hover",
    }
    params.update(overrides)
    return Segment(**params)


class TestSegment:
    def test_valid(self):
        assert _segment().frames == 10

    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError):
            _segment(frames=0)

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError):
            _segment(path="teleport")

    def test_unknown_background_rejected(self):
        with pytest.raises(KeyError):
            _segment(background_name="the_void")

    def test_distance_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            _segment(distance_start=1.2)
        with pytest.raises(ValueError):
            _segment(distance_end=-0.2)


class TestScenario:
    def test_requires_segments(self):
        with pytest.raises(ValueError):
            Scenario(name="x", description="", indoor=False, seed=1, segments=())

    def test_total_frames(self):
        scenario = Scenario(
            name="x", description="", indoor=False, seed=1,
            segments=(_segment(frames=10), _segment(frames=5)),
        )
        assert scenario.total_frames == 15

    def test_segment_boundaries(self):
        scenario = Scenario(
            name="x", description="", indoor=False, seed=1,
            segments=(_segment(frames=10), _segment(frames=5), _segment(frames=3)),
        )
        assert scenario.segment_boundaries() == [10, 15]

    def test_scaled_shrinks_frames(self):
        scenario = Scenario(
            name="x", description="", indoor=False, seed=1,
            segments=(_segment(frames=100),),
        )
        assert scenario.scaled(0.25).total_frames == 25

    def test_scaled_keeps_minimum_two_frames(self):
        scenario = Scenario(
            name="x", description="", indoor=False, seed=1,
            segments=(_segment(frames=10),),
        )
        assert scenario.scaled(0.01).segments[0].frames == 2

    def test_scaled_invalid_factor_rejected(self):
        scenario = Scenario(
            name="x", description="", indoor=False, seed=1, segments=(_segment(),),
        )
        for factor in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                scenario.scaled(factor)


class TestEvaluationScenarios:
    def test_six_scenarios(self):
        assert len(evaluation_scenarios()) == 6

    def test_two_indoor_four_outdoor(self):
        scenarios = evaluation_scenarios()
        assert sum(1 for s in scenarios if s.indoor) == 2
        assert sum(1 for s in scenarios if not s.indoor) == 4

    def test_paper_frame_counts(self):
        # The paper's videos run 500-2,500 frames each.
        for scenario in evaluation_scenarios():
            assert 500 <= scenario.total_frames <= 2500, scenario.name

    def test_unique_names_and_seeds(self):
        scenarios = evaluation_scenarios()
        assert len({s.name for s in scenarios}) == 6
        assert len({s.seed for s in scenarios}) == 6

    def test_lookup_by_name(self):
        scenario = scenario_by_name("s1_multi_background_varying_distance")
        assert scenario.total_frames == 1800

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError, match="known scenarios"):
            scenario_by_name("s99")

    def test_lookup_unknown_enumerates_every_registered_name(self):
        # The error must list the full resolvable namespace: the paper
        # library, the extended flights, and grammar-generated scenarios.
        with pytest.raises(KeyError) as excinfo:
            scenario_by_name("s99_no_such_flight")
        message = str(excinfo.value)
        assert "s1_multi_background_varying_distance" in message
        assert "x_night_watch_400f" in message
        assert "g_dm_s001_crx_day_96f" in message
        for name in scenario_names():
            assert name in message

    def test_scenario1_has_multiple_backgrounds(self):
        scenario = scenario_by_name("s1_multi_background_varying_distance")
        assert len({seg.background_name for seg in scenario.segments}) >= 3

    def test_scenario2_enters_and_exits(self):
        scenario = scenario_by_name("s2_fixed_distance_crossing")
        paths = [seg.path for seg in scenario.segments]
        assert "enter_left" in paths and "exit_right" in paths and "absent" in paths


class TestScenarioRegistry:
    def _custom(self, name):
        return Scenario(
            name=name, description="registered", indoor=False, seed=4242,
            segments=(Segment("only", 10, "open_sky", 0.2, 0.4),),
        )

    def test_register_and_resolve(self):
        from repro.data.scenario import _REGISTRY

        scenario = self._custom("t_registered_resolves")
        register_scenario(scenario)
        try:
            assert scenario_by_name(scenario.name) is scenario
            assert scenario.name in scenario_names()
            assert any(s.name == scenario.name for s in registered_scenarios())
        finally:
            _REGISTRY.pop(scenario.name, None)

    def test_register_rejects_builtin_shadowing(self):
        with pytest.raises(ValueError, match="shadows"):
            register_scenario(self._custom("s3_indoor_close_wall"))

    def test_register_rejects_generated_shadowing(self):
        # Explicit registrations resolve before sources; shadowing a
        # grammar name would give one name two fingerprints across
        # processes, which the trace store cannot survive.
        with pytest.raises(ValueError, match="source-generated"):
            register_scenario(self._custom("g_dm_s001_crx_day_96f"))

    def test_register_rejects_duplicates_without_replace(self):
        from repro.data.scenario import _REGISTRY

        scenario = self._custom("t_registered_duplicate")
        register_scenario(scenario)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scenario(self._custom("t_registered_duplicate"))
            register_scenario(self._custom("t_registered_duplicate"), replace=True)
        finally:
            _REGISTRY.pop(scenario.name, None)

    def test_lookups_build_the_builtin_library_once(self, monkeypatch):
        from repro.data import scenario as module

        builtins = all_scenarios()
        builds = []

        def counting_all_scenarios():
            builds.append(1)
            return all_scenarios()

        monkeypatch.setattr(module, "all_scenarios", counting_all_scenarios)
        module._builtin_by_name.cache_clear()
        registered = self._custom("t_registered_lookup_once")
        register_scenario(registered)
        try:
            for _ in range(3):
                for scenario in builtins:
                    assert scenario_by_name(scenario.name).fingerprint() \
                        == scenario.fingerprint()
                assert scenario_by_name(registered.name) is registered
                assert scenario_by_name("g_dm_s001_crx_day_96f").name \
                    == "g_dm_s001_crx_day_96f"
                assert scenario_names()[: len(builtins)] == [s.name for s in builtins]
                with pytest.raises(ValueError, match="shadows a built-in"):
                    register_scenario(self._custom("s3_indoor_close_wall"))
        finally:
            module._REGISTRY.pop(registered.name, None)
        assert len(builds) == 1

    def test_names_cover_builtin_and_generated(self):
        names = scenario_names()
        assert len(names) == len(set(names))
        assert "s1_multi_background_varying_distance" in names
        assert any(name.startswith("g_dm_") for name in names)


class TestPathPosition:
    @pytest.mark.parametrize("path", PATHS)
    def test_all_paths_defined_over_unit_interval(self, path):
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            x, y = path_position(path, t)
            assert -1.0 < x < 2.0 and -1.0 < y < 2.0

    def test_progress_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            path_position("hover", 1.5)

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError):
            path_position("warp", 0.5)

    def test_sweep_moves_left_to_right(self):
        x0, _ = path_position("sweep_lr", 0.0)
        x1, _ = path_position("sweep_lr", 1.0)
        assert x0 < 0.2 and x1 > 0.8

    def test_enter_left_starts_outside(self):
        x, _ = path_position("enter_left", 0.0)
        assert x < 0.0

    def test_exit_right_ends_outside(self):
        x, _ = path_position("exit_right", 1.0)
        assert x > 1.0


class TestFingerprint:
    def test_stable_across_calls(self):
        a = scenario_by_name("s1_multi_background_varying_distance")
        b = scenario_by_name("s1_multi_background_varying_distance")
        assert a.fingerprint() == b.fingerprint()

    def test_seed_changes_fingerprint(self):
        base = scenario_by_name("s3_indoor_close_wall")
        reseeded = dataclasses.replace(base, seed=base.seed + 1)
        assert base.fingerprint() != reseeded.fingerprint()

    def test_segment_content_changes_fingerprint(self):
        base = scenario_by_name("s3_indoor_close_wall")
        segments = (dataclasses.replace(base.segments[0], pan=0.9),) + base.segments[1:]
        panned = dataclasses.replace(base, segments=segments)
        assert base.total_frames == panned.total_frames
        assert base.fingerprint() != panned.fingerprint()

    def test_scaling_changes_fingerprint(self):
        base = scenario_by_name("s3_indoor_close_wall")
        assert base.fingerprint() != base.scaled(0.5).fingerprint()

    def test_all_library_fingerprints_distinct(self):
        prints = [s.fingerprint() for s in all_scenarios()]
        assert len(set(prints)) == len(prints)


class TestExtendedScenarios:
    def test_four_extended_scenarios(self):
        assert len(extended_scenarios()) == 4

    def test_all_scenarios_is_union(self):
        names = [s.name for s in all_scenarios()]
        assert len(names) == len(set(names)) == 10
        assert all(s.name in names for s in evaluation_scenarios())

    def test_lookup_finds_extended(self):
        scenario = scenario_by_name("x_night_watch_400f")
        assert scenario.total_frames == 400

    def test_night_watch_is_dark(self):
        from repro.data import background

        scenario = night_watch_scenario()
        styles = [background(seg.background_name) for seg in scenario.segments]
        assert all(style.brightness < 0.2 for style in styles)

    def test_fog_density_parameterizes_name_and_depth(self):
        shallow = fog_crossing_scenario(density=0.2)
        deep = fog_crossing_scenario(density=0.9)
        assert shallow.name != deep.name
        assert max(s.distance_end for s in deep.segments) > max(
            s.distance_end for s in shallow.segments
        )
        with pytest.raises(ValueError):
            fog_crossing_scenario(density=1.5)

    def test_multi_pan_one_leg_per_level(self):
        scenario = multi_pan_survey_scenario(pans=(0.1, 0.5, 1.0, 2.0), leg_frames=50)
        assert len(scenario.segments) == 4
        assert [seg.pan for seg in scenario.segments] == [0.1, 0.5, 1.0, 2.0]
        assert scenario.total_frames == 200
        with pytest.raises(ValueError):
            multi_pan_survey_scenario(pans=())

    def test_long_endurance_scales_with_laps(self):
        short = long_endurance_patrol_scenario(laps=1, lap_frames=120)
        long = long_endurance_patrol_scenario(laps=5, lap_frames=120)
        assert long.total_frames > 4 * short.total_frames
        assert short.name != long.name
        with pytest.raises(ValueError):
            long_endurance_patrol_scenario(laps=0)
