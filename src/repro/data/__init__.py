"""Scenario substrate: scenes, backgrounds, scenarios, frames, datasets.

The grammar's default matrix is the scenario registry's generated
library, expanded on the first lookup that needs it (see
:mod:`repro.data.scenario`), so every ``g_*`` name resolves in any
process without ``import repro.data`` generating it.
"""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "backgrounds": ("background", "background_names", "register_background"),
    "dataset": ("Sample", "build_validation_set", "DEFAULT_VALIDATION_SIZE"),
    "generator": ("Frame", "generate_frames", "render_scenario", "scenario_scenes", "CAMERA_FPS"),
    "scenario": (
        "Scenario", "Segment", "evaluation_scenarios", "extended_scenarios", "all_scenarios",
        "night_watch_scenario", "fog_crossing_scenario", "multi_pan_survey_scenario",
        "long_endurance_patrol_scenario", "scenario_by_name", "scenario_names",
        "register_scenario", "registered_scenarios",
        "path_position", "PATHS",
    ),
    "grammar": (
        "DEFAULT_MATRIX", "FAMILIES", "REGIMES", "GENERATED_PREFIX", "FamilySlot",
        "GrammarError", "Regime", "ScenarioMatrix", "ScenarioRecipe", "SegmentFamily",
        "default_matrix", "family", "family_names", "regime", "split_frames",
    ),
    "scene": (
        "SceneState", "scene_difficulty", "difficulty_components", "approach_profile",
        "DIFFICULTY_WEIGHTS",
    ),
})
