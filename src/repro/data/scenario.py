"""Scenario definitions: scripted flights of a single UAV target.

A :class:`Scenario` is a sequence of :class:`Segment` s; each segment fixes
a background, a distance profile, and a motion path.  The six evaluation
scenarios mirror the paper's custom dataset: two indoor and four outdoor
videos of 500–2,500 frames in which the drone crosses backgrounds at
varying distances.  Segment boundaries are where the frame context — and
therefore the best model choice — changes.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, replace
from collections.abc import Callable, Iterable

from .backgrounds import background

# Motion paths supported by the generator.  Each maps segment progress
# t in [0, 1] to a normalized (x, y) position in [0, 1]^2; positions may
# exceed the unit square for enter/exit paths (the target is then clipped
# or invisible).
PATHS = (
    "hover",
    "sweep_lr",
    "sweep_rl",
    "orbit",
    "weave",
    "enter_left",
    "exit_right",
    "absent",
)


@dataclass(frozen=True)
class Segment:
    """A homogeneous stretch of a scenario.

    ``distance_start``/``distance_end`` give the normalized range profile
    across the segment (eased by the generator); ``path`` selects the
    motion pattern; ``pan`` adds background drift in pixels/frame
    (camera motion), which both the renderer and the difficulty model see.
    """

    name: str
    frames: int
    background_name: str
    distance_start: float
    distance_end: float
    path: str = "hover"
    pan: float = 0.0

    def __post_init__(self) -> None:
        if self.frames <= 0:
            raise ValueError(f"segment {self.name!r} must have at least 1 frame")
        if self.path not in PATHS:
            raise ValueError(f"unknown path {self.path!r}; expected one of {PATHS}")
        for value, label in ((self.distance_start, "distance_start"), (self.distance_end, "distance_end")):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"segment {self.name!r}: {label} must be within [0, 1], got {value}")
        # Validate eagerly so scenario definitions fail fast on typos.
        background(self.background_name)


@dataclass(frozen=True)
class Scenario:
    """A named, fully deterministic evaluation video."""

    name: str
    description: str
    indoor: bool
    seed: int
    segments: tuple[Segment, ...]
    frame_size: int = 96

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError(f"scenario {self.name!r} needs at least one segment")

    @property
    def total_frames(self) -> int:
        """Total frame count across all segments."""
        return sum(segment.frames for segment in self.segments)

    def fingerprint(self) -> str:
        """Content-addressed identity of this scenario (hex digest).

        Hashes everything detection outcomes depend on: name, seed, frame
        size, and the full segment structure *including* the resolved
        background styles (so re-registering a background under the same
        name changes the fingerprint).  Two scenarios that would produce
        different traces always have different fingerprints; trace caches
        and the on-disk trace store key by this, never by (name, length).
        """
        digest = hashlib.sha256()
        parts = [self.name, str(self.seed), str(self.frame_size), str(int(self.indoor))]
        for segment in self.segments:
            style = background(segment.background_name)
            parts.append(
                "|".join(
                    (
                        segment.name,
                        str(segment.frames),
                        segment.background_name,
                        repr(style),
                        repr(segment.distance_start),
                        repr(segment.distance_end),
                        segment.path,
                        repr(segment.pan),
                    )
                )
            )
        digest.update("\n".join(parts).encode("utf-8"))
        return digest.hexdigest()

    def scaled(self, factor: float) -> "Scenario":
        """Return a shorter copy with each segment scaled by ``factor``.

        Used by tests and quick examples; every segment keeps at least
        two frames so context transitions survive.
        """
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError(f"scale factor must be a finite positive number, got {factor}")
        scaled_segments = tuple(
            replace(segment, frames=max(2, int(round(segment.frames * factor))))
            for segment in self.segments
        )
        return replace(self, segments=scaled_segments)

    def segment_boundaries(self) -> list[int]:
        """Frame indices at which a new segment begins (excluding 0)."""
        boundaries = []
        total = 0
        for segment in self.segments[:-1]:
            total += segment.frames
            boundaries.append(total)
        return boundaries


def _scenario_1() -> Scenario:
    """Fig. 3: drone crosses multiple backgrounds at varying distances.

    The paper highlights context changes at frames ~50, ~500, ~1100 and
    ~1650: an easy opening, a push to distant cluttered backgrounds, and a
    return.  The segments below reproduce that arc.
    """
    return Scenario(
        name="s1_multi_background_varying_distance",
        description="Outdoor: multiple backgrounds, distance varies, returns near",
        indoor=False,
        seed=9301,
        segments=(
            Segment("launch_close", 50, "open_sky", 0.05, 0.15, path="hover"),
            Segment("climb_easy", 450, "open_sky", 0.15, 0.45, path="weave"),
            Segment("treeline_far", 600, "tree_line", 0.52, 0.72, path="sweep_lr", pan=0.4),
            Segment("forest_deep", 550, "forest_shade", 0.72, 0.58, path="orbit", pan=0.2),
            Segment("return_close", 150, "cloudy_sky", 0.45, 0.10, path="hover"),
        ),
    )


def _scenario_2() -> Scenario:
    """Fig. 4: horizontal crossing over simpler backgrounds, fixed distance.

    The drone enters the view, sweeps across, and leaves; the paper notes
    detections cease beyond frame ~450 when the target exits.
    """
    return Scenario(
        name="s2_fixed_distance_crossing",
        description="Outdoor: fixed distance, horizontal crossing, target exits",
        indoor=False,
        seed=9302,
        segments=(
            Segment("empty_sky", 60, "cloudy_sky", 0.45, 0.45, path="absent"),
            Segment("enter", 90, "cloudy_sky", 0.45, 0.45, path="enter_left"),
            Segment("cross_sky", 180, "open_sky", 0.45, 0.45, path="sweep_lr"),
            Segment("cross_lot", 120, "parking_lot", 0.45, 0.45, path="sweep_lr", pan=0.3),
            Segment("exit", 80, "parking_lot", 0.45, 0.45, path="exit_right"),
            Segment("gone", 70, "parking_lot", 0.45, 0.45, path="absent"),
        ),
    )


def _scenario_3() -> Scenario:
    """Indoor: close-range hover against a plain wall (easy context)."""
    return Scenario(
        name="s3_indoor_close_wall",
        description="Indoor: close hover against contrasted wall",
        indoor=True,
        seed=9303,
        segments=(
            Segment("hover_wall", 300, "indoor_wall", 0.05, 0.20, path="hover"),
            Segment("drift_wall", 200, "indoor_wall", 0.20, 0.35, path="weave"),
        ),
    )


def _scenario_4() -> Scenario:
    """Indoor: cluttered lab and warehouse shelving (hard indoor context)."""
    return Scenario(
        name="s4_indoor_clutter",
        description="Indoor: cluttered lab then dim warehouse",
        indoor=True,
        seed=9304,
        segments=(
            Segment("lab_mid", 350, "indoor_lab", 0.25, 0.45, path="weave"),
            Segment("warehouse_far", 300, "indoor_warehouse", 0.45, 0.62, path="sweep_rl"),
            Segment("warehouse_return", 150, "indoor_warehouse", 0.58, 0.30, path="orbit"),
        ),
    )


def _scenario_5() -> Scenario:
    """Outdoor: long-range patrol against sky then dusk horizon."""
    return Scenario(
        name="s5_far_patrol",
        description="Outdoor: long-range patrol, sky to dusk horizon",
        indoor=False,
        seed=9305,
        segments=(
            Segment("patrol_sky", 500, "open_sky", 0.45, 0.65, path="sweep_lr"),
            Segment("patrol_turn", 200, "cloudy_sky", 0.65, 0.72, path="orbit"),
            Segment("patrol_dusk", 400, "dusk_horizon", 0.72, 0.55, path="sweep_rl", pan=0.25),
            Segment("patrol_home", 100, "cloudy_sky", 0.50, 0.25, path="hover"),
        ),
    )


def _scenario_6() -> Scenario:
    """Outdoor: fast urban pursuit across facades (motion-heavy context)."""
    return Scenario(
        name="s6_urban_pursuit",
        description="Outdoor: fast pursuit across urban facades",
        indoor=False,
        seed=9306,
        segments=(
            Segment("facade_dash", 300, "urban_facade", 0.30, 0.45, path="sweep_lr", pan=1.2),
            Segment("lot_dash", 250, "parking_lot", 0.40, 0.50, path="sweep_rl", pan=1.0),
            Segment("facade_far", 250, "urban_facade", 0.50, 0.65, path="weave", pan=0.8),
            Segment("close_pass", 100, "parking_lot", 0.35, 0.12, path="orbit"),
        ),
    )


def evaluation_scenarios() -> list[Scenario]:
    """The six evaluation scenarios (2 indoor, 4 outdoor), paper §IV."""
    return [
        _scenario_1(),
        _scenario_2(),
        _scenario_3(),
        _scenario_4(),
        _scenario_5(),
        _scenario_6(),
    ]


# ------------------------------------------------ extended flight library
#
# Procedurally parameterized flights beyond the paper's six videos.  Each
# builder takes knobs (seed, duration, pan intensity, lap count) and
# derives a deterministic scenario, so the experiment runner has diverse
# workloads to fan out over without hand-writing every segment.


def night_watch_scenario(seed: int = 9307, base_frames: int = 400) -> Scenario:
    """Night operations: dark sky and moonlit ground, target barely lit.

    ``base_frames`` scales the whole flight; segments keep the paper's
    arc (easy start, hard middle, return) under near-zero illumination.
    """
    if base_frames < 20:
        raise ValueError("base_frames must be at least 20")
    unit = base_frames // 10
    return Scenario(
        name=f"x_night_watch_{base_frames}f",
        description="Outdoor night: dark sky then moonlit field, low light",
        indoor=False,
        seed=seed,
        segments=(
            Segment("night_launch", 2 * unit, "night_sky", 0.10, 0.30, path="hover"),
            Segment("night_sweep", 3 * unit, "night_sky", 0.30, 0.55, path="sweep_lr"),
            Segment("field_search", 3 * unit, "moonlit_field", 0.55, 0.45, path="weave", pan=0.3),
            Segment("night_return", 2 * unit, "night_sky", 0.45, 0.15, path="hover"),
        ),
    )


def fog_crossing_scenario(seed: int = 9308, density: float = 0.7, base_frames: int = 360) -> Scenario:
    """Fog bank crossing: bright but washed-out, contrast near zero.

    ``density`` in [0, 1] pushes the flight deeper into the fog (longer
    far-range stretches); the scenario name encodes it so distinct
    densities never share a trace.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be within [0, 1], got {density}")
    if base_frames < 20:
        raise ValueError("base_frames must be at least 20")
    unit = base_frames // 9
    deep = 0.45 + 0.35 * density
    return Scenario(
        name=f"x_fog_crossing_d{int(round(density * 100)):03d}_{base_frames}f",
        description="Outdoor fog: low-contrast bank and misted treeline",
        indoor=False,
        seed=seed,
        segments=(
            Segment("fog_entry", 2 * unit, "fog_bank", 0.20, deep * 0.7, path="enter_left"),
            Segment("fog_deep", 3 * unit, "fog_bank", deep * 0.7, deep, path="sweep_lr"),
            Segment("mist_trees", 2 * unit, "fog_treeline", deep, deep * 0.8, path="weave", pan=0.2),
            Segment("fog_exit", 2 * unit, "fog_bank", deep * 0.8, 0.25, path="exit_right"),
        ),
    )


def multi_pan_survey_scenario(
    seed: int = 9309,
    pans: tuple[float, ...] = (0.3, 0.8, 1.5),
    leg_frames: int = 220,
) -> Scenario:
    """Survey legs at escalating camera pan: motion is the difficulty knob.

    One back-and-forth leg per entry in ``pans``; alternating sweep
    directions over mid-complexity backgrounds isolate the effect of
    background drift on detection.
    """
    if not pans:
        raise ValueError("pans must name at least one leg")
    if leg_frames < 4:
        raise ValueError("leg_frames must be at least 4")
    backgrounds = ("parking_lot", "urban_facade", "tree_line")
    segments = []
    for i, pan in enumerate(pans):
        if pan < 0.0:
            raise ValueError(f"pan must be non-negative, got {pan}")
        path = "sweep_lr" if i % 2 == 0 else "sweep_rl"
        segments.append(
            Segment(
                name=f"leg{i + 1}_pan{int(round(pan * 100)):03d}",
                frames=leg_frames,
                background_name=backgrounds[i % len(backgrounds)],
                distance_start=0.35,
                distance_end=0.55,
                path=path,
                pan=pan,
            )
        )
    tag = "-".join(str(int(round(p * 100))) for p in pans)
    return Scenario(
        name=f"x_multi_pan_survey_{tag}",
        description="Outdoor survey: identical legs at escalating camera pan",
        indoor=False,
        seed=seed,
        segments=tuple(segments),
    )


def long_endurance_patrol_scenario(
    seed: int = 9310,
    laps: int = 3,
    lap_frames: int = 600,
) -> Scenario:
    """Long-endurance patrol: ``laps`` identical circuits, day into dusk.

    Each lap is an out-sweep, a far orbit, and a return; the final lap
    descends home.  Stresses long traces (many frames, few context
    changes) — the workload where trace reuse pays off most.
    """
    if laps < 1:
        raise ValueError("laps must be at least 1")
    if lap_frames < 30:
        raise ValueError("lap_frames must be at least 30")
    unit = lap_frames // 6
    segments = []
    for lap in range(1, laps + 1):
        dusk = lap == laps  # the light fades on the final lap
        far_bg = "dusk_horizon" if dusk else "cloudy_sky"
        segments.extend(
            (
                Segment(f"lap{lap}_out", 2 * unit, "open_sky", 0.30, 0.60, path="sweep_lr"),
                Segment(f"lap{lap}_far", 2 * unit, far_bg, 0.60, 0.68, path="orbit", pan=0.15),
                Segment(f"lap{lap}_back", 2 * unit, "open_sky", 0.68, 0.35, path="sweep_rl"),
            )
        )
    segments.append(Segment("patrol_land", max(2, unit), "cloudy_sky", 0.35, 0.08, path="hover"))
    return Scenario(
        name=f"x_long_endurance_{laps}laps_{lap_frames}f",
        description="Outdoor endurance: repeated patrol laps, day into dusk",
        indoor=False,
        seed=seed,
        segments=tuple(segments),
    )


def extended_scenarios() -> list[Scenario]:
    """The extended flight library at default parameters (4 scenarios)."""
    return [
        night_watch_scenario(),
        fog_crossing_scenario(),
        multi_pan_survey_scenario(),
        long_endurance_patrol_scenario(),
    ]


def all_scenarios() -> list[Scenario]:
    """Evaluation scenarios plus the extended library at defaults."""
    return evaluation_scenarios() + extended_scenarios()


# ------------------------------------------------------- scenario registry
#
# Beyond the hand-written library, scenarios can be registered at runtime —
# individually (:func:`register_scenario`) or in bulk through a lazy
# *source* (:func:`register_scenario_source`), a zero-argument callable
# returning scenarios.  Sources are how procedurally generated libraries
# (the grammar's default matrix, custom :class:`ScenarioMatrix` grids)
# become first-class: expansion is deferred until the first name lookup and
# cached, so importing the package never pays for generating hundreds of
# scenarios nobody asked for.  Because sources are pure functions of code
# and seeds, every process resolves the same name to a scenario with the
# same content fingerprint — the property the trace store relies on.

ScenarioSource = Callable[[], Iterable[Scenario]]

_REGISTRY: dict[str, Scenario] = {}
_SOURCES: list[ScenarioSource] = []
_SOURCE_CACHE: dict[int, dict[str, Scenario]] = {}


@functools.cache
def _builtin_by_name() -> dict[str, Scenario]:
    """The built-in library by name, built at most once per process.

    Built-ins are pure functions of code and :class:`Scenario` is frozen,
    so every lookup can share one instance per name.  Building the
    library re-validates every segment, too slow to repeat for each name
    a request resolves.  Callers must not mutate the map.
    """
    return {scenario.name: scenario for scenario in all_scenarios()}


def register_scenario(scenario: Scenario, replace: bool = False) -> None:
    """Register a scenario so :func:`scenario_by_name` can resolve it.

    Names must not shadow the built-in library or a source-generated
    scenario — explicit registrations resolve *before* sources, so a
    shadow would make the same name mean different content (and carry a
    different fingerprint) in processes that never saw the registration.
    ``replace=True`` permits overwriting an earlier *registered* entry
    only.
    """
    if scenario.name in _builtin_by_name():
        raise ValueError(f"scenario {scenario.name!r} shadows a built-in scenario")
    for source in _SOURCES:
        if scenario.name in _expanded_source(source):
            raise ValueError(
                f"scenario {scenario.name!r} shadows a source-generated scenario"
            )
    if not replace and scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario


def register_scenario_source(source: ScenarioSource) -> None:
    """Register a lazy bulk source of scenarios (expanded once, on demand)."""
    if source not in _SOURCES:
        _SOURCES.append(source)


def _expanded_source(source: ScenarioSource) -> dict[str, Scenario]:
    """The name map of one source, expanded at most once per process."""
    cached = _SOURCE_CACHE.get(id(source))
    if cached is None:
        cached = {}
        for scenario in source():
            if scenario.name in cached:
                raise ValueError(
                    f"scenario source yielded duplicate name {scenario.name!r}"
                )
            cached[scenario.name] = scenario
        _SOURCE_CACHE[id(source)] = cached
    return cached


def registered_scenarios() -> list[Scenario]:
    """Every runtime-registered scenario: explicit entries, then sources."""
    scenarios = list(_REGISTRY.values())
    seen = {s.name for s in scenarios}
    for source in _SOURCES:
        for name, scenario in _expanded_source(source).items():
            if name not in seen:
                seen.add(name)
                scenarios.append(scenario)
    return scenarios


def scenario_names() -> list[str]:
    """Every resolvable scenario name: built-in library, then registered."""
    names = list(_builtin_by_name())
    seen = set(names)
    for scenario in registered_scenarios():
        if scenario.name not in seen:
            seen.add(scenario.name)
            names.append(scenario.name)
    return names


def scenario_by_name(name: str) -> Scenario:
    """Look up a scenario by its full name.

    Resolution order: the built-in library (evaluation + extended flights),
    explicitly registered scenarios, then lazy sources (generated
    libraries such as the grammar's default matrix).  An unknown name
    raises a KeyError enumerating **all** registered names, so callers
    never have to guess what exists.
    """
    builtin = _builtin_by_name().get(name)
    if builtin is not None:
        return builtin
    registered = _REGISTRY.get(name)
    if registered is not None:
        return registered
    for source in _SOURCES:
        scenario = _expanded_source(source).get(name)
        if scenario is not None:
            return scenario
    known = ", ".join(scenario_names())
    raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}")


# --------------------------------------------------------------------------
# Serialization.  Queue job records embed scenarios so worker processes can
# execute jobs from generated matrices (fuzz / loadgen pools) that are never
# registered in their interpreter.  Field sets are pinned in
# analysis/schema_manifest.json; keep the returns literal.


def segment_to_dict(segment: Segment) -> dict:
    """JSON-serializable payload for one segment."""
    return {
        "name": segment.name,
        "frames": segment.frames,
        "background_name": segment.background_name,
        "distance_start": segment.distance_start,
        "distance_end": segment.distance_end,
        "path": segment.path,
        "pan": segment.pan,
    }


def scenario_to_dict(scenario: Scenario) -> dict:
    """JSON-serializable payload for a full scenario."""
    return {
        "name": scenario.name,
        "description": scenario.description,
        "indoor": scenario.indoor,
        "seed": scenario.seed,
        "frame_size": scenario.frame_size,
        "segments": [segment_to_dict(segment) for segment in scenario.segments],
    }


def segment_from_dict(payload: dict) -> Segment:
    """Inverse of :func:`segment_to_dict` (validates via ``__post_init__``)."""
    return Segment(
        name=str(payload["name"]),
        frames=int(payload["frames"]),
        background_name=str(payload["background_name"]),
        distance_start=float(payload["distance_start"]),
        distance_end=float(payload["distance_end"]),
        path=str(payload["path"]),
        pan=float(payload["pan"]),
    )


def scenario_from_dict(payload: dict) -> Scenario:
    """Inverse of :func:`scenario_to_dict`.

    Round-trips bit-exactly: the rebuilt scenario has the same
    ``fingerprint()`` as the original because every hashed field is
    restored verbatim.
    """
    return Scenario(
        name=str(payload["name"]),
        description=str(payload["description"]),
        indoor=bool(payload["indoor"]),
        seed=int(payload["seed"]),
        frame_size=int(payload["frame_size"]),
        segments=tuple(segment_from_dict(entry) for entry in payload["segments"]),
    )


def path_position(path: str, t: float) -> tuple[float, float]:
    """Normalized (x, y) target position for ``path`` at progress ``t``.

    Coordinates are in units of the frame side; enter/exit paths
    intentionally leave the unit square.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"progress must be within [0, 1], got {t}")
    if path == "hover":
        return (0.5 + 0.06 * math.sin(6.0 * math.pi * t), 0.45 + 0.05 * math.cos(4.0 * math.pi * t))
    if path == "sweep_lr":
        return (0.08 + 0.84 * t, 0.45 + 0.08 * math.sin(3.0 * math.pi * t))
    if path == "sweep_rl":
        return (0.92 - 0.84 * t, 0.45 + 0.08 * math.sin(3.0 * math.pi * t))
    if path == "orbit":
        angle = 2.0 * math.pi * t
        return (0.5 + 0.28 * math.cos(angle), 0.5 + 0.22 * math.sin(angle))
    if path == "weave":
        return (0.15 + 0.70 * t, 0.5 + 0.18 * math.sin(5.0 * math.pi * t))
    if path == "enter_left":
        return (-0.25 + 0.80 * t, 0.45)
    if path == "exit_right":
        return (0.55 + 0.75 * t, 0.45)
    if path == "absent":
        return (0.5, 0.5)
    raise ValueError(f"unknown path {path!r}")
