"""Procedural scenario grammar: compose flights from parameterized families.

The hand-written library covers ten flights; the north-star workload is
"as many scenarios as you can imagine".  This module turns scenario
authoring into data:

* a :class:`SegmentFamily` is a reusable flight *phrase* — a crossing, a
  loiter, a pop-up appearance, an occlusion dip, an altitude ramp, a
  high-pan burst — that expands into concrete :class:`~.scenario.Segment`
  runs from a frame budget, a starting distance, and a seeded parameter
  stream;
* a :class:`Regime` fixes the environment (background roster, indoor flag,
  camera-pan scale) for day, night, fog, and indoor operation;
* a :class:`ScenarioRecipe` composes families under validity constraints
  (exact frame budget, distance continuity between phrases, regime-legal
  backgrounds) and builds one deterministic :class:`~.scenario.Scenario`;
* a :class:`ScenarioMatrix` expands a recipe grid (compositions x regimes
  x seeds x budgets) into hundreds of distinct, fingerprint-stable
  scenarios.

Everything is seed-deterministic and process-independent: parameters come
from ``random.Random`` seeded by strings derived from the recipe's
*content* identity (:meth:`ScenarioRecipe.content_key` — stdlib string
seeding is stable across platforms and processes), and per-recipe
scenario seeds are SHA-256-derived from the same key.  Display names
label scenarios but never feed a seed, so renaming a recipe can never
reshuffle its content (the metamorphic suite pins this).  Two
processes that expand the same matrix therefore agree on every scenario
name *and* every content fingerprint — which is what lets generated
scenarios flow through ``scenario_by_name``, the CLI ``sweep``, the trace
store, and the experiment runner exactly like hand-written ones.

The :data:`default matrix <DEFAULT_MATRIX>` is the scenario registry's
generated library: the registry imports this module and expands the
matrix on its first lookup past the built-ins and the registrations, so
``scenario_by_name("g_...")`` works in any process.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from collections.abc import Callable

from .scenario import Scenario, Segment, register_scenario, registered_scenarios

# Generated scenario names carry this prefix; the built-in library uses
# "s*" (paper) and "x_*" (extended), so the namespaces never collide.
GENERATED_PREFIX = "g_"

# Distances stay inside this band so eased profiles, jitter, and ramps can
# never push a segment outside the Segment validator's [0, 1] range.
MIN_DISTANCE = 0.04
MAX_DISTANCE = 0.94


class GrammarError(ValueError):
    """Raised when a recipe or matrix cannot produce a valid scenario."""


def _clamp_distance(value: float) -> float:
    return min(MAX_DISTANCE, max(MIN_DISTANCE, value))


def split_frames(total: int, weights: tuple[float, ...], minimum: int = 2) -> list[int]:
    """Split ``total`` frames across ``weights`` proportionally, exactly.

    Every part gets at least ``minimum`` frames; the result always sums to
    ``total`` (floor-proportional allocation, remainder left-to-right,
    then deficits repaid by the largest parts).  Raises
    :class:`GrammarError` when ``total`` cannot cover the minimums.
    """
    if not weights:
        raise GrammarError("cannot split frames over zero parts")
    if total < minimum * len(weights):
        raise GrammarError(
            f"{total} frames cannot cover {len(weights)} parts of at least {minimum} frames each"
        )
    scale = sum(weights)
    parts = [max(minimum, int(total * w / scale)) for w in weights]
    # Repay any overshoot from the largest parts, then hand out the
    # remainder left-to-right; both loops terminate because the minimum
    # check above guarantees a feasible allocation exists.
    while sum(parts) > total:
        largest = max(range(len(parts)), key=lambda i: parts[i])
        if parts[largest] <= minimum:
            raise GrammarError(f"cannot honour minimum {minimum} within {total} frames")
        parts[largest] -= 1
    for i in itertools.cycle(range(len(parts))):
        if sum(parts) == total:
            break
        parts[i] += 1
    return parts


# ------------------------------------------------------------------ regimes


@dataclass(frozen=True)
class Regime:
    """An operating environment: legal backgrounds plus global modifiers.

    ``roster`` lists the backgrounds families may draw from; ``pan_scale``
    damps or boosts camera pan (night and fog flights pan gently, day
    pursuit pans hard); ``indoor`` flows into the scenario flag.
    """

    name: str
    roster: tuple[str, ...]
    indoor: bool = False
    pan_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.roster:
            raise GrammarError(f"regime {self.name!r} needs at least one background")
        if self.pan_scale < 0.0:
            raise GrammarError(f"regime {self.name!r}: pan_scale must be non-negative")


REGIMES: dict[str, Regime] = {
    "day": Regime(
        name="day",
        roster=("open_sky", "cloudy_sky", "tree_line", "parking_lot", "urban_facade", "forest_shade"),
        pan_scale=1.0,
    ),
    "night": Regime(name="night", roster=("night_sky", "moonlit_field"), pan_scale=0.6),
    "fog": Regime(name="fog", roster=("fog_bank", "fog_treeline"), pan_scale=0.5),
    "indoor": Regime(
        name="indoor",
        roster=("indoor_wall", "indoor_lab", "indoor_warehouse"),
        indoor=True,
        pan_scale=0.3,
    ),
}


def regime(name: str) -> Regime:
    """Look up a regime by name; raises GrammarError with guidance."""
    try:
        return REGIMES[name]
    except KeyError:
        known = ", ".join(sorted(REGIMES))
        raise GrammarError(f"unknown regime {name!r}; known regimes: {known}") from None


# ----------------------------------------------------------------- families


@dataclass(frozen=True)
class FamilySlot:
    """What a recipe hands a family when instantiating one phrase.

    ``frames`` is the exact budget the family must consume; ``start`` is
    the distance the previous phrase ended at (the family's first segment
    must start there — the continuity constraint); ``rng`` is a seeded
    parameter stream private to this (recipe, slot) pair; ``prefix``
    namespaces segment names within the scenario.
    """

    index: int
    frames: int
    start: float
    regime: Regime
    rng: random.Random
    prefix: str

    def pick_background(self) -> str:
        """A roster background, drawn from this slot's parameter stream."""
        return self.rng.choice(self.regime.roster)

    def pan(self, low: float, high: float) -> float:
        """A pan level in [low, high], scaled by the regime."""
        return round(self.rng.uniform(low, high) * self.regime.pan_scale, 3)


BuilderFn = Callable[[FamilySlot], tuple[Segment, ...]]


@dataclass(frozen=True)
class SegmentFamily:
    """A parameterized flight phrase: budget + slot in, segments out.

    ``min_frames`` is the smallest budget under which the family's shape
    survives (every internal segment keeps >= 2 frames); recipes validate
    their budget splits against it before building.
    """

    name: str
    description: str
    min_frames: int
    build: BuilderFn

    def instantiate(self, slot: FamilySlot) -> tuple[Segment, ...]:
        """Expand this family in ``slot``, enforcing the phrase contract."""
        if slot.frames < self.min_frames:
            raise GrammarError(
                f"family {self.name!r} needs >= {self.min_frames} frames, got {slot.frames}"
            )
        segments = self.build(slot)
        if not segments:
            raise GrammarError(f"family {self.name!r} produced no segments")
        produced = sum(s.frames for s in segments)
        if produced != slot.frames:
            raise GrammarError(
                f"family {self.name!r} consumed {produced} frames of a {slot.frames}-frame budget"
            )
        return segments


def _build_crossing(slot: FamilySlot) -> tuple[Segment, ...]:
    """Horizontal crossing: enter, traverse (possibly changing background), exit."""
    enter, cross, leave = split_frames(slot.frames, (1.0, 2.2, 1.0))
    depth = _clamp_distance(slot.start + slot.rng.uniform(-0.08, 0.10))
    pan = slot.pan(0.1, 0.9)
    return (
        Segment(f"{slot.prefix}_enter", enter, slot.pick_background(), slot.start, depth,
                path="enter_left"),
        Segment(f"{slot.prefix}_cross", cross, slot.pick_background(), depth, depth,
                path="sweep_lr", pan=pan),
        Segment(f"{slot.prefix}_exit", leave, slot.pick_background(), depth, slot.start,
                path="exit_right", pan=pan),
    )


def _build_loiter(slot: FamilySlot) -> tuple[Segment, ...]:
    """Loiter: hover on station, then a slow orbit drifting slightly closer."""
    hold, orbit = split_frames(slot.frames, (1.0, 1.4))
    closer = _clamp_distance(slot.start - slot.rng.uniform(0.05, 0.18))
    background = slot.pick_background()
    return (
        Segment(f"{slot.prefix}_hold", hold, background, slot.start, closer, path="hover"),
        Segment(f"{slot.prefix}_orbit", orbit, background, closer, slot.start,
                path="orbit", pan=slot.pan(0.0, 0.3)),
    )


def _build_popup(slot: FamilySlot) -> tuple[Segment, ...]:
    """Pop-up: empty view, sudden appearance, then a settling hover."""
    empty, appear, settle = split_frames(slot.frames, (1.0, 1.0, 1.6))
    near = _clamp_distance(slot.start - slot.rng.uniform(0.0, 0.12))
    background = slot.pick_background()
    return (
        Segment(f"{slot.prefix}_empty", empty, background, slot.start, slot.start, path="absent"),
        Segment(f"{slot.prefix}_appear", appear, background, slot.start, near, path="enter_left"),
        Segment(f"{slot.prefix}_settle", settle, slot.pick_background(), near, slot.start,
                path="hover"),
    )


def _build_occlusion_dip(slot: FamilySlot) -> tuple[Segment, ...]:
    """Occlusion dip: tracked flight, a blackout behind cover, reacquisition."""
    before, occluded, after = split_frames(slot.frames, (1.5, 1.0, 1.5))
    deep = _clamp_distance(slot.start + slot.rng.uniform(0.04, 0.14))
    cover = slot.pick_background()
    return (
        Segment(f"{slot.prefix}_approach", before, slot.pick_background(), slot.start, deep,
                path="sweep_lr", pan=slot.pan(0.0, 0.4)),
        Segment(f"{slot.prefix}_occluded", occluded, cover, deep, deep, path="absent"),
        Segment(f"{slot.prefix}_reacquire", after, cover, deep, slot.start,
                path="sweep_rl", pan=slot.pan(0.0, 0.4)),
    )


def _build_altitude_ramp(slot: FamilySlot) -> tuple[Segment, ...]:
    """Altitude ramp: climb far out on a weave, then descend most of the way."""
    climb, descend = split_frames(slot.frames, (1.3, 1.0))
    apex = _clamp_distance(slot.start + slot.rng.uniform(0.20, 0.40))
    partial = _clamp_distance(slot.start + (apex - slot.start) * slot.rng.uniform(0.0, 0.35))
    return (
        Segment(f"{slot.prefix}_climb", climb, slot.pick_background(), slot.start, apex,
                path="weave", pan=slot.pan(0.0, 0.3)),
        Segment(f"{slot.prefix}_descend", descend, slot.pick_background(), apex, partial,
                path="orbit"),
    )


def _build_pan_burst(slot: FamilySlot) -> tuple[Segment, ...]:
    """Pan burst: back-to-back sweep legs under aggressive camera pan."""
    out, back = split_frames(slot.frames, (1.0, 1.0))
    pan = slot.pan(0.8, 1.8)
    band = _clamp_distance(slot.start + slot.rng.uniform(-0.06, 0.06))
    return (
        Segment(f"{slot.prefix}_dash", out, slot.pick_background(), slot.start, band,
                path="sweep_lr", pan=pan),
        Segment(f"{slot.prefix}_return", back, slot.pick_background(), band, slot.start,
                path="sweep_rl", pan=pan),
    )


FAMILIES: dict[str, SegmentFamily] = {
    f.name: f
    for f in (
        SegmentFamily("crossing", "enter, traverse, and exit the view", 8, _build_crossing),
        SegmentFamily("loiter", "hover on station, then orbit", 4, _build_loiter),
        SegmentFamily("popup", "empty view, sudden appearance, settle", 6, _build_popup),
        SegmentFamily("occlusion_dip", "track, blackout behind cover, reacquire", 6,
                      _build_occlusion_dip),
        SegmentFamily("altitude_ramp", "climb far out, descend partway", 4, _build_altitude_ramp),
        SegmentFamily("pan_burst", "sweep legs under aggressive camera pan", 4, _build_pan_burst),
    )
}

# Compact family codes used in generated scenario names.
_FAMILY_CODES = {
    "crossing": "crx",
    "loiter": "loi",
    "popup": "pop",
    "occlusion_dip": "occ",
    "altitude_ramp": "alt",
    "pan_burst": "pan",
}


def family(name: str) -> SegmentFamily:
    """Look up a segment family by name; raises GrammarError with guidance."""
    try:
        return FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise GrammarError(f"unknown family {name!r}; known families: {known}") from None


def family_names() -> list[str]:
    """All registered family names, sorted."""
    return sorted(FAMILIES)


# ------------------------------------------------------------------ recipes


def _derive_seed(*parts: object) -> int:
    """A stable 32-bit seed from arbitrary identity parts (SHA-256 based).

    Python's ``hash()`` is salted per process; this is not — the same
    recipe derives the same scenario seed in every process, which keeps
    generated fingerprints stable across the CLI, workers, and CI.
    """
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class ScenarioRecipe:
    """A declarative flight plan: families composed inside one regime.

    ``frame_budget`` is exact — the built scenario has precisely that many
    frames, split across families proportionally to their minimums.
    Every derived seed — the scenario's noise seed and each family's
    parameter stream — comes from :meth:`content_key`, the recipe's
    *content* identity (families, regime, base seed, budget, geometry):
    the display ``name`` labels the scenario but never feeds a seed, so
    renaming a recipe is metamorphically invisible (identical segments,
    identical noise, only the label changes — the property
    ``tests/test_metamorphic.py`` pins).  Build validity is enforced, not
    assumed: unknown names, infeasible budgets, and continuity violations
    raise :class:`GrammarError` before any scenario object exists.
    """

    name: str
    families: tuple[str, ...]
    regime_name: str = "day"
    base_seed: int = 0
    frame_budget: int = 120
    start_distance: float = 0.30
    frame_size: int = 96

    def __post_init__(self) -> None:
        if not self.name:
            raise GrammarError("recipe name must be non-empty")
        if not self.families:
            raise GrammarError(f"recipe {self.name!r} needs at least one family")
        for name in self.families:
            family(name)  # fail fast on typos
        regime(self.regime_name)
        if self.frame_budget < 1:
            raise GrammarError(f"recipe {self.name!r}: frame_budget must be positive")
        if not MIN_DISTANCE <= self.start_distance <= MAX_DISTANCE:
            raise GrammarError(
                f"recipe {self.name!r}: start_distance must be within "
                f"[{MIN_DISTANCE}, {MAX_DISTANCE}]"
            )

    @property
    def scenario_name(self) -> str:
        """The generated scenario's name (stable, collision-free by content)."""
        tag = "-".join(_FAMILY_CODES[f] for f in self.families)
        return f"{GENERATED_PREFIX}{self.name}_{tag}_{self.regime_name}_{self.frame_budget}f"

    def content_key(self) -> str:
        """The recipe's content identity: every seed-relevant field, no name.

        All derived randomness (scenario seed, per-family parameter
        streams) is seeded from this string, so two recipes that differ
        only in display name build scenarios with identical segments and
        noise — renaming never reshuffles content.
        """
        return "|".join(
            (
                ",".join(self.families),
                self.regime_name,
                str(self.base_seed),
                str(self.frame_budget),
                repr(self.start_distance),
                str(self.frame_size),
            )
        )

    def build(self) -> Scenario:
        """Expand this recipe into a deterministic, validated scenario."""
        env = regime(self.regime_name)
        content = self.content_key()
        phrases = [family(name) for name in self.families]
        budgets = split_frames(
            self.frame_budget,
            tuple(float(p.min_frames) for p in phrases),
            minimum=max(p.min_frames for p in phrases),
        )
        segments: list[Segment] = []
        distance = self.start_distance
        for index, (phrase, frames) in enumerate(zip(phrases, budgets, strict=True)):
            rng = random.Random(f"{content}|{index}|{phrase.name}")
            slot = FamilySlot(
                index=index,
                frames=frames,
                start=distance,
                regime=env,
                rng=rng,
                prefix=f"p{index}_{phrase.name}",
            )
            produced = phrase.instantiate(slot)
            if abs(produced[0].distance_start - distance) > 1e-9:
                raise GrammarError(
                    f"family {phrase.name!r} broke distance continuity at phrase {index} "
                    f"({produced[0].distance_start} != {distance})"
                )
            for previous, current in zip(produced, produced[1:], strict=False):
                if abs(current.distance_start - previous.distance_end) > 1e-9:
                    raise GrammarError(
                        f"family {phrase.name!r} produced a discontinuous distance profile"
                    )
            segments.extend(produced)
            distance = produced[-1].distance_end
        scenario = Scenario(
            name=self.scenario_name,
            description=(
                f"Generated ({self.regime_name}): " + ", ".join(p.description for p in phrases)
            ),
            indoor=env.indoor,
            seed=_derive_seed("grammar", content),
            segments=tuple(segments),
            frame_size=self.frame_size,
        )
        if scenario.total_frames != self.frame_budget:
            raise GrammarError(
                f"recipe {self.name!r} produced {scenario.total_frames} frames "
                f"for a {self.frame_budget}-frame budget"
            )
        return scenario


# ------------------------------------------------------------------- matrix


@dataclass(frozen=True)
class ScenarioMatrix:
    """A recipe grid: compositions x regimes x seeds x budgets.

    Expansion is the full cartesian product, in deterministic order; every
    cell becomes one :class:`ScenarioRecipe` whose name encodes the cell,
    so names (and therefore fingerprints) are stable under re-expansion in
    any process.  Use :meth:`scenarios` for the built scenarios and
    :meth:`register` to make them resolvable by name.
    """

    name: str
    compositions: tuple[tuple[str, ...], ...]
    regimes: tuple[str, ...] = ("day",)
    seeds: tuple[int, ...] = (0,)
    frame_budgets: tuple[int, ...] = (120,)
    start_distance: float = 0.30
    frame_size: int = 96

    def __post_init__(self) -> None:
        if not self.name:
            raise GrammarError("matrix name must be non-empty")
        for axis, label in (
            (self.compositions, "compositions"),
            (self.regimes, "regimes"),
            (self.seeds, "seeds"),
            (self.frame_budgets, "frame_budgets"),
        ):
            if not axis:
                raise GrammarError(f"matrix {self.name!r}: {label} axis is empty")

    def __len__(self) -> int:
        return (
            len(self.compositions) * len(self.regimes) * len(self.seeds) * len(self.frame_budgets)
        )

    def recipes(self) -> list[ScenarioRecipe]:
        """One recipe per grid cell, in deterministic expansion order."""
        expanded = []
        for families_, regime_name, seed, budget in itertools.product(
            self.compositions, self.regimes, self.seeds, self.frame_budgets
        ):
            expanded.append(
                ScenarioRecipe(
                    name=f"{self.name}_s{seed:03d}",
                    families=families_,
                    regime_name=regime_name,
                    base_seed=_derive_seed(self.name, families_, regime_name, seed, budget),
                    frame_budget=budget,
                    start_distance=self.start_distance,
                    frame_size=self.frame_size,
                )
            )
        return expanded

    def scenarios(self) -> list[Scenario]:
        """Build every grid cell; names and fingerprints are all distinct."""
        built = [recipe.build() for recipe in self.recipes()]
        names: set[str] = set()
        for scenario in built:
            if scenario.name in names:
                raise GrammarError(f"matrix {self.name!r} generated duplicate name {scenario.name!r}")
            names.add(scenario.name)
        return built

    def register(self) -> None:
        """Register every scenario of this grid (see :func:`~.scenario.register_scenario`).

        Scenarios that already resolve to equal content are skipped, so
        registering the same grid again, or the default matrix, is a no-op.
        """
        known = {scenario.name: scenario for scenario in registered_scenarios()}
        for scenario in self.scenarios():
            if known.get(scenario.name) != scenario:
                register_scenario(scenario)


def default_matrix() -> ScenarioMatrix:
    """The canonical generated library: 144 flights over all six families.

    The scenario registry's generated library, so every ``g_dm_*`` name
    resolves in any process; the differential fuzz harness
    (:mod:`repro.verify`) sweeps seeded samples of it in CI.
    """
    return ScenarioMatrix(
        name="dm",
        compositions=(
            ("crossing",),
            ("loiter", "popup"),
            ("altitude_ramp", "crossing"),
            ("occlusion_dip", "loiter"),
            ("pan_burst", "altitude_ramp"),
            ("popup", "occlusion_dip", "pan_burst"),
        ),
        regimes=("day", "night", "fog", "indoor"),
        seeds=(1, 2),
        frame_budgets=(96, 180, 300),
    )


DEFAULT_MATRIX = default_matrix()
