"""Background library for the scenario substrate.

Each entry is a named :class:`~repro.vision.style.BackgroundStyle`
capturing a class of environment from the paper's evaluation videos: indoor
walls and labs, open sky, tree lines, urban facades.  Names are stable API —
scenarios reference backgrounds by name.
"""

from __future__ import annotations

from ..vision.style import BackgroundStyle

# Complexity drives clutter, brightness sets the gray level (the drone is
# dark, so bright backgrounds are high-contrast), contrast scales texture
# amplitude.  Pattern seeds are arbitrary but frozen: each background must
# render identically in every run.
_LIBRARY: dict[str, BackgroundStyle] = {
    # Indoor
    "indoor_wall": BackgroundStyle(complexity=0.10, brightness=0.85, contrast=0.10, pattern_seed=101),
    "indoor_lab": BackgroundStyle(complexity=0.55, brightness=0.60, contrast=0.45, pattern_seed=102),
    "indoor_warehouse": BackgroundStyle(complexity=0.70, brightness=0.35, contrast=0.55, pattern_seed=103),
    # Outdoor
    "open_sky": BackgroundStyle(complexity=0.05, brightness=0.92, contrast=0.08, pattern_seed=201),
    "cloudy_sky": BackgroundStyle(complexity=0.25, brightness=0.75, contrast=0.25, pattern_seed=202),
    "tree_line": BackgroundStyle(complexity=0.85, brightness=0.30, contrast=0.70, pattern_seed=203),
    "forest_shade": BackgroundStyle(complexity=0.90, brightness=0.18, contrast=0.60, pattern_seed=204),
    "urban_facade": BackgroundStyle(complexity=0.75, brightness=0.50, contrast=0.65, pattern_seed=205),
    "parking_lot": BackgroundStyle(complexity=0.45, brightness=0.55, contrast=0.40, pattern_seed=206),
    "dusk_horizon": BackgroundStyle(complexity=0.35, brightness=0.22, contrast=0.30, pattern_seed=207),
    # Night: very dark scenes where the dark airframe nearly vanishes.
    "night_sky": BackgroundStyle(complexity=0.08, brightness=0.07, contrast=0.10, pattern_seed=208),
    "moonlit_field": BackgroundStyle(complexity=0.42, brightness=0.16, contrast=0.22, pattern_seed=209),
    # Fog: bright but washed out — low contrast without low light.
    "fog_bank": BackgroundStyle(complexity=0.12, brightness=0.68, contrast=0.06, pattern_seed=210),
    "fog_treeline": BackgroundStyle(complexity=0.50, brightness=0.58, contrast=0.15, pattern_seed=211),
}


def background(name: str) -> BackgroundStyle:
    """Look up a background style by name; raises KeyError with guidance."""
    try:
        return _LIBRARY[name]
    except KeyError:
        known = ", ".join(sorted(_LIBRARY))
        raise KeyError(f"unknown background {name!r}; known backgrounds: {known}") from None


def background_names() -> list[str]:
    """All registered background names, sorted."""
    return sorted(_LIBRARY)


def register_background(name: str, style: BackgroundStyle, replace: bool = False) -> None:
    """Add a custom background to the library.

    Set ``replace=True`` to overwrite an existing entry; otherwise a
    collision raises ValueError so scenario definitions stay unambiguous.
    """
    if not replace and name in _LIBRARY:
        raise ValueError(f"background {name!r} already registered")
    _LIBRARY[name] = style
