"""Experiment harness: regenerate every table and figure of the paper.

Names are imported on first access (PEP 562), so a command that needs
only :class:`ExperimentContext` does not load every generator.
"""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "context": ("ExperimentContext",),
    "figures": (
        "EALPoint", "Figure1Result", "Figure2Result", "TimelineResult", "figure1",
        "figure2", "figure3", "figure4", "figure5",
    ),
    "report": ("TableData", "format_cell", "render_markdown", "render_table"),
    "sensitivity": (
        "FULL_GRID", "QUICK_GRID", "SensitivityResult", "SweepPoint",
        "sensitivity_analysis",
    ),
    "tables": (
        "HeadlineClaims", "Table3Result", "headline_claims", "table1", "table2", "table3",
        "table4",
    ),
})
