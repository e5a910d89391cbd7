"""``python -m repro lint`` — the static-analysis entry point.

Exit codes follow ``repro verify``: 0 = tree is clean, 1 = findings,
2 = bad usage (unknown rule, unreadable root).  The default root is the
installed ``repro`` package itself, so CI needs no arguments.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import IO

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach ``lint``'s arguments (shared by the repro CLI subcommand)."""
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="directory to lint (default: the repro package source tree)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="ID[,ID...]",
        help="comma-separated rule ids or families (default: all rules)",
    )
    parser.add_argument(
        "--format", dest="output_format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="JSON baseline of grandfathered findings to ignore",
    )
    parser.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="write current findings to FILE as the new baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list every rule id with its severity and rationale, then exit",
    )


def run(args: argparse.Namespace, stream: IO[str]) -> int:
    """Execute a parsed ``lint`` invocation; returns the exit code."""
    # Imported here, not at module level: declaring the options (above)
    # must not load the checkers for every other repro command.
    from .engine import LintConfig, default_registry, run_lint, write_baseline

    registry = default_registry()

    if args.list_rules:
        for rule_id, rule in sorted(registry.rules.items()):
            stream.write(f"{rule_id:28s} {rule.severity:8s} {rule.summary}\n")
        return EXIT_CLEAN

    default_root = Path(__file__).resolve().parent.parent
    root = Path(args.root) if args.root is not None else default_root
    if not root.is_dir():
        stream.write(f"lint: root {root} is not a directory\n")
        return EXIT_USAGE

    selection: frozenset[str] | None = None
    if args.rules is not None:
        wanted = [part.strip() for part in args.rules.split(",") if part.strip()]
        if not wanted:
            stream.write("lint: --rules given but empty\n")
            return EXIT_USAGE
        try:
            selection = registry.resolve_selection(wanted)
        except KeyError as error:
            stream.write(f"lint: {error.args[0]}\n")
            return EXIT_USAGE

    config = LintConfig(
        root=root,
        rules=selection,
        baseline_path=Path(args.baseline) if args.baseline else None,
    )
    result = run_lint(config, registry)

    if args.write_baseline:
        write_baseline(Path(args.write_baseline), result.findings)
        stream.write(
            f"lint: wrote {len(result.findings)} finding(s) to "
            f"{args.write_baseline}\n"
        )
        return EXIT_CLEAN

    if args.output_format == "json":
        stream.write(json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
    else:
        for finding in result.findings:
            stream.write(finding.render() + "\n")
        tail = (
            f"lint: {len(result.findings)} finding(s) in {result.files_checked} "
            f"file(s) ({result.suppressed} suppressed"
        )
        if result.baseline_filtered:
            tail += f", {result.baseline_filtered} baselined"
        stream.write(tail + ")\n")

    return EXIT_CLEAN if result.clean else EXIT_FINDINGS
