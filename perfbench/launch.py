"""Traced stand-in for ``python -m repro``: install the layer wrappers, then run the CLI.

Usage: ``python perfbench/launch.py <repro CLI arguments>`` with
``PYTHONPATH=src`` and ``PERFBENCH_SPANS=<file>``.  ``PERFBENCH_OP``, when
set, makes every span of this process belong to that op (a CLI sweep, a
queue worker); without it only spans opened under an op-tagged HTTP
request are kept.  The spans are written to ``PERFBENCH_SPANS`` at exit.
"""

from __future__ import annotations

import os
import sys
import time

import tracing


def main() -> int:
    op = os.environ.get("PERFBENCH_OP") or None
    tracing.TRACER.default_op = op
    tracing.dump_at_exit(os.environ["PERFBENCH_SPANS"])
    start = time.perf_counter()
    import repro.cli

    if op is not None:
        tracing.TRACER.record("import.repro", start, time.perf_counter(), op)
    tracing.install()
    return repro.cli.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
