#!/usr/bin/env python
"""Synthetic load generator: replay an overlapping request mix at the service.

Generates a seeded batch of overlapping sweep requests (random non-empty
policy x scenario subsets of a shared pool), serves them through a
multi-worker :class:`~repro.service.SweepService` against real on-disk
stores, and then *proves* the serve was sound:

* **zero duplicate executions** — runs executed + store hits exactly
  equals the number of deduplicated unit jobs;
* **bit-equality with the serial path** — every returned metrics row is
  field-for-field identical to a plain
  :func:`~repro.runtime.runner.run_policy` of the same (policy, scenario)
  pair;
* **zero corrupt entries** — neither store saw an unreadable entry, and
  both shard-index audits come back clean;
* **free warm re-serve** — a second service over the same stores answers
  the same mix with zero runs and zero trace builds, identically.

The queue, disk-fault and HTTP tiers are proven elsewhere, each gate in
one place: the ``faults``, ``fsfaults`` and ``http`` differential checks
(``python -m repro verify --checks faults,fsfaults,http``), real-process
SIGKILL recovery in ``tests/service/test_worker.py``, and CI's
``fault-smoke`` job, which SIGKILLs ``repro serve --procs`` workers
mid-drain.

Exit code 0 when every property holds, 1 otherwise (CI's
``service-smoke`` job runs this at small scale on every PR)::

    PYTHONPATH=src python scripts/loadgen.py --requests 8 --workers 4
    PYTHONPATH=src python scripts/loadgen.py --requests 32 --scenario-count 12 \
        --budget 96 --trace-store /tmp/traces --run-store /tmp/runs
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from repro.data.grammar import ScenarioMatrix
from repro.models.zoo import default_zoo
from repro.runtime.runner import run_policy
from repro.runtime.runstore import RunStore
from repro.runtime.store import TraceStore
from repro.runtime.trace import TraceCache
from repro.service import SweepService, overlapping_requests, policy_resolver

DEFAULT_POLICIES = "single:yolov7-tiny@gpu,marlin-tiny,marlin"


def _pool_matrix(budget: int) -> ScenarioMatrix:
    """The generated-scenario pool the mix draws from (deterministic)."""
    return ScenarioMatrix(
        name="lg",
        compositions=(("loiter",), ("crossing",), ("popup", "pan_burst"),
                      ("occlusion_dip", "loiter")),
        regimes=("day", "night", "indoor"),
        seeds=(5,),
        frame_budgets=(budget,),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=8,
                        help="overlapping sweep requests to generate (default 8)")
    parser.add_argument("--workers", type=int, default=4,
                        help="service worker threads (default 4)")
    parser.add_argument("--seed", type=int, default=0,
                        help="request-mix seed (default 0)")
    parser.add_argument("--scenario-count", type=int, default=6,
                        help="scenarios in the pool (default 6)")
    parser.add_argument("--budget", type=int, default=48,
                        help="frame budget per generated scenario (default 48)")
    parser.add_argument("--policies", default=DEFAULT_POLICIES,
                        help=f"comma-separated policy pool (default {DEFAULT_POLICIES})")
    parser.add_argument("--trace-store", default=None, metavar="DIR",
                        help="trace store directory (default: a fresh temp dir)")
    parser.add_argument("--run-store", default=None, metavar="DIR",
                        help="run store directory (default: a fresh temp dir)")
    parser.add_argument("--skip-serial-check", action="store_true",
                        help="skip the (slow) serial bit-equality pass")
    parser.add_argument("--expect-warm", action="store_true",
                        help="assert the stores are already fully populated: the first "
                             "serve must execute zero runs and build zero traces (the "
                             "cross-process warm-restart gate in CI)")
    return parser


def run_load(args: argparse.Namespace, trace_root: Path, run_root: Path) -> int:
    policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
    scenarios = _pool_matrix(args.budget).scenarios()[: args.scenario_count]
    if not policies or not scenarios:
        print("empty policy or scenario pool", file=sys.stderr)
        return 1
    requests = overlapping_requests(policies, scenarios, count=args.requests, seed=args.seed)
    total_cells = sum(len(r.policies) * len(r.scenarios) for r in requests)

    failures: list[str] = []

    def check(condition: bool, label: str) -> None:
        if not condition:
            failures.append(label)

    t0 = time.perf_counter()
    with SweepService(
        trace_store=TraceStore(trace_root),
        run_store=RunStore(run_root),
        workers=args.workers,
    ) as service:
        results = [handle.result() for handle in service.serve(requests)]
        cold_s = time.perf_counter() - t0
        scheduled = service.jobs_scheduled
        check(
            service.runs_executed + service.run_store_hits == scheduled,
            f"duplicate executions: {service.runs_executed} runs + "
            f"{service.run_store_hits} hits != {scheduled} jobs",
        )
        check(service.corrupt_entries == 0,
              f"{service.corrupt_entries} corrupt store entries")
        if args.expect_warm:
            # Cross-process warm restart: another process populated these
            # stores; fingerprint stability must make every job a hit.
            check(service.runs_executed == 0,
                  f"expected a warm serve but {service.runs_executed} runs executed")
            check(service.trace_builds == 0,
                  f"expected a warm serve but {service.trace_builds} traces built")
        coalesced = service.jobs_coalesced
        stats = (
            f"{len(requests)} requests ({total_cells} cells) -> {scheduled} jobs, "
            f"{coalesced} coalesced, {service.runs_executed} runs, "
            f"{service.run_store_hits} run-store hits, {service.trace_builds} trace builds"
        )

    for label, store in (("trace store", TraceStore(trace_root)),
                         ("run store", RunStore(run_root))):
        _, problems = store.audit()
        check(not problems, f"{label} audit: {problems}")

    print(f"cold serve: {stats} in {cold_s:.2f}s")

    # Warm re-serve: the whole mix again, over fresh service + same stores.
    t0 = time.perf_counter()
    with SweepService(
        trace_store=TraceStore(trace_root),
        run_store=RunStore(run_root),
        workers=args.workers,
    ) as warm:
        warm_results = [handle.result() for handle in warm.serve(requests)]
        warm_s = time.perf_counter() - t0
        check(warm.runs_executed == 0, f"warm re-serve executed {warm.runs_executed} runs")
        check(warm.trace_builds == 0, f"warm re-serve built {warm.trace_builds} traces")
        check(warm.corrupt_entries == 0, "warm re-serve hit corrupt entries")
    check(warm_results == results, "warm re-serve metrics diverged from cold serve")
    print(f"warm re-serve: 0 runs, 0 trace builds in {warm_s:.2f}s")

    if not args.skip_serial_check:
        from repro.runtime.metrics import aggregate

        t0 = time.perf_counter()
        resolve = policy_resolver()
        # run_policy straight on cached traces, not the runner's executor:
        # the service runs through that executor, so a defect in it must
        # not sit on both sides of this check.
        cache = TraceCache(default_zoo())
        serial: dict[tuple[str, str], object] = {}
        for request, result in zip(requests, results):
            rows = {
                (name, m.scenario_name): m
                for name, metrics_rows in result.items()
                for m in metrics_rows
            }
            for spec in request.policies:
                display_name = resolve(spec).name
                for scenario in request.resolve_scenarios():
                    pair = (display_name, scenario.name)
                    if pair not in serial:
                        # Fresh policy per run: policies are stateful.
                        serial[pair] = aggregate(
                            run_policy(resolve(spec), cache.get(scenario), fast=True)
                        )
                    check(
                        rows.get(pair) == serial[pair],
                        f"request {request.request_id}: {pair} diverges from serial run",
                    )
        print(f"serial bit-equality: {len(serial)} pairs verified in "
              f"{time.perf_counter() - t0:.2f}s")

    if failures:
        print("\nLOADGEN FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("loadgen: all checks passed (0 corrupt entries, 0 duplicate executions, "
          "serial bit-equality, free warm re-serve)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.trace_store is not None and args.run_store is not None:
        return run_load(args, Path(args.trace_store), Path(args.run_store))
    with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as tmp:
        trace_root = Path(args.trace_store) if args.trace_store else Path(tmp) / "traces"
        run_root = Path(args.run_store) if args.run_store else Path(tmp) / "runs"
        return run_load(args, trace_root, run_root)


if __name__ == "__main__":
    sys.exit(main())
