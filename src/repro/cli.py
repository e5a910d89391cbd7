"""Command-line interface: regenerate experiments and run policies.

Usage (after ``pip install -e .``)::

    python -m repro table 3                      # regenerate Table III
    python -m repro figure 5 --full-grid         # paper-sized sensitivity sweep
    python -m repro --scale 0.5 run shift s2_fixed_distance_crossing
    python -m repro run marlin s1_multi_background_varying_distance
    python -m repro --workers 4 sweep shift,marlin
    python -m repro serve jobs.json --service-workers 4   # many sweeps, one pool
    python -m repro --run-store runs serve jobs.json --procs 2   # crash-safe processes
    python -m repro serve --http 8080            # the same requests over HTTP/JSON
    python -m repro work QUEUE --run-store runs  # one queue worker process
    python -m repro queue QUEUE --list           # inspect / repair the job queue
    python -m repro --run-store runs store scrub          # re-verify every entry
    python -m repro --run-store runs store gc --apply     # reclaim expired artifacts
    python -m repro scenarios --generated        # flight library + grammar matrix
    python -m repro verify --count 25 --seed 7   # differential fuzz sweep
    python -m repro characterize --out bundle.json
    python -m repro headline

Every experiment honours ``--scale`` (scenario length multiplier) and
``--validation`` (characterization sample count) so results can be traded
against wall-clock time.  ``--workers N`` builds scenario traces across N
worker processes, ``--trace-store DIR`` persists built traces so the next
invocation skips rebuilding them entirely, and ``--run-store DIR`` does
the same for finished policy runs — e.g. ``python -m repro --trace-store
traces --run-store runs sweep shift,marlin`` is a pure metrics reload the
second time.  ``serve`` takes its requests from a jobs file or, with
``--http``, from the network; ``serve --http`` names scenarios at their
registered length, so it refuses a ``--scale`` other than 1.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

# Every command imports what it runs inside its own function, so a warm
# `sweep` never loads the HTTP tier, the verifier, or the lint engine.
if TYPE_CHECKING:
    from .experiments.context import ExperimentContext


def _context(args: argparse.Namespace) -> ExperimentContext:
    from .experiments.context import ExperimentContext

    return ExperimentContext(
        scale=args.scale,
        validation_size=args.validation,
        trace_store=args.trace_store,
        run_store=args.run_store,
        max_workers=args.workers,
    )


def _cmd_table(args: argparse.Namespace) -> int:
    from .experiments.report import render_table
    from .experiments.tables import table1, table2, table3, table4

    ctx = _context(args)
    if args.number == 1:
        print(render_table(table1(ctx)))
    elif args.number == 2:
        print(render_table(table2()))
    elif args.number == 3:
        print(render_table(table3(ctx).table))
    elif args.number == 4:
        print(render_table(table4(ctx)))
    else:
        print(f"no table {args.number}; the paper has tables 1-4", file=sys.stderr)
        return 2
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .experiments.figures import figure1, figure2, figure3, figure4, figure5
    from .experiments.report import render_table

    ctx = _context(args)
    if args.number == 1:
        print(render_table(figure1(ctx).table))
    elif args.number == 2:
        print(render_table(figure2(ctx).table, precision=2))
    elif args.number == 3:
        print(render_table(figure3(ctx).table, precision=2))
    elif args.number == 4:
        print(render_table(figure4(ctx).table, precision=2))
    elif args.number == 5:
        result = figure5(ctx, full_grid=args.full_grid, scenario_scale=args.sweep_scale)
        print(render_table(result.table))
    else:
        print(f"no figure {args.number}; the paper has figures 1-5", file=sys.stderr)
        return 2
    return 0


def _policy_resolver(ctx: ExperimentContext, objective: str):
    """The service policy registry, fed lazily from this context.

    ``shift`` is resolved with the context's bundle/graph — touched only
    when a shift policy is actually requested, so baseline-only commands
    never pay for characterization.
    """
    from .service.jobs import policy_resolver

    def resolve(name: str):
        if name == "shift":
            return policy_resolver(
                bundle=ctx.bundle, graph=ctx.graph, objective=objective
            )(name)
        return policy_resolver(objective=objective)(name)

    return resolve


def _build_policy(name: str, ctx: ExperimentContext, objective: str):
    return _policy_resolver(ctx, objective)(name)


def _cmd_run(args: argparse.Namespace) -> int:
    from .service.jobs import ServiceError

    ctx = _context(args)
    try:
        policy = _build_policy(args.policy, ctx, args.objective)
        scenario = ctx.scenario(args.scenario)
    except (KeyError, ServiceError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    [metrics] = ctx.runner.run_policy_on_scenarios(policy, [scenario])
    print(f"policy       {metrics.policy_name}")
    print(f"scenario     {metrics.scenario_name} ({metrics.frames} frames)")
    print(f"mean IoU     {metrics.mean_iou:.3f}")
    print(f"success      {metrics.success_rate * 100:.1f}%")
    print(f"time/frame   {metrics.mean_latency_s:.4f} s")
    print(f"energy/frame {metrics.mean_energy_j:.4f} J")
    print(f"total energy {metrics.total_energy_j:.1f} J")
    print(f"non-GPU      {metrics.non_gpu_share * 100:.1f}%")
    print(f"swaps        {metrics.swaps}")
    print(f"pairs used   {metrics.pairs_used}")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from .characterization.serialization import save_bundle

    ctx = _context(args)
    bundle = ctx.bundle
    save_bundle(bundle, args.out)
    print(f"characterized {len(bundle.accuracy)} models over "
          f"{len(bundle.observations)} samples -> {args.out}")
    return 0


def _cmd_headline(args: argparse.Namespace) -> int:
    from .experiments.report import render_table
    from .experiments.tables import headline_claims

    ctx = _context(args)
    print(render_table(headline_claims(ctx).table))
    return 0


def _sweep_table(title: str, results: dict) -> str:
    from .experiments.report import TableData, render_table
    from .runtime.metrics import average_metrics

    table = TableData(
        title=title,
        headers=["Policy", "Scenario", "IoU", "Success", "Time (s)", "Energy (J)", "Swaps"],
    )
    for policy_name, rows in results.items():
        for m in rows:
            table.add_row(policy_name, m.scenario_name, round(m.mean_iou, 3),
                          f"{m.success_rate * 100:.1f}%", round(m.mean_latency_s, 4),
                          round(m.mean_energy_j, 4), m.swaps)
        avg = average_metrics(rows, policy_name)
        table.add_row(policy_name, "average", round(avg.mean_iou, 3),
                      f"{avg.success_rate * 100:.1f}%", round(avg.mean_latency_s, 4),
                      round(avg.mean_energy_j, 4), avg.swaps)
    return render_table(table)


def _jobs_requests(ctx: ExperimentContext, path: str) -> list:
    """A jobs file's requests, every scenario name resolved through the context.

    ``--scale`` then applies to served scenarios exactly as it does to
    foreground sweeps, and queue jobs embed full scenario records, so
    worker processes never depend on this process's registry.
    """
    from .service.jobs import SweepRequest, load_jobs_file

    return [
        SweepRequest(
            policies=request.policies,
            scenarios=tuple(
                ctx.scenario(s) if isinstance(s, str) else s for s in request.scenarios
            ),
            request_id=request.request_id,
        )
        for request in load_jobs_file(path)
    ]


def _worker_spawner(args: argparse.Namespace, queue_dir, *, extra_args=(), idle=False):
    """A Popen factory for ``repro work`` subprocesses (feeds WorkerSupervisor).

    ``idle=True`` passes ``--idle`` so workers poll an empty queue instead
    of exiting on drain — what a long-lived ``serve --http --procs`` fleet
    needs between requests.
    """
    import itertools
    import os
    import subprocess
    from pathlib import Path

    env = dict(os.environ)
    package_root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(
        [str(package_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    seq = itertools.count(1)

    def spawn() -> subprocess.Popen:
        command = [
            sys.executable, "-m", "repro", "work", str(queue_dir),
            "--run-store", args.run_store,
            "--worker-id", f"serve-w{next(seq)}",
            "--lease", str(args.lease),
            "--max-attempts", str(args.max_attempts),
        ]
        if args.trace_store:
            command += ["--trace-store", args.trace_store]
        if idle:
            command += ["--idle"]
        command += list(extra_args)
        return subprocess.Popen(command, env=env)

    return spawn


def _serve_backend(args: argparse.Namespace, ctx: ExperimentContext, requests: list):
    """The one backend every ``serve`` mode reads its rows through.

    Returns ``(backend, fleet)``.  In-process, the backend is a
    :class:`SweepService` thread pool and there is no fleet.  With
    ``--procs N`` it is a :class:`QueueBackend` over the on-disk job
    queue, and the fleet is a :class:`WorkerSupervisor` of N ``repro
    work`` processes that drains it.  Both key their cells through the
    same executor, so either backend's handles yield the same rows.

    ``--shift-bundle`` serves ``shift`` from a saved bundle: the
    backend's run keys and every worker load the same file.  Without
    it, a batch serve hands the workers this context's bundle when a
    request names ``shift``, and a server refuses ``shift``.  Unusable
    flag combinations raise :class:`ServiceError`.
    """
    from pathlib import Path

    from .service.jobs import ServiceError, shift_bundle_resolver

    if args.procs is None:
        if args.shift_bundle:
            raise ServiceError("serve --shift-bundle needs --procs: an in-process serve "
                               "resolves 'shift' from this process's characterization")
        from .service.service import SweepService

        return SweepService(
            zoo=ctx.zoo,
            trace_store=args.trace_store,
            run_store=args.run_store,
            workers=args.service_workers,
            trace_workers=args.workers,
            engine_seed=ctx.engine_seed,
            policy_resolver=_policy_resolver(ctx, args.objective),
        ), None

    from .characterization.serialization import save_bundle
    from .service.http import QueueBackend
    from .service.procs import WorkerSupervisor
    from .service.queue import JobQueue

    if args.run_store is None:
        raise ServiceError("serve --procs needs --run-store DIR: workers commit results "
                           "there and the rows are read back from it")
    if args.shift_bundle:
        resolver = shift_bundle_resolver(args.shift_bundle, args.objective)
    elif args.http is None:
        resolver = _policy_resolver(ctx, args.objective)
    else:
        resolver = None  # the default vocabulary: a server refuses 'shift'
    # "_queue" is not a two-hex shard name, so nesting the queue inside
    # the run store keeps one --procs serve under one directory without
    # the run store's walks ever entering the queue's shards.
    queue_dir = Path(args.queue_dir) if args.queue_dir else Path(args.run_store) / "_queue"
    queue = JobQueue(queue_dir, lease_duration=args.lease, max_attempts=args.max_attempts)
    bundle_path = args.shift_bundle
    if not bundle_path and any("shift" in request.policies for request in requests):
        # Workers rebuild the shift policy from a saved bundle; the JSON
        # round-trip preserves fingerprints, so their run keys match the
        # ones the backend derives from this context.
        bundle_path = queue_dir / "shift-bundle.json"
        save_bundle(ctx.bundle, bundle_path)
    shift_args = (["--shift-bundle", str(bundle_path), "--objective", args.objective]
                  if bundle_path else [])
    spawn = _worker_spawner(args, queue_dir, extra_args=shift_args,
                            idle=args.http is not None)
    backend = QueueBackend(queue, args.run_store, zoo=ctx.zoo,
                           engine_seed=ctx.engine_seed, policy_resolver=resolver)
    return backend, WorkerSupervisor(spawn, args.procs)


def _supervise(queue, fleet, stop, interval: float, until=None) -> None:
    """Tend a worker fleet: requeue overdue leases, respawn dead workers.

    Runs every ``interval`` seconds until ``stop`` is set, ``until()``
    holds, or the fleet's respawn budget is spent and no worker is left.
    """
    while True:
        queue.expire_overdue()
        if stop.is_set() or (until is not None and until()):
            return
        fleet.tick()
        if fleet.alive == 0 or stop.wait(interval):
            return


def _drain(args: argparse.Namespace, queue, fleet) -> int:
    """Run the fleet until the queue drains; 0, or the exit code of a failed drain.

    Dead workers are respawned until the queue drains, the respawn
    budget runs out, or ``--worker-timeout`` passes.  Ctrl-C still
    reaps the fleet: workers release their current lease on SIGTERM, so
    an interrupted serve leaves the queue resumable with zero held
    leases.
    """
    import threading
    import time

    deadline = time.monotonic() + args.worker_timeout
    interrupted = False
    try:
        fleet.start()
        _supervise(queue, fleet, threading.Event(), 0.1,
                   until=lambda: queue.drained() or time.monotonic() > deadline)
    except KeyboardInterrupt:
        interrupted = True
    finally:
        killed = fleet.reap()
        if killed:
            print(f"serve --procs: SIGKILLed {killed} workers that ignored SIGTERM",
                  file=sys.stderr)
    if interrupted:
        queue.expire_overdue()
        counts = queue.counts()
        print(f"serve --procs: interrupted with {counts['pending']} pending / "
              f"{counts['leased']} leased jobs; re-run the same command to resume",
              file=sys.stderr)
        return 130
    counts = queue.counts()
    if counts["dead"]:
        for record in queue.dead_letters():
            print(f"dead-letter: {record['policy_spec']} x {record['scenario_name']}: "
                  f"{record.get('error')}", file=sys.stderr)
        print(f"serve --procs: {counts['dead']} jobs dead-lettered; inspect with "
              f"'python -m repro queue {queue.root}' and retry with --requeue-dead",
              file=sys.stderr)
        return 1
    if not queue.drained():
        print(f"serve --procs: gave up after {args.worker_timeout:.0f}s with "
              f"{counts['pending']} pending / {counts['leased']} leased jobs "
              f"({fleet.spawned} workers spawned)", file=sys.stderr)
        return 1
    return 0


def _serve_batch(args: argparse.Namespace, requests: list, backend, fleet) -> int:
    """Submit every request, drain the fleet if there is one, print the tables."""
    from .service.jobs import ServiceError, validate_requests

    try:
        validate_requests(requests, backend.policy_resolver)
        handles = [backend.submit(request) for request in requests]
        if fleet is not None:
            code = _drain(args, backend.queue, fleet)
            if code:
                return code
        for request, handle in zip(requests, handles, strict=True):
            try:
                # After a drain every row is already in the run store; a
                # missing one would never arrive, so do not wait for it.
                rows = handle.result(timeout=None if fleet is None else 0)
            except TimeoutError:
                print(f"run store lacks rows of request {request.request_id} although "
                      f"the queue drained: fingerprint drift between this process and "
                      f"the workers", file=sys.stderr)
                return 1
            print(_sweep_table(
                f"Request {request.request_id}: {len(request.policies)} policies "
                f"x {len(request.scenarios)} scenarios",
                rows,
            ))
    except (KeyError, ServiceError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    finally:
        backend.close()
    if fleet is None:
        print(
            f"service: {len(requests)} requests, {backend.jobs_scheduled} jobs "
            f"scheduled, {backend.jobs_coalesced} coalesced, "
            f"{backend.runs_executed} runs executed, "
            f"{backend.run_store_hits} run-store hits, "
            f"{backend.trace_builds} trace builds, "
            f"{backend.corrupt_entries} corrupt entries"
        )
    else:
        jobs = sum(handle.total_rows for handle in handles)
        print(
            f"queue: {jobs} unit jobs, {backend.jobs_enqueued} enqueued "
            f"({jobs - backend.jobs_enqueued} deduplicated), "
            f"{backend.queue.counts()['done']} done, {fleet.spawned} workers "
            f"spawned, {fleet.worker_deaths} worker deaths"
        )
    return 0


def _serve_http(args: argparse.Namespace, backend, fleet) -> int:
    """Long-lived network front-end: sweep requests over HTTP/JSON.

    The front-end holds the backend :func:`_serve_backend` built; with a
    fleet, a supervision thread keeps it alive between requests.  Either
    way the wire results are bit-identical to a serial sweep (the
    ``http`` differential check proves it).
    """
    import json
    import threading
    from pathlib import Path

    from .service.http import SweepFrontend, SweepHTTPServer
    from .service.jobs import ServiceError

    frontend = SweepFrontend(backend, max_pending=args.max_pending,
                             default_deadline_s=args.request_timeout)
    try:
        server = SweepHTTPServer((args.host, args.http), frontend)
    except OSError as exc:
        print(f"serve --http: cannot bind {args.host}:{args.http}: {exc}", file=sys.stderr)
        frontend.close()
        return 2

    stop = threading.Event()
    if fleet is not None:
        fleet.start()
        threading.Thread(target=_supervise, args=(backend.queue, fleet, stop, 0.5),
                         name="serve-supervise", daemon=True).start()

    exit_code = 0
    try:
        if args.jobs:
            try:
                payload = json.loads(Path(args.jobs).read_text(encoding="utf-8"))
                entries = frontend.submit_payload(payload)
            except (OSError, json.JSONDecodeError, ServiceError) as exc:
                print(f"serve --http: jobs file {args.jobs}: {exc}", file=sys.stderr)
                return 2
            print(f"submitted {len(entries)} requests from {args.jobs}: "
                  + ", ".join(entry.request_id for entry in entries))
        mode = (f"{args.procs} queue workers" if fleet is not None
                else f"{args.service_workers} service threads")
        print(f"serving on http://{args.host}:{server.port} ({mode}); Ctrl-C to stop")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("serve --http: shutting down", file=sys.stderr)
            exit_code = 130
    finally:
        # Order matters: stop accepting, then refuse new submits and
        # drain, then reap the fleet (workers release leases on SIGTERM).
        # No shutdown(): serve_forever ran on this thread and has returned
        # or never started, and shutdown() waits for a running loop.
        stop.set()
        server.server_close()
        frontend.close()
        if fleet is not None:
            killed = fleet.reap()
            if killed:
                print(f"serve --http: SIGKILLed {killed} workers that ignored "
                      f"SIGTERM", file=sys.stderr)
    return exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.jobs import ServiceError

    if args.http is None and args.jobs is None:
        print("serve needs a jobs file (or --http PORT for the network front-end)",
              file=sys.stderr)
        return 2
    if args.http is not None and args.scale != 1.0:
        print(f"serve --http serves scenarios at their registered length; drop "
              f"--scale {args.scale:g}", file=sys.stderr)
        return 2
    ctx = _context(args)
    try:
        requests = [] if args.http is not None else _jobs_requests(ctx, args.jobs)
        backend, fleet = _serve_backend(args, ctx, requests)
    except (KeyError, ServiceError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.http is not None:
        return _serve_http(args, backend, fleet)
    return _serve_batch(args, requests, backend, fleet)


def _cmd_work(args: argparse.Namespace) -> int:
    from .service.worker import run as run_worker

    return run_worker(args)


def _cmd_queue(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .service.queue import JOB_STATES, JobQueue

    if not Path(args.queue_dir).is_dir():
        print(f"queue: no such directory: {args.queue_dir}", file=sys.stderr)
        return 2
    queue = JobQueue(args.queue_dir)
    if args.requeue_dead:
        print(f"requeued {queue.requeue_dead()} dead-lettered jobs")
    expired = queue.expire_overdue()
    if expired:
        print(f"requeued {expired} expired leases")
    counts = queue.counts()
    print(f"{counts['total']} jobs: "
          + ", ".join(f"{counts[state]} {state}" for state in JOB_STATES))
    if args.list:
        for record in sorted(queue.records(), key=lambda r: r.get("job_id", "")):
            lease = record.get("lease") or {}
            owner = f"  owner={lease['owner']}" if lease.get("owner") else ""
            error = f"  error={record['error']}" if record.get("error") else ""
            print(f"  {record['state']:8s} attempts={record['attempts']}"
                  f"  {record['policy_spec']} x {record['scenario_name']}{owner}{error}")
    checked, problems = queue.audit()
    for problem in problems:
        print(f"audit: {problem}", file=sys.stderr)
    print(f"audit: {checked} entries checked, {len(problems)} problems")
    return 1 if problems else 0


def _cmd_store(args: argparse.Namespace) -> int:
    """Self-healing store maintenance: scrub / gc / repair over existing roots.

    Targets come from the global ``--trace-store`` / ``--run-store``
    options plus ``--queue``; each named root is maintained in turn.  A
    root that does not exist is refused before any is opened: maintenance
    never creates a root, so a mistyped path fails loudly instead of
    reporting a clean, empty store.  A trace store brings its
    characterization-bundle root (``<trace-store>/_characterization``)
    along when it has one.  ``gc`` is dry-run by default — it *reports*
    what a real pass would reclaim (quarantined entries, stale temps,
    dead job records past the TTL) and deletes only under ``--apply``.
    ``repair`` heals the job queue's claim index, the one index there is,
    so it needs ``--queue`` and maintains that root alone.  ``scrub``
    exits non-zero when it had to quarantine something, so a cron'd scrub
    doubles as an integrity alarm; ``repair`` and ``gc`` exit zero on
    success.
    """
    from pathlib import Path

    from .runtime import iolayer
    from .runtime.bundlestore import BUNDLE_DIR, BundleStore
    from .runtime.runstore import RunStore
    from .runtime.store import TraceStore
    from .service.queue import JobQueue

    if args.action == "repair" and not args.queue:
        print("store repair heals a job queue's claim index (the stores keep no "
              "index): give --queue DIR", file=sys.stderr)
        return 2
    stores = [] if args.action == "repair" else [
        ("traces", args.trace_store, TraceStore), ("runs", args.run_store, RunStore),
    ]
    roots = [(label, path, opener) for label, path, opener
             in (*stores, ("queue", args.queue, JobQueue)) if path]
    if not roots:
        print("store maintenance needs at least one root: --trace-store DIR, "
              "--run-store DIR (global options), or --queue DIR", file=sys.stderr)
        return 2
    missing = [path for _, path, _ in roots if not Path(path).is_dir()]
    if missing:
        print(f"store {args.action}: no such directory: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    targets: list[tuple[str, object]] = []
    for label, path, opener in roots:
        targets.append((label, opener(path)))
        if label == "traces" and (Path(path) / BUNDLE_DIR).is_dir():
            targets.append(("characterization", BundleStore.under(path)))

    quarantined = 0
    for label, store in targets:
        if args.action == "scrub":
            report = store.scrub()
            print(f"{label}: {report.summary()}")
            for problem in report.problems:
                print(f"  {problem}")
            quarantined += report.quarantined
        elif args.action == "gc":
            report = store.gc(ttl_seconds=args.ttl, dry_run=not args.apply)
            print(f"{label}: {report.summary()}")
            if not args.apply and report.paths:
                print(f"  (dry run; pass --apply to reclaim "
                      f"{report.bytes_reclaimed} bytes)")
        else:  # repair: the queue is the only target
            report = store.repair()
            print(f"{label}: {report.summary()}")
        if iolayer.is_degraded(store.root):
            print(f"{label}: root is DEGRADED (read-only): "
                  f"{iolayer.degraded_reason(store.root)}", file=sys.stderr)
    return 1 if quarantined else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .service.jobs import ServiceError

    if args.policies is None:
        print("give POLICIES (comma-separated); serve a batch of sweep requests "
              "with 'repro serve FILE'", file=sys.stderr)
        return 2

    ctx = _context(args)
    try:
        policies = [_build_policy(name.strip(), ctx, args.objective)
                    for name in args.policies.split(",") if name.strip()]
        scenarios = (
            [ctx.scenario(name.strip())
             for name in args.scenarios.split(",") if name.strip()]
            if args.scenarios else ctx.scenarios()
        )
    except (KeyError, ServiceError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if not policies:
        print("no policies given", file=sys.stderr)
        return 2
    if not scenarios:
        print("no scenarios given", file=sys.stderr)
        return 2
    try:
        results = ctx.runner.sweep(policies, scenarios, parallel_runs=args.parallel_runs)
    except ValueError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(_sweep_table(
        f"Sweep: {len(policies)} policies x {len(scenarios)} scenarios", results
    ))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .data import all_scenarios, registered_scenarios

    scenarios = all_scenarios()
    if args.generated:
        scenarios = scenarios + registered_scenarios()
    for scenario in scenarios:
        kind = "indoor" if scenario.indoor else "outdoor"
        print(f"{scenario.name:40s} {scenario.total_frames:6d} frames  {kind:7s}  "
              f"{scenario.description}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .data import scenario_by_name
    from .verify import CHECKS, default_sample_count, fuzz_scenarios, sample_matrix

    selected = ",".join(CHECKS) if args.checks is None else args.checks
    checks = [c.strip() for c in selected.split(",") if c.strip()]
    if not checks:
        print(f"no checks selected; available: {', '.join(CHECKS)}", file=sys.stderr)
        return 2
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        print(f"unknown checks: {', '.join(unknown)}; available: {', '.join(CHECKS)}",
              file=sys.stderr)
        return 2
    try:
        if args.scenarios:
            scenarios = [scenario_by_name(name.strip())
                         for name in args.scenarios.split(",") if name.strip()]
        else:
            count = args.count if args.count is not None else default_sample_count()
            scenarios = sample_matrix(count=count, seed=args.seed)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not scenarios:
        print("no scenarios to verify", file=sys.stderr)
        return 2

    def progress(report) -> None:
        status = "ok" if report.passed else "FAIL"
        print(f"{report.scenario_name:44s} {report.frames:5d} frames  {status}")
        for failure in report.failures():
            print(f"    {failure}")

    report = fuzz_scenarios(scenarios, checks=checks, store_root=args.store, progress=progress)
    print(report.summary())
    return 0 if report.passed else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.cli import run as run_lint_cli

    return run_lint_cli(args, sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs tooling).

    Declaring the options imports no command module beyond the queue
    worker (whose options ``work`` shares) and the lint front-end.
    """
    from .analysis.cli import configure_parser as configure_lint
    from .core import objective_names
    from .runtime.maintenance import DEFAULT_TTL_SECONDS
    from .service.jobs import MAX_DEADLINE_S
    from .service.worker import configure_parser as configure_work
    from .util.argtypes import (
        finite_non_negative_float,
        finite_positive_float,
        finite_positive_float_at_most,
        non_negative_int,
        positive_int,
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="SHIFT reproduction: regenerate the paper's experiments",
    )
    parser.add_argument("--scale", type=finite_positive_float, default=1.0,
                        help="scenario length multiplier (default 1.0 = paper scale)")
    parser.add_argument("--validation", type=positive_int, default=800,
                        help="characterization sample count (default 800)")
    parser.add_argument("--workers", type=positive_int, default=None,
                        help="worker processes for trace building (default: serial)")
    parser.add_argument("--trace-store", default=None, metavar="DIR",
                        help="persist built traces under DIR and reuse them next run")
    parser.add_argument("--run-store", default=None, metavar="DIR",
                        help="persist finished policy runs under DIR; repeat sweeps "
                             "become pure metrics reloads")
    commands = parser.add_subparsers(dest="command", required=True)

    table_cmd = commands.add_parser("table", help="regenerate a paper table")
    table_cmd.add_argument("number", type=int, help="table number (1-4)")
    table_cmd.set_defaults(func=_cmd_table)

    figure_cmd = commands.add_parser("figure", help="regenerate a paper figure")
    figure_cmd.add_argument("number", type=int, help="figure number (1-5)")
    figure_cmd.add_argument("--full-grid", action="store_true",
                            help="figure 5: paper-sized (~1,900-config) sweep")
    figure_cmd.add_argument("--sweep-scale", type=finite_positive_float, default=0.15,
                            help="figure 5: extra scenario shortening (default 0.15)")
    figure_cmd.set_defaults(func=_cmd_figure)

    run_cmd = commands.add_parser("run", help="run one policy on one scenario")
    run_cmd.add_argument("policy", help="shift | marlin | marlin-tiny | oracle-{e,a,l} "
                                        "| single:<model>[@<accel>]")
    run_cmd.add_argument("scenario", help="evaluation scenario name")
    run_cmd.add_argument("--objective", default="paper", choices=objective_names(),
                         help="knob preset for the shift policy (default: paper)")
    run_cmd.set_defaults(func=_cmd_run)

    sweep_cmd = commands.add_parser("sweep", help="run several policies over several scenarios")
    sweep_cmd.add_argument("policies", nargs="?", default=None,
                           help="comma-separated policy names (see 'run')")
    sweep_cmd.add_argument("--scenarios", default=None,
                           help="comma-separated scenario names (default: the six evaluation ones)")
    sweep_cmd.add_argument("--objective", default="paper", choices=objective_names(),
                           help="knob preset for shift policies (default: paper)")
    sweep_cmd.add_argument("--parallel-runs", action="store_true",
                           help="also run (policy, scenario) pairs in worker processes "
                                "(needs --workers and --trace-store)")
    sweep_cmd.set_defaults(func=_cmd_sweep)

    serve_cmd = commands.add_parser(
        "serve", help="serve a batch of overlapping sweep requests from a jobs file")
    serve_cmd.add_argument("jobs", metavar="FILE", nargs="?", default=None,
                           help='JSON jobs file: [{"policies": [...], "scenarios": [...]}] '
                                'or {"requests": [...]} with optional per-request "id"s '
                                '(optional with --http: submitted at startup)')
    serve_cmd.add_argument("--http", type=int, default=None, metavar="PORT",
                           help="serve an HTTP/JSON front-end on PORT (0 = ephemeral) "
                                "instead of draining one jobs file and exiting")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="--http bind address (default 127.0.0.1)")
    serve_cmd.add_argument("--max-pending", type=positive_int, default=16,
                           help="--http admission bound: open requests before new "
                                "submits get 429 + Retry-After (default 16)")
    serve_cmd.add_argument("--request-timeout",
                           type=finite_positive_float_at_most(MAX_DEADLINE_S),
                           default=300.0,
                           help="--http per-request completion deadline in seconds "
                                f"(default 300, at most {MAX_DEADLINE_S:g})")
    serve_cmd.add_argument("--shift-bundle", default=None, metavar="FILE",
                           help="--procs: serve the 'shift' spec from this saved "
                                "characterization bundle (the run keys and every "
                                "worker load the same file)")
    serve_cmd.add_argument("--service-workers", type=positive_int, default=4,
                           help="worker threads scheduling unit jobs (default 4)")
    serve_cmd.add_argument("--objective", default="paper", choices=objective_names(),
                           help="knob preset for shift policies (default: paper)")
    serve_cmd.add_argument("--procs", type=positive_int, default=None, metavar="N",
                           help="drain the batch with N supervised worker processes over "
                                "an on-disk job queue instead of in-process threads "
                                "(crash-safe; needs --run-store)")
    serve_cmd.add_argument("--queue-dir", default=None, metavar="DIR",
                           help="job queue directory for --procs "
                                "(default: <run-store>/_queue)")
    serve_cmd.add_argument("--lease", type=finite_positive_float, default=30.0,
                           help="--procs lease duration in seconds (default 30)")
    serve_cmd.add_argument("--max-attempts", type=positive_int, default=5,
                           help="--procs attempts before dead-lettering a job (default 5)")
    serve_cmd.add_argument("--worker-timeout", type=finite_positive_float, default=600.0,
                           help="--procs overall drain deadline in seconds (default 600)")
    serve_cmd.set_defaults(func=_cmd_serve)

    work_cmd = commands.add_parser(
        "work", help="one queue worker process: claim, execute, commit until drained")
    configure_work(work_cmd)
    work_cmd.set_defaults(func=_cmd_work)

    queue_cmd = commands.add_parser(
        "queue", help="inspect or repair an on-disk job queue")
    queue_cmd.add_argument("queue_dir", metavar="DIR", help="job queue directory")
    queue_cmd.add_argument("--requeue-dead", action="store_true",
                           help="move dead-lettered jobs back to pending with fresh attempts")
    queue_cmd.add_argument("--list", action="store_true",
                           help="list every job record with state and attempts")
    queue_cmd.set_defaults(func=_cmd_queue)

    store_cmd = commands.add_parser(
        "store", help="self-healing store maintenance: scrub, gc (TTL), repair")
    store_cmd.add_argument("action", choices=("scrub", "gc", "repair"),
                           help="scrub: re-verify every entry file + quarantine; gc: "
                                "reclaim expired artifacts (dry-run unless --apply); "
                                "repair: heal the --queue claim index against its records")
    store_cmd.add_argument("--queue", default=None, metavar="DIR",
                           help="also maintain this job queue directory")
    store_cmd.add_argument("--ttl", type=finite_non_negative_float, default=DEFAULT_TTL_SECONDS,
                           help="gc: age in seconds before quarantined entries, stale "
                                "temps, and dead job records are reclaimed "
                                f"(default {DEFAULT_TTL_SECONDS:.0f} = 7 days)")
    store_cmd.add_argument("--apply", action="store_true",
                           help="gc: actually delete (default is a dry-run report)")
    store_cmd.set_defaults(func=_cmd_store)

    scen_cmd = commands.add_parser("scenarios", help="list the scenario library")
    scen_cmd.add_argument("--generated", action="store_true",
                          help="also list grammar-generated scenarios (default matrix + registered)")
    scen_cmd.set_defaults(func=_cmd_scenarios)

    verify_cmd = commands.add_parser(
        "verify", help="differential fuzz: prove scalar and batched engines agree")
    verify_cmd.add_argument("--count", type=non_negative_int, default=None,
                            help="generated scenarios to sample (0 = the full matrix; "
                                 "default: $REPRO_FUZZ_SCENARIOS or 25)")
    verify_cmd.add_argument("--seed", type=int, default=0,
                            help="sample seed for the generated matrix (default 0)")
    verify_cmd.add_argument("--scenarios", default=None,
                            help="comma-separated scenario names to verify instead of sampling")
    verify_cmd.add_argument("--checks", default=None,
                            help="comma-separated subset of checks (default: all)")
    verify_cmd.add_argument("--store", default=None, metavar="DIR",
                            help="run store round-trips under DIR instead of a temp dir")
    verify_cmd.set_defaults(func=_cmd_verify)

    char_cmd = commands.add_parser("characterize", help="run the offline phase, save a bundle")
    char_cmd.add_argument("--out", default="characterization.json",
                          help="output JSON path (default characterization.json)")
    char_cmd.set_defaults(func=_cmd_characterize)

    headline_cmd = commands.add_parser("headline", help="the abstract's headline comparison")
    headline_cmd.set_defaults(func=_cmd_headline)

    lint_cmd = commands.add_parser(
        "lint", help="static analysis: determinism, lock discipline, schema, layering")
    configure_lint(lint_cmd)
    lint_cmd.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
