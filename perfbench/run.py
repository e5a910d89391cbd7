"""End-to-end benchmark of the SHIFT reproduction, driven the way its users drive it.

Usage::

    python3 perfbench/run.py --workload cli --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``cli``        — ``repro sweep`` child processes, cold and warm alternating;
* ``http-warm``  — one keep-alive client against a ``repro serve --http``
  child whose stores and in-memory dedup were filled by a cold request;
* ``queue-deep`` — a batch of unit jobs enqueued into a fresh ``JobQueue``
  and drained by one ``repro work`` child over a warm run store.

Every op's output is checked against a reference computed in this process
by a different code path; any mismatch counts as a failed op and makes
the command exit 1.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (``setup_s``, ``op_p50_s``,
``peak_rss_mb``); with ``--trace 1`` the same workload runs with layer
wrappers installed (``tracing.py``) and the metrics are per-layer means
per traced op.  Timing is from outside only; tracing is never on in a
``--trace 0`` run.  Scratch files go to ``.perfbench/`` and are removed
at exit; only the traced runs' count registry (``.perfbench/counts/``)
stays, so the next traced run can check that its counts repeat.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import statistics
import sys
import traceback

import common
import tracing

#: Workload name -> the module that drives it.
WORKLOADS = {"cli": "cli_sweep", "http-warm": "http_warm", "queue-deep": "queue_deep"}

#: End-to-end metrics, every workload: (name, unit).
END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the op loop runs (set-up and checks excluded)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(run: common.Run, module) -> dict[str, dict]:
    """Set-up is CPU-bound on every workload; ops are on some (``CPU_BOUND``)."""
    scale = run.host_scale()
    values = {
        "setup_s": statistics.median(run.setup) * scale,
        "op_p50_s": statistics.median(run.ops[module.PRIMARY]) * (scale if module.CPU_BOUND else 1),
        "peak_rss_mb": max(run.rss_mb),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(run: common.Run) -> dict[str, dict]:
    ops = [rows for kind in run.layer_rows.values() for rows in kind]
    metrics = {}
    for name, unit, _ in tracing.LAYER_METRICS:
        mean = sum(rows.get(name, 0) for rows in ops) / len(ops)
        metrics[name] = {"value": mean, "unit": unit}
    metrics["trace_overhead_pct"] = {"value": overhead(run), "unit": "%"}
    return metrics


def overhead(run: common.Run) -> float:
    """Traced versus untraced median op wall, over every op kind, in percent."""
    traced = [statistics.median(run.ops[kind]) for kind in run.ops]
    untraced = [statistics.median(run.untraced[kind]) for kind in run.ops]
    return 100.0 * (sum(traced) / sum(untraced) - 1.0)


def check_counts(run: common.Run, digest: str) -> None:
    """Counts must repeat exactly: across ops of a kind, and across runs.

    A later change may rest a count claim only on counts that repeat for
    the same code and seed, so this run compares its counts with the
    last traced run of the same workload, seed, and sources, if any.
    """
    counts = {}
    for kind, ops in run.layer_rows.items():
        vectors = [{k: v for k, v in rows.items() if tracing.is_count(k)} for rows in ops]
        for number, vector in enumerate(vectors[1:], start=1):
            drift = sorted(k for k in vector if vector[k] != vectors[0].get(k))
            run.check(not drift, f"{kind} op {number}: counts differ from op 0: {drift[:4]}")
        counts[kind] = vectors[0]
    registry = common.WORK_ROOT / "counts" / f"{run.workload}-{run.seed}-{digest}.json"
    if registry.exists():
        previous = json.loads(registry.read_text("utf-8"))
        drift = sorted(f"{kind}:{k}" for kind in counts for k in counts[kind]
                       if previous.get(kind, {}).get(k) != counts[kind][k])
        run.check(not drift, f"counts differ from the previous traced run: {drift[:4]}")
    else:
        registry.parent.mkdir(parents=True, exist_ok=True)
        registry.write_text(json.dumps(counts, sort_keys=True), "utf-8")


def print_report(run: common.Run, module, env: dict[str, str], metrics: dict) -> None:
    print(f"perfbench {run.workload} seed={run.seed} seconds={run.seconds:g} "
          f"trace={int(run.traced)} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for note in run.notes:
        print(f"inputs: {note}")
    if not run.traced:
        print(f"{'metric':<22}{'value':>14}  {'unit':<6}{'n':>6}")
        rows = [*module.metrics(run),
                ("setup_raw_p50_s", statistics.median(run.setup), "s", len(run.setup)),
                ("fail_rate", run.failed / max(1, run.attempted), "ratio", run.attempted),
                ("probe_p50_s", statistics.median(run.probes), "s", len(run.probes)),
                ("host_scale", run.host_scale(), "ratio", len(run.probes)),
                ("setup_s", metrics["setup_s"]["value"], "s", len(run.setup)),
                ("op_p50_s", metrics["op_p50_s"]["value"], "s", len(run.ops[module.PRIMARY])),
                ("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB", len(run.rss_mb))]
        for name, value, unit, count in rows:
            print(f"{name:<22}{value:>14.6f}  {unit:<6}{count:>6}")
        print("samples: setup " + " ".join(f"{v:.4f}" for v in run.setup) + " | "
              + " | ".join(f"{kind} " + " ".join(f"{v:.4f}" for v in values[:40])
                           for kind, values in run.ops.items()))
    else:
        for kind, ops in run.layer_rows.items():
            wall = sum(rows["op_wall_s"] for rows in ops) / len(ops)
            print(f"layer table, {kind} ops (mean per op over {len(ops)} traced ops; "
                  f"wall {wall:.4f} s)")
            times = {name: sum(rows.get(name, 0.0) for rows in ops) / len(ops)
                     for name, unit, _ in tracing.LAYER_METRICS
                     if unit == "s" and name != "op_wall_s"}
            inclusive = {name: sum(rows.get(f"incl:{name}", rows.get(name, 0.0)) for rows in ops)
                         / len(ops) for name in times}
            print(f"  {'row (sorted by inclusive time)':<36}{'self':>10}   {'share':>6} {'inclusive':>10}")
            for name, value in sorted(times.items(), key=lambda item: -inclusive[item[0]]):
                if value:
                    print(f"  {name:<36}{value:>10.4f} s {100 * value / wall:6.1f}% "
                          f"{inclusive[name]:>10.4f} s")
            print(f"  {'sum of self times':<36}{sum(times.values()):>10.4f} s")
            for name, unit, _ in tracing.LAYER_METRICS:
                value = sum(rows.get(name, 0) for rows in ops) / len(ops)
                if unit != "s" and value:
                    print(f"  {name:<36}{value:>12.3f} {unit}")
            traced, untraced = statistics.median(run.ops[kind]), statistics.median(run.untraced[kind])
            print(f"  tracing overhead: traced median {traced:.4f} s vs untraced "
                  f"{untraced:.4f} s ({100 * (traced / untraced - 1):+.1f}%, "
                  f"n={len(run.ops[kind])}/{len(run.untraced[kind])})")
    print(f"ops: {run.attempted} attempted, {run.failed} failed")
    for failure in run.failures[:20]:
        print(f"FAIL: {failure}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Launched in the background of a non-interactive shell, this process
    # inherits an ignored SIGINT, and so would every program process: the
    # HTTP server's Ctrl-C shutdown (and its span dump) would never run.
    # A handled signal is reset to the default across exec, an ignored one
    # is not.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    module = importlib.import_module(WORKLOADS[args.workload])
    workdir = common.WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = common.Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    env = common.environment()
    if run.traced:
        tracing.install()
        tracing.TRACER.clear()
    try:
        module.run(run)
    except Exception:  # noqa: BLE001 - a harness crash is reported, never a result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.traced:
        check_counts(run, env["source"])
        metrics = per_layer(run)
    else:
        metrics = end_to_end(run, module)
    print_report(run, module, env, metrics)
    # A failed end-of-run check (store audit, server exit, count drift)
    # fails the run even when every op passed.
    failed = run.failed or (1 if run.failures else 0)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
