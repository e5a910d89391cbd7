"""Workload ``http-warm``: one keep-alive client against ``repro serve --http``.

Set-up starts a ``python -m repro serve --http 0`` child over fresh
stores and primes it with one cold request covering every cell of the
seed's pool (characterization for ``shift``, trace builds, runs).  After
that every cell is served from the service's in-memory dedup, so an op
measures the wire, admission, request decomposition, and per-request
policy resolution.

Each op is one closed-loop request on one persistent connection, the way
client libraries talk to a server: POST ``/v1/sweeps``, then GET
``.../results`` up to the terminal ndjson line.  Requests are drawn from
the seed's pool with a fixed shape (two policies x two scenarios), so
consecutive requests overlap and every seed costs the same.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import statistics
import subprocess
import threading
import time

import common
import tracing

POLICY_POOL = ("shift", "marlin", "marlin-tiny", "single:yolov7@gpu",
               "single:yolov7-tiny@gpu", "single:ssd-mobilenet-v2@dla0")
SCENARIO_COUNT = 4
FRAME_BUDGET = 96
SHAPE = (2, 2)  # policies, scenarios per request
#: Server starts, each primed cold over fresh stores; their median is ``setup_s``.
SETUPS = 3
MIN_OPS = 20
#: A server still running this long after Ctrl-C is killed (and fails the run).
STOP_TIMEOUT_S = 20.0


def inputs(seed: int) -> tuple[list[str], list[str]]:
    """The seed's scenario pool (registered generated flights) and policy pool."""
    from repro.data.grammar import DEFAULT_MATRIX

    names = sorted(recipe.scenario_name for recipe in DEFAULT_MATRIX.recipes()
                   if recipe.frame_budget == FRAME_BUDGET)
    return sorted(random.Random(seed).sample(names, SCENARIO_COUNT)), list(POLICY_POOL)


def reference(scenarios: list[str]) -> dict:
    """Expected metrics per (spec, scenario), from a serial store-less sweep
    on the scalar reference engine."""
    from repro.data import scenario_by_name
    from repro.experiments import ExperimentContext
    from repro.service import policy_resolver

    ctx = ExperimentContext(fast_runs=False)
    resolve = policy_resolver(bundle=ctx.bundle, graph=ctx.graph, objective="paper")
    policies = [resolve(spec) for spec in POLICY_POOL]
    objects = [scenario_by_name(name) for name in scenarios]
    results = ctx.runner.sweep(policies, objects)
    return {(spec, name): metrics
            for spec, policy in zip(POLICY_POOL, policies, strict=True)
            for name, metrics in zip(scenarios, results[policy.name], strict=True)}


class Server:
    """One ``repro serve --http 0`` child and a persistent connection to it."""

    def __init__(self, workdir, number: int, *, traced: bool) -> None:
        self.traces = workdir / f"traces-{number}"
        self.runs = workdir / f"runs-{number}"
        self.spans = workdir / f"server-spans-{number}.json"
        self.stderr = open(workdir / f"server-{number}.err", "wb")  # noqa: SIM115 - closed in stop()
        env = (common.program_env(PERFBENCH_SPANS=str(self.spans)) if traced
               else common.program_env())
        args = ["--trace-store", str(self.traces), "--run-store", str(self.runs),
                "serve", "--http", "0"]
        self.proc = subprocess.Popen(common.program_argv(args, traced), cwd=common.ROOT, env=env,
                                     stdout=subprocess.PIPE, stderr=self.stderr)
        self.port = None
        # A server that never listens is killed, which ends the read loop.
        watchdog = threading.Timer(common.CHILD_TIMEOUT_S, common.signal_child,
                                   (self.proc.pid, signal.SIGKILL))
        watchdog.start()
        for line in self.proc.stdout:
            text = line.decode("utf-8", "replace")
            if text.startswith("serving on http://"):
                self.port = int(text.split()[2].rsplit(":", 1)[1])
                break
        watchdog.cancel()
        if self.port is None:
            self.stop()
            raise RuntimeError("server exited before listening")
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def request(self, policies, scenarios, op_id: str | None = None):
        """POST one sweep and read its results stream up to the terminal line.

        Returns ``(status, wall seconds, ndjson lines)``; the wall runs from
        sending the POST to receiving the stream's last byte.
        """
        body = json.dumps({"requests": [{"policies": list(policies),
                                         "scenarios": list(scenarios)}]}).encode()
        headers = {"Content-Type": "application/json"}
        if op_id is not None:
            headers["X-Perfbench-Op"] = op_id
        start = time.perf_counter()
        self.conn.request("POST", "/v1/sweeps", body, headers)
        response = self.conn.getresponse()
        accepted = response.read()
        if response.status != 202:
            wall = time.perf_counter() - start
            return f"POST {response.status}", wall, [accepted.decode()]
        request_id = json.loads(accepted)["request_ids"][0]
        self.conn.request("GET", f"/v1/sweeps/{request_id}/results", headers=headers)
        response = self.conn.getresponse()
        stream = response.read()
        wall = time.perf_counter() - start
        lines = [json.loads(line) for line in stream.decode().splitlines() if line]
        return f"GET {response.status}", wall, lines

    def stats(self) -> dict:
        self.conn.request("GET", "/v1/stores/stats")
        response = self.conn.getresponse()
        return json.loads(response.read())

    def stop(self) -> float:
        """Interrupt the server (its Ctrl-C path) and reap it; peak RSS in MB."""
        if getattr(self, "conn", None) is not None:
            self.conn.close()
        common.signal_child(self.proc.pid, signal.SIGINT)
        code, rss = common.wait_rusage(self.proc, timeout=STOP_TIMEOUT_S)
        self.proc.stdout.close()
        self.stderr.close()
        self.returncode = code
        return rss


def check_response(run: common.Run, label: str, result, cells, expected) -> bool:
    from repro.service import metrics_from_wire

    status, _, lines = result
    if not run.check(status == "GET 200", f"{label}: HTTP {status}: {lines[:1]}"):
        return False
    *rows, summary = lines
    ok = run.check(summary.get("done") is True and summary.get("state") == "done"
                   and summary.get("error") is None and summary.get("rows") == len(cells),
                   f"{label}: terminal line {summary}")
    ok &= run.check(sorted((row["policy_spec"], row["scenario"]) for row in rows) == sorted(cells),
                    f"{label}: streamed cells differ from the request")
    for row in rows:
        want = expected.get((row["policy_spec"], row["scenario"]))
        ok &= run.check(want is not None
                        and common.metrics_equal(metrics_from_wire(row["metrics"]), want),
                        f"{label}: row {row['policy_spec']} x {row['scenario']} differs "
                        f"from the reference")
    return ok


def run(run: common.Run) -> None:
    from repro.runtime import RunStore, TraceStore

    scenarios, policies = inputs(run.seed)
    expected = reference(scenarios)
    run.notes = [f"scenarios={','.join(scenarios)} policies={len(policies)} "
                 f"shape={SHAPE[0]}x{SHAPE[1]}"]
    rng = random.Random(run.seed)
    all_cells = [(p, s) for p in policies for s in scenarios]
    servers: list[Server] = []

    def start(number: int, *, traced: bool) -> tuple[Server, float]:
        """Set-up: spawn, listen, and prime one server with the cold request."""
        common.quiesce()
        begin = time.perf_counter()
        server = Server(run.workdir, number, traced=traced)
        servers.append(server)
        result = server.request(policies, scenarios)
        wall = time.perf_counter() - begin
        run.finish_op(check_response(run, f"set-up {number}", result, all_cells, expected))
        return server, wall

    def stop(server: Server) -> None:
        run.rss_mb.append(server.stop())
        run.check(server.returncode == 130, f"server exit {server.returncode}")
        servers.remove(server)

    try:
        for number in range(SETUPS):
            server, wall = start(number, traced=False)
            run.setup.append(wall)
            run.speed_probe()
            if number + 1 < SETUPS:
                stop(server)
        targets = [(server, False)]
        if run.traced:
            targets.append((start(SETUPS, traced=True)[0], True))
        serial = iter(range(1_000_000))
        walls: dict[str, float] = {}

        def op(server: Server, traced: bool, *, sample: bool = True) -> None:
            number = next(serial)
            picked_policies = sorted(rng.sample(policies, SHAPE[0]))
            picked_scenarios = sorted(rng.sample(scenarios, SHAPE[1]))
            cells = [(p, s) for p in picked_policies for s in picked_scenarios]
            op_id = f"request-{number}" if traced else None
            result = server.request(picked_policies, picked_scenarios, op_id)
            wall = result[1]
            run.finish_op(check_response(run, f"request {number}", result, cells, expected))
            if sample:
                run.sample("request", wall, traced=traced)
                if traced:
                    walls[op_id] = wall

        # A traced run splits the time between the untraced and the traced
        # server.  Alternating per request would change the TCP pattern the
        # op measures: a connection idle for one request re-enters quick-ACK
        # mode and skips the delayed-ACK stall.
        for server, traced in targets:
            op(server, traced, sample=False)  # warm-up, not sampled
            common.quiesce()
            started = time.perf_counter()
            count = 0
            while count < MIN_OPS or (time.perf_counter() - started
                                      < run.seconds / len(targets)):
                op(server, traced)
                count += 1
        for server, _ in targets:
            stats = server.stats()
            run.check(stats.get("corrupt_entries") == 0 and not stats.get("degraded"),
                      f"server stats {stats}")
        for server, traced in list(targets):
            stop(server)
            for store in (TraceStore(server.traces), RunStore(server.runs)):
                _, problems = store.audit()
                run.check(not problems and store.corrupt_entries == 0,
                          f"store audit {problems[:2]}")
            if traced:
                # The client waits for whatever the server's spans do not
                # cover, so other_s is zero by construction.
                by_op = tracing.rows_by_op(tracing.load_dump(server.spans))
                for op_id, wall in walls.items():
                    rows = by_op.get(op_id, {})
                    wait = wall - tracing.self_time(rows)
                    run.layer_rows.setdefault("request", []).append(
                        tracing.finish_rows(wall, [rows], wait=wait))
    finally:
        for server in servers:
            server.stop()


def metrics(run: common.Run) -> list[tuple[str, float, str, int]]:
    requests = run.ops["request"]
    rows = [("request_p50_s", statistics.median(requests), "s", len(requests))]
    tail = common.tail(requests)
    if tail is not None:
        rows.append((f"request_p{tail[0]}_s", tail[1], "s", len(requests)))
    return rows


PRIMARY = "request"
#: Requests wait on the delayed-ACK timer, not the CPU: their medians are not scaled.
CPU_BOUND = False
