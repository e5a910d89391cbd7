"""Outside-in layer tracing: wrappers installed around the program's entry points.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
each entry point listed in :data:`ENTRY_POINTS` *where its callers look it
up* — the class attribute, or the module attribute a caller imported by
name — with a wrapper that records one span per call: name, op id, start,
end, parent span, and a few per-call counts.  Spans are kept in memory
and written out once, when the process exits (:func:`dump_at_exit`).

A span is recorded only while an op is current (:meth:`Tracer.op`, or
``default_op`` in a launched child process), so work the benchmark does
for itself — references, checks — never shows up in a layer row.
Wrapping is per call, never per frame.

:func:`rows_by_op` turns each op's spans into layer rows of *self* time
(a span's duration minus the time its child spans cover), so the rows
plus ``other_s`` add up to the op's wall time.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import importlib
import inspect
import json
import os
import threading
import time

_clock = time.perf_counter


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        # One span: [name, op, start, end, parent index or -1, counts dict or None].
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, float]] = {}
        self._local = threading.local()
        self.default_op: str | None = None

    # --------------------------------------------------------------- context

    def current_op(self) -> str | None:
        return getattr(self._local, "op", None) or self.default_op

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def op(self, op_id: str | None):
        """Make ``op_id`` the current op of this thread for the block."""
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = previous

    def count(self, name: str, amount: float = 1) -> None:
        op = self.current_op()
        if op is None:
            return
        bucket = self.counters.setdefault(op, {})
        bucket[name] = bucket.get(name, 0) + amount

    def inside(self, prefix: str) -> bool:
        """True when an open span of this thread starts with ``prefix``."""
        return any(self.spans[i][0].startswith(prefix) for i in self._stack())

    # ----------------------------------------------------------------- spans

    def begin(self, name: str) -> int | None:
        op = self.current_op()
        if op is None:
            return None
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, op, _clock(), 0.0, stack[-1] if stack else -1, None])
        stack.append(index)
        return index

    def end(self, index: int | None, counts: dict | None = None) -> None:
        if index is None:
            return
        span = self.spans[index]
        span[3] = _clock()
        span[5] = counts
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def record(self, name: str, start: float, end: float, op: str, counts: dict | None = None) -> None:
        """A span measured by hand (the import span, client round trips)."""
        self.spans.append([name, op, start, end, -1, counts])

    def payload(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}

    def clear(self) -> None:
        self.spans.clear()
        self.counters.clear()


TRACER = Tracer()


# --------------------------------------------------------------- wrappers


def _span_call(fn, name, counts=None, name_for=None):
    """Wrap a plain callable: one span per call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name_for(args) if name_for is not None else name
        index = TRACER.begin(span_name) if span_name else None
        if index is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            TRACER.end(index)
        if counts is not None:
            TRACER.spans[index][5] = counts(args, kwargs, result)
        return result

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def _span_generator(fn, name):
    """Wrap a generator function: one span per ``next`` (one per row)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            index = TRACER.begin(name)
            try:
                item = next(inner)
            except StopIteration:
                TRACER.end(index)
                return
            TRACER.end(index)
            yield item

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def _span_acquire(fn, name):
    """Wrap a lock context manager: the span covers acquisition only."""

    @functools.wraps(fn)
    @contextlib.contextmanager
    def wrapper(*args, **kwargs):
        index = TRACER.begin(name)
        manager = fn(*args, **kwargs)
        try:
            manager.__enter__()
        except BaseException:
            TRACER.end(index)
            raise
        TRACER.end(index)
        try:
            yield
        except BaseException as exc:
            if not manager.__exit__(type(exc), exc, exc.__traceback__):
                raise
        else:
            manager.__exit__(None, None, None)

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def _counted(fn, counter):
    """Wrap a callable that only bumps a counter (no span)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        TRACER.count(counter)
        return fn(*args, **kwargs)

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def _encode_name(_args):
    # jsonsafe.dumps serves the queue and the stores too; only the calls
    # made while an HTTP handler runs are wire encoding.
    return "service.http.encode" if TRACER.inside("service.http.handler") else None


def _run_name(args):
    module = type(args[0]).__module__.removeprefix("repro.")
    return f"{module}.run"


def _frames(_args, _kwargs, result):
    return {"frames": len(result)}


def _model_frames(args, kwargs, _result):
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    return {"model_frames": len(batch)}


def _hit(_args, _kwargs, result):
    return {"hits": 1} if result is not None else {"misses": 1}


def _run_frames(_args, _kwargs, result):
    return {"frames": len(result.records)}


def _bytes_arg(args, kwargs, _result):
    data = args[1] if len(args) > 1 else kwargs.get("text", kwargs.get("data"))
    size = len(data.encode("utf-8")) if isinstance(data, str) else len(data)
    return {"bytes": size}


def _bytes_result(_args, _kwargs, result):
    size = len(result.encode("utf-8")) if isinstance(result, str) else len(result)
    return {"bytes": size}


def _claim(_args, _kwargs, result):
    return {"claims": 1} if result is not None else {"empty_claims": 1}


def _handler_call(fn):
    """The HTTP handler wrapper: the op id travels in a request header."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        op = self.headers.get("X-Perfbench-Op")
        with TRACER.op(op):
            index = TRACER.begin("service.http.handler")
            try:
                return fn(self, *args, **kwargs)
            finally:
                TRACER.end(index)

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def _submit_call(fn):
    """SweepService.submit: also counts cells served by an existing job."""

    @functools.wraps(fn)
    def wrapper(self, request):
        index = TRACER.begin("service.service.submit")
        if index is None:
            return fn(self, request)
        before = self.jobs_coalesced
        handle = None
        try:
            handle = fn(self, request)
            return handle
        finally:
            counts = None
            if handle is not None:
                counts = {"cells": handle.total_rows, "coalesced": self.jobs_coalesced - before}
            TRACER.end(index, counts)

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def _job_call(fn):
    """QueueWorker._process: one span per job, with the worker's outcome."""

    @functools.wraps(fn)
    def wrapper(self, lease):
        index = TRACER.begin("service.worker.job")
        if index is None:
            return fn(self, lease)
        warm, runs = self.warm_completes, self.runs_executed
        try:
            return fn(self, lease)
        finally:
            TRACER.end(index, {"warm_completes": self.warm_completes - warm,
                               "runs_executed": self.runs_executed - runs})

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def _policy_init(fn):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        TRACER.count("service.jobs.policies_built")
        return fn(self, *args, **kwargs)

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


#: (module, attribute path, wrapper factory).  Each entry is patched where
#: callers look it up; a function imported by name into several modules
#: is listed once per importing module.
ENTRY_POINTS = [
    ("repro.experiments.context", "characterize",
     lambda f: _span_call(f, "characterization.characterize")),
    ("repro.core.confidence_graph", "ConfidenceGraph.build",
     lambda f: _span_call(f, "core.confidence_graph.build")),
    ("repro.runtime.trace", "render_scenario",
     lambda f: _span_call(f, "data.generator.render", _frames)),
    ("repro.runtime.trace", "detect_batch",
     lambda f: _span_call(f, "models.detector.detect", _model_frames)),
    ("repro.runtime.trace", "ScenarioTrace.build",
     lambda f: _span_call(f, "runtime.trace.build")),
    ("repro.runtime.trace", "ScenarioTrace.consecutive_frame_ncc",
     lambda f: _span_call(f, "runtime.trace.frame_ncc")),
    *[(module, "run_policy",
       lambda f: _span_call(f, None, _run_frames, name_for=_run_name))
      for module in ("repro.runtime.experiment", "repro.runtime.runner",
                     "repro.service.service", "repro.service.worker")],
    ("repro.runtime.store", "TraceStore.load",
     lambda f: _span_call(f, "runtime.store.load", _hit)),
    ("repro.runtime.store", "TraceStore.save",
     lambda f: _span_call(f, "runtime.store.save")),
    ("repro.runtime.runstore", "RunStore.load_metrics",
     lambda f: _span_call(f, "runtime.runstore.load_metrics", _hit)),
    ("repro.runtime.runstore", "RunStore.save",
     lambda f: _span_call(f, "runtime.runstore.save")),
    ("repro.runtime.runstore", "RunStore.commit",
     lambda f: _span_call(f, "runtime.runstore.commit")),
    ("repro.runtime.iolayer", "read_text",
     lambda f: _span_call(f, "runtime.iolayer.read", _bytes_result)),
    ("repro.runtime.iolayer", "read_bytes",
     lambda f: _span_call(f, "runtime.iolayer.read", _bytes_result)),
    ("repro.runtime.iolayer", "write_text",
     lambda f: _span_call(f, "runtime.iolayer.write", _bytes_arg)),
    ("repro.runtime.iolayer", "write_bytes",
     lambda f: _span_call(f, "runtime.iolayer.write", _bytes_arg)),
    ("repro.runtime.iolayer", "_read_once",
     lambda f: _counted(f, "runtime.iolayer.attempts")),
    ("repro.runtime.iolayer", "_write_once",
     lambda f: _counted(f, "runtime.iolayer.attempts")),
    ("repro.runtime.shards", "shard_lock",
     lambda f: _span_acquire(f, "runtime.shards.lock")),
    ("repro.service.queue", "JobQueue.enqueue_all",
     lambda f: _span_call(f, "service.queue.enqueue")),
    ("repro.service.queue", "JobQueue.claim",
     lambda f: _span_call(f, "service.queue.claim", _claim)),
    ("repro.service.queue", "JobQueue.complete",
     lambda f: _span_call(f, "service.queue.complete")),
    ("repro.service.worker", "QueueWorker._process", _job_call),
    ("repro.service.service", "SweepService.submit", _submit_call),
    ("repro.core.pipeline", "ShiftPipeline.__init__", _policy_init),
    ("repro.baselines.marlin", "MarlinPolicy.__init__", _policy_init),
    ("repro.baselines.single_model", "SingleModelPolicy.__init__", _policy_init),
    ("repro.service.http", "SweepFrontend.submit_payload",
     lambda f: _span_call(f, "service.http.submit")),
    ("repro.service.http", "SweepFrontend.stream_results",
     lambda f: _span_generator(f, "service.http.stream")),
    ("repro.service.http", "_Handler.do_GET", _handler_call),
    ("repro.service.http", "_Handler.do_POST", _handler_call),
    ("repro.util.jsonsafe", "dumps",
     lambda f: _span_call(f, None, name_for=_encode_name)),
]


def install() -> int:
    """Patch every entry point in :data:`ENTRY_POINTS`; returns how many.

    Idempotent.  Class attributes keep their descriptor kind (a
    classmethod stays a classmethod).
    """
    patched = 0
    for module_name, path, factory in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if kind is not None else raw
        if hasattr(function, "__perfbench_wrapped__"):
            continue
        wrapped = factory(function)
        setattr(owner, attr, kind(wrapped) if kind is not None else wrapped)
        patched += 1
    return patched


def dump_at_exit(path: str) -> None:
    """Write this process's spans to ``path`` when the interpreter exits."""

    def dump() -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(TRACER.payload(), handle)

    atexit.register(dump)


def load_dump(path: str | os.PathLike) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------ aggregation

#: Span name -> the layer-table row its self time lands in.
TIME_ROWS = {
    "import.repro": "import.repro_s",
    "characterization.characterize": "characterization.characterize_s",
    "core.confidence_graph.build": "core.confidence_graph.build_s",
    "data.generator.render": "data.generator.render_s",
    "models.detector.detect": "models.detector.detect_s",
    "runtime.trace.build": "runtime.trace.build_self_s",
    "runtime.trace.frame_ncc": "runtime.trace.frame_ncc_s",
    "core.pipeline.run": "core.pipeline.run_s",
    "baselines.marlin.run": "baselines.marlin.run_s",
    "baselines.single_model.run": "baselines.single_model.run_s",
    "runtime.store.load": "runtime.store.load_s",
    "runtime.store.save": "runtime.store.save_s",
    "runtime.runstore.load_metrics": "runtime.runstore.load_metrics_s",
    "runtime.runstore.save": "runtime.runstore.save_s",
    "runtime.runstore.commit": "runtime.runstore.save_s",
    "runtime.iolayer.read": "runtime.iolayer.io_s",
    "runtime.iolayer.write": "runtime.iolayer.io_s",
    "runtime.shards.lock": "runtime.shards.lock_wait_s",
    "service.queue.enqueue": "service.queue.enqueue_s",
    "service.queue.claim": "service.queue.claim_s",
    "service.queue.complete": "service.queue.complete_s",
    "service.worker.job": "service.worker.job_s",
    "service.service.submit": "service.service.submit_s",
    "service.http.submit": "service.http.submit_s",
    "service.http.stream": "service.http.stream_s",
    "service.http.encode": "service.http.encode_s",
    "service.http.handler": "service.http.handler_s",
}


def span_layer(name: str) -> str:
    """Layer of a span name, for the ``<layer>.calls`` counts."""
    if name.endswith(".run"):
        return "runtime.runner"
    return name.rsplit(".", 1)[0]


def _store_layer(spans: list[list], index: int) -> str | None:
    """The store whose save an I/O span was made for, if any."""
    parent = spans[index][4]
    while parent >= 0:
        name = spans[parent][0]
        if name == "runtime.store.save":
            return "runtime.store"
        if name in ("runtime.runstore.save", "runtime.runstore.commit"):
            return "runtime.runstore"
        parent = spans[parent][4]
    return None


def _inside(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][4]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][4]
    return False


def rows_by_op(payload: dict) -> dict[str, dict[str, float]]:
    """Every op's layer rows from one process's dumped spans."""
    spans = payload["spans"]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child_time[span[4]] += span[3] - span[2]
    rows: dict[str, dict[str, float]] = {}
    for index, (name, op, start, end, parent, counts) in enumerate(spans):
        row = rows.setdefault(op, {})
        own = max(0.0, (end - start) - child_time[index])
        time_row = TIME_ROWS.get(name)
        if time_row is not None:
            row[time_row] = row.get(time_row, 0.0) + own
            if parent < 0 or TIME_ROWS.get(spans[parent][0]) != time_row:
                key = f"incl:{time_row}"
                row[key] = row.get(key, 0.0) + (end - start)
        layer = span_layer(name)
        calls = f"{layer}.calls"
        row[calls] = row.get(calls, 0) + 1
        counts = counts or {}
        for key, value in counts.items():
            if name == "runtime.iolayer.read":
                key = "runtime.iolayer.read_bytes"
            elif name == "runtime.iolayer.write":
                key = "runtime.iolayer.write_bytes"
                store = _store_layer(spans, index)
                if store is not None:
                    row[f"{store}.bytes_written"] = row.get(f"{store}.bytes_written", 0) + value
            elif name.endswith(".run"):
                key = "runtime.runner.frames"
            elif name == "runtime.trace.build":
                key = f"runtime.trace.{key}"
            else:
                key = f"{layer}.{key}"
            row[key] = row.get(key, 0) + value
        if name == "runtime.trace.build":
            row["runtime.trace.builds"] = row.get("runtime.trace.builds", 0) + 1
        elif name == "runtime.iolayer.read":
            row["runtime.iolayer.reads"] = row.get("runtime.iolayer.reads", 0) + 1
            if _inside(spans, index, "service.queue.claim"):
                row["claim_reads"] = row.get("claim_reads", 0) + 1
        elif name == "runtime.iolayer.write":
            row["runtime.iolayer.writes"] = row.get("runtime.iolayer.writes", 0) + 1
        elif name == "runtime.shards.lock":
            row["runtime.shards.locks"] = row.get("runtime.shards.locks", 0) + 1
    for op, bucket in payload.get("counters", {}).items():
        row = rows.setdefault(op, {})
        for key, value in bucket.items():
            row[key] = row.get(key, 0) + value
    return rows


def self_time(rows: dict[str, float]) -> float:
    """Seconds of an op covered by its layer rows (self times, no overlap).

    A span whose name has no row is left out, so its time shows in
    ``other_s`` and the rows still add up to the wall.
    """
    names = set(TIME_ROWS.values())
    return sum(value for key, value in rows.items() if key in names)


def finish_rows(wall: float, parts: list[dict[str, float]], wait: float = 0.0) -> dict[str, float]:
    """One op's layer rows: merge its processes' rows, derive ratios, add ``other_s``.

    ``wait`` is time the op spent waiting outside every span (for HTTP:
    client latency minus server handler time).  The returned time rows,
    ``service.http.wait_s`` and ``other_s`` add up to ``wall``.
    """
    rows: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            rows[key] = rows.get(key, 0) + value
    attempts = rows.pop("runtime.iolayer.attempts", 0)
    rows["runtime.iolayer.retries"] = max(
        0, attempts - rows.get("runtime.iolayer.reads", 0) - rows.get("runtime.iolayer.writes", 0))
    claim_reads = rows.pop("claim_reads", 0)
    claims = rows.get("service.queue.claims", 0)
    rows["service.queue.records_read_per_claim"] = claim_reads / claims if claims else 0.0
    cells = rows.pop("service.service.cells", 0)
    coalesced = rows.pop("service.service.coalesced", 0)
    rows["service.service.coalesced_share"] = coalesced / cells if cells else 0.0
    rows["other_s"] = wall - self_time(rows) - wait
    if wait:
        rows["service.http.wait_s"] = wait
    rows["op_wall_s"] = wall
    return rows


#: Every per-layer metric a traced run reports: (name, unit, better).
LAYER_METRICS = [
    ("op_wall_s", "s", "lower"),
    ("other_s", "s", "lower"),
    ("import.repro_s", "s", "lower"),
    ("import.calls", "count", "lower"),
    ("characterization.characterize_s", "s", "lower"),
    ("characterization.calls", "count", "lower"),
    ("core.confidence_graph.build_s", "s", "lower"),
    ("core.confidence_graph.calls", "count", "lower"),
    ("data.generator.render_s", "s", "lower"),
    ("data.generator.frames", "count", "lower"),
    ("data.generator.calls", "count", "lower"),
    ("models.detector.detect_s", "s", "lower"),
    ("models.detector.model_frames", "count", "lower"),
    ("models.detector.calls", "count", "lower"),
    ("runtime.trace.build_self_s", "s", "lower"),
    ("runtime.trace.frame_ncc_s", "s", "lower"),
    ("runtime.trace.builds", "count", "lower"),
    ("runtime.trace.calls", "count", "lower"),
    ("core.pipeline.run_s", "s", "lower"),
    ("baselines.marlin.run_s", "s", "lower"),
    ("baselines.single_model.run_s", "s", "lower"),
    ("runtime.runner.frames", "count", "lower"),
    ("runtime.runner.calls", "count", "lower"),
    ("runtime.store.load_s", "s", "lower"),
    ("runtime.store.save_s", "s", "lower"),
    ("runtime.store.hits", "count", "higher"),
    ("runtime.store.misses", "count", "lower"),
    ("runtime.store.bytes_written", "bytes", "lower"),
    ("runtime.store.calls", "count", "lower"),
    ("runtime.runstore.load_metrics_s", "s", "lower"),
    ("runtime.runstore.save_s", "s", "lower"),
    ("runtime.runstore.hits", "count", "higher"),
    ("runtime.runstore.misses", "count", "lower"),
    ("runtime.runstore.bytes_written", "bytes", "lower"),
    ("runtime.runstore.calls", "count", "lower"),
    ("runtime.iolayer.reads", "count", "lower"),
    ("runtime.iolayer.read_bytes", "bytes", "lower"),
    ("runtime.iolayer.writes", "count", "lower"),
    ("runtime.iolayer.write_bytes", "bytes", "lower"),
    ("runtime.iolayer.io_s", "s", "lower"),
    ("runtime.iolayer.retries", "count", "lower"),
    ("runtime.iolayer.calls", "count", "lower"),
    ("runtime.shards.locks", "count", "lower"),
    ("runtime.shards.lock_wait_s", "s", "lower"),
    ("runtime.shards.calls", "count", "lower"),
    ("service.queue.enqueue_s", "s", "lower"),
    ("service.queue.claim_s", "s", "lower"),
    ("service.queue.claims", "count", "lower"),
    ("service.queue.empty_claims", "count", "lower"),
    ("service.queue.complete_s", "s", "lower"),
    ("service.queue.records_read_per_claim", "ratio", "lower"),
    ("service.queue.calls", "count", "lower"),
    ("service.worker.job_s", "s", "lower"),
    ("service.worker.warm_completes", "count", "higher"),
    ("service.worker.runs_executed", "count", "lower"),
    ("service.worker.calls", "count", "lower"),
    ("service.jobs.policies_built", "count", "lower"),
    ("service.service.submit_s", "s", "lower"),
    ("service.service.coalesced_share", "ratio", "higher"),
    ("service.service.calls", "count", "lower"),
    ("service.http.submit_s", "s", "lower"),
    ("service.http.stream_s", "s", "lower"),
    ("service.http.encode_s", "s", "lower"),
    ("service.http.handler_s", "s", "lower"),
    ("service.http.wait_s", "s", "lower"),
    ("service.http.calls", "count", "lower"),
]


#: Counts that legitimately vary between identical ops: job records carry
#: wall-clock lease stamps, whose decimal length changes the bytes moved.
VARIABLE_COUNTS = ("runtime.iolayer.read_bytes", "runtime.iolayer.write_bytes")


def is_count(name: str) -> bool:
    """Counts must repeat exactly for the same code and seed; times need not."""
    return not name.endswith("_s") and name not in VARIABLE_COUNTS
