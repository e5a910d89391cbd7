"""Differential correctness checks: prove every engine agrees on a scenario.

The repo maintains two implementations of its hottest paths — scalar
reference code (:func:`~repro.models.detector.detect`, per-frame
:func:`~repro.vision.rendering.render_frame` via
:func:`~repro.data.generator.generate_frames`) and vectorized engines
(:func:`~repro.models.detector.detect_batch`, the segment-batched
:func:`~repro.data.generator.render_scenario`) — plus an on-disk trace
store that must round-trip losslessly.  Hand-written equality tests cover
the ten library flights; this module turns *any* scenario into a
cross-engine correctness witness:

``render``
    scalar per-frame rendering vs the segment-batched renderer —
    bit-identical pixels, scenes, truths, difficulties, and metadata;
``detect``
    scalar ``detect`` vs ``detect_batch`` — bit-identical outcomes for
    every model on every frame;
``store``
    save -> load through :class:`TraceStore` — persisted outcomes reload
    exactly and lazily, identity validation passes — and one single-model
    run through a :class:`~repro.runtime.runstore.RunStore` — its records
    reload exactly and its stored metrics equal the run's aggregate;
``trace``
    trace invariants — monotone frame indices and timestamps, aligned
    outcome lengths, confidence/IoU/quality bounds, detection-flag
    consistency, NCC well-formedness;
``run``
    scheduler/runtime invariants — a policy pass over the trace yields
    monotone frame indices, non-negative latency/energy components, and
    in-range scores;
``fastrun``
    fast-run engine vs the reference pipeline — the planned-jitter
    engine, cached context signals, and vectorized scheduler must
    reproduce every :class:`~repro.core.records.FrameRecord` of the
    scalar reference path bit-for-bit, for SHIFT and the baselines;
``service``
    the concurrent sweep service vs the serial run loop — several
    overlapping requests served over a multi-worker
    :class:`~repro.service.SweepService` must return metrics
    field-for-field identical to direct serial runs, execute each
    deduplicated (policy, scenario) job at most once, and corrupt no
    store entries.
``faults``
    crash safety of the on-disk queue tier — a seeded fault plan
    (worker kills, heartbeat stalls, torn writes) replayed against a
    fleet of queue workers must lose no job, duplicate no committed
    effect, quarantine every corrupt entry, and leave a run store
    bit-identical to serial execution (:mod:`repro.verify.faults`).
``http``
    the network tier vs the serial run loop — a sweep submitted to a
    live :class:`~repro.service.SweepHTTPServer` over real localhost
    sockets must stream wire rows field-for-field identical to serial
    runs, reject a submit beyond the admission bound with a prompt
    429 + ``Retry-After`` (never a hang), and warm re-serve the same
    rows across a full server restart with zero runs and zero trace
    builds;
``fsfaults``
    disk-fault tolerance of the queue tier — a seeded filesystem fault
    plan (ENOSPC, EIO, partial writes, lost renames, slow I/O) armed
    while a fleet drains must lose no job, dead-letter none for pure
    disk pressure, quarantine every torn entry, recover every degraded
    root, and leave a run store bit-identical to serial execution
    (:mod:`repro.verify.fsfaults`).

Each check returns a :class:`CheckResult`; :func:`verify_scenario` runs a
selection of them against one scenario, sharing the trace build.  The fuzz
driver (:mod:`repro.verify.fuzz`) sweeps generated scenario matrices
through the full suite.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field, fields
from functools import lru_cache
from pathlib import Path
from collections.abc import Callable, Sequence

import numpy as np

from ..baselines.marlin import MarlinPolicy
from ..baselines.single_model import SingleModelPolicy
from ..data.generator import generate_frames, scenario_scenes
from ..data.scenario import Scenario
from ..models.detector import DetectionOutcome, detect
from ..models.zoo import ModelZoo, default_zoo
from ..core.policy import Policy
from ..core.records import FrameRecord
from ..runtime import colfmt
from ..runtime.metrics import RunMetrics, aggregate
from ..runtime.runner import run_policy
from ..runtime.runstore import RunKey, RunStore
from ..runtime.store import TraceStore
from ..runtime.trace import ScenarioTrace
from ..sim.soc import xavier_nx_with_oakd

# All check names, in the order verify_scenario runs them.
CHECKS = (
    "render", "detect", "store", "trace", "run", "fastrun", "service",
    "faults", "http", "fsfaults",
)

# Tolerance for NCC leaving [-1, 1] through floating-point rounding.
_NCC_SLACK = 1e-9


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one differential check on one scenario."""

    check: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{self.check}: {status}{suffix}"


@dataclass
class ScenarioReport:
    """All check results for one scenario."""

    scenario_name: str
    fingerprint: str
    frames: int
    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every check passed."""
        return all(result.passed for result in self.results)

    def failures(self) -> list[CheckResult]:
        """The failing checks, if any."""
        return [result for result in self.results if not result.passed]


def _fail(check: str, detail: str) -> CheckResult:
    return CheckResult(check=check, passed=False, detail=detail)


def _ok(check: str) -> CheckResult:
    return CheckResult(check=check, passed=True)


def check_render_equality(scenario: Scenario, trace: ScenarioTrace | None = None) -> CheckResult:
    """Scalar per-frame rendering must equal the segment-batched renderer."""
    batched = trace.frames if trace is not None else None
    if batched is None:
        from ..data.generator import render_scenario

        batched = render_scenario(scenario)
    count = 0
    for scalar, fast in zip(generate_frames(scenario), batched, strict=False):
        where = f"frame {scalar.index}"
        if not np.array_equal(scalar.image, fast.image):
            return _fail("render", f"{where}: pixels differ between scalar and batched renderer")
        if scalar.scene != fast.scene:
            return _fail("render", f"{where}: scene states differ")
        if scalar.ground_truth != fast.ground_truth:
            return _fail("render", f"{where}: ground-truth boxes differ")
        if scalar.difficulty != fast.difficulty:
            return _fail("render", f"{where}: difficulties differ")
        if (scalar.index, scalar.timestamp, scalar.segment) != (
            fast.index, fast.timestamp, fast.segment
        ):
            return _fail("render", f"{where}: frame metadata differs")
        count += 1
    if count != scenario.total_frames or len(batched) != scenario.total_frames:
        return _fail(
            "render",
            f"frame counts differ: scalar {count}, batched {len(batched)}, "
            f"scenario {scenario.total_frames}",
        )
    return _ok("render")


# Outcome fields a ``detect`` divergence is named by first, in the order
# the detector derives them: the latent quality (shared and private noise
# streams), the target box (its offset and scale streams), then the
# reported confidence (the calibration stream).
_LEADING_OUTCOME_FIELDS = ("quality", "box", "confidence")


def _first_difference(
    ours, theirs, names: Sequence[str], labels: tuple[str, str]
) -> str | None:
    """The first of ``names`` that differs, with both values; None when none does.

    ``ours`` and ``theirs`` are records read by attribute, or dicts by key.
    Equal values of different types (a ``numpy.float64`` against a
    ``float``) differ too, and the detail names both types: every tier
    must hand out the same objects, not merely equal ones.
    """
    value = dict.get if isinstance(ours, dict) else getattr
    for name in names:
        mine, other = value(ours, name), value(theirs, name)
        if mine != other:
            return f"{name} differs: {labels[0]} {mine!r}, {labels[1]} {other!r}"
        if type(mine) is not type(other):
            return (f"{name} differs in type: {labels[0]} {_type_name(mine)}, "
                    f"{labels[1]} {_type_name(other)} (both {mine!r})")
    if ours != theirs:
        return f"{labels[0]} and {labels[1]} differ"
    return None


def _type_name(value) -> str:
    """``float`` for a builtin type, ``numpy.float64`` for any other."""
    kind = type(value)
    return kind.__qualname__ if kind.__module__ == "builtins" else f"{kind.__module__}.{kind.__qualname__}"


#: Outcome fields in the order a divergence is named: the leading three, then the rest.
_OUTCOME_FIELDS = (
    *_LEADING_OUTCOME_FIELDS,
    *(f.name for f in fields(DetectionOutcome) if f.name not in _LEADING_OUTCOME_FIELDS),
)
#: Run record and metrics fields, in declaration order.
_RECORD_FIELDS = tuple(f.name for f in fields(FrameRecord))
_METRICS_FIELDS = tuple(f.name for f in fields(RunMetrics))


def _store_drift(
    saved: Sequence, loaded: Sequence, names: Sequence[str], where: str, noun: str
) -> str | None:
    """Where ``loaded`` first differs from ``saved``: the frame and the field, or None."""
    if len(loaded) != len(saved):
        return f"{where}: {len(loaded)} {noun} came back for {len(saved)}"
    for index, (ours, theirs) in enumerate(zip(saved, loaded)):
        difference = _first_difference(ours, theirs, names, ("saved", "loaded"))
        if difference is not None:
            return f"{where}, frame {index}: {noun} changed through the store: {difference}"
    return None


def check_detect_equality(
    scenario: Scenario, zoo: ModelZoo, trace: ScenarioTrace
) -> CheckResult:
    """Scalar ``detect`` must equal the batched sweep for every model/frame.

    A failure names the model, the frame and the first differing outcome
    field with both values, so a kernel regression points at its stream.
    """
    scenes = scenario_scenes(scenario)
    for spec in zoo:
        batched = trace.outcomes.get(spec.name)
        if batched is None or len(batched) != len(scenes):
            return _fail("detect", f"model {spec.name!r}: trace missing or misaligned")
        for index, scene in enumerate(scenes):
            scalar = detect(spec, scene, (scenario.seed, index))
            difference = _first_difference(
                scalar, batched[index], _OUTCOME_FIELDS, ("scalar", "batched")
            )
            if difference is not None:
                return _fail("detect", f"model {spec.name!r}, frame {index}: {difference}")
    return _ok("detect")


def check_store_roundtrip(
    trace: ScenarioTrace, zoo: ModelZoo, store_root: str | Path | None = None
) -> CheckResult:
    """A persisted trace and run must reload bit-identically.

    The trace goes through a :class:`TraceStore` and must reload lazy on
    frames and on outcomes; one single-model run over a traced model goes
    through a :class:`~repro.runtime.runstore.RunStore` (under
    ``_runs/``) and must reload every record, with ``load_metrics`` equal
    to :func:`~repro.runtime.metrics.aggregate` of the run.  A failure
    names the model, the frame and the first differing field with both
    values.
    """
    scenario = trace.scenario

    def roundtrip(root: Path) -> CheckResult:
        store = TraceStore(root)
        path = store.save(trace, zoo)
        if path.suffix != colfmt.COL_SUFFIX or not path.exists():
            return _fail("store", f"save produced no .col file at {path}")
        loaded = store.load(scenario, zoo)
        if loaded is None:
            return _fail("store", "saved trace did not load back")
        if loaded.frame_count != trace.frame_count:
            return _fail(
                "store",
                f"frame count changed through the store: "
                f"{trace.frame_count} -> {loaded.frame_count}",
            )
        if loaded.frames_materialized:
            return _fail("store", "loaded trace rendered eagerly (must stay lazy)")
        if list(loaded.outcomes) != list(trace.outcomes):
            return _fail("store", "model set or order changed through the store")
        for model, rows in trace.outcomes.items():
            drift = _store_drift(
                rows, loaded.outcomes[model], _OUTCOME_FIELDS, f"model {model!r}", "outcomes"
            )
            if drift is not None:
                return _fail("store", drift)
        if store.load(scenario, zoo).outcomes_materialized:
            return _fail("store", "load decoded outcomes eagerly (must stay lazy)")
        return _run_roundtrip(trace, zoo, root / "_runs")

    if store_root is not None:
        return roundtrip(Path(store_root))
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
        return roundtrip(Path(tmp))


def _run_roundtrip(trace: ScenarioTrace, zoo: ModelZoo, root: Path) -> CheckResult:
    """The run half of the ``store`` check: one single-model run through a RunStore."""
    models = trace.model_names()
    model = "yolov7-tiny" if "yolov7-tiny" in models else models[0]
    policy = SingleModelPolicy(model, "gpu")
    soc = xavier_nx_with_oakd()
    key = RunKey(policy.name, policy.fingerprint(), trace.scenario.fingerprint(),
                 zoo.fingerprint(), soc.fingerprint(), 1234)
    result = run_policy(policy, trace, soc=soc, engine_seed=key.engine_seed)
    store = RunStore(root)
    store.save(result, key)
    loaded = store.load(key)
    if loaded is None:
        return _fail("store", f"run of {model!r}: saved run did not load back")
    drift = _store_drift(result.records, loaded.records, _RECORD_FIELDS,
                         f"run of {model!r}", "records")
    if drift is not None:
        return _fail("store", drift)
    difference = _first_difference(
        aggregate(result), store.load_metrics(key), _METRICS_FIELDS, ("aggregate", "stored")
    )
    if difference is not None:
        return _fail("store", f"run of {model!r}: stored metrics differ: {difference}")
    return _ok("store")


def check_trace_invariants(trace: ScenarioTrace) -> CheckResult:
    """Structural invariants every trace must satisfy regardless of engine."""
    frames = trace.frames
    expected = trace.scenario.total_frames
    if len(frames) != expected:
        return _fail("trace", f"{len(frames)} frames rendered for {expected} scripted")
    previous_ts = -math.inf
    for i, frame in enumerate(frames):
        if frame.index != i:
            return _fail("trace", f"frame {i} carries index {frame.index} (must be monotone)")
        if frame.timestamp <= previous_ts:
            return _fail("trace", f"frame {i}: timestamp not strictly increasing")
        previous_ts = frame.timestamp
        if not 0.0 <= frame.difficulty <= 1.0:
            return _fail("trace", f"frame {i}: difficulty {frame.difficulty} outside [0, 1]")
    for model, rows in trace.outcomes.items():
        if len(rows) != expected:
            return _fail("trace", f"model {model!r}: {len(rows)} outcomes for {expected} frames")
        for i, outcome in enumerate(rows):
            where = f"model {model!r}, frame {i}"
            if not 0.0 <= outcome.confidence <= 1.0:
                return _fail("trace", f"{where}: confidence {outcome.confidence} outside [0, 1]")
            if not 0.0 <= outcome.iou <= 1.0:
                return _fail("trace", f"{where}: iou {outcome.iou} outside [0, 1]")
            if not 0.0 <= outcome.quality <= 1.0:
                return _fail("trace", f"{where}: quality {outcome.quality} outside [0, 1]")
            if outcome.detected and outcome.box is None:
                return _fail("trace", f"{where}: detected without a box")
            if not outcome.detected and (outcome.box is not None or outcome.iou != 0.0):
                return _fail("trace", f"{where}: non-detection carries a box or IoU")
            if outcome.false_positive and not outcome.detected:
                return _fail("trace", f"{where}: false positive without a detection")
    ncc = trace.consecutive_frame_ncc()
    if len(ncc) != max(0, expected - 1):
        return _fail("trace", f"NCC length {len(ncc)} for {expected} frames")
    if len(ncc) and (
        not np.all(np.isfinite(ncc))
        or float(np.min(ncc)) < -1.0 - _NCC_SLACK
        or float(np.max(ncc)) > 1.0 + _NCC_SLACK
    ):
        return _fail("trace", "consecutive-frame NCC left [-1, 1]")
    return _ok("trace")


def check_run_invariants(
    trace: ScenarioTrace, policy_factory: Callable[[], Policy] | None = None
) -> CheckResult:
    """Scheduler/runtime invariants over a full policy pass on the trace."""
    policy = policy_factory() if policy_factory is not None else SingleModelPolicy(
        "yolov7-tiny", "gpu"
    )
    result = run_policy(policy, trace)
    if result.frame_count != trace.frame_count:
        return _fail(
            "run", f"policy processed {result.frame_count} of {trace.frame_count} frames"
        )
    for i, record in enumerate(result.records):
        where = f"frame {i}"
        if record.frame_index != i:
            return _fail("run", f"{where}: record index {record.frame_index} (must be monotone)")
        for value, label in (
            (record.latency_s, "latency"),
            (record.inference_s, "inference time"),
            (record.stall_s, "stall time"),
            (record.overhead_s, "overhead"),
            (record.energy_j, "energy"),
        ):
            if not math.isfinite(value) or value < 0.0:
                return _fail("run", f"{where}: {label} {value} is negative or non-finite")
        if record.latency_s + 1e-12 < record.inference_s + record.stall_s:
            return _fail("run", f"{where}: latency smaller than its components")
        if not 0.0 <= record.confidence <= 1.0:
            return _fail("run", f"{where}: confidence {record.confidence} outside [0, 1]")
        if not 0.0 <= record.iou <= 1.0:
            return _fail("run", f"{where}: iou {record.iou} outside [0, 1]")
    return _ok("run")


@lru_cache(maxsize=1)
def _fast_run_shift_inputs():
    """One small characterization bundle + graph, shared process-wide.

    The fastrun check needs a real :class:`~repro.core.ShiftPipeline` —
    the policy the fast tier rewrites most aggressively — but must not
    re-run the offline phase per scenario.  A reduced validation set
    keeps the one-time cost small; the check compares fast vs reference
    *runs*, so the bundle's absolute quality is irrelevant as long as
    both paths consume the same one.
    """
    from ..characterization import characterize
    from ..core import ConfidenceGraph

    bundle = characterize(default_zoo(), xavier_nx_with_oakd(), validation_size=160)
    graph = ConfidenceGraph.build(bundle.observations)
    return bundle, graph


def default_fast_run_policy_factories(
    traced_models: Sequence[str] | None = None,
) -> list[Callable[[], Policy]]:
    """Fresh-policy factories covering every fast-tier rewrite.

    SHIFT exercises the cached context signal, the dense CG lookup, and
    the vectorized scheduler; Marlin the cached scene-change gate; the
    single-model baseline isolates the planned engine (it uses no context
    signal at all).  Factories return *fresh* instances — policies are
    stateful, and sharing one across the reference and fast runs would
    let state leak between the two sides of the comparison.

    ``traced_models`` restricts the set to policies the trace can serve:
    SHIFT (characterized against the default zoo) needs every default
    model present, Marlin/single need their own model.  Traces built from
    reduced zoos then still get a meaningful check — at minimum a
    single-model policy over the first traced model — instead of a
    mid-run ``KeyError``.
    """
    available = None if traced_models is None else set(traced_models)

    def covered(*models: str) -> bool:
        return available is None or all(model in available for model in models)

    def shift() -> Policy:
        from ..core import ShiftPipeline

        bundle, graph = _fast_run_shift_inputs()
        return ShiftPipeline(bundle, graph=graph)

    factories: list[Callable[[], Policy]] = []
    if covered(*default_zoo().names()):
        factories.append(shift)
    if covered("yolov7"):
        factories.append(lambda: MarlinPolicy("yolov7"))
    if covered("yolov7-tiny"):
        factories.append(lambda: SingleModelPolicy("yolov7-tiny", "gpu"))
    if not factories and available:
        fallback = sorted(available)[0]
        factories.append(lambda: SingleModelPolicy(fallback, "gpu"))
    return factories


def check_fast_run_equivalence(
    trace: ScenarioTrace,
    policy_factories: Sequence[Callable[[], Policy]] | None = None,
    engine_seed: int = 1234,
) -> CheckResult:
    """The fast-run engine must equal the reference pipeline bit-for-bit.

    Runs each policy twice over the same trace — once on the scalar
    reference path, once on the fast tier (planned engine, cached
    context, vectorized scheduler) — and demands full
    :class:`FrameRecord` equality on every frame.  On mismatch the
    detail names the policy, the frame and the first differing field
    with both values.
    """
    factories = (
        list(policy_factories)
        if policy_factories is not None
        else default_fast_run_policy_factories(trace.model_names())
    )
    for factory in factories:
        reference = run_policy(factory(), trace, engine_seed=engine_seed, fast=False)
        fast = run_policy(factory(), trace, engine_seed=engine_seed, fast=True)
        label = reference.policy_name
        if fast.policy_name != label or fast.scenario_name != reference.scenario_name:
            return _fail("fastrun", f"policy {label!r}: run identity differs")
        if fast.frame_count != reference.frame_count:
            return _fail(
                "fastrun",
                f"policy {label!r}: {fast.frame_count} fast frames vs "
                f"{reference.frame_count} reference frames",
            )
        for i, (ref_record, fast_record) in enumerate(zip(reference.records, fast.records, strict=True)):
            difference = _first_difference(
                ref_record, fast_record, _RECORD_FIELDS, ("reference", "fast")
            )
            if difference is not None:
                return _fail(
                    "fastrun", f"policy {label!r}, frame {i}: fast engine diverges: {difference}"
                )
    return _ok("fastrun")


def _service_specs(traced_models: Sequence[str]) -> list[str]:
    """Policy specs the service check runs, restricted to traced models."""
    models = list(traced_models)
    specs = []
    if "yolov7-tiny" in models:
        specs.append("single:yolov7-tiny@gpu")
    if "yolov7" in models:
        specs.append("marlin")
    if not specs and models:
        specs.append(f"single:{models[0]}@gpu")
    return specs


def check_service_equivalence(
    trace: ScenarioTrace,
    zoo: ModelZoo,
    engine_seed: int = 1234,
    workers: int = 4,
    request_count: int = 3,
) -> CheckResult:
    """The concurrent sweep service must equal serial runs field-for-field.

    Serves ``request_count`` overlapping requests (seeded subsets of the
    spec pool, every one containing this scenario) over a multi-worker
    :class:`~repro.service.SweepService` backed by a temp trace store
    pre-seeded with the trace, then demands: every returned
    :class:`~repro.runtime.metrics.RunMetrics` row equals the serial
    ``run_policy`` result exactly (a mismatch names the policy and the
    first differing field with both values), each deduplicated job
    executed at most once, and both stores stayed corruption-free.
    """
    from ..service import SweepRequest, SweepService, policy_resolver

    specs = _service_specs(trace.model_names())
    if not specs:
        return _fail("service", "trace covers no models a service policy could run")
    resolve = policy_resolver()
    serial = {
        spec: aggregate(run_policy(resolve(spec), trace, engine_seed=engine_seed, fast=True))
        for spec in specs
    }
    with tempfile.TemporaryDirectory(prefix="repro-service-") as tmp:
        store = TraceStore(Path(tmp) / "traces")
        store.save(trace, zoo)
        with SweepService(
            zoo=zoo,
            trace_store=store,
            run_store=Path(tmp) / "runs",
            workers=workers,
            engine_seed=engine_seed,
        ) as service:
            requests = [
                SweepRequest(
                    policies=tuple(specs[: 1 + (i % len(specs))]),
                    scenarios=(trace.scenario,),
                    request_id=f"verify-{i}",
                )
                for i in range(request_count)
            ]
            handles = service.serve(requests)
            for request, handle in zip(requests, handles, strict=True):
                rows = list(handle.results())
                if len(rows) != len(request.policies):
                    return _fail(
                        "service",
                        f"request {request.request_id}: {len(rows)} rows for "
                        f"{len(request.policies)} requested cells",
                    )
                for spec, scenario_name, metrics in rows:
                    if scenario_name != trace.scenario.name:
                        return _fail(
                            "service",
                            f"request {request.request_id}: row for {scenario_name!r} "
                            f"instead of {trace.scenario.name!r}",
                        )
                    difference = _first_difference(
                        serial[spec], metrics, _METRICS_FIELDS, ("serial", "service")
                    )
                    if difference is not None:
                        return _fail(
                            "service",
                            f"policy {spec!r}: service metrics diverge from the serial run: "
                            f"{difference}",
                        )
            if service.runs_executed > len(specs):
                return _fail(
                    "service",
                    f"{service.runs_executed} runs executed for {len(specs)} "
                    "deduplicated jobs (duplicate execution)",
                )
            if service.corrupt_entries:
                return _fail(
                    "service", f"{service.corrupt_entries} corrupt store entries"
                )
    return _ok("service")


def check_fault_tolerance(
    trace: ScenarioTrace,
    zoo: ModelZoo,
    engine_seed: int = 1234,
) -> CheckResult:
    """The queue tier must survive its seeded fault plan unscathed.

    Replays :func:`~repro.verify.faults.fault_plan_for_check` — two
    initial workers killed mid-job (one leaving a torn run-store file),
    every replacement stalling past its first lease — against an
    on-disk queue holding this scenario's unit jobs, then asserts the
    full contract: zero lost jobs, zero duplicate committed effects,
    corrupt entries quarantined, and every committed run field-for-field
    identical to serial execution.  Thread-mode workers keep the check
    cheap enough to run per scenario; the process form (real SIGKILL) is
    covered by ``TestProcessIntegration`` in ``tests/service/test_worker.py``
    and CI's ``fault-smoke`` job.
    """
    from .faults import run_fault_sweep

    specs = _service_specs(trace.model_names())
    if not specs:
        return _fail("faults", "trace covers no models a queue policy could run")
    with tempfile.TemporaryDirectory(prefix="repro-faults-") as tmp:
        outcome = run_fault_sweep(
            [trace.scenario],
            specs,
            Path(tmp),
            engine_seed=engine_seed,
            zoo=zoo,
            prebuilt=[trace],
        )
    if not outcome.passed:
        return _fail("faults", "; ".join(outcome.failures()))
    return _ok("faults")


def check_fs_fault_tolerance(
    trace: ScenarioTrace,
    zoo: ModelZoo,
    engine_seed: int = 1234,
) -> CheckResult:
    """The persistence tier must survive its seeded *disk* fault plan.

    Replays :func:`~repro.verify.fsfaults.fs_fault_plan_for_check` — an
    ENOSPC burst deep enough to degrade a root, an EIO, a partial write
    and a lost rename aimed at run entries, and one slow write — against
    a worker fleet draining this scenario's unit jobs, then asserts the
    degraded-mode contract: zero lost jobs, zero dead-letters from pure
    disk pressure, torn writes quarantined and never served, no root
    still degraded after recovery, and serial bit-equality once space
    returns.  The recovery pass between drains is the documented
    maintenance playbook (probe, scrub, re-offer, re-pend) exercised end
    to end.
    """
    from .fsfaults import run_fsfault_sweep

    specs = _service_specs(trace.model_names())
    if not specs:
        return _fail("fsfaults", "trace covers no models a queue policy could run")
    with tempfile.TemporaryDirectory(prefix="repro-fsfaults-") as tmp:
        outcome = run_fsfault_sweep(
            [trace.scenario],
            specs,
            Path(tmp),
            engine_seed=engine_seed,
            zoo=zoo,
            prebuilt=[trace],
        )
    if not outcome.passed:
        return _fail("fsfaults", "; ".join(outcome.failures()))
    return _ok("fsfaults")


def check_http_equivalence(
    trace: ScenarioTrace,
    zoo: ModelZoo,
    engine_seed: int = 1234,
    workers: int = 2,
) -> CheckResult:
    """The network tier must equal serial runs field-for-field over real sockets.

    Submits this scenario's spec pool to a live
    :class:`~repro.service.SweepHTTPServer` on an ephemeral localhost
    port (stores pre-seeded with the shared trace, like the ``service``
    check), streams the ndjson rows back through ``urllib``, and
    demands: every wire ``metrics`` dict equals
    :func:`~repro.service.http.metrics_to_dict` of the serial run
    exactly (a mismatch names the first differing key, in sorted order,
    with both values); a submit past the admission bound fails promptly
    with 429 + ``Retry-After`` (bounded by a socket timeout — a hang is
    a failure, not a wait); and a second server over the same stores —
    a full restart — re-serves identical rows with zero runs executed
    and zero traces built.
    """
    import json
    import urllib.error
    import urllib.request

    from ..data.scenario import register_scenario, scenario_by_name
    from ..service import (
        SweepFrontend,
        SweepService,
        policy_resolver,
        serve_in_thread,
    )
    from ..service.http import metrics_to_dict

    specs = _service_specs(trace.model_names())
    if not specs:
        return _fail("http", "trace covers no models a service policy could run")
    name = trace.scenario.name
    # The wire carries scenario *names*; make this one resolvable in the
    # (in-process) server.  Re-registering an identical scenario is a
    # no-op; a name collision with different content is a real finding.
    try:
        existing = scenario_by_name(name)
        if existing.fingerprint() != trace.scenario.fingerprint():
            return _fail(
                "http",
                f"scenario name {name!r} already resolves to different content",
            )
    except KeyError:
        register_scenario(trace.scenario)
    resolve = policy_resolver()
    serial = {
        spec: metrics_to_dict(aggregate(
            run_policy(resolve(spec), trace, engine_seed=engine_seed, fast=True)
        ))
        for spec in specs
    }
    payload = json.dumps({"requests": [
        {"policies": list(specs), "scenarios": [name], "id": "wire-0"},
        {"policies": list(specs[:1]), "scenarios": [name], "id": "wire-1"},
    ]}).encode("utf-8")

    def serve_round(tmp: Path) -> tuple[list[list[dict]], dict, str | None]:
        """One server lifetime: submit, probe admission, stream, stat."""
        frontend = SweepFrontend(
            SweepService(
                zoo=zoo,
                trace_store=TraceStore(tmp / "traces"),
                run_store=tmp / "runs",
                workers=workers,
                engine_seed=engine_seed,
            ),
            max_pending=2,
            default_deadline_s=120.0,
        )
        server = serve_in_thread(frontend)
        base = f"http://127.0.0.1:{server.port}"
        try:
            with urllib.request.urlopen(
                urllib.request.Request(f"{base}/v1/sweeps", data=payload), timeout=60
            ) as resp:
                ids = json.load(resp)["request_ids"]
            # Both requests hold the 2-slot admission table: the next
            # submit must be a prompt, typed rejection.
            try:
                urllib.request.urlopen(
                    urllib.request.Request(f"{base}/v1/sweeps", data=payload),
                    timeout=30,
                )
                return [], {}, "full admission table accepted a submit"
            except urllib.error.HTTPError as exc:
                if exc.code != 429:
                    return [], {}, f"expected 429 from a full server, got {exc.code}"
                if exc.headers.get("Retry-After") is None:
                    return [], {}, "429 rejection carried no Retry-After header"
            rows_per_request = []
            for request_id in ids:
                rows = []
                with urllib.request.urlopen(
                    f"{base}/v1/sweeps/{request_id}/results", timeout=120
                ) as resp:
                    for line in resp:
                        if line.strip():
                            record = json.loads(line)
                            if record.get("done"):
                                if record.get("error"):
                                    return [], {}, (
                                        f"{request_id} stream failed: {record['error']}"
                                    )
                            else:
                                rows.append(record)
                # Rows stream in completion order (nondeterministic under
                # concurrency); compare them as ordered sets of cells.
                rows.sort(key=lambda r: (r["policy_spec"], r["scenario"]))
                rows_per_request.append(rows)
            with urllib.request.urlopen(f"{base}/v1/stores/stats", timeout=60) as resp:
                stats = json.load(resp)
            return rows_per_request, stats, None
        finally:
            server.shutdown()
            server.server_close()
            frontend.close()

    with tempfile.TemporaryDirectory(prefix="repro-http-") as tmp_name:
        tmp = Path(tmp_name)
        store = TraceStore(tmp / "traces")
        store.save(trace, zoo)
        cold_rows, cold_stats, problem = serve_round(tmp)
        if problem:
            return _fail("http", f"cold serve: {problem}")
        warm_rows, warm_stats, problem = serve_round(tmp)
        if problem:
            return _fail("http", f"warm restart: {problem}")

    expected_counts = (len(specs), 1)
    for index, (rows, expect) in enumerate(zip(cold_rows, expected_counts)):
        if len(rows) != expect:
            return _fail(
                "http", f"request wire-{index}: {len(rows)} rows for {expect} cells"
            )
        for row in rows:
            if row["scenario"] != name:
                return _fail(
                    "http",
                    f"request wire-{index}: row for {row['scenario']!r} "
                    f"instead of {name!r}",
                )
            expected = serial[row["policy_spec"]]
            difference = _first_difference(
                expected, row["metrics"], sorted(set(expected) | set(row["metrics"])),
                ("serial", "wire"),
            )
            if difference is not None:
                return _fail(
                    "http",
                    f"policy {row['policy_spec']!r}: wire metrics diverge from the serial run: "
                    f"{difference}",
                )
    backend = cold_stats["backend"]
    if backend["runs_executed"] > len(specs):
        return _fail(
            "http",
            f"{backend['runs_executed']} runs executed for {len(specs)} "
            "deduplicated jobs (duplicate execution)",
        )
    if cold_stats["corrupt_entries"]:
        return _fail("http", f"{cold_stats['corrupt_entries']} corrupt store entries")
    warm_backend = warm_stats["backend"]
    if warm_backend["runs_executed"] or warm_backend["trace_builds"]:
        return _fail(
            "http",
            f"warm restart re-serve cost {warm_backend['runs_executed']} runs / "
            f"{warm_backend['trace_builds']} trace builds (expected 0 / 0)",
        )
    if warm_rows != cold_rows:
        return _fail("http", "warm restart wire rows diverged from the cold serve")
    return _ok("http")


def verify_scenario(
    scenario: Scenario,
    zoo: ModelZoo | None = None,
    checks: Sequence[str] = CHECKS,
    store_root: str | Path | None = None,
    trace: ScenarioTrace | None = None,
) -> ScenarioReport:
    """Run the selected differential checks against one scenario.

    The trace is built once (through the batched engines — they are the
    subject under test) and shared by every check.  ``store_root`` directs
    the store round-trip at a persistent directory (defaults to a
    temporary one); ``checks`` selects a subset of :data:`CHECKS`.
    """
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown!r}; available: {', '.join(CHECKS)}")
    if zoo is None:
        zoo = default_zoo()
    if trace is None:
        trace = ScenarioTrace.build(scenario, zoo)
    report = ScenarioReport(
        scenario_name=scenario.name,
        fingerprint=scenario.fingerprint(),
        frames=scenario.total_frames,
    )
    for check in CHECKS:
        if check not in checks:
            continue
        if check == "render":
            report.results.append(check_render_equality(scenario, trace))
        elif check == "detect":
            report.results.append(check_detect_equality(scenario, zoo, trace))
        elif check == "store":
            report.results.append(check_store_roundtrip(trace, zoo, store_root))
        elif check == "trace":
            report.results.append(check_trace_invariants(trace))
        elif check == "run":
            report.results.append(check_run_invariants(trace))
        elif check == "fastrun":
            report.results.append(check_fast_run_equivalence(trace))
        elif check == "service":
            report.results.append(check_service_equivalence(trace, zoo))
        elif check == "faults":
            report.results.append(check_fault_tolerance(trace, zoo))
        elif check == "http":
            report.results.append(check_http_equivalence(trace, zoo))
        elif check == "fsfaults":
            report.results.append(check_fs_fault_tolerance(trace, zoo))
    return report
