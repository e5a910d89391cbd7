"""Sweep requests, unit-job decomposition, and the policy-spec registry.

A :class:`SweepRequest` is what a service client asks for: a set of
policy *specs* (strings — the same vocabulary the CLI ``run``/``sweep``
commands use) crossed with a set of scenarios (names or live
:class:`~repro.data.scenario.Scenario` objects).  The service decomposes
each request into :class:`UnitJob` s — one (policy spec, scenario) pair
each — and deduplicates them across *all* in-flight requests by
``(spec, scenario fingerprint)``, so eight overlapping requests for the
same sweep cost one execution, not eight.

Policy specs resolve through :func:`policy_resolver`, which returns a
*fresh* policy instance per call — policies are stateful across a run,
so instances are never shared between concurrent jobs.  The CLI's
``_build_policy`` delegates here; there is exactly one spec registry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Sequence

from ..data.scenario import Scenario, scenario_by_name
from ..core.policy import Policy


class ServiceError(ValueError):
    """Raised for malformed requests, jobs files, or unresolvable specs."""


class ServiceBusy(ServiceError):
    """Loud, typed backpressure: the service cannot admit this request now.

    Raised when the admission queue is full or the service is closed —
    the two cases where the correct client behaviour is "back off and
    retry (or give up)", never "wait on a handle that will not resolve".
    ``retry_after`` (seconds, optional) is the server's backoff hint; the
    HTTP front-end forwards it as a ``Retry-After`` header on 429.
    """

    def __init__(self, message: str, *, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


#: The longest completion deadline a request may hold, in seconds: the
#: HTTP front-end's cap on a payload's ``deadline_s`` and on ``repro
#: serve --request-timeout``.
MAX_DEADLINE_S = 3600.0


def policy_resolver(
    bundle=None,
    graph=None,
    objective: str = "paper",
) -> Callable[[str], Policy]:
    """A spec -> fresh-policy resolver over the standard policy vocabulary.

    Specs: ``shift`` (needs ``bundle``; ``graph``/``objective`` optional),
    ``marlin``, ``marlin-tiny``, ``oracle-e``/``oracle-a``/``oracle-l``,
    and ``single:<model>[@<accelerator>]``.  Every call builds a new
    instance — required by concurrent execution, where two jobs may run
    the same spec at once.
    """

    def resolve(spec: str) -> Policy:
        from ..baselines import (
            MarlinPolicy,
            SingleModelPolicy,
            oracle_accuracy,
            oracle_energy,
            oracle_latency,
        )

        if spec == "shift":
            if bundle is None:
                raise ServiceError(
                    "policy spec 'shift' needs a characterization bundle; build the "
                    "resolver with policy_resolver(bundle=..., graph=...)"
                )
            from ..core import ShiftPipeline, config_for_objective

            return ShiftPipeline(bundle, config=config_for_objective(objective), graph=graph)
        if spec == "marlin":
            return MarlinPolicy("yolov7")
        if spec == "marlin-tiny":
            return MarlinPolicy("yolov7-tiny")
        if spec == "oracle-e":
            return oracle_energy()
        if spec == "oracle-a":
            return oracle_accuracy()
        if spec == "oracle-l":
            return oracle_latency()
        if spec.startswith("single:"):
            _, _, rest = spec.partition(":")
            model, _, accel = rest.partition("@")
            return SingleModelPolicy(model, accel or "gpu")
        raise ServiceError(
            f"unknown policy {spec!r}; try shift, marlin, marlin-tiny, oracle-e, "
            "oracle-a, oracle-l, or single:<model>[@<accelerator>]"
        )

    return resolve


def shift_bundle_resolver(path: str | Path, objective: str) -> Callable[[str], Policy]:
    """A :func:`policy_resolver` that serves ``shift`` from a saved bundle file.

    The ``--shift-bundle`` loader of ``repro work`` and ``serve --http
    --procs``: the bundle is loaded and its confidence graph built once,
    here, so every ``shift`` resolution shares them — the construction
    the experiment context uses, so shift run keys match the ones a
    foreground sweep derives.  A file that cannot be read or decoded is
    a :class:`ServiceError` naming it.
    """
    from ..characterization import BundleSchemaError, load_bundle
    from ..core import ConfidenceGraph

    try:
        bundle = load_bundle(path)
    except (BundleSchemaError, OSError) as exc:
        raise ServiceError(f"cannot load --shift-bundle {path}: {exc}") from exc
    return policy_resolver(
        bundle=bundle, graph=ConfidenceGraph.build(bundle.observations), objective=objective
    )


@dataclass(frozen=True)
class SweepRequest:
    """One client request: every policy spec over every scenario.

    ``scenarios`` entries may be names (resolved through
    :func:`~repro.data.scenario.scenario_by_name` at submit time) or live
    :class:`Scenario` objects (used as-is — what the differential harness
    does with unregistered generated flights).
    """

    policies: tuple[str, ...]
    scenarios: tuple[Scenario | str, ...]
    request_id: str = ""

    def __post_init__(self) -> None:
        if not self.policies:
            raise ServiceError(f"request {self.request_id or '<anonymous>'}: no policies")
        if not self.scenarios:
            raise ServiceError(f"request {self.request_id or '<anonymous>'}: no scenarios")

    def resolve_scenarios(self) -> list[Scenario]:
        """The request's scenarios as live objects, in request order."""
        resolved = []
        for entry in self.scenarios:
            if isinstance(entry, Scenario):
                resolved.append(entry)
            else:
                try:
                    resolved.append(scenario_by_name(entry))
                except KeyError as exc:
                    raise ServiceError(exc.args[0]) from exc
        return resolved


@dataclass(frozen=True)
class UnitJob:
    """One deduplicable unit of work: one policy spec over one scenario."""

    policy_spec: str
    scenario: Scenario
    # Content-derived dedup key, computed once (fingerprints hash segments).
    key: tuple[str, str] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (self.policy_spec, self.scenario.fingerprint()))


def decompose(request: SweepRequest) -> list[UnitJob]:
    """The request's unit jobs, policy-major in request order.

    Duplicate (spec, scenario) cells *within* the request collapse onto
    one job object (same identity, same key) — the cross-request dedup in
    the service then makes them one execution globally.
    """
    scenarios = request.resolve_scenarios()
    jobs: dict[tuple[str, str], UnitJob] = {}
    ordered: list[UnitJob] = []
    for spec in request.policies:
        for scenario in scenarios:
            job = UnitJob(policy_spec=spec, scenario=scenario)
            if job.key not in jobs:
                jobs[job.key] = job
            ordered.append(jobs[job.key])
    return ordered


def requests_from_payload(payload: object) -> list[SweepRequest]:
    """Parse a jobs-file payload into requests, failing loudly.

    Accepted shapes::

        [{"policies": [...], "scenarios": [...]}, ...]
        {"requests": [{"policies": [...], "scenarios": [...], "id": "r1"}, ...]}

    Every policy entry and scenario name must be a string; requests get
    positional ids (``request-<n>``) when none are given.
    """
    if isinstance(payload, dict):
        entries = payload.get("requests")
        if not isinstance(entries, list):
            raise ServiceError('jobs file object needs a "requests" list')
    elif isinstance(payload, list):
        entries = payload
    else:
        raise ServiceError("jobs file must be a JSON list or an object with a 'requests' list")
    if not entries:
        raise ServiceError("jobs file contains no requests")
    requests = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ServiceError(f"request #{index}: expected an object, got {type(entry).__name__}")
        policies = entry.get("policies")
        scenarios = entry.get("scenarios")
        for label, value in (("policies", policies), ("scenarios", scenarios)):
            if (
                not isinstance(value, list)
                or not value
                or not all(isinstance(item, str) and item for item in value)
            ):
                raise ServiceError(
                    f"request #{index}: {label!r} must be a non-empty list of strings"
                )
        request_id = entry.get("id", f"request-{index}")
        if not isinstance(request_id, str):
            raise ServiceError(f"request #{index}: 'id' must be a string")
        requests.append(
            SweepRequest(
                policies=tuple(policies),
                scenarios=tuple(scenarios),
                request_id=request_id,
            )
        )
    return requests


def load_jobs_file(path: str | Path) -> list[SweepRequest]:
    """Read and parse a jobs file; every failure is a :class:`ServiceError`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ServiceError(f"cannot read jobs file {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"jobs file {path} is not valid JSON: {exc}") from exc
    return requests_from_payload(payload)


def validate_specs(
    specs: Sequence[str], resolver: Callable[[str], Policy]
) -> None:
    """Resolve each unique spec once, surfacing unknown names before work starts."""
    for spec in dict.fromkeys(specs):
        resolver(spec)
