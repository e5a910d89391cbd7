"""Bench: store maintenance — scrub/gc throughput and the warm-hit guard.

The stores have a self-healing maintenance pass (``repro store
scrub|gc``).  Maintenance is only deployable if it is cheap
enough to cron and — the metamorphic contract — invisible to readers: a
full pass over a healthy store must leave every servable entry
bit-identical and must not regress the warm-hit path that
``BENCH_run_sweep`` prices (a warm sweep is a pure metrics reload, so
any per-entry cost maintenance adds would tax the whole suite).

Reported per entry so the numbers stay legible as stores grow:

``scrub``
    re-verify every entry file under its shard lock (parse + payload
    validation + digest recomputation);
``gc (dry run)``
    age inventory of quarantine/temp artifacts — the cron'd default;
``warm hit``
    ``RunStore.load_metrics`` over the full key set, timed before and
    after the maintenance pass — the guarded ratio.
"""

from repro.data.grammar import ScenarioMatrix
from repro.models import default_zoo
from repro.runtime import RunKey, RunStore, ScenarioTrace, TraceStore, run_policy
from repro.service import policy_resolver
from repro.sim import xavier_nx_with_oakd

_MATRIX = ScenarioMatrix(
    name="mbench",
    compositions=(("loiter",), ("crossing",)),
    regimes=("day",),
    seeds=(5, 7, 11, 13),
    frame_budgets=(64,),
)

_SPECS = ("marlin-tiny", "single:yolov7-tiny@gpu")
_ENGINE_SEED = 1234


def test_store_maintenance_benchmark(report, best_of, tmp_path_factory):
    scenarios = _MATRIX.scenarios()
    zoo = default_zoo()
    resolve = policy_resolver()
    root = tmp_path_factory.mktemp("maint")
    trace_store = TraceStore(root / "traces")
    run_store = RunStore(root / "runs")
    soc_fp = xavier_nx_with_oakd().fingerprint()

    keys = []
    for scenario in scenarios:
        trace = ScenarioTrace.build(scenario, zoo)
        trace_store.save(trace, zoo)
        for spec in _SPECS:
            policy = resolve(spec)
            result = run_policy(policy, trace, engine_seed=_ENGINE_SEED, fast=True)
            key = RunKey(policy.name, policy.fingerprint(), scenario.fingerprint(),
                         zoo.fingerprint(), soc_fp, _ENGINE_SEED)
            run_store.save(result, key)
            keys.append(key)
    entries = len(keys)

    def warm_sweep():
        fresh = RunStore(root / "runs")
        loaded = [fresh.load_metrics(key) for key in keys]
        assert all(metrics is not None for metrics in loaded)
        return loaded

    warm_before_s, before = best_of(warm_sweep)

    def scrub():
        reports = [run_store.scrub(), trace_store.scrub()]
        assert all(r.quarantined == 0 and not r.problems for r in reports)
        return reports

    scrub_s, scrub_reports = best_of(scrub)
    checked = sum(r.entries_checked for r in scrub_reports)

    def gc_dry():
        reports = [run_store.gc(), trace_store.gc()]
        assert all(r.dry_run and r.bytes_reclaimed == 0 for r in reports)
        return reports

    gc_s, _ = best_of(gc_dry)

    # The guard: a full maintenance pass over a healthy store must leave
    # the warm-hit path intact — same bytes served, no latency cliff.
    warm_after_s, after = best_of(warm_sweep)
    assert after == before
    assert warm_after_s <= warm_before_s * 5.0, (
        f"maintenance regressed warm hits: {warm_before_s:.4f}s -> {warm_after_s:.4f}s"
    )

    per_scrub_ms = scrub_s / max(checked, 1) * 1e3
    per_warm_ms = warm_before_s / entries * 1e3
    lines = [
        f"store maintenance: {entries} run entries + {len(scenarios)} traces "
        f"({len(_SPECS)} specs x {len(scenarios)} scenarios)",
        f"  scrub            {scrub_s:8.4f}s  ({per_scrub_ms:.2f} ms/entry, "
        f"{checked} checked)",
        f"  gc (dry run)     {gc_s:8.4f}s",
        f"  warm hit before  {warm_before_s:8.4f}s  ({per_warm_ms:.2f} ms/entry)",
        f"  warm hit after   {warm_after_s:8.4f}s  "
        f"({warm_after_s / warm_before_s:.2f}x before)",
    ]
    report(
        "store_maintenance",
        "\n".join(lines),
        metrics={
            "entries": entries,
            "entries_checked": checked,
            "rounds": best_of.rounds,
            "scrub_s": round(scrub_s, 4),
            "per_scrub_ms": round(per_scrub_ms, 3),
            "gc_dry_s": round(gc_s, 4),
            "warm_before_s": round(warm_before_s, 4),
            "warm_after_s": round(warm_after_s, 4),
            "warm_ratio": round(warm_after_s / warm_before_s, 3),
        },
    )
