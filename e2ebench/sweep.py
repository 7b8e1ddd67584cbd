"""``audit-sweep``: the 106-job nordunet per-link k=1 audit.

Every variant is a different network, so each job compiles from
scratch: this is the compile-per-variant path plus farm lowering
(``scenarios_to_jobs``), chunking and the process pool (2 workers,
triage off, interned core). ``worker_cache()`` is cleared before each
pass: forked workers would otherwise inherit warm engines.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

import gate
import stats
from tracing import LAYER_POINTS, LAYER_SPANS, Tracer
from workloads import (
    RunResult,
    peak_rss_mb,
    require,
    run_passes,
    seeded_order,
    timed_setups,
    tracing_overhead_ms,
)

WORKERS = 2
#: Building the 106 variant networks costs ~8 s, so a run sets up only
#: twice, to stay near 40 s.
SETUP_REPEATS = 2
#: A job's latency in a run is its median over at least this many
#: passes: single passes carry scheduler and copy-on-write spikes that
#: land on random jobs.
MIN_PASSES = 3
AUDIT_QUERY_NAME = "q000_ip_k0"


def setup() -> Tuple[List[Any], Dict[str, Dict[str, str]]]:
    """Build nordunet and its 106 single-link-failure variants; load the
    golden per-variant answers."""
    from repro.datasets import builtins
    from repro.farm import scenarios as farm_scenarios

    network = builtins.load_builtin("nordunet")
    query, expected = gate.sweep_expected()
    scenarios = farm_scenarios.link_audit_scenarios(network, [(AUDIT_QUERY_NAME, query)])
    if {s.name for s in scenarios} != set(expected):
        raise RuntimeError("the link audit no longer matches the golden sweep fixture")
    return scenarios, expected


def _pass(scenarios: List[Any], workers: int) -> Tuple[float, float, List[Any]]:
    """Lower and run one sweep: (pass wall, run_jobs wall, items)."""
    from repro.farm import pool
    from repro.farm import scenarios as farm_scenarios
    from repro.farm.cache import worker_cache
    from repro.farm.store import active_store

    worker_cache().clear()
    require(active_store() is None, "audit-sweep must run without an artifact store")
    start = time.perf_counter()
    jobs, payloads, prebuilt = farm_scenarios.scenarios_to_jobs(
        scenarios, config=pool.EngineConfig(triage="off", core="interned")
    )
    lowered = time.perf_counter()
    items = pool.run_jobs(jobs, payloads, max_workers=workers, prebuilt=prebuilt)
    end = time.perf_counter()
    return end - start, end - lowered, items


def _check(scenarios: List[Any], items: List[Any], expected: Dict[str, Dict[str, str]],
           out: RunResult) -> None:
    """Status and answer digest against the golden fixture; every
    SATISFIED witness replays on its variant network."""
    for scenario, item in zip(scenarios, items):
        want = expected[scenario.name]
        ok = (
            item is not None
            and item.result is not None
            and gate.result_ok(want["status"], item.result, scenario.network)
            and gate.answer_digest(item.result) == want["digest"]
        )
        out.record(ok)


def run(seed: int, seconds: float) -> RunResult:
    out = RunResult()
    (scenarios, expected), setup_s = timed_setups(setup, SETUP_REPEATS)
    samples: Dict[str, List[float]] = {}

    def one_pass(index: int) -> float:
        order = seeded_order(scenarios, seed, index)
        wall, _run_wall, items = _pass(order, WORKERS)
        _check(order, items, expected, out)
        for item in items:
            if item is not None:
                samples.setdefault(item.name, []).append(1000.0 * item.seconds)
        return wall

    walls = run_passes(seconds, one_pass, MIN_PASSES)
    out.percentiles([stats.median(v) for v in samples.values()], "audit-sweep per-job median verify")
    out.metrics.update(
        setup_s=setup_s,
        wall_s=stats.median(walls),
        verify_geomean_ms=stats.geomean_of_medians(samples),
        throughput_rps=sum(len(v) for v in samples.values()) / sum(walls),
        peak_rss_mb=peak_rss_mb(WORKERS),
    )
    out.notes.append(
        f"audit-sweep: {len(walls)} pass(es) of {len(scenarios)} jobs, "
        f"pass walls {[round(w, 3) for w in walls]} s"
    )
    return out


def run_traced(seed: int, seconds: float) -> Tuple[RunResult, Tracer]:
    """A 2-worker pass for the pool figures, then the same sweep
    in-process with one worker, untraced and traced."""
    from repro.farm.cache import worker_cache

    out = RunResult()
    tracer = Tracer(LAYER_POINTS)
    with tracer:
        scenarios, expected = setup()
    order = seeded_order(scenarios, seed, 0)
    _wall, run_wall, items = _pass(order, WORKERS)
    _check(order, items, expected, out)
    busy = sum(item.seconds for item in items if item is not None)
    out.metrics["farm.worker_busy_ratio"] = busy / (WORKERS * run_wall)

    def untraced() -> float:
        wall, _run_wall, items = _pass(order, 1)
        _check(order, items, expected, out)
        return wall

    def traced() -> float:
        with tracer, tracer.span("pass"):
            wall, _run_wall, items = _pass(order, 1)
        _check(order, items, expected, out)
        return wall

    out.metrics["trace.overhead_ms"] = tracing_overhead_ms(untraced, traced)
    cache_stats = worker_cache().stats
    lookups = cache_stats.engine_hits + cache_stats.engine_misses
    out.metrics["farm.engine_hit_ratio"] = cache_stats.engine_hits / lookups if lookups else 0.0
    worker_cache().clear()
    job_ms = [1000.0 * span.seconds for span in tracer.named("farm.job")]
    out.metrics["farm.job_p50_ms"] = stats.nearest_rank(job_ms, 50)
    out.metrics["farm.job_p90_ms"] = stats.nearest_rank(job_ms, 90)
    out.metrics["trace.self_coverage"] = tracer.coverage("pass", LAYER_SPANS)
    return out, tracer
