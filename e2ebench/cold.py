"""``verify-cold``: one-shot operator questions, every one compiled from
scratch.

Inputs: the six Table-1 nordunet queries plus the generated draws on
nordunet and geant, each answered once by ``dual_engine`` and once by
``weighted_engine`` (failures). Cache state: a fresh engine per
instance, ``worker_cache()`` cleared, no artifact store; checked on
every pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import gate
import stats
from tracing import LAYER_POINTS, LAYER_SPANS, Tracer
from workloads import (
    RunResult,
    draw_queries,
    peak_rss_mb,
    require,
    run_passes,
    seeded_order,
    timed_setups,
    tracing_overhead_ms,
)

ENGINES = ("dual", "weighted")
#: Set-up takes ~0.1 s here, where timer noise is relatively large; five
#: repetitions steady its median.
SETUP_REPEATS = 5
DRAWS = ("nordunet", "geant")
#: Far above any instance's cold time; a verify that hits it is a failure.
TIMEOUT_SECONDS = 60.0


@dataclass(frozen=True)
class Instance:
    key: str
    network: str
    engine: str
    query: str
    expected: str


def setup() -> Tuple[Dict[str, Any], List[Instance]]:
    """Build the networks, load the expected answers and check that the
    generator still draws the committed queries."""
    from repro.datasets import builtins

    networks = {gate.DRAWS[draw][0]: builtins.load_builtin(gate.DRAWS[draw][0]) for draw in DRAWS}
    instances: List[Instance] = []
    for name, (text, status) in gate.table1_expected().items():
        instances += [Instance(f"table1/{name}/{e}", "nordunet", e, text, status) for e in ENGINES]
    draws = gate.draws_expected()
    for seed in gate.DRAW_SEEDS:
        for draw in DRAWS:
            network_name = gate.DRAWS[draw][0]
            expected = draws[str(seed)][draw]
            drawn = {q.name: q.text for q in draw_queries(draw, networks[network_name], seed)}
            if drawn != {name: entry[0] for name, entry in expected.items()}:
                raise RuntimeError(
                    "generate_query_suite no longer draws the committed queries "
                    f"(draw {seed}, {draw}); rebuild expected_draws.json"
                )
            for name, (text, status) in sorted(expected.items()):
                instances += [
                    Instance(f"draw{seed}/{draw}/{name}/{e}", network_name, e, text, status)
                    for e in ENGINES
                ]
    return networks, instances


def _verify(networks: Dict[str, Any], instance: Instance) -> Tuple[Optional[Any], float, Any]:
    """One cold verify: (result or None on failure, seconds, engine)."""
    from repro.errors import ReproError
    from repro.verification.engine import dual_engine, weighted_engine

    factory = dual_engine if instance.engine == "dual" else weighted_engine
    start = time.perf_counter()
    engine = factory(networks[instance.network])
    try:
        result = engine.verify(instance.query, timeout_seconds=TIMEOUT_SECONDS)
    except ReproError:
        result = None
    return result, time.perf_counter() - start, engine


def _check_cold_state() -> None:
    from repro.farm.cache import worker_cache
    from repro.farm.store import active_store

    worker_cache().clear()
    require(active_store() is None, "verify-cold must run without an artifact store")


def _pass(networks: Dict[str, Any], order: List[Instance]) -> Tuple[float, List[tuple]]:
    """Verify every instance once: (pass wall, per-instance answers)."""
    _check_cold_state()
    answers = []
    start = time.perf_counter()
    for instance in order:
        result, seconds, engine = _verify(networks, instance)
        answers.append((instance, result, 1000.0 * seconds, engine.compiler.memo_hits))
    return time.perf_counter() - start, answers


def _check(networks: Dict[str, Any], answers: List[tuple], out: RunResult) -> None:
    """Gate every answer after the clock stopped."""
    for instance, result, _ms, memo_hits in answers:
        require(memo_hits == 0, f"{instance.key}: compile memo hit on a cold engine")
        out.record(gate.result_ok(instance.expected, result, networks[instance.network]))


def run(seed: int, seconds: float) -> RunResult:
    out = RunResult()
    (networks, instances), setup_s = timed_setups(setup, SETUP_REPEATS)
    samples: Dict[str, List[float]] = {}

    def one_pass(index: int) -> float:
        wall, answers = _pass(networks, seeded_order(instances, seed, index))
        _check(networks, answers, out)
        for instance, _result, ms, _hits in answers:
            samples.setdefault(instance.key, []).append(ms)
        return wall

    walls = run_passes(seconds, one_pass)
    latencies = [value for values in samples.values() for value in values]
    out.percentiles(latencies, "verify-cold cold verify")
    out.metrics.update(
        setup_s=setup_s,
        wall_s=stats.median(walls),
        verify_geomean_ms=stats.geomean_of_medians(samples),
        throughput_rps=len(latencies) / sum(walls),
        peak_rss_mb=peak_rss_mb(),
    )
    out.notes.append(
        f"verify-cold: {len(walls)} pass(es) of {len(instances)} instances, "
        f"pass walls {[round(w, 3) for w in walls]} s"
    )
    return out


def run_traced(seed: int, seconds: float) -> Tuple[RunResult, Tracer]:
    """Untraced and traced passes over the same order, each over half
    the instances, so the four passes take about two measured ones."""
    out = RunResult()
    tracer = Tracer(LAYER_POINTS)
    with tracer:
        networks, instances = setup()
    order = seeded_order(instances, seed, 0)[: len(instances) // 2]

    def untraced() -> float:
        wall, answers = _pass(networks, order)
        _check(networks, answers, out)
        return wall

    def traced() -> float:
        with tracer, tracer.span("pass"):
            wall, answers = _pass(networks, order)
        _check(networks, answers, out)
        return wall

    out.metrics["trace.overhead_ms"] = tracing_overhead_ms(untraced, traced)
    out.metrics["trace.self_coverage"] = tracer.coverage("pass", LAYER_SPANS)
    return out, tracer
