"""Inputs and bookkeeping shared by the three workloads."""

from __future__ import annotations

import random
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

import stats

def draw_queries(draw: str, network: Any, seed: int) -> List[Any]:
    """One generated draw (see ``gate.DRAWS``) without the unconstrained
    query, which Table 1's t6 already covers."""
    from gate import DRAWS
    from repro.datasets.queries import generate_query_suite

    _network_name, count, bounds = DRAWS[draw]
    return generate_query_suite(
        network, count=count, seed=seed, failure_bounds=bounds, include_unconstrained=False
    )


@dataclass
class RunResult:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Human-readable lines printed before the JSON result.
    notes: List[str] = field(default_factory=list)

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def success_ratio(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0

    def percentiles(self, samples_ms: List[float], label: str) -> None:
        """Checked nearest-rank p50/p90 of ``samples_ms`` into the metrics."""
        for percent in (50, 90):
            found = stats.checked_percentile(samples_ms, percent)
            self.metrics[f"verify_p{percent}_ms"] = found["value"]
            self.notes.append(
                f"{label} p{percent} = {found['value']:.3f} ms over {found['samples']} "
                f"samples ({found['beyond']} beyond; rank window "
                f"{found['low']:.3f}–{found['high']:.3f} ms)"
            )


def timed_setups(setup: Callable[[], Any], repeats: int) -> tuple:
    """Run ``setup`` ``repeats`` times; (last result, median seconds)."""
    walls = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = setup()
        walls.append(time.perf_counter() - start)
    return result, stats.median(walls)


def run_passes(seconds: float, one_pass: Callable[[int], float], min_passes: int = 1) -> List[float]:
    """Run whole passes of fixed work: at least ``min_passes``, then more
    while the next one is predicted to end within ``seconds``; returns
    the pass walls."""
    walls: List[float] = []
    start = time.perf_counter()
    while True:
        walls.append(one_pass(len(walls)))
        elapsed = time.perf_counter() - start
        if len(walls) >= min_passes and elapsed + stats.median(walls) > seconds * 1.1:
            return walls


def tracing_overhead_ms(untraced: Callable[[], float], traced: Callable[[], float]) -> float:
    """Traced minus untraced wall of the same work, in ms. The passes run
    untraced, traced, traced, untraced, so a linear drift of the host's
    speed cancels out of the difference."""
    walls = [untraced(), traced(), traced(), untraced()]
    return 1000.0 * ((walls[1] + walls[2]) - (walls[0] + walls[3])) / 2


def seeded_order(items: List[Any], seed: int, salt: int) -> List[Any]:
    """``items`` in a pass-specific order drawn from the workload seed."""
    order = list(items)
    random.Random(seed * 1_000_003 + salt).shuffle(order)
    return order


def peak_rss_mb(worker_processes: int = 0) -> float:
    """Peak RSS of this process plus ``worker_processes`` times the
    largest waited-for child (pool or server workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker_processes * child) / 1024.0


def require(condition: bool, message: str) -> None:
    """A declared-state check the run must not survive failing."""
    if not condition:
        raise CacheStateError(message)


class CacheStateError(RuntimeError):
    """The run's declared cache state did not hold."""
