"""The repository's benchmark of record.

    python3 e2ebench/run.py --workload verify-cold --seed 1 --seconds 20 --trace 0

Runs one workload (``verify-cold``, ``audit-sweep`` or ``service-warm``;
see README.md) from the root of a checkout, checks every answer, prints
one line per percentile with its sample count, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics, measured with tracing off; ``--trace
1`` reports the per-layer metrics of a separate traced run.

Exit codes: 0 with a result; 1 when a percentile or cache-state check
fails; 2 when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

#: End-to-end metrics (every workload reports all of them) → unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verify_p50_ms": "ms",
    "verify_p90_ms": "ms",
    "verify_geomean_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MiB",
    "success_ratio": "ratio",
}

#: Per-layer metrics → unit. A layer the workload never calls reads 0.
PER_LAYER = {
    "datasets.build_ms": "ms",
    "query.parse_ms": "ms",
    "engine.one_step_ms": "ms",
    "engine.under_phase_ratio": "ratio",
    "compiler.compile_ms": "ms",
    "compiler.rules_emitted": "count",
    "compiler.memo_hit_ratio": "ratio",
    "reductions.reduce_ms": "ms",
    "reductions.rules_kept_ratio": "ratio",
    "solver.saturate_ms": "ms",
    "solver.transitions": "count",
    "solver.iterations": "count",
    "reconstruction.check_ms": "ms",
    "viz.dot_ms": "ms",
    "farm.scenarios_ms": "ms",
    "farm.lower_ms": "ms",
    "farm.job_p50_ms": "ms",
    "farm.job_p90_ms": "ms",
    "farm.worker_busy_ratio": "ratio",
    "farm.engine_hit_ratio": "ratio",
    "store.hit_ratio": "ratio",
    "store.fetch_ms": "ms",
    "service.handle_ms": "ms",
    "service.json_ms": "ms",
    "service.transport_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.self_coverage": "ratio",
}

WORKLOADS = ("verify-cold", "audit-sweep", "service-warm")
#: Traced wall the layer spans must explain on these workloads.
MIN_COVERAGE = {"verify-cold": 0.9, "audit-sweep": 0.9}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _module(workload):
    if workload == "verify-cold":
        import cold as module
    elif workload == "audit-sweep":
        import sweep as module
    else:
        import service as module
    return module


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro
    except ImportError as error:
        print(f"e2ebench: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"e2ebench: refusing to measure {repro.__file__}, not this checkout's src/",
              file=sys.stderr)
        return 2
    from stats import PercentileError
    from tracing import layer_metrics
    from workloads import CacheStateError

    module = _module(args.workload)
    # SIGTERM unwinds like an error, so the workload's finally blocks
    # stop the server and pool processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        if args.trace:
            out, tracer = module.run_traced(args.seed, args.seconds)
            values = dict.fromkeys(PER_LAYER, 0.0)
            values.update(layer_metrics(tracer))
            values.update(out.metrics)
            floor = MIN_COVERAGE.get(args.workload)
            if floor is not None and values["trace.self_coverage"] < floor:
                raise CacheStateError(
                    f"layer self times cover only {values['trace.self_coverage']:.1%} "
                    f"of the traced wall (need {floor:.0%})"
                )
            units = PER_LAYER
        else:
            out = module.run(args.seed, args.seconds)
            values = dict(out.metrics, success_ratio=out.success_ratio)
            units = END_TO_END
    except (PercentileError, CacheStateError) as error:
        print(f"e2ebench: {args.workload}: {error}", file=sys.stderr)
        return 1
    for note in out.notes:
        print(note)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
