"""Outside-in layer tracing: spans recorded by wrapping each layer's
public entry point where its caller looks it up.

Nothing here edits the program's sources. :class:`Tracer` replaces a
module attribute (``repro.verification.engine.solve_reachability``) or
a class attribute (``QueryCompiler.compile``) with a recording wrapper
and restores the original on exit. A span holds its name, start, end,
parent span and optional counts; a layer's self time is its duration
minus its direct children's. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    child_seconds: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


#: Called after a wrapped call returns: (state from ``before``, call
#: args, call result) → counts to attach to the span.
After = Callable[[Any, Tuple[Any, ...], Any], Dict[str, float]]
Before = Callable[[Tuple[Any, ...]], Any]


@dataclass(frozen=True)
class Point:
    """One traced entry point: ``owner`` is a module path, optionally
    followed by ``:Class``; ``attr`` the attribute the caller looks up."""

    span: str
    owner: str
    attr: str
    before: Optional[Before] = None
    after: Optional[After] = None


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """Records spans for the :class:`Point` list it is installed with.

    Use as a context manager; wrappers are removed on exit even when the
    traced code raises.
    """

    def __init__(self, points: Iterable[Point]) -> None:
        self.points = list(points)
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(), parent=stack[-1] if stack else None)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, counts: Optional[Dict[str, float]] = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if counts:
            span.counts.update(counts)
        self._stack().pop()
        if span.parent is not None:
            self.spans[span.parent].child_seconds += span.seconds

    def span(self, name: str) -> "_SpanContext":
        """A span around a block of the benchmark's own code (a root)."""
        return _SpanContext(self, name)

    # -- installation --------------------------------------------------
    def _wrap(self, point: Point, original: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = point.before(args) if point.before is not None else None
            index = tracer.open(point.span)
            counts: Optional[Dict[str, float]] = None
            try:
                result = original(*args, **kwargs)
                if point.after is not None:
                    counts = point.after(state, args, result)
                return result
            finally:
                tracer.close(index, counts)

        return traced

    def __enter__(self) -> "Tracer":
        for point in self.points:
            owner = _resolve(point.owner)
            original = owner.__dict__[point.attr] if isinstance(owner, type) else getattr(owner, point.attr)
            self._saved.append((owner, point.attr, original))
            setattr(owner, point.attr, self._wrap(point, original))
        return self

    def __exit__(self, *_exc: object) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name and span.end]

    def self_ms_per_call(self, name: str) -> float:
        """Mean self time per call in ms (0.0 when never called)."""
        spans = self.named(name)
        if not spans:
            return 0.0
        return 1000.0 * sum(s.self_seconds for s in spans) / len(spans)

    def count_mean(self, name: str, key: str) -> float:
        """Mean of one count over the spans that carry it (0.0 if none)."""
        values = [s.counts[key] for s in self.named(name) if key in s.counts]
        return sum(values) / len(values) if values else 0.0

    def count_ratio(self, name: str, numerator: str, denominator: str) -> float:
        """Σ numerator / Σ denominator over the named spans (0.0 if none)."""
        spans = self.named(name)
        den = sum(s.counts.get(denominator, 0.0) for s in spans)
        num = sum(s.counts.get(numerator, 0.0) for s in spans)
        return num / den if den else 0.0

    def coverage(self, root: str, layers: Iterable[str]) -> float:
        """Share of the ``root`` spans' wall covered by the self time of
        the ``layers`` spans nested anywhere below them."""
        wanted = set(layers)
        roots = {i for i, s in enumerate(self.spans) if s.name == root and s.end}
        total = sum(self.spans[i].seconds for i in roots)
        if not total:
            return 0.0
        covered = 0.0
        for span in self.spans:
            if span.name in wanted and span.end and self._below(span, roots):
                covered += span.self_seconds
        return covered / total

    def _below(self, span: Span, roots: set) -> bool:
        parent = span.parent
        while parent is not None:
            if parent in roots:
                return True
            parent = self.spans[parent].parent
        return False


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> Span:
        self.index = self.tracer.open(self.name)
        return self.tracer.spans[self.index]

    def __exit__(self, *_exc: object) -> None:
        self.tracer.close(self.index)


# ----------------------------------------------------------------------
# the program's layers, wrapped where their callers look them up
# ----------------------------------------------------------------------


def _memo_hits(args: Tuple[Any, ...]) -> int:
    return args[0].memo_hits


def _compile_counts(hits_before: int, args: Tuple[Any, ...], compiled: Any) -> Dict[str, float]:
    return {
        "rules": float(compiled.pds.rule_count()),
        "memo_hit": float(args[0].memo_hits > hits_before),
        "calls": 1.0,
    }


def _reduce_counts(_state: Any, args: Tuple[Any, ...], result: Any) -> Dict[str, float]:
    system, _report = result
    return {"before": float(args[0].rule_count()), "after": float(system.rule_count())}


def _solve_counts(_state: Any, _args: Tuple[Any, ...], outcome: Any) -> Dict[str, float]:
    return {
        "transitions": float(outcome.stats.automaton_transitions),
        "iterations": float(outcome.stats.saturation_iterations),
    }


def _fetch_counts(_state: Any, _args: Tuple[Any, ...], value: Any) -> Dict[str, float]:
    return {"hit": float(value is not None), "calls": 1.0}


def _verify_counts(_state: Any, _args: Tuple[Any, ...], result: Any) -> Dict[str, float]:
    return {"under": float(result.stats.used_under_approximation), "calls": 1.0}


#: Every layer entry point the benchmark times, keyed by span name.
LAYER_POINTS: Tuple[Point, ...] = (
    Point("datasets.build", "repro.datasets.builtins", "load_builtin"),
    Point("datasets.build", "repro.server", "load_builtin"),
    Point("engine.verify", "repro.verification.engine:VerificationEngine", "verify",
          after=_verify_counts),
    Point("query.parse", "repro.verification.engine", "parse_query"),
    Point("engine.one_step", "repro.verification.engine", "find_one_step_witness"),
    Point("compiler.compile", "repro.verification.compiler:QueryCompiler", "compile",
          before=_memo_hits, after=_compile_counts),
    Point("reductions.reduce", "repro.pda.solver", "reduce_pushdown", after=_reduce_counts),
    Point("solver.saturate", "repro.verification.engine", "solve_reachability",
          after=_solve_counts),
    Point("reconstruction.check", "repro.verification.engine", "check_witness"),
    Point("viz.dot", "repro.server", "result_to_dot"),
    Point("farm.scenarios", "repro.farm.scenarios", "link_audit_scenarios"),
    Point("farm.lower", "repro.farm.scenarios", "scenarios_to_jobs"),
    Point("farm.run", "repro.farm.pool", "run_jobs"),
    Point("farm.job", "repro.farm.pool", "execute_job"),
    Point("store.fetch", "repro.farm.store:SharedArtifactStore", "get_object",
          after=_fetch_counts),
    Point("service.handle", "repro.service.core:ServiceCore", "handle"),
    Point("service.json", "repro.service.core", "json_response"),
)

#: The layers on one verify's blocking path, in pipeline order.
BLOCKING_PATH = (
    "query.parse",
    "engine.one_step",
    "compiler.compile",
    "reductions.reduce",
    "solver.saturate",
    "reconstruction.check",
    "viz.dot",
    "service.json",
)

#: Every layer span name (the coverage numerator's candidates).
LAYER_SPANS = tuple(dict.fromkeys(point.span for point in LAYER_POINTS))


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics one traced run yields (values only; the
    workload adds the farm, store and service figures it measures)."""
    return {
        "datasets.build_ms": tracer.self_ms_per_call("datasets.build"),
        "query.parse_ms": tracer.self_ms_per_call("query.parse"),
        "engine.one_step_ms": tracer.self_ms_per_call("engine.one_step"),
        "engine.under_phase_ratio": tracer.count_ratio("engine.verify", "under", "calls"),
        "compiler.compile_ms": tracer.self_ms_per_call("compiler.compile"),
        "compiler.rules_emitted": tracer.count_mean("compiler.compile", "rules"),
        "compiler.memo_hit_ratio": tracer.count_ratio("compiler.compile", "memo_hit", "calls"),
        "reductions.reduce_ms": tracer.self_ms_per_call("reductions.reduce"),
        "reductions.rules_kept_ratio": tracer.count_ratio("reductions.reduce", "after", "before"),
        "solver.saturate_ms": tracer.self_ms_per_call("solver.saturate"),
        "solver.transitions": tracer.count_mean("solver.saturate", "transitions"),
        "solver.iterations": tracer.count_mean("solver.saturate", "iterations"),
        "reconstruction.check_ms": tracer.self_ms_per_call("reconstruction.check"),
        "viz.dot_ms": tracer.self_ms_per_call("viz.dot"),
        "farm.scenarios_ms": tracer.self_ms_per_call("farm.scenarios"),
        "farm.lower_ms": tracer.self_ms_per_call("farm.lower"),
        "store.hit_ratio": tracer.count_ratio("store.fetch", "hit", "calls"),
        "store.fetch_ms": tracer.self_ms_per_call("store.fetch"),
        "service.handle_ms": tracer.self_ms_per_call("service.handle"),
        "service.json_ms": tracer.self_ms_per_call("service.json"),
    }
