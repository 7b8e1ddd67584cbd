"""Outside-in spans: restoration, self-time arithmetic, and coverage of
a verify's wall by the blocking-path layers."""

import json
import sys
import types

import pytest

import cold
from tracing import BLOCKING_PATH, LAYER_POINTS, Point, Tracer


def test_self_time_is_duration_minus_children_and_wrappers_are_removed(monkeypatch):
    import time as time_module

    fake = types.ModuleType("fake_layers")

    def inner():
        time_module.sleep(0.02)

    def outer():
        time_module.sleep(0.02)
        fake.inner()

    fake.inner, fake.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", fake)
    tracer = Tracer([Point("outer", "fake_layers", "outer"), Point("inner", "fake_layers", "inner")])
    with tracer:
        fake.outer()
    assert fake.outer is outer and fake.inner is inner
    (o,), (i,) = tracer.named("outer"), tracer.named("inner")
    assert i.parent == tracer.spans.index(o)
    assert o.self_seconds == pytest.approx(o.seconds - i.seconds)
    assert 0.015 < o.self_seconds < o.seconds
    assert tracer.coverage("outer", ["inner"]) == pytest.approx(i.seconds / o.seconds)


def test_wrappers_are_removed_when_the_traced_code_raises():
    from repro.verification.compiler import QueryCompiler

    original = QueryCompiler.__dict__["compile"]
    with pytest.raises(RuntimeError):
        with Tracer(LAYER_POINTS):
            assert QueryCompiler.__dict__["compile"] is not original
            raise RuntimeError("boom")
    assert QueryCompiler.__dict__["compile"] is original


def test_blocking_path_covers_cold_verify_wall():
    networks, instances = cold.setup()
    chosen = [i for i in instances if i.key.startswith("table1/t3") or i.network == "geant"][:6]
    tracer = Tracer(LAYER_POINTS)
    with tracer:
        cold._pass(networks, chosen)
    assert len(tracer.named("engine.verify")) == len(chosen)
    assert tracer.coverage("engine.verify", BLOCKING_PATH) >= 0.9


def test_blocking_path_covers_service_verify_wall():
    from repro.service.core import ServiceCore, ServiceRequest

    core = ServiceCore()
    warm = json.dumps({"network": "nordunet", "query": "<ip> [.#aar1] .* [.#ore1] <ip> 0"})
    core.handle(ServiceRequest("POST", "/verify", {}, warm.encode()))  # loads the network
    body = json.dumps({"network": "nordunet", "query": "<ip> [.#aar1] .* [.#cph1] <ip> 1"})
    tracer = Tracer(LAYER_POINTS)
    with tracer:
        response = core.handle(ServiceRequest("POST", "/verify", {}, body.encode()))
    assert response.status == 200
    assert tracer.named("compiler.compile") and tracer.named("viz.dot")
    assert tracer.coverage("service.handle", BLOCKING_PATH) >= 0.9
