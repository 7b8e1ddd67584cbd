"""The correctness gate: expected verdicts, witness replay, and that a
flipped expectation shows up in ``success_ratio``."""

import json

import pytest

import cold
import gate
import service
from workloads import RunResult


@pytest.fixture(scope="module")
def cold_inputs():
    return cold.setup()


def _small(instances, count=4):
    return [i for i in instances if i.network == "geant"][:count]


def test_committed_draws_match_the_generator_and_cover_two_seeds(cold_inputs):
    _networks, instances = cold_inputs
    draws = gate.draws_expected()
    assert sorted(draws) == [str(gate.DEFAULT_DRAW), str(gate.HELD_OUT_DRAW)]
    statuses = {status for d in draws.values() for n in d.values() for _t, status in n.values()}
    assert statuses == {"satisfied", "unsatisfied"}
    # Table 1 twice (dual, weighted) plus both seeds of both cold draws.
    per_seed = sum(gate.DRAWS[draw][1] for draw in cold.DRAWS)
    assert len(instances) == 2 * (6 + 2 * per_seed)


def test_correct_answers_pass_the_gate(cold_inputs):
    networks, instances = cold_inputs
    out = RunResult()
    _wall, answers = cold._pass(networks, _small(instances))
    cold._check(networks, answers, out)
    assert out.attempted == 4 and out.success_ratio == 1.0


def test_a_flipped_expected_verdict_drives_success_below_one(cold_inputs):
    networks, instances = cold_inputs
    chosen = _small(instances)
    flip = {"satisfied": "unsatisfied", "unsatisfied": "satisfied"}
    chosen[0] = cold.Instance(chosen[0].key, chosen[0].network, chosen[0].engine,
                              chosen[0].query, flip[chosen[0].expected])
    out = RunResult()
    _wall, answers = cold._pass(networks, chosen)
    cold._check(networks, answers, out)
    assert out.failed == 1 and out.success_ratio == pytest.approx(0.75)


def test_a_witness_that_does_not_replay_fails(cold_inputs):
    from repro.model.trace import Trace

    networks, instances = cold_inputs
    satisfied = next(i for i in instances if i.network == "geant" and i.expected == "satisfied")
    result, _seconds, _engine = cold._verify(networks, satisfied)
    assert gate.result_ok("satisfied", result, networks["geant"])
    steps = result.trace.steps
    assert len(steps) >= 2
    backwards = Trace(steps[::-1])
    assert not gate.witness_replays(networks["geant"], backwards, result.failure_set, 0)
    # More failed links than the query's bound k is refused too.
    links = frozenset(networks["geant"].topology.links[:1])
    assert not gate.witness_replays(networks["geant"], result.trace, links, 0)


def test_http_responses_are_gated_on_code_status_and_trace():
    from repro.datasets.builtins import load_builtin
    from repro.service.core import ServiceCore, ServiceRequest

    network = load_builtin("nordunet")
    request = next(r for r in service.requests_pool() if r.expected == "satisfied")
    response = ServiceCore().handle(ServiceRequest("POST", "/verify", {}, request.body))
    document = json.loads(response.body)
    ok = gate.response_ok(request.expected, response.status, document, network, request.max_failures)
    assert ok
    assert not gate.response_ok(request.expected, 500, document, network, request.max_failures)
    assert not gate.response_ok("unsatisfied", 200, document, network, request.max_failures)
    broken = dict(document, trace=document["trace"][:1] + document["trace"][2:])
    if len(document["trace"]) > 2:
        assert not gate.response_ok(request.expected, 200, broken, network, request.max_failures)
    unknown = dict(document, trace=[dict(document["trace"][0], link="no-such-link")])
    assert not gate.response_ok(request.expected, 200, unknown, network, request.max_failures)
