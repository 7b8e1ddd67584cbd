"""The correctness gate behind ``success_ratio``.

Every attempt is compared with an expected verdict, and every SATISFIED
witness must replay on the network it came from under
:func:`repro.model.trace.check_trace` with at most ``k`` failed links.
Expected verdicts come from the repository's golden fixtures (read
only) and, for the generated query draws, from ``expected_draws.json``
next to this file (built by ``make_expected.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(ROOT, "tests", "integration", "golden")
EXPECTED_DRAWS = os.path.join(HERE, "expected_draws.json")

#: Draws of ``generate_query_suite`` the expected-answers file covers.
DEFAULT_DRAW = 0
HELD_OUT_DRAW = 1
DRAW_SEEDS = (DEFAULT_DRAW, HELD_OUT_DRAW)
#: The generated draws: name → (network, queries, the failure bounds k
#: the suite cycles through). ``verify-cold`` runs "nordunet" and
#: "geant"; ``service-warm`` picks its mix from "nordunet" and
#: "nordunet-mixed" (``service.MIX``). On nordunet, k ≥ 1
#: queries compile 300–570 ms cold, so the slowest fifth of cold
#: verifies is one dense class; 24 cheap geant queries put the cold
#: median inside geant's dense class. Both percentiles sit off any gap.
DRAWS = {
    "nordunet": ("nordunet", 12, (1, 2)),
    "geant": ("geant", 24, (0, 1, 2)),
    "nordunet-mixed": ("nordunet", 8, (0, 1, 2)),
}


def _load(path: str) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def table1_expected() -> Dict[str, Tuple[str, str]]:
    """Table-1 nordunet queries: name → (query text, expected status)."""
    golden = _load(os.path.join(GOLDEN, "nordunet.json"))
    return {name: (entry["query"], entry["dual"]["status"]) for name, entry in golden.items()}


def sweep_expected() -> Tuple[str, Dict[str, Dict[str, str]]]:
    """The nordunet link audit: (query text, scenario → status/digest)."""
    golden = _load(os.path.join(GOLDEN, "sweep_nordunet.json"))
    return golden["query"], golden["scenarios"]


def draws_expected() -> Dict[str, Dict[str, Dict[str, List[str]]]]:
    """draw seed → draw name → query name → [query text, expected status]."""
    return _load(EXPECTED_DRAWS)["draws"]


def answer_digest(result: Any) -> str:
    """The golden sweep fixtures' digest of one answer: status, weight,
    witness hop for hop and failure set, canonically serialized."""
    payload: Dict[str, Any] = {"status": result.status.value}
    if result.weight is not None:
        payload["weight"] = list(result.weight)
    if result.trace is not None:
        payload["trace"] = [
            {"link": step.link.name, "header": [str(label) for label in step.header.labels]}
            for step in result.trace.steps
        ]
        payload["failures"] = sorted(link.name for link in (result.failure_set or frozenset()))
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def witness_replays(network: Any, trace: Any, failed: Any, max_failures: int) -> bool:
    """Definition 4 replay of a witness with at most ``k`` failed links."""
    from repro.model.trace import check_trace

    failed = frozenset(failed or ())
    return len(failed) <= max_failures and check_trace(network, trace, failed)


def result_ok(expected_status: str, result: Any, network: Any) -> bool:
    """The status matches and a SATISFIED witness replays."""
    if result is None or result.status.value != expected_status:
        return False
    if expected_status != "satisfied":
        return True
    if result.trace is None:
        return False
    return witness_replays(network, result.trace, result.failure_set, result.query.max_failures)


def response_ok(
    expected_status: str,
    status_code: int,
    document: Optional[Dict[str, Any]],
    network: Any,
    max_failures: int,
) -> bool:
    """One ``/verify`` response: 200, expected status, replayable trace."""
    if status_code != 200 or document is None:
        return False
    if document.get("status") != expected_status:
        return False
    if expected_status != "satisfied":
        return True
    from repro.errors import ReproError
    from repro.model.header import Header
    from repro.model.trace import Trace, TraceStep

    try:
        trace = Trace(
            TraceStep(
                network.topology.link(step["link"]),
                Header(network.labels.require(text) for text in step["header"]),
            )
            for step in document["trace"]
        )
        failed = frozenset(network.topology.link(name) for name in document["failure_set"])
    except (KeyError, TypeError, ReproError):  # malformed or unknown links/labels
        return False
    return witness_replays(network, trace, failed, max_failures)
