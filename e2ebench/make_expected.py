"""Build ``expected_draws.json``: the expected verdict of every query in
the benchmark's generated draws.

A verdict is recorded only when the dual engine and the Moped baseline
(``moped_engine``: exhaustive pre*, a different saturation direction and
fixpoint) agree on it, and the weighted engine the benchmark also runs
reaches the same status. Run from the repository root::

    python3 e2ebench/make_expected.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from gate import DEFAULT_DRAW, DRAW_SEEDS, DRAWS, EXPECTED_DRAWS, HELD_OUT_DRAW  # noqa: E402
from workloads import draw_queries  # noqa: E402


def main() -> int:
    from repro.datasets.builtins import load_builtin
    from repro.verification.engine import dual_engine, moped_engine, weighted_engine

    draws = {}
    for seed in DRAW_SEEDS:
        per_draw = {}
        for draw, (network_name, _count, _bounds) in DRAWS.items():
            network = load_builtin(network_name)
            answers = {}
            for query in draw_queries(draw, network, seed):
                dual = dual_engine(network).verify(query.text).status.value
                moped = moped_engine(network).verify(query.text).status.value
                weighted = weighted_engine(network).verify(query.text).status.value
                if not dual == moped == weighted:
                    print(f"disagreement on {draw}/{seed}/{query.name}: dual={dual} "
                          f"moped={moped} weighted={weighted}", file=sys.stderr)
                    return 1
                answers[query.name] = [query.text, dual]
                print(f"draw {seed} {draw} {query.name}: {dual}", file=sys.stderr)
            per_draw[draw] = answers
        draws[str(seed)] = per_draw
    document = {
        "about": "Expected verdicts of the generated query draws "
        "(generate_query_suite with include_unconstrained=False; network, count and "
        f"failure bounds per draw: {DRAWS}); "
        f"draw {DEFAULT_DRAW} is the default, draw {HELD_OUT_DRAW} the held-out one. "
        "Each verdict is one dual_engine, moped_engine and weighted_engine agree on.",
        "draws": draws,
    }
    with open(EXPECTED_DRAWS, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
