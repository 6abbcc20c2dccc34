"""Seeded inputs and the metric names BENCHMARK.json declares."""

import json
from pathlib import Path

import run
import workloads

DECLARED = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_benchmark_json_declares_exactly_what_a_run_prints():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == run.per_layer_units()


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in run.WORKLOADS:
        assert workloads.make_inputs(name, 3) == workloads.make_inputs(name, 3)
        assert workloads.make_inputs(name, 3) != workloads.make_inputs(name, 4)


def test_weights_stay_inside_their_regimes():
    for seed in range(50):
        a, b = workloads.make_inputs("refine-r6", seed)["weight"]
        assert b > 5 * a
        a, b = workloads.make_inputs("oracle-r4", seed)["weight"]
        assert b > 24 * a
        session = workloads.make_inputs("session-r6", seed)
        regimes = {}
        for request in session["requests"]:
            if request["kind"] == "cells":
                a, b = request["weight"]
                regime = "dominant" if b > 5 * a else "intermediate" if b == 5 * a else "subasymptotic"
                assert request["regime"] == regime and b > 4 * a
                regimes[regime] = regimes.get(regime, 0) + 1
        assert regimes == workloads.SESSION_WEIGHTS


def test_session_request_mix():
    requests = workloads.make_inputs("session-r6", 1)["requests"]
    kinds = [r["kind"] for r in requests]
    assert kinds.count("element") + kinds.count("element-quick") == workloads.SESSION_ELEMENTS
    assert kinds.count("element-quick") == round(workloads.SESSION_ELEMENTS * workloads.QUICK_SHARE)
    assert kinds.count("knuth") == 1 and kinds[-1] == "knuth"
    assert kinds.count("area") == 1
    for kind in ("cells", "orbits-left", "orbits-right"):
        assert kinds.count(kind) == sum(workloads.SESSION_WEIGHTS.values())
