"""Self-tests of the benchmark itself; they start no subreg process.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

A reference check fed a deliberately wrong value must fail, and the
metric and workload names the benchmark prints must be the ones
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import check_modulus, check_report  # noqa: E402
from run import END_TO_END, PER_LAYER, TRACED_WALL, end_to_end_metrics, per_layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    EmptyOuterSet,
    catalog_reference,
    inline_piecewise,
    linear_a_modulus,
    max_power_law,
)

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _entry(value, trace=(), status="ok"):
    return {"value": value, "trace": [list(t) for t in trace], "status": status}


def _report(value, all_passed=True, violations=()):
    return {
        "constants": {"sr_q": _entry(value), "error_bound_modulus": _entry(value)},
        "all_passed": all_passed,
        "invariant_results": [],
        "criteria": {"implication_violations": list(violations)},
    }


def test_closed_forms():
    assert catalog_reference("half-square", 0.5).exact == 1.0
    assert catalog_reference("square", 1.0).exact == 0.0
    assert math.isinf(catalog_reference("identity", 0.25).exact)
    assert math.isclose(linear_a_modulus().exact, 2.0)
    assert math.isclose(max_power_law(2.0, 2, 0.5).exact, math.sqrt(2.0))
    assert max_power_law(3.0, 1, 1.0).exact == 3.0


def test_right_values_pass():
    assert check_modulus("sr_q", _entry(1.05), catalog_reference("half-square", 0.5)) == []
    assert check_modulus("sr_q", _entry(0.019), catalog_reference("square", 1.0)) == []
    assert check_modulus("sr_q", _entry(2.1), linear_a_modulus()) == []
    assert check_modulus("sr_q", _entry("inf", status="inconclusive"), EmptyOuterSet()) == []
    divergent = catalog_reference("identity", 0.25)
    rhos = [0.5, 0.25, 0.125]
    trace = [(r, divergent.shell_infimum(r) * 1.01) for r in rhos]
    assert check_modulus("sr_q", _entry(trace[-1][1], trace), divergent) == []
    assert check_report(_report(1.0), catalog_reference("half-square", 0.5), True) == []


def test_wrong_values_fail():
    assert check_modulus("sr_q", _entry(1.2), catalog_reference("half-square", 0.5))
    assert check_modulus("sr_q", _entry(0.03), catalog_reference("square", 1.0))
    assert check_modulus("sr_q", _entry(2.5), linear_a_modulus())
    assert check_modulus("sr_q", _entry(1.0), max_power_law(2.0, 2, 0.5))
    assert check_modulus("sr_q", _entry("inf", status="ok"), EmptyOuterSet())
    assert check_modulus("sr_q", _entry(0.0, status="inconclusive"), EmptyOuterSet())
    divergent = catalog_reference("identity", 0.25)
    below = [(0.5, divergent.shell_infimum(0.5) * 0.9)]
    assert check_modulus("sr_q", _entry(below[0][1], below), divergent)
    decreasing = [(0.5, 10.0), (0.25, 9.0)]
    assert check_modulus("sr_q", _entry(9.0, decreasing), divergent)
    ref = catalog_reference("half-square", 0.5)
    assert check_report(_report(1.0, all_passed=False), ref, True)
    assert check_report(_report(1.0, violations=[["b", "d"]]), ref, True)


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    layer = {name: unit for name, (unit, _) in PER_LAYER.items()}
    layer[TRACED_WALL] = "s"
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layer
    # catalog-full can be run by hand but is not declared (see README.md)
    assert [w["name"] for w in BENCHMARK["workloads"]] == [w for w in WORKLOADS if w != "catalog-full"]


def test_printed_metrics_are_the_declared_ones():
    printed = end_to_end_metrics([[1.0, 1.2]], [0.5], [80.0])
    assert set(printed) == {m["name"] for m in BENCHMARK["end_to_end"]}
    printed = per_layer_metrics([{}], [[1.0]])
    assert set(printed) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_seed_sets_only_the_schedule_seed():
    a, b = inline_piecewise(1), inline_piecewise(2)
    for x, y in zip(a, b):
        assert x.config["schedule"]["seed"] == 1 and y.config["schedule"]["seed"] == 2
        assert dict(x.config, schedule=None) == dict(y.config, schedule=None)


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
