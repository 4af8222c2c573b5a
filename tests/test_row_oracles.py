"""The row oracles against their one-point references, and how often a
run calls them.

``solution_distance``, ``fiber_distance``, ``param_of`` and
``param_window`` take rows; each must give every row the bits of the
one-point oracle it replaced, and every caller passes all the rows of
its table in one call.
"""

import dataclasses

import numpy as np
import pytest

import catalog_reference
import oracle_reference
import subreg.moduli as moduli
import subreg.problems as problems
import subreg.report as report
import subreg.slopes_dual as slopes_dual
import subreg.slopes_primal as slopes_primal
from subreg import (
    catalog_problem,
    finite_graph_problem,
    parse_config,
    piecewise_problem,
    run_config,
)

ROWS = 40_000

# a gap (1, 1.5), a zero piece and a cubic with a root, unsorted
_GAP_PIECES = [
    {"domain": [1.5, 2.0], "coeffs": [1.0, -2.0, 0.5, 0.25]},
    {"domain": [-1.0, 0.0], "coeffs": [0.0]},
    {"domain": [0.0, 1.0], "coeffs": [0.0, 0.0, 1.0]},
]
# x**2 on [-2, 2] read at ybar = 0.25: roots at -0.5 and 0.5
_ROOTS_PIECES = [{"domain": [-2.0, 2.0], "coeffs": [0.0, 0.0, 1.0]}]
# the README's inline half-square
_HALF_SQUARE_PIECES = [
    {"domain": [-1.0, 0.0], "coeffs": [0.0]},
    {"domain": [0.0, 2.0], "coeffs": [0.0, 0.0, 1.0]},
]
_INLINE = {
    "inline-gap": (_GAP_PIECES, 0.0, 0.0),
    "inline-roots": (_ROOTS_PIECES, 0.5, 0.25),
    "inline-half-square": (_HALF_SQUARE_PIECES, 0.0, 0.0),
}
_FINITE_POINTS = [([x], [max(x, 0.0) ** 2]) for x in np.linspace(-0.5, 0.5, 5).tolist()]


def _interval_window(t0, radius):
    return t0 - radius, t0 + radius


def _cases() -> dict:
    """Each problem with its one-point ``(param_window, param_of,
    solution_distance, fiber_distance)`` and the ends of its domain
    pieces (``None`` for a finite graph, which has no parameter)."""
    cases = {}
    for name, build in catalog_reference.CATALOG.items():
        ref = build()
        oracles = (ref.param_window, ref.param_of, ref.solution_distance, ref.fiber_distance)
        cases[name] = (catalog_problem(name), oracles, ())
    for label, matrix in (("linear-A", None), ("linear-A-rank-1", [[1.0, 2.0], [2.0, 4.0]])):
        sol, fib = oracle_reference.linear_distances(matrix)
        oracles = (_interval_window, lambda x, y: np.asarray(x, dtype=float), sol, fib)
        cases[label] = (catalog_problem("linear-A", matrix=matrix), oracles, ())
    halfline = oracle_reference.halfline_oracles()
    cases["halfline-convex"] = (catalog_problem("halfline-convex"), halfline, ())
    for label, (pieces, xbar, ybar) in _INLINE.items():
        ends = tuple(e for pc in pieces for e in pc["domain"])
        oracles = oracle_reference.piecewise_oracles(pieces, ybar)
        cases[label] = (piecewise_problem(pieces, xbar=xbar, ybar=ybar), oracles, ends)
    sol, fib = oracle_reference.finite_graph_distances(_FINITE_POINTS, [0.0])
    finite = finite_graph_problem(_FINITE_POINTS, [0.0], [0.0])
    cases["finite"] = (finite, (None, None, sol, fib), None)
    return cases


_CASES = _cases()


def _column(ends, rng) -> np.ndarray:
    """ROWS entries: signed zeros, the least subnormals, +-1e-308, each
    domain end and its neighbours at +-1e-9, and normals at scales 1 and
    1e-6, in a seeded shuffle."""
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-308, -1e-308]
    special += [e + d for e in ends for d in (0.0, -1e-9, 1e-9)]
    normals = rng.standard_normal(ROWS - len(special))
    normals[::2] *= 1e-6
    return rng.permutation(np.concatenate([special, normals]))


def _bits(rows) -> bytes:
    return np.asarray(rows, dtype=float).tobytes()


@pytest.mark.parametrize("name", sorted(_CASES))
def test_row_oracles_equal_their_one_point_references_bitwise(name):
    problem, (window, param_of, solution, fiber), ends = _CASES[name]
    rng = np.random.default_rng(sum(name.encode()))
    xs = np.column_stack([_column(ends or (), rng) for _ in range(problem.dim_x)])
    ys = np.column_stack([_column(ends or (), rng) for _ in range(problem.dim_y)])
    assert xs.shape[0] >= 40_000
    assert _bits(problem.solution_distance(xs)) == _bits([solution(x) for x in xs])
    assert _bits(problem.fiber_distance(xs)) == _bits([fiber(x) for x in xs])
    if ends is None:  # a finite graph is enumerated, never parametrized
        assert problem.param_of is None and problem.param_window is None
        return
    t0 = problem.param_of(xs, ys)
    assert _bits(t0) == _bits([param_of(x, y) for x, y in zip(xs, ys)])
    for radius in (1e-8, 0.5):
        lo, hi = problem.param_window(t0, np.full((t0.shape[0], 1), radius))
        want = [window(t, radius) for t in t0]
        assert _bits(lo) == _bits([w[0] for w in want]), radius
        assert _bits(hi) == _bits([w[1] for w in want]), radius


# --------------------------------------------------------------------------
# one oracle call per table
# --------------------------------------------------------------------------

_ORACLES = ("solution_distance", "fiber_distance", "param_of", "param_window")


def _count_oracles(monkeypatch) -> dict:
    """Counters of the four row oracles of every problem ``run_config``
    builds, wrapped through ``dataclasses.replace``."""
    calls = dict.fromkeys(_ORACLES, 0)
    build = report.build_problem

    def counted(name, oracle):
        def wrapper(*args):
            calls[name] += 1
            return oracle(*args)

        return wrapper

    def build_counted(cfg):
        problem = build(cfg)
        wrapped = {n: counted(n, getattr(problem, n)) for n in _ORACLES if getattr(problem, n)}
        return dataclasses.replace(problem, **wrapped)

    monkeypatch.setattr(report, "build_problem", build_counted)
    monkeypatch.setattr(report, "_last_tables", {})
    return calls


@pytest.mark.parametrize("budget", [256, 1024])
def test_the_orders_of_one_problem_call_each_distance_oracle_once_per_table(monkeypatch, budget):
    calls = _count_oracles(monkeypatch)
    for q in (0.25, 0.5, 0.75, 1.0):
        config = {
            "problem": "half-square",
            "q": q,
            "schedule": {"sample_budget": budget, "steps": 6},
            "checks": ["moduli"],
        }
        rep = run_config(parse_config(config))
        assert rep.constants["sr_q"].trace
    # solution distances of the outer pool, the sr_q and the anchor columns;
    # fiber distances of the sr_q columns
    assert calls["solution_distance"] == 3
    assert calls["fiber_distance"] == 1
    # one sample_graph_batch pass each for the pool and the anchor rows
    assert calls["param_of"] == calls["param_window"] == 2


def test_an_all_checks_run_maps_each_sampler_pass_through_one_parameter_call(monkeypatch):
    calls = _count_oracles(monkeypatch)
    passes = []
    original = problems.sample_graph_batch

    def counted_batch(problem, batch_calls):
        passes.append(any(budget > 0 for _, _, budget, _ in batch_calls))
        return original(problem, batch_calls)

    for module in (problems, moduli, slopes_primal, slopes_dual):
        if getattr(module, "sample_graph_batch", None) is original:
            monkeypatch.setattr(module, "sample_graph_batch", counted_batch)
    config = {
        "problem": {"pieces": _HALF_SQUARE_PIECES, "xbar": 0.0, "ybar": 0.0},
        "q": 0.5,
        "schedule": {"sample_budget": 256, "steps": 5},
        "checks": ["slopes", "moduli", "criteria", "invariants", "theorem-7T1", "lm-constants"],
    }
    run_config(parse_config(config))
    mapped = sum(passes)  # a pass with no budget left maps no parameter
    assert mapped > 3
    assert calls["param_of"] == calls["param_window"] == mapped
