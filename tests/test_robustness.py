"""Invariant suite across seeds, non-canonical orders and matrix shapes
(directions off the axes, rank deficiency, strong anisotropy), and every
entry point's refusal of an order outside (0, 1]."""

import math

import pytest

from subreg import (
    ErrorFunction,
    RunContext,
    Schedule,
    catalog_problem,
    nonlocal_q_rho_slope,
    parse_config,
    q_duality_enlargement,
    run_invariant_suite,
    subregularity_modulus,
    uniform_strict_q_slope,
    xi_q,
)
from subreg.geometry import GeometryError
from subreg.moduli import ModuliError
from subreg.problems import ProblemError
from subreg.report import ConfigError
from subreg.slopes_primal import SlopeError


def _suite_failures(problem, q, seed):
    schedule = Schedule(sample_budget=1024, steps=8, seed=seed)
    rows = run_invariant_suite(RunContext(problem, q, schedule))
    return [(r.name, r.lhs, r.rhs) for r in rows if not r.passed]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["half-square", "identity", "halfline-convex"])
def test_seed_robustness(name, seed):
    problem = catalog_problem(name)
    assert not _suite_failures(problem, problem.canonical_q, seed)


@pytest.mark.parametrize(
    "name,q",
    [
        ("identity", 0.5),
        ("half-square", 0.8),
        ("half-square", 1.0),
        ("halfline-convex", 0.7),
        ("square", 0.5),
    ],
)
def test_non_canonical_orders(name, q):
    assert not _suite_failures(catalog_problem(name), q, 0)


@pytest.mark.parametrize(
    "label,matrix",
    [
        ("upper-triangular", [[2.0, 1.0], [0.0, 3.0]]),
        ("rank-deficient", [[1.0, 0.0], [0.0, 0.0]]),
        ("rotation", [[0.6, -0.8], [0.8, 0.6]]),
        ("anisotropic", [[5.0, 0.0], [0.0, 0.2]]),
    ],
)
def test_linear_matrix_shapes(label, matrix):
    assert not _suite_failures(catalog_problem("linear-A", matrix=matrix), 1.0, 0)


def test_rotation_modulus_is_one():
    # an isometry is subregular with modulus exactly one
    problem = catalog_problem("linear-A", matrix=[[0.6, -0.8], [0.8, 0.6]])
    schedule = Schedule(sample_budget=1024, steps=8)
    constants = RunContext(problem, 1.0, schedule)
    assert constants["sr_q"].value == pytest.approx(1.0, rel=1e-6)
    assert constants["uniform_strict_q_slope"].value == pytest.approx(1.0, rel=1e-3)


def test_anisotropic_modulus_matches_smallest_gain():
    problem = catalog_problem("linear-A", matrix=[[5.0, 0.0], [0.0, 0.2]])
    schedule = Schedule(sample_budget=1024, steps=8)
    constants = RunContext(problem, 1.0, schedule)
    assert constants["sr_q"].value == pytest.approx(0.2, rel=1e-3)
    assert constants["subdiff_strict_q_slope_plain"].value == pytest.approx(0.2, rel=0.05)


_HALF_SQUARE = catalog_problem("half-square")
_SCHEDULE = Schedule(sample_budget=64, steps=3)

# each entry point that takes an order q, called with q, and its error class
ORDER_ENTRY_POINTS = {
    "ErrorFunction": (lambda q: ErrorFunction(_HALF_SQUARE, q), ProblemError),
    "subregularity_modulus": (
        lambda q: subregularity_modulus(_HALF_SQUARE, q, _SCHEDULE),
        ModuliError,
    ),
    "nonlocal_q_rho_slope": (
        lambda q: nonlocal_q_rho_slope(_HALF_SQUARE, q, 0.5, _HALF_SQUARE.anchor, _SCHEDULE),
        SlopeError,
    ),
    "uniform_strict_q_slope": (
        lambda q: uniform_strict_q_slope(_HALF_SQUARE, q, _SCHEDULE),
        SlopeError,
    ),
    "xi_q": (lambda q: xi_q([1.0], [0.0], q), GeometryError),
    "q_duality_enlargement": (lambda q: q_duality_enlargement([1.0], q, 0.0, 0, 0), GeometryError),
    "RunContext": (lambda q: RunContext(_HALF_SQUARE, q, _SCHEDULE), ModuliError),
    "parse_config": (lambda q: parse_config({"problem": "half-square", "q": q}), ConfigError),
}


@pytest.mark.parametrize("q", [True, math.nan, 0, 1.5], ids=repr)
@pytest.mark.parametrize("entry", list(ORDER_ENTRY_POINTS))
def test_every_entry_point_refuses_an_order_outside_the_unit_interval(entry, q):
    call, error = ORDER_ENTRY_POINTS[entry]
    with pytest.raises(error, match=r"q must lie in \(0, 1\]"):
        call(q)
