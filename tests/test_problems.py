import numpy as np
import pytest

from subreg import (
    INF,
    ErrorFunction,
    ProductPoint,
    Schedule,
    TwoVariableFunction,
    catalog_names,
    catalog_problem,
    finite_graph_problem,
    graph_sample,
    is_inf,
    piecewise_problem,
    solution_set_distance,
    validate_P1_P2,
)
from subreg.problems import UnknownProblemError, outer_pools, sample_outer_points


@pytest.fixture(scope="module")
def schedule():
    return Schedule(sample_budget=1024, steps=8)


def test_catalog_names_complete():
    assert set(catalog_names()) >= {
        "half-square",
        "identity",
        "square",
        "linear-A",
        "halfline-convex",
        "constant",
    }


def test_unknown_name_raises():
    with pytest.raises(UnknownProblemError):
        catalog_problem("nosuch")


def test_half_square_flags_and_anchor():
    p = catalog_problem("half-square")
    assert not p.convex
    assert p.graph_membership(p.xbar, p.ybar)
    assert float(p.xbar[0]) == 0.0 and float(p.ybar[0]) == 0.0
    assert p.solution_distance(p.xbar) == 0.0


def test_error_function_values():
    ef = ErrorFunction(catalog_problem("half-square"), 0.5)
    # on the graph: (0.04)^{1/2} = 0.2
    assert ef.value([0.2], [0.04]) == pytest.approx(0.2, abs=1e-12)
    assert ef.value([0.0], [0.0]) == 0.0
    assert is_inf(ef.value([0.2], [0.05]))


def test_solution_distances():
    s = Schedule()
    hs = catalog_problem("half-square")
    est = solution_set_distance(hs, [0.7], s)
    assert est.exact and est.value == pytest.approx(0.7)
    assert solution_set_distance(hs, [-0.4], s).value == 0.0
    ident = catalog_problem("identity")
    assert solution_set_distance(ident, [-3.0], s).value == pytest.approx(3.0)


def test_sampled_solution_distance_lower_biased():
    # a problem stripped of its oracle: sampled estimate never exceeds truth
    s = Schedule(sample_budget=2048)
    from dataclasses import replace

    hs = replace(catalog_problem("half-square"), solution_distance=None)
    est = solution_set_distance(hs, [0.7], s)
    assert not est.exact
    assert est.value <= 0.7 + 1e-9


def test_graph_sample_contracts():
    p = catalog_problem("half-square")
    center = ProductPoint([0.5], [0.25])
    assert graph_sample(p, center, 0.1, 0, 1) == []
    pts = graph_sample(p, center, 0.1, 256, 1)
    assert pts
    for pt in pts:
        assert p.graph_membership(pt.x, pt.y)
        assert abs(float(pt.y[0]) - max(float(pt.x[0]), 0.0) ** 2) <= 1e-9
        assert p.product_dist(pt, center) <= 0.1 * (1 + 1e-9)
    again = graph_sample(p, center, 0.1, 256, 1)
    assert len(pts) == len(again)
    for a, b in zip(pts, again):
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


@pytest.mark.parametrize("name", catalog_names())
def test_membership_roundtrip_all_catalog(name, schedule):
    p = catalog_problem(name)
    pts = graph_sample(p, p.anchor, 0.5, 200, 3)
    assert pts
    for pt in pts:
        assert p.graph_membership(pt.x, pt.y)


@pytest.mark.parametrize("name", ["identity", "linear-A", "halfline-convex", "constant"])
def test_convex_midpoints_stay_on_graph(name, schedule):
    p = catalog_problem(name)
    assert p.convex
    pts = graph_sample(p, p.anchor, 1.0, 64, 9)
    for a, b in zip(pts, pts[1:]):
        mid_x = 0.5 * (a.x + b.x)
        mid_y = 0.5 * (a.y + b.y)
        assert p.graph_membership(mid_x, mid_y)


def test_half_square_ratio_grid():
    # on-graph ratio d(y, ybar)^q / d(x, solution set) is exactly one
    p = catalog_problem("half-square")
    for x in np.linspace(1e-4, 1.0, 37):
        fiber = p.fiber_distance(np.array([x]))
        sol = p.solution_distance(np.array([x]))
        assert fiber**0.5 / sol == pytest.approx(1.0, rel=1e-12)


def test_outer_points_respect_shell_and_filter(schedule):
    p = catalog_problem("half-square")
    pts = sample_outer_points(p, 0.25, 64, 5, schedule)
    assert pts
    for pt in pts:
        assert pt.d_x_anchor < 0.25 and 0.0 < pt.d_y_anchor < 0.25
        assert pt.sol_dist > 1e-7
        assert float(pt.x[0]) > 0.0


def test_outer_pools_nested(schedule):
    p = catalog_problem("half-square")
    pools = outer_pools(p, schedule)
    rhos = schedule.rho_values()
    assert len(pools) == len(rhos)
    for pool, rho in zip(pools, rhos):
        for pt in pool:
            assert pt.d_x_anchor < rho and pt.d_y_anchor < rho
    # every point of a finer pool appears in every coarser window
    fine_ids = {id(pt) for pt in pools[-1]}
    coarse_ids = {id(pt) for pt in pools[0]}
    assert fine_ids <= coarse_ids


def test_constant_problem_has_no_outer_points(schedule):
    p = catalog_problem("constant")
    assert all(len(pool) == 0 for pool in outer_pools(p, schedule))


def test_validate_p1_p2_passes_for_induced(schedule):
    assert validate_P1_P2(ErrorFunction(catalog_problem("half-square"), 0.5), schedule).passed
    assert validate_P1_P2(ErrorFunction(catalog_problem("identity"), 1.0), schedule).passed


def test_validate_p2_fails_for_squared_distance(schedule):
    # replacing the q-exponent by 2 kills the ratio f / d(y, ybar)
    ident = catalog_problem("identity")

    def f(x, y):
        if not ident.graph_membership(x, y):
            return INF
        return float(ident.d_y(y, ident.ybar) ** 2)

    func = TwoVariableFunction(
        f=f,
        xbar=ident.xbar,
        ybar=ident.ybar,
        norm_x=ident.norm_x,
        norm_y=ident.norm_y,
        sampler=lambda center, radius, budget, seed: graph_sample(
            ident, center, radius, budget, seed
        ),
        solution_distance=ident.solution_distance,
    )
    rep = validate_P1_P2(func, schedule)
    assert rep.p1_status == "pass"
    assert rep.p2_status == "fail"


def test_piecewise_problem_roundtrip():
    pieces = [
        {"domain": [-1.0, 0.0], "coeffs": [0.0]},
        {"domain": [0.0, 2.0], "coeffs": [0.0, 0.0, 1.0]},
    ]
    p = piecewise_problem(pieces, xbar=0.0, ybar=0.0)
    assert p.graph_membership([0.5], [0.25])
    assert not p.graph_membership([0.5], [0.3])
    assert p.fiber_distance([0.5]) == pytest.approx(0.25)
    # solution set is (-inf interval) [-1, 0] plus the root x = 0
    assert p.solution_distance([0.7]) == pytest.approx(0.7)
    assert p.solution_distance([-0.5]) == pytest.approx(0.0)
    res = p.coderivative(np.array([0.5]), np.array([0.25]), np.array([2.0]))
    np.testing.assert_allclose(res.members()[0], [2.0], atol=1e-12)
    pts = graph_sample(p, p.anchor, 0.5, 128, 1)
    assert all(p.graph_membership(pt.x, pt.y) for pt in pts)


def test_piecewise_kink_has_no_coderivative_description():
    pieces = [
        {"domain": [-1.0, 0.0], "coeffs": [0.0, -1.0]},
        {"domain": [0.0, 1.0], "coeffs": [0.0, 1.0]},
    ]
    p = piecewise_problem(pieces, xbar=0.0, ybar=0.0)
    assert p.coderivative(np.array([0.0]), np.array([0.0]), np.array([1.0])) is None


def test_finite_graph_problem_sampling():
    pts = [([float(i)], [float(i % 3)]) for i in range(10)]
    p = finite_graph_problem(pts, xbar=[0.0], ybar=[0.0])
    got = graph_sample(p, p.anchor, 100.0, 100, 0)
    assert len(got) == 10
    assert graph_sample(p, p.anchor, 1.5, 100, 0)
    assert p.solution_distance([2.0]) == pytest.approx(1.0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(rho0=-1.0)
    with pytest.raises(ValueError):
        Schedule(factor=1.5)
    with pytest.raises(ValueError):
        Schedule(neighborhood_radii=(0.1, 0.2))
    rhos = Schedule(rho0=0.5, factor=0.5, steps=3).rho_values()
    assert rhos == [0.5, 0.25, 0.125]
