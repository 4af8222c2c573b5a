import numpy as np
import pytest

from subreg import (
    ErrorFunction,
    ProductPoint,
    Schedule,
    catalog_problem,
    f_level_slopes,
    finite_graph_problem,
    is_inf,
    local_rho_slope,
    nonlocal_q_rho_slope,
    single_variable_embedding,
    strict_q_slopes,
    uniform_strict_q_slope,
)
import subreg.slopes_primal as slopes_primal
from subreg import piecewise_problem
from subreg.problems import mix_seed, outer_pools, radius_pad, sample_graph_arrays
from subreg.slopes_primal import (
    SlopeError,
    f_level_strict,
    gather_point_candidates,
    rho_slope_profiles,
    strict_sweep,
    sweep_table,
)


@pytest.fixture(scope="module")
def schedule():
    return Schedule()


@pytest.fixture(scope="module")
def light_schedule():
    return Schedule(sample_budget=1024, steps=8)


@pytest.fixture(scope="module")
def half_square():
    return catalog_problem("half-square")


class TestNonlocalSlope:
    def test_half_square_small_rho_is_one(self, half_square, schedule):
        at = ProductPoint([0.5], [0.25])
        est = nonlocal_q_rho_slope(half_square, 0.5, 1.0, at, schedule)
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_half_square_large_rho_caps(self, half_square, schedule):
        # 1 / max(1, rho * x) at rho = 4, x = 0.5
        at = ProductPoint([0.5], [0.25])
        est = nonlocal_q_rho_slope(half_square, 0.5, 4.0, at, schedule)
        assert est.value == pytest.approx(0.5, abs=1e-6)

    def test_zero_at_reference_height(self, half_square, schedule):
        est = nonlocal_q_rho_slope(
            half_square, 0.5, 1.0, ProductPoint([-2.0], [0.0]), schedule
        )
        assert est.value == 0.0

    def test_off_graph_rejected(self, half_square, schedule):
        with pytest.raises(SlopeError):
            nonlocal_q_rho_slope(
                half_square, 0.5, 1.0, ProductPoint([0.5], [0.3]), schedule
            )


class TestLocalSlope:
    def test_half_square_unit_value(self, half_square, schedule):
        # 2x at rho*x <= 1/2: equals 1.0 at x = 0.5
        est = local_rho_slope(half_square, 0.5, ProductPoint([0.5], [0.25]), schedule)
        assert est.value == pytest.approx(1.0, rel=0.02)

    def test_half_square_capped_value(self, half_square, schedule):
        # 2x / (2 rho x) = 1/rho at rho = 2
        est = local_rho_slope(half_square, 2.0, ProductPoint([0.5], [0.25]), schedule)
        assert est.value == pytest.approx(0.5, abs=1e-6)

    def test_constant_mapping_is_flat(self, schedule):
        p = catalog_problem("constant")
        est = local_rho_slope(p, 1.0, ProductPoint([0.3], [0.0]), schedule)
        assert est.value == 0.0

    def test_trace_radii_decrease(self, half_square, schedule):
        est = local_rho_slope(half_square, 0.5, ProductPoint([0.5], [0.25]), schedule)
        radii = [r for r, _ in est.trace]
        assert all(b < a for a, b in zip(radii, radii[1:]))


def _brute_force_nonlocal(points, at, ybar, q, rho):
    x, y = at
    d_at = abs(y - ybar)
    best = 0.0
    for u, v in points:
        dx = abs(u - x)
        dy = abs(v - y)
        if max(dx, dy) <= 1e-12:
            continue
        den = max(dx, rho * dy)
        num = d_at**q - abs(v - ybar) ** q
        if num < 0.0:
            num = 0.0
        r = num / den
        if r > best:
            best = r
    return best


class TestExhaustiveEquivalence:
    def test_finite_graph_matches_brute_force_bitwise(self, schedule):
        rng = np.random.default_rng(13)
        pts = [(0.0, 0.0)] + [
            (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))) for _ in range(30)
        ]
        problem = finite_graph_problem(
            [([u], [v]) for u, v in pts], xbar=[0.0], ybar=[0.0]
        )
        at = pts[5]
        for q in (1.0, 0.5):
            for rho in (0.3, 1.0, 2.5):
                est = nonlocal_q_rho_slope(
                    problem, q, rho, ProductPoint([at[0]], [at[1]]), schedule
                )
                oracle = _brute_force_nonlocal(pts, at, 0.0, q, rho)
                assert est.value == oracle  # bitwise

    def test_f_level_nonlocal_matches_brute_force(self, schedule):
        rng = np.random.default_rng(29)
        pts = [(0.0, 0.0)] + [
            (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for _ in range(20)
        ]
        problem = finite_graph_problem(
            [([u], [v]) for u, v in pts], xbar=[0.0], ybar=[0.0]
        )
        q = 0.5
        ef = ErrorFunction(problem, q)
        at = pts[3]
        rho = 0.8
        out = f_level_slopes(
            ef, rho, ProductPoint([at[0]], [at[1]]), schedule, ("nonlocal",)
        )
        x, y = at
        f_at = abs(y) ** q
        best = 0.0
        for u, v in pts:
            dx = abs(u - x)
            dy = abs(v - y)
            den = max(dx, rho * dy)
            if den <= 1e-12:
                continue
            fv = abs(v) ** q
            num = f_at - (fv if fv > 0.0 else 0.0)
            if num < 0.0:
                num = 0.0
            r = num / den
            if r > best:
                best = r
        # anchor is appended once more by the estimator; same ratio set
        assert out["nonlocal"].value == best


class TestStrictSlopes:
    def test_half_square_all_near_one(self, half_square, schedule):
        plain, modified = strict_q_slopes(half_square, 0.5, schedule)
        assert plain.value == pytest.approx(1.0, abs=0.02)
        assert modified.value == pytest.approx(1.0, abs=0.02)
        uniform = uniform_strict_q_slope(half_square, 0.5, schedule)
        assert uniform.value == pytest.approx(1.0, abs=0.02)

    def test_identity_equals_one(self, light_schedule):
        p = catalog_problem("identity")
        uniform = uniform_strict_q_slope(p, 1.0, light_schedule)
        assert uniform.value == pytest.approx(1.0, abs=1e-6)

    def test_identity_uniform_brute_force_oracle(self, light_schedule):
        # direct grid evaluation of the defining sup at sampled outer points
        p = catalog_problem("identity")
        rho = light_schedule.rho_values()[-1]
        for x in (rho * 0.9, rho * 0.5, rho * 0.1):
            us = np.linspace(-2.0, 2.0, 4001)
            num = np.maximum(np.abs(x) - np.abs(us), 0.0)
            den = np.maximum(np.abs(us - x), rho * np.abs(us - x))
            mask = den > 1e-12
            assert np.max(num[mask] / den[mask]) == pytest.approx(1.0, abs=1e-3)

    def test_square_strict_slopes_vanish(self, light_schedule):
        p = catalog_problem("square")
        plain, modified = strict_q_slopes(p, 1.0, light_schedule)
        assert plain.value <= 0.02
        assert modified.value <= 0.02
        assert uniform_strict_q_slope(p, 1.0, light_schedule).value <= 0.02

    def test_constant_mapping_empty_infimum(self, light_schedule):
        p = catalog_problem("constant")
        plain, modified = strict_q_slopes(p, 1.0, light_schedule)
        assert is_inf(plain.value) and is_inf(modified.value)
        assert "empty-levels" in plain.flags

    def test_unrestricted_variant_not_larger(self, half_square, light_schedule):
        restricted = uniform_strict_q_slope(half_square, 0.5, light_schedule)
        unrestricted = uniform_strict_q_slope(
            half_square, 0.5, light_schedule, outer_restriction=False
        )
        assert unrestricted.value <= restricted.value + 1e-9


class TestMonotonicityInRho:
    @pytest.mark.parametrize("name", ["half-square", "identity", "square"])
    def test_nondecreasing_along_shrinking_rho(self, name, light_schedule):
        p = catalog_problem(name)
        rhos = light_schedule.rho_values()
        pts = [
            pt
            for pt in __import__("subreg").graph_sample(
                p, p.anchor, 0.8, 40, 17
            )
            if p.d_y(pt.y, p.ybar) > 1e-6
        ][:20]
        for pt in pts:
            series = rho_slope_profiles(p, pt, p.canonical_q, rhos, light_schedule)
            for family, vals in series.items():
                for a, b in zip(vals, vals[1:]):
                    assert b >= a - 1e-12, family


class TestPointwiseDomination:
    def test_nonlocal_dominates_local_and_anchor(self, half_square, light_schedule):
        q = 0.5
        pts = [
            pt
            for pt in __import__("subreg").graph_sample(
                half_square, half_square.anchor, 0.9, 40, 23
            )
            if float(pt.x[0]) > 1e-3
        ][:15]
        assert pts
        for pt in pts:
            cands = gather_point_candidates(half_square, pt, light_schedule)
            d = half_square.d_y(pt.y, half_square.ybar)
            dxa = half_square.d_x(pt.x, half_square.xbar)
            for rho in (0.6, 0.1):
                nl, _ = cands.nonlocal_value(q, rho)
                loc = cands.local_value(rho)
                anchor_term = d**q / max(dxa, rho * d)
                assert nl >= q * d ** (q - 1.0) * loc - 1e-6
                assert nl >= anchor_term - 1e-6


class TestBridgeToErrorFunction:
    def test_exact_at_q_one(self, light_schedule):
        p = catalog_problem("identity")
        pts = [
            pt
            for pt in __import__("subreg").graph_sample(p, p.anchor, 0.5, 30, 31)
            if p.d_y(pt.y, p.ybar) > 1e-3
        ][:10]
        for pt in pts:
            cands = gather_point_candidates(p, pt, light_schedule)
            assert cands.f_local_value(1.0, 0.4) == cands.local_value(0.4)

    def test_half_square_bridge_identity(self, half_square, schedule):
        # local slope of the induced error function at (0.5, 0.25), rho 0.5:
        # (1/2) (0.25)^{-1/2} * 1.0 = 1.0
        at = ProductPoint([0.5], [0.25])
        out = f_level_slopes(
            ErrorFunction(half_square, 0.5), 0.5, at, schedule, ("local",)
        )
        f_local = out["local"].value
        base = local_rho_slope(half_square, 0.5, at, schedule).value
        bridge = 0.5 * 0.25 ** (-0.5) * base
        assert f_local == pytest.approx(1.0, rel=0.02)
        assert f_local == pytest.approx(bridge, rel=1e-6)


class TestEmbedding:
    def test_absolute_value_local_slope(self, schedule):
        func = single_variable_embedding(abs, solution_distance=lambda x: abs(float(x[0])))
        at = ProductPoint([1.0], [0.0])
        out = f_level_slopes(func, 0.5, at, schedule, ("nonlocal", "local"))
        assert out["local"].value == pytest.approx(1.0, abs=1e-6)
        assert out["nonlocal"].value == pytest.approx(1.0, abs=1e-6)

    def test_strict_outer_slopes_of_embedding(self, light_schedule):
        func = single_variable_embedding(abs, solution_distance=lambda x: abs(float(x[0])))
        strict = f_level_strict(func, light_schedule)
        assert strict["uniform"].value == pytest.approx(1.0, abs=0.02)
        assert strict["plain"].value == pytest.approx(1.0, abs=0.02)
        assert strict["modified"].value == pytest.approx(1.0, abs=0.02)


def test_metric_variant_sum_never_exceeds_max(half_square, light_schedule):
    at = ProductPoint([0.5], [0.25])
    for rho in (0.5, 2.0):
        vmax = nonlocal_q_rho_slope(half_square, 0.5, rho, at, light_schedule).value
        vsum = nonlocal_q_rho_slope(
            half_square, 0.5, rho, at, light_schedule, metric="sum"
        ).value
        assert vsum <= vmax + 1e-12


def test_strict_sweep_shares_pools_across_families(half_square, light_schedule):
    sweep = strict_sweep(half_square, 0.5, light_schedule)
    # sample-wise orderings of the shared sweep
    for (r1, u), (r2, m), (r3, p) in zip(
        sweep.uniform.trace, sweep.modified.trace, sweep.plain.trace
    ):
        assert r1 == r2 == r3
        if not (is_inf(u) or is_inf(m) or is_inf(p)):
            assert u >= m - 1e-6 >= p - 2e-6


# --------------------------------------------------------------------------
# batched gather and the sweep's level table against per-point references
# --------------------------------------------------------------------------

_INLINE_3MAX1 = [
    {"domain": [-1.0, 0.0], "coeffs": [0.0]},
    {"domain": [0.0, 2.0], "coeffs": [0.0, 3.0]},
]


def _finite_half_square():
    xs = np.linspace(-0.5, 0.5, 41)
    return finite_graph_problem([([x], [max(x, 0.0) ** 2]) for x in xs], [0.0], [0.0])


_PARITY_PROBLEMS = {
    "half-square": (lambda: catalog_problem("half-square"), 0.5),
    "halfline-convex": (lambda: catalog_problem("halfline-convex"), 1.0),
    "linear-A": (lambda: catalog_problem("linear-A"), 1.0),
    "inline-3max1": (lambda: piecewise_problem(_INLINE_3MAX1, xbar=0.0, ybar=0.0), 1.0),
    "finite": (_finite_half_square, 0.5),
    "constant": (lambda: catalog_problem("constant"), 1.0),  # empty pools
}


def _reference_gather(problem, at, schedule):
    # the per-point gather the batched one replaced: one sampler call per
    # block, stacked with the anchor row
    anchor = problem.anchor
    d_anchor = problem.product_dist(at, anchor)
    trunc = schedule.truncation_radius or 10.0 * max(1.0, d_anchor)
    r_loc = max(schedule.neighborhood_radii[-1] * d_anchor, 2.5e-12)
    if problem.graph_points is not None:
        ux = np.array([p.x for p in problem.graph_points], dtype=float)
        vy = np.array([p.y for p in problem.graph_points], dtype=float)
    else:
        n = max(32, schedule.sample_budget // 4)

        def seed(tag):
            return mix_seed(schedule.seed, tag, at.x.tobytes(), at.y.tobytes())

        budget = schedule.sample_budget
        local = min(96, budget) if problem.param_dim <= 1 else min(2560, 4 * budget)
        blocks = [sample_graph_arrays(problem, at, trunc, n // 2, seed("far"))]
        if d_anchor > 0:
            mid = min(trunc, 2.0 * d_anchor)
            blocks.append(sample_graph_arrays(problem, at, mid, n // 4, seed("mid")))
        blocks.append(sample_graph_arrays(problem, at, r_loc, local, seed("loc")))
        blocks.append((anchor.x.reshape(1, -1), anchor.y.reshape(1, -1)))
        ux = np.vstack([b[0] for b in blocks])
        vy = np.vstack([b[1] for b in blocks])
    dx = problem.norm_x.value_rows(ux - at.x)
    dy = problem.norm_y.value_rows(vy - at.y)
    dv = problem.norm_y.value_rows(vy - problem.ybar)
    dist = np.maximum(dx, dy)
    return dx, dy, dv, dist, dist <= r_loc + radius_pad(at), trunc


@pytest.mark.parametrize("name", [n for n in _PARITY_PROBLEMS if n != "constant"])
def test_gather_matches_per_point_reference(name):
    make, _ = _PARITY_PROBLEMS[name]
    problem = make()
    s = Schedule(sample_budget=256, steps=5)
    points = [problem.anchor]  # no mid block at the anchor
    points += [ProductPoint(p.x, p.y) for p in outer_pools(problem, s, True)[0][:6]]
    for at in points:
        got = gather_point_candidates(problem, at, s)
        want = _reference_gather(problem, at, s)
        for g, w in zip((got.dx, got.dy, got.dv, got.dist, got.local_mask), want):
            assert g.shape == w.shape and np.array_equal(g, w)
        assert got.trunc_radius == want[-1]
        assert got.d_at == problem.d_y(at.y, problem.ybar)


@pytest.mark.parametrize("chunk_rows", [None, 600])  # one chunk, and a few points per chunk
@pytest.mark.parametrize("truncation_radius", [None, 0.05])  # 0.05 raises truncation flags
@pytest.mark.parametrize("name", [n for n in _PARITY_PROBLEMS if n != "linear-A"])  # gathered above
def test_sweep_table_matches_per_point_reductions(monkeypatch, name, truncation_radius, chunk_rows):
    if chunk_rows is not None:
        monkeypatch.setattr(slopes_primal, "SWEEP_CHUNK_ROWS", chunk_rows)
    make, q = _PARITY_PROBLEMS[name]
    problem = make()
    s = Schedule(sample_budget=256, steps=5, truncation_radius=truncation_radius)
    table = sweep_table(problem, q, s)
    pools = outer_pools(problem, s, True)
    assert len(table.points) == len(pools[0])
    assert bool(table.points) == (name != "constant")
    for k, pool in enumerate(pools):
        assert set(table.points[table.starts[k] :]) == set(pool)
    for i, pt in enumerate(table.points):
        cands = gather_point_candidates(problem, ProductPoint(pt.x, pt.y), s)
        assert table.sizes[i] == cands.size
        for k, rho in enumerate(s.rho_values()):
            for metric in ("max", "sum"):
                nl = table.nonlocal_values[metric][i, k]
                loc = table.local_values[metric][i, k]
                trunc = table.truncated[metric][i, k]
                if i < table.starts[k]:  # not in level k's pool
                    assert np.isnan(nl) and np.isnan(loc) and not trunc
                    continue
                assert (nl, trunc) == cands.nonlocal_value(q, rho, metric)
                assert loc == cands.local_value(rho, metric)
    if truncation_radius is not None and name in ("half-square", "halfline-convex"):
        assert table.truncated["max"].any()


def test_constant_sweep_is_inconclusive_from_its_empty_table():
    p = catalog_problem("constant")
    sweep = strict_sweep(p, 1.0, Schedule(sample_budget=256, steps=5))
    for est in (sweep.uniform, sweep.plain, sweep.modified, sweep.anchor_ratio):
        assert is_inf(est.value) and est.budget_used == 0
        assert "inconclusive" in est.flags
