import dataclasses

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from subreg import (
    INF,
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
    uniform_strict_q_slope,
    validate_P1_P2,
)
from subreg.geometry import distinct_rows
from subreg.moduli import RunContext, Tables, _probe_points, error_bound_modulus
import subreg.problems as problems
import subreg.slopes_primal as slopes_primal
from subreg import piecewise_problem
from subreg.problems import (
    mix_seed,
    outer_pools,
    radius_pad,
    sample_graph_arrays,
    sample_graph_batch,
)
from subreg.slopes_primal import (
    SlopeError,
    SlopeEstimate,
    f_level_strict,
    gather_point_candidates,
    strict_sweep,
)
import graph_reference
from graph_reference import induced, same_bits
from level_reference import infimum
from pool_reference import ref_pools
from sampler_reference import embedding_sampler, graph_sample, points


def rho_slope_profiles(problem, at, q, rhos, schedule):
    # slope values across a rho list on one fixed candidate set per
    # family, to check monotonicity along the decreasing-rho ladder
    profiles = gather_point_candidates(problem, at, schedule).rho_profiles(q, rhos)
    return {family: table[0].tolist() for family, table in profiles.items()}


def plain_and_modified(problem, q, schedule):
    # the plain and modified strict q-slopes of one run's sweep
    sweep = RunContext(problem, q, schedule).sweep
    return sweep.plain, sweep.modified


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


def _scan_local(pts, at, rho, metric, radii):
    """The local rho-slope trace of a finite graph with anchor (0, 0),
    from its definition: at each relative radius, the largest
    ``[d(y, ybar) - d(v, ybar)]_+ / d_rho`` over the graph points within
    it (up to the centre's rounding pad), outside the exclusion band."""
    x, y = at
    pad = radius_pad(ProductPoint([x], [y]))
    trace = []
    for nr in radii:
        r = max(nr * max(abs(x), abs(y), 1.0), 2.5e-12)
        best = 0.0
        for u, v in pts:
            dx, dy = abs(u - x), abs(v - y)
            if not 1e-12 < max(dx, dy) <= r + pad:
                continue
            den = max(dx, rho * dy) if metric == "max" else dx + rho * dy
            best = max(best, max(abs(y) - abs(v), 0.0) / den)
        trace.append((r, best))
    return trace


@pytest.mark.parametrize("g", range(5))
def test_finite_graph_local_slope_is_the_scan(g):
    # the coarsest radius covers the whole graph, the finer ones shrink into it
    schedule = Schedule(neighborhood_radii=(4.0, 1.0, 0.5, 0.25, 0.1, 0.05))
    rng = np.random.default_rng([17, g])
    n = int(rng.integers(20, 60))
    pts = [(0.0, 0.0)] + [(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))) for _ in range(n)]
    problem = finite_graph_problem([([u], [v]) for u, v in pts], [0.0], [0.0])
    at = pts[1 + int(rng.integers(0, n))]
    point = ProductPoint([at[0]], [at[1]])
    for rho in (0.4, 1.3):
        for metric in ("max", "sum"):
            est = local_rho_slope(problem, rho, point, schedule, metric)
            want = _scan_local(pts, at, rho, metric, schedule.neighborhood_radii)
            assert [(r.hex(), v.hex()) for r, v in est.trace] == [
                (r.hex(), v.hex()) for r, v in want
            ]  # bitwise
            values = [v for _, v in est.trace]
            assert all(b <= a for a, b in zip(values, values[1:]))
            nonlocal_ = nonlocal_q_rho_slope(problem, 1.0, rho, point, schedule, metric).value
            assert values[0] == nonlocal_ > 0.0
            assert all(v <= nonlocal_ for v in values)


class TestStrictSlopes:
    def test_half_square_all_near_one(self, half_square, schedule):
        plain, modified = plain_and_modified(half_square, 0.5, schedule)
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
        plain, modified = plain_and_modified(p, 1.0, light_schedule)
        assert plain.value <= 0.02
        assert modified.value <= 0.02
        assert uniform_strict_q_slope(p, 1.0, light_schedule).value <= 0.02

    def test_constant_mapping_empty_infimum(self, light_schedule):
        p = catalog_problem("constant")
        plain, modified = plain_and_modified(p, 1.0, light_schedule)
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
            for pt in graph_sample(p, p.anchor, 0.8, 40, 17)
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
            for pt in graph_sample(half_square, half_square.anchor, 0.9, 40, 23)
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
            for pt in graph_sample(p, p.anchor, 0.5, 30, 31)
            if p.d_y(pt.y, p.ybar) > 1e-3
        ][:10]
        for pt in pts:
            cands = gather_point_candidates(p, pt, light_schedule)
            assert cands.local_value(0.4, q=1.0) == cands.local_value(0.4)

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


def test_embedding_sampler_matches_the_point_list():
    func = single_variable_embedding(abs)
    for c in (0.0, 1.0, -0.3, 1e-7):
        center = ProductPoint([c], [0.0])
        for radius in (1.0, 0.01, 3e-9, 1e-12):
            # 61 rows: the centre and 30 stencil pairs at radii 1 and 0.01, no fill
            for budget in (0, 1, 50, 61, 300):
                for seed in (0, 5):
                    ux, vy = func.sampler(center, radius, budget, seed)
                    want = embedding_sampler(center, radius, budget, seed)
                    assert ux.shape == vy.shape == (len(want), 1)
                    assert [(x.tobytes(), y.tobytes()) for x, y in zip(ux, vy)] == [
                        (p.x.tobytes(), p.y.tobytes()) for p in want
                    ]


class TestEmbedding:
    def test_absolute_value_local_slope(self, schedule):
        func = single_variable_embedding(abs, solution_distance=lambda xs: np.abs(xs[:, 0]))
        at = ProductPoint([1.0], [0.0])
        out = f_level_slopes(func, 0.5, at, schedule, ("nonlocal", "local"))
        assert out["local"].value == pytest.approx(1.0, abs=1e-6)
        assert out["nonlocal"].value == pytest.approx(1.0, abs=1e-6)

    def test_strict_outer_slopes_of_embedding(self, light_schedule):
        func = single_variable_embedding(abs, solution_distance=lambda xs: np.abs(xs[:, 0]))
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
    sweep = strict_sweep(RunContext(half_square, 0.5, light_schedule))
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


def _reference_reduce(cands, num, rho, metric, mask=None):
    # the one-point reduction the segmented one replaced: masked argmax,
    # value clipped at 0, truncation flag from the first argmax
    ok = cands.dist > cands.min_dist[0]
    if mask is not None:
        ok = ok & mask
    if not np.any(ok):
        return 0.0, False
    den = np.maximum(cands.dx, rho * cands.dy) if metric == "max" else cands.dx + rho * cands.dy
    vals = np.where(ok, np.maximum(num, 0.0) / np.where(ok, den, 1.0), -1.0)
    idx = int(np.argmax(vals))
    return max(float(vals[idx]), 0.0), bool(cands.dist[idx] >= 0.99 * cands.trunc_radius[0])


def _reference_values(cands, q, rho, metric):
    # (nonlocal, truncated), local and f-level local slopes of a
    # one-point table by the reference reduction
    d_at = float(cands.centre_value[0])
    num_q = d_at**q - cands.row_value**q
    nonlocal_ = _reference_reduce(cands, num_q, rho, metric)
    local, _ = _reference_reduce(cands, d_at - cands.row_value, rho, metric, cands.local_mask)
    f_local, _ = _reference_reduce(cands, num_q, rho, metric, cands.local_mask)
    return nonlocal_, local, f_local


@pytest.mark.parametrize("name", [n for n in _PARITY_PROBLEMS if n != "constant"])
def test_gather_matches_per_point_reference(name):
    make, _ = _PARITY_PROBLEMS[name]
    problem = make()
    s = Schedule(sample_budget=256, steps=5)
    points = [problem.anchor]  # no mid block at the anchor
    pool = outer_pools(problem, s, True)
    points += [ProductPoint(x, y) for x, y in zip(pool.x[:6], pool.y[:6])]
    for at in points:
        got = gather_point_candidates(problem, at, s)
        want = _reference_gather(problem, at, s)
        for g, w in zip((got.dx, got.dy, got.row_value, got.dist, got.local_mask), want):
            assert g.shape == w.shape and np.array_equal(g, w)
        assert got.trunc_radius == want[-1]
        assert got.centre_value == problem.d_y(at.y, problem.ybar)


@pytest.mark.parametrize("chunk_rows", [None, 600])  # one chunk, and a few points per chunk
@pytest.mark.parametrize("truncation_radius", [None, 0.05])  # 0.05 raises truncation flags
@pytest.mark.parametrize("name", [n for n in _PARITY_PROBLEMS if n != "linear-A"])  # gathered above
def test_sweep_table_matches_per_point_reductions(monkeypatch, name, truncation_radius, chunk_rows):
    if chunk_rows is not None:
        monkeypatch.setattr(slopes_primal, "SWEEP_CHUNK_ROWS", chunk_rows)
    make, q = _PARITY_PROBLEMS[name]
    problem = make()
    s = Schedule(sample_budget=256, steps=5, truncation_radius=truncation_radius)
    table = RunContext(problem, q, s).sweep_table
    pools = ref_pools(problem, s)
    rows = table.rows
    points = [ProductPoint(x, y) for x, y in zip(rows.x, rows.y)]
    # one row per distinct (x, y) of the coarsest pool, with its copies
    key = lambda pt: (pt.x.tobytes(), pt.y.tobytes())
    assert len({key(pt) for pt in points}) == len(points)
    assert bool(points) == (name != "constant")
    assert int(rows.copies.sum()) == len(pools[0])
    for k, pool in enumerate(pools):
        level = points[table.starts[k] :]
        assert {key(pt) for pt in level} == {key(pt) for pt in pool}
        assert int(rows.copies[table.starts[k] :].sum()) == len(pool)
    for pt, n in zip(points, rows.copies):
        assert n == sum(key(c) == key(pt) for c in pools[0])
    for i, pt in enumerate(points):
        cands = gather_point_candidates(problem, pt, s)
        assert table.sizes[i] == cands.size
        for k, rho in enumerate(s.rho_values()):
            for metric in ("max", "sum"):
                nl = table.nonlocal_values[metric][i, k]
                loc = table.local_values[metric][i, k]
                trunc = table.truncated[metric][i, k]
                if i < table.starts[k]:  # not in level k's pool
                    assert np.isnan(nl) and np.isnan(loc) and not trunc
                    continue
                want_nl, want_loc, want_fl = _reference_values(cands, q, rho, metric)
                assert (nl, trunc) == want_nl == cands.nonlocal_value(q, rho, metric)
                assert loc == want_loc == cands.local_value(rho, metric)
                assert cands.local_value(rho, metric, q) == want_fl
    if truncation_radius is not None and name in ("half-square", "halfline-convex"):
        assert table.truncated["max"].any()


def _ref_strict_sweep(table, q, schedule, metric):
    # the per-level loop the column reductions replaced: each level's
    # suffix of the depth-ordered table, its infimum a scan over it
    rows = table.rows
    weight, ratio = rows.weight(q), rows.ratio(q)
    has_ratio = ~np.isnan(ratio)
    traces = {"uniform": [], "plain": [], "modified": []}
    used, truncated_any = 0, False
    for k, rho in enumerate(schedule.rho_values()):
        s = table.starts[k]
        used += int((table.sizes[s:] * rows.copies[s:]).sum())
        truncated_any = truncated_any or bool(table.truncated[metric][s:, k].any())
        plain = weight[s:] * table.local_values[metric][s:, k]
        modified = np.where(ratio[s:] > plain, ratio[s:], plain)
        traces["uniform"].append((rho, infimum(table.nonlocal_values[metric][s:, k])))
        traces["plain"].append((rho, infimum(plain)))
        traces["modified"].append((rho, infimum(modified[has_ratio[s:]])))
    return {
        "uniform": slopes_primal._finish("uniform_strict_q", traces["uniform"], truncated_any, used),
        "plain": slopes_primal._finish("strict_q", traces["plain"], False, used),
        "modified": slopes_primal._finish("modified_strict_q", traces["modified"], False, used),
    }


@pytest.mark.parametrize("truncation_radius", [None, 0.05])
@pytest.mark.parametrize("name", list(_PARITY_PROBLEMS))
def test_strict_sweep_levels_match_the_per_level_scans(name, truncation_radius):
    make, q = _PARITY_PROBLEMS[name]
    problem = make()
    s = Schedule(sample_budget=256, steps=5, truncation_radius=truncation_radius)
    ctx = RunContext(problem, q, s)
    for metric in ("max", "sum"):
        sweep = strict_sweep(ctx, metric)
        ref = _ref_strict_sweep(ctx.sweep_table, q, s, metric)
        for key in ref:
            _assert_same_estimate(getattr(sweep, key), ref[key])


@seed(20141124)
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda levels: st.lists(
            st.lists(
                st.one_of(
                    st.sampled_from([np.nan, INF, 0.0, 1.0]),
                    st.floats(min_value=0.0, allow_nan=False),
                ),
                min_size=levels,
                max_size=levels,
            ),
            max_size=12,
        ).map(lambda rows: np.array(rows, dtype=float).reshape(len(rows), levels))
    )
)
def test_level_infima_are_the_column_scans(values):
    # an empty table, all-NaN columns, INF entries and ties
    got = slopes_primal._level_infima(values)
    want = [infimum(values[:, k]) for k in range(values.shape[1])]
    assert [_bits(v) for v in got] == [_bits(v) for v in want]


def _reference_local_rho_slope(problem, rho, at, s, metric):
    # the per-radius loop the batched one replaced: one sampler call and
    # one reduction per radius
    d_at = problem.d_y(at.y, problem.ybar)
    scale = problem.product_dist(at, problem.anchor)
    budget = min(96, s.sample_budget) if problem.param_dim <= 1 else min(2560, 4 * s.sample_budget)
    seed = mix_seed(s.seed, "ls", at.x.tobytes(), at.y.tobytes())
    trace, used = [], 0
    for j, nr in enumerate(s.neighborhood_radii):
        r = max(nr * scale, 2.5e-12)
        ux, vy = sample_graph_arrays(problem, at, r, budget, mix_seed(seed, j))
        dx = problem.norm_x.value_rows(ux - at.x)
        dy = problem.norm_y.value_rows(vy - at.y)
        dv = problem.norm_y.value_rows(vy - problem.ybar)
        den = np.maximum(dx, rho * dy) if metric == "max" else dx + rho * dy
        ok = np.maximum(dx, dy) > max(1e-12, 4e-9 * scale)
        used += int(ok.sum())
        vals = np.where(ok, np.maximum(d_at - dv, 0.0) / np.where(ok, den, 1.0), -1.0)
        trace.append((r, max(float(vals.max()), 0.0) if vals.size else 0.0))
    return tuple(trace), used


@pytest.mark.parametrize("name", ["half-square", "linear-A", "inline-3max1"])
def test_local_rho_slope_matches_per_radius_reference(name):
    make, _ = _PARITY_PROBLEMS[name]
    problem = make()
    s = Schedule(sample_budget=256, steps=5)
    pool = outer_pools(problem, s, True)
    points = [ProductPoint(x, y) for x, y in zip(pool.x[:4], pool.y[:4])]
    points += [problem.anchor]
    assert len(points) > 1
    for at in points:
        for rho, metric in ((0.5, "max"), (2.0, "sum")):
            est = local_rho_slope(problem, rho, at, s, metric)
            trace, used = _reference_local_rho_slope(problem, rho, at, s, metric)
            assert est.trace == trace and est.value == trace[-1][1]
            assert est.budget_used == used


def test_constant_sweep_is_inconclusive_from_its_empty_table():
    p = catalog_problem("constant")
    s = Schedule(sample_budget=256, steps=5)
    ctx = RunContext(p, 1.0, s)
    sweep, ratio = ctx.sweep, ctx["anchor_ratio_liminf"]
    for est in (sweep.uniform, sweep.plain, sweep.modified, ratio):
        assert is_inf(est.value) and est.budget_used == 0
        assert "inconclusive" in est.flags


def _reference_anchor_ratio(problem, q, s):
    # the ratio loop strict_sweep once ran, as a scan over every copy of
    # each level's pool of the per-level build: the points with
    # d(x, xbar) > 0; the budget is the pool copies the levels read
    trace, used = [], 0
    for rho, pool in zip(s.rho_values(), ref_pools(problem, s)):
        best = INF
        for pt in pool:
            used += 1
            if pt.dxa > 0 and pt.dya**q / pt.dxa < best:
                best = pt.dya**q / pt.dxa
        trace.append((rho, best))
    return slopes_primal._finish("anchor_ratio_liminf", trace, False, used)


@pytest.mark.parametrize("q", [0.5, 1.0])
@pytest.mark.parametrize("name", ["half-square", "halfline-convex", "linear-A", "constant"])
def test_anchor_ratio_matches_sweep_reference(name, q):
    make, _ = _PARITY_PROBLEMS[name]
    problem = make()
    s = Schedule(sample_budget=256, steps=5)
    got = RunContext(problem, q, s)["anchor_ratio_liminf"]
    want = _reference_anchor_ratio(problem, q, s)

    def bits(trace):  # repr round-trips a float and tells -0.0 from 0.0
        return [(repr(rho), repr(v)) for rho, v in trace]

    assert bits(got.trace) == bits(want.trace)
    assert repr(got.value) == repr(want.value)
    assert got.flags == want.flags and got.budget_used == want.budget_used


# --------------------------------------------------------------------------
# the f-level engine against the point-by-point scalar reference
# --------------------------------------------------------------------------


class _RefFCandidates:
    # the scalar candidate set the engine replaced: one row per sampled
    # point with a finite value, distances by the scalar norm
    def __init__(self, func, at, pts, include_anchor):
        if include_anchor:
            pts = list(pts) + [ProductPoint(func.xbar, func.ybar)]
        f_at = func.value(at.x, at.y)
        rows = []
        for p in pts:
            fv = func.value(p.x, p.y)
            if is_inf(fv):
                continue
            rows.append((float(fv), func.norm_x.value(p.x - at.x), func.norm_y.value(p.y - at.y)))
        arr = np.array(rows, dtype=float).reshape(-1, 3)
        self.f_at = float(f_at) if not is_inf(f_at) else 0.0
        self.fvals, self.dx, self.dy = arr[:, 0], arr[:, 1], arr[:, 2]
        self.local_mask = None

    def reduce(self, numerator, rho, local=False):
        den = np.maximum(self.dx, rho * self.dy)
        ok = np.maximum(self.dx, self.dy) > slopes_primal.EXCLUSION_BAND
        if local and self.local_mask is not None:
            ok = ok & self.local_mask
        if not np.any(ok):
            return 0.0
        fv = np.maximum(self.fvals, 0.0) if numerator == "plus" else self.fvals
        num = np.maximum(self.f_at - fv, 0.0)
        vals = np.where(ok, num / np.where(ok, den, 1.0), -1.0)
        return max(float(np.max(vals)), 0.0)


def _ref_f_scale(func, at):
    return max(func.norm_x.value(at.x - func.xbar), func.norm_y.value(at.y - func.ybar))


def _ref_f_level_strict(func_or_ef, schedule):
    func = induced(func_or_ef)
    anchor = ProductPoint(func.xbar, func.ybar)
    rhos = schedule.rho_values()
    n = schedule.outer_samples_per_level()
    sampled = []
    for k, rho in enumerate(rhos):
        for p in points(func.sampler(anchor, rho, n, mix_seed(schedule.seed, "fstrict", k))):
            fv = func.value(p.x, p.y)
            if is_inf(fv) or fv <= 0.0:
                continue
            dxa = func.norm_x.value(p.x - func.xbar)
            dya = func.norm_y.value(p.y - func.ybar)
            if max(dxa, dya) <= slopes_primal.UNRESOLVABLE_FLOOR:
                continue
            sampled.append((float(fv), dxa, p))
    traces = {"uniform": [], "plain": [], "modified": []}
    used = 0
    candidates = {}
    for rho in rhos:
        best = {"uniform": INF, "plain": INF, "modified": INF}
        for fv, dxa, p in sampled:
            if not (fv < rho and dxa < rho):
                continue
            cands = candidates.get(p)
            if cands is None:
                scale = _ref_f_scale(func, p)
                r_loc = max(schedule.neighborhood_radii[-1] * scale, slopes_primal.LOCAL_RADIUS_FLOOR)
                seed = (p.x.tobytes(), p.y.tobytes())
                far = points(
                    func.sampler(
                        p, 10.0 * max(1.0, scale), max(64, schedule.sample_budget // 8),
                        mix_seed(schedule.seed, "fnlc", *seed),
                    )
                )
                near = points(
                    func.sampler(
                        p, r_loc, max(64, schedule.sample_budget // 16),
                        mix_seed(schedule.seed, "flocc", *seed),
                    )
                )
                cands = _RefFCandidates(func, p, list(far) + list(near), True)
                cands.local_mask = np.maximum(cands.dx, cands.dy) <= r_loc + radius_pad(p)
                candidates[p] = cands
            used += cands.fvals.shape[0]
            u = cands.reduce("plus", rho)
            l = cands.reduce("raw", rho, local=True)
            m = max(l, fv / dxa) if dxa > 0 else INF
            for key, v in (("uniform", u), ("plain", l), ("modified", m)):
                if v < best[key]:
                    best[key] = v
        for key in traces:
            traces[key].append((rho, best[key]))
    return {
        "uniform": slopes_primal._finish("f_uniform_strict", traces["uniform"], False, used),
        "plain": slopes_primal._finish("f_strict_outer", traces["plain"], False, used),
        "modified": slopes_primal._finish("f_modified_strict_outer", traces["modified"], False, used),
    }


def _ref_f_point_slopes(func_or_ef, rho, at, schedule):
    func = induced(func_or_ef)
    if is_inf(func.value(at.x, at.y)):
        return {v: SlopeEstimate(INF, ((rho, INF),), False, 0, f"f_{v}") for v in ("nonlocal", "local")}
    scale = _ref_f_scale(func, at)
    trunc = schedule.truncation_radius or 10.0 * max(1.0, scale)
    seed = (at.x.tobytes(), at.y.tobytes())
    pts = points(
        func.sampler(
            at, trunc, max(64, schedule.sample_budget // 4), mix_seed(schedule.seed, "fnl", *seed)
        )
    )
    cands = _RefFCandidates(func, at, pts, True)
    val = cands.reduce("plus", rho)
    out = {"nonlocal": SlopeEstimate(val, ((rho, val),), False, cands.fvals.shape[0], "f_nonlocal")}
    trace, used = [], 0
    for j, nr in enumerate(schedule.neighborhood_radii):
        r = max(nr * scale, slopes_primal.LOCAL_RADIUS_FLOOR)
        pts = points(
            func.sampler(
                at, r, max(64, schedule.sample_budget // 16), mix_seed(schedule.seed, "floc", j, *seed)
            )
        )
        cands = _RefFCandidates(func, at, pts, False)
        used += cands.fvals.shape[0]
        trace.append((r, cands.reduce("raw", rho)))
    out["local"] = SlopeEstimate(trace[-1][1], tuple(trace), False, used, "f_local")
    return out


def _bits(v):
    """A value's exact identity: the ``INF`` object itself, or the type
    and the hex form of a float (which tells -0.0 from 0.0)."""
    return "INF" if v is INF else (type(v).__name__, float(v).hex())


def _assert_same_estimate(new, ref):
    assert new.kind == ref.kind
    assert _bits(new.value) == _bits(ref.value), new.kind
    assert [(_bits(r), _bits(v)) for r, v in new.trace] == [
        (_bits(r), _bits(v)) for r, v in ref.trace
    ], new.kind
    assert type(new.budget_used) is int and new.budget_used == ref.budget_used, new.kind
    assert new.truncated == ref.truncated and new.flags == ref.flags, new.kind


def _inline(coef, power):
    pieces = [
        {"domain": [-1.0, 0.0], "coeffs": [0.0]},
        {"domain": [0.0, 2.0], "coeffs": [0.0] * power + [coef]},
    ]
    return piecewise_problem(pieces, xbar=0.0, ybar=0.0)


def _embedding():
    return single_variable_embedding(abs, solution_distance=lambda xs: np.abs(xs[:, 0]))


# every catalog entry but constant's empty windows has a positive f somewhere;
# linear-A takes 2-D norms, the embedding is a generic function, and finite
# samples an explicit graph
F_ENGINE_CASES = {
    "half-square": lambda: catalog_problem("half-square"),
    "identity": lambda: catalog_problem("identity"),
    "square": lambda: catalog_problem("square"),
    "halfline-convex": lambda: catalog_problem("halfline-convex"),
    "linear-A": lambda: catalog_problem("linear-A"),
    "constant": lambda: catalog_problem("constant"),
    "half-square-inline": lambda: _inline(1.0, 2),
    "2max2-inline": lambda: _inline(2.0, 2),
    "3max1-inline": lambda: _inline(3.0, 1),
    "embedding": _embedding,
    "finite": _finite_half_square,
}
F_ENGINE_SCHEDULES = [Schedule(sample_budget=256, steps=5, seed=s) for s in (0, 3)]


def _f_engine_subject(name, q):
    made = F_ENGINE_CASES[name]()
    return made if name == "embedding" else ErrorFunction(made, q)


@pytest.mark.parametrize("seed_index", [0, 1])
@pytest.mark.parametrize(
    "name,q",
    [(n, q) for n in F_ENGINE_CASES for q in (0.25, 0.5, 1.0) if n != "embedding" or q == 1.0],
)
def test_f_level_strict_matches_scalar_reference(name, q, seed_index):
    s = F_ENGINE_SCHEDULES[seed_index]
    subject = _f_engine_subject(name, q)
    new, ref = f_level_strict(subject, s), _ref_f_level_strict(subject, s)
    assert list(new) == list(ref)
    for key in ref:
        _assert_same_estimate(new[key], ref[key])
    # the anchor variants of f_level_slopes, in their fixed order
    variants = ("modified-strict-outer", "uniform-strict", "strict-outer")
    via = f_level_slopes(subject, 0.5, ProductPoint(subject.xbar, subject.ybar), s, variants)
    assert list(via) == ["uniform-strict", "strict-outer", "modified-strict-outer"]
    for key, family in zip(via, ("uniform", "plain", "modified")):
        _assert_same_estimate(via[key], ref[family])
    if name != "constant":
        assert ref["uniform"].budget_used > 0


def _ref_f_level_strict_sorted_keys(func_or_ef, schedule):
    # the window dedupe the first-draw table replaced: the distinct window
    # points in the sorted order of their bytes, each with its copies in
    # the coarsest window, and the windows (f < rho) & (dxa < rho)
    rhos = schedule.rho_values()
    seeds = [mix_seed(schedule.seed, "fstrict", k) for k in range(len(rhos))]
    ux, vy, f, dxa, dya = slopes_primal.anchor_f_rows(
        func_or_ef, rhos, schedule.outer_samples_per_level(), seeds
    )
    rho = np.array(rhos)
    floor, floor_loc = slopes_primal.UNRESOLVABLE_FLOOR, slopes_primal.LOCAL_RADIUS_FLOOR
    in_any = (np.maximum(dxa, dya) > floor) & (f < rho[0]) & (dxa < rho[0])
    first, _, mult = distinct_rows(np.hstack([ux, vy])[in_any])
    pts = np.flatnonzero(in_any)[first]
    window = (f[pts, None] < rho) & (dxa[pts, None] < rho)
    uniform, plain = np.empty((pts.size, rho.size)), np.empty((pts.size, rho.size))
    sizes = np.empty(pts.size, dtype=np.int64)
    far = max(64, schedule.sample_budget // 8)
    near = max(64, schedule.sample_budget // 16)
    step = max(1, slopes_primal.SWEEP_CHUNK_ROWS // (far + near + 1))
    for c0 in range(0, pts.size, step):
        sel = pts[c0 : c0 + step]
        centres = [ProductPoint(ux[i], vy[i]) for i in sel]
        scale = np.maximum(dxa[sel], dya[sel])
        r_loc = np.maximum(schedule.neighborhood_radii[-1] * scale, floor_loc)
        trunc = 10.0 * np.maximum(1.0, scale)
        calls = []  # each centre's far and near calls
        for p, t, r in zip(centres, trunc.tolist(), r_loc.tolist()):
            calls.append([
                (p, t, far, slopes_primal._point_seed(schedule, "fnlc", p)),
                (p, r, near, slopes_primal._point_seed(schedule, "flocc", p)),
            ])
        cands = slopes_primal._f_table(func_or_ef, centres, f[sel], calls, r_loc, trunc, True)
        chunk = slice(c0, c0 + sel.size)
        uniform[chunk] = cands.nonlocal_table(1.0, rhos)[0]
        plain[chunk] = cands.local_table(rhos)
        sizes[chunk] = cands.counts
    with np.errstate(divide="ignore"):
        ratio = (f[pts] / dxa[pts])[:, None]
    modified = np.where(ratio > plain, ratio, plain)
    modified[dxa[pts] <= 0.0] = np.nan
    used = int((window * (mult * sizes)[:, None]).sum())
    out = {}
    for key, kind, vals in (
        ("uniform", "f_uniform_strict", uniform),
        ("plain", "f_strict_outer", plain),
        ("modified", "f_modified_strict_outer", modified),
    ):
        vals = np.where(window, vals, np.nan)
        trace = [(r, infimum(vals[:, k])) for k, r in enumerate(rhos)]
        out[key] = slopes_primal._finish(kind, trace, False, used)
    return out


@pytest.mark.parametrize("seed_index", [0, 1])
@pytest.mark.parametrize("name", ["linear-A", "half-square-inline"])
def test_f_level_strict_matches_the_sorted_key_windows(name, seed_index):
    s = F_ENGINE_SCHEDULES[seed_index]
    ef = ErrorFunction(F_ENGINE_CASES[name](), 0.5)
    new, ref = f_level_strict(ef, s), _ref_f_level_strict_sorted_keys(ef, s)
    assert list(new) == list(ref)
    for key in ref:
        _assert_same_estimate(new[key], ref[key])
    assert ref["uniform"].budget_used > 0


@pytest.mark.parametrize("q", [0.25, 1.0])
@pytest.mark.parametrize("name", [n for n in F_ENGINE_CASES if n != "constant"])
def test_f_level_point_slopes_match_scalar_reference(name, q):
    s = F_ENGINE_SCHEDULES[1]
    subject = _f_engine_subject(name, q)
    ux, vy, f, _, _ = slopes_primal.anchor_f_rows(subject, [0.3], 8, [5])
    points = [ProductPoint(x, y) for x, y in zip(ux[:3], vy[:3])]
    points.append(ProductPoint(subject.xbar, subject.ybar))
    if name != "embedding":
        points.append(ProductPoint(subject.xbar, subject.ybar + 1.0))  # off the graph
    for at in points:
        for rho in (0.1, 2.0):
            new = f_level_slopes(subject, rho, at, s, ("nonlocal", "local"))
            ref = _ref_f_point_slopes(subject, rho, at, s)
            for key in ("nonlocal", "local"):
                _assert_same_estimate(new[key], ref[key])


@pytest.mark.parametrize("name", [n for n in F_ENGINE_CASES if n != "embedding"])
def test_f_engine_rows_lie_on_the_graph(monkeypatch, name):
    # the engine takes f = d(v, ybar)**q without a membership test, on
    # rows that ErrorFunction.rows (in problems) draws
    problem = F_ENGINE_CASES[name]()
    drawn = []

    def recording(pr, calls):
        ux, vy, counts = sample_graph_batch(pr, calls)
        drawn.append((ux, vy))
        return ux, vy, counts

    monkeypatch.setattr(problems, "sample_graph_batch", recording)
    for q in (0.25, 0.5, 1.0):
        ef = ErrorFunction(problem, q)
        for s in F_ENGINE_SCHEDULES:
            f_level_strict(ef, s)
            error_bound_modulus(ef, s)
            validate_P1_P2(ef, s)
            f_level_slopes(ef, 0.2, problem.anchor, s, ("nonlocal", "local"))
    rows = sum(ux.shape[0] for ux, _ in drawn)
    assert rows > 0
    for ux, vy in drawn:
        for x, y in zip(ux, vy):
            assert problem.graph_membership(x, y), (x, y)


_TABLE_ARRAYS = (
    "counts", "centre_value", "trunc_radius", "min_dist",
    "dx", "dy", "row_value", "dist", "local_mask",
)


def _assert_same_arrays(got, want, names):
    assert got is not want
    for name in names:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and same_bits(g, w), name


@pytest.mark.parametrize("truncation_radius", [None, 0.05])
@pytest.mark.parametrize("name", [n for n in F_ENGINE_CASES if n != "embedding"])
def test_mapping_tables_match_the_graph_only_builder(monkeypatch, name, truncation_radius):
    # drawn through the order-1 error function, a mapping's candidate
    # tables and error-bound anchor rows are those of the mapping-only
    # builder and anchor draw, bit for bit
    problem = F_ENGINE_CASES[name]()
    s = Schedule(sample_budget=256, steps=5, truncation_radius=truncation_radius)
    pool = outer_pools(problem, s, True)
    near = sample_graph_arrays(problem, problem.anchor, 0.5, 4, 11)  # y on ybar for constant
    points = [problem.anchor] + [ProductPoint(x, y) for x, y in zip(pool.x[:6], pool.y[:6])]
    points += [ProductPoint(x, y) for x, y in zip(*near)] + _probe_points(problem, s, 4)
    assert len(points) >= 5
    for at in points:
        got = gather_point_candidates(problem, at, s)
        _assert_same_arrays(got, graph_reference.gather(problem, [at], s), _TABLE_ARRAYS)
    got = slopes_primal._gather(problem, points, s)
    _assert_same_arrays(got, graph_reference.gather(problem, points, s), _TABLE_ARRAYS)

    built, original = [], slopes_primal._f_table

    def recording(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(slopes_primal, "_f_table", recording)
    for at in points:
        local_rho_slope(problem, 0.5, at, s)
    if problem.graph_points is not None:
        assert not built  # an explicit finite graph is scanned scalar by scalar
    else:
        assert len(built) == len(points)
        for at, got in zip(points, built):
            _assert_same_arrays(got, graph_reference.local_table(problem, at, s), _TABLE_ARRAYS)

    got, want = Tables(problem, s).anchor, graph_reference.anchor_columns(problem, s)
    _assert_same_arrays(got, want, [f.name for f in dataclasses.fields(got) if f.name != "drawn"])
    assert type(got.drawn) is type(want.drawn) and got.drawn == want.drawn
    assert got.x.shape[0] > 0 or name == "constant"

