import dataclasses
from functools import partial

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
    is_inf,
    piecewise_problem,
    solution_set_distance,
    validate_P1_P2,
)
from subreg.problems import (
    OuterPool,
    ProblemError,
    UnknownProblemError,
    _sphere_directions,
    halton_points,
    halton_shift,
    halving_ladder,
    mix_seed,
    outer_pools,
    q_powers,
    radius_pad,
    sample_graph_arrays,
    sample_graph_batch,
    sample_outer_points,
)
import catalog_reference
import coderivative_reference
from graph_reference import (
    catalog_to_graph,
    induced,
    piecewise_to_graph,
    same_bits,
    scalar_graph_rows,
)
from pool_reference import ref_fresh, ref_pools
from sampler_reference import graph_sample, halving_offsets


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
    # the sampler contract: (center, radius, budget, seed) -> (ux, vy), at
    # most budget rows on the graph within radius, the same bits per seed
    p = catalog_problem("half-square")
    center = ProductPoint([0.5], [0.25])
    ux, vy = sample_graph_arrays(p, center, 0.1, 0, 1)
    assert ux.shape == (0, 1) and vy.shape == (0, 1)
    ux, vy = sample_graph_arrays(p, center, 0.1, 256, 1)
    assert 0 < ux.shape[0] == vy.shape[0] <= 256
    for x, y in zip(ux, vy):
        assert p.graph_membership(x, y)
        assert abs(float(y[0]) - max(float(x[0]), 0.0) ** 2) <= 1e-9
        assert p.product_dist(ProductPoint(x, y), center) <= 0.1 * (1 + 1e-9)
    again = sample_graph_arrays(p, center, 0.1, 256, 1)
    assert ux.tobytes() == again[0].tobytes() and vy.tobytes() == again[1].tobytes()


def test_halving_ladder_is_repeated_halving():
    for start, stop, cap in ((0.7, 1e-9, 64), (3.0, 2e-12, 64), (1e-3, 1e-11, 5), (0.5, 1.0, 64)):
        offs, keep = halving_ladder(start, stop, cap)
        assert offs[keep].tolist() == halving_offsets(start, stop, cap)
        assert keep.tolist() == sorted(keep.tolist(), reverse=True)  # a prefix


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
    pool = sample_outer_points(p, [0.25], 64, [5], schedule)
    assert len(pool) and np.all(pool.depth == 0)
    assert np.all(pool.dxa < 0.25) and np.all((0.0 < pool.dya) & (pool.dya < 0.25))
    assert np.all(pool.x[:, 0] > 1e-7)  # outside F^{-1}(ybar) = (-inf, 0]


def test_outer_pools_nested(schedule):
    p = catalog_problem("half-square")
    pool = outer_pools(p, schedule, True)
    rhos = schedule.rho_values()
    assert 0 <= pool.depth.min() and pool.depth.max() < len(rhos)
    assert np.all(np.diff(pool.depth) >= 0)  # in depth order: level k is a suffix
    level = np.maximum(pool.dxa, pool.dya)
    for k, rho in enumerate(rhos):
        # level k is the rows of depth k or more: exactly those inside window k
        assert np.array_equal(pool.depth >= k, level < rho)


def test_constant_problem_has_no_outer_points(schedule):
    p = catalog_problem("constant")
    pool = outer_pools(p, schedule, True)
    assert len(pool) == 0 and pool.depth.size == 0
    assert pool.x.shape == (0, p.dim_x) and pool.y.shape == (0, p.dim_y)


def test_outer_pool_counts_the_copies_of_each_point():
    s = Schedule(sample_budget=256, steps=5)
    pool = outer_pools(catalog_problem("half-square"), s, True)
    # the halving stencils of different levels coincide bitwise
    assert (len(pool), pool.depth.size) == (50, 14)
    assert int(pool.copies.min()) >= 1 and int(pool.copies.max()) > 1


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
        sampler=partial(sample_graph_arrays, ident),
        solution_distance=ident.solution_distance,
    )
    rep = validate_P1_P2(func, schedule)
    assert rep.p1_status == "pass"
    assert rep.p2_status == "fail"


def test_validate_p1_fails_for_a_function_vanishing_off_ybar(schedule):
    # zero on the whole graph of the identity, so also where y != ybar
    ident = catalog_problem("identity")
    func = TwoVariableFunction(
        f=lambda x, y: 0.0 if ident.graph_membership(x, y) else INF,
        xbar=ident.xbar,
        ybar=ident.ybar,
        norm_x=ident.norm_x,
        norm_y=ident.norm_y,
        sampler=partial(sample_graph_arrays, ident),
    )
    rep = validate_P1_P2(func, schedule)
    assert rep.p1_status == "fail"
    assert not rep.passed
    # no sampled row has f > 0, so the P2 ratio has no level to read
    assert rep.p2_status == "inconclusive" and is_inf(rep.p2_infimum)


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
    at = (np.array([0.5]), np.array([0.25]), np.array([2.0]))
    (image,) = p.coderivative_image(*at).members()
    np.testing.assert_allclose(image, [2.0], atol=1e-12)
    (want,) = coderivative_reference.piecewise(pieces)(*at).members()
    assert image.tobytes() == want.tobytes()
    pts = graph_sample(p, p.anchor, 0.5, 128, 1)
    assert all(p.graph_membership(pt.x, pt.y) for pt in pts)


def test_piecewise_kink_has_no_coderivative_description():
    pieces = [
        {"domain": [-1.0, 0.0], "coeffs": [0.0, -1.0]},
        {"domain": [0.0, 1.0], "coeffs": [0.0, 1.0]},
    ]
    p = piecewise_problem(pieces, xbar=0.0, ybar=0.0)
    at = (np.array([0.0]), np.array([0.0]))
    assert p.coderivative_matrix(*at) is None
    assert p.coderivative_image(*at, np.array([1.0])) is None
    assert coderivative_reference.piecewise(pieces)(*at, np.array([1.0])) is None


@pytest.mark.parametrize(
    "domains",
    [
        [[-1.0, 1.0], [0.0, 2.0]],
        [[0.0, 2.0], [-1.0, 1.0]],  # unsorted
        [[-1.0, 3.0], [0.0, 1.0]],  # one inside another
        [[-1.0, 3.0], [0.0, 1.0], [2.0, 4.0]],  # past a piece the last one misses
    ],
)
def test_piecewise_domains_overlapping_on_a_length_are_rejected(domains):
    pieces = [{"domain": d, "coeffs": [0.0, float(k + 1)]} for k, d in enumerate(domains)]
    with pytest.raises(ProblemError, match="piece domains overlap"):
        piecewise_problem(pieces, xbar=0.0, ybar=0.0)


def test_piecewise_domains_may_share_an_end():
    domains = [[-1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 2.0]]
    pieces = [{"domain": d, "coeffs": [0.0, 1.0]} for d in domains]
    p = piecewise_problem(pieces, xbar=0.0, ybar=0.0)
    np.testing.assert_array_equal(p.coderivative_matrix(np.array([1.0]), np.array([1.0])), [[1.0]])


def test_piecewise_unknown_piece_key_is_rejected():
    pieces = [{"domain": [-1.0, 1.0], "coeffs": [0.0, 1.0], "extra": 1}]
    with pytest.raises(ProblemError, match=r"unknown keys in piece: \['extra'\]"):
        piecewise_problem(pieces, xbar=0.0, ybar=0.0)


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


@pytest.mark.parametrize(
    "radii", [[0.25, 0.05, 0.01], np.array([0.25, 0.05, 0.01])], ids=["list", "array"]
)
def test_schedule_keeps_its_radii_hashable(radii):
    s = Schedule(sample_budget=256, steps=3, neighborhood_radii=radii)
    assert type(s.neighborhood_radii) is tuple
    assert s == Schedule(sample_budget=256, steps=3, neighborhood_radii=(0.25, 0.05, 0.01))
    # the first pool read keys the pool cache on the schedule
    assert outer_pools(catalog_problem("half-square"), s, True).x.shape[0] > 0
    # the elements stay as given: an integer radius is serialized as one
    assert type(Schedule(neighborhood_radii=[1, 0.5]).neighborhood_radii[0]) is int


def test_outer_pools_is_the_only_cached_callable():
    import importlib
    import pkgutil

    import subreg

    cached = set()
    for info in pkgutil.iter_modules(subreg.__path__):
        for obj in vars(importlib.import_module(f"subreg.{info.name}")).values():
            members = vars(obj).values() if isinstance(obj, type) else ()
            for o in (obj, *members):
                if hasattr(o, "cache_info"):
                    cached.add(f"{o.__module__}.{o.__qualname__}")
    assert cached == {"subreg.problems.outer_pools"}


# --------------------------------------------------------------------------
# vectorized sampler against the row-by-row reference
# --------------------------------------------------------------------------

_SPLIT_PIECES = [
    # unsorted on purpose; a shared boundary at 0 and a gap (1, 1.5)
    {"domain": [1.5, 2.0], "coeffs": [1.0, -2.0, 0.5, 0.25]},
    {"domain": [-1.0, 0.0], "coeffs": [0.0]},
    {"domain": [0.0, 1.0], "coeffs": [0.0, 0.0, 1.0]},
]
_HALF_SQUARE_PIECES = [
    {"domain": [-1.0, 0.0], "coeffs": [0.0]},
    {"domain": [0.0, 2.0], "coeffs": [0.0, 0.0, 1.0]},
]


_INLINE_PIECES = {"inline-split": _SPLIT_PIECES, "inline-half-square": _HALF_SQUARE_PIECES}


def _scalar_map(problem):
    # the reference scalar map of a default catalog entry or a test inline problem
    if problem.name in _INLINE_PIECES:
        return piecewise_to_graph(_INLINE_PIECES[problem.name])
    return catalog_to_graph(problem.name)


def _parity_params(problem):
    rng = np.random.default_rng(5)
    rows = [rng.uniform(-3.0, 3.0, (400, problem.param_dim))]
    # 0.1888926931268876 ** 2 is one ulp below 0.1888926931268876 * 0.1888926931268876
    specials = (0.0, -0.0, 1e-300, -1e-300, 0.1888926931268876, 1.25, 1.0 + 5e-10, 1.5 - 2e-9)
    for v in specials + (np.inf, -np.inf, np.nan):
        rows.append(np.full((1, problem.param_dim), v))
    return np.concatenate(rows)


@pytest.mark.parametrize(
    "problem",
    [catalog_problem(n) for n in catalog_names()]
    + [
        piecewise_problem(_SPLIT_PIECES, xbar=0.0, ybar=0.0, name="inline-split"),
        piecewise_problem(_HALF_SQUARE_PIECES, xbar=0.0, ybar=0.0, name="inline-half-square"),
    ],
    ids=lambda p: p.name,
)
def test_batch_graph_map_matches_scalar(problem):
    params = _parity_params(problem)
    if problem.name.startswith("inline"):
        # gaps snap to the nearest edge, the first one on a tie (1.25)
        params = np.concatenate([params, np.linspace(-2.0, 3.0, 501)[:, None]])
    with np.errstate(invalid="ignore"):  # inf * 0 in linear-A's matrix product
        bx, by = problem.param_to_graph_batch(params)
        sx, sy = scalar_graph_rows(_scalar_map(problem), params)
    # NaN parameters give NaN rows in the catalog maps; the inline map snaps
    # them. Signed zeros count apart: halfline-convex maps t = (-0.0, -0.0)
    # to y = +0.0
    assert same_bits(bx, sx)
    assert same_bits(by, sy)


# signed zeros, the least subnormals, and points near, inside and off the anchor
_LINE_GRID = (-3.0, -0.5, -1e-8, -5e-324, -0.0, 0.0, 5e-324, 1e-8, 0.5, 3.0)


@pytest.mark.parametrize("name", sorted(catalog_reference.CATALOG))
def test_line_catalog_entries_match_their_field_by_field_constructors(name):
    new, ref = catalog_problem(name), catalog_reference.CATALOG[name]()
    for f in dataclasses.fields(ref):
        want, got = getattr(ref, f.name), getattr(new, f.name)
        if isinstance(want, np.ndarray):
            assert same_bits(got, want), f.name
        elif not callable(want):
            assert got == want, f.name
        else:  # an oracle of each, never the same function object
            assert callable(got) and got is not want, f.name

    def bits(value):
        return np.float64(value).tobytes()

    params = np.array(_LINE_GRID)[:, None]
    (rx, ry), (nx, ny) = ref.param_to_graph_batch(params), new.param_to_graph_batch(params)
    assert same_bits(nx, rx) and same_bits(ny, ry)
    assert np.shares_memory(nx, ny) == np.shares_memory(rx, ry)
    on, off = 0, 0
    for u, v in zip(_LINE_GRID, ry[:, 0]):
        x, gy = np.array([u]), np.array([v])
        assert bits(new.fiber_distance(x)) == bits(ref.fiber_distance(x)), u
        assert bits(new.solution_distance(x)) == bits(ref.solution_distance(x)), u
        assert same_bits(new.param_of(x, gy), ref.param_of(x, gy)), u
        assert same_bits(new.coderivative_matrix(x, gy), ref.coderivative_matrix(x, gy)), u
        for radius in (1e-8, 0.5):
            t0 = ref.param_of(x, gy)
            (nlo, nhi), (rlo, rhi) = new.param_window(t0, radius), ref.param_window(t0, radius)
            assert same_bits(nlo, rlo) and same_bits(nhi, rhi), (u, radius)
        for y in (v, v + 0.5e-9, v - 0.5e-9, v + 2e-9, v - 2e-9, -v) + _LINE_GRID:
            inside = ref.graph_membership(x, np.array([y]))
            assert new.graph_membership(x, np.array([y])) is inside, (u, y)
            on, off = on + inside, off + (not inside)
    assert on and off


def test_linear_batch_map_rows_do_not_depend_on_their_batch():
    # a non-diagonal matrix: a matrix product takes one row by another
    # kernel than many, and can round it apart
    p = catalog_problem("linear-A", matrix=[[2.0, 1.3], [0.7, 3.0]])
    rng = np.random.default_rng(7)
    t = rng.uniform(-3.0, 3.0, (50_000, 2))
    _, full = p.param_to_graph_batch(t)
    sizes = np.concatenate([np.ones(200, dtype=int), rng.integers(2, 1000, 100)])
    for start, size in zip(rng.integers(0, 49_000, 300), sizes):
        _, part = p.param_to_graph_batch(t[start : start + size])
        assert part.tobytes() == full[start : start + size].tobytes()


# test_robustness.py's linear-A shapes that are not diagonal or not full rank
_LINEAR_SHAPES = {
    "upper-triangular": [[2.0, 1.0], [0.0, 3.0]],
    "rank-deficient": [[1.0, 0.0], [0.0, 0.0]],
    "rotation": [[0.6, -0.8], [0.8, 0.6]],
}


def _linear_params():
    rng = np.random.default_rng(13)
    signed = [0.0, -0.0, 1e-300, -1e-300, 1.5]
    edges = np.array([[u, v] for u in signed for v in signed])
    return np.concatenate([rng.uniform(-3.0, 3.0, (2000, 2)), edges])


def _blas_linear(matrix):
    # linear-A's fiber distance, solution distance and coderivative through
    # BLAS and LAPACK (np.linalg.norm, @, pinv): the parity reference of
    # the left-to-right sums that replace them
    a = np.asarray(matrix, dtype=float)
    _, s, vt = np.linalg.svd(a)
    null_basis = vt[int(np.sum(s > 1e-12 * s[0])) :].T
    pinv = np.linalg.pinv(a)

    def solution_distance(x):
        d = x - pinv @ np.zeros(a.shape[0])
        if null_basis.shape[1]:
            d = d - null_basis @ (null_basis.T @ d)
        return float(np.linalg.norm(d))

    return (lambda x: float(np.linalg.norm(a @ x))), solution_distance, (lambda ys: a.T @ ys)


@pytest.mark.parametrize("label", _LINEAR_SHAPES)
def test_linear_graph_map_is_the_row_by_row_product(label):
    matrix = _LINEAR_SHAPES[label]
    t = _linear_params()
    _, y = catalog_problem("linear-A", matrix=matrix).param_to_graph_batch(t)
    _, want = scalar_graph_rows(catalog_to_graph("linear-A", matrix), t)
    assert y.tobytes() == want.tobytes()
    assert (np.signbit(want) & (want == 0.0)).any()  # -0.0 kept bitwise


@pytest.mark.parametrize("label", _LINEAR_SHAPES)
def test_linear_oracles_stay_within_4_ulp_of_the_blas_forms(label):
    matrix = _LINEAR_SHAPES[label]
    a = np.abs(np.asarray(matrix))
    p = catalog_problem("linear-A", matrix=matrix)
    fiber, solution, coderivative = _blas_linear(matrix)
    oracle = coderivative_reference.linear(matrix)

    def close(got, want, scale):
        # 4 ulp of the sum of absolute products, which bounds the rounding
        # of either order even where a sum cancels
        return np.all(np.abs(np.asarray(got) - want) <= 4 * np.spacing(scale))

    for x in _linear_params():
        assert close(p.fiber_distance(x), fiber(x), np.linalg.norm(a @ np.abs(x))), x
        assert close(p.solution_distance(x), solution(x), np.linalg.norm(x)), x
        (got,) = p.coderivative_image(x, None, x).members()
        assert close(got, coderivative(x), a.T @ np.abs(x)), x
        assert got.tobytes() == oracle(x, None, x).members()[0].tobytes(), x


def test_clip_keeps_scalar_ties():
    # the batch maps clip with np.clip where the scalar maps take
    # min(max(v, lo), hi); np.maximum alone would turn max(-0.0, 0.0) into 0.0
    vals = [-0.0, 0.0, np.nan, -1.0, 2.0, 0.5]
    for lo, hi in ((0.0, 1.0), (-0.0, 0.0), (-1.0, -0.0), (0.5, 0.5)):
        got = np.clip(np.array(vals), lo, hi)
        want = np.array([min(max(v, lo), hi) for v in vals])
        assert got.tobytes() == want.tobytes()  # signed zeros and NaN included


def test_inline_gap_snaps_to_first_nearest_edge():
    p = piecewise_problem(_SPLIT_PIECES, xbar=0.0, ybar=0.0)
    x, y = p.param_to_graph_batch(np.array([[1.25], [1.3], [5.0], [-5.0]]))
    assert x[:, 0].tolist() == [1.0, 1.5, 2.0, -1.0]
    assert y[:, 0].tolist() == [1.0, 1.0 - 3.0 + 0.5 * 2.25 + 0.25 * 3.375, 1.0 - 4.0 + 2.0 + 2.0, 0.0]


def _reference_halton(dim, count, seed):
    # the per-call digit loop the cached radical-inverse table replaced
    if count <= 0:
        return np.zeros((0, dim))
    shift = np.random.default_rng(seed).random(dim)
    out = np.empty((count, dim))
    for j in range(dim):
        base = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)[j]
        col = np.zeros(count)
        denom = 1.0
        rem = np.arange(1, count + 1).astype(np.int64)
        while np.any(rem > 0):
            denom *= base
            col += (rem % base) / denom
            rem //= base
        out[:, j] = (col + shift[j]) % 1.0
    return out


def _reference_sample(problem, center, radius, budget, seed):
    # the list-based parameter builder the block builder replaced, mapped
    # row by row through the scalar graph map
    t0 = np.asarray(problem.param_of(center.x, center.y), dtype=float).reshape(-1)
    lo, hi = problem.param_window(t0, radius)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    dim = t0.shape[0]
    params = [t0]
    h_vec = np.maximum(hi - t0, t0 - lo)
    dir_seed = 0 if dim == 2 else mix_seed(seed, "sphere")

    def ring(n_dir, fracs):
        dirs = _sphere_directions(dim, n_dir, dir_seed)
        block = t0 + np.asarray(fracs)[:, None, None] * dirs[None, :, :] * h_vec
        return np.clip(block.reshape(-1, dim), lo, hi)

    if dim >= 2:
        params.extend(ring(32, (1.0, 0.25, 0.0625, 0.015625)))
    if dim <= 3:
        for mask in range(1 << dim):
            c = np.where([(mask >> i) & 1 for i in range(dim)], hi, lo)
            params.append(c.astype(float))
    center_scale = float(np.max(np.abs(t0))) if dim else 0.0
    for i in range(dim):
        h = max(hi[i] - t0[i], t0[i] - lo[i])
        if h <= 0:
            continue
        stop = max(1e-9 * h, 1e-8 * center_scale, 2e-12)
        for off in halving_offsets(h, stop, 64):
            for sgn in (1.0, -1.0):
                t = t0.copy()
                t[i] = min(max(t0[i] + sgn * off, lo[i]), hi[i])
                params.append(t)
    if dim >= 2:
        params.extend(ring(256, tuple(0.5**k for k in range(8))))
    fill = max(0, budget - len(params))
    if fill:
        u = _reference_halton(dim, fill, mix_seed(seed, "halton"))
        params.extend(lo + u * (hi - lo))
    ux, vy = scalar_graph_rows(_scalar_map(problem), np.array(params))
    dx = problem.norm_x.value_rows(ux - np.asarray(center.x))
    dy = problem.norm_y.value_rows(vy - np.asarray(center.y))
    cutoff = radius * (1.0 + 1e-12) + radius_pad(center)
    keep = np.flatnonzero(np.maximum(dx, dy) <= cutoff)[:budget]
    return ux[keep], vy[keep]


@pytest.mark.parametrize(
    "problem",
    [
        catalog_problem("half-square"),
        catalog_problem("halfline-convex"),
        catalog_problem("linear-A"),
        piecewise_problem(_SPLIT_PIECES, xbar=0.0, ybar=0.0, name="inline-split"),
    ],
    ids=lambda p: p.name,
)
def test_sampler_matches_list_based_reference(problem):
    centers = [problem.anchor]
    t = np.full((1, problem.param_dim), 0.3)
    if problem.name == "inline-split":
        t = np.array([[1.0]])  # on the shared-boundary side of the gap
    cx, cy = problem.param_to_graph_batch(t)
    centers.append(ProductPoint(cx[0], cy[0]))
    for center in centers:
        for radius in (0.7, 1e-3, 3e-8):
            for budget in (8, 300, 1024):  # 8 is below every stencil: no fill
                for seed in (0, 11):
                    got = sample_graph_arrays(problem, center, radius, budget, seed)
                    want = _reference_sample(problem, center, radius, budget, seed)
                    for g, w in zip(got, want):
                        assert g.shape == w.shape
                        assert np.array_equal(g, w)


def test_a_scalar_graph_map_alone_is_mapped_row_by_row():
    # the samplers' fallback for a problem without a batch map
    for problem in (
        catalog_problem("halfline-convex"),
        piecewise_problem(_SPLIT_PIECES, xbar=0.0, ybar=0.0, name="inline-split"),
    ):
        scalar = dataclasses.replace(
            problem, param_to_graph=_scalar_map(problem), param_to_graph_batch=None
        )
        for radius in (0.7, 1e-3):
            got = sample_graph_arrays(scalar, problem.anchor, radius, 300, 3)
            want = sample_graph_arrays(problem, problem.anchor, radius, 300, 3)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


def _reference_circle_grid(count):
    # the string bit reversal the doubling construction replaced
    bits = max(1, int(np.ceil(np.log2(count))))
    rev = np.array([int(format(i, f"0{bits}b")[::-1], 2) for i in range(count)], dtype=float)
    angles = 2.0 * np.pi * rev / (1 << bits)
    return np.column_stack([np.cos(angles), np.sin(angles)])


def test_circle_grid_matches_the_bit_reversal():
    for count in (1, 2, 3, 5, 8, 31, 32, 33, 100, 256, 257, 1000):
        got = _sphere_directions(2, count, 3)
        assert got.tobytes() == _reference_circle_grid(count).tobytes(), count
    assert _sphere_directions(2, 32, 0).tobytes() == _sphere_directions(2, 256, 0)[:32].tobytes()


def test_halton_dimension_is_at_most_ten():
    assert halton_points(10, 3, 0).shape == (3, 10)
    with pytest.raises(ProblemError):
        halton_points(11, 3, 0)


def test_halton_shift_is_numpys_pcg64_stream():
    # the reference is the generator the shift used to come from
    rng = np.random.default_rng(17)
    seeds = [0, 1, 2**31 - 1, 2**32, 2**70 + 3]  # 2**31 - 1 is mix_seed's largest
    seeds += rng.integers(0, 2**31, size=2000).tolist()
    for seed in seeds:
        for dim in range(1, 11):
            want = np.random.default_rng(seed).random(dim)
            assert halton_shift(seed, dim).tobytes() == want.tobytes(), (seed, dim)


def test_halton_shift_refuses_a_negative_seed():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        halton_shift(-1, 1)


def test_halton_matches_reference_and_prefixes():
    for dim in (1, 2, 3, 10):
        # shrinking and growing counts: answers never depend on call order
        for count in (5, 3000, 17, 4500, 1, 0):
            got = halton_points(dim, count, 9)
            assert np.array_equal(got, _reference_halton(dim, count, 9))
        long = halton_points(dim, 2000, 4)
        assert np.array_equal(halton_points(dim, 777, 4), long[:777])


# --------------------------------------------------------------------------
# many-call sampler against one call at a time
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "problem",
    [
        catalog_problem("half-square"),
        catalog_problem("halfline-convex"),
        catalog_problem("linear-A"),
        # three parameters: gaussian stencil directions, one set per call
        pytest.param(
            catalog_problem("linear-A", matrix=[[2, 1, 0], [0, 3, 1], [1, 0, 4]]),
            id="linear-A-dim3",
        ),
        piecewise_problem(_SPLIT_PIECES, xbar=0.0, ybar=0.0, name="inline-split"),
    ],
    ids=lambda p: p.name,
)
def test_batched_sampler_matches_one_call_at_a_time(problem):
    t = np.array([[0.3] * problem.param_dim, [-0.2] * problem.param_dim])
    gx, gy = problem.param_to_graph_batch(t)
    centers = [problem.anchor] + [ProductPoint(x, y) for x, y in zip(gx, gy)]
    calls = []
    for center in centers:
        # a budget the first rows fill, one that needs Halton fill, tiny
        # local radii and an empty budget
        for radius, budget in ((10.0, 64), (0.7, 4096), (1e-3, 200), (3e-8, 96), (0.5, 0)):
            calls.append((center, radius, budget, 100 + len(calls)))
    ux, vy, counts = sample_graph_batch(problem, calls)
    assert counts.sum() == ux.shape[0] == vy.shape[0]
    at = 0
    for call, n in zip(calls, counts):
        wx, wy = sample_graph_arrays(problem, *call)
        assert n == wx.shape[0]
        assert np.array_equal(ux[at : at + n], wx)
        assert np.array_equal(vy[at : at + n], wy)
        at += n


def test_batched_sampler_maps_the_tail_only_when_the_head_falls_short():
    base = catalog_problem("halfline-convex")
    mapped = []

    def counting(t):
        mapped.append(t.shape[0])
        return base.param_to_graph_batch(t)

    problem = dataclasses.replace(base, param_to_graph_batch=counting)
    center = ProductPoint([0.3], [0.5])
    # (radius, budget) -> rows per graph-map pass: the first rows already
    # keep 64, the fill makes one pass of exactly the budget, and at a
    # tiny radius too few of the first rows pass the cutoff for 200
    for (radius, budget), passes in (
        ((10.0, 64), [253]),
        ((10.0, 4096), [4096]),
        ((1e-3, 200), [211, 2048]),
    ):
        mapped.clear()
        got = sample_graph_batch(problem, [(center, radius, budget, 5)])
        assert mapped == passes
        want = sample_graph_arrays(base, center, radius, budget, 5)
        assert got[2].tolist() == [budget if budget < 4096 else want[0].shape[0]]
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_batched_sampler_on_a_finite_graph():
    p = finite_graph_problem([([x], [abs(x)]) for x in (-1.0, -0.5, 0.0, 0.25, 2.0)], [0.0], [0.0])
    calls = [(p.anchor, 0.6, 3, 0), (p.anchor, 5.0, 10, 1), (p.anchor, 1.0, 0, 2)]
    ux, _, counts = sample_graph_batch(p, calls)
    assert counts.tolist() == [3, 5, 0]
    assert ux[:, 0].tolist() == [-0.5, 0.0, 0.25, -1.0, -0.5, 0.0, 0.25, 2.0]


@pytest.mark.parametrize("q", [0.5, 1.0])
@pytest.mark.parametrize(
    "problem",
    [catalog_problem(n) for n in catalog_names()]
    + [piecewise_problem(_SPLIT_PIECES, xbar=0.0, ybar=0.0, name="inline-split")],
    ids=lambda p: p.name,
)
def test_error_function_rows_match_the_induced_reference(problem, q):
    # one batched draw valued d(v, ybar)**q without a membership test,
    # against one sampler call at a time valued by the membership-tested
    # ErrorFunction.value: the same rows, values and counts, bitwise
    ef = ErrorFunction(problem, q)
    gx, gy = problem.param_to_graph_batch(np.full((1, problem.param_dim), 0.3))
    calls = []
    for center in (problem.anchor, ProductPoint(gx[0], gy[0])):
        for radius, budget in ((10.0, 64), (0.7, 1024), (1e-3, 200), (3e-8, 96), (0.5, 0)):
            calls.append((center, radius, budget, 100 + len(calls)))
    ux, vy, f, counts = ef.rows(calls)
    rx, ry, rf, rcounts = induced(ef).rows(calls)
    assert counts.sum() > 0
    assert counts.tolist() == rcounts.tolist()
    assert same_bits(ux, rx) and same_bits(vy, ry) and same_bits(f, rf)


# --------------------------------------------------------------------------
# solution distances without re-deriving them per call
# --------------------------------------------------------------------------


def _reference_piecewise_solution_distance(pieces, ybar):
    # the per-call computation the per-piece zero sets replaced
    parsed = sorted(
        ((float(p["domain"][0]), float(p["domain"][1]), np.array(p["coeffs"], float)) for p in pieces),
        key=lambda t: t[0],
    )

    def solution_distance(x):
        u = float(x[0])
        best = None
        for a, b, c in parsed:
            shifted = c.copy()
            shifted[0] -= ybar
            if np.allclose(shifted, 0.0, atol=1e-15):
                d = 0.0 if a <= u <= b else min(abs(u - a), abs(u - b))
                best = d if best is None else min(best, d)
                continue
            roots = np.roots(shifted[::-1]) if len(shifted) > 1 else np.array([])
            for r in roots:
                if abs(r.imag) > 1e-9:
                    continue
                rr = float(r.real)
                if a - 1e-9 <= rr <= b + 1e-9:
                    d = abs(u - rr)
                    best = d if best is None else min(best, d)
        return best if best is not None else 1e30

    return solution_distance


@pytest.mark.parametrize(
    "pieces,xbar,ybar",
    [
        (_SPLIT_PIECES, 0.0, 0.0),  # a gap, a zero piece and a cubic with a root
        (_SPLIT_PIECES, 0.5, 0.25),  # no zero piece
        (_HALF_SQUARE_PIECES, 0.0, 0.0),
        # complex roots, and a real root outside its piece
        (
            [
                {"domain": [0.0, 1.0], "coeffs": [0.0, 1.0]},
                {"domain": [2.0, 3.0], "coeffs": [1.0, 0.0, 1.0]},
                {"domain": [4.0, 5.0], "coeffs": [-1.0, 1.0]},
            ],
            0.0,
            0.0,
        ),
        ([{"domain": [-1.0, 1.0], "coeffs": [1e-10, 0.0, 1.0]}], 0.0, 0.0),  # no root at all: 1e30
        ([{"domain": [-1.0, 1.0], "coeffs": [0.5]}], 0.0, 0.5),  # constant zero piece
        (
            [{"domain": [-1.0, 1.0], "coeffs": [0.25, -1.0]}, {"domain": [2.0, 3.0], "coeffs": [2.0]}],
            0.25,
            0.0,
        ),
    ],
)
def test_piecewise_solution_distance_matches_per_call_roots(pieces, xbar, ybar):
    got = piecewise_problem(pieces, xbar=xbar, ybar=ybar).solution_distance
    want = _reference_piecewise_solution_distance(pieces, ybar)
    assert (got([0.7]) == 1e30) == (pieces[0]["coeffs"][0] == 1e-10)
    for u in np.linspace(-3.0, 4.0, 141).tolist() + [1.25, 0.0, -0.0, 1e-12]:
        assert got(np.array([u])) == want([u])


def _point_bits(x, y, *dist):
    return (x.tobytes(), y.tobytes(), *(float(v).hex() for v in dist))


def _finite_half_square():
    xs = np.linspace(-0.5, 0.5, 41)
    return finite_graph_problem([([x], [max(x, 0.0) ** 2]) for x in xs], [0.0], [0.0])


_POOL_CASES = {
    "half-square": lambda: catalog_problem("half-square"),
    "halfline-convex": lambda: catalog_problem("halfline-convex"),
    "constant": lambda: catalog_problem("constant"),
    "linear-A": lambda: catalog_problem("linear-A"),
    "linear-A-skew": lambda: catalog_problem("linear-A", matrix=[[2.0, 1.3], [0.7, 3.0]]),
    "half-square-no-oracle": lambda: dataclasses.replace(
        catalog_problem("half-square"), solution_distance=None
    ),
    "finite": _finite_half_square,
}


def _ref_table(fresh, radii):
    # the reference draw deduped by bytes in first-draw order: each
    # point's first copy, its number of copies and the finest window
    # holding it, scanned level by level; then sorted stably by depth
    rows = {}
    for pt in fresh:
        key = (pt.x.tobytes(), pt.y.tobytes())
        if key not in rows:
            depth = max(k for k, rho in enumerate(radii) if pt.dxa < rho and pt.dya < rho)
            rows[key] = [pt, depth, 0]
        rows[key][2] += 1
    return sorted(rows.values(), key=lambda row: row[1])  # sorted() is stable


@pytest.mark.parametrize("outer_restriction", [True, False])
@pytest.mark.parametrize(
    "name,truncation_radius",
    [(name, None) for name in _POOL_CASES] + [("half-square-no-oracle", 3.0)],
)
def test_outer_pools_match_the_per_level_build(name, truncation_radius, outer_restriction):
    problem = _POOL_CASES[name]()
    s = Schedule(sample_budget=512, steps=6, seed=3, truncation_radius=truncation_radius)
    fresh = ref_fresh(problem, s, outer_restriction, {})
    assert fresh or name == "constant"
    want = _ref_table(fresh, s.rho_values())
    pool = outer_pools(problem, s, outer_restriction)
    got = zip(pool.x, pool.y, pool.dxa.tolist(), pool.dya.tolist())
    assert [_point_bits(*r) for r in got] == [
        _point_bits(pt.x, pt.y, pt.dxa, pt.dya) for pt, _, _ in want
    ]
    assert pool.depth.tolist() == [depth for _, depth, _ in want]
    assert pool.copies.tolist() == [copies for _, _, copies in want]
    assert len(pool) == len(fresh)
    if name.startswith("half-square") and outer_restriction:
        assert int(pool.copies.max()) > 1  # the stencils of different levels coincide
    # level k of the table holds the copies of window k of the reference
    for k, level in enumerate(ref_pools(problem, s, outer_restriction)):
        assert int(pool.copies[pool.depth >= k].sum()) == len(level)


def _count_anchor_samples(monkeypatch, schedule):
    import subreg.problems as problems

    seed = mix_seed(schedule.seed, "soldist")
    radii = []
    original = problems.sample_graph_arrays

    def counted(problem, center, radius, budget, s):
        if s == seed:
            radii.append(radius)
        return original(problem, center, radius, budget, s)

    monkeypatch.setattr(problems, "sample_graph_arrays", counted)
    return radii


@pytest.mark.parametrize("truncation_radius", [None, 3.0])
def test_outer_pools_share_the_anchor_sample(monkeypatch, truncation_radius):
    p = dataclasses.replace(catalog_problem("half-square"), solution_distance=None)
    s = Schedule(sample_budget=256, steps=4, truncation_radius=truncation_radius)
    radii = _count_anchor_samples(monkeypatch, s)
    # the per-point path: every outer point draws the anchor sample itself
    fresh = ref_fresh(p, s)
    drawn = len(radii)
    assert drawn > 1
    radii.clear()
    pool = outer_pools(p, s, True)
    assert len(radii) == len(set(radii)) == 1  # one draw per distinct radius
    assert len(fresh) == drawn
    assert len(pool) == len(fresh)
    want = _ref_table(fresh, s.rho_values())
    assert [_point_bits(x, y) for x, y in zip(pool.x, pool.y)] == [
        _point_bits(pt.x, pt.y) for pt, _, _ in want
    ]


@pytest.mark.parametrize("q", [0.25, 1 / 3, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("exponent", [float, np.float64])
def test_q_powers_are_python_float_powers(q, exponent):
    # zero, the least subnormal and others, one, a huge value, and a
    # spread of ordinary ones (numpy's own pow rounds some of these apart)
    rng = np.random.default_rng(5)
    values = np.concatenate(
        [[0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e300], rng.random(2000), rng.random(200) * 1e3]
    )
    want = np.array([v**q for v in values.tolist()])
    got = q_powers(values, exponent(q))
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert q_powers(np.zeros(0), exponent(q)).shape == (0,)


@pytest.mark.parametrize("exponent", [float, np.float64, int])
def test_q_powers_at_one_are_a_fresh_copy_of_the_python_powers(exponent):
    # signed zeros, the least subnormal, the least normal's neighbourhood,
    # one, the huge, the infinite and NaN keep every bit under v ** 1.0
    mags = [0.0, 5e-324, 1e-308, 1.0, 1e308, np.inf]
    values = np.array(mags + [-v for v in mags] + [np.nan])
    kept = values.tobytes()
    want = np.array([float(v) ** 1.0 for v in values.tolist()])
    got = q_powers(values, exponent(1.0))
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    got[:] = 7.0  # writable, and writing into it leaves the input alone
    assert values.tobytes() == kept
    # a read-only OuterPool column too
    n = values.size
    pool = OuterPool(np.zeros((n, 1)), np.zeros((n, 1)), np.ones(n), values, np.zeros(n, int), np.ones(n, int))
    assert not pool.dya.flags.writeable
    got = q_powers(pool.dya, exponent(1.0))
    assert got.tobytes() == want.tobytes()
    got[:] = 7.0
    assert pool.dya.tobytes() == kept


def test_outer_pool_ratio_and_weight_are_python_float_powers():
    pool = outer_pools(catalog_problem("half-square"), Schedule(sample_budget=256, steps=5), True)
    # and rows on x = xbar, whose ratio is NaN
    dxa = pool.dxa.tolist() + [0.0, 0.0]
    dya = pool.dya.tolist() + [0.5, 5e-324]
    n = len(dxa)
    pool = OuterPool(np.zeros((n, 1)), np.zeros((n, 1)), np.array(dxa), np.array(dya), np.zeros(n, int), np.ones(n, int))
    for q in (0.25, 0.5, 1.0):
        ratio = [dy**q / dx if dx > 0 else np.nan for dx, dy in zip(dxa, dya)]
        weight = [q * dy ** (q - 1.0) for dy in dya]
        assert pool.ratio(q).tobytes() == np.array(ratio).tobytes()
        assert pool.weight(q).tobytes() == np.array(weight).tobytes()
