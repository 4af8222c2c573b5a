import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from subreg import (
    INF,
    DualVectorSet,
    ErrorFunction,
    NormSpec,
    ProductPoint,
    Schedule,
    catalog_names,
    catalog_problem,
    f_level_subdiff_rho_slope,
    is_inf,
    limiting_coderivative_min_norm,
    lm_constants,
    piecewise_problem,
    strict_q_slopes,
    strict_subdiff_q_slopes,
    subdiff_rho_slope,
    xi_q,
)
from subreg.geometry import _dual_ball_directions, duality_map, q_duality_enlargement
from subreg.problems import ProblemError, mix_seed, outer_pools
from subreg.slopes_dual import (
    MULTIPLIER_CAP,
    DualSlopeError,
    DualStrictSlopes,
    MissingOracleError,
    _inconclusive,
)
from subreg.slopes_primal import SlopeEstimate, _finish
import coderivative_reference as oracles
from pool_reference import ref_pools
from sampler_reference import graph_sample


@pytest.fixture(scope="module")
def schedule():
    return Schedule()


@pytest.fixture(scope="module")
def light_schedule():
    return Schedule(sample_budget=1024, steps=8)


@pytest.fixture(scope="module")
def half_square():
    return catalog_problem("half-square")


class TestSubdiffRhoSlope:
    @pytest.mark.parametrize("x", [0.1, 0.35, 0.7, 0.95])
    @pytest.mark.parametrize("rho", [0.05, 0.3, 0.8])
    def test_half_square_closed_form(self, half_square, schedule, x, rho):
        at = ProductPoint([x], [x * x])
        est = subdiff_rho_slope(half_square, rho, at, "plain", schedule)
        assert abs(est.value - 2 * x * (1 - rho)) <= 1e-9

    def test_approximate_equals_plain_here(self, half_square, schedule):
        at = ProductPoint([0.4], [0.16])
        plain = subdiff_rho_slope(half_square, 0.25, at, "plain", schedule)
        approx = subdiff_rho_slope(half_square, 0.25, at, "approximate", schedule)
        assert approx.value == pytest.approx(plain.value, abs=1e-9)

    def test_linear_map_zero_perturbation(self, schedule):
        # multiplier along the first axis: |A^T j| = 2 exactly
        p = catalog_problem("linear-A")
        at = ProductPoint([0.3, 0.0], [0.6, 0.0])
        est = subdiff_rho_slope(p, 0.0, at, "plain", schedule)
        assert est.value == 2.0

    def test_rejects_reference_height(self, half_square, schedule):
        with pytest.raises(DualSlopeError):
            subdiff_rho_slope(half_square, 0.1, ProductPoint([-1.0], [0.0]), "plain", schedule)

    def test_missing_oracle(self, schedule):
        from dataclasses import replace

        p = replace(catalog_problem("identity"), coderivative_matrix=None)
        with pytest.raises(MissingOracleError):
            subdiff_rho_slope(p, 0.1, ProductPoint([0.5], [0.5]), "plain", schedule)


class TestStrictSubdiffSlopes:
    def test_half_square_all_four_near_one(self, half_square, schedule):
        d = strict_subdiff_q_slopes(half_square, 0.5, schedule)
        for est in (d.plain, d.approx, d.modified, d.modified_approx):
            assert est.value == pytest.approx(1.0, abs=0.02)

    def test_orderings_on_shared_samples(self, light_schedule):
        for name in ("half-square", "identity", "square", "halfline-convex"):
            p = catalog_problem(name)
            d = strict_subdiff_q_slopes(p, p.canonical_q, light_schedule)
            assert d.approx.value <= d.plain.value + 1e-6
            assert d.plain.value <= d.modified.value + 1e-6
            assert d.approx.value <= d.modified_approx.value + 1e-6
            assert d.modified_approx.value <= d.modified.value + 1e-6

    def test_square_plain_vanishes(self, light_schedule):
        d = strict_subdiff_q_slopes(catalog_problem("square"), 1.0, light_schedule)
        assert d.plain.value <= 0.02

    def test_convex_dual_matches_primal(self, light_schedule):
        p = catalog_problem("halfline-convex")
        dual = strict_subdiff_q_slopes(p, 1.0, light_schedule)
        plain_primal, _ = strict_q_slopes(p, 1.0, light_schedule)
        assert dual.plain.value == pytest.approx(plain_primal.value, rel=0.05)

    def test_missing_oracle_goes_inconclusive(self, light_schedule):
        from dataclasses import replace

        p = replace(catalog_problem("identity"), coderivative_matrix=None)
        assert not p.has_coderivative
        d = strict_subdiff_q_slopes(p, 1.0, light_schedule)
        lim = limiting_coderivative_min_norm(p, 1.0, light_schedule)
        for est in (d.plain, d.approx, d.modified, d.modified_approx, lim):
            assert est.inconclusive and is_inf(est.value), est.kind
        for est in lm_constants(p, 1.0, light_schedule):
            assert est.inconclusive and is_inf(est.value), est.kind

    def test_a_replaced_matrix_moves_every_dual_constant(self, light_schedule):
        # D*F read from 3 M where the catalog has M: no constant may keep
        # reading the old description
        base = catalog_problem("half-square")

        def tripled(x, y):
            return 3.0 * base.coderivative_matrix(x, y)

        p = dataclasses.replace(base, coderivative_matrix=tripled)

        def constants(problem):
            d = strict_subdiff_q_slopes(problem, 0.5, light_schedule)
            lim = limiting_coderivative_min_norm(problem, 0.5, light_schedule)
            lm = lm_constants(problem, 0.5, light_schedule)
            return (d.plain, d.approx, d.modified, d.modified_approx, lim, *lm)

        for old, new in zip(constants(base), constants(p)):
            assert new.value != old.value, new.kind


class TestLimitingCoderivative:
    def test_half_square(self, half_square, schedule):
        est = limiting_coderivative_min_norm(half_square, 0.5, schedule)
        assert est.value == pytest.approx(1.0, abs=0.02)

    def test_identity(self, light_schedule):
        est = limiting_coderivative_min_norm(catalog_problem("identity"), 1.0, light_schedule)
        assert est.value == pytest.approx(1.0, abs=0.02)

    def test_square_vanishes(self, light_schedule):
        est = limiting_coderivative_min_norm(catalog_problem("square"), 1.0, light_schedule)
        assert est.value <= 0.02

    def test_agrees_with_strict_dual_slopes(self, schedule, half_square):
        lim = limiting_coderivative_min_norm(half_square, 0.5, schedule)
        d = strict_subdiff_q_slopes(half_square, 0.5, schedule)
        assert lim.value == pytest.approx(d.plain.value, rel=0.05)
        assert lim.value == pytest.approx(d.approx.value, rel=0.05)


class TestLMConstants:
    def test_half_square_beta_is_one(self, half_square, schedule):
        alpha, beta = lm_constants(half_square, 0.5, schedule)
        assert beta.value == pytest.approx(1.0, abs=0.02)
        d = strict_subdiff_q_slopes(half_square, 0.5, schedule)
        # sandwich between the plain and modified strict dual slopes
        assert d.plain.value <= beta.value + 1e-6
        assert beta.value <= d.modified.value + 1e-6
        assert alpha.value <= d.modified_approx.value + 1e-6

    def test_square_beta_vanishes(self, light_schedule):
        _, beta = lm_constants(catalog_problem("square"), 1.0, light_schedule)
        assert beta.value <= 0.02

    def test_constant_mapping_inconclusive(self, light_schedule):
        alpha, beta = lm_constants(catalog_problem("constant"), 1.0, light_schedule)
        assert is_inf(alpha.value) and is_inf(beta.value)


class TestCoderivativeOracleContracts:
    @pytest.mark.parametrize("name", ["half-square", "identity", "square", "linear-A"])
    def test_positive_homogeneity(self, name):
        p = catalog_problem(name)
        rng = np.random.default_rng(3)
        pts = graph_sample(p, p.anchor, 1.0, 16, 4)
        for pt in pts[:6]:
            ystar = rng.normal(size=p.dim_y)
            base = p.coderivative_image(pt.x, pt.y, ystar)
            scaled = p.coderivative_image(pt.x, pt.y, 3.0 * ystar)
            for u, v in zip(base.members(), scaled.members()):
                np.testing.assert_allclose(3.0 * u, v, atol=1e-9)

    @pytest.mark.parametrize("name", ["half-square", "identity", "square", "linear-A", "constant"])
    def test_matrix_image_is_the_scalar_image(self, name):
        # exactly, and with bitwise equal norms: a zero slope times a
        # negative y* is -0.0 where the oracle wrote 0.0, which no norm
        # tells apart
        p = catalog_problem(name)
        dual = p.norm_x.dual()
        rng = np.random.default_rng(5)
        for pt in graph_sample(p, p.anchor, 1.0, 16, 4)[:6]:
            for ystar in (rng.normal(size=p.dim_y), np.full(p.dim_y, -0.0)):
                m = p.coderivative_matrix(pt.x, pt.y)
                assert m.shape == (p.dim_y, p.dim_x)
                image = p.coderivative_image(pt.x, pt.y, ystar)
                want = oracles.CATALOG[name](pt.x, pt.y, ystar)
                assert np.array_equal(image.members()[0], want.members()[0]), (pt, ystar)
                assert _bits(image.min_norm(dual)) == _bits(want.min_norm(dual)), (pt, ystar)

    def test_matrix_is_unset_or_none_off_single_valued_images(self):
        # halfline-convex has set-valued or empty images
        assert catalog_problem("halfline-convex").coderivative_matrix is None
        kink, oracle = _kink(), oracles.piecewise(_KINK_PIECES)
        at_kink, off = (np.array([0.125]), np.array([0.125])), (np.array([3.0]), np.array([0.0]))
        assert kink.coderivative_matrix(*at_kink) is None
        assert kink.coderivative_image(*at_kink, np.ones(1)) is None
        assert oracle(*at_kink, np.ones(1)) is None
        assert kink.coderivative_matrix(*off) is None
        assert kink.coderivative_image(*off, np.ones(1)) is None
        assert oracle(*off, np.ones(1)).is_empty()
        np.testing.assert_array_equal(kink.coderivative_matrix(np.array([1.0]), np.array([1.875])), [[2.0]])

    def test_one_description_per_problem(self):
        # only halfline-convex has a set-valued oracle; the rest, and
        # inline problems, a matrix alone
        for name in catalog_names():
            p = catalog_problem(name)
            assert p.has_coderivative
            assert (p.coderivative is not None) == (name == "halfline-convex"), name
            assert (p.coderivative_matrix is None) == (name == "halfline-convex"), name
        assert _kink().coderivative is None

    def test_both_descriptions_are_rejected(self):
        # the matrix would otherwise win, and the replaced oracle be ignored
        with pytest.raises(ProblemError, match="not both"):
            dataclasses.replace(catalog_problem("half-square"), coderivative=oracles.half_square)
        halfline = catalog_problem("halfline-convex")
        with pytest.raises(ProblemError, match="not both"):
            dataclasses.replace(halfline, coderivative_matrix=lambda x, y: np.ones((1, 1)))

    def test_halfline_empty_images(self):
        p = catalog_problem("halfline-convex")
        interior = ProductPoint([0.2], [0.9])
        assert p.coderivative(interior.x, interior.y, [1.0]).is_empty()
        boundary = ProductPoint([0.2], [0.2])
        assert p.coderivative(boundary.x, boundary.y, [-1.0]).is_empty()
        ok = p.coderivative(boundary.x, boundary.y, [1.5])
        np.testing.assert_allclose(ok.members()[0], [1.5])


class TestQOneFastPath:
    def test_rescaling_factor_is_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            y = rng.normal(size=2)
            assert xi_q(y, [0.0, 0.0], 1.0) == 1.0

    def test_f_level_slope_equals_plain_at_q_one(self, schedule):
        p = catalog_problem("identity")
        ef = ErrorFunction(p, 1.0)
        at = ProductPoint([0.5], [0.5])
        rho = 0.125
        via_f = f_level_subdiff_rho_slope(ef, rho, at, schedule)
        plain = subdiff_rho_slope(p, rho, at, "plain", schedule).value
        assert via_f == plain

    def test_f_level_bridge_half_square(self, half_square, schedule):
        # q d^{q-1} |dF|_{xi rho}: (1/2)(1/x) * 2x(1 - 2x rho) at q = 1/2
        x, rho = 0.4, 0.2
        ef = ErrorFunction(half_square, 0.5)
        at = ProductPoint([x], [x * x])
        got = f_level_subdiff_rho_slope(ef, rho, at, schedule)
        assert got == pytest.approx(1.0 - 2 * x * rho, abs=1e-9)


# --------------------------------------------------------------------------
# The level-major dual layer, kept as the reference the per-point engine
# must match bitwise: every level scans its pool, and every multiplier
# calls the scalar oracle (a matrix problem's from coderivative_reference).
# --------------------------------------------------------------------------


def _pert_multipliers(problem, j, pert, seed):
    if pert <= 0.0:
        return [j]
    dual = problem.norm_y.dual()
    if problem.dim_y == 1:
        jj = float(j[0])
        cands = [np.array([jj - pert]), np.array([jj]), np.array([jj + pert])]
        if abs(jj) <= pert:
            cands.append(np.array([0.0]))
        return cands
    dirs = [-j / dual.value(j)] if dual.value(j) > 0 else []
    dirs += list(_dual_ball_directions(problem.dim_y, dual, 8, seed))
    cands = [j]
    cands += [j + pert * d for d in dirs]
    if dual.value(j) <= pert:
        cands.append(np.zeros_like(j))
    return cands


def _image_min_norm(problem, x, y, ystar):
    res = problem.coderivative(x, y, np.asarray(ystar, dtype=float).reshape(-1))
    if res is None:
        return INF
    return res.min_norm(problem.norm_x.dual())


def _subdiff_value(problem, x, y, pert, seed):
    diff = y - problem.ybar
    dual = problem.norm_y.dual()
    js = duality_map(diff, problem.norm_y).members()
    if pert >= min(dual.value(j) for j in js):
        return 0.0
    best = INF
    for j in js:
        for ys in _pert_multipliers(problem, j, pert, seed):
            v = _image_min_norm(problem, x, y, ys)
            if v < best:
                best = v
    return best


def _approx_subdiff_value(problem, x, y, pert, v_radius, seed):
    diff = y - problem.ybar
    dual = problem.norm_y.dual()
    vs = [diff]
    if v_radius > 0.0:
        if problem.dim_y == 1:
            vs += [diff + np.array([v_radius]), diff - np.array([v_radius])]
        else:
            for d in _dual_ball_directions(problem.dim_y, problem.norm_y, 4, seed):
                vs.append(diff + v_radius * d)
    best = INF
    for v in vs:
        if problem.norm_y.value(v) <= 0.0:
            continue
        js = duality_map(v, problem.norm_y).members()
        if pert >= min(dual.value(j) for j in js):
            return 0.0
        for j in js:
            for ys in _pert_multipliers(problem, j, pert, seed):
                val = _image_min_norm(problem, x, y, ys)
                if val < best:
                    best = val
    return best


def _enlargement_min(problem, x, y, v, q, eps, seed):
    enl = q_duality_enlargement(v, q, eps, 4, seed, problem.norm_y)
    if enl.is_empty():
        return INF
    best = INF
    for w in enl.members():
        val = _image_min_norm(problem, x, y, w)
        if val < best:
            best = val
    return best


def _subdiff_rho_slope_ref(problem, rho, at, variant, schedule):
    d = problem.d_y(at.y, problem.ybar)
    seed = mix_seed(schedule.seed, "dirs")
    if variant == "plain":
        value = _subdiff_value(problem, at.x, at.y, rho, seed)
        return SlopeEstimate(value, ((rho, value),), False, 1, "subdiff_rho_plain")
    trace = []
    for nr in schedule.neighborhood_radii:
        v_radius = (nr / 10.0) * d
        trace.append((v_radius, _approx_subdiff_value(problem, at.x, at.y, rho, v_radius, seed)))
    return SlopeEstimate(trace[-1][1], tuple(trace), False, len(trace), "subdiff_rho_approx")


def _f_level_subdiff_ref(ef, rho, at, schedule):
    problem, q = ef.problem, ef.q
    d = problem.d_y(at.y, problem.ybar)
    xi = xi_q(at.y, problem.ybar, q, problem.norm_y)
    inner = _subdiff_value(problem, at.x, at.y, xi * rho, mix_seed(schedule.seed, "dirs"))
    return q * d ** (q - 1.0) * inner


def _strict_ref(problem, q, schedule):
    rhos = schedule.rho_values()
    keys = ("plain", "approx", "modified", "modified_approx")
    if problem.coderivative is None:
        return DualStrictSlopes(*(_inconclusive(f"subdiff_strict_q_{t}", rhos) for t in keys))
    pools = ref_pools(problem, schedule)
    v_frac = schedule.neighborhood_radii[-1] / 10.0
    tr = {k: [] for k in keys}
    used = 0
    for k, rho in enumerate(rhos):
        best = {key: INF for key in tr}
        for pt in pools[k]:
            d = pt.dya
            weight = q * d ** (q - 1.0)
            pert = (d ** (1.0 - q) / q) * rho
            seed = mix_seed(schedule.seed, "dirs")
            used += 1
            plain_val = _subdiff_value(problem, pt.x, pt.y, pert, seed)
            approx_val = _approx_subdiff_value(problem, pt.x, pt.y, pert, v_frac * d, seed)
            ratio = pt.dya**q / pt.dxa if pt.dxa > 0 else INF
            vals = {
                "plain": weight * plain_val if not is_inf(plain_val) else INF,
                "approx": weight * approx_val if not is_inf(approx_val) else INF,
            }
            vals["modified"] = max(vals["plain"], ratio)
            vals["modified_approx"] = max(vals["approx"], ratio)
            for key, v in vals.items():
                if v < best[key]:
                    best[key] = v
        for key in tr:
            tr[key].append((rho, best[key]))
    return DualStrictSlopes(*(_finish(f"subdiff_strict_q_{t}", tr[t], False, used) for t in keys))


def _limiting_ref(problem, q, schedule):
    rhos = schedule.rho_values()
    if problem.coderivative is None:
        return _inconclusive("limiting_coderivative_min_norm", rhos)
    pools = ref_pools(problem, schedule)
    dual = problem.norm_y.dual()
    trace = []
    capped = False
    used = 0
    for k, rho in enumerate(rhos):
        best = INF
        for pt in pools[k]:
            scale = q * pt.dya ** (q - 1.0)
            for j in duality_map(pt.y - problem.ybar, problem.norm_y).members():
                center = scale * j
                if dual.value(center) > MULTIPLIER_CAP:
                    capped = True
                    continue
                seed = mix_seed(schedule.seed, "dirs")
                for ys in _pert_multipliers(problem, center, rho, seed):
                    used += 1
                    v = _image_min_norm(problem, pt.x, pt.y, ys)
                    if v < best:
                        best = v
        trace.append((rho, best))
    est = _finish("limiting_coderivative_min_norm", trace, False, used)
    if capped:
        est = dataclasses.replace(est, flags=est.flags + ("multiplier-cap",))
    return est


def _lm_ref(problem, q, schedule):
    rhos = schedule.rho_values()
    if problem.coderivative is None:
        return (_inconclusive("lm_alpha", rhos), _inconclusive("lm_beta", rhos))
    pools = ref_pools(problem, schedule)
    tr_a, tr_b = [], []
    used = 0
    for k, eps in enumerate(rhos):
        best_a = best_b = INF
        for pt in pools[k]:
            if not (pt.dxa < eps and pt.dya < min(eps, pt.dxa**0.5)):
                continue
            seed = mix_seed(schedule.seed, "dirs")
            diff = pt.y - problem.ybar
            used += 1
            inner = _enlargement_min(problem, pt.x, pt.y, diff, q, eps, seed)
            if not is_inf(inner):
                b_val = q * inner * pt.dya ** (q - 1.0)
                if b_val < best_b:
                    best_b = b_val
            y_window = pt.dxa ** (1.0 / q)
            targets = [diff]
            dirs = (
                [np.array([1.0]), np.array([-1.0])]
                if problem.dim_y == 1
                else _dual_ball_directions(problem.dim_y, problem.norm_y, 4, seed)
            )
            for frac in (0.5, 0.99, 1.0 - 1e-9):
                for dvec in dirs:
                    targets.append(diff + frac * y_window * dvec)
            for target in targets:
                dy = problem.norm_y.value(target)
                if dy <= 0.0:
                    continue
                inner = _enlargement_min(problem, pt.x, pt.y, target, q, eps, seed)
                if is_inf(inner):
                    continue
                a_val = q * inner * dy ** (q - 1.0)
                if a_val < best_a:
                    best_a = a_val
        tr_a.append((eps, best_a))
        tr_b.append((eps, best_b))

    def _sup(kind, trace):
        finite = [v for _, v in trace if not is_inf(v)]
        flags = ("inconclusive",) if not finite else ()
        if any(is_inf(v) for _, v in trace):
            flags += ("empty-levels",)
        return SlopeEstimate(max(finite) if finite else INF, tuple(trace), False, used, kind, flags)

    return _sup("lm_alpha", tr_a), _sup("lm_beta", tr_b)


def _bits(v):
    """A value's exact identity: the type and the hex form of a float
    (which tells -0.0 from 0.0)."""
    return (type(v).__name__, float(v).hex())


def _assert_same(new: SlopeEstimate, ref: SlopeEstimate):
    assert new.kind == ref.kind
    assert _bits(new.value) == _bits(ref.value), new.kind
    assert [(_bits(r), _bits(v)) for r, v in new.trace] == [
        (_bits(r), _bits(v)) for r, v in ref.trace
    ], new.kind
    assert new.budget_used == ref.budget_used, new.kind
    assert new.truncated == ref.truncated
    assert new.flags == ref.flags, new.kind


PARITY_SCHEDULE = Schedule(sample_budget=256, steps=5)

# y = x on [0, 1/8] and 2x - 1/8 above: some outer points sit on the
# kink, where the inline problem has no description
_KINK_PIECES = [
    {"domain": [-1.0, 0.0], "coeffs": [0.0]},
    {"domain": [0.0, 0.125], "coeffs": [0.0, 1.0]},
    {"domain": [0.125, 2.0], "coeffs": [-0.125, 2.0]},
]


def _kink():
    return piecewise_problem(_KINK_PIECES, xbar=0.0, ybar=0.0, name="inline-kink")


def _ball_half_square():
    # a dual ball, which has no member list: the min norm is |c| - r
    def coderivative(x, y, ystar):
        ys = float(ystar[0])
        return DualVectorSet.ball([2.0 * max(float(x[0]), 0.0) * ys], 0.1 * abs(ys))

    return oracles.scalar_twin(catalog_problem("half-square"), coderivative)


class _SignedZeroImage:
    """An image whose least norm is a signed zero: every multiplier ties,
    and only the scan order decides which zero a level keeps."""

    def __init__(self, zero):
        self.zero = zero

    def min_norm(self, dual_norm):
        return self.zero


def _signed_zero():
    def coderivative(x, y, ystar):
        sign = math.sin(1e4 * float(x[0]) + 1e3 * float(ystar[0]))
        return _SignedZeroImage(math.copysign(0.0, sign))

    return oracles.scalar_twin(catalog_problem("half-square"), coderivative)


def _linear_l1():
    # l1 on Y: a point with a zero coordinate of y - ybar has a face of
    # two vertices (a vertex list), the others a single sign vector
    return dataclasses.replace(catalog_problem("linear-A"), norm_y=NormSpec("p", 2, p=1.0))


def _no_oracle():
    return dataclasses.replace(catalog_problem("identity"), coderivative_matrix=None)


def _reference(p, oracle):
    """The problem the references read: a matrix problem described by its
    scalar oracle alone (``oracle``), any other as it is."""
    return p if oracle is None else oracles.scalar_twin(p, oracle)


# a case's problem, its order, and for a matrix problem its scalar oracle
PARITY_CASES = {
    "half-square": (lambda: catalog_problem("half-square"), 0.5, oracles.half_square),
    "half-square-cap": (lambda: catalog_problem("half-square"), 0.25, oracles.half_square),
    "halfline-convex": (lambda: catalog_problem("halfline-convex"), 1.0, None),
    "linear-A": (lambda: catalog_problem("linear-A"), 1.0, oracles.linear()),
    "linear-A-l1": (_linear_l1, 1.0, oracles.linear()),
    "inline-kink": (_kink, 1.0, oracles.piecewise(_KINK_PIECES)),
    "constant": (lambda: catalog_problem("constant"), 1.0, oracles.constant),
    "ball": (_ball_half_square, 0.5, None),
    "signed-zero": (_signed_zero, 1.0, None),
    "no-oracle": (_no_oracle, 1.0, None),
}


class TestPerPointEngineParity:
    @pytest.mark.parametrize("case", list(PARITY_CASES))
    def test_constants_match_level_major_reference(self, case):
        make, q, oracle = PARITY_CASES[case]
        p, s = make(), PARITY_SCHEDULE
        r = _reference(p, oracle)
        new, old = strict_subdiff_q_slopes(p, q, s), _strict_ref(r, q, s)
        for field in ("plain", "approx", "modified", "modified_approx"):
            _assert_same(getattr(new, field), getattr(old, field))
        _assert_same(limiting_coderivative_min_norm(p, q, s), _limiting_ref(r, q, s))
        for new_est, ref_est in zip(lm_constants(p, q, s), _lm_ref(r, q, s)):
            _assert_same(new_est, ref_est)

    def test_cases_reach_their_paths(self):
        s = PARITY_SCHEDULE
        cap = limiting_coderivative_min_norm(catalog_problem("half-square"), 0.25, s)
        assert "multiplier-cap" in cap.flags
        kink = _kink()
        pool = outer_pools(kink, s, True)
        assert any(kink.coderivative_matrix(x, y) is None for x, y in zip(pool.x, pool.y))
        halfline = catalog_problem("halfline-convex")
        pool = outer_pools(halfline, s, True)
        images = [halfline.coderivative(x, y, -np.ones(1)) for x, y in zip(pool.x, pool.y)]
        assert any(image.is_empty() for image in images)
        assert not outer_pools(catalog_problem("constant"), s, True)
        assert catalog_problem("linear-A").dim_y == 2
        l1 = _linear_l1()
        pool = outer_pools(l1, s, True)
        assert any(len(duality_map(y - l1.ybar, l1.norm_y).members()) > 1 for y in pool.y)

    @pytest.mark.parametrize(
        "case", ["half-square", "halfline-convex", "linear-A", "inline-kink", "ball"]
    )
    def test_pointwise_slopes_match_reference(self, case, schedule):
        make, q, oracle = PARITY_CASES[case]
        p = make()
        r = _reference(p, oracle)
        pts = [pt for pt in graph_sample(p, p.anchor, 0.5, 16, 5) if p.d_y(pt.y, p.ybar) > 0]
        pool = outer_pools(p, PARITY_SCHEDULE, True)
        pts += [ProductPoint(x, y) for x, y in zip(pool.x[:4], pool.y[:4])]
        assert len(pts) >= 8
        ef = ErrorFunction(p, q)
        for at in pts:
            for rho in (0.0, 0.05, 0.4):
                for variant in ("plain", "approximate"):
                    _assert_same(
                        subdiff_rho_slope(p, rho, at, variant, schedule),
                        _subdiff_rho_slope_ref(r, rho, at, variant, schedule),
                    )
                new = f_level_subdiff_rho_slope(ef, rho, at, schedule)
                old = _f_level_subdiff_ref(ErrorFunction(r, q), rho, at, schedule)
                assert _bits(new) == _bits(old)

    @pytest.mark.parametrize("case", ["half-square", "linear-A", "inline-kink", "ball"])
    def test_one_oracle_call_per_point_and_multiplier(self, case):
        # a set-valued oracle is called once per distinct point and multiplier
        make, q, oracle = PARITY_CASES[case]
        base = _reference(make(), oracle)
        calls = Counter()

        def counted(x, y, ystar):
            calls[(x.tobytes(), y.tobytes(), ystar.tobytes())] += 1
            return base.coderivative(x, y, ystar)

        p = dataclasses.replace(base, coderivative=counted)
        for constant in (strict_subdiff_q_slopes, limiting_coderivative_min_norm, lm_constants):
            calls.clear()
            constant(p, q, PARITY_SCHEDULE)
            assert calls, constant.__name__
            assert max(calls.values()) == 1, constant.__name__

    @pytest.mark.parametrize("case", ["half-square", "linear-A", "inline-kink"])
    def test_one_matrix_read_per_point(self, case):
        # with a matrix, each point's is read once per constant; the kinks
        # read None, and the reference parity above shows they go to INF
        make, q, _ = PARITY_CASES[case]
        base = make()
        reads = Counter()

        def read(x, y):
            reads[(x.tobytes(), y.tobytes())] += 1
            return base.coderivative_matrix(x, y)

        p = dataclasses.replace(base, coderivative_matrix=read)
        for constant in (strict_subdiff_q_slopes, limiting_coderivative_min_norm, lm_constants):
            reads.clear()
            constant(p, q, PARITY_SCHEDULE)
            assert reads and max(reads.values()) == 1, constant.__name__
            kinks = [
                key for key in reads if base.coderivative_matrix(*map(np.frombuffer, key)) is None
            ]
            assert bool(kinks) == (case == "inline-kink"), constant.__name__


# the 2-D matrices of tests/test_robustness.py whose A^T y* mixes both
# coordinates of y*
_MATRICES = {"upper-triangular": [[2.0, 1.0], [0.0, 3.0]], "rotation": [[0.6, -0.8], [0.8, 0.6]]}
MATRIX_CASES = {
    **{
        name: (lambda name=name: catalog_problem(name), 1.0, oracles.CATALOG.get(name))
        for name in catalog_names()
    },
    "half-square-q": (lambda: catalog_problem("half-square"), 0.5, oracles.half_square),
    "inline-kink": (_kink, 1.0, oracles.piecewise(_KINK_PIECES)),
    **{
        f"linear-A-{label}": (
            lambda m=m: catalog_problem("linear-A", matrix=m),
            1.0,
            oracles.linear(m),
        )
        for label, m in _MATRICES.items()
    },
    "linear-A-l1": (_linear_l1, 1.0, oracles.linear()),
}


class TestMatrixPathParity:
    """The matrix path against the scalar oracle it replaced
    (``coderivative_reference``), bitwise."""

    @pytest.mark.parametrize("case", list(MATRIX_CASES))
    def test_constants_match_scalar_path(self, case):
        make, q, oracle = MATRIX_CASES[case]
        p, s = make(), PARITY_SCHEDULE
        if oracle is None:
            # halfline-convex: set-valued images, no matrix path to compare
            assert p.coderivative_matrix is None and p.coderivative is not None
            return
        scalar = oracles.scalar_twin(p, oracle)
        new, old = strict_subdiff_q_slopes(p, q, s), strict_subdiff_q_slopes(scalar, q, s)
        for field in ("plain", "approx", "modified", "modified_approx"):
            _assert_same(getattr(new, field), getattr(old, field))
        _assert_same(
            limiting_coderivative_min_norm(p, q, s), limiting_coderivative_min_norm(scalar, q, s)
        )
        for new_est, ref_est in zip(lm_constants(p, q, s), lm_constants(scalar, q, s)):
            _assert_same(new_est, ref_est)

    @pytest.mark.parametrize("case", ["linear-A-rotation", "linear-A-l1", "inline-kink"])
    def test_pointwise_slopes_match_scalar_path(self, case, schedule):
        make, _, oracle = MATRIX_CASES[case]
        p = make()
        scalar = oracles.scalar_twin(p, oracle)
        pool = outer_pools(p, PARITY_SCHEDULE, True)
        for x, y in zip(pool.x[:6], pool.y[:6]):
            at = ProductPoint(x, y)
            for rho in (0.0, 0.05, 0.4):
                for variant in ("plain", "approximate"):
                    _assert_same(
                        subdiff_rho_slope(p, rho, at, variant, schedule),
                        subdiff_rho_slope(scalar, rho, at, variant, schedule),
                    )
