import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from subreg import (
    INF,
    DualVectorSet,
    ErrorFunction,
    ModulusReport,
    ProductPoint,
    RunContext,
    Schedule,
    catalog_problem,
    check_subregularity_inequality,
    convexity_necessity_check,
    criteria_report,
    error_bound_modulus,
    is_inf,
    piecewise_problem,
    run_invariant_suite,
    single_variable_embedding,
    subregularity_modulus,
    theorem_7T1_check,
    validate_P1_P2,
)
from subreg.moduli import (
    _QUAL_ARROWS,
    _QUAL_SOURCES,
    _QUANT_ARROWS,
    _QUANT_SOURCES,
    SAMPLED_REL,
    SHARED_SLACK,
    ModuliError,
    Tables,
    _ambient_x_samples,
    _first_least,
    _probe_points,
    _status,
    _suffix_minima,
    looks_divergent,
    rel_close,
)
from subreg.problems import EPS_MEM, halton_points, mix_seed
from subreg.slopes_primal import SlopeEstimate
from graph_reference import induced
from level_reference import level_scans
from pool_reference import ref_pools
from sampler_reference import halving_offsets, points, probe_points


@pytest.fixture(scope="module")
def schedule():
    return Schedule(sample_budget=1024, steps=10)


@pytest.fixture(scope="module")
def hs_constants(schedule):
    return RunContext(catalog_problem("half-square"), 0.5, schedule)


class TestErrorBoundModulus:
    def test_absolute_value_embedding(self, schedule):
        func = single_variable_embedding(abs, solution_distance=lambda x: abs(float(x[0])))
        rep = error_bound_modulus(func, schedule)
        assert rep.value == pytest.approx(1.0, abs=1e-9)
        assert rep.forms_agree

    def test_square_embedding_vanishes(self, schedule):
        func = single_variable_embedding(
            lambda t: t * t, solution_distance=lambda x: abs(float(x[0]))
        )
        rep = error_bound_modulus(func, schedule)
        assert rep.value <= 0.02

    def test_half_square_induced(self, schedule):
        rep = error_bound_modulus(ErrorFunction(catalog_problem("half-square"), 0.5), schedule)
        assert rep.value == pytest.approx(1.0, abs=0.02)

    def test_three_forms_agree_on_catalog(self, schedule):
        for name in ("half-square", "identity", "square"):
            p = catalog_problem(name)
            rep = error_bound_modulus(ErrorFunction(p, p.canonical_q), schedule)
            if rep.forms_agree is not None:
                assert rep.forms_agree, (name, rep.forms)

    def test_witnesses_reproduce(self, schedule):
        p = catalog_problem("half-square")
        ef = ErrorFunction(p, 0.5)
        rep = error_bound_modulus(ef, schedule)
        for w in rep.witnesses:
            f = ef.value(np.array(w["x"]), np.array(w["y"]))
            assert abs(f / w["solution_distance"] - w["ratio"]) <= 1e-9


class TestSubregularityModulus:
    def test_half_square(self, schedule):
        rep = subregularity_modulus(catalog_problem("half-square"), 0.5, schedule)
        assert rep.value == pytest.approx(1.0, rel=0.05)

    def test_identity(self, schedule):
        rep = subregularity_modulus(catalog_problem("identity"), 1.0, schedule)
        assert rep.value == pytest.approx(1.0, rel=1e-9)

    def test_square_vanishes(self, schedule):
        rep = subregularity_modulus(catalog_problem("square"), 1.0, schedule)
        assert rep.value <= 0.02

    def test_constant_inconclusive(self, schedule):
        rep = subregularity_modulus(catalog_problem("constant"), 1.0, schedule)
        assert rep.inconclusive and is_inf(rep.value)

    def test_witnesses_reproduce(self, schedule):
        p = catalog_problem("half-square")
        rep = subregularity_modulus(p, 0.5, schedule)
        assert rep.witnesses
        for w in rep.witnesses:
            x = np.array(w["x"])
            ratio = float(p.fiber_distance(x)) ** 0.5 / p.solution_distance(x)
            assert abs(ratio - w["ratio"]) <= 1e-9


_NOT_POSITIVE_FINITE = [float("nan"), float("inf"), True, 0, -1]


class TestDirectInequalityCheck:
    def test_holds_below_the_modulus(self):
        p = catalog_problem("half-square")
        assert check_subregularity_inequality(p, 0.5, 0.9, 0.1).holds

    def test_fails_above_the_modulus(self):
        p = catalog_problem("half-square")
        res = check_subregularity_inequality(p, 0.5, 1.5, 0.1)
        assert not res.holds
        assert res.witness is not None
        assert res.witness["lhs"] > res.witness["rhs"]

    def test_wrong_order_fails_near_zero(self):
        p = catalog_problem("half-square")
        res = check_subregularity_inequality(p, 1.0, 0.1, 0.1)
        assert not res.holds

    def test_order_monotonicity_on_shared_grid(self):
        # holding at the larger order implies holding at the smaller one
        for name in ("half-square", "identity", "halfline-convex"):
            p = catalog_problem(name)
            hi = check_subregularity_inequality(p, 1.0, 0.05, 0.05, seed=2)
            lo = check_subregularity_inequality(p, 0.5, 0.05, 0.05, seed=2)
            assert (not hi.holds) or lo.holds

    @pytest.mark.parametrize("bad", _NOT_POSITIVE_FINITE)
    def test_rejects_a_tau_or_radius_that_is_not_positive_finite(self, bad):
        # nan fails every comparison, so the grid would find no violation
        p = catalog_problem("half-square")
        with pytest.raises(ModuliError, match="tau must be a positive finite"):
            check_subregularity_inequality(p, 0.5, bad, 0.1)
        with pytest.raises(ModuliError, match="u_radius must be a positive finite"):
            check_subregularity_inequality(p, 0.5, 0.9, bad)


class TestCriteria:
    def test_half_square_below_threshold_all_hold(self, schedule, hs_constants):
        p = catalog_problem("half-square")
        rep = criteria_report(hs_constants, 0.5)
        for letter in "bcdefghij":
            assert rep.conditions[letter] == "holds", letter
        assert rep.conditions["a"] == "holds"
        assert rep.implication_violations == ()

    def test_half_square_above_threshold_all_fail(self, schedule, hs_constants):
        p = catalog_problem("half-square")
        rep = criteria_report(hs_constants, 2.0)
        for letter in "bcdefghij":
            assert rep.conditions[letter] == "fails", letter
        assert rep.implication_violations == ()

    def test_constant_mapping_flagged_holds(self, schedule):
        rep = criteria_report(RunContext(catalog_problem("constant"), 1.0, schedule), 0.5)
        assert rep.conditions["b"] == "inconclusive" or rep.conditions["b"] == "holds"
        assert rep.implication_violations == ()

    def test_gamma_sweep_never_violates(self, hs_constants):
        for gamma in (0.1, 0.5, 0.9, 1.1, 2.0):
            rep = criteria_report(hs_constants, gamma)
            assert rep.implication_violations == ()

    def test_rejects_nonpositive_gamma(self, hs_constants):
        # nan fails every comparison, so it would mark every condition "fails"
        for bad in _NOT_POSITIVE_FINITE:
            with pytest.raises(ModuliError, match="gamma must be a positive finite"):
                criteria_report(hs_constants, bad)


class _HandMade(RunContext):
    """A run context that reads its estimates from a dict."""

    def __init__(self, problem, q, schedule, estimates):
        super().__init__(problem, q, schedule)
        self.estimates = estimates

    def __getitem__(self, name):
        return self.estimates[name]


def _estimate(value, inconclusive=False):
    flags = ("inconclusive",) if inconclusive else ()
    return SlopeEstimate(value, ((0.5, value),), False, 1, "hand-made", flags)


def _ref_criteria(problem, gamma, ctx):
    # condition (a) and the four arrow closures the one evaluator replaced
    eps = SHARED_SLACK
    sr = ctx["sr_q"]
    conditions = {
        "a": (
            "inconclusive"
            if sr.inconclusive
            else ("holds" if (is_inf(sr.value) or sr.value > 0.0) else "fails")
        )
    }
    for letter in "bcdefghij":
        conditions[letter] = _status(ctx[_QUANT_SOURCES[letter]], gamma)
    violations = []

    def strict_holds(letter):
        est = ctx[_QUANT_SOURCES[letter]]
        if est.inconclusive:
            return False
        return is_inf(est.value) or est.value > gamma + eps

    def loose_fails(letter):
        est = ctx[_QUANT_SOURCES[letter]]
        if est.inconclusive:
            return False
        return (not is_inf(est.value)) and est.value <= gamma - eps

    for lhs, rhs in _QUANT_ARROWS:
        if strict_holds(lhs) and loose_fails(rhs):
            violations.append(f"quantitative ({lhs}) => ({rhs}) broken at gamma={gamma:g}")

    def q_strict(letter):
        est = ctx[_QUAL_SOURCES[letter]]
        if est.inconclusive:
            return False
        return is_inf(est.value) or est.value > 2e-6

    def q_loose_fails(letter):
        est = ctx[_QUAL_SOURCES[letter]]
        if est.inconclusive:
            return False
        return (not is_inf(est.value)) and est.value <= 0.0

    for lhs, rhs in _QUAL_ARROWS:
        if q_strict(lhs) and q_loose_fails(rhs):
            violations.append(f"qualitative ({lhs}) => ({rhs}) broken")

    if not sr.inconclusive and not is_inf(sr.value):
        tau = sr.value
        if gamma + eps < tau and conditions["a"] == "holds" and loose_fails("b"):
            violations.append(f"(a) => (b) broken for gamma={gamma:g} < tau={tau:g}")
        if (
            tau <= gamma - eps
            and problem.graph_locally_closed
            and strict_holds("b")
            and conditions["a"] == "fails"
        ):
            violations.append(f"(b) => (a) broken for tau={tau:g} <= gamma={gamma:g}")
    return conditions, violations


def _arrow_cases(gamma):
    """(the value of every other entry, the values of the arrow's ends,
    the one violation they break, the names of the ends) for every arrow.
    The other entries sit where no arrow can start or end: at gamma for a
    quantitative or tau-gated arrow (positive, neither above gamma + eps
    nor at or below gamma - eps) and at 1e-6 for a qualitative one
    (below gamma, neither above 2e-6 nor at or below 0)."""
    cases = []
    for lhs, rhs in _QUANT_ARROWS:
        ends = (_QUANT_SOURCES[lhs], _QUANT_SOURCES[rhs])
        message = f"quantitative ({lhs}) => ({rhs}) broken at gamma={gamma:g}"
        for high in (2.0 * gamma, INF):
            cases.append((gamma, dict(zip(ends, (high, gamma / 2))), message, ends))
    for lhs, rhs in _QUAL_ARROWS:
        ends = (_QUAL_SOURCES[lhs], _QUAL_SOURCES[rhs])
        message = f"qualitative ({lhs}) => ({rhs}) broken"
        cases.append((1e-6, dict(zip(ends, (1e-5, 0.0))), message, ends))
    ends = ("sr_q", _QUANT_SOURCES["b"])
    message = f"(a) => (b) broken for gamma={gamma:g} < tau={2.0 * gamma:g}"
    cases.append((gamma, dict(zip(ends, (2.0 * gamma, gamma / 2))), message, ends))
    message = f"(b) => (a) broken for tau=0 <= gamma={gamma:g}"
    cases.append((gamma, dict(zip(ends, (0.0, 2.0 * gamma))), message, ends))
    return cases


def test_arrow_evaluator_breaks_each_arrow_as_the_closures_did():
    p, q, s, gamma = catalog_problem("half-square"), 0.5, Schedule(sample_budget=256, steps=5), 0.5
    assert p.graph_locally_closed
    names = ["sr_q", *_QUANT_SOURCES.values(), *_QUAL_SOURCES.values()]
    cases = _arrow_cases(gamma)
    assert len({message for _, _, message, _ in cases}) == 7 + 5 + 2
    for other, values, message, ends in cases:
        for inconclusive in (None, *ends):
            estimates = {
                name: _estimate(values.get(name, other), name == inconclusive) for name in names
            }
            ctx = _HandMade(p, q, s, estimates)
            rep = criteria_report(ctx, gamma)
            conditions, violations = _ref_criteria(p, gamma, ctx)
            assert rep.conditions == conditions
            assert list(rep.implication_violations) == violations
            # one violation per case, and none once an end is inconclusive
            assert violations == ([message] if inconclusive is None else []), (message, inconclusive)


class TestConvexityNecessity:
    def test_halfline_passes_at_q_one(self, schedule):
        res = convexity_necessity_check(RunContext(catalog_problem("halfline-convex"), 1.0, schedule))
        assert res.status == "pass"
        assert not res.infinite_lhs_guard

    def test_half_square_skipped(self, schedule):
        res = convexity_necessity_check(RunContext(catalog_problem("half-square"), 0.5, schedule))
        assert res.status == "skipped"

    def test_halfline_flagged_at_q_half(self, schedule):
        # the order-1/2 modulus diverges; the check must flag, not fail
        res = convexity_necessity_check(RunContext(catalog_problem("halfline-convex"), 0.5, schedule))
        assert res.status == "pass"
        assert res.infinite_lhs_guard


class TestTheoremCheck:
    @pytest.mark.parametrize(
        "name,q",
        [("half-square", 0.5), ("identity", 1.0), ("square", 1.0), ("halfline-convex", 1.0)],
    )
    def test_equality_cases(self, schedule, name, q):
        res = theorem_7T1_check(RunContext(catalog_problem(name), q, schedule))
        assert res.inequality_ok
        assert res.equality_checked and res.equality_ok
        assert res.metric_invariant

    def test_inequality_on_whole_catalog(self, schedule):
        import subreg

        for name in subreg.catalog_names():
            p = catalog_problem(name)
            res = theorem_7T1_check(RunContext(p, p.canonical_q, schedule))
            assert res.inequality_ok, name
            assert res.metric_invariant, name


def test_invariant_suite_all_pass_on_half_square(hs_constants):
    rows = run_invariant_suite(hs_constants)
    failed = [r for r in rows if not r.passed]
    assert not failed, [(r.name, r.lhs, r.rhs) for r in failed]


@pytest.mark.parametrize(
    "radius_of,homogeneous",
    [(lambda ys: 0.1 * abs(ys), True), (lambda ys: 0.1, False)],
    ids=["scaled-radius", "fixed-radius"],
)
def test_coderivative_homogeneity_row_on_ball_images(radius_of, homogeneous):
    # half-square whose coderivative returns a dual ball, which has no
    # member list: the row compares the scaled centre and radius
    def coderivative(x, y, ystar):
        ys = float(ystar[0])
        return DualVectorSet.ball([2.0 * max(float(x[0]), 0.0) * ys], radius_of(ys))

    problem = dataclasses.replace(
        catalog_problem("half-square"), coderivative=coderivative, coderivative_matrix=None
    )
    ctx = RunContext(problem, 0.5, Schedule(sample_budget=256, steps=5))
    rows = run_invariant_suite(ctx, gamma=0.5)
    (row,) = [r for r in rows if r.name == "coderivative_homogeneity"]
    assert row.passed is homogeneous
    # a fixed radius r comes back as r where 2.5 r is due
    assert row.lhs == pytest.approx(0.0 if homogeneous else 1.5 * 0.1, abs=1e-12)


# --------------------------------------------------------------------------
# the array engine against the point-by-point scalar reference
# --------------------------------------------------------------------------


def _ref_error_bound_modulus(func_or_ef, schedule):
    # the scan the engine replaced: one scalar value, membership test and
    # oracle call per sampled point, windows taken with ``<``
    func = induced(func_or_ef)
    anchor = ProductPoint(func.xbar, func.ybar)
    soldist = func.solution_distance
    rows, flags = [], ()
    per_shell = max(64, schedule.sample_budget // 8)
    for k, shell in enumerate(schedule.rho_values()):
        for p in points(func.sampler(anchor, shell, per_shell, mix_seed(schedule.seed, "er", k))):
            fv = func.value(p.x, p.y)
            if is_inf(fv) or fv <= 0.0:
                continue
            if soldist is None:
                flags = ("inconclusive", "no-solution-distance")
                break
            d = float(soldist(p.x))
            if d <= EPS_MEM:
                continue
            dxa = func.norm_x.value(p.x - func.xbar)
            dya = func.norm_y.value(p.y - func.ybar)
            rows.append((float(fv), dxa, dya, float(fv) / d, p, d))
        if flags:
            break
    rhos = schedule.rho_values()
    trace, witnesses = [], []
    forms = {"x_only": INF, "x_and_y": INF, "f_to_zero": INF}
    for k, rho in enumerate(rhos):
        best = {key: INF for key in forms}
        best_rec = None
        for fv, dxa, dya, ratio, p, d in rows:
            if dxa >= rho:
                continue
            if ratio < best["x_only"]:
                best["x_only"] = ratio
                best_rec = (p, fv, d, ratio)
            if dya < rho and ratio < best["x_and_y"]:
                best["x_and_y"] = ratio
            if fv < rho and ratio < best["f_to_zero"]:
                best["f_to_zero"] = ratio
        trace.append((rho, best["x_only"]))
        if k == len(rhos) - 1:
            forms = best
            if best_rec is not None:
                p, fv, d, ratio = best_rec
                witnesses.append(
                    {
                        "x": [float(t) for t in p.x],
                        "y": [float(t) for t in p.y],
                        "f": fv,
                        "solution_distance": d,
                        "ratio": ratio,
                    }
                )
    conclusives = [v for v in forms.values() if not is_inf(v)]
    forms_agree = None
    if looks_divergent(trace):
        flags = flags + ("divergent",)
    elif len(conclusives) == 3:
        forms_agree = all(rel_close(a, b, SAMPLED_REL) for a in conclusives for b in conclusives)
    if not rows and not flags:
        flags = ("inconclusive",)
    elif all(is_inf(v) for _, v in trace) and not flags:
        flags = ("inconclusive",)
    return ModulusReport(
        "error_bound_modulus",
        trace[-1][1],
        tuple(trace),
        tuple(witnesses),
        forms=dict(forms),
        forms_agree=forms_agree,
        flags=flags,
    )


def _ref_subregularity_modulus(problem, q, schedule):
    # the scan the per-distinct-x table replaced: every copy of every
    # level's pool, then the level's ambient samples, one oracle call each
    pools = ref_pools(problem, schedule)
    rhos = schedule.rho_values()
    trace, witnesses = [], []
    for k, rho in enumerate(rhos):
        xs = [pt.x for pt in pools[k]]
        xs += [
            x
            for x in _ambient_x_samples(problem, rho, 64, mix_seed(schedule.seed, "srx", k))
            if problem.d_x(x, problem.xbar) < rho
        ]
        best, best_rec = INF, None
        for x in xs:
            sol = problem.solution_dist_exact(x)
            if sol is None or sol <= EPS_MEM or problem.fiber_distance is None:
                continue
            fib = problem.fiber_distance(x)
            if is_inf(fib):
                continue
            val = float(fib) ** q / sol
            if val < best:
                best = val
                best_rec = {
                    "x": [float(t) for t in np.asarray(x).reshape(-1)],
                    "fiber_distance": float(fib),
                    "solution_distance": float(sol),
                    "ratio": val,
                }
        trace.append((rho, best))
        if k == len(rhos) - 1 and best_rec is not None:
            witnesses.append(best_rec)
    flags = ()
    if all(is_inf(v) for _, v in trace):
        flags = ("inconclusive",)
    elif any(is_inf(v) for _, v in trace):
        flags = ("empty-levels",)
    return ModulusReport("sr_q", trace[-1][1], tuple(trace), tuple(witnesses), flags=flags)


def _ref_p2(func_or_ef, schedule):
    func = induced(func_or_ef)
    pts = points(
        func.sampler(
            ProductPoint(func.xbar, func.ybar),
            schedule.rho0,
            schedule.sample_budget,
            mix_seed(schedule.seed, "p2"),
        )
    )
    ratios = []
    for p in pts:
        f = func.value(p.x, p.y)
        if is_inf(f) or f <= 0.0:
            continue
        dy = func.norm_y.value(p.y - func.ybar)
        if dy > 0.0:
            ratios.append((float(f), float(f) / dy))
    trace = []
    for rho in schedule.rho_values():
        level = [r for (f, r) in ratios if f < rho]
        trace.append((rho, min(level) if level else INF))
    return trace


def _bits(v):
    """Exact identity of a report value: a float's type and hex form, and
    containers element by element."""
    if isinstance(v, float):
        return ("float", v.hex())
    if isinstance(v, (list, tuple)):
        return (type(v).__name__,) + tuple(_bits(u) for u in v)
    if isinstance(v, dict):
        return ("dict",) + tuple((k, _bits(u)) for k, u in v.items())
    return (type(v).__name__, v)


def _inline(coef, power):
    pieces = [
        {"domain": [-1.0, 0.0], "coeffs": [0.0]},
        {"domain": [0.0, 2.0], "coeffs": [0.0] * power + [coef]},
    ]
    return piecewise_problem(pieces, xbar=0.0, ybar=0.0)


_ENGINE_CASES = {
    "half-square": lambda: catalog_problem("half-square"),
    "identity": lambda: catalog_problem("identity"),  # every ratio ties at q = 1
    "square": lambda: catalog_problem("square"),
    "halfline-convex": lambda: catalog_problem("halfline-convex"),
    "linear-A": lambda: catalog_problem("linear-A"),  # 2-D norms
    "constant": lambda: catalog_problem("constant"),  # empty windows
    "half-square-inline": lambda: _inline(1.0, 2),
    "2max2-inline": lambda: _inline(2.0, 2),
    "3max1-inline": lambda: _inline(3.0, 1),
    "embedding": lambda: single_variable_embedding(abs, solution_distance=lambda x: abs(float(x[0]))),
    "embedding-no-oracle": lambda: single_variable_embedding(abs),
}


def _other_q(q):
    return 0.5 if q == 1.0 else 1.0


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize(
    "name,q",
    [(n, q) for n in _ENGINE_CASES for q in (0.25, 0.5, 1.0) if "embedding" not in n or q == 1.0],
)
def test_error_bound_engine_matches_scalar_reference(name, q, seed):
    s = Schedule(sample_budget=256, steps=5, seed=seed)
    made = _ENGINE_CASES[name]()
    subject = made if "embedding" in name else ErrorFunction(made, q)
    ref = _ref_error_bound_modulus(subject, s)
    news = [error_bound_modulus(subject, s)]
    if "embedding" not in name:
        # tables first read at another order give the same bits
        tables = Tables(made, s)
        error_bound_modulus(ErrorFunction(made, _other_q(q)), s, tables)
        read = tables.anchor
        news.append(error_bound_modulus(subject, s, tables))
        assert tables.anchor is read
    for new in news:
        for f in dataclasses.fields(ModulusReport):
            assert _bits(getattr(new, f.name)) == _bits(getattr(ref, f.name)), f.name
    p2 = validate_P1_P2(subject, s)
    assert [(_bits(r), _bits(v)) for r, v in p2.trace] == [
        (_bits(r), _bits(v)) for r, v in _ref_p2(subject, s)
    ]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize(
    "name,q", [(n, q) for n in _ENGINE_CASES if "embedding" not in n for q in (0.25, 0.5, 1.0)]
)
def test_subregularity_modulus_matches_per_copy_reference(name, q, seed):
    s = Schedule(sample_budget=256, steps=5, seed=seed)
    problem = _ENGINE_CASES[name]()
    ref = _ref_subregularity_modulus(problem, q, s)
    # fresh tables, then tables first read at another order
    tables = Tables(problem, s)
    subregularity_modulus(problem, _other_q(q), s, tables)
    read = tables.subreg
    news = [subregularity_modulus(problem, q, s), subregularity_modulus(problem, q, s, tables)]
    assert tables.subreg is read
    for new in news:
        for f in dataclasses.fields(ModulusReport):
            assert _bits(getattr(new, f.name)) == _bits(getattr(ref, f.name)), f.name


@pytest.mark.parametrize("q", [0.0, 1.5, math.nan, True])
def test_run_context_refuses_an_order_outside_the_unit_interval(q):
    # the one check of q for every constant a run computes
    with pytest.raises(ModuliError, match=r"q must lie in \(0, 1\]"):
        RunContext(catalog_problem("half-square"), q, Schedule(sample_budget=256, steps=5))


def test_tables_of_another_problem_or_schedule_are_refused():
    p, s = catalog_problem("half-square"), Schedule(sample_budget=256, steps=5)
    other_seed = Schedule(sample_budget=256, steps=5, seed=1)
    for tables in (Tables(catalog_problem("half-square"), s), Tables(p, other_seed)):
        with pytest.raises(ModuliError):
            subregularity_modulus(p, 0.5, s, tables)
        with pytest.raises(ModuliError):
            error_bound_modulus(ErrorFunction(p, 0.5), s, tables)


def _ref_ambient_x_samples(problem, radius, count, seed):
    # the list of per-point copies the row array replaced
    stop = max(1e-9 * radius, 1e-11)
    out = []
    for i in range(problem.dim_x):
        for off in halving_offsets(radius, stop, 2 * count - len(out) // 2):
            for sgn in (1.0, -1.0):
                x = problem.xbar.copy()
                x[i] += sgn * off
                out.append(x)
    fill = max(0, count - len(out))
    if fill:
        u = halton_points(problem.dim_x, fill, mix_seed(seed, "ambient"))
        out.extend(problem.xbar + (2.0 * u - 1.0) * radius)
    return out


@pytest.mark.parametrize(
    "name,radius,count",
    [
        ("half-square", 0.5, 64),  # 60 stencil rows, a 4-row Halton fill
        ("half-square", 1e-10, 64),  # a short stencil, mostly fill
        ("linear-A", 0.5, 64),  # the stencil fills the count
        ("linear-A", 0.5, 20),  # the second axis's stencil is capped
        ("linear-A", 0.5, 4),  # the first axis takes the whole cap
        ("linear-A", 1e-10, 64),  # both stencils and a Halton fill
    ],
)
def test_ambient_x_samples_match_the_per_point_copies(name, radius, count):
    problem = catalog_problem(name)
    got = _ambient_x_samples(problem, radius, count, 11)
    want = _ref_ambient_x_samples(problem, radius, count, 11)
    assert got.shape == (len(want), problem.dim_x)
    assert [r.tobytes() for r in got] == [x.tobytes() for x in want]


@pytest.mark.parametrize("name", ["half-square", "halfline-convex", "linear-A", "constant", "2max2-inline"])
def test_probe_points_are_the_three_radius_draw(monkeypatch, name):
    import subreg.moduli as moduli

    problem = _ENGINE_CASES[name]()
    batches = []
    original = moduli.sample_graph_batch

    def counted(pr, calls):
        batches.append(len(calls))
        return original(pr, calls)

    monkeypatch.setattr(moduli, "sample_graph_batch", counted)
    for seed, count in ((0, 24), (3, 24), (7, 5)):
        s = Schedule(sample_budget=256, steps=5, seed=seed)
        batches.clear()
        got = _probe_points(problem, s, count)
        assert batches == [3]  # one batched draw of the three radii
        want = probe_points(problem, s, count)
        assert [(p.x.tobytes(), p.y.tobytes()) for p in got] == [
            (p.x.tobytes(), p.y.tobytes()) for p in want
        ]


@pytest.mark.parametrize(
    "values,valid",
    [
        ([3.0, 1.0, 1.0, 2.0], [1, 1, 1, 1]),  # the first of a tie
        ([np.nan, 1.0, 0.5], [1, 1, 1]),  # a NaN first entry is never beaten
        ([np.nan, 1.0, np.nan, 0.5], [0, 1, 1, 1]),  # a later NaN never wins
        ([0.1, np.inf, np.inf], [0, 1, 1]),  # nothing beats a float inf
        ([5.0, 2.0, 9.0], [0, 0, 0]),  # no valid entry
        ([], []),
    ],
)
def test_first_least_is_the_scan(values, valid):
    values, valid = np.array(values, dtype=float), np.array(valid, dtype=bool)
    best, want = INF, -1
    for i in np.flatnonzero(valid):
        if float(values[i]) < best:
            best, want = float(values[i]), int(i)
    assert _first_least(values, valid) == (want, INF if want < 0 else float(values[want]))


# a level's entries: few distinct values, so ties are common, with NaN,
# INF and zero; ratios are never -0.0, whose tie with 0.0 either may win
_LEVEL_VALUES = st.one_of(
    st.sampled_from([np.nan, INF, 0.0, 0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, allow_nan=False),
)


@seed(20141124)
@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    levels=st.integers(1, 6),
    rows=st.lists(st.tuples(st.integers(-1, 5), _LEVEL_VALUES), max_size=40),
)
def test_suffix_minima_are_the_per_level_scans(levels, rows):
    # depths past the finest level stay in it; -1 is in no level
    depth = np.array([min(d, levels - 1) for d, _ in rows], dtype=np.int64)
    values = np.array([v for _, v in rows], dtype=float)
    want = level_scans(values, depth, levels)
    order = np.flatnonzero(depth >= 0)
    order = order[np.argsort(depth[order], kind="stable")]
    starts = np.searchsorted(depth[order], np.arange(levels))
    got = _suffix_minima(values[order], starts)
    # the value bits, with an empty level the INF object itself
    assert [v if v is INF else v.hex() for v in got] == [
        v if v is INF else v.hex() for _, v in want
    ]
    # the finest level keeps row order: its first least is the scan's row
    i, _ = _first_least(values[order][starts[-1] :])
    assert (int(order[starts[-1] + i]) if i >= 0 else -1) == want[-1][0]
