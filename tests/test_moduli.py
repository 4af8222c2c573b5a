import dataclasses

import numpy as np
import pytest

from subreg import (
    DualVectorSet,
    ErrorFunction,
    Schedule,
    catalog_problem,
    check_subregularity_inequality,
    compute_constants,
    convexity_necessity_check,
    criteria_report,
    error_bound_modulus,
    is_inf,
    run_invariant_suite,
    single_variable_embedding,
    subregularity_modulus,
    theorem_7T1_check,
)


@pytest.fixture(scope="module")
def schedule():
    return Schedule(sample_budget=1024, steps=10)


@pytest.fixture(scope="module")
def hs_constants(schedule):
    return compute_constants(catalog_problem("half-square"), 0.5, schedule)


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


class TestCriteria:
    def test_half_square_below_threshold_all_hold(self, schedule, hs_constants):
        p = catalog_problem("half-square")
        rep = criteria_report(p, 0.5, 0.5, schedule, hs_constants)
        for letter in "bcdefghij":
            assert rep.conditions[letter] == "holds", letter
        assert rep.conditions["a"] == "holds"
        assert rep.implication_violations == ()

    def test_half_square_above_threshold_all_fail(self, schedule, hs_constants):
        p = catalog_problem("half-square")
        rep = criteria_report(p, 0.5, 2.0, schedule, hs_constants)
        for letter in "bcdefghij":
            assert rep.conditions[letter] == "fails", letter
        assert rep.implication_violations == ()

    def test_constant_mapping_flagged_holds(self, schedule):
        p = catalog_problem("constant")
        rep = criteria_report(p, 1.0, 0.5, schedule)
        assert rep.conditions["b"] == "inconclusive" or rep.conditions["b"] == "holds"
        assert rep.implication_violations == ()

    def test_gamma_sweep_never_violates(self, schedule, hs_constants):
        p = catalog_problem("half-square")
        for gamma in (0.1, 0.5, 0.9, 1.1, 2.0):
            rep = criteria_report(p, 0.5, gamma, schedule, hs_constants)
            assert rep.implication_violations == ()

    def test_rejects_nonpositive_gamma(self, schedule, hs_constants):
        with pytest.raises(ValueError):
            criteria_report(catalog_problem("half-square"), 0.5, 0.0, schedule, hs_constants)


class TestConvexityNecessity:
    def test_halfline_passes_at_q_one(self, schedule):
        res = convexity_necessity_check(catalog_problem("halfline-convex"), 1.0, schedule)
        assert res.status == "pass"
        assert not res.infinite_lhs_guard

    def test_half_square_skipped(self, schedule):
        res = convexity_necessity_check(catalog_problem("half-square"), 0.5, schedule)
        assert res.status == "skipped"

    def test_halfline_flagged_at_q_half(self, schedule):
        # the order-1/2 modulus diverges; the check must flag, not fail
        res = convexity_necessity_check(catalog_problem("halfline-convex"), 0.5, schedule)
        assert res.status == "pass"
        assert res.infinite_lhs_guard


class TestTheoremCheck:
    @pytest.mark.parametrize(
        "name,q",
        [("half-square", 0.5), ("identity", 1.0), ("square", 1.0), ("halfline-convex", 1.0)],
    )
    def test_equality_cases(self, schedule, name, q):
        res = theorem_7T1_check(catalog_problem(name), q, schedule)
        assert res.inequality_ok
        assert res.equality_checked and res.equality_ok
        assert res.metric_invariant

    def test_inequality_on_whole_catalog(self, schedule):
        import subreg

        for name in subreg.catalog_names():
            p = catalog_problem(name)
            res = theorem_7T1_check(p, p.canonical_q, schedule)
            assert res.inequality_ok, name
            assert res.metric_invariant, name


def test_invariant_suite_all_pass_on_half_square(schedule, hs_constants):
    rows = run_invariant_suite(
        catalog_problem("half-square"), 0.5, schedule, constants=hs_constants
    )
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

    problem = dataclasses.replace(catalog_problem("half-square"), coderivative=coderivative)
    rows = run_invariant_suite(problem, 0.5, Schedule(sample_budget=256, steps=5), gamma=0.5)
    (row,) = [r for r in rows if r.name == "coderivative_homogeneity"]
    assert row.passed is homogeneous
    # a fixed radius r comes back as r where 2.5 r is due
    assert row.lhs == pytest.approx(0.0 if homogeneous else 1.5 * 0.1, abs=1e-12)
