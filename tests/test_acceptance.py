"""Acceptance suite: one test per criterion, each printing a pass/fail
line, all at the default schedule and its stated tolerances."""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from subreg import (
    ErrorFunction,
    ProductPoint,
    Schedule,
    catalog_problem,
    compute_constants,
    criteria_report,
    convexity_necessity_check,
    f_level_slopes,
    finite_graph_problem,
    graph_sample,
    local_rho_slope,
    nonlocal_q_rho_slope,
    run_invariant_suite,
    subdiff_rho_slope,
    theorem_7T1_check,
)
from subreg.slopes_primal import gather_point_candidates, rho_slope_profiles

CANONICAL_Q = {
    "half-square": 0.5,
    "identity": 1.0,
    "square": 1.0,
    "linear-A": 1.0,
    "halfline-convex": 1.0,
    "constant": 1.0,
}

STRICT_NAMES = (
    "uniform_strict_q_slope",
    "strict_q_slope",
    "modified_strict_q_slope",
    "subdiff_strict_q_slope_plain",
    "subdiff_strict_q_slope_approx",
    "subdiff_strict_q_slope_modified",
    "subdiff_strict_q_slope_modified_approx",
)


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {criterion}" + (f": {detail}" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="session")
def schedule():
    return Schedule()


@pytest.fixture(scope="session")
def problems():
    return {name: catalog_problem(name) for name in CANONICAL_Q}


@pytest.fixture(scope="session")
def constants(problems, schedule):
    return {
        name: compute_constants(p, CANONICAL_Q[name], schedule)
        for name, p in problems.items()
    }


@pytest.fixture(scope="session")
def invariant_rows(problems, schedule, constants):
    return {
        name: run_invariant_suite(p, CANONICAL_Q[name], schedule, constants=constants[name])
        for name, p in problems.items()
    }


def test_criterion_1_half_square_reproduction(schedule):
    # fresh problem object so no cached pools mask the runtime cost
    problem = catalog_problem("half-square")
    start = time.monotonic()
    consts = compute_constants(problem, 0.5, schedule)
    values = {"sr_q": consts["sr_q"].value}
    for name in STRICT_NAMES:
        values[name] = consts[name].value
    subdiff_ok = True
    for x, rho in ((0.7, 0.3), (0.25, 0.6), (0.5, 0.05)):
        est = subdiff_rho_slope(problem, rho, ProductPoint([x], [x * x]), "plain", schedule)
        subdiff_ok &= abs(est.value - 2 * x * (1 - rho)) <= 1e-9
    local = local_rho_slope(problem, 0.5, ProductPoint([0.5], [0.25]), schedule).value
    elapsed = time.monotonic() - start

    in_band = all(0.95 <= v <= 1.05 for v in values.values())
    local_ok = abs(local - 1.0) <= 0.02
    ok = in_band and subdiff_ok and local_ok and elapsed <= 10.0
    _report(
        "criterion-1 half-square reproduction",
        ok,
        f"constants={ {k: round(float(v), 6) for k, v in values.items()} }, "
        f"local={local:.6f}, subdiff_exact={subdiff_ok}, elapsed={elapsed:.2f}s",
    )


def _scan_nonlocal(points, at, q, rho):
    x, y = at
    d_at = abs(y)
    best = 0.0
    for u, v in points:
        dx = abs(u - x)
        dy = abs(v - y)
        if max(dx, dy) <= 1e-12:
            continue
        den = max(dx, rho * dy)
        num = d_at**q - abs(v) ** q
        if num < 0.0:
            num = 0.0
        if num / den > best:
            best = num / den
    return best


def _scan_f_nonlocal(points, at, q, rho):
    x, y = at
    f_at = abs(y) ** q
    best = 0.0
    for u, v in points:
        dx = abs(u - x)
        dy = abs(v - y)
        if max(dx, dy) <= 1e-12:
            continue
        den = max(dx, rho * dy)
        fv = abs(v) ** q
        num = f_at - (fv if fv > 0.0 else 0.0)
        if num < 0.0:
            num = 0.0
        if num / den > best:
            best = num / den
    return best


def test_criterion_2_brute_force_equivalence(schedule):
    rng = np.random.default_rng(101)
    mismatches = []
    for g in range(5):
        n = int(rng.integers(12, 50))
        pts = [(0.0, 0.0)]
        pts += [
            (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))) for _ in range(n)
        ]
        problem = finite_graph_problem(
            [([u], [v]) for u, v in pts], xbar=[0.0], ybar=[0.0], name=f"finite-{g}"
        )
        at = pts[1 + int(rng.integers(0, n))]
        if at[1] == 0.0:
            at = pts[1]
        point = ProductPoint([at[0]], [at[1]])
        for q in (1.0, 0.5):
            for rho in (0.4, 1.3):
                est = nonlocal_q_rho_slope(problem, q, rho, point, schedule)
                oracle = _scan_nonlocal(pts, at, q, rho)
                if est.value != oracle:
                    mismatches.append((g, q, rho, "F", est.value, oracle))
                ef = ErrorFunction(problem, q)
                f_est = f_level_slopes(ef, rho, point, schedule, ("nonlocal",))[
                    "nonlocal"
                ].value
                f_oracle = _scan_f_nonlocal(pts, at, q, rho)
                if f_est != f_oracle:
                    mismatches.append((g, q, rho, "f", f_est, f_oracle))
    _report(
        "criterion-2 brute-force equivalence",
        not mismatches,
        f"5 graphs x 4 settings bitwise{'' if not mismatches else f', mismatches={mismatches}'}",
    )


def test_criterion_3_rho_monotonicity(problems, schedule):
    rhos = schedule.rho_values()
    worst = 0.0
    checked = 0
    for name, problem in problems.items():
        probes = []
        for j, radius in enumerate((0.9, 0.3, 0.05, 0.005)):
            probes.extend(graph_sample(problem, problem.anchor, radius, 30, 300 + j))
        probes = probes[:100]
        assert len(probes) == 100, name
        for pt in probes:
            series = rho_slope_profiles(
                problem, pt, CANONICAL_Q[name], rhos, schedule
            )
            checked += 1
            for vals in series.values():
                for a, b in zip(vals, vals[1:]):
                    worst = min(worst, b - a)
    _report(
        "criterion-3 rho monotonicity",
        worst >= -1e-12,
        f"{checked} probes x {len(rhos)} levels, worst slack {worst:.3e}",
    )


CHAIN_ROWS = (
    "nonlocal_dominates_local_and_anchor",
    "f_nonlocal_dominates_local_and_anchor",
    "uniform_ge_modified",
    "modified_ge_plain",
    "f_uniform_ge_f_modified",
    "f_modified_ge_f_plain",
    "dual_approx_le_plain",
    "dual_plain_le_modified",
    "dual_approx_le_modified_approx",
    "dual_modified_approx_le_modified",
    "primal_ge_dual_approx",
    "modified_primal_ge_dual_modified_approx",
    "alpha_le_dual_modified_approx",
    "dual_plain_le_beta",
    "beta_le_dual_modified",
)
EQUALITY_ROWS = ("primal_dual_equality_plain", "primal_dual_equality_modified")


LM_ROWS = ("alpha_le_dual_modified_approx", "dual_plain_le_beta", "beta_le_dual_modified")


def test_criterion_4_inequality_chain_suite(invariant_rows):
    from subreg import is_inf

    failures = []
    for name, rows in invariant_rows.items():
        by_name = {r.name: r for r in rows}
        for row_name in CHAIN_ROWS + EQUALITY_ROWS:
            row = by_name.get(row_name)
            if row is not None and not row.passed:
                failures.append((name, row_name, row.lhs, row.rhs))
        for row_name in LM_ROWS:
            # on the catalog the enlargement sandwich is tight at 1e-6
            row = by_name[row_name]
            if not is_inf(row.lhs) and not is_inf(row.rhs):
                if row.lhs - row.rhs > 1e-6:
                    failures.append((name, row_name + "@1e-6", row.lhs, row.rhs))
    _report(
        "criterion-4 inequality chains",
        not failures,
        f"{len(invariant_rows)} problems"
        + ("" if not failures else f", failures={failures}"),
    )


def test_criterion_5_bridge_between_levels(problems, schedule):
    failures = []
    rho = 0.5
    for name, problem in problems.items():
        probes = []
        for j, radius in enumerate((0.8, 0.2, 0.02)):
            probes.extend(graph_sample(problem, problem.anchor, radius, 40, 500 + j))
        probes = [
            p
            for p in probes
            if problem.d_y(p.y, problem.ybar) > 1e-9
            and max(problem.d_x(p.x, problem.xbar), problem.d_y(p.y, problem.ybar))
            >= 1e-3
        ][:50]
        for pt in probes:
            cands = gather_point_candidates(problem, pt, schedule)
            d = problem.d_y(pt.y, problem.ybar)
            exact = cands.local_value(rho, q=1.0)
            base = cands.local_value(rho)
            if exact != base:  # q = 1: identical candidate ratios
                failures.append((name, 1.0, float(pt.x[0]), exact, base))
            f_half = cands.local_value(rho, q=0.5)
            bridged = 0.5 * d ** (-0.5) * base
            scale = max(abs(f_half), abs(bridged), 1e-12)
            if abs(f_half - bridged) > 1e-6 * scale:
                failures.append((name, 0.5, float(pt.x[0]), f_half, bridged))
    _report(
        "criterion-5 error-function bridge",
        not failures,
        "exact at q=1, <=1e-6 relative at q=1/2"
        + ("" if not failures else f", failures={failures[:4]}"),
    )


def test_criterion_6_modulus_equals_uniform_slope(problems, schedule, constants):
    failures = []
    for name, problem in problems.items():
        res = theorem_7T1_check(problem, CANONICAL_Q[name], schedule, constants[name])
        if not res.inequality_ok:
            failures.append((name, "inequality"))
        if not res.metric_invariant:
            failures.append((name, "metric-invariance"))
    for name in ("half-square", "identity", "square", "halfline-convex"):
        res = theorem_7T1_check(
            problems[name], CANONICAL_Q[name], schedule, constants[name]
        )
        if not (res.equality_checked and res.equality_ok):
            failures.append((name, "equality"))
        if name == "square":
            sr = constants[name]["sr_q"].value
            uni = constants[name]["uniform_strict_q_slope"].value
            if not (abs(sr) <= 0.02 and abs(uni) <= 0.02):
                failures.append((name, "both-sides-near-zero"))
    _report("criterion-6 modulus vs uniform slope", not failures, str(failures or "ok"))


def test_criterion_7_limiting_coderivative_agreement(constants):
    failures = []
    for name in ("half-square", "identity"):
        lim = constants[name]["limiting_coderivative_min_norm"].value
        for key in ("subdiff_strict_q_slope_plain", "subdiff_strict_q_slope_approx"):
            ref = constants[name][key].value
            if abs(lim - ref) > 0.05 * max(abs(lim), abs(ref)):
                failures.append((name, key, lim, ref))
    _report("criterion-7 limiting coderivative agreement", not failures, str(failures or "ok"))


def test_criterion_8_convexity_necessity(problems, schedule):
    res_q1 = convexity_necessity_check(problems["halfline-convex"], 1.0, schedule)
    res_qh = convexity_necessity_check(problems["halfline-convex"], 0.5, schedule)
    ok = (
        res_q1.status == "pass"
        and not res_q1.infinite_lhs_guard
        and res_qh.status == "pass"
        and res_qh.infinite_lhs_guard
    )
    _report(
        "criterion-8 convexity necessity",
        ok,
        f"q=1 {res_q1.status}, q=1/2 {res_qh.status} (guard={res_qh.infinite_lhs_guard})",
    )


def test_criterion_9_criteria_consistency(problems, schedule, constants):
    violations = []
    for name, problem in problems.items():
        for gamma in (0.1, 0.5, 0.9, 1.1, 2.0):
            rep = criteria_report(
                problem, CANONICAL_Q[name], gamma, schedule, constants[name]
            )
            violations.extend((name, gamma, v) for v in rep.implication_violations)
    _report(
        "criterion-9 criteria consistency",
        not violations,
        f"{len(problems)} problems x 5 gammas" + ("" if not violations else f": {violations}"),
    )


def test_criterion_10_byte_identical_reports(tmp_path, cli_env):
    config = {
        "problem": "half-square",
        "q": 0.5,
        "gamma": 0.5,
        "schedule": {"seed": 42},
        "checks": [
            "slopes",
            "moduli",
            "criteria",
            "invariants",
            "theorem-7T1",
            "lm-constants",
        ],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for i in range(2):
        out = tmp_path / f"report_{i}.json"
        res = subprocess.run(
            [sys.executable, "-m", "subreg.cli", "--config", str(cfg_path), "--out", str(out)],
            capture_output=True,
            text=True,
            env=cli_env,
        )
        assert res.returncode == 0, res.stderr
        outputs.append(out.read_bytes())
    _report(
        "criterion-10 determinism",
        outputs[0] == outputs[1],
        f"two CLI runs, {len(outputs[0])} bytes each",
    )
