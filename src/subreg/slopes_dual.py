"""Subdifferential and coderivative slope estimation.

Everything here drives the problem's analytic coderivative oracle:
subdifferential rho-slopes minimize ``|x*|`` over coderivative images of
the duality mapping plus a perturbation ball (exact intervals in one
dimension, sampled dual directions otherwise), the strict q-slopes take
per-level infima over the shared outer pools, and the limiting
coderivative minimum norm realizes the sequential outer limit along the
shrinking shells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .extended import INF, ExtReal, is_inf
from .geometry import (
    DualVectorSet,
    ProductPoint,
    _dual_ball_directions,
    duality_map,
    q_duality_enlargement,
    xi_q,
)
from .problems import (
    MappingProblem,
    Schedule,
    mix_seed,
    outer_pools,
)
from .slopes_primal import SlopeEstimate, _finish

# Duality-mapping multipliers above this are not explored; the limiting
# minimum-norm estimate may overestimate when the cap binds (flagged).
MULTIPLIER_CAP = 1e6


class MissingOracleError(ValueError):
    """The operation needs the analytic coderivative oracle."""


class DualSlopeError(ValueError):
    """Invalid input to a dual slope estimator."""


@dataclass(frozen=True, eq=False)
class CoderivativeQuery:
    """One coderivative evaluation: the point, the multiplier, and the
    finite description of the image (``None`` when the oracle has no
    description at this point)."""

    at: ProductPoint
    ystar: np.ndarray
    result: Optional[DualVectorSet]


def coderivative_query(problem: MappingProblem, at: ProductPoint, ystar) -> CoderivativeQuery:
    if problem.coderivative is None:
        raise MissingOracleError(f"problem {problem.name!r} has no coderivative oracle")
    ystar = np.asarray(ystar, dtype=float).reshape(-1)
    return CoderivativeQuery(at, ystar, problem.coderivative(at.x, at.y, ystar))


def _image_min_norm(problem: MappingProblem, x, y, ystar) -> ExtReal:
    res = problem.coderivative(x, y, np.asarray(ystar, dtype=float).reshape(-1))
    if res is None:
        return INF
    return res.min_norm(problem.norm_x.dual())


def _pert_multipliers(problem: MappingProblem, j: np.ndarray, pert: float, seed: int) -> list:
    """Multiplier candidates in J + pert*B*: the exact interval ends in
    one dimension, dual-sphere directions (always including -j) above."""
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


def _subdiff_value(
    problem: MappingProblem,
    x: np.ndarray,
    y: np.ndarray,
    pert: float,
    seed: int,
) -> ExtReal:
    """inf |x*| over x* in D*F(x,y)(J(y - ybar) + pert * B*)."""
    diff = y - problem.ybar
    dual = problem.norm_y.dual()
    js = duality_map(diff, problem.norm_y).members()
    if pert >= min(dual.value(j) for j in js):
        # 0 lies in the perturbed multiplier set and D*F(x,y)(0) owns 0
        return 0.0
    best: ExtReal = INF
    for j in js:
        for ys in _pert_multipliers(problem, j, pert, seed):
            v = _image_min_norm(problem, x, y, ys)
            if v < best:
                best = v
    return best


def _approx_subdiff_value(
    problem: MappingProblem,
    x: np.ndarray,
    y: np.ndarray,
    pert: float,
    v_radius: float,
    seed: int,
) -> ExtReal:
    """liminf proxy over directions v near y - ybar of the plain value;
    the center v = y - ybar is always included, so the approximate value
    never exceeds the plain one on shared candidates."""
    diff = y - problem.ybar
    dual = problem.norm_y.dual()
    vs = [diff]
    if v_radius > 0.0:
        if problem.dim_y == 1:
            vs += [diff + np.array([v_radius]), diff - np.array([v_radius])]
        else:
            for d in _dual_ball_directions(problem.dim_y, problem.norm_y, 4, seed):
                vs.append(diff + v_radius * d)
    best: ExtReal = INF
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


def subdiff_rho_slope(
    problem: MappingProblem,
    rho: float,
    at: ProductPoint,
    variant: str = "plain",
    schedule: Optional[Schedule] = None,
) -> SlopeEstimate:
    """Subdifferential rho-slope at a graph point with ``y != ybar``.

    The plain variant is exact for one-dimensional ranges (the
    perturbation ball is the literal interval); the approximate variant
    adds the inner liminf over nearby directions, realized at the
    smallest v-radius of the schedule with the full radius trace.
    Estimates of these infima are upper-biased.
    """
    schedule = schedule or Schedule()
    if rho < 0:
        raise DualSlopeError("rho must be nonnegative")
    if variant not in ("plain", "approximate"):
        raise DualSlopeError(f"unknown variant {variant!r}")
    if problem.coderivative is None:
        raise MissingOracleError(f"problem {problem.name!r} has no coderivative oracle")
    if not problem.graph_membership(at.x, at.y):
        raise DualSlopeError("evaluation point is not on the graph")
    d = problem.d_y(at.y, problem.ybar)
    if d <= 0.0:
        raise DualSlopeError("subdifferential slope undefined at y == ybar")
    seed = mix_seed(schedule.seed, "dirs")
    if variant == "plain":
        value = _subdiff_value(problem, at.x, at.y, rho, seed)
        return SlopeEstimate(value, ((rho, value),), False, 1, "subdiff_rho_plain")
    trace = []
    for nr in schedule.neighborhood_radii:
        v_radius = (nr / 10.0) * d
        val = _approx_subdiff_value(problem, at.x, at.y, rho, v_radius, seed)
        trace.append((v_radius, val))
    return SlopeEstimate(
        trace[-1][1], tuple(trace), False, len(trace), "subdiff_rho_approx"
    )


def f_level_subdiff_rho_slope(
    ef, rho: float, at: ProductPoint, schedule: Optional[Schedule] = None
) -> ExtReal:
    """Subdifferential rho-slope of the induced error function,
    recovered as ``q d^{q-1}`` times the mapping-level slope at the
    rescaled perturbation radius ``xi_q(y) * rho``."""
    problem, q = ef.problem, ef.q
    schedule = schedule or Schedule()
    d = problem.d_y(at.y, problem.ybar)
    if d <= 0.0:
        raise DualSlopeError("undefined at y == ybar")
    xi = xi_q(at.y, problem.ybar, q, problem.norm_y)
    inner = _subdiff_value(
        problem,
        at.x,
        at.y,
        xi * rho,
        mix_seed(schedule.seed, "dirs"),
    )
    return q * d ** (q - 1.0) * inner


# --------------------------------------------------------------------------
# strict subdifferential q-slopes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DualStrictSlopes:
    plain: SlopeEstimate
    approx: SlopeEstimate
    modified: SlopeEstimate
    modified_approx: SlopeEstimate


def _inconclusive(kind: str, rhos: Sequence[float]) -> SlopeEstimate:
    trace = tuple((rho, INF) for rho in rhos)
    return SlopeEstimate(INF, trace, False, 0, kind, ("inconclusive", "missing-oracle"))


def strict_subdiff_q_slopes(
    problem: MappingProblem, q: float, schedule: Schedule
) -> DualStrictSlopes:
    """The four strict subdifferential q-slopes (plain / approximate /
    modified / modified-approximate) on shared per-level outer pools.

    The perturbation radius at a point is ``xi_q(y) * rho_k`` (plain
    ``rho_k`` when q = 1, where the rescaling factor is identically 1).
    """
    if not 0.0 < q <= 1.0:
        raise DualSlopeError("q must lie in (0, 1]")
    rhos = schedule.rho_values()
    if problem.coderivative is None:
        est = [_inconclusive(f"subdiff_strict_q_{t}", rhos) for t in
               ("plain", "approx", "modified", "modified_approx")]
        return DualStrictSlopes(*est)

    pools = outer_pools(problem, schedule, True)
    v_frac = schedule.neighborhood_radii[-1] / 10.0
    tr = {k: [] for k in ("plain", "approx", "modified", "modified_approx")}
    used = 0
    for k, rho in enumerate(rhos):
        best = {key: INF for key in tr}
        for pt in pools[k]:
            d = pt.d_y_anchor
            weight = q * d ** (q - 1.0)
            pert = (d ** (1.0 - q) / q) * rho
            seed = mix_seed(schedule.seed, "dirs")
            used += 1
            plain_val = _subdiff_value(problem, pt.x, pt.y, pert, seed)
            approx_val = _approx_subdiff_value(
                problem, pt.x, pt.y, pert, v_frac * d, seed
            )
            ratio = pt.d_y_anchor**q / pt.d_x_anchor if pt.d_x_anchor > 0 else INF
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

    return DualStrictSlopes(
        plain=_finish("subdiff_strict_q_plain", tr["plain"], False, used),
        approx=_finish("subdiff_strict_q_approx", tr["approx"], False, used),
        modified=_finish("subdiff_strict_q_modified", tr["modified"], False, used),
        modified_approx=_finish(
            "subdiff_strict_q_modified_approx", tr["modified_approx"], False, used
        ),
    )


def limiting_coderivative_min_norm(
    problem: MappingProblem, q: float, schedule: Schedule
) -> SlopeEstimate:
    """Minimum ``|x*|`` over the limiting outer q-coderivative image of
    the dual unit sphere, via its sequential characterization: outer
    points marching to the anchor while the multiplier tracks the
    q-weighted duality mapping within a shrinking tolerance.

    Multipliers beyond ``MULTIPLIER_CAP`` are not explored (flagged);
    the estimate may overestimate in that regime.
    """
    if not 0.0 < q <= 1.0:
        raise DualSlopeError("q must lie in (0, 1]")
    rhos = schedule.rho_values()
    if problem.coderivative is None:
        return _inconclusive("limiting_coderivative_min_norm", rhos)
    pools = outer_pools(problem, schedule, True)
    dual = problem.norm_y.dual()
    trace = []
    capped = False
    used = 0
    for k, rho in enumerate(rhos):
        delta = rho
        best: ExtReal = INF
        for pt in pools[k]:
            d = pt.d_y_anchor
            scale = q * d ** (q - 1.0)
            diff = pt.y - problem.ybar
            for j in duality_map(diff, problem.norm_y).members():
                center = scale * j
                if dual.value(center) > MULTIPLIER_CAP:
                    capped = True
                    continue
                seed = mix_seed(schedule.seed, "dirs")
                for ys in _pert_multipliers(problem, center, delta, seed):
                    used += 1
                    v = _image_min_norm(problem, pt.x, pt.y, ys)
                    if v < best:
                        best = v
        trace.append((rho, best))
    est = _finish("limiting_coderivative_min_norm", trace, False, used)
    if capped:
        est = SlopeEstimate(
            est.value,
            est.trace,
            est.truncated,
            est.budget_used,
            est.kind,
            est.flags + ("multiplier-cap",),
        )
    return est


# --------------------------------------------------------------------------
# enlargement-based constants
# --------------------------------------------------------------------------


def _enlargement_min(
    problem: MappingProblem, x, y, v, q: float, eps: float, seed: int
) -> ExtReal:
    """min |x*| over D*F(x,y)(J^q_eps(v))."""
    enl = q_duality_enlargement(v, q, eps, 4, seed, problem.norm_y)
    if enl.is_empty():
        return INF
    best: ExtReal = INF
    for w in enl.members():
        val = _image_min_norm(problem, x, y, w)
        if val < best:
            best = val
    return best


def lm_constants(problem: MappingProblem, q: float, schedule: Schedule) -> tuple:
    """The two enlargement-based constants (alpha, beta).

    beta takes per-epsilon infima of ``q |x*| d(y,ybar)^{q-1}`` over
    outer points in the window ``|y-ybar| < min(eps, |x-xbar|^{1/2})``
    with multipliers from the normalized enlargement; alpha additionally
    ranges nearby targets ``y'`` within ``|x-xbar|^{1/q}``.  With the
    nested pools the per-epsilon infima are monotone and the supremum
    over the epsilon ladder is its final entry.
    """
    if not 0.0 < q <= 1.0:
        raise DualSlopeError("q must lie in (0, 1]")
    rhos = schedule.rho_values()
    if problem.coderivative is None:
        return (_inconclusive("lm_alpha", rhos), _inconclusive("lm_beta", rhos))
    pools = outer_pools(problem, schedule, True)
    edge_fracs = (0.0, 0.5, 0.99, 1.0 - 1e-9)
    tr_a, tr_b = [], []
    used = 0
    for k, eps in enumerate(rhos):
        best_a: ExtReal = INF
        best_b: ExtReal = INF
        for pt in pools[k]:
            if not (pt.d_x_anchor < eps and pt.d_y_anchor < min(eps, pt.d_x_anchor**0.5)):
                continue
            seed = mix_seed(schedule.seed, "dirs")
            diff = pt.y - problem.ybar
            used += 1
            inner = _enlargement_min(problem, pt.x, pt.y, diff, q, eps, seed)
            if not is_inf(inner):
                b_val = q * inner * pt.d_y_anchor ** (q - 1.0)
                if b_val < best_b:
                    best_b = b_val
            y_window = pt.d_x_anchor ** (1.0 / q)
            targets = [diff]
            dirs = (
                [np.array([1.0]), np.array([-1.0])]
                if problem.dim_y == 1
                else _dual_ball_directions(problem.dim_y, problem.norm_y, 4, seed)
            )
            for frac in edge_fracs[1:]:
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

    def _sup(kind: str, trace: list) -> SlopeEstimate:
        finite = [v for _, v in trace if not is_inf(v)]
        value = max(finite) if finite else INF
        flags = ("inconclusive",) if not finite else ()
        if any(is_inf(v) for _, v in trace):
            flags += ("empty-levels",)
        return SlopeEstimate(value, tuple(trace), False, used, kind, flags)

    return _sup("lm_alpha", tr_a), _sup("lm_beta", tr_b)
