"""Subdifferential and coderivative slope estimation.

Everything here drives the problem's analytic coderivative oracle:
subdifferential rho-slopes minimize ``|x*|`` over coderivative images of
the duality mapping plus a perturbation ball (exact intervals in one
dimension, sampled dual directions otherwise), the strict q-slopes take
per-level infima over the shared outer pools, and the limiting
coderivative minimum norm realizes the sequential outer limit along the
shrinking shells.

Every constant walks each distinct outer point once
(:func:`~subreg.problems.distinct_pool`), in pool order, and covers all
the levels holding a point before moving on; a point's copies in the
pools would repeat its values, so they only add to ``budget_used``.  At
each point, the image norm of each distinct multiplier is computed once
(:func:`_image_norms`) and shared by that point's levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .extended import INF, ExtReal, is_inf
from .geometry import (
    ProductPoint,
    _dual_ball_directions,
    duality_map,
    q_duality_enlargement,
    xi_q,
)
from .problems import (
    MappingProblem,
    Schedule,
    distinct_pool,
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


def _image_norms(problem: MappingProblem, at) -> Callable:
    """``multipliers -> inf |x*|`` over x* in D*F(x,y)(multipliers) at the
    point ``at``, calling the oracle once per distinct y*, which the
    levels of the point and its plain and approximate values share.  The
    scan keeps the first of tied values, and an empty or all-``INF`` scan
    returns ``INF``."""
    dual_x = problem.norm_x.dual()
    memo = {}

    def image_norms(multipliers) -> ExtReal:
        best: ExtReal = INF
        for ys in multipliers:
            ys = np.asarray(ys, dtype=float).reshape(-1)
            key = ys.tobytes()
            if key not in memo:
                res = problem.coderivative(at.x, at.y, ys)
                memo[key] = INF if res is None else res.min_norm(dual_x)
            if memo[key] < best:
                best = memo[key]
        return best

    return image_norms


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


def _approx_directions(
    problem: MappingProblem, diff: np.ndarray, v_radius: float, seed: int
) -> list:
    """``diff`` followed by the directions near it over which the
    approximate variant's inner liminf ranges; the centre is always
    included, so the approximate value never exceeds the plain one."""
    if v_radius <= 0.0:
        return [diff]
    if problem.dim_y == 1:
        return [diff, diff + np.array([v_radius]), diff - np.array([v_radius])]
    dirs = _dual_ball_directions(problem.dim_y, problem.norm_y, 4, seed)
    return [diff] + [diff + v_radius * d for d in dirs]


def _subdiff_value(
    problem: MappingProblem,
    image_norms: Callable,
    directions: list,
    pert: float,
    seed: int,
) -> ExtReal:
    """inf |x*| over x* in D*F(x,y)(J(v) + pert * B*) and over the nonzero
    directions v: ``[y - ybar]`` for the plain value."""
    dual = problem.norm_y.dual()
    js = [
        j
        for v in directions
        if problem.norm_y.value(v) > 0.0
        for j in duality_map(v, problem.norm_y).members()
    ]
    if pert >= min(dual.value(j) for j in js):
        # 0 lies in the perturbed multiplier set and D*F(x,y)(0) owns 0
        return 0.0
    return image_norms(ys for j in js for ys in _pert_multipliers(problem, j, pert, seed))


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
    diff = at.y - problem.ybar
    image_norms = _image_norms(problem, at)
    if variant == "plain":
        value = _subdiff_value(problem, image_norms, [diff], rho, seed)
        return SlopeEstimate(value, ((rho, value),), False, 1, "subdiff_rho_plain")
    trace = []
    for nr in schedule.neighborhood_radii:
        v_radius = (nr / 10.0) * d
        near = _approx_directions(problem, diff, v_radius, seed)
        trace.append((v_radius, _subdiff_value(problem, image_norms, near, rho, seed)))
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
        _image_norms(problem, at),
        [at.y - problem.ybar],
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
    keys = ("plain", "approx", "modified", "modified_approx")
    if problem.coderivative is None:
        return DualStrictSlopes(*(_inconclusive(f"subdiff_strict_q_{t}", rhos) for t in keys))

    seed = mix_seed(schedule.seed, "dirs")
    v_frac = schedule.neighborhood_radii[-1] / 10.0
    best = {key: [INF] * len(rhos) for key in keys}
    used = 0
    # in pool order, so a tie keeps the first point
    for pt, depth, copies in distinct_pool(outer_pools(problem, schedule, True)):
        d = pt.d_y_anchor
        weight = q * d ** (q - 1.0)
        ratio = d**q / pt.d_x_anchor if pt.d_x_anchor > 0 else INF
        diff = pt.y - problem.ybar
        near = _approx_directions(problem, diff, v_frac * d, seed)
        image_norms = _image_norms(problem, pt)
        for k in range(depth + 1):
            used += copies
            pert = (d ** (1.0 - q) / q) * rhos[k]
            plain_val = _subdiff_value(problem, image_norms, [diff], pert, seed)
            approx_val = _subdiff_value(problem, image_norms, near, pert, seed)
            vals = {
                "plain": weight * plain_val if not is_inf(plain_val) else INF,
                "approx": weight * approx_val if not is_inf(approx_val) else INF,
            }
            vals["modified"] = max(vals["plain"], ratio)
            vals["modified_approx"] = max(vals["approx"], ratio)
            for key, v in vals.items():
                if v < best[key][k]:
                    best[key][k] = v

    return DualStrictSlopes(
        *(_finish(f"subdiff_strict_q_{t}", list(zip(rhos, best[t])), False, used) for t in keys)
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
    dual = problem.norm_y.dual()
    seed = mix_seed(schedule.seed, "dirs")
    best = [INF] * len(rhos)
    capped = False
    used = 0
    # in pool order, so a tie keeps the first point
    for pt, depth, copies in distinct_pool(outer_pools(problem, schedule, True)):
        scale = q * pt.d_y_anchor ** (q - 1.0)
        js = duality_map(pt.y - problem.ybar, problem.norm_y).members()
        centers = [c for c in (scale * j for j in js) if dual.value(c) <= MULTIPLIER_CAP]
        capped = capped or len(centers) < len(js)
        image_norms = _image_norms(problem, pt)
        for k in range(depth + 1):
            ystars = [ys for c in centers for ys in _pert_multipliers(problem, c, rhos[k], seed)]
            used += copies * len(ystars)
            v = image_norms(ystars)
            if v < best[k]:
                best[k] = v
    trace = list(zip(rhos, best))
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
    seed = mix_seed(schedule.seed, "dirs")
    dirs = (
        [np.array([1.0]), np.array([-1.0])]
        if problem.dim_y == 1
        else _dual_ball_directions(problem.dim_y, problem.norm_y, 4, seed)
    )
    best_a = [INF] * len(rhos)
    best_b = [INF] * len(rhos)
    used = 0
    # in pool order, so a tie keeps the first point
    for pt, depth, copies in distinct_pool(outer_pools(problem, schedule, True)):
        diff = pt.y - problem.ybar
        y_window = pt.d_x_anchor ** (1.0 / q)
        targets = [diff]
        for frac in (0.5, 0.99, 1.0 - 1e-9):
            for dvec in dirs:
                targets.append(diff + frac * y_window * dvec)
        # diff comes first, and its norm is d(y, ybar) > 0: beta's target
        targets = [(t, dy) for t in targets if (dy := problem.norm_y.value(t)) > 0.0]
        image_norms = _image_norms(problem, pt)
        for k in range(depth + 1):
            eps = rhos[k]
            if not (pt.d_x_anchor < eps and pt.d_y_anchor < min(eps, pt.d_x_anchor**0.5)):
                continue
            used += copies
            for i, (target, dy) in enumerate(targets):
                # min |x*| over D*F(x,y)(J^q_eps(target))
                enl = q_duality_enlargement(target, q, eps, 4, seed, problem.norm_y)
                inner = image_norms(() if enl.is_empty() else enl.members())
                if is_inf(inner):
                    continue
                val = q * inner * dy ** (q - 1.0)
                if i == 0 and val < best_b[k]:
                    best_b[k] = val
                if val < best_a[k]:
                    best_a[k] = val

    def _sup(kind: str, trace: list) -> SlopeEstimate:
        finite = [v for _, v in trace if not is_inf(v)]
        value = max(finite) if finite else INF
        flags = ("inconclusive",) if not finite else ()
        if any(is_inf(v) for _, v in trace):
            flags += ("empty-levels",)
        return SlopeEstimate(value, tuple(trace), False, used, kind, flags)

    return _sup("lm_alpha", list(zip(rhos, best_a))), _sup("lm_beta", list(zip(rhos, best_b)))
