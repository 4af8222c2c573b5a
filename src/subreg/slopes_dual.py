"""Subdifferential and coderivative slope estimation.

Everything here reads the problem's one description of D*F, a
coderivative matrix or a set-valued oracle: subdifferential rho-slopes
minimize ``|x*|`` over coderivative images of the duality mapping plus a
perturbation ball (exact intervals in one dimension, sampled dual
directions otherwise), the strict q-slopes take per-level infima over
the shared outer pools, and the limiting coderivative minimum norm
realizes the sequential outer limit along the shrinking shells.

Every constant walks the rows of the outer-point table
(:func:`~subreg.problems.outer_pools`), one per distinct outer point, in
table order and in chunks of rows; a point's copies would repeat its
values, so they only add to ``budget_used``.  The duality faces of a
chunk's directions are taken as rows (:func:`~subreg.geometry.duality_faces`),
and the multipliers of all its levels are laid out as one table, a block
of the chunk's arrays (:func:`_pert_rows`,
:func:`~subreg.geometry.enlargement_rows`).  Each point's coderivative
matrix is read once, and the images M^T y* of all its multipliers are
formed and normed as rows; a point without one has no image.  A
set-valued oracle is called once per distinct point and multiplier
(:func:`_image_norms`).  Each (point,
level[, direction set or target]) group is reduced to its least image
norm, keeping the first of ties as a scan in that order would
(:func:`_first_min`), and then each level across the points the same
way.  The pointwise slopes are one-point, one-rho reads of the same
table.  An empty infimum is ``INF``, the float ``inf``, in these arrays
and in the values read from them alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    INF,
    ProductPoint,
    _dual_ball_directions,
    duality_faces,
    enlargement_perturbations,
    enlargement_rows,
    is_inf,
    matvec_left,
    xi_q,
)
from .problems import MappingProblem, Schedule, mix_seed, outer_pools
from .slopes_primal import SlopeEstimate, _finish

# Duality-mapping multipliers above this are not explored; the limiting
# minimum-norm estimate may overestimate when the cap binds (flagged).
MULTIPLIER_CAP = 1e6
# Distinct outer points whose multiplier tables are built together.  On
# linear-A (2-D, 446 distinct points, default schedule) a chunk's arrays
# peak near 7 MiB (tracemalloc), below the primal layer's peak, so an
# all-checks run keeps its 62 MiB peak RSS; one table for all points
# peaks near 31 MiB and lifts the run to 72 MiB.
DUAL_CHUNK_POINTS = 64


class MissingOracleError(ValueError):
    """The operation needs a description of the coderivative."""


class DualSlopeError(ValueError):
    """Invalid input to a dual slope estimator."""


def _chunks(problem: MappingProblem, schedule: Schedule):
    """The rows of the outer-point table in order, in chunks of
    :class:`~subreg.problems.OuterPool` rows."""
    pool = outer_pools(problem, schedule, True)
    for i in range(0, pool.depth.size, DUAL_CHUNK_POINTS):
        yield pool.take(slice(i, i + DUAL_CHUNK_POINTS))


def _image_norms(
    problem: MappingProblem, x, y, owner: np.ndarray, rows: np.ndarray, where
) -> np.ndarray:
    """A table shaped like the mask ``where`` holding, at its true
    entries in C order, ``inf |x*|`` over x* in D*F(x,y)(row) at the
    point ``(x[owner], y[owner])`` for the successive rows and owners;
    ``INF`` elsewhere and where the problem has no description or the
    image is empty.  Each distinct owner's coderivative matrix M is read
    once; the rows of the owners that have one become M^T y*, each entry
    summed left to right (:func:`~subreg.geometry.matvec_left`), and are
    normed together.  A problem without matrices calls its oracle once
    per distinct point and row; one with neither describes nothing."""
    dual_x = problem.norm_x.dual()
    norms = np.full(len(owner), INF)
    if problem.coderivative_matrix is not None:
        # the distinct owners by a mask: a bare np.unique imports numpy.ma
        held = np.zeros(len(x), dtype=bool)
        held[owner] = True
        mats = np.zeros((len(x), problem.dim_x, problem.dim_y))  # each M^T
        for i in np.flatnonzero(held).tolist():
            m = problem.coderivative_matrix(x[i], y[i])
            if m is None:
                held[i] = False
            else:
                mats[i] = np.transpose(m)
        on = held[owner]
        if on.any():
            norms[on] = dual_x.value_rows(matvec_left(mats[owner[on]], rows[on]))
    elif problem.coderivative is not None and len(owner):
        # a row's bit patterns key it, so -0.0 and 0.0 stay apart
        keys = np.column_stack([owner, np.ascontiguousarray(rows).view(np.int64)])
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        values = np.empty(len(first))
        for k in np.argsort(first):  # in scan order
            j = first[k]
            res = problem.coderivative(x[owner[j]], y[owner[j]], rows[j])
            values[k] = INF if res is None else res.min_norm(dual_x)
        norms = values[inverse.reshape(-1)]
    table = np.full(np.shape(where), INF)
    table[where] = norms
    return table


def _first_min(table: np.ndarray) -> np.ndarray:
    """Along the last axis, the first entry equal to the least: what a
    scan keeping the first of ties returns, so -0.0 and 0.0 stay apart.
    ``INF`` along an empty axis."""
    if not table.shape[-1]:
        return np.full(table.shape[:-1], INF)
    flat = table.reshape(-1, table.shape[-1])
    first = np.argmax(flat == flat.min(axis=1, keepdims=True), axis=1)
    return flat[np.arange(len(flat)), first].reshape(table.shape[:-1])


def _across_points(parts: list, shape: tuple) -> list:
    """The per-point arrays of ``shape``, stacked chunk by chunk
    (``INF`` where a point does not reach a level), reduced over the
    points in pool order, so a tie keeps the first point; as rows of
    floats, ``INF`` throughout without points."""
    stack = np.concatenate(parts) if parts else np.empty((0,) + shape)
    return _first_min(np.moveaxis(stack, 0, -1)).tolist()


def _padded(faces: list, dim: int) -> tuple:
    """The member rows of the faces, each face padded with zero rows to
    the longest, as ``(members, real)``: the rows (faces * longest,
    dim) and the mask (faces, longest) of the true members."""
    width = max(map(len, faces), default=0)
    members = np.zeros((len(faces), width, dim))
    real = np.zeros((len(faces), width), dtype=bool)
    for i, face in enumerate(faces):
        if len(face):
            members[i, : len(face)] = face
            real[i, : len(face)] = True
    return members.reshape(-1, dim), real


def _pert_rows(problem: MappingProblem, centres: np.ndarray, perts: np.ndarray, seed: int) -> tuple:
    """Multiplier candidates in j + pert*B* for each centre row j and
    each radius pert of its row of ``perts``, as ``(cand, valid)``: the
    candidates shaped (centres, radii, slots, dim), slots in scan order,
    and which of them are in the set.  The slots are the exact interval
    ends ``j - pert, j, j + pert`` in one dimension, and ``j`` then
    ``j + pert*d`` over the directions d (``-j/|j|`` first, then
    dual-sphere directions) above; 0 closes a centre's list once
    ``|j| <= pert``, and a radius ``pert <= 0`` keeps ``j`` alone."""
    m, dim = centres.shape
    if dim == 1:
        size = np.abs(centres[:, 0])
        cand = np.empty(perts.shape + (4, 1))
        step = perts[:, :, None]
        cand[:, :, 0] = centres[:, None] - step
        cand[:, :, 1] = centres[:, None]
        cand[:, :, 2] = centres[:, None] + step
        centre = 1
    else:
        dual = problem.norm_y.dual()
        size = dual.value_rows(centres)
        unit = np.zeros_like(centres)
        np.divide(-centres, size[:, None], out=unit, where=size[:, None] > 0)
        ball = np.array(_dual_ball_directions(dim, dual, 8, seed))
        dirs = np.concatenate([unit[:, None, :], np.broadcast_to(ball, (m,) + ball.shape)], axis=1)
        cand = np.empty(perts.shape + (dirs.shape[1] + 2, dim))
        cand[:, :, 0] = centres[:, None]
        cand[:, :, 1:-1] = centres[:, None, None] + perts[:, :, None, None] * dirs[:, None]
        centre = 0
    cand[:, :, -1] = 0.0
    valid = np.ones(cand.shape[:3], dtype=bool)
    valid[:, :, -1] = size[:, None] <= perts
    if dim > 1:
        valid[:, :, 1] = (size > 0)[:, None]
    still = perts <= 0.0
    if still.any():
        valid[still] = False
        valid[still, centre] = True
    return cand, valid


def _subdiff_table(
    problem: MappingProblem,
    x: np.ndarray,
    y: np.ndarray,
    direction_sets: Sequence,
    perts: np.ndarray,
    live: np.ndarray,
    seed: int,
) -> np.ndarray:
    """Per point (a row of ``x`` and ``y``), per radius of its row of
    ``perts`` where ``live`` and per direction set of the point: ``inf |x*|`` over x* in
    D*F(x,y)(J(v) + pert * B*) and over the set's nonzero directions v,
    as a (points, radii, sets) array, ``np.inf`` off ``live``.  The value
    is 0 where pert reaches the least dual norm over the set's faces: 0
    then lies in the perturbed multiplier set, and D*F(x,y)(0) owns 0."""
    n_pts, n_rad = perts.shape
    n_sets = len(direction_sets[0])
    dim = problem.dim_y
    flat = np.array([v for sets in direction_sets for vs in sets for v in vs])
    nonzero = problem.norm_y.value_rows(flat) > 0.0
    found = iter(duality_faces(flat[nonzero], problem.norm_y))
    faces = iter([next(found) if ok else () for ok in nonzero.tolist()])
    # a set's members: the faces of its directions, in order
    js = [[j for _ in vs for j in next(faces)] for sets in direction_sets for vs in sets]
    centres, real = _padded(js, dim)
    width = real.shape[1]
    size = np.where(real, problem.norm_y.dual().value_rows(centres).reshape(real.shape), np.inf)
    reached = (perts[:, :, None] >= size.min(axis=1).reshape(n_pts, 1, n_sets)) & live[:, :, None]
    cand, valid = _pert_rows(problem, centres, np.repeat(perts, n_sets * width, axis=0), seed)
    # a set's members take part at the live radii short of its least norm
    short = (live[:, :, None] & ~reached).transpose(0, 2, 1).reshape(-1, 1, n_rad)
    valid &= (real[:, :, None] & short).reshape(-1, n_rad, 1)
    owner = np.nonzero(valid)[0] // (n_sets * width)
    table = _image_norms(problem, x, y, owner, cand[valid], valid)
    slots = valid.shape[2]
    table = table.reshape(n_pts, n_sets, width, n_rad, slots).transpose(0, 3, 1, 2, 4)
    out = _first_min(table.reshape(n_pts, n_rad, n_sets, width * slots))
    out[reached] = 0.0
    return out


def _near_directions(problem: MappingProblem, seed: int) -> list:
    """The unit directions a call moves its targets along: +1 and -1 in
    one dimension, else dual-sphere directions of the seed."""
    if problem.dim_y == 1:
        return [np.array([1.0]), np.array([-1.0])]
    return list(_dual_ball_directions(problem.dim_y, problem.norm_y, 4, seed))


def _approx_directions(diff: np.ndarray, v_radius: float, dirs: list) -> list:
    """``diff`` followed by the directions ``diff + v_radius * d`` near
    it, d over the call's ``dirs``, over which the approximate variant's
    inner liminf ranges; the centre is always included, so the
    approximate value never exceeds the plain one."""
    if v_radius <= 0.0:
        return [diff]
    return [diff] + [diff + v_radius * d for d in dirs]


def _at_point(problem: MappingProblem, at, sets: list, pert: float, seed: int) -> list:
    """The one-point, one-radius read of :func:`_subdiff_table`: a value
    per direction set."""
    one = np.ones((1, 1), bool)
    table = _subdiff_table(problem, at.x[None], at.y[None], [sets], np.array([[pert]]), one, seed)
    return table[0, 0].tolist()


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
    if not problem.has_coderivative:
        raise MissingOracleError(f"problem {problem.name!r} has no coderivative description")
    if not problem.graph_membership(at.x, at.y):
        raise DualSlopeError("evaluation point is not on the graph")
    d = problem.d_y(at.y, problem.ybar)
    if d <= 0.0:
        raise DualSlopeError("subdifferential slope undefined at y == ybar")
    seed = mix_seed(schedule.seed, "dirs")
    diff = at.y - problem.ybar
    if variant == "plain":
        (value,) = _at_point(problem, at, [[diff]], rho, seed)
        return SlopeEstimate(value, ((rho, value),), False, 1, "subdiff_rho_plain")
    radii = [(nr / 10.0) * d for nr in schedule.neighborhood_radii]
    dirs = _near_directions(problem, seed)
    sets = [_approx_directions(diff, r, dirs) for r in radii]
    trace = tuple(zip(radii, _at_point(problem, at, sets, rho, seed)))
    return SlopeEstimate(trace[-1][1], trace, False, len(trace), "subdiff_rho_approx")


def f_level_subdiff_rho_slope(
    ef, rho: float, at: ProductPoint, schedule: Optional[Schedule] = None
) -> float:
    """Subdifferential rho-slope of the induced error function,
    recovered as ``q d^{q-1}`` times the mapping-level slope at the
    rescaled perturbation radius ``xi_q(y) * rho``."""
    problem, q = ef.problem, ef.q
    schedule = schedule or Schedule()
    d = problem.d_y(at.y, problem.ybar)
    if d <= 0.0:
        raise DualSlopeError("undefined at y == ybar")
    xi = xi_q(at.y, problem.ybar, q, problem.norm_y)
    seed = mix_seed(schedule.seed, "dirs")
    (inner,) = _at_point(problem, at, [[at.y - problem.ybar]], xi * rho, seed)
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
    if not problem.has_coderivative:
        return DualStrictSlopes(*(_inconclusive(f"subdiff_strict_q_{t}", rhos) for t in keys))

    seed = mix_seed(schedule.seed, "dirs")
    v_frac = schedule.neighborhood_radii[-1] / 10.0
    dirs = _near_directions(problem, seed)
    parts = []
    used = 0
    for chunk in _chunks(problem, schedule):
        d = chunk.dya.tolist()
        diffs = chunk.y - problem.ybar
        sets = [[[v], _approx_directions(v, v_frac * dy, dirs)] for v, dy in zip(diffs, d)]
        xi = np.array([dy ** (1.0 - q) / q for dy in d])
        live = np.arange(len(rhos)) <= chunk.depth[:, None]
        perts = xi[:, None] * np.array(rhos)
        table = _subdiff_table(problem, chunk.x, chunk.y, sets, perts, live, seed)
        plain, approx = np.moveaxis(chunk.weight(q)[:, None, None] * table, 2, 0)
        ratio = chunk.ratio(q)[:, None]
        ratio[np.isnan(ratio)] = np.inf  # d(x, xbar) = 0
        # modified = max(value, ratio), which keeps the value on a tie
        modified = [np.where(ratio > v, ratio, v) for v in (plain, approx)]
        parts.append(np.stack([plain, approx, *modified], axis=1))
        used += int(chunk.copies @ (chunk.depth + 1))
    best = _across_points(parts, (len(keys), len(rhos)))
    return DualStrictSlopes(
        *(_finish(f"subdiff_strict_q_{t}", list(zip(rhos, b)), False, used) for t, b in zip(keys, best))
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
    if not problem.has_coderivative:
        return _inconclusive("limiting_coderivative_min_norm", rhos)
    dual = problem.norm_y.dual()
    seed = mix_seed(schedule.seed, "dirs")
    n_rad = len(rhos)
    parts = []
    capped = False
    used = 0
    for chunk in _chunks(problem, schedule):
        n_pts = chunk.depth.size
        faces = duality_faces(chunk.y - problem.ybar, problem.norm_y)
        members, real = _padded(faces, problem.dim_y)
        width = real.shape[1]
        scale = chunk.weight(q)
        centres = (scale[:, None] * members.reshape(n_pts, -1)).reshape(members.shape)
        kept = real & (dual.value_rows(centres).reshape(real.shape) <= MULTIPLIER_CAP)
        capped = capped or bool((real & ~kept).any())
        cand, valid = _pert_rows(problem, centres, np.tile(rhos, (len(centres), 1)), seed)
        live = np.arange(n_rad) <= chunk.depth[:, None]
        valid &= (kept[:, :, None] & live[:, None, :]).reshape(-1, n_rad, 1)
        used += int(chunk.copies @ valid.reshape(n_pts, -1).sum(axis=1))
        owner = np.nonzero(valid)[0] // width
        table = _image_norms(problem, chunk.x, chunk.y, owner, cand[valid], valid)
        slots = valid.shape[2]
        table = table.reshape(n_pts, width, n_rad, slots).transpose(0, 2, 1, 3)
        parts.append(_first_min(table.reshape(n_pts, 1, n_rad, width * slots)))
    (best,) = _across_points(parts, (1, n_rad))
    est = _finish("limiting_coderivative_min_norm", list(zip(rhos, best)), False, used)
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

    Each target's face is taken once per point, and its enlargement over
    every epsilon level is one block of
    :func:`~subreg.geometry.enlargement_rows`.
    """
    if not 0.0 < q <= 1.0:
        raise DualSlopeError("q must lie in (0, 1]")
    rhos = schedule.rho_values()
    if not problem.has_coderivative:
        return (_inconclusive("lm_alpha", rhos), _inconclusive("lm_beta", rhos))
    seed = mix_seed(schedule.seed, "dirs")
    dual, dim, n_rad, eps = problem.norm_y.dual(), problem.dim_y, len(rhos), np.array(rhos)
    dirs = _near_directions(problem, seed)
    n_tgt = 1 + 3 * len(dirs)
    perturbations = enlargement_perturbations(dim, dual, 4, seed)
    parts = []
    used = 0
    for chunk in _chunks(problem, schedule):
        n_pts, dxa = chunk.depth.size, chunk.dxa.tolist()
        # the window d(x, xbar) < eps, d(y, ybar) < min(eps, d(x, xbar)^{1/2})
        root = np.array([dx**0.5 for dx in dxa])[:, None]
        window = (chunk.dxa[:, None] < eps) & (chunk.dya[:, None] < np.minimum(eps, root))
        live = window & (np.arange(n_rad) <= chunk.depth[:, None])
        used += int(chunk.copies @ live.sum(axis=1))
        targets = []
        for diff, dx in zip(chunk.y - problem.ybar, dxa):
            y_window = dx ** (1.0 / q)
            targets.append(diff)
            for frac in (0.5, 0.99, 1.0 - 1e-9):
                for dvec in dirs:
                    targets.append(diff + frac * y_window * dvec)
        dys = problem.norm_y.value_rows(np.array(targets)).tolist()
        # a target of norm 0 gets no face (diff, beta's target, has
        # norm d(y, ybar) > 0); a point off every window gets none
        reach = np.repeat(live.any(axis=1), n_tgt).tolist()
        weights = np.array([dy ** (q - 1.0) if dy > 0.0 else 1.0 for dy in dys])
        faced = [dy > 0.0 and ok for dy, ok in zip(dys, reach)]
        found = iter(duality_faces(np.array(targets)[faced], problem.norm_y))
        faces = [next(found) if ok else () for ok in faced]
        members, real = _padded(faces, dim)
        # min |x*| over D*F(x,y)(J^q_eps(target)), J^q_eps(target) the
        # normalized enlargement of q |target|^{q-1} J(target)
        ystar = ((q * weights)[:, None] * members.reshape(len(faces), -1)).reshape(members.shape)
        cand, kept = enlargement_rows(ystar, eps, perturbations, dual)
        width = real.shape[1]
        in_window = real.reshape(n_pts, 1, -1) & live[:, :, None]
        kept &= in_window.transpose(1, 0, 2).reshape(n_rad, -1, 1)
        owner = np.nonzero(kept)[1] // (n_tgt * width)
        table = _image_norms(problem, chunk.x, chunk.y, owner, cand[kept], kept)
        inner = _first_min(table.reshape(n_rad, n_pts, n_tgt, width * len(perturbations)))
        val = q * inner * weights.reshape(n_pts, n_tgt)
        parts.append(np.stack([_first_min(val), val[:, :, 0]]).transpose(2, 0, 1))
    best_a, best_b = _across_points(parts, (2, n_rad))

    def _sup(kind: str, trace: list) -> SlopeEstimate:
        finite = [v for _, v in trace if not is_inf(v)]
        value = max(finite) if finite else INF
        flags = ("inconclusive",) if not finite else ()
        if any(is_inf(v) for _, v in trace):
            flags += ("empty-levels",)
        return SlopeEstimate(value, tuple(trace), False, used, kind, flags)

    return _sup("lm_alpha", list(zip(rhos, best_a))), _sup("lm_beta", list(zip(rhos, best_b)))
