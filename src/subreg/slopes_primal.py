"""Primal (metric-space) slope estimation.

Nonlocal (q,rho)-slopes are suprema of descent ratios over sampled
graph candidates, local rho-slopes realize the shrinking-neighborhood
limsup as the supremum at the smallest relative radius, and the strict
slopes take per-level infima over outer-point pools along the
decreasing rho ladder, reporting the final (tightest) level.

All suprema are lower-biased (sampled subsets) and all infima are
upper-biased; comparisons downstream add slack in the direction that
sampling bias cannot explain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .extended import INF, ExtReal, is_inf
from .geometry import NormSpec, ProductPoint, euclidean
from .problems import (
    ErrorFunction,
    MappingProblem,
    Schedule,
    distinct_pool,
    graph_sample,
    halton_points,
    halving_offsets,
    mix_seed,
    outer_pools,
    radius_pad,
    radius_pads,
    sample_graph_arrays,
    sample_graph_batch,
)

# Candidates closer than this (plain product metric, so the mask does
# not depend on rho) are treated as the center itself: the defining
# suprema exclude the center.
EXCLUSION_BAND = 1e-12
# Relative local-slope radii are floored here so candidate distances
# stay safely above the exclusion band.
LOCAL_RADIUS_FLOOR = 2.5e-12
# Sampled candidates closer than this fraction of the point's scale
# carry only cancellation noise in the descent numerators (the
# numerator rounds at the ulp of the center value) and are skipped.
NOISE_FLOOR_REL = 4e-9
# Window points this close to the anchor have their entire descent
# region inside the exclusion band; their slopes are numerically
# unresolvable and they are skipped rather than scored as zero.
UNRESOLVABLE_FLOOR = 1e-11


class SlopeError(ValueError):
    """Invalid input to a slope estimator."""


@dataclass(frozen=True)
class SlopeEstimate:
    """A slope value with its convergence trace along the schedule."""

    value: ExtReal
    trace: tuple
    truncated: bool
    budget_used: int
    kind: str
    flags: tuple = ()

    @property
    def inconclusive(self) -> bool:
        return "inconclusive" in self.flags


def _finite(problem: MappingProblem) -> bool:
    return problem.graph_points is not None


def _local_radius(schedule: Schedule, scale: float) -> float:
    return max(schedule.neighborhood_radii[-1] * scale, LOCAL_RADIUS_FLOOR)


def _local_budget(problem: MappingProblem, schedule: Schedule) -> int:
    if problem.param_dim <= 1:
        return min(96, schedule.sample_budget)
    # room for the full direction rings at every geometric radius
    return min(2560, 4 * schedule.sample_budget)


def _point_seed(schedule: Schedule, tag: str, at: ProductPoint) -> int:
    return mix_seed(schedule.seed, tag, at.x.tobytes(), at.y.tobytes())


@dataclass(eq=False)
class PointCandidates:
    """Graph candidates around one evaluation point with the distance
    arrays every ratio reduction needs; local candidates are a subset of
    the nonlocal superset so pointwise dominations hold sample-wise."""

    d_at: float
    dx: np.ndarray
    dy: np.ndarray
    dv: np.ndarray
    dist: np.ndarray
    local_mask: np.ndarray
    trunc_radius: float
    min_dist: float = EXCLUSION_BAND

    @property
    def size(self) -> int:
        return int(self.dx.shape[0])

    def _reduce(self, num: np.ndarray, rho: float, metric: str, mask=None):
        ok = self.dist > self.min_dist
        if mask is not None:
            ok = ok & mask
        den = (
            np.maximum(self.dx, rho * self.dy)
            if metric == "max"
            else self.dx + rho * self.dy
        )
        num = np.maximum(num, 0.0)
        if not np.any(ok):
            return 0.0, -1
        vals = np.where(ok, num / np.where(ok, den, 1.0), -1.0)
        idx = int(np.argmax(vals))
        return max(float(vals[idx]), 0.0), idx

    def nonlocal_value(self, q: float, rho: float, metric: str = "max"):
        num = self.d_at**q - self.dv**q
        value, idx = self._reduce(num, rho, metric)
        truncated = idx >= 0 and self.dist[idx] >= 0.99 * self.trunc_radius
        return value, truncated

    def local_value(self, rho: float, metric: str = "max") -> float:
        num = self.d_at - self.dv
        value, _ = self._reduce(num, rho, metric, mask=self.local_mask)
        return value

    def f_local_value(self, q: float, rho: float, metric: str = "max") -> float:
        # induced error function f = d(v, ybar)**q on the graph; its
        # nonlocal slope is nonlocal_value's
        num = self.d_at**q - self.dv**q
        value, _ = self._reduce(num, rho, metric, mask=self.local_mask)
        return value

    def rho_profiles(self, q: float, rhos: Sequence[float]) -> dict:
        """The nonlocal, local and f-level local slopes across a rho list."""
        out = {"nonlocal": [], "local": [], "f_local": []}
        for rho in rhos:
            out["nonlocal"].append(self.nonlocal_value(q, rho)[0])
            out["local"].append(self.local_value(rho))
            out["f_local"].append(self.f_local_value(q, rho))
        return out


@dataclass(eq=False)
class _Gathered:
    """Candidate rows of several points, point after point: per-point
    scalars as lists, per-row distances as arrays."""

    counts: np.ndarray
    d_at: list
    trunc: list
    min_dist: list
    dx: np.ndarray
    dy: np.ndarray
    dv: np.ndarray
    dist: np.ndarray
    local_mask: np.ndarray


def _gather(
    problem: MappingProblem,
    points: Sequence,
    schedule: Schedule,
    trunc_radius: Optional[float] = None,
) -> _Gathered:
    """The candidate supersets of :func:`gather_point_candidates` for
    several points, from one batched sampler pass and one norm pass."""
    anchor = problem.anchor
    finite = _finite(problem)
    n = max(32, schedule.sample_budget // 4)
    calls, per_point = [], []
    d_at, trunc, r_loc, min_dist = [], [], [], []
    for at in points:
        d_anchor = problem.product_dist(at, anchor)
        tr = trunc_radius or schedule.truncation_radius or 10.0 * max(1.0, d_anchor)
        scale = max(d_anchor, 0.0)
        d_at.append(problem.d_y(at.y, problem.ybar))
        trunc.append(tr)
        r_loc.append(_local_radius(schedule, scale))
        min_dist.append(
            EXCLUSION_BAND if finite else max(EXCLUSION_BAND, NOISE_FLOOR_REL * scale)
        )
        if finite:
            continue
        calls.append((at, tr, n // 2, _point_seed(schedule, "far", at)))
        if d_anchor > 0:
            mid = min(tr, 2.0 * d_anchor)
            calls.append((at, mid, n // 4, _point_seed(schedule, "mid", at)))
        calls.append(
            (at, r_loc[-1], _local_budget(problem, schedule), _point_seed(schedule, "loc", at))
        )
        per_point.append(3 if d_anchor > 0 else 2)
    px = np.array([at.x for at in points], dtype=float)
    py = np.array([at.y for at in points], dtype=float)

    if finite:
        gx = np.array([p.x for p in problem.graph_points], dtype=float)
        gy = np.array([p.y for p in problem.graph_points], dtype=float)
        counts = np.full(len(points), gx.shape[0])
        ux, vy = np.tile(gx, (len(points), 1)), np.tile(gy, (len(points), 1))
    else:
        # far, mid and local rows, then the anchor itself, point by point
        sx, sy, per_call = sample_graph_batch(problem, calls)
        first_call = np.cumsum(per_point) - per_point
        counts = np.add.reduceat(per_call, first_call) + 1
        is_anchor = np.zeros(int(counts.sum()), dtype=bool)
        is_anchor[np.cumsum(counts) - 1] = True
        ux = np.empty((is_anchor.size, problem.dim_x))
        vy = np.empty((is_anchor.size, problem.dim_y))
        ux[~is_anchor], vy[~is_anchor] = sx, sy
        ux[is_anchor], vy[is_anchor] = anchor.x, anchor.y
    dx = problem.norm_x.value_rows(ux - np.repeat(px, counts, axis=0))
    dy = problem.norm_y.value_rows(vy - np.repeat(py, counts, axis=0))
    dv = problem.norm_y.value_rows(vy - problem.ybar)
    dist = np.maximum(dx, dy)
    return _Gathered(
        counts=counts,
        d_at=d_at,
        trunc=trunc,
        min_dist=min_dist,
        dx=dx,
        dy=dy,
        dv=dv,
        dist=dist,
        local_mask=dist <= np.repeat(np.array(r_loc) + radius_pads(px, py), counts),
    )


def gather_point_candidates(
    problem: MappingProblem,
    at: ProductPoint,
    schedule: Schedule,
    trunc_radius: Optional[float] = None,
) -> PointCandidates:
    """Multi-scale candidate superset around ``at``: a truncation-radius
    sweep, a near-anchor scale, the tight local shell and the anchor
    itself.  This is the one-point case of the batched gather that
    :func:`sweep_table` runs over whole outer pools."""
    g = _gather(problem, [at], schedule, trunc_radius)
    return PointCandidates(
        d_at=g.d_at[0],
        dx=g.dx,
        dy=g.dy,
        dv=g.dv,
        dist=g.dist,
        local_mask=g.local_mask,
        trunc_radius=g.trunc[0],
        min_dist=g.min_dist[0],
    )


def _require_on_graph(problem: MappingProblem, at: ProductPoint):
    if not problem.graph_membership(at.x, at.y):
        raise SlopeError("evaluation point is not on the graph")


def _exhaustive_nonlocal(problem, q, rho, at, metric) -> tuple:
    """Scalar scan over an explicit finite graph (bitwise-reproducible)."""
    d_at = problem.d_y(at.y, problem.ybar)
    a_q = d_at**q
    best = 0.0
    count = 0
    for p in problem.graph_points:
        dx = problem.d_x(p.x, at.x)
        dy = problem.d_y(p.y, at.y)
        if max(dx, dy) <= EXCLUSION_BAND:
            continue
        den = max(dx, rho * dy) if metric == "max" else dx + rho * dy
        count += 1
        num = a_q - problem.d_y(p.y, problem.ybar) ** q
        if num < 0.0:
            num = 0.0
        r = num / den
        if r > best:
            best = r
    if count == 0:
        raise SlopeError("empty candidate sample")
    return best, count


def nonlocal_q_rho_slope(
    problem: MappingProblem,
    q: float,
    rho: float,
    at: ProductPoint,
    schedule: Schedule,
    metric: str = "max",
) -> SlopeEstimate:
    """Supremum of ``[(d(y,ybar))^q - (d(v,ybar))^q]_+ / d_rho`` over
    sampled graph candidates within the truncation radius.

    At points with ``y == ybar`` every numerator is nonpositive and the
    value is 0.  The estimate is lower-biased; the truncated flag marks
    a supremum attained near the truncation boundary.
    """
    if rho <= 0:
        raise SlopeError("rho must be positive")
    if not 0.0 < q <= 1.0:
        raise SlopeError("q must lie in (0, 1]")
    _require_on_graph(problem, at)
    if problem.d_y(at.y, problem.ybar) <= 0.0:
        return SlopeEstimate(0.0, ((rho, 0.0),), False, 0, "nonlocal_q_rho")
    if _finite(problem):
        value, used = _exhaustive_nonlocal(problem, q, rho, at, metric)
        return SlopeEstimate(value, ((rho, value),), False, used, "nonlocal_q_rho")
    cands = gather_point_candidates(problem, at, schedule)
    if cands.size == 0:
        raise SlopeError("empty candidate sample")
    value, truncated = cands.nonlocal_value(q, rho, metric)
    return SlopeEstimate(
        value, ((rho, value),), truncated, cands.size, "nonlocal_q_rho"
    )


def local_rho_slope(
    problem: MappingProblem,
    rho: float,
    at: ProductPoint,
    schedule: Schedule,
    metric: str = "max",
) -> SlopeEstimate:
    """Shrinking-neighborhood limsup of ``[d(y,ybar) - d(v,ybar)]_+ /
    d_rho`` realized as the supremum at the smallest relative radius;
    the trace over the whole radius ladder makes non-stabilization
    visible."""
    if rho <= 0:
        raise SlopeError("rho must be positive")
    _require_on_graph(problem, at)
    d_at = problem.d_y(at.y, problem.ybar)
    scale = max(problem.product_dist(at, problem.anchor), 0.0)
    trace = []
    used = 0

    if _finite(problem):
        pairs = []
        for p in problem.graph_points:
            dx = problem.d_x(p.x, at.x)
            dy = problem.d_y(p.y, at.y)
            num = d_at - problem.d_y(p.y, problem.ybar)
            pairs.append((max(dx, dy), dx, dy, num))
        pad = radius_pad(at)
        for nr in schedule.neighborhood_radii:
            r = max(nr * max(scale, 1.0), LOCAL_RADIUS_FLOOR)
            best = 0.0
            for dist, dx, dy, num in pairs:
                if dist > r + pad or dist <= EXCLUSION_BAND:
                    continue
                den = max(dx, rho * dy) if metric == "max" else dx + rho * dy
                used += 1
                val = (num if num > 0.0 else 0.0) / den
                if val > best:
                    best = val
            trace.append((r, best))
        return SlopeEstimate(trace[-1][1], tuple(trace), False, used, "local_rho")

    n_loc = _local_budget(problem, schedule)
    for j, nr in enumerate(schedule.neighborhood_radii):
        r = max(nr * scale, LOCAL_RADIUS_FLOOR)
        ux, vy = sample_graph_arrays(
            problem, at, r, n_loc, mix_seed(_point_seed(schedule, "ls", at), j)
        )
        if ux.shape[0] == 0:
            trace.append((r, 0.0))
            continue
        dx = problem.norm_x.value_rows(ux - at.x)
        dy = problem.norm_y.value_rows(vy - at.y)
        dv = problem.norm_y.value_rows(vy - problem.ybar)
        den = np.maximum(dx, rho * dy) if metric == "max" else dx + rho * dy
        ok = np.maximum(dx, dy) > max(EXCLUSION_BAND, NOISE_FLOOR_REL * scale)
        used += int(np.sum(ok))
        num = np.maximum(d_at - dv, 0.0)
        vals = np.where(ok, num / np.where(ok, den, 1.0), -1.0)
        trace.append((r, max(float(np.max(vals)), 0.0)))
    return SlopeEstimate(trace[-1][1], tuple(trace), False, used, "local_rho")


# --------------------------------------------------------------------------
# strict slopes (outer sweeps)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StrictSweepResult:
    """Per-level infima of every primal strict-slope family computed on
    shared outer pools, so the family orderings hold sample-wise, and
    the table they were read from."""

    uniform: SlopeEstimate
    plain: SlopeEstimate
    modified: SlopeEstimate
    anchor_ratio: SlopeEstimate
    table: "SweepTable" = field(default=None, compare=False, repr=False)


def _finish(kind: str, trace: list, truncated: bool, used: int) -> SlopeEstimate:
    flags = ()
    if any(is_inf(v) for _, v in trace):
        flags += ("empty-levels",)
    if all(is_inf(v) for _, v in trace):
        flags += ("inconclusive",)
    return SlopeEstimate(trace[-1][1], tuple(trace), truncated, used, kind, flags)


# Candidate rows one batched gather of the strict sweep holds at most
# (a point's whole superset when it alone exceeds this).  Each chunk
# costs a fixed number of numpy calls; at this size a chunk's transient
# arrays stay near 1 MB, and a two-parameter problem still gathers a few
# points per chunk.
SWEEP_CHUNK_ROWS = 8192
SWEEP_METRICS = ("max", "sum")


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Per-point, per-level scalars of the strict sweep on one set of
    outer pools, for both product metrics.

    ``points`` holds the distinct points of the coarsest pool ordered by
    depth (the finest level holding each point), and ``copies`` counts
    each one's copies in the pool; the pools are nested, so level
    ``k``'s pool is the copies of ``points[starts[k]:]``.  Entry ``[i,
    k]`` of ``nonlocal_values``, ``truncated`` and ``local_values`` is
    the nonlocal (q, rho_k)-slope, its truncation flag and the local
    rho_k-slope at ``points[i]``, and is read only for ``i >=
    starts[k]``.  ``sizes`` counts each point's candidates.
    """

    points: tuple
    starts: tuple
    sizes: np.ndarray
    copies: np.ndarray
    nonlocal_values: dict
    truncated: dict
    local_values: dict


def _first_max_is_edge(vals, top, starts, counts, edge) -> np.ndarray:
    """Per row of ``vals`` and per segment: is the first occurrence of the
    segment's maximum ``top`` (the ``np.argmax`` of the segment) an
    ``edge`` row?  Edge rows are few, so only the segments whose maximum
    some edge row attains are scanned."""
    out = np.zeros(top.shape, dtype=bool)
    rows = np.flatnonzero(edge)
    if rows.size:
        seg = np.searchsorted(starts, rows, side="right") - 1
        ks, js = np.nonzero(vals[:, rows] == top[:, seg])
        for k, j in set(zip(ks.tolist(), seg[js].tolist())):
            first = starts[j] + int(np.argmax(vals[k, starts[j] : starts[j] + counts[j]]))
            out[k, j] = edge[first]
    return out


def sweep_table(
    problem: MappingProblem,
    q: float,
    schedule: Schedule,
    outer_restriction: bool = True,
) -> SweepTable:
    """Gather the outer pools chunk by chunk and reduce every rho level
    of every distinct point under both product metrics: the values of
    :meth:`PointCandidates.nonlocal_value` and
    :meth:`PointCandidates.local_value`, bitwise, with each point's
    candidates gathered once and dropped with its chunk.  A point's
    copies would gather the same rows, so they are only counted."""
    pools = outer_pools(problem, schedule, outer_restriction)
    rhos = schedule.rho_values()
    pool = sorted(distinct_pool(pools), key=lambda r: r[1])  # by depth, stably
    points = tuple(r[0] for r in pool)
    depths = np.array([r[1] for r in pool], dtype=np.int64)
    shape = (len(points), len(rhos))
    nl = {m: np.full(shape, np.nan) for m in SWEEP_METRICS}
    trunc = {m: np.zeros(shape, dtype=bool) for m in SWEEP_METRICS}
    loc = {m: np.full(shape, np.nan) for m in SWEEP_METRICS}
    sizes = np.zeros(len(points), dtype=np.int64)

    if _finite(problem):
        rows_per_point = len(problem.graph_points)
    else:
        n = max(32, schedule.sample_budget // 4)
        rows_per_point = n // 2 + n // 4 + _local_budget(problem, schedule) + 1
    step = max(1, SWEEP_CHUNK_ROWS // rows_per_point)
    for c0 in range(0, len(points), step):
        chunk = points[c0 : c0 + step]
        g = _gather(problem, chunk, schedule)  # outer points carry x and y like graph points
        sizes[c0 : c0 + len(chunk)] = g.counts
        # one row per level down to the chunk's deepest; points sorted by
        # depth keep a chunk's depths close, so few rows go unread
        levels = int(depths[c0 : c0 + len(chunk)].max()) + 1
        rho = np.array(rhos[:levels])[:, None]
        owner = np.repeat(np.arange(len(chunk)), g.counts)
        dv_q = g.dv**q
        # rows in a point's exclusion band (and, for the local slope, off
        # its local shell) never score: the reductions skip them, and a
        # point left without rows scores 0
        ok = g.dist > np.repeat(g.min_dist, g.counts)
        edge = g.dist >= np.repeat([0.99 * t for t in g.trunc], g.counts)
        for local in (False, True):
            rows = np.flatnonzero(ok & g.local_mask if local else ok)
            who = owner[rows]
            counts = np.bincount(who, minlength=len(chunk))
            has = c0 + np.flatnonzero(counts)
            counts = counts[counts > 0]
            starts = np.cumsum(counts) - counts
            if local:
                num = np.maximum(np.array(g.d_at)[who] - g.dv[rows], 0.0)
            else:
                num = np.maximum(np.array([d**q for d in g.d_at])[who] - dv_q[rows], 0.0)
            dx, dy = g.dx[rows], g.dy[rows]
            for metric in SWEEP_METRICS:
                out = (loc if local else nl)[metric]
                out[c0 : c0 + len(chunk), :levels] = 0.0
                if not rows.size:
                    continue
                vals = rho * dy
                (np.maximum if metric == "max" else np.add)(dx, vals, out=vals)
                np.divide(num, vals, out=vals)
                top = np.maximum.reduceat(vals, starts, axis=1)
                out[has, :levels] = top.T
                if local:
                    continue
                hit = _first_max_is_edge(vals, top, starts, counts, edge[rows])
                trunc[metric][has, :levels] = hit.T

    outside = depths[:, None] < np.arange(len(rhos))  # levels past a point's depth
    for metric in SWEEP_METRICS:
        nl[metric][outside] = loc[metric][outside] = np.nan
        trunc[metric][outside] = False
    return SweepTable(
        points=points,
        starts=tuple(int(np.searchsorted(depths, k)) for k in range(len(rhos))),
        sizes=sizes,
        copies=np.array([r[2] for r in pool], dtype=np.int64),
        nonlocal_values=nl,
        truncated=trunc,
        local_values=loc,
    )


def _infimum(values: np.ndarray) -> ExtReal:
    """A level's infimum as a scan with ``<`` takes it: NaN never wins and
    an empty level is ``INF``."""
    values = values[~np.isnan(values)]
    return float(values.min()) if values.size else INF


def strict_sweep(
    problem: MappingProblem,
    q: float,
    schedule: Schedule,
    table: Optional[SweepTable] = None,
    metric: str = "max",
    outer_restriction: bool = True,
) -> StrictSweepResult:
    """Shared-pool evaluation of the uniform strict q-slope, the plain
    and modified strict q-slopes and the anchor-distance ratio liminf.

    Reads the per-point, per-level values from ``table``, a
    :func:`sweep_table` of the same problem, order, schedule and
    restriction, built here when not given and returned with the
    result: pass it to the sweep under the other product metric to
    gather once.  ``budget_used`` counts every copy of a table row.
    Empty pools contribute ``INF`` levels (infimum of the empty set).
    """
    if not 0.0 < q <= 1.0:
        raise SlopeError("q must lie in (0, 1]")
    if table is None:
        table = sweep_table(problem, q, schedule, outer_restriction)
    pts = table.points
    weight = np.array([q * p.d_y_anchor ** (q - 1.0) for p in pts], dtype=float)
    has_ratio = np.array([p.d_x_anchor > 0 for p in pts], dtype=bool)
    ratio = np.array(
        [p.d_y_anchor**q / p.d_x_anchor if p.d_x_anchor > 0 else np.inf for p in pts],
        dtype=float,
    )

    tr_uniform, tr_plain, tr_modified, tr_ratio = [], [], [], []
    used = 0
    truncated_any = False
    for k, rho in enumerate(schedule.rho_values()):
        s = table.starts[k]
        used += int((table.sizes[s:] * table.copies[s:]).sum())
        truncated_any = truncated_any or bool(table.truncated[metric][s:, k].any())
        plain = weight[s:] * table.local_values[metric][s:, k]
        with_ratio = has_ratio[s:]
        r = ratio[s:]
        modified = np.where(r > plain, r, plain)
        tr_uniform.append((rho, _infimum(table.nonlocal_values[metric][s:, k])))
        tr_plain.append((rho, _infimum(plain)))
        tr_modified.append((rho, _infimum(modified[with_ratio])))
        tr_ratio.append((rho, _infimum(r[with_ratio])))

    return StrictSweepResult(
        uniform=_finish("uniform_strict_q", tr_uniform, truncated_any, used),
        plain=_finish("strict_q", tr_plain, False, used),
        modified=_finish("modified_strict_q", tr_modified, False, used),
        anchor_ratio=_finish("anchor_ratio_liminf", tr_ratio, False, used),
        table=table,
    )


def uniform_strict_q_slope(
    problem: MappingProblem,
    q: float,
    schedule: Schedule,
    metric: str = "max",
    outer_restriction: bool = True,
) -> SlopeEstimate:
    """Limit proxy of per-level infima of the nonlocal (q,rho)-slope
    over outer points in the shrinking shells; the unrestricted variant
    (``outer_restriction=False``) keeps points inside F^{-1}(ybar) and
    yields a stronger sufficient condition."""
    return strict_sweep(
        problem, q, schedule, metric=metric, outer_restriction=outer_restriction
    ).uniform


def strict_q_slopes(
    problem: MappingProblem, q: float, schedule: Schedule
) -> tuple:
    """(plain, modified) strict q-slopes on one shared sample set per
    level, so modified >= plain holds sample-wise."""
    sweep = strict_sweep(problem, q, schedule)
    return sweep.plain, sweep.modified


# --------------------------------------------------------------------------
# generic two-variable functions
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TwoVariableFunction:
    """An extended-real function of (x, y) with an anchor where it
    vanishes and a sampler producing finite-value points."""

    f: Callable
    xbar: np.ndarray
    ybar: np.ndarray
    norm_x: NormSpec
    norm_y: NormSpec
    sampler: Callable
    solution_distance: Optional[Callable] = None
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "xbar", np.asarray(self.xbar, dtype=float).reshape(-1))
        object.__setattr__(self, "ybar", np.asarray(self.ybar, dtype=float).reshape(-1))

    def value(self, x, y) -> ExtReal:
        return self.f(np.asarray(x, dtype=float).reshape(-1), np.asarray(y, dtype=float).reshape(-1))


def as_two_variable(obj) -> TwoVariableFunction:
    if isinstance(obj, TwoVariableFunction):
        return obj
    if isinstance(obj, ErrorFunction):
        pr = obj.problem
        return TwoVariableFunction(
            f=obj.value,
            xbar=pr.xbar,
            ybar=pr.ybar,
            norm_x=pr.norm_x,
            norm_y=pr.norm_y,
            sampler=partial(graph_sample, pr),
            solution_distance=pr.solution_distance,
            name=f"induced[{pr.name}]",
        )
    raise SlopeError(f"cannot interpret {type(obj).__name__} as a two-variable function")


def single_variable_embedding(
    f: Callable[[float], float],
    xbar: float = 0.0,
    solution_distance: Optional[Callable] = None,
    name: str = "embedded",
) -> TwoVariableFunction:
    """Embed a one-variable function: finite on the slice ``y == ybar``
    and infinite elsewhere."""
    xbar_arr = np.array([float(xbar)])
    ybar_arr = np.array([0.0])

    def value(x, y):
        if abs(float(y[0])) > 0.0:
            return INF
        return float(f(float(x[0])))

    def sampler(center, radius, budget, seed):
        if budget <= 0:
            return []
        c = float(center.x[0])
        params = [c]
        for off in halving_offsets(radius, max(1e-9 * radius, 1e-11), 64):
            params.extend([c + off, c - off])
        fill = max(0, budget - len(params))
        if fill:
            u = halton_points(1, fill, mix_seed(seed, "embed"))[:, 0]
            params.extend(c - radius + 2.0 * radius * u)
        out = []
        for t in params:
            if abs(t - c) <= radius * (1.0 + 1e-12):
                out.append(ProductPoint([t], [0.0]))
            if len(out) >= budget:
                break
        return out

    return TwoVariableFunction(
        f=value,
        xbar=xbar_arr,
        ybar=ybar_arr,
        norm_x=euclidean(1),
        norm_y=euclidean(1),
        sampler=sampler,
        solution_distance=solution_distance,
        name=name,
    )


# --------------------------------------------------------------------------
# the f-level engine: rows of a two-variable function, reduced on arrays
# --------------------------------------------------------------------------


def _norm_rows(norm: NormSpec, m: np.ndarray) -> np.ndarray:
    """Row norms equal bitwise to :meth:`NormSpec.value` on each row.

    ``value_rows`` is that in one dimension; in more, its ``einsum`` sums
    in another order, while a batched row-by-row product takes the same
    dot product as ``value``.  Other norm kinds are evaluated row by row.
    """
    if norm.kind != "euclidean":
        return np.array([norm.value(v) for v in m], dtype=float)
    if norm.dim == 1:
        return norm.value_rows(m)
    m = np.ascontiguousarray(m, dtype=float)
    return np.sqrt((m[:, None, :] @ m[:, :, None])[:, 0, 0])


def f_rows(func_or_ef, calls: Sequence[tuple]) -> tuple:
    """Sampled rows of a two-variable function for many ``(center,
    radius, budget, seed)`` calls: ``(ux, vy, f, counts)``, the rows in
    call order and how many each call kept.

    An :class:`ErrorFunction` samples its graph in one
    :func:`sample_graph_batch` pass and takes ``f = d(v, ybar)**q`` as
    Python float powers, with no membership test: graph rows lie on the
    graph by construction.  A generic function stacks its sampler's
    points and keeps the rows where ``f`` is finite.
    """
    if isinstance(func_or_ef, ErrorFunction):
        pr, q = func_or_ef.problem, func_or_ef.q
        ux, vy, counts = sample_graph_batch(pr, calls)
        dv = _norm_rows(pr.norm_y, vy - pr.ybar)
        return ux, vy, np.array([d**q for d in dv.tolist()], dtype=float), counts
    func = as_two_variable(func_or_ef)
    rows = [[(p, func.value(p.x, p.y)) for p in func.sampler(*call)] for call in calls]
    rows = [[(p, float(fv)) for p, fv in r if not is_inf(fv)] for r in rows]
    kept = [pf for r in rows for pf in r]
    ux = np.array([p.x for p, _ in kept], dtype=float).reshape(-1, func.xbar.size)
    vy = np.array([p.y for p, _ in kept], dtype=float).reshape(-1, func.ybar.size)
    counts = np.array([len(r) for r in rows], dtype=np.int64)
    return ux, vy, np.array([fv for _, fv in kept], dtype=float), counts


def distinct_rows(m: np.ndarray) -> tuple:
    """``np.unique`` of the rows of ``m`` by their bytes, as seeds key
    points (so -0.0 and 0.0 differ): the first index, the inverse and the
    count of each distinct row."""
    m = np.ascontiguousarray(m, dtype=float)
    keys = m.view(np.dtype((np.void, m.dtype.itemsize * m.shape[1]))).ravel()
    return np.unique(keys, return_index=True, return_inverse=True, return_counts=True)[1:]


def anchor_f_rows(func_or_ef, radii: Sequence[float], budget: int, seeds: Sequence[int]) -> tuple:
    """The rows with ``f > 0`` of one anchor-centred sample per radius,
    from one :func:`f_rows` pass, and their distances to the anchor:
    ``(ux, vy, f, dxa, dya)``."""
    func = as_two_variable(func_or_ef)
    anchor = ProductPoint(func.xbar, func.ybar)
    ux, vy, f, _ = f_rows(func_or_ef, [(anchor, r, budget, s) for r, s in zip(radii, seeds)])
    keep = f > 0.0
    ux, vy, f = ux[keep], vy[keep], f[keep]
    dxa = _norm_rows(func.norm_x, ux - func.xbar)
    return ux, vy, f, dxa, _norm_rows(func.norm_y, vy - func.ybar)


def _f_candidates(func_or_ef, centres: Sequence, calls: Sequence[tuple], anchor: bool) -> tuple:
    """Candidate rows of several centres, ``len(calls) // len(centres)``
    consecutive calls each, plus the anchor row after each centre's rows
    when ``anchor`` is set (and ``f`` is finite there):
    ``(f, dx, dy, counts)`` with distances to each row's centre."""
    func = as_two_variable(func_or_ef)
    ux, vy, f, per_call = f_rows(func_or_ef, calls)
    counts = per_call.reshape(len(centres), -1).sum(axis=1)
    f_anchor = func.value(func.xbar, func.ybar) if anchor else INF
    if not is_inf(f_anchor):
        ends = np.cumsum(counts)
        ux = np.insert(ux, ends, func.xbar, axis=0)
        vy = np.insert(vy, ends, func.ybar, axis=0)
        f = np.insert(f, ends, float(f_anchor))
        counts = counts + 1
    cx = np.repeat(np.array([c.x for c in centres], dtype=float), counts, axis=0)
    cy = np.repeat(np.array([c.y for c in centres], dtype=float), counts, axis=0)
    return f, _norm_rows(func.norm_x, ux - cx), _norm_rows(func.norm_y, vy - cy), counts


def _f_slopes(f_at, f, dx, dy, counts, rhos, plus: bool, mask=None) -> np.ndarray:
    """Per segment of ``counts`` rows and per rho: the supremum of
    ``[f_at - f]_+ / max(dx, rho dy)`` over the rows outside the exclusion
    band (and inside ``mask``), with ``f`` read as ``[f]_+`` when
    ``plus``; 0 for a segment without such rows.  ``(segments, rhos)``."""
    out = np.zeros((counts.size, len(rhos)))
    ok = np.maximum(dx, dy) > EXCLUSION_BAND
    if mask is not None:
        ok &= mask
    rows = np.flatnonzero(ok)
    if not rows.size:
        return out
    who = np.repeat(np.arange(counts.size), counts)[rows]
    fv = np.maximum(f[rows], 0.0) if plus else f[rows]
    num = np.maximum(np.asarray(f_at)[who] - fv, 0.0)
    vals = np.asarray(rhos, dtype=float)[:, None] * dy[rows]
    np.maximum(dx[rows], vals, out=vals)
    np.divide(num, vals, out=vals)
    n = np.bincount(who, minlength=counts.size)
    has = np.flatnonzero(n)
    out[has] = np.maximum.reduceat(vals, np.cumsum(n[has]) - n[has], axis=1).T
    return out


def f_level_slopes(
    func_or_ef,
    rho: float,
    at: ProductPoint,
    schedule: Schedule,
    variants: Sequence[str] = ("nonlocal", "local"),
) -> dict:
    """Slopes of a generic two-variable function.

    Point variants (``nonlocal``, ``local``) use ``rho`` and ``at``;
    anchor variants (``uniform-strict``, ``strict-outer``,
    ``modified-strict-outer``) sweep the schedule windows
    ``0 < f < rho_k`` and ignore ``rho``/``at``.
    """
    func = as_two_variable(func_or_ef)
    out = {}
    point_variants = {"nonlocal", "local"} & set(variants)
    if point_variants:
        fv = func.value(at.x, at.y)
        if is_inf(fv):
            for v in point_variants:
                out[v] = SlopeEstimate(INF, ((rho, INF),), False, 0, f"f_{v}")
        else:
            f_at = np.array([float(fv)])
            # plain product distance to the anchor
            scale = max(func.norm_x.value(at.x - func.xbar), func.norm_y.value(at.y - func.ybar))
            trunc = schedule.truncation_radius or 10.0 * max(1.0, scale)
            if "nonlocal" in point_variants:
                budget = max(64, schedule.sample_budget // 4)
                call = (at, trunc, budget, _point_seed(schedule, "fnl", at))
                f, dx, dy, counts = _f_candidates(func_or_ef, [at], [call], True)
                val = float(_f_slopes(f_at, f, dx, dy, counts, [rho], True)[0, 0])
                out["nonlocal"] = SlopeEstimate(
                    val, ((rho, val),), False, int(counts[0]), "f_nonlocal"
                )
            if "local" in point_variants:
                radii = [max(nr * scale, LOCAL_RADIUS_FLOOR) for nr in schedule.neighborhood_radii]
                budget = max(64, schedule.sample_budget // 16)
                key = (at.x.tobytes(), at.y.tobytes())
                calls = [
                    (at, r, budget, mix_seed(schedule.seed, "floc", j, *key))
                    for j, r in enumerate(radii)
                ]
                f, dx, dy, counts = _f_candidates(func_or_ef, [at] * len(calls), calls, False)
                vals = _f_slopes(np.repeat(f_at, counts.size), f, dx, dy, counts, [rho], False)
                trace = tuple(zip(radii, vals[:, 0].tolist()))
                out["local"] = SlopeEstimate(
                    trace[-1][1], trace, False, int(counts.sum()), "f_local"
                )

    strict_keys = {
        "uniform-strict": "uniform",
        "strict-outer": "plain",
        "modified-strict-outer": "modified",
    }
    anchor_variants = [v for v in strict_keys if v in variants]
    if anchor_variants:
        strict = f_level_strict(func_or_ef, schedule)
        out.update((v, strict[strict_keys[v]]) for v in anchor_variants)
    return out


def f_level_strict(func_or_ef, schedule: Schedule) -> dict:
    """Uniform / plain / modified strict outer slopes of a two-variable
    function over the windows ``d(x,xbar) < rho_k``, ``0 < f < rho_k``,
    with one shared sample pool per level.

    On an :class:`ErrorFunction` every row is a graph row and ``f`` is
    ``d(v, ybar)**q`` with no membership test (see :func:`f_rows`).  Each
    distinct window point (by its bytes) gathers its candidates once and
    is reduced at every level; ``budget_used`` still counts a point once
    per copy in each level's window.
    """
    rhos = schedule.rho_values()
    seeds = [mix_seed(schedule.seed, "fstrict", k) for k in range(len(rhos))]
    ux, vy, f, dxa, dya = anchor_f_rows(
        func_or_ef, rhos, schedule.outer_samples_per_level(), seeds
    )
    rho = np.array(rhos)
    # the coarsest window holds every finer one
    in_any = (np.maximum(dxa, dya) > UNRESOLVABLE_FLOOR) & (f < rho[0]) & (dxa < rho[0])
    first, _, mult = distinct_rows(np.hstack([ux, vy])[in_any])
    pts = np.flatnonzero(in_any)[first]
    window = (f[pts, None] < rho) & (dxa[pts, None] < rho)

    uniform = np.empty((pts.size, rho.size))
    plain = np.empty((pts.size, rho.size))
    sizes = np.empty(pts.size, dtype=np.int64)
    far = max(64, schedule.sample_budget // 8)
    near = max(64, schedule.sample_budget // 16)
    step = max(1, SWEEP_CHUNK_ROWS // (far + near + 1))
    for c0 in range(0, pts.size, step):
        sel = pts[c0 : c0 + step]
        centres = [ProductPoint(ux[i], vy[i]) for i in sel]
        scale = np.maximum(dxa[sel], dya[sel])
        r_loc = np.maximum(schedule.neighborhood_radii[-1] * scale, LOCAL_RADIUS_FLOOR)
        calls = []
        for p, s, r in zip(centres, scale.tolist(), r_loc.tolist()):
            calls.append((p, 10.0 * max(1.0, s), far, _point_seed(schedule, "fnlc", p)))
            calls.append((p, r, near, _point_seed(schedule, "flocc", p)))
        # one shared superset with a local mask, so the nonlocal supremum
        # dominates the local one sample-wise
        fc, dx, dy, counts = _f_candidates(func_or_ef, centres, calls, True)
        pads = r_loc + radius_pads(ux[sel], vy[sel])
        local = np.maximum(dx, dy) <= np.repeat(pads, counts)
        chunk = slice(c0, c0 + sel.size)
        uniform[chunk] = _f_slopes(f[sel], fc, dx, dy, counts, rhos, True)
        plain[chunk] = _f_slopes(f[sel], fc, dx, dy, counts, rhos, False, local)
        sizes[chunk] = counts

    with np.errstate(divide="ignore"):
        ratio = (f[pts] / dxa[pts])[:, None]
    modified = np.where(ratio > plain, ratio, plain)
    # a point on x = xbar scores INF, which never wins a level: as NaN
    modified[dxa[pts] <= 0.0] = np.nan
    used = int((window * (mult * sizes)[:, None]).sum())
    out = {}
    for key, kind, vals in (
        ("uniform", "f_uniform_strict", uniform),
        ("plain", "f_strict_outer", plain),
        ("modified", "f_modified_strict_outer", modified),
    ):
        vals = np.where(window, vals, np.nan)
        trace = [(r, _infimum(vals[:, k])) for k, r in enumerate(rhos)]
        out[key] = _finish(kind, trace, False, used)
    return out


def rho_slope_profiles(
    problem: MappingProblem,
    at: ProductPoint,
    q: float,
    rhos: Sequence[float],
    schedule: Schedule,
) -> dict:
    """Slope values across a rho list on one fixed candidate set per
    family; used to check monotonicity along the decreasing-rho ladder."""
    _require_on_graph(problem, at)
    return gather_point_candidates(problem, at, schedule).rho_profiles(q, rhos)
