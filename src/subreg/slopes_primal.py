"""Primal (metric-space) slope estimation.

Nonlocal (q,rho)-slopes are suprema of descent ratios over sampled
graph candidates, local rho-slopes realize the shrinking-neighborhood
limsup as the supremum at the smallest relative radius, and the strict
slopes take per-level infima over outer-point pools along the
decreasing rho ladder, reporting the final (tightest) level.

Every slope here, of the mapping and of a two-variable function alike,
is the supremum of ``[num]_+ / d_rho`` over candidate rows: a mapping's
slopes are those of the induced f = d(y, ybar)**q on its graph.  One
table, :class:`PointCandidates`, holds the candidates of many segments
(the points of an outer-pool chunk, the invariant suite's probes, or
the radii of one point's ladder), each row with its distances to its
segment's centre and a value: d(v, ybar) on a mapping's graph, f for a
two-variable function.  It builds the numerators from the centre and
row values and reduces every segment at many rho at once through one
segmented reducer, :func:`_segment_sup`.

All suprema are lower-biased (sampled subsets) and all infima are
upper-biased; comparisons downstream add slack in the direction that
sampling bias cannot explain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .extended import INF, ExtReal, is_inf
from .geometry import NormSpec, ProductPoint, _norm_rows, distinct_rows, euclidean
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


def _select(ok: np.ndarray, counts: np.ndarray) -> tuple:
    """The rows where ``ok`` holds, of segments of ``counts`` consecutive
    rows, and how many of each segment's rows they are."""
    rows = np.flatnonzero(ok)
    owner = np.repeat(np.arange(counts.size), counts)
    return rows, np.bincount(owner[rows], minlength=counts.size)


def _segment_sup(num, dx, dy, counts, rhos, metric: str, edge=None):
    """The one reduction behind every primal slope: per segment of
    ``counts`` consecutive rows and per rho, the supremum of ``[num]_+ /
    max(dx, rho dy)`` (``/ (dx + rho dy)`` when ``metric`` is ``"sum"``),
    and 0 for a segment without rows, as a ``(segments, rhos)`` array.

    :class:`PointCandidates` passes only the rows that may score, with
    their numerators.  With the per-row flags ``edge`` it returns ``(sup,
    hit)``, ``hit`` telling whether each supremum's first argmax is an
    edge row (the truncation flag).
    """
    out = np.zeros((counts.size, len(rhos)))
    hit = np.zeros(out.shape, dtype=bool)
    has = np.flatnonzero(counts)
    if has.size:
        n = counts[has]
        starts = np.cumsum(n) - n
        vals = np.asarray(rhos, dtype=float)[:, None] * dy
        (np.maximum if metric == "max" else np.add)(dx, vals, out=vals)
        np.divide(np.maximum(num, 0.0), vals, out=vals)
        top = np.maximum.reduceat(vals, starts, axis=1)
        out[has] = top.T
        if edge is not None:
            # edge rows are few: scan only the segments whose supremum
            # some edge row attains for the first argmax
            rows = np.flatnonzero(edge)
            seg = np.searchsorted(starts, rows, side="right") - 1
            ks, js = np.nonzero(vals[:, rows] == top[:, seg])
            for k, j in set(zip(ks.tolist(), seg[js].tolist())):
                first = starts[j] + int(np.argmax(vals[k, starts[j] : starts[j] + n[j]]))
                hit[has[j], k] = edge[first]
    return out if edge is None else (out, hit)


@dataclass(eq=False)
class PointCandidates:
    """The candidate table of one or more segments, segment after segment.

    A segment is a point, or one radius of a point's ladder.  Per segment:
    its ``counts`` rows, the ``centre_value`` its rows descend from, the
    truncation radius and the exclusion distance ``min_dist``.  Per row:
    the distances ``dx`` and ``dy`` to the segment's centre, ``dist =
    max(dx, dy)``, the ``row_value`` (d(v, ybar) on a mapping's graph, f
    for a two-variable function) and the local mask; local candidates are
    a subset of the nonlocal superset, so pointwise dominations hold
    sample-wise.  The table methods reduce every segment at every rho of
    a list in one :func:`_segment_sup` call, as segment x rho arrays; the
    ``*_value`` methods are their one-segment, one-rho reads.
    """

    counts: np.ndarray
    centre_value: np.ndarray
    trunc_radius: np.ndarray
    min_dist: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    row_value: np.ndarray
    dist: np.ndarray
    local_mask: np.ndarray

    @classmethod
    def around(
        cls, norms, centres, rows, counts, centre_value, min_dist, local_radius, trunc_radius
    ) -> "PointCandidates":
        """The table of the rows ``(ux, vy, value)``, ``counts[i]`` of them
        around ``centres = (cx, cy)[i]``, with distances by the row norms
        ``norms = (norm_x, norm_y)`` and the local mask ``dist <=
        local_radius`` up to the centre's rounding pad.  A per-segment
        argument may be one value for every segment."""
        (cx, cy), (ux, vy, value) = centres, rows
        dx = norms[0](ux - np.repeat(cx, counts, axis=0))
        dy = norms[1](vy - np.repeat(cy, counts, axis=0))
        dist = np.maximum(dx, dy)
        seg = lambda v: np.broadcast_to(np.asarray(v, dtype=float), counts.shape)
        reach = np.repeat(seg(local_radius) + radius_pads(cx, cy), counts)
        return cls(
            counts, seg(centre_value), seg(trunc_radius), seg(min_dist),
            dx, dy, value, dist, dist <= reach,
        )

    @property
    def size(self) -> int:
        return int(self.dx.shape[0])

    @cached_property
    def _scoring(self) -> tuple:
        # (rows, rows per segment) outside each segment's exclusion band,
        # and of those on its local shell: rows in the band never score
        ok = self.dist > np.repeat(self.min_dist, self.counts)
        return _select(ok, self.counts), _select(ok & self.local_mask, self.counts)

    def _sup(self, q: float, rhos, metric: str, local: bool, edge=None):
        # numerators centre**q - row**q, the centre's as Python float
        # powers and the rows' on the array; nonlocal rows clip at 0
        rows, counts = self._scoring[local]
        value = self.row_value[rows] if local else np.maximum(self.row_value[rows], 0.0)
        num = np.repeat([c**q for c in self.centre_value.tolist()], counts) - value**q
        edge = None if edge is None else edge[rows]
        return _segment_sup(num, self.dx[rows], self.dy[rows], counts, rhos, metric, edge)

    def nonlocal_table(self, q: float, rhos: Sequence[float], metric: str = "max") -> tuple:
        """The nonlocal (q, rho)-slopes and their truncation flags (the
        supremum attained near the truncation radius)."""
        edge = self.dist >= np.repeat(0.99 * self.trunc_radius, self.counts)
        return self._sup(q, rhos, metric, False, edge)

    def local_table(self, rhos: Sequence[float], metric: str = "max", q: float = 1.0) -> np.ndarray:
        """The local rho-slopes of the q-th powers of the values: at q = 1
        the mapping's local slope, at the order q on a mapping's graph the
        induced error function's (whose nonlocal slope is the mapping's)."""
        return self._sup(q, rhos, metric, True)

    def rho_profiles(self, q: float, rhos: Sequence[float]) -> dict:
        """The nonlocal, local and f-level local slope tables across a rho list."""
        return {
            "nonlocal": self.nonlocal_table(q, rhos)[0],
            "local": self.local_table(rhos),
            "f_local": self.local_table(rhos, q=q),
        }

    def nonlocal_value(self, q: float, rho: float, metric: str = "max") -> tuple:
        value, truncated = self.nonlocal_table(q, [rho], metric)
        return float(value[0, 0]), bool(truncated[0, 0])

    def local_value(self, rho: float, metric: str = "max", q: float = 1.0) -> float:
        return float(self.local_table([rho], metric, q)[0, 0])


def _with_anchor(counts: np.ndarray, *columns) -> tuple:
    """Each ``(rows, anchor_row)`` column with the anchor row inserted
    after every segment of ``counts`` rows, and the new counts."""
    ends = np.cumsum(counts)
    return [np.insert(rows, ends, a, axis=0) for rows, a in columns], counts + 1


def _graph_table(problem: MappingProblem, centres, ux, vy, counts, *segments) -> PointCandidates:
    # graph rows valued d(v, ybar), every distance by value_rows; the
    # segments' centre values, bands, local and truncation radii follow
    norms = (problem.norm_x.value_rows, problem.norm_y.value_rows)
    dv = problem.norm_y.value_rows(vy - problem.ybar)
    return PointCandidates.around(norms, centres, (ux, vy, dv), counts, *segments)


def _gather(problem: MappingProblem, points: Sequence, schedule: Schedule) -> PointCandidates:
    """The candidate table of several points: each point's multi-scale
    superset of :func:`gather_point_candidates`, from one batched sampler
    pass and one norm pass."""
    anchor = problem.anchor
    finite = _finite(problem)
    n = max(32, schedule.sample_budget // 4)
    calls, per_point = [], []
    d_at, trunc, r_loc, min_dist = [], [], [], []
    for at in points:
        d_anchor = problem.product_dist(at, anchor)
        tr = schedule.truncation_radius or 10.0 * max(1.0, d_anchor)
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
        counts = np.add.reduceat(per_call, np.cumsum(per_point) - per_point)
        (ux, vy), counts = _with_anchor(counts, (sx, anchor.x), (sy, anchor.y))
    return _graph_table(problem, (px, py), ux, vy, counts, d_at, min_dist, r_loc, trunc)


def gather_point_candidates(
    problem: MappingProblem, at: ProductPoint, schedule: Schedule
) -> PointCandidates:
    """Multi-scale candidate superset around ``at``: a truncation-radius
    sweep, a near-anchor scale, the tight local shell and the anchor
    itself.  This is the one-point table of the batched gather that
    :func:`sweep_table` runs over whole outer pools."""
    return _gather(problem, [at], schedule)


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
    cands = gather_point_candidates(problem, at, schedule)  # never empty: it holds the anchor
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
    visible.  A sampled graph draws every radius in one
    :func:`sample_graph_batch` pass and reduces the radii as segments; an
    explicit finite graph is scanned scalar by scalar."""
    if rho <= 0:
        raise SlopeError("rho must be positive")
    _require_on_graph(problem, at)
    d_at = problem.d_y(at.y, problem.ybar)
    scale = max(problem.product_dist(at, problem.anchor), 0.0)

    if _finite(problem):
        trace = []
        used = 0
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

    radii = [max(nr * scale, LOCAL_RADIUS_FLOOR) for nr in schedule.neighborhood_radii]
    n_loc = _local_budget(problem, schedule)
    seed = _point_seed(schedule, "ls", at)
    ux, vy, counts = sample_graph_batch(
        problem, [(at, r, n_loc, mix_seed(seed, j)) for j, r in enumerate(radii)]
    )
    # one segment per radius, each scored whole outside the noise band
    centres = (np.tile(at.x, (len(radii), 1)), np.tile(at.y, (len(radii), 1)))
    band = max(EXCLUSION_BAND, NOISE_FLOOR_REL * scale)
    cands = _graph_table(problem, centres, ux, vy, counts, d_at, band, np.inf, radii)
    trace = tuple(zip(radii, cands.local_table([rho], metric)[:, 0].tolist()))
    used = int(cands._scoring[True][1].sum())
    return SlopeEstimate(trace[-1][1], trace, False, used, "local_rho")


# --------------------------------------------------------------------------
# strict slopes (outer sweeps)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StrictSweepResult:
    """Per-level infima of the uniform, plain and modified strict
    q-slopes computed on shared outer pools, so the family orderings
    hold sample-wise, and the table they were read from."""

    uniform: SlopeEstimate
    plain: SlopeEstimate
    modified: SlopeEstimate
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


def sweep_table(
    problem: MappingProblem,
    q: float,
    schedule: Schedule,
    outer_restriction: bool = True,
) -> SweepTable:
    """Gather the distinct points of the outer pools chunk by chunk into
    candidate tables and reduce every rho level under both product
    metrics: the values of :meth:`PointCandidates.nonlocal_value` and
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
        chunk = slice(c0, c0 + step)
        cands = _gather(problem, points[chunk], schedule)  # outer points carry x and y like graph points
        sizes[chunk] = cands.counts
        # one column per level down to the chunk's deepest; points sorted
        # by depth keep a chunk's depths close, so few columns go unread
        levels = int(depths[chunk].max()) + 1
        block = (chunk, slice(0, levels))
        for metric in SWEEP_METRICS:
            nl[metric][block], trunc[metric][block] = cands.nonlocal_table(q, rhos[:levels], metric)
            loc[metric][block] = cands.local_table(rhos[:levels], metric)

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


def anchor_ratios(points: Sequence, q: float) -> np.ndarray:
    """``d(y, ybar)^q / d(x, xbar)`` per outer point in Python float powers, NaN at d = 0."""
    r = [p.d_y_anchor**q / p.d_x_anchor if p.d_x_anchor > 0 else np.nan for p in points]
    return np.array(r, dtype=float)


def strict_sweep(
    problem: MappingProblem,
    q: float,
    schedule: Schedule,
    table: Optional[SweepTable] = None,
    metric: str = "max",
    outer_restriction: bool = True,
) -> StrictSweepResult:
    """Shared-pool evaluation of the uniform strict q-slope and the plain
    and modified strict q-slopes.

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
    weight = np.array([q * p.d_y_anchor ** (q - 1.0) for p in table.points], dtype=float)
    ratio = anchor_ratios(table.points, q)
    has_ratio = ~np.isnan(ratio)

    tr_uniform, tr_plain, tr_modified = [], [], []
    used = 0
    truncated_any = False
    for k, rho in enumerate(schedule.rho_values()):
        s = table.starts[k]
        used += int((table.sizes[s:] * table.copies[s:]).sum())
        truncated_any = truncated_any or bool(table.truncated[metric][s:, k].any())
        plain = weight[s:] * table.local_values[metric][s:, k]
        modified = np.where(ratio[s:] > plain, ratio[s:], plain)
        tr_uniform.append((rho, _infimum(table.nonlocal_values[metric][s:, k])))
        tr_plain.append((rho, _infimum(plain)))
        tr_modified.append((rho, _infimum(modified[has_ratio[s:]])))

    return StrictSweepResult(
        uniform=_finish("uniform_strict_q", tr_uniform, truncated_any, used),
        plain=_finish("strict_q", tr_plain, False, used),
        modified=_finish("modified_strict_q", tr_modified, False, used),
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


def _f_table(
    func_or_ef, centres: Sequence, f_at, calls: Sequence[tuple], local_radius, trunc, anchor: bool
) -> PointCandidates:
    """The candidate table of a two-variable function around several
    centres, ``len(calls) // len(centres)`` consecutive calls each, plus
    the anchor row after each centre's rows when ``anchor`` is set (and
    ``f`` is finite there): rows valued ``f``, centres valued ``f_at``,
    distances by :func:`_norm_rows` and the plain exclusion band."""
    func = as_two_variable(func_or_ef)
    ux, vy, f, per_call = f_rows(func_or_ef, calls)
    counts = per_call.reshape(len(centres), -1).sum(axis=1)
    f_anchor = func.value(func.xbar, func.ybar) if anchor else INF
    if not is_inf(f_anchor):
        columns = (ux, func.xbar), (vy, func.ybar), (f, float(f_anchor))
        (ux, vy, f), counts = _with_anchor(counts, *columns)
    cx = np.array([c.x for c in centres], dtype=float)
    cy = np.array([c.y for c in centres], dtype=float)
    norms = (partial(_norm_rows, func.norm_x), partial(_norm_rows, func.norm_y))
    return PointCandidates.around(
        norms, (cx, cy), (ux, vy, f), counts, f_at, EXCLUSION_BAND, local_radius, trunc
    )


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
            f_at = float(fv)
            # plain product distance to the anchor
            scale = max(func.norm_x.value(at.x - func.xbar), func.norm_y.value(at.y - func.ybar))
            trunc = schedule.truncation_radius or 10.0 * max(1.0, scale)
            # f's values enter the tables at q = 1, bitwise as they are
            if "nonlocal" in point_variants:
                budget = max(64, schedule.sample_budget // 4)
                call = (at, trunc, budget, _point_seed(schedule, "fnl", at))
                cands = _f_table(func_or_ef, [at], f_at, [call], np.inf, trunc, True)
                val = cands.nonlocal_value(1.0, rho)[0]
                out["nonlocal"] = SlopeEstimate(val, ((rho, val),), False, cands.size, "f_nonlocal")
            if "local" in point_variants:
                radii = [max(nr * scale, LOCAL_RADIUS_FLOOR) for nr in schedule.neighborhood_radii]
                budget = max(64, schedule.sample_budget // 16)
                key = (at.x.tobytes(), at.y.tobytes())
                calls = [
                    (at, r, budget, mix_seed(schedule.seed, "floc", j, *key))
                    for j, r in enumerate(radii)
                ]
                # one segment per radius
                cands = _f_table(func_or_ef, [at] * len(calls), f_at, calls, np.inf, radii, False)
                trace = tuple(zip(radii, cands.local_table([rho])[:, 0].tolist()))
                out["local"] = SlopeEstimate(trace[-1][1], trace, False, cands.size, "f_local")

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
        trunc = 10.0 * np.maximum(1.0, scale)
        calls = []
        for p, t, r in zip(centres, trunc.tolist(), r_loc.tolist()):
            calls.append((p, t, far, _point_seed(schedule, "fnlc", p)))
            calls.append((p, r, near, _point_seed(schedule, "flocc", p)))
        # one shared superset with a local mask, so the nonlocal supremum
        # dominates the local one sample-wise
        cands = _f_table(func_or_ef, centres, f[sel], calls, r_loc, trunc, True)
        chunk = slice(c0, c0 + sel.size)
        uniform[chunk] = cands.nonlocal_table(1.0, rhos)[0]
        plain[chunk] = cands.local_table(rhos)
        sizes[chunk] = cands.counts

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
    profiles = gather_point_candidates(problem, at, schedule).rho_profiles(q, rhos)
    return {family: table[0].tolist() for family, table in profiles.items()}
