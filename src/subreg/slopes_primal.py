"""Primal (metric-space) slope estimation.

Nonlocal (q,rho)-slopes are suprema of descent ratios over sampled
graph candidates, local rho-slopes realize the shrinking-neighborhood
limsup as the supremum at the smallest relative radius, and the strict
slopes take per-level infima over outer-point pools along the
decreasing rho ladder, reporting the final (tightest) level.

Every slope here, of the mapping and of a two-variable function alike,
is the supremum of ``[num]_+ / d_rho`` over candidate rows: a mapping's
slopes are those of the induced f = d(y, ybar)**q on its graph, and a
mapping draws its rows through its order-1 error function,
``ErrorFunction(problem, 1.0)``, whose rows are the graph rows valued
d(v, ybar).  One builder, :func:`_f_table`, makes every candidate table,
:class:`PointCandidates`, of many segments (the points of an outer-pool
chunk, the invariant suite's probes, or the radii of one point's
ladder), each row with its distances to its segment's centre and its
value.  It builds the numerators from the centre and row values and
reduces every segment at many rho at once through one segmented
reducer, :func:`_segment_sup`.  One strict sweep, :func:`_sweep`, walks
a mapping's outer pool and a function's windows alike, and one reader,
:func:`_read_sweep`, turns it into the uniform, plain and modified
strict slopes.

All suprema are lower-biased (sampled subsets) and all infima are
upper-biased; comparisons downstream add slack in the direction that
sampling bias cannot explain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .geometry import INF, NormSpec, ProductPoint, euclidean, is_inf, is_order
from .problems import (
    MEMBERSHIP_TOL,
    ErrorFunction,
    MappingProblem,
    OuterPool,
    Schedule,
    distinct_window_rows,
    halton_points,
    halving_ladder,
    mix_seed,
    outer_pools,
    radius_pad,
    radius_pads,
)

if TYPE_CHECKING:
    from .moduli import RunContext

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

    value: float
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
        around ``centres = (cx, cy)[i]``, with distances in the norms
        ``norms = (norm_x, norm_y)`` and the local mask ``dist <=
        local_radius`` up to the centre's rounding pad.  A per-segment
        argument may be one value for every segment."""
        (norm_x, norm_y), (cx, cy), (ux, vy, value) = norms, centres, rows
        dx = norm_x.value_rows(ux - np.repeat(cx, counts, axis=0))
        dy = norm_y.value_rows(vy - np.repeat(cy, counts, axis=0))
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


def _gather(problem: MappingProblem, points: Sequence, schedule: Schedule) -> PointCandidates:
    """The candidate table of several points: each point's multi-scale
    superset of :func:`gather_point_candidates`, drawn through the
    order-1 error function in one ``rows`` pass, so its rows are graph
    rows valued d(v, ybar), and scored outside each point's noise band.
    An explicit finite graph gives each point its whole list of graph
    points, in order, and no anchor row."""
    finite = _finite(problem)
    n = max(32, schedule.sample_budget // 4)
    calls, d_at, trunc, r_loc, band = [], [], [], [], []
    for at in points:
        d_anchor = problem.product_dist(at, problem.anchor)
        tr = schedule.truncation_radius or 10.0 * max(1.0, d_anchor)
        scale = max(d_anchor, 0.0)
        d_at.append(problem.d_y(at.y, problem.ybar))
        trunc.append(tr)
        r_loc.append(_local_radius(schedule, scale))
        band.append(EXCLUSION_BAND if finite else max(EXCLUSION_BAND, NOISE_FLOOR_REL * scale))
        if finite:  # an INF radius and the list's length keep it whole
            calls.append([(at, INF, len(problem.graph_points), 0)])
            continue
        # far, mid and local rows; the anchor row follows them
        mine = [(at, tr, n // 2, _point_seed(schedule, "far", at))]
        if d_anchor > 0:
            mine.append((at, min(tr, 2.0 * d_anchor), n // 4, _point_seed(schedule, "mid", at)))
        loc = (at, r_loc[-1], _local_budget(problem, schedule), _point_seed(schedule, "loc", at))
        calls.append(mine + [loc])
    func = ErrorFunction(problem, 1.0)
    return _f_table(func, points, d_at, calls, r_loc, trunc, not finite, band)


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
    if not is_order(q):
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
    visible.  A sampled graph draws every radius in one ``rows`` pass of
    the order-1 error function and reduces the radii as segments; an
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
    calls = [[(at, r, n_loc, mix_seed(seed, j))] for j, r in enumerate(radii)]
    # one segment per radius, each scored whole outside the noise band
    band = max(EXCLUSION_BAND, NOISE_FLOOR_REL * scale)
    func = ErrorFunction(problem, 1.0)
    cands = _f_table(func, [at] * len(radii), d_at, calls, np.inf, radii, False, band)
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
    hold sample-wise."""

    uniform: SlopeEstimate
    plain: SlopeEstimate
    modified: SlopeEstimate


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
    outer pools, for each product metric it was built for.

    ``rows`` is the outer pool it was built on, in depth order, so level
    ``k`` is ``rows[starts[k]:]``.  Entry ``[i, k]`` of
    ``nonlocal_values``, ``truncated`` and ``local_values`` is the
    nonlocal (q, rho_k)-slope, its truncation flag and the local
    rho_k-slope at row ``i``, and is read only for ``i >= starts[k]``.
    ``sizes`` counts each row's candidates.
    """

    rows: OuterPool
    starts: tuple
    sizes: np.ndarray
    nonlocal_values: dict
    truncated: dict
    local_values: dict


def _sweep(rows: OuterPool, rhos, q: float, metrics, step: int, gather) -> SweepTable:
    """Gather the rows of the outer pool ``rows`` (in depth order),
    ``step`` at a time, into candidate tables, ``gather(points, chunk)``
    building the table of the points of the slice ``chunk``, and reduce
    every rho level under each product metric of ``metrics``: the values
    of :meth:`PointCandidates.nonlocal_value` (at the order ``q``) and
    :meth:`PointCandidates.local_value`, bitwise, with each row's
    candidates gathered once and dropped with its chunk."""
    depths = rows.depth
    shape = (depths.size, len(rhos))
    nl = {m: np.full(shape, np.nan) for m in metrics}
    trunc = {m: np.zeros(shape, dtype=bool) for m in metrics}
    loc = {m: np.full(shape, np.nan) for m in metrics}
    sizes = np.zeros(depths.size, dtype=np.int64)
    for c0 in range(0, depths.size, step):
        chunk = slice(c0, c0 + step)
        cands = gather([ProductPoint(x, y) for x, y in zip(rows.x[chunk], rows.y[chunk])], chunk)
        sizes[chunk] = cands.counts
        # one column per level down to the chunk's deepest; rows sorted
        # by depth keep a chunk's depths close, so few columns go unread
        levels = int(depths[chunk].max()) + 1
        block = (chunk, slice(0, levels))
        for metric in metrics:
            nl[metric][block], trunc[metric][block] = cands.nonlocal_table(q, rhos[:levels], metric)
            loc[metric][block] = cands.local_table(rhos[:levels], metric)

    outside = depths[:, None] < np.arange(len(rhos))  # levels past a row's depth
    for metric in metrics:
        nl[metric][outside] = loc[metric][outside] = np.nan
        trunc[metric][outside] = False
    starts = tuple(int(np.searchsorted(depths, k)) for k in range(len(rhos)))
    return SweepTable(rows, starts, sizes, nl, trunc, loc)


def sweep_table(
    problem: MappingProblem, q: float, schedule: Schedule, rows: OuterPool
) -> SweepTable:
    """The strict sweep of the outer pool ``rows`` of ``problem`` and
    ``schedule`` under both product metrics, each chunk's points gathered
    by :func:`_gather`.  A row's copies would gather the same candidates,
    so they are only counted."""
    if _finite(problem):
        rows_per_point = len(problem.graph_points)
    else:
        n = max(32, schedule.sample_budget // 4)
        rows_per_point = n // 2 + n // 4 + _local_budget(problem, schedule) + 1
    step = max(1, SWEEP_CHUNK_ROWS // rows_per_point)
    gather = lambda points, _: _gather(problem, points, schedule)
    return _sweep(rows, schedule.rho_values(), q, SWEEP_METRICS, step, gather)


def _level_infima(values: np.ndarray) -> list:
    """Each column's infimum of a rows x levels array, as a scan with
    ``<`` takes it: NaN never wins and an empty or all-NaN column is
    ``INF``."""
    least = np.fmin.reduce(values, axis=0, initial=np.nan).tolist()
    return [INF if v != v else v for v in least]


def _read_sweep(table: SweepTable, rhos, metric: str, weight, ratio, kinds, truncated) -> list:
    """The uniform, plain and modified strict estimates, of the kinds
    ``kinds``, of ``table`` under ``metric``: per level, the infima of
    the nonlocal slopes, of ``weight`` times the local slopes, and of the
    larger of those and the per-row ``ratio``, rows of NaN ratio left
    out.  An empty level is ``INF``; ``budget_used`` counts every copy of
    a row once per level it lies in."""
    rows = table.rows
    # a row's entries past its depth are NaN, so each level's infimum is
    # its column's over all rows
    plain = weight * table.local_values[metric]
    modified = np.where(ratio[:, None] > plain, ratio[:, None], plain)
    modified[np.isnan(ratio)] = np.nan
    used = int((table.sizes * rows.copies * (rows.depth + 1)).sum())
    values = (table.nonlocal_values[metric], plain, modified)
    return [
        _finish(kind, list(zip(rhos, _level_infima(v))), t, used)
        for kind, v, t in zip(kinds, values, (truncated, False, False))
    ]


def _strict_q(table: SweepTable, q: float, schedule: Schedule, metric: str) -> StrictSweepResult:
    # the mapping's weight q d(y, ybar)^(q-1) and ratio d(y, ybar)^q / d(x, xbar)
    rows, truncated = table.rows, bool(table.truncated[metric].any())
    kinds = ("uniform_strict_q", "strict_q", "modified_strict_q")
    weight, ratio, rhos = rows.weight(q)[:, None], rows.ratio(q), schedule.rho_values()
    return StrictSweepResult(*_read_sweep(table, rhos, metric, weight, ratio, kinds, truncated))


def strict_sweep(ctx: RunContext, metric: str = "max") -> StrictSweepResult:
    """The uniform, plain and modified strict q-slopes of the run ``ctx``
    under the product metric ``metric``, read from its one
    :class:`SweepTable`, ``ctx.sweep_table``."""
    return _strict_q(ctx.sweep_table, ctx.q, ctx.schedule, metric)


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
    yields a stronger sufficient condition.  No run holds the
    unrestricted pool, so this reads its own."""
    if not is_order(q):
        raise SlopeError("q must lie in (0, 1]")
    table = sweep_table(problem, q, schedule, outer_pools(problem, schedule, outer_restriction))
    return _strict_q(table, q, schedule, metric).uniform


# --------------------------------------------------------------------------
# generic two-variable functions
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TwoVariableFunction:
    """An extended-real function of (x, y) with an anchor where it
    vanishes and a sampler of points where it is finite.

    The sampler has the graph samplers' contract: ``sampler(center,
    radius, budget, seed)`` returns ``(ux, vy)``, at most ``budget`` x
    and y rows within ``radius`` of ``center``, deterministic in
    ``seed``.  The f-level engine reads only ``xbar``, ``ybar``, the
    norms, ``solution_distance`` (x rows to their distances to the zero
    set), :meth:`value` and :meth:`rows`, which an
    :class:`ErrorFunction` has too."""

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

    def value(self, x, y) -> float:
        return self.f(np.asarray(x, dtype=float).reshape(-1), np.asarray(y, dtype=float).reshape(-1))

    def rows(self, calls: Sequence[tuple]) -> tuple:
        """Sampled rows for many ``(center, radius, budget, seed)`` calls,
        one sampler call each: ``(ux, vy, f, counts)``, the rows where
        ``f`` is finite in call order and how many each call kept."""
        drawn = [self.sampler(*call) for call in calls]
        ux = np.concatenate([np.zeros((0, self.xbar.size))] + [x for x, _ in drawn])
        vy = np.concatenate([np.zeros((0, self.ybar.size))] + [y for _, y in drawn])
        fv = np.array([float(self.value(x, y)) for x, y in zip(ux, vy)])
        finite = fv != INF
        owner = np.repeat(np.arange(len(calls)), [len(x) for x, _ in drawn])
        return ux[finite], vy[finite], fv[finite], np.bincount(owner[finite], minlength=len(calls))


def single_variable_embedding(
    f: Callable[[float], float],
    xbar: float = 0.0,
    solution_distance: Optional[Callable] = None,
    name: str = "embedded",
) -> TwoVariableFunction:
    """Embed a one-variable function: finite on the slice ``y == ybar``
    and infinite elsewhere; ``solution_distance`` takes x rows."""
    xbar_arr = np.array([float(xbar)])
    ybar_arr = np.array([0.0])

    def value(x, y):
        if abs(float(y[0])) > 0.0:
            return INF
        return float(f(float(x[0])))

    def sampler(center, radius, budget, seed):
        c = float(center.x[0])
        offs, keep = halving_ladder(radius, max(1e-9 * radius, 1e-11), 64)
        stencil = np.stack([c + offs[keep], c - offs[keep]], axis=1).reshape(-1)
        params = np.concatenate([[c], stencil])
        fill = max(0, budget - params.size)
        if fill:
            u = halton_points(1, fill, mix_seed(seed, "embed"))[:, 0]
            params = np.concatenate([params, c - radius + 2.0 * radius * u])
        t = params[np.abs(params - c) <= radius * (1.0 + 1e-12)][: max(budget, 0)]
        return t[:, None], np.zeros((t.size, 1))

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


def anchor_f_rows(func, radii: Sequence[float], budget: int, seeds: Sequence[int]) -> tuple:
    """The rows with ``f > 0`` of one anchor-centred sample per radius,
    from one ``func.rows`` pass, and their distances to the anchor:
    ``(ux, vy, f, dxa, dya)``.  On an :class:`ErrorFunction` these are
    the rows with ``d(v, ybar) > 0``: for q in (0, 1], ``d**q > 0`` if
    and only if ``d > 0``."""
    anchor = ProductPoint(func.xbar, func.ybar)
    ux, vy, f, _ = func.rows([(anchor, r, budget, s) for r, s in zip(radii, seeds)])
    keep = f > 0.0
    ux, vy, f = ux[keep], vy[keep], f[keep]
    dxa = func.norm_x.value_rows(ux - func.xbar)
    return ux, vy, f, dxa, func.norm_y.value_rows(vy - func.ybar)


def _f_table(
    func, centres: Sequence, f_at, calls: Sequence, local_radius, trunc, anchor: bool,
    band=EXCLUSION_BAND,
) -> PointCandidates:
    """The candidate table of a two-variable function around several
    centres, from the calls ``calls[i]`` (at least one) of ``centres[i]``,
    plus the anchor row after each centre's rows when ``anchor`` is set
    (and ``f`` is finite there): rows valued ``f``, centres valued
    ``f_at`` and the exclusion distance ``band``."""
    ux, vy, f, per_call = func.rows([call for mine in calls for call in mine])
    n_calls = np.array([len(mine) for mine in calls])
    counts = np.add.reduceat(per_call, np.cumsum(n_calls) - n_calls)
    f_anchor = func.value(func.xbar, func.ybar) if anchor else INF
    if not is_inf(f_anchor):
        columns = (ux, func.xbar), (vy, func.ybar), (f, float(f_anchor))
        (ux, vy, f), counts = _with_anchor(counts, *columns)
    cx = np.array([c.x for c in centres], dtype=float)
    cy = np.array([c.y for c in centres], dtype=float)
    norms = (func.norm_x, func.norm_y)
    return PointCandidates.around(
        norms, (cx, cy), (ux, vy, f), counts, f_at, band, local_radius, trunc
    )


def f_level_slopes(
    func,
    rho: float,
    at: ProductPoint,
    schedule: Schedule,
    variants: Sequence[str] = ("nonlocal", "local"),
) -> dict:
    """Slopes of a two-variable function.

    Point variants (``nonlocal``, ``local``) use ``rho`` and ``at``;
    anchor variants (``uniform-strict``, ``strict-outer``,
    ``modified-strict-outer``) sweep the schedule windows
    ``0 < f < rho_k`` and ignore ``rho``/``at``.
    """
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
                cands = _f_table(func, [at], f_at, [[call]], np.inf, trunc, True)
                val = cands.nonlocal_value(1.0, rho)[0]
                out["nonlocal"] = SlopeEstimate(val, ((rho, val),), False, cands.size, "f_nonlocal")
            if "local" in point_variants:
                radii = [max(nr * scale, LOCAL_RADIUS_FLOOR) for nr in schedule.neighborhood_radii]
                budget = max(64, schedule.sample_budget // 16)
                key = (at.x.tobytes(), at.y.tobytes())
                calls = [
                    [(at, r, budget, mix_seed(schedule.seed, "floc", j, *key))]
                    for j, r in enumerate(radii)
                ]
                # one segment per radius
                cands = _f_table(func, [at] * len(calls), f_at, calls, np.inf, radii, False)
                trace = tuple(zip(radii, cands.local_table([rho])[:, 0].tolist()))
                out["local"] = SlopeEstimate(trace[-1][1], trace, False, cands.size, "f_local")

    strict_keys = {
        "uniform-strict": "uniform",
        "strict-outer": "plain",
        "modified-strict-outer": "modified",
    }
    anchor_variants = [v for v in strict_keys if v in variants]
    if anchor_variants:
        strict = f_level_strict(func, schedule)
        out.update((v, strict[strict_keys[v]]) for v in anchor_variants)
    return out


def f_level_strict(func, schedule: Schedule) -> dict:
    """Uniform / plain / modified strict outer slopes of a two-variable
    function over the windows ``d(x,xbar) < rho_k``, ``0 < f < rho_k``,
    with one shared sample pool per level: the strict sweep of the
    mappings, at order 1 under the max metric, on a window pool.

    The rows come from ``func.rows`` (see :func:`anchor_f_rows`).  Each
    distinct window point (by its bytes, in depth order: see
    :func:`~subreg.problems.distinct_window_rows`, on ``max(f, d(x,
    xbar))``) gathers its candidates once and is reduced at every level;
    ``budget_used`` still counts a point once per copy in each level's
    window.
    """
    rhos = schedule.rho_values()
    seeds = [mix_seed(schedule.seed, "fstrict", k) for k in range(len(rhos))]
    ux, vy, f, dxa, dya = anchor_f_rows(func, rhos, schedule.outer_samples_per_level(), seeds)
    level = np.where(np.maximum(dxa, dya) > UNRESOLVABLE_FLOOR, np.maximum(f, dxa), np.inf)
    pts, depth, copies = distinct_window_rows(np.hstack([ux, vy]), level, rhos)
    window, f = OuterPool(ux[pts], vy[pts], dxa[pts], dya[pts], depth, copies), f[pts]
    far = max(64, schedule.sample_budget // 8)
    near = max(64, schedule.sample_budget // 16)

    def gather(centres, chunk):
        scale = np.maximum(window.dxa[chunk], window.dya[chunk])
        r_loc = np.maximum(schedule.neighborhood_radii[-1] * scale, LOCAL_RADIUS_FLOOR)
        trunc = 10.0 * np.maximum(1.0, scale)
        calls = [
            [(p, t, far, _point_seed(schedule, "fnlc", p)),
             (p, r, near, _point_seed(schedule, "flocc", p))]
            for p, t, r in zip(centres, trunc.tolist(), r_loc.tolist())
        ]
        # one shared superset with a local mask, so the nonlocal supremum
        # dominates the local one sample-wise
        return _f_table(func, centres, f[chunk], calls, r_loc, trunc, True)

    step = max(1, SWEEP_CHUNK_ROWS // (far + near + 1))
    table = _sweep(window, rhos, 1.0, ("max",), step, gather)
    # a point on x = xbar has no ratio, and its modified slope never wins a level
    ratio = np.divide(f, window.dxa, out=np.full(f.shape, np.nan), where=window.dxa > 0)
    kinds = ("f_uniform_strict", "f_strict_outer", "f_modified_strict_outer")
    estimates = _read_sweep(table, rhos, "max", 1.0, ratio, kinds, False)
    return dict(zip(("uniform", "plain", "modified"), estimates))


# --------------------------------------------------------------------------
# properties P1 and P2 of an error function
# --------------------------------------------------------------------------

# P2 passes when the final-shell infimum of f / d(y, ybar) stays above this
P2_THRESHOLD = 1e-6


@dataclass(frozen=True)
class P1P2Report:
    p1_status: str
    p2_status: str
    p2_infimum: float
    trace: tuple
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return self.p1_status == "pass" and self.p2_status == "pass"


def validate_P1_P2(func, schedule: Schedule) -> P1P2Report:
    """Check positivity off ybar (structural for induced error functions)
    and estimate ``liminf f/d(y, ybar)`` as ``f`` shrinks along the
    shells; pass when the final-shell infimum stays above
    ``P2_THRESHOLD``."""
    notes = []
    if isinstance(func, ErrorFunction):
        p1 = "pass"
        notes.append("positivity off ybar holds structurally for induced error functions")
    else:
        call = (ProductPoint(func.xbar, func.ybar), 1.0, 512, mix_seed(schedule.seed, "p1"))
        _, vy, f, _ = func.rows([call])
        off_ybar = func.norm_y.value_rows(vy - func.ybar) > MEMBERSHIP_TOL
        p1 = "fail" if np.any(off_ybar & (f <= 0.0)) else "pass"

    _, _, f, _, dy = anchor_f_rows(
        func, [schedule.rho0], schedule.sample_budget, [mix_seed(schedule.seed, "p2")]
    )
    f, dy, rhos = f[dy > 0.0], dy[dy > 0.0], schedule.rho_values()
    trace = list(zip(rhos, _level_infima(np.where(f[:, None] < rhos, (f / dy)[:, None], np.nan))))
    final = trace[-1][1]
    if is_inf(final):
        p2 = "inconclusive"
        notes.append("no sampled points with small function values")
    else:
        p2 = "pass" if final > P2_THRESHOLD else "fail"
    return P1P2Report(p1, p2, final, tuple(trace), tuple(notes))
