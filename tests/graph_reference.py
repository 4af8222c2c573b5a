"""The scalar graph maps the built-in problems once carried, and the
induced function of a mapping as a generic two-variable function, kept
as the tests' reference.

Each map takes one parameter vector to one graph point ``(x, y)`` with
Python floats; the batch maps of the catalog and of
``piecewise_problem`` must equal them row by row, bitwise
(:func:`same_bits`).  :func:`induced` draws an error function's rows one
sampler call at a time and values them through the membership-tested
``ErrorFunction.value``; ``ErrorFunction.rows`` must equal it bitwise.

:func:`_graph_table` and :func:`anchor_graph_rows` are the mapping-only
table builder and anchor draw that the primal layer once kept beside
the function engine, before it drew a mapping's rows through its
order-1 error function; :func:`gather`, :func:`local_table` and
:func:`anchor_columns` build the candidate tables of ``_gather`` and
``local_rho_slope`` and the ``Tables.anchor`` columns through them.
"""

import math
from functools import partial
from typing import Sequence

import numpy as np

from subreg.geometry import ProductPoint
from subreg.moduli import _anchor_columns, _error_bound_draw
from subreg.problems import (
    MEMBERSHIP_TOL,
    ErrorFunction,
    MappingProblem,
    Schedule,
    _horner,
    mix_seed,
    sample_graph_arrays,
    sample_graph_batch,
)
from subreg.slopes_primal import (
    EXCLUSION_BAND,
    LOCAL_RADIUS_FLOOR,
    NOISE_FLOOR_REL,
    PointCandidates,
    TwoVariableFunction,
    _finite,
    _local_budget,
    _local_radius,
    _point_seed,
    _with_anchor,
)


def same_bits(a, b) -> bool:
    """Equal shapes and equal float bits entry by entry, except that a
    NaN equals any NaN: ``-0.0`` and ``0.0`` differ."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    return bool(np.all((np.isnan(a) & np.isnan(b)) | (a.view(np.int64) == b.view(np.int64))))


def _max0(u):
    # np.maximum(u, 0.0) on a Python float: NaN stays NaN and -0.0 gives
    # +0.0, where Python's max(u, 0.0) keeps a -0.0 first argument
    return u if u > 0.0 or math.isnan(u) else 0.0


def _half_square(t):
    u = float(t[0])
    m = _max0(u)
    # m * m, as the batch map's array ** 2 computes it; Python's m ** 2
    # calls pow() and can land one ulp away
    return np.array([u]), np.array([m * m])


def _halfline(t):
    u, s = float(t[0]), _max0(float(t[1]))
    return np.array([u]), np.array([u + s])


def _row_times(row, t):
    # row . t on Python floats, summed left to right from the first product
    total = row[0] * float(t[0])
    for r, v in zip(row[1:], t[1:]):
        total += r * float(v)
    return total


def catalog_to_graph(name, matrix=None):
    """The scalar graph map of catalog entry ``name`` (``matrix`` as
    ``catalog_problem`` takes it, for ``linear-A``)."""
    if name == "linear-A":
        a = np.asarray(matrix if matrix is not None else [[2.0, 0.0], [0.0, 3.0]], float).tolist()
        return lambda t: (np.asarray(t, dtype=float), np.array([_row_times(r, t) for r in a]))
    return {
        "half-square": _half_square,
        "identity": lambda t: (np.array([float(t[0])]), np.array([float(t[0])])),
        "square": lambda t: (np.array([float(t[0])]), np.array([float(t[0]) * float(t[0])])),
        "halfline-convex": _halfline,
        "constant": lambda t: (np.array([float(t[0])]), np.array([0.0])),
    }[name]


def piecewise_to_graph(pieces):
    """The scalar graph map of ``piecewise_problem(pieces, ...)``: clip to
    the pieces' hull, take the first piece in sorted order holding the
    point, and snap a point in a gap to the nearest domain end (the
    first one on a tie)."""
    parsed = sorted(
        ((float(pc["domain"][0]), float(pc["domain"][1]), np.array(pc["coeffs"], dtype=float))
         for pc in pieces),
        key=lambda piece: piece[0],
    )
    lo_all = parsed[0][0]
    hi_all = max(b for _, b, _ in parsed)
    values = [(a, b, tuple(c[::-1].tolist())) for a, b, c in parsed]
    edges = [edge for a, b, _ in parsed for edge in (a, b)]

    def poly_at(u):
        for a, b, c in values:
            if a - MEMBERSHIP_TOL <= u <= b + MEMBERSHIP_TOL:
                return _horner(c, u)
        return None

    def to_graph(t):
        u = min(max(float(t[0]), lo_all), hi_all)
        v = poly_at(u)
        if v is None:
            best, best_d = None, None
            for edge in edges:
                d = abs(u - edge)
                if best_d is None or d < best_d:
                    best, best_d = edge, d
            u = best
            v = poly_at(u)
        return np.array([u]), np.array([v])

    return to_graph


def scalar_graph_rows(to_graph, params):
    """``to_graph`` on every row of ``params``, stacked as x and y rows."""
    xs, ys = [], []
    for t in params:
        x, y = to_graph(t)
        xs.append(np.asarray(x, dtype=float).reshape(-1))
        ys.append(np.asarray(y, dtype=float).reshape(-1))
    return np.array(xs), np.array(ys)


def induced(func):
    """An :class:`ErrorFunction` as a :class:`TwoVariableFunction` that
    samples through ``sample_graph_arrays`` and values each row with the
    membership-tested ``ErrorFunction.value``; any other function is
    returned as it is."""
    if not isinstance(func, ErrorFunction):
        return func
    pr = func.problem
    return TwoVariableFunction(
        f=func.value,
        xbar=pr.xbar,
        ybar=pr.ybar,
        norm_x=pr.norm_x,
        norm_y=pr.norm_y,
        sampler=partial(sample_graph_arrays, pr),
        solution_distance=pr.solution_distance,
        name=f"induced[{pr.name}]",
    )


def _graph_table(problem: MappingProblem, centres, ux, vy, counts, *segments) -> PointCandidates:
    # graph rows valued d(v, ybar); the segments' centre values, bands,
    # local and truncation radii follow
    norms = (problem.norm_x, problem.norm_y)
    dv = problem.norm_y.value_rows(vy - problem.ybar)
    return PointCandidates.around(norms, centres, (ux, vy, dv), counts, *segments)


def anchor_graph_rows(
    problem: MappingProblem, radii: Sequence[float], budget: int, seeds: Sequence[int]
) -> tuple:
    """The graph rows with ``d(v, ybar) > 0`` of one anchor-centred
    sample per radius, from one :func:`sample_graph_batch` pass, and
    their distances to the anchor: ``(ux, vy, dxa, dya)``."""
    anchor = problem.anchor
    ux, vy, _ = sample_graph_batch(problem, [(anchor, r, budget, s) for r, s in zip(radii, seeds)])
    dya = problem.norm_y.value_rows(vy - problem.ybar)
    keep = dya > 0.0
    ux, vy, dya = ux[keep], vy[keep], dya[keep]
    return ux, vy, problem.norm_x.value_rows(ux - problem.xbar), dya


def gather(problem: MappingProblem, points: Sequence, schedule: Schedule) -> PointCandidates:
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


def local_table(problem: MappingProblem, at: ProductPoint, schedule: Schedule) -> PointCandidates:
    """The one-segment-per-radius table of ``local_rho_slope`` on a
    sampled graph."""
    d_at = problem.d_y(at.y, problem.ybar)
    scale = max(problem.product_dist(at, problem.anchor), 0.0)
    radii = [max(nr * scale, LOCAL_RADIUS_FLOOR) for nr in schedule.neighborhood_radii]
    n_loc = _local_budget(problem, schedule)
    seed = _point_seed(schedule, "ls", at)
    ux, vy, counts = sample_graph_batch(
        problem, [(at, r, n_loc, mix_seed(seed, j)) for j, r in enumerate(radii)]
    )
    # one segment per radius, each scored whole outside the noise band
    centres = (np.tile(at.x, (len(radii), 1)), np.tile(at.y, (len(radii), 1)))
    band = max(EXCLUSION_BAND, NOISE_FLOOR_REL * scale)
    return _graph_table(problem, centres, ux, vy, counts, d_at, band, np.inf, radii)


def anchor_columns(problem: MappingProblem, schedule: Schedule):
    """The ``AnchorColumns`` of the error bound, from :func:`anchor_graph_rows`."""
    ux, vy, dxa, dya = anchor_graph_rows(problem, *_error_bound_draw(schedule))
    columns = (ux, vy, dxa, dya, problem.solution_distance, schedule.rho_values())
    return _anchor_columns(*columns)[0]
