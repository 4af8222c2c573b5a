"""The list-form samplers the row samplers replaced, kept as the tests'
reference.

``subreg`` samplers return ``(ux, vy)`` rows.  These are the forms that
returned lists of ``ProductPoint``s or Python floats: the graph sampler's
point list, the halving offsets, ``single_variable_embedding``'s sampler
and the invariant suite's probe draw, one sampler call per radius.
"""

from subreg import ProductPoint
from subreg.problems import halton_points, mix_seed, sample_graph_arrays


def points(rows):
    """The ``(ux, vy)`` rows of a sampler as a list of points."""
    ux, vy = rows
    return [ProductPoint(x, y) for x, y in zip(ux, vy)]


def graph_sample(problem, center, radius, budget, seed):
    """The graph sampler's rows as a list of points."""
    return points(sample_graph_arrays(problem, center, radius, budget, seed))


def halving_offsets(start, stop, cap):
    """Offsets ``start, start/2, ...`` down to ``stop``, at most ``cap``
    of them, by repeated halving on Python floats."""
    out, off = [], float(start)
    while len(out) < cap and off >= stop:
        out.append(off)
        off /= 2.0
    return out


def embedding_sampler(center, radius, budget, seed):
    """``single_variable_embedding``'s sampler as a point list: the
    centre, a halving stencil on both sides and a Halton fill, each
    parameter a Python float, filtered to the radius."""
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


def probe_points(problem, schedule, count):
    """The invariant suite's probes: one graph sample per radius, then
    the points with y off ybar and not too close to the anchor."""
    pts = []
    for j, radius in enumerate((1.0, 0.1, 0.01)):
        pts.extend(
            graph_sample(problem, problem.anchor, radius, count, mix_seed(schedule.seed, "probe", j))
        )
    out = [
        p
        for p in pts
        if problem.d_y(p.y, problem.ybar) > 1e-9
        and max(problem.d_x(p.x, problem.xbar), problem.d_y(p.y, problem.ybar)) >= 1e-3
    ]
    return out[:count]
