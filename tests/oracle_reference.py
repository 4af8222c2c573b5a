"""The one-point distance and parameter oracles the row oracles replaced,
kept as the tests' reference.

Each factory rebuilds, from a constructor's inputs, the closures that
constructor used to set, verbatim: one x (and y) in, one float or one
parameter vector out.  ``tests/catalog_reference.py`` keeps the four
line entries' own.  :func:`solution_dist_exact` is the one-point reader
the references of the pool build and of ``sr_q`` call.
"""

from typing import Optional

import numpy as np

from subreg.geometry import INF, euclidean, matvec_left
from subreg.problems import MEMBERSHIP_TOL


def solution_dist_exact(problem, x) -> Optional[float]:
    """The problem's solution distance at one x, ``None`` without an oracle."""
    if problem.solution_distance is None:
        return None
    return float(problem.solution_distance(np.asarray(x, dtype=float).reshape(1, -1))[0])


def line_oracles(value, ybar=0.0) -> tuple:
    """A single-valued map of the line's ``(fiber_distance, param_of)``."""
    ybar = float(ybar)

    def fiber_distance(x):
        v = value(float(x[0]))
        return INF if v is None else abs(v - ybar)

    return fiber_distance, (lambda x, y: np.array([float(x[0])]))


def linear_distances(matrix=None) -> tuple:
    """``linear-A``'s ``(solution_distance, fiber_distance)``."""
    a = np.asarray(matrix if matrix is not None else [[2.0, 0.0], [0.0, 3.0]], float)
    dim_y, dim_x = a.shape
    norm_x, norm_y = euclidean(dim_x), euclidean(dim_y)
    _, s, vt = np.linalg.svd(a)
    null_basis = vt[int(np.sum(s > 1e-12 * (s[0] if s.size else 1.0))) :]

    def solution_distance(x):
        d = np.asarray(x, dtype=float)
        if null_basis.shape[0]:
            d = d - matvec_left(null_basis.T, matvec_left(null_basis, d))
        return norm_x.value(d)

    return solution_distance, (lambda x: norm_y.value(matvec_left(a, x)))


def halfline_oracles() -> tuple:
    """``halfline-convex``'s ``(param_window, param_of, solution_distance,
    fiber_distance)``."""

    def window(t0, r):
        lo = np.array([t0[0] - r, max(t0[1] - 2.0 * r, 0.0)])
        hi = np.array([t0[0] + r, max(t0[1] + 2.0 * r, 0.0)])
        return lo, hi

    return (
        window,
        lambda x, y: np.array([float(x[0]), max(float(y[0]) - float(x[0]), 0.0)]),
        lambda x: max(float(x[0]), 0.0),
        lambda x: max(float(x[0]), 0.0),
    )


def _horner(coeffs: tuple, u: float) -> float:
    y = 0.0
    for c in coeffs:
        y = y * u + c
    return y


def _parsed(pieces) -> list:
    parsed = [
        (float(pc["domain"][0]), float(pc["domain"][1]), np.array(pc["coeffs"], dtype=float))
        for pc in pieces
    ]
    parsed.sort(key=lambda t: t[0])
    return parsed


def piecewise_oracles(pieces, ybar) -> tuple:
    """An inline problem's ``(param_window, param_of, solution_distance,
    fiber_distance)``; its window, ``_line_problem``'s fiber distance and
    parameter over the inline value, and its solution distance."""
    parsed = _parsed(pieces)
    lo_all = parsed[0][0]
    hi_all = max(b for _, b, _ in parsed)
    values = [(a, b, tuple(c[::-1].tolist())) for a, b, c in parsed]

    def poly_at(u: float) -> Optional[float]:
        for a, b, c in values:
            if a - MEMBERSHIP_TOL <= u <= b + MEMBERSHIP_TOL:
                return _horner(c, u)
        return None

    zero_sets = []
    for a, b, c in parsed:
        shifted = c.copy()
        shifted[0] -= ybar
        if np.allclose(shifted, 0.0, atol=1e-15):
            zero_sets.append((a, b, None))
            continue
        roots = np.roots(shifted[::-1]) if len(shifted) > 1 else np.array([])
        real = [float(r.real) for r in roots if not abs(r.imag) > 1e-9]
        zero_sets.append((a, b, [r for r in real if a - 1e-9 <= r <= b + 1e-9]))

    def solution_distance(x):
        u = float(x[0])
        best = None
        for a, b, roots in zero_sets:
            if roots is None:
                d = 0.0 if a <= u <= b else min(abs(u - a), abs(u - b))
                best = d if best is None else min(best, d)
                continue
            for rr in roots:
                d = abs(u - rr)
                best = d if best is None else min(best, d)
        return best if best is not None else 1e30

    def window(t0, r):
        return np.maximum(t0 - r, lo_all), np.minimum(t0 + r, hi_all)

    fiber_distance, param_of = line_oracles(poly_at, ybar)
    return window, param_of, solution_distance, fiber_distance


def finite_graph_distances(points, ybar, dim_x=1, dim_y=1) -> tuple:
    """A finite graph's ``(solution_distance, fiber_distance)``."""
    pts = [(np.asarray(p[0], dtype=float), np.asarray(p[1], dtype=float)) for p in points]
    nx, ny = euclidean(dim_x), euclidean(dim_y)
    ybar_arr = np.asarray(ybar, dtype=float).reshape(-1)
    solset = [px for px, py in pts if ny.value(py - ybar_arr) <= MEMBERSHIP_TOL]

    def solution_distance(x):
        x = np.asarray(x, dtype=float).reshape(-1)
        if not solset:
            return 1e30
        return min(nx.value(x - s) for s in solset)

    def fiber_distance(x):
        x = np.asarray(x, dtype=float).reshape(-1)
        fibers = [py for px, py in pts if nx.value(x - px) <= MEMBERSHIP_TOL]
        if not fibers:
            return INF
        return min(ny.value(f - ybar_arr) for f in fibers)

    return solution_distance, fiber_distance
