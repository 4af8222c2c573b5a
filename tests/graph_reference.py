"""The scalar graph maps the built-in problems once carried, kept as the
tests' reference.

Each map takes one parameter vector to one graph point ``(x, y)`` with
Python floats; the batch maps of the catalog and of
``piecewise_problem`` must equal them row by row, bitwise
(:func:`same_bits`).
"""

import math

import numpy as np

from subreg.problems import MEMBERSHIP_TOL, _horner


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
