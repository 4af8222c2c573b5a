"""The four 1-D single-valued catalog constructors as they were before
they shared one constructor, kept as the tests' reference.

Each builds its :class:`~subreg.problems.MappingProblem` field by field,
with its own membership, fiber-distance, graph-map, parameter and window
oracles; the catalog entries of the same name must match every one of
them bitwise.  The interval window is copied too, so that no entry's
window is compared with itself.
"""

import numpy as np

from subreg.geometry import euclidean
from subreg.problems import MEMBERSHIP_TOL, MappingProblem


def _interval_window(t0, radius):
    return t0 - radius, t0 + radius


def _half_square() -> MappingProblem:
    def membership(x, y):
        return abs(float(y[0]) - max(float(x[0]), 0.0) ** 2) <= MEMBERSHIP_TOL

    def coderivative_matrix(x, y):
        u = float(x[0])
        return np.array([[2.0 * u if u >= 0.0 else 0.0]])

    return MappingProblem(
        name="half-square",
        dim_x=1,
        dim_y=1,
        norm_x=euclidean(1),
        norm_y=euclidean(1),
        xbar=[0.0],
        ybar=[0.0],
        graph_membership=membership,
        param_to_graph_batch=lambda t: (t[:, :1], np.maximum(t[:, :1], 0.0) ** 2),
        param_of=lambda x, y: np.array([float(x[0])]),
        param_window=_interval_window,
        solution_distance=lambda x: max(float(x[0]), 0.0),
        fiber_distance=lambda x: max(float(x[0]), 0.0) ** 2,
        coderivative_matrix=coderivative_matrix,
        convex=False,
        canonical_q=0.5,
    )


def _identity() -> MappingProblem:
    return MappingProblem(
        name="identity",
        dim_x=1,
        dim_y=1,
        norm_x=euclidean(1),
        norm_y=euclidean(1),
        xbar=[0.0],
        ybar=[0.0],
        graph_membership=lambda x, y: abs(float(y[0]) - float(x[0])) <= MEMBERSHIP_TOL,
        param_to_graph_batch=lambda t: (t[:, :1], t[:, :1].copy()),
        param_of=lambda x, y: np.array([float(x[0])]),
        param_window=_interval_window,
        solution_distance=lambda x: abs(float(x[0])),
        fiber_distance=lambda x: abs(float(x[0])),
        coderivative_matrix=lambda x, y: np.ones((1, 1)),
        convex=True,
        canonical_q=1.0,
    )


def _square() -> MappingProblem:
    return MappingProblem(
        name="square",
        dim_x=1,
        dim_y=1,
        norm_x=euclidean(1),
        norm_y=euclidean(1),
        xbar=[0.0],
        ybar=[0.0],
        graph_membership=lambda x, y: abs(float(y[0]) - float(x[0]) ** 2)
        <= MEMBERSHIP_TOL,
        param_to_graph_batch=lambda t: (t[:, :1], t[:, :1] ** 2),
        param_of=lambda x, y: np.array([float(x[0])]),
        param_window=_interval_window,
        solution_distance=lambda x: abs(float(x[0])),
        fiber_distance=lambda x: float(x[0]) ** 2,
        coderivative_matrix=lambda x, y: np.array([[2.0 * float(x[0])]]),
        convex=False,
        canonical_q=1.0,
    )


def _constant() -> MappingProblem:
    return MappingProblem(
        name="constant",
        dim_x=1,
        dim_y=1,
        norm_x=euclidean(1),
        norm_y=euclidean(1),
        xbar=[0.0],
        ybar=[0.0],
        graph_membership=lambda x, y: abs(float(y[0])) <= MEMBERSHIP_TOL,
        param_to_graph_batch=lambda t: (t[:, :1], np.zeros_like(t[:, :1])),
        param_of=lambda x, y: np.array([float(x[0])]),
        param_window=_interval_window,
        solution_distance=lambda x: 0.0,
        fiber_distance=lambda x: 0.0,
        coderivative_matrix=lambda x, y: np.zeros((1, 1)),
        convex=True,
        canonical_q=1.0,
    )


CATALOG = {
    "half-square": _half_square,
    "identity": _identity,
    "square": _square,
    "constant": _constant,
}
