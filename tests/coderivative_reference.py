"""The scalar coderivative oracles that the coderivative matrices replaced,
kept as the tests' reference.

Each maps (x, y, y*) to a :class:`~subreg.DualVectorSet`: the images of
the five single-valued catalog entries, ``linear-A``'s A^T y* summed left
to right on Python floats for any matrix, and an inline problem's slope
times y*, with ``None`` at a kink and an empty image off the pieces.
:func:`scalar_twin` describes a problem by one of them alone; the matrix
path must match it bitwise.
"""

import dataclasses

import numpy as np

from subreg import DualVectorSet
from subreg.geometry import dot_left
from subreg.problems import MEMBERSHIP_TOL, _horner


def half_square(x, y, ystar):
    u = float(x[0])
    if u >= 0.0:
        return DualVectorSet.singleton([2.0 * u * float(ystar[0])])
    return DualVectorSet.singleton([0.0])


def identity(x, y, ystar):
    return DualVectorSet.singleton([float(ystar[0])])


def square(x, y, ystar):
    return DualVectorSet.singleton([2.0 * float(x[0]) * float(ystar[0])])


def constant(x, y, ystar):
    return DualVectorSet.singleton([0.0])


def linear(matrix=None):
    """``linear-A``'s oracle for ``catalog_problem("linear-A", matrix=matrix)``."""
    a = np.asarray(matrix if matrix is not None else [[2.0, 0.0], [0.0, 3.0]], float)
    columns = a.T.tolist()

    def coderivative(x, y, ystar):
        # A^T y* on Python floats: one call per distinct multiplier
        ystar = np.asarray(ystar, dtype=float).tolist()
        return DualVectorSet.singleton([dot_left(c, ystar) for c in columns])

    return coderivative


def piecewise(pieces):
    """The oracle of ``piecewise_problem(pieces, ...)``."""
    domains = [(float(pc["domain"][0]), float(pc["domain"][1])) for pc in pieces]
    derivs = [
        tuple(np.polyder(np.poly1d(np.array(pc["coeffs"], dtype=float)[::-1])).coeffs.tolist())
        for pc in pieces
    ]

    def coderivative(x, y, ystar):
        u = float(x[0])
        slopes = {
            round(_horner(dc, u), 12)
            for (a, b), dc in zip(domains, derivs)
            if a - MEMBERSHIP_TOL <= u <= b + MEMBERSHIP_TOL
        }
        if not slopes:
            return DualVectorSet.empty()
        if len(slopes) > 1:
            return None  # kink: no analytic description here
        return DualVectorSet.singleton([slopes.pop() * float(ystar[0])])

    return coderivative


CATALOG = {
    "half-square": half_square,
    "identity": identity,
    "square": square,
    "linear-A": linear(),
    "constant": constant,
}


def scalar_twin(problem, oracle):
    """``problem`` with its coderivative given by ``oracle`` alone."""
    return dataclasses.replace(problem, coderivative=oracle, coderivative_matrix=None)
