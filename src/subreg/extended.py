"""Extended nonnegative reals with an explicit infinity sentinel.

Empty infima, off-graph error-function values and truncated distance
estimates all produce ``INF``.  The sentinel is a tagged value, never a
float ``inf`` inside arithmetic: comparisons against finite floats are
defined (``INF`` beats any finite number) and sums with it stay ``INF``.
"""

from __future__ import annotations

from typing import Union


class Infinity:
    """The single positive-infinity sentinel; compare, add and scale like
    +inf, with 0 * inf = 0."""

    __slots__ = ()

    def __gt__(self, other):
        return not isinstance(other, Infinity)

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, Infinity)

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __ne__(self, other):
        return not isinstance(other, Infinity)

    def __hash__(self):
        return hash("subreg-infinity")

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        # 0 * (+inf) = 0 is the convention of variational analysis
        if isinstance(other, Infinity):
            return self
        if other == 0:
            return 0.0
        if other < 0:
            raise ValueError("cannot scale infinity by a negative factor")
        return self

    __rmul__ = __mul__

    def __repr__(self):
        return "inf"


INF = Infinity()

ExtReal = Union[float, Infinity]


def is_inf(value: ExtReal) -> bool:
    return isinstance(value, Infinity)
