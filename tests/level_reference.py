"""The per-level scans that the depth-ordered reductions replaced, kept as
the tests' references.

A level is the rows of depth ``k`` or more, in row order.  ``infimum`` is
the strict sweeps' per-level infimum, ``first_least`` the moduli's scan
for a level's first least entry.
"""

import numpy as np

from subreg.geometry import INF


def infimum(values):
    """A level's infimum as a scan with ``<`` takes it: NaN never wins and
    an empty level is ``INF``."""
    values = values[~np.isnan(values)]
    return float(values.min()) if values.size else INF


def first_least(values):
    """The scan from ``INF`` that keeps each entry ``<`` its best, as
    ``(index, value)``: -1 and ``INF`` when nothing is below ``INF``."""
    best, at = INF, -1
    for i, v in enumerate(values.tolist()):
        if v < best:
            best, at = v, i
    return at, best


def level_scans(values, depth, levels):
    """Each level's :func:`first_least` over its rows, ``(row, value)``
    per level, the row an index into ``values``."""
    out = []
    for k in range(levels):
        rows = np.flatnonzero(depth >= k)
        i, best = first_least(values[rows])
        out.append((int(rows[i]) if i >= 0 else -1, best))
    return out
