"""Norms, product metrics, duality mappings and point-to-set distances.

The metric substrate consumed by every slope estimator: parametric
product distances on X x Y, the matching dual norm on X* x Y*, exact
duality mappings for euclidean / p / weighted-max norms, and the
q-weighted duality mapping with its normalized enlargement.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

import numpy as np

# +inf, the value of an empty infimum, is the float inf throughout; 0 * INF is nan
INF = math.inf

# tolerance of the duality mapping's two defining identities
DEFAULT_TOL = 1e-9

# Faces of l1/linf balls are enumerated explicitly; past this many free
# coordinates the vertex list grows as 2**z and is refused.
_MAX_FACE_FREE_COORDS = 12


class GeometryError(ValueError):
    """Invalid input to a geometric operation."""


def _as_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise GeometryError(f"expected a vector, got shape {arr.shape}")
    return arr


def is_inf(value: float) -> bool:
    return value == INF


def dot_left(u: Sequence, v: Sequence) -> float:
    """``u . v`` summed left to right on Python floats: no BLAS kernel picks its bits."""
    return reduce(operator.add, map(operator.mul, u, v))


def matvec_left(m: np.ndarray, t) -> np.ndarray:
    """``m t`` for a vector ``t``, ``t m^T`` for rows of ``t``, and a
    stack of matrices against their rows of ``t`` alike: each entry
    summed left to right from the first product, so no BLAS kernel picks
    its bits and a row's bits do not depend on the rows taken with it."""
    t = np.asarray(t, dtype=float)
    return reduce(np.add, (t[..., k : k + 1] * m[..., k] for k in range(m.shape[-1])))


@dataclass(frozen=True)
class NormSpec:
    """A norm on a finite-dimensional space.

    kind:
      * ``euclidean``            -- the l2 norm;
      * ``p``                    -- the lp norm, ``p`` in [1, inf];
      * ``weighted-max``         -- max_i w_i |v_i|, weights positive;
      * ``weighted-sum``         -- sum_i w_i |v_i| (arises as the dual
                                    of a weighted-max norm).
    """

    kind: str
    dim: int
    p: Optional[float] = None
    weights: Optional[tuple] = None

    def __post_init__(self):
        if self.dim < 1:
            raise GeometryError("dimension must be >= 1")
        if self.kind == "p":
            if self.p is None or self.p < 1:
                raise GeometryError("p-norm exponent must satisfy p >= 1")
        elif self.kind in ("weighted-max", "weighted-sum"):
            if self.weights is None or len(self.weights) != self.dim:
                raise GeometryError("weights must match the dimension")
            if any(w <= 0 for w in self.weights):
                raise GeometryError("weights must be positive")
        elif self.kind != "euclidean":
            raise GeometryError(f"unsupported norm kind {self.kind!r}")

    def value(self, v) -> float:
        v = _as_vector(v)
        if v.shape[0] != self.dim:
            raise GeometryError(f"vector of dim {v.shape[0]} in {self.dim}-dim space")
        if self.kind == "euclidean":
            if self.dim == 1:
                return abs(float(v[0]))
            return math.sqrt(dot_left(v.tolist(), v.tolist()))
        if self.kind == "p":
            if math.isinf(self.p):
                return float(np.max(np.abs(v)))
            if self.p == 1.0:
                return float(np.sum(np.abs(v)))
            return float(np.sum(np.abs(v) ** self.p) ** (1.0 / self.p))
        w = np.asarray(self.weights, dtype=float)
        if self.kind == "weighted-max":
            return float(np.max(w * np.abs(v)))
        return float(np.sum(w * np.abs(v)))

    def value_rows(self, m: np.ndarray) -> np.ndarray:
        """Norm of every row of a 2-d array (a 1-d array is a column of
        one-dimensional rows), equal bitwise to :meth:`value` of the row.
        Array powers round otherwise, so other finite ``p`` go row by row."""
        m = np.asarray(m, dtype=float)
        if m.ndim == 1:
            m = m.reshape(-1, 1)
        if self.kind == "euclidean":
            if self.dim == 1:
                return np.abs(m[:, 0])
            # value's sum of squares, in its order
            return np.sqrt(reduce(np.add, (m * m).T))
        if self.kind == "p":
            if math.isinf(self.p):
                return np.max(np.abs(m), axis=1)
            if self.p == 1.0:
                return np.sum(np.abs(m), axis=1)
            return np.array([self.value(v) for v in m], dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if self.kind == "weighted-max":
            return np.max(w * np.abs(m), axis=1)
        return np.sum(w * np.abs(m), axis=1)

    def dual(self) -> "NormSpec":
        """The dual norm: p <-> p/(p-1) (1 <-> inf), weighted-max <-> weighted-sum."""
        if self.kind == "euclidean":
            return self
        if self.kind == "p":
            if self.p == 1.0:
                return NormSpec("p", self.dim, p=math.inf)
            if math.isinf(self.p):
                return NormSpec("p", self.dim, p=1.0)
            return NormSpec("p", self.dim, p=self.p / (self.p - 1.0))
        inv = tuple(1.0 / w for w in self.weights)
        if self.kind == "weighted-max":
            return NormSpec("weighted-sum", self.dim, weights=inv)
        return NormSpec("weighted-max", self.dim, weights=inv)

    @property
    def smooth_off_origin(self) -> bool:
        return self.kind == "euclidean" or (
            self.kind == "p" and 1.0 < self.p < math.inf
        )


def euclidean(dim: int) -> NormSpec:
    return NormSpec("euclidean", dim)


@dataclass(frozen=True, eq=False)
class ProductPoint:
    """A point (x, y) of the product space X x Y."""

    x: np.ndarray
    y: np.ndarray

    def __init__(self, x, y):
        object.__setattr__(self, "x", _as_vector(x))
        object.__setattr__(self, "y", _as_vector(y))


@dataclass(frozen=True, eq=False)
class DualVectorSet:
    """Finite description of a set of dual vectors.

    ``singleton`` and ``vertices`` list the members explicitly (for a
    polytope face the members are its extreme points), ``ball`` is a
    dual-norm ball, ``empty`` is the empty set.
    """

    kind: str
    vectors: tuple = ()
    center: Optional[np.ndarray] = None
    radius: float = 0.0

    def __post_init__(self):
        if self.kind not in ("singleton", "vertices", "ball", "empty"):
            raise GeometryError(f"unsupported representation {self.kind!r}")
        if self.kind == "singleton" and len(self.vectors) != 1:
            raise GeometryError("singleton must hold exactly one vector")

    @staticmethod
    def singleton(v) -> "DualVectorSet":
        return DualVectorSet("singleton", (_as_vector(v),))

    @staticmethod
    def from_vertices(vs: Sequence) -> "DualVectorSet":
        vecs = tuple(_as_vector(v) for v in vs)
        if len(vecs) == 1:
            return DualVectorSet("singleton", vecs)
        return DualVectorSet("vertices", vecs)

    @staticmethod
    def empty() -> "DualVectorSet":
        return DualVectorSet("empty")

    @staticmethod
    def ball(center, radius: float) -> "DualVectorSet":
        return DualVectorSet("ball", (), _as_vector(center), float(radius))

    def members(self) -> tuple:
        if self.kind in ("singleton", "vertices"):
            return self.vectors
        raise GeometryError(f"{self.kind} set has no finite member list")

    def is_empty(self) -> bool:
        return self.kind == "empty"

    def min_norm(self, dual_norm: NormSpec) -> float:
        """Smallest dual norm over the described set."""
        if self.kind == "empty":
            return INF
        if self.kind == "ball":
            return max(dual_norm.value(self.center) - self.radius, 0.0)
        return min(dual_norm.value(v) for v in self.vectors)


def prod_dist(
    p1: ProductPoint,
    p2: ProductPoint,
    rho: float,
    variant: str = "max",
    norm_x: Optional[NormSpec] = None,
    norm_y: Optional[NormSpec] = None,
) -> float:
    """Parametric product distance: ``max{d(x1,x2), rho*d(y1,y2)}`` for
    the max variant, ``d(x1,x2) + rho*d(y1,y2)`` for the sum variant.

    The max variant never exceeds the sum variant, so any metric wedged
    between the two is admissible for the characterization results.
    """
    if rho <= 0:
        raise GeometryError("rho must be positive")
    if variant not in ("max", "sum"):
        raise GeometryError(f"unknown variant {variant!r}")
    if p1.x.shape != p2.x.shape or p1.y.shape != p2.y.shape:
        raise GeometryError("dimension mismatch between product points")
    nx = norm_x or euclidean(p1.x.shape[0])
    ny = norm_y or euclidean(p1.y.shape[0])
    dx = nx.value(p1.x - p2.x)
    dy = ny.value(p1.y - p2.y)
    if variant == "max":
        return max(dx, rho * dy)
    return dx + rho * dy


def dual_norm_rho(
    xstar,
    ystar,
    rho: float,
    norm_x: Optional[NormSpec] = None,
    norm_y: Optional[NormSpec] = None,
) -> float:
    """Dual norm of the rho-weighted max product norm:
    ``|x*| + rho^{-1} |y*|`` in the respective dual norms."""
    if rho <= 0:
        raise GeometryError("rho must be positive")
    xstar = _as_vector(xstar)
    ystar = _as_vector(ystar)
    nx = (norm_x or euclidean(xstar.shape[0])).dual()
    ny = (norm_y or euclidean(ystar.shape[0])).dual()
    return nx.value(xstar) + ny.value(ystar) / rho


def duality_map(y, norm: NormSpec) -> DualVectorSet:
    """The normalized duality mapping at ``y != 0``: unit dual vectors
    attaining the norm, ``<y*, y> = |y|``.

    Smooth norms (euclidean, p in (1, inf)) give a singleton; l1 / linf
    / weighted-max give the extreme points of the attaining face.
    The map is odd: the output at ``-y`` is the negation of the output
    at ``y`` element-wise.
    """
    y = _as_vector(y)
    ny = norm.value(y)
    if ny <= 0.0:
        raise GeometryError("duality mapping rejected at the origin")

    if norm.kind == "euclidean":
        out = DualVectorSet.singleton(y / ny)
    elif norm.kind == "p" and not math.isinf(norm.p) and norm.p > 1.0:
        p = norm.p
        g = np.sign(y) * np.abs(y) ** (p - 1.0) / ny ** (p - 1.0)
        out = DualVectorSet.singleton(g)
    elif norm.kind == "p" and norm.p == 1.0:
        support = np.abs(y) > 0.0
        free = np.flatnonzero(~support)
        if len(free) > _MAX_FACE_FREE_COORDS:
            raise GeometryError("degenerate l1 face too large to enumerate")
        base = np.sign(y).astype(float)
        if len(free) == 0:
            out = DualVectorSet.singleton(base)
        else:
            verts = []
            for mask in range(1 << len(free)):
                v = base.copy()
                for k, idx in enumerate(free):
                    v[idx] = 1.0 if (mask >> k) & 1 else -1.0
                verts.append(v)
            out = DualVectorSet.from_vertices(verts)
    elif (norm.kind == "p" and math.isinf(norm.p)) or norm.kind == "weighted-max":
        if norm.kind == "weighted-max":
            w = np.asarray(norm.weights, dtype=float)
        else:
            w = np.ones_like(y)
        scaled = w * np.abs(y)
        argmax = np.flatnonzero(scaled >= ny * (1.0 - 1e-14))
        verts = []
        for idx in argmax:
            v = np.zeros_like(y)
            v[idx] = w[idx] * np.sign(y[idx])
            verts.append(v)
        out = DualVectorSet.from_vertices(verts)
    else:
        raise GeometryError(f"duality mapping unsupported for {norm.kind!r}")

    dual, y = norm.dual(), y.tolist()
    for v in out.members():
        pairing = dot_left(v.tolist(), y)
        if abs(dual.value(v) - 1.0) > DEFAULT_TOL or abs(pairing - ny) > DEFAULT_TOL * ny:
            raise GeometryError("duality mapping output failed its defining identities")
    return out


def duality_faces(rows, norm: NormSpec) -> list:
    """``[duality_map(r, norm).members() for r in rows]``.  A euclidean
    face is the singleton ``r / |r|``: every row's is formed and checked
    against both defining identities at once, with the same sums as
    :func:`duality_map`; other norms go row by row."""
    rows = np.asarray(rows, dtype=float)
    if norm.kind != "euclidean":
        return [duality_map(r, norm).members() for r in rows]
    ny = norm.value_rows(rows)
    if (ny <= 0.0).any():
        raise GeometryError("duality mapping rejected at the origin")
    faces = rows / ny[:, None]
    pairing = reduce(np.add, (faces * rows).T)  # dot_left's order
    off_unit = np.abs(norm.value_rows(faces) - 1.0) > DEFAULT_TOL
    if off_unit.any() or (np.abs(pairing - ny) > DEFAULT_TOL * ny).any():
        raise GeometryError("duality mapping output failed its defining identities")
    return [(face,) for face in faces]


def q_duality_enlargement(
    y,
    q: float,
    eps: float,
    budget: int,
    seed: int,
    norm: Optional[NormSpec] = None,
    normalized: Optional[bool] = None,
) -> DualVectorSet:
    """q-weighted duality mapping and its normalized enlargement.

    ``eps == 0`` returns ``q|y|^{q-1} * J(y)`` un-normalized (pass
    ``normalized=True`` for the zero-enlargement normalized variant,
    which collapses back to J(y)).  ``eps > 0`` is the one-level read of
    :func:`enlargement_rows`: the set ``{(y* + eps v*)/|y* + eps v*| :
    y* in q|y|^{q-1}J(y), |v*| <= 1}`` sampled at ``v* = 0`` and at
    ``budget`` dual-sphere directions drawn from the seed.
    """
    y = _as_vector(y)
    if not 0.0 < q <= 1.0:
        raise GeometryError("q must lie in (0, 1]")
    if eps < 0:
        raise GeometryError("eps must be nonnegative")
    norm = norm or euclidean(y.shape[0])
    face = np.array(duality_map(y, norm).members())
    scale = q * norm.value(y) ** (q - 1.0)
    dual = norm.dual()
    if normalized is None:
        normalized = eps > 0

    if eps == 0.0:
        if not normalized:
            return DualVectorSet.from_vertices([scale * j for j in face])
        out = []
        for j in face:
            n = dual.value(scale * j)
            if n > 0:
                out.append(scale * j / n)
        return DualVectorSet.from_vertices(out)

    perturbations = enlargement_perturbations(y.shape[0], dual, budget, seed)
    cand, kept = enlargement_rows(scale * face, [eps], perturbations, dual)
    if not kept.any():
        return DualVectorSet.empty()
    return DualVectorSet.from_vertices(cand[kept])


def enlargement_perturbations(dim: int, dual: NormSpec, budget: int, seed: int) -> np.ndarray:
    """The perturbations ``v*`` of the normalized enlargement, as rows:
    0, then the dual-sphere directions of the seed."""
    return np.array([np.zeros(dim), *_dual_ball_directions(dim, dual, budget, seed)])


def enlargement_rows(ystar: np.ndarray, eps, perturbations: np.ndarray, dual: NormSpec) -> tuple:
    """The normalized enlargement ``(y* + eps v*)/|y* + eps v*|`` for
    every ``eps`` of the sequence, centre ``y*`` (a row of ``ystar``) and
    perturbation ``v*`` (a row of ``perturbations``), as ``(cand,
    kept)`` on that (eps, centre, perturbation) grid: ``kept`` marks the
    candidates whose unnormalized dual norm exceeds 1e-15, which
    ``cand`` holds normalized.
    """
    eps = np.asarray(eps, dtype=float)
    cand = ystar[None, :, None, :] + eps[:, None, None, None] * perturbations[None, None, :, :]
    n = dual.value_rows(cand.reshape(-1, ystar.shape[1])).reshape(cand.shape[:3])
    kept = ~(n <= 1e-15)
    np.divide(cand, n[..., None], out=cand, where=kept[..., None])
    return cand, kept


def distinct_rows(m: np.ndarray) -> tuple:
    """``np.unique`` of the rows of ``m`` by their bytes, as seeds key
    points (so -0.0 and 0.0 differ): the first index, the inverse and the
    count of each distinct row."""
    m = np.ascontiguousarray(m, dtype=float)
    keys = m.view(np.dtype((np.void, m.dtype.itemsize * m.shape[1]))).ravel()
    return np.unique(keys, return_index=True, return_inverse=True, return_counts=True)[1:]


def _dual_ball_directions(dim: int, dual: NormSpec, budget: int, seed: int) -> tuple:
    """Deterministic unit-dual-norm directions spanning the ball
    boundary."""
    if dim == 1:
        w = dual.value(np.ones(1))
        return (np.array([1.0 / w]), np.array([-1.0 / w]))
    dirs = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        n = dual.value(e)
        dirs.append(e / n)
        dirs.append(-e / n)
    rng = np.random.default_rng(seed)
    extra = max(0, budget - len(dirs))
    for _ in range(extra):
        g = rng.standard_normal(dim)
        n = dual.value(g)
        if n > 1e-12:
            dirs.append(g / n)
    return tuple(dirs)


def xi_q(y, ybar, q: float, norm: Optional[NormSpec] = None) -> float:
    """The radius rescaling factor ``|y - ybar|^{1-q} / q`` (y != ybar)."""
    y = _as_vector(y)
    ybar = _as_vector(ybar)
    if not 0.0 < q <= 1.0:
        raise GeometryError("q must lie in (0, 1]")
    norm = norm or euclidean(y.shape[0])
    d = norm.value(y - ybar)
    if d <= 0.0:
        raise GeometryError("xi_q undefined at y == ybar")
    return d ** (1.0 - q) / q


def point_to_set_distance(x, points: Sequence, norm: Optional[NormSpec] = None) -> float:
    """Exact minimum distance from ``x`` to a finite point list; the
    distance to the empty set is ``INF``."""
    x = _as_vector(x)
    if len(points) == 0:
        return INF
    norm = norm or euclidean(x.shape[0])
    return min(norm.value(x - _as_vector(p)) for p in points)
