"""Set-valued mapping problems: graph oracles, anchors, samplers, catalog.

A :class:`MappingProblem` packages the graph of ``F : X =: Y`` around an
anchor ``(xbar, ybar)`` in gph F together with whatever analytic side
oracles are available (solution-set distance, fiber distance,
coderivative).  Sampling is deterministic quasi-random in the graph's
parameter domain, augmented with a geometric approach stencil so that
limit-type suprema see candidates arbitrarily close to their center.
"""

from __future__ import annotations

import numbers
import operator
import zlib
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import (
    INF,
    DualVectorSet,
    NormSpec,
    ProductPoint,
    distinct_rows,
    euclidean,
    is_finite_real,
    is_order,
    matvec_left,
)

MEMBERSHIP_TOL = 1e-9
# Points count as outside F^{-1}(ybar) when their solution distance
# exceeds this; strict non-membership is not decidable from samples.
EPS_MEM = 1e-7

_HALTON_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


class ProblemError(ValueError):
    """Invalid problem construction or query."""


class UnknownProblemError(KeyError):
    """Requested catalog entry does not exist."""


def is_integer(value) -> bool:
    """An integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def mix_seed(seed: int, *tags) -> int:
    """Stable derived seed; avoids Python's randomized string hashing."""
    text = repr((int(seed),) + tags).encode()
    return zlib.crc32(text) & 0x7FFFFFFF


# Radical-inverse columns, one per prime base.  Entry k is the radical
# inverse of k + 1 and depends on k alone, so a prefix of a longer column
# is bitwise the shorter column: the table is a pure function of (base,
# index) that only ever grows.
_RADICAL_INVERSE = {}


def _radical_inverse(base: int, count: int) -> np.ndarray:
    """Read-only radical inverses of ``1..count`` in ``base``."""
    col = _RADICAL_INVERSE.get(base)
    have = 0 if col is None else col.shape[0]
    if have < count:
        rem = np.arange(have + 1, count + 1, dtype=np.int64)
        ext = np.zeros(count - have)
        denom = 1.0
        while np.any(rem > 0):
            denom *= base
            ext += (rem % base) / denom
            rem //= base
        col = ext if col is None else np.concatenate([col, ext])
        col.flags.writeable = False
        _RADICAL_INVERSE[base] = col
    return col[:count]


def _halton_table(dim: int, count: int) -> np.ndarray:
    """Unshifted Halton points ``1..count`` in [0,1)^dim, one per row."""
    if dim > len(_HALTON_PRIMES):
        raise ProblemError("parameter dimension too large for the sampler")
    out = np.empty((count, dim))
    for j in range(dim):
        out[:, j] = _radical_inverse(_HALTON_PRIMES[j], count)
    return out


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int) -> Callable[[int], int]:
    """SeedSequence's 32-bit hash, whose multiplier advances per call."""

    def hash32(value: int) -> int:
        nonlocal const
        value ^= const
        const = (const * mult) & _M32
        value = (value * const) & _M32
        return value ^ (value >> 16)

    return hash32


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ (r >> 16)


def halton_shift(seed: int, dim: int) -> np.ndarray:
    """``np.random.default_rng(seed).random(dim)``, bitwise, in pure Python.

    The stream is PCG64 (XSL-RR output) seeded through a four-word
    ``SeedSequence`` (O'Neill 2014; NumPy NEP 19); computing it here
    keeps ``numpy.random`` and its import out of every sampler whose
    parameter space is at most one-dimensional.  A negative seed raises
    :class:`ValueError`, as ``SeedSequence`` does."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        entropy.append(seed & _M32)
    # SeedSequence(seed): mix the entropy words into a pool of four
    mixhash = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [mixhash(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], mixhash(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], mixhash(word))
    # generate_state(4, uint64): eight hashed words, little-endian pairs
    statehash = _hasher(0x8B51F9DD, 0x58F38DED)
    words = [statehash(pool[i % 4]) for i in range(8)]
    s = [words[2 * i] | words[2 * i + 1] << 32 for i in range(4)]
    # PCG64 srandom: state 0, step, add the initial state, step
    inc = (((s[2] << 64 | s[3]) << 1) | 1) & _M128
    state = ((inc + (s[0] << 64 | s[1])) * _PCG_MULT + inc) & _M128
    out = []
    for _ in range(dim):
        state = (state * _PCG_MULT + inc) & _M128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _M64
        x = ((x >> rot) | (x << (64 - rot))) & _M64
        out.append((x >> 11) * 2.0**-53)
    return np.array(out)


def halton_points(dim: int, count: int, seed: int) -> np.ndarray:
    """Halton points ``1..count`` in [0,1)^dim, ``dim`` at most 10 (else
    :class:`ProblemError`), shifted modulo 1 by :func:`halton_shift` of
    ``seed``; deterministic forever."""
    if count <= 0:
        return np.zeros((0, dim))
    return (_halton_table(dim, count) + halton_shift(seed, dim)) % 1.0


@dataclass(frozen=True)
class Schedule:
    """Discretization of the limit constructions.

    ``rho0 * factor**k`` gives the geometric rho ladder, the
    neighborhood radii are relative to each evaluation point's scale,
    and every sampler derives its substream from ``seed``.
    """

    rho0: float = 0.5
    factor: float = 0.5
    steps: int = 12
    neighborhood_radii: tuple = (
        0.25,
        0.05,
        0.01,
        2e-3,
        4e-4,
        8e-5,
        1.6e-5,
        3.2e-6,
        6.4e-7,
        1.28e-7,
        2.56e-8,
    )
    sample_budget: int = 4096
    truncation_radius: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        for name in ("rho0", "factor"):
            value = getattr(self, name)
            if not is_finite_real(value):
                raise ProblemError(f"{name} must be a finite number, got {value!r}")
        for name in ("steps", "sample_budget", "seed"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ProblemError(f"{name} must be an integer, got {value!r}")
        if self.rho0 <= 0 or not 0.0 < self.factor < 1.0 or self.steps < 1:
            raise ProblemError("schedule requires rho0 > 0, factor in (0,1), steps >= 1")
        if not self.rho0 * self.factor ** (self.steps - 1) > 0.0:
            raise ProblemError("the finest rho, rho0 * factor**(steps - 1), underflows to 0")
        if self.sample_budget < 1:
            raise ProblemError("sample budget must be positive")
        # a tuple, so that the schedule stays hashable (the pool cache keys on it)
        radii = tuple(self.neighborhood_radii)
        object.__setattr__(self, "neighborhood_radii", radii)
        if not radii or not all(is_finite_real(r) and r > 0 for r in radii):
            raise ProblemError("neighborhood radii must be positive finite numbers")
        if any(b >= a for a, b in zip(radii, radii[1:])):
            raise ProblemError("neighborhood radii must be strictly decreasing")
        trunc = self.truncation_radius
        if trunc is not None and not (is_finite_real(trunc) and trunc > 0):
            raise ProblemError("truncation radius must be a positive finite number")

    def rho_values(self) -> list:
        return [self.rho0 * self.factor**k for k in range(self.steps)]

    def outer_samples_per_level(self) -> int:
        return max(24, self.sample_budget // 128)


@dataclass(frozen=True, eq=False)
class MappingProblem:
    """A set-valued mapping given by graph oracles around an anchor point.

    ``param_to_graph_batch`` maps parameter vectors (one per row) onto
    graph points, returning the x and y rows; every built-in problem
    sets it.  ``param_to_graph``, one parameter vector onto one graph
    point, is the fallback the samplers map row by row for a problem
    without a batch map; no built-in problem sets it.  All catalog
    entries carry analytic ``solution_distance`` (distance to
    F^{-1}(ybar)), ``fiber_distance`` (distance from ybar to F(x)) and,
    where available, one description of the coderivative D*F, never two.
    A single-valued map, strictly differentiable wherever it is read,
    carries ``coderivative_matrix``, mapping (x, y) to its Jacobian M,
    shaped (dim_y, dim_x), with D*F(x,y)(y*) = {M^T y*}, or to ``None``
    where it has no such description (a kink, a point off the domain).
    Only an image no matrix gives takes the ``coderivative`` oracle,
    mapping (x, y, y*) to a finite description of D*F(x,y)(y*) (``None``
    when unknown at that point).  :meth:`coderivative_image` reads
    either.
    """

    name: str
    dim_x: int
    dim_y: int
    norm_x: NormSpec
    norm_y: NormSpec
    xbar: np.ndarray
    ybar: np.ndarray
    graph_membership: Callable[[np.ndarray, np.ndarray], bool]
    param_dim: int = 1
    param_to_graph: Optional[Callable[[np.ndarray], tuple]] = None
    param_to_graph_batch: Optional[Callable[[np.ndarray], tuple]] = None
    param_of: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    param_window: Optional[Callable[[np.ndarray, float], tuple]] = None
    solution_distance: Optional[Callable[[np.ndarray], float]] = None
    fiber_distance: Optional[Callable[[np.ndarray], float]] = None
    coderivative: Optional[Callable] = None
    coderivative_matrix: Optional[Callable] = None
    graph_points: Optional[tuple] = None
    convex: bool = False
    graph_locally_closed: bool = True
    canonical_q: float = 1.0

    def __post_init__(self):
        xbar = np.asarray(self.xbar, dtype=float).reshape(-1)
        ybar = np.asarray(self.ybar, dtype=float).reshape(-1)
        object.__setattr__(self, "xbar", xbar)
        object.__setattr__(self, "ybar", ybar)
        if xbar.shape[0] != self.dim_x or ybar.shape[0] != self.dim_y:
            raise ProblemError("anchor dimensions do not match the problem")
        if not self.graph_membership(xbar, ybar):
            raise ProblemError("anchor point must lie on the graph")
        if self.coderivative is not None and self.coderivative_matrix is not None:
            raise ProblemError("give the coderivative as a matrix or as an oracle, not both")

    @property
    def has_coderivative(self) -> bool:
        return self.coderivative is not None or self.coderivative_matrix is not None

    def coderivative_image(self, x, y, ystar) -> Optional[DualVectorSet]:
        """D*F(x,y)(y*): the oracle's set, or the singleton M^T y* summed
        left to right (:func:`~subreg.geometry.matvec_left`); ``None``
        where the problem has no description there."""
        if self.coderivative is not None:
            return self.coderivative(x, y, ystar)
        m = None if self.coderivative_matrix is None else self.coderivative_matrix(x, y)
        if m is None:
            return None
        return DualVectorSet.singleton(matvec_left(np.asarray(m, dtype=float).T, ystar))

    @property
    def anchor(self) -> ProductPoint:
        return ProductPoint(self.xbar, self.ybar)

    def d_x(self, a, b) -> float:
        return self.norm_x.value(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))

    def d_y(self, a, b) -> float:
        return self.norm_y.value(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))

    def product_dist(self, p: ProductPoint, q: ProductPoint) -> float:
        return max(self.d_x(p.x, q.x), self.d_y(p.y, q.y))

    def solution_dist_exact(self, x) -> Optional[float]:
        if self.solution_distance is None:
            return None
        return float(self.solution_distance(np.asarray(x, dtype=float).reshape(-1)))


@dataclass(frozen=True, eq=False)
class ErrorFunction:
    """The induced two-variable error function of a mapping problem:
    ``d(y, ybar)**q`` on the graph and ``INF`` off it.

    It reads its anchor, norms and solution distance from the problem
    and is taken wherever a
    :class:`~subreg.slopes_primal.TwoVariableFunction` is.  :meth:`value`
    tests membership; :meth:`rows` evaluates ``f`` only on the graph rows
    it draws, with no membership test."""

    problem: MappingProblem
    q: float

    xbar = property(lambda self: self.problem.xbar)
    ybar = property(lambda self: self.problem.ybar)
    norm_x = property(lambda self: self.problem.norm_x)
    norm_y = property(lambda self: self.problem.norm_y)
    solution_distance = property(lambda self: self.problem.solution_distance)

    def __post_init__(self):
        if not is_order(self.q):
            raise ProblemError("q must lie in (0, 1]")

    def value(self, x, y) -> float:
        x = np.asarray(x, dtype=float).reshape(-1)
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.shape[0] != self.problem.dim_x or y.shape[0] != self.problem.dim_y:
            raise ProblemError("dimension mismatch")
        if not self.problem.graph_membership(x, y):
            return INF
        return float(self.problem.d_y(y, self.problem.ybar) ** self.q)

    def rows(self, calls: Sequence[tuple]) -> tuple:
        """The graph rows of many ``(center, radius, budget, seed)`` calls,
        from one :func:`sample_graph_batch` pass, and ``f = d(v,
        ybar)**q`` per row: ``(ux, vy, f, counts)``."""
        ux, vy, counts = sample_graph_batch(self.problem, calls)
        return ux, vy, q_powers(self.norm_y.value_rows(vy - self.ybar), self.q), counts


@dataclass(frozen=True)
class DistanceEstimate:
    value: float
    exact: bool
    truncated: bool = False


def halving_ladder(start, stop, cap: int) -> tuple:
    """Geometric approach offsets ``start * 2**-j`` for ``j < cap`` (a
    row of them per entry when ``start`` is an array) and the mask of
    those at or above ``stop``, a prefix of each row.  The offsets equal
    repeated halving bitwise wherever they stay normal numbers, so every
    offset kept is exact for any ``stop`` above 2.3e-308."""
    offs = np.ldexp(np.asarray(start, dtype=float)[..., None], -np.arange(cap))
    return offs, offs >= np.asarray(stop, dtype=float)[..., None]


def _sphere_directions(dim: int, count: int, seed: int) -> np.ndarray:
    """Unit directions (rows) for multi-dimensional parameter stencils.

    In two dimensions the circle grid is emitted in bit-reversed order
    so every prefix is itself a near-uniform grid (budget-truncated
    gathers keep spread directions); higher dimensions use seeded
    normalized gaussians.
    """
    if dim == 2:
        # the bit-reversed fractions i / 2**bits: each doubling appends
        # the previous ones shifted by the next power of two
        frac, step = np.zeros(1), 0.5
        while frac.size < count:
            frac, step = np.concatenate([frac, frac + step]), step / 2
        angles = 2.0 * np.pi * frac[:count]
        return np.column_stack([np.cos(angles), np.sin(angles)])
    rng = np.random.default_rng(seed)
    dirs = []
    while len(dirs) < count:
        g = rng.standard_normal(dim)
        n = euclidean(dim).value(g)
        if n > 1e-12:
            dirs.append(g / n)
    return np.array(dirs)


def radius_pads(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Additive slack for radius filters around the centres ``(xs[i],
    ys[i])``: candidates are built by perturbing a center's parameter, so
    distances carry rounding of the order of the center's ulp even for
    radii far below it."""
    scale = 1.0 + np.max(np.abs(xs), axis=1) + np.max(np.abs(ys), axis=1)
    return 64.0 * np.finfo(float).eps * scale


def radius_pad(center: ProductPoint) -> float:
    """:func:`radius_pads` of one center."""
    x = np.asarray(center.x, dtype=float).reshape(1, -1)
    return float(radius_pads(x, np.asarray(center.y, dtype=float).reshape(1, -1))[0])


def _batch_to_graph(problem: MappingProblem, params: np.ndarray) -> tuple:
    if problem.param_to_graph_batch is not None:
        x, y = problem.param_to_graph_batch(params)
        return np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    xs, ys = [], []
    for t in params:
        x, y = problem.param_to_graph(t)
        xs.append(np.asarray(x, dtype=float).reshape(-1))
        ys.append(np.asarray(y, dtype=float).reshape(-1))
    return np.array(xs), np.array(ys)


def _call_dirs(dim: int, count: int, seeds: Sequence[int]) -> np.ndarray:
    """Stencil directions of each call, ``(calls or 1, count, dim)``."""
    if dim == 2:  # the circle grid ignores the seed: one grid serves every call
        return _sphere_directions(2, count, 0)[None]
    return np.stack([_sphere_directions(dim, count, mix_seed(s, "sphere")) for s in seeds])


def _rings(t0, lo, hi, dirs, fracs: tuple) -> np.ndarray:
    # direction-resolved rings at geometric radii: quasi-random fills
    # leave angular gaps that starve direction-sensitive suprema, and
    # graph maps with operator norm above one push full-radius steps past
    # the product-distance cutoff, so smaller radii must be present too
    h_vec = np.maximum(hi - t0, t0 - lo)
    fr = np.asarray(fracs)[None, :, None, None]
    block = t0[:, None, None, :] + fr * dirs[:, None, :, :] * h_vec[:, None, None, :]
    return np.clip(block.reshape(t0.shape[0], -1, t0.shape[1]), lo[:, None, :], hi[:, None, :])


def _head_params(t0, lo, hi, seeds) -> tuple:
    """The first parameter rows of each call, ``(calls, rows, dim)``, and
    which of them exist: the centre, the coarse rings, the window corners
    and one halving stencil per axis."""
    n, dim = t0.shape
    blocks = [t0[:, None, :]]
    if dim >= 2:
        blocks.append(_rings(t0, lo, hi, _call_dirs(dim, 32, seeds), (1.0, 0.25, 0.0625, 0.015625)))
    # corners of the window (cheap for the low parameter dimensions here)
    if dim <= 3:
        bits = (np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1
        blocks.append(np.where(bits[None], hi[:, None, :], lo[:, None, :]))
    valid = [np.ones((n, sum(b.shape[1] for b in blocks)), dtype=bool)]
    center_scale = np.max(np.abs(t0), axis=1)
    for i in range(dim):
        h = np.maximum(hi[:, i] - t0[:, i], t0[:, i] - lo[:, i])
        # the descent stops at roughly eight relative digits of the
        # center's scale: closer candidates contribute only
        # cancellation noise to the descent ratios (and the floor
        # stays above the exclusion band)
        stop = np.maximum(np.maximum(1e-9 * h, 1e-8 * center_scale), 2e-12)
        offs, keep = halving_ladder(h, stop, 64)
        steps = np.stack([t0[:, i, None] + offs, t0[:, i, None] - offs], axis=2).reshape(n, -1)
        block = np.repeat(t0[:, None, :], steps.shape[1], axis=1)
        block[:, :, i] = np.clip(steps, lo[:, i, None], hi[:, i, None])
        blocks.append(block)
        valid.append(np.repeat(keep & (h > 0)[:, None], 2, axis=1))
    return np.concatenate(blocks, axis=1), np.concatenate(valid, axis=1)


def _tail_params(t0, lo, hi, seeds, fill: np.ndarray) -> tuple:
    """The last parameter rows of each call, as :func:`_head_params`
    gives the first: the fine ring and ``fill[i]`` Halton points."""
    n, dim = t0.shape
    blocks, valid = [], []
    if dim >= 2:
        fracs = tuple(0.5**k for k in range(8))
        blocks.append(_rings(t0, lo, hi, _call_dirs(dim, 256, seeds), fracs))
        valid.append(np.ones(blocks[0].shape[:2], dtype=bool))
    width = int(fill.max())
    if width:
        table = _halton_table(dim, width)
        # each call keeps its own seeded shift
        shift = np.zeros((n, dim))
        for j in np.flatnonzero(fill):
            shift[j] = halton_shift(mix_seed(seeds[j], "halton"), dim)
        u = (table[None] + shift[:, None, :]) % 1.0
        blocks.append(lo[:, None, :] + u * (hi - lo)[:, None, :])
        valid.append(np.arange(width)[None, :] < fill[:, None])
    return np.concatenate(blocks, axis=1), np.concatenate(valid, axis=1)


def sample_graph_batch(problem: MappingProblem, calls: Sequence[tuple]) -> tuple:
    """:func:`sample_graph_arrays` for many ``(center, radius, budget,
    seed)`` calls at once, bitwise.

    Returns ``(ux, vy, counts)``: the rows every call keeps, concatenated
    in call order, and how many each call kept.  The parameter rows of
    all calls are built as arrays, and one graph map, norm pass and
    cutoff filter serve them.  A call whose first rows (centre, coarse
    rings, corners, stencils) can fill its budget maps its fine ring and
    Halton fill in a second pass, and only if they did not.
    """
    n = len(calls)
    if any(radius <= 0 for _, radius, _, _ in calls):
        raise ProblemError("radius must be positive")
    budgets = np.array([budget for _, _, budget, _ in calls], dtype=np.int64)
    live = np.flatnonzero(budgets > 0)
    if not live.size:
        empty = np.zeros((0, problem.dim_x)), np.zeros((0, problem.dim_y))
        return empty + (np.zeros(n, dtype=np.int64),)
    cx = np.array([np.asarray(c.x, dtype=float).reshape(-1) for c, _, _, _ in calls])
    cy = np.array([np.asarray(c.y, dtype=float).reshape(-1) for c, _, _, _ in calls])
    cutoff = np.array([radius * (1.0 + 1e-12) for _, radius, _, _ in calls]) + radius_pads(cx, cy)

    def stage(owner, ux, vy):
        dx = problem.norm_x.value_rows(ux - cx[owner])
        dy = problem.norm_y.value_rows(vy - cy[owner])
        return ux, vy, owner, np.maximum(dx, dy) <= cutoff[owner]

    if problem.graph_points is not None:
        gx = np.array([p.x for p in problem.graph_points], dtype=float)
        gy = np.array([p.y for p in problem.graph_points], dtype=float)
        owner = np.repeat(live, gx.shape[0])
        stages = [stage(owner, np.tile(gx, (live.size, 1)), np.tile(gy, (live.size, 1)))]
    else:
        t0, lo, hi = [], [], []
        for i in live:
            center, radius = calls[i][0], calls[i][1]
            t = np.asarray(problem.param_of(center.x, center.y), dtype=float).reshape(-1)
            window = problem.param_window(t, radius)
            t0.append(t)
            lo.append(np.asarray(window[0], dtype=float))
            hi.append(np.asarray(window[1], dtype=float))
        t0, lo, hi = np.array(t0), np.array(lo), np.array(hi)
        seeds = [calls[i][3] for i in live]
        head, head_ok = _head_params(t0, lo, hi, seeds)
        head_rows = head_ok.sum(axis=1)
        ring_rows = 8 * 256 if t0.shape[1] >= 2 else 0
        fill = np.maximum(0, budgets[live] - head_rows - ring_rows)
        has_tail = (fill > 0) | (ring_rows > 0)
        # a head shorter than the budget cannot fill it: map the tail with it
        eager = np.flatnonzero(has_tail & (head_rows < budgets[live]))

        def tails(sel):
            tail, ok = _tail_params(t0[sel], lo[sel], hi[sel], [seeds[j] for j in sel], fill[sel])
            return live[sel][np.nonzero(ok)[0]], tail[ok]

        parts = [(live[np.nonzero(head_ok)[0]], head[head_ok])]
        if eager.size:
            parts.append(tails(eager))
        owner = np.concatenate([o for o, _ in parts])
        stages = [stage(owner, *_batch_to_graph(problem, np.concatenate([t for _, t in parts])))]
        held = np.bincount(owner[stages[0][3]], minlength=n)[live]
        later = np.flatnonzero(has_tail & (head_rows >= budgets[live]) & (held < budgets[live]))
        if later.size:
            owner, params = tails(later)
            stages.append(stage(owner, *_batch_to_graph(problem, params)))

    ux, vy, owner, within = (np.concatenate(column) for column in zip(*stages))
    kept = np.flatnonzero(within)
    # stable: a call's tail rows follow its head rows
    kept = kept[np.argsort(owner[kept], kind="stable")]
    counts = np.bincount(owner[kept], minlength=n)
    rank = np.arange(kept.size) - np.repeat(np.cumsum(counts) - counts, counts)
    kept = kept[rank < budgets[owner[kept]]]
    return ux[kept], vy[kept], np.bincount(owner[kept], minlength=n)


def sample_graph_arrays(
    problem: MappingProblem,
    center: ProductPoint,
    radius: float,
    budget: int,
    seed: int,
) -> tuple:
    """The graph points within ``radius`` of ``center`` in the plain max
    product metric, as ``(ux, vy)`` rows: :func:`sample_graph_batch` of
    the one call ``(center, radius, budget, seed)``.

    Quasi-random fill of the parameter window around the center's
    parameter, plus a per-axis geometric approach stencil and the window
    corners.  A zero budget yields no rows; every row satisfies the
    membership predicate by construction.
    """
    ux, vy, _ = sample_graph_batch(problem, [(center, radius, budget, seed)])
    return ux, vy


def _anchor_zeros(problem: MappingProblem, radius: float, schedule: Schedule) -> np.ndarray:
    """x rows of the anchor sample within ``radius`` whose y sits on ybar
    within the membership tolerance."""
    ux, vy = sample_graph_arrays(
        problem,
        problem.anchor,
        radius,
        schedule.sample_budget,
        mix_seed(schedule.seed, "soldist"),
    )
    return ux[problem.norm_y.value_rows(vy - problem.ybar) <= MEMBERSHIP_TOL]


def solution_set_distance(
    problem: MappingProblem, x, schedule: Schedule, anchor_zeros: Optional[dict] = None
) -> DistanceEstimate:
    """Distance from ``x`` to F^{-1}(ybar): exact through the oracle,
    otherwise a lower-biased estimate against sampled graph points whose
    y-component sits on ybar within the membership tolerance.

    The sample depends on ``x`` only through its radius; pass one dict as
    ``anchor_zeros`` to several calls to draw it once per radius.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    exact = problem.solution_dist_exact(x)
    if exact is not None:
        return DistanceEstimate(exact, exact=True)
    radius = schedule.truncation_radius or 10.0 * max(1.0, problem.d_x(x, problem.xbar))
    if anchor_zeros is None:
        anchor_zeros = {}
    if radius not in anchor_zeros:
        anchor_zeros[radius] = _anchor_zeros(problem, radius, schedule)
    best = None
    for z in anchor_zeros[radius]:
        d = problem.d_x(x, z)
        if best is None or d < best:
            best = d
    if best is None:
        return DistanceEstimate(INF, exact=False, truncated=True)
    return DistanceEstimate(best, exact=False)


def distinct_window_rows(rows: np.ndarray, level: np.ndarray, radii: Sequence[float]) -> tuple:
    """The distinct rows (by bytes, as seeds key points) whose ``level``
    lies below ``radii[0]``, as ``(index, depth, copies)``: each one's
    first row, the finest ``k`` with ``level < radii[k]`` on the
    decreasing ladder ``radii`` and its number of rows.  They come
    stably in depth order, first-draw order within a depth, so window
    ``k`` (the rows of depth ``k`` or more) is a suffix."""
    inside = np.flatnonzero(level < radii[0])
    first, _, copies = distinct_rows(rows[inside])
    depth = (level[inside[first], None] < np.asarray(radii, dtype=float)).sum(axis=1) - 1
    order = np.lexsort((first, depth))  # by depth, then by first draw
    return inside[first[order]], depth[order], copies[order]


def q_powers(values: np.ndarray, q: float) -> np.ndarray:
    """``[v**q for v in values]``, bitwise, from one ``np.power`` over an
    object array: every entry goes through ``float.__pow__``, with ``q``
    made a Python float (a ``np.float64`` exponent takes numpy's pow).
    At ``q = 1`` it is a fresh copy: ``v**1.0`` is ``v`` for every double."""
    if q == 1.0:
        return np.array(values, dtype=float)
    # not float64 np.power: its SIMD pow rounds apart from the C pow on
    # about 5% of entries
    return np.power(np.asarray(values, dtype=float).astype(object), float(q)).astype(float)


@dataclass(frozen=True, eq=False)
class OuterPool:
    """The outer points of every rho level, one row per distinct ``(x,
    y)``: its distances ``dxa = d(x, xbar)`` and ``dya = d(y, ybar)``,
    its ``depth`` (level ``k`` is the rows of depth ``k`` or more) and
    its ``copies`` drawn, the halving stencils of different levels
    coinciding bitwise.  Every array is read-only.  ``len`` counts the
    copies."""

    x: np.ndarray
    y: np.ndarray
    dxa: np.ndarray
    dya: np.ndarray
    depth: np.ndarray
    copies: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)

    def __len__(self) -> int:
        return int(self.copies.sum())

    def take(self, index) -> "OuterPool":
        """The rows at ``index`` (a slice or an index array)."""
        return OuterPool(*(getattr(self, f.name)[index] for f in fields(self)))

    def ratio(self, q: float) -> np.ndarray:
        """``d(y, ybar)^q / d(x, xbar)`` per row in Python float powers, NaN at d(x, xbar) = 0."""
        out = np.full(self.dxa.shape, np.nan)
        return np.divide(q_powers(self.dya, q), self.dxa, out=out, where=self.dxa > 0)

    def weight(self, q: float) -> np.ndarray:
        """``q d(y, ybar)^(q-1)`` per row in Python float powers."""
        return q * q_powers(self.dya, q - 1.0)


def sample_outer_points(
    problem: MappingProblem,
    radii: Sequence[float],
    budget: int,
    seeds: Sequence[int],
    schedule: Schedule,
    outer_restriction: bool = True,
) -> OuterPool:
    """The graph points in the open shells ``d(x,xbar) < radii[k]``,
    ``0 < d(y,ybar) < radii[k]`` of the decreasing ladder ``radii`` with
    ``x`` outside F^{-1}(ybar) (solution distance above ``EPS_MEM``; drop
    with ``outer_restriction=False``), as an :class:`OuterPool` in the
    depth order of :func:`distinct_window_rows`.

    Level ``k`` draws what an anchor-centred :func:`sample_graph_arrays`
    of radius ``radii[k]``, ``budget`` points and seed ``seeds[k]`` draws;
    one :func:`sample_graph_batch` call draws every level, bitwise as one
    call per level would.  A row's depth is the finest level whose shell
    holds it, whichever level drew it.  The solution distance is taken
    once per distinct x (by bytes) from :func:`solution_set_distance`,
    which without an oracle draws one anchor sample per radius for the
    whole call."""
    anchor = problem.anchor
    calls = [(anchor, radius, budget, seed) for radius, seed in zip(radii, seeds)]
    ux, vy, counts = sample_graph_batch(problem, calls)
    rho = np.repeat(np.asarray(radii, dtype=float), counts)
    dxa = problem.norm_x.value_rows(ux - problem.xbar)
    dya = problem.norm_y.value_rows(vy - problem.ybar)
    shell = np.flatnonzero((dxa < rho) & (0.0 < dya) & (dya < rho))
    ux, vy, dxa, dya = ux[shell], vy[shell], dxa[shell], dya[shell]
    first, inverse, _ = distinct_rows(ux)
    anchor_zeros: dict = {}  # one anchor sample per radius for the whole call
    sol = [solution_set_distance(problem, x, schedule, anchor_zeros).value for x in ux[first]]
    outer = ~(outer_restriction & (np.array(sol, dtype=float)[inverse] <= EPS_MEM))
    level = np.where(outer, np.maximum(dxa, dya), np.inf)
    index, depth, copies = distinct_window_rows(np.hstack([ux, vy]), level, radii)
    return OuterPool(ux[index], vy[index], dxa[index], dya[index], depth, copies)


@lru_cache(maxsize=1)
def outer_pools(problem: MappingProblem, schedule: Schedule, outer_restriction: bool) -> OuterPool:
    """The outer points of every rho level of ``schedule``, from one
    :func:`sample_outer_points` call, in depth order.

    A row's depth places it in every coarser window too, so per-level
    infima are monotone along the shrinking-window ladder by
    construction.  A run's :class:`~subreg.moduli.Tables` reads it once
    and holds it, so the cache gets no hit in a run.  It stays only
    because ``perfbench/worker.py`` counts pool builds by its misses.
    """
    rhos = schedule.rho_values()
    n = schedule.outer_samples_per_level()
    if problem.param_dim >= 2:
        n *= 2  # direction coverage needs more shell points
    seeds = [mix_seed(schedule.seed, "outer", k) for k in range(len(rhos))]
    return sample_outer_points(problem, rhos, n, seeds, schedule, outer_restriction)


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------


def _interval_window(t0, radius):
    return t0 - radius, t0 + radius


def _line_problem(
    name: str,
    value: Callable[[float], Optional[float]],
    batch: Callable[[np.ndarray], tuple],
    matrix: Callable,
    solution_distance: Callable[[np.ndarray], float],
    xbar: float = 0.0,
    ybar: float = 0.0,
    window: Callable[[np.ndarray, float], tuple] = _interval_window,
    **flags,
) -> MappingProblem:
    """The single-valued map ``y = value(x)`` of the real line, ``value``
    taking a Python float to one, or to ``None`` off the domain.  The
    parameter is x itself, and ``batch`` maps a column of them onto graph
    rows ``(x, y)``.  Membership is ``|y - value(x)| <= MEMBERSHIP_TOL``,
    the fiber distance ``|value(x) - ybar|`` (``INF`` off the domain)."""
    ybar = float(ybar)

    def membership(x, y):
        v = value(float(x[0]))
        return v is not None and abs(float(y[0]) - v) <= MEMBERSHIP_TOL

    def fiber_distance(x):
        v = value(float(x[0]))
        return INF if v is None else abs(v - ybar)

    return MappingProblem(
        name=name,
        dim_x=1,
        dim_y=1,
        norm_x=euclidean(1),
        norm_y=euclidean(1),
        xbar=[float(xbar)],
        ybar=[ybar],
        graph_membership=membership,
        param_to_graph_batch=lambda t: batch(t[:, :1]),
        param_of=lambda x, y: np.array([float(x[0])]),
        param_window=window,
        solution_distance=solution_distance,
        fiber_distance=fiber_distance,
        coderivative_matrix=matrix,
        **flags,
    )


def _half_square() -> MappingProblem:
    def coderivative_matrix(x, y):
        u = float(x[0])
        return np.array([[2.0 * u if u >= 0.0 else 0.0]])

    return _line_problem(
        "half-square",
        value=lambda u: max(u, 0.0) ** 2,
        batch=lambda u: (u, np.maximum(u, 0.0) ** 2),
        matrix=coderivative_matrix,
        solution_distance=lambda x: max(float(x[0]), 0.0),
        canonical_q=0.5,
    )


def _identity() -> MappingProblem:
    return _line_problem(
        "identity",
        value=lambda u: u,
        batch=lambda u: (u, u.copy()),
        matrix=lambda x, y: np.ones((1, 1)),
        solution_distance=lambda x: abs(float(x[0])),
        convex=True,
    )


def _square() -> MappingProblem:
    return _line_problem(
        "square",
        value=lambda u: u**2,
        batch=lambda u: (u, u**2),
        matrix=lambda x, y: np.array([[2.0 * float(x[0])]]),
        solution_distance=lambda x: abs(float(x[0])),
    )


def _linear(matrix=None) -> MappingProblem:
    a = np.asarray(matrix if matrix is not None else [[2.0, 0.0], [0.0, 3.0]], float)
    if a.ndim != 2:
        raise ProblemError("linear-A requires a matrix")
    dim_y, dim_x = a.shape
    norm_x, norm_y = euclidean(dim_x), euclidean(dim_y)
    # the solution set {u : A u = ybar = 0} is A's null space; only a
    # rank-deficient matrix has a basis (LAPACK's, as rows) to project on
    _, s, vt = np.linalg.svd(a)
    null_basis = vt[int(np.sum(s > 1e-12 * (s[0] if s.size else 1.0))) :]

    def solution_distance(x):
        d = np.asarray(x, dtype=float)
        if null_basis.shape[0]:
            d = d - matvec_left(null_basis.T, matvec_left(null_basis, d))
        return norm_x.value(d)

    return MappingProblem(
        name="linear-A",
        dim_x=dim_x,
        dim_y=dim_y,
        norm_x=norm_x,
        norm_y=norm_y,
        xbar=np.zeros(dim_x),
        ybar=np.zeros(dim_y),
        graph_membership=lambda x, y: norm_y.value(
            np.asarray(y, dtype=float) - matvec_left(a, x)
        )
        <= MEMBERSHIP_TOL,
        param_dim=dim_x,
        param_to_graph_batch=lambda t: (t, matvec_left(a, t)),
        param_of=lambda x, y: np.asarray(x, dtype=float),
        param_window=_interval_window,
        solution_distance=solution_distance,
        fiber_distance=lambda x: norm_y.value(matvec_left(a, x)),
        coderivative_matrix=lambda x, y: a,
        convex=True,
        canonical_q=1.0,
    )


def _halfline() -> MappingProblem:
    def window(t0, r):
        lo = np.array([t0[0] - r, max(t0[1] - 2.0 * r, 0.0)])
        hi = np.array([t0[0] + r, max(t0[1] + 2.0 * r, 0.0)])
        return lo, hi

    def coderivative(x, y, ystar):
        slack = float(y[0]) - float(x[0])
        ys = float(ystar[0])
        if slack <= MEMBERSHIP_TOL:
            if ys >= -1e-12:
                return DualVectorSet.singleton([ys])
            return DualVectorSet.empty()
        if abs(ys) <= 1e-12:
            return DualVectorSet.singleton([0.0])
        return DualVectorSet.empty()

    return MappingProblem(
        name="halfline-convex",
        dim_x=1,
        dim_y=1,
        norm_x=euclidean(1),
        norm_y=euclidean(1),
        xbar=[0.0],
        ybar=[0.0],
        graph_membership=lambda x, y: float(y[0]) >= float(x[0]) - MEMBERSHIP_TOL,
        param_dim=2,
        param_to_graph_batch=lambda t: (
            t[:, :1],
            t[:, :1] + np.maximum(t[:, 1:2], 0.0),
        ),
        param_of=lambda x, y: np.array([float(x[0]), max(float(y[0]) - float(x[0]), 0.0)]),
        param_window=window,
        solution_distance=lambda x: max(float(x[0]), 0.0),
        fiber_distance=lambda x: max(float(x[0]), 0.0),
        coderivative=coderivative,
        convex=True,
        canonical_q=1.0,
    )


def _constant() -> MappingProblem:
    return _line_problem(
        "constant",
        value=lambda u: 0.0,
        batch=lambda u: (u, np.zeros_like(u)),
        matrix=lambda x, y: np.zeros((1, 1)),
        solution_distance=lambda x: 0.0,
        convex=True,
    )


_CATALOG = {
    "half-square": _half_square,
    "identity": _identity,
    "square": _square,
    "linear-A": _linear,
    "halfline-convex": _halfline,
    "constant": _constant,
}


def catalog_names() -> list:
    return sorted(_CATALOG)


def catalog_problem(name: str, matrix=None) -> MappingProblem:
    """Fully-oracled catalog entry; raises for unknown names."""
    if name not in _CATALOG:
        raise UnknownProblemError(f"unknown catalog problem {name!r}")
    if name == "linear-A":
        return _linear(matrix)
    return _CATALOG[name]()


# --------------------------------------------------------------------------
# inline piecewise-polynomial problems (run-config interface)
# --------------------------------------------------------------------------


def _horner(coeffs: tuple, u: float) -> float:
    """``np.polyval(coeffs, u)`` on Python floats: the same multiply and
    add, in the same order, without numpy's per-call overhead."""
    y = 0.0
    for c in coeffs:
        y = y * u + c
    return y


def piecewise_problem(
    pieces: Sequence[dict],
    xbar: float,
    ybar: float,
    convex: bool = False,
    graph_locally_closed: bool = True,
    name: str = "inline",
) -> MappingProblem:
    """Single-valued piecewise-polynomial mapping on the real line.

    Each piece is ``{"domain": [a, b], "coeffs": [c0, c1, ...]}`` with
    ``y = c0 + c1 x + ...`` on the domain interval.
    """
    if not pieces:
        raise ProblemError("piecewise problem needs at least one piece")
    parsed = []
    for pc in pieces:
        try:
            a, b, coeffs = pc["domain"][0], pc["domain"][1], list(pc["coeffs"])
            unknown = sorted(set(pc) - {"domain", "coeffs"})
        except (KeyError, TypeError, IndexError) as exc:
            raise ProblemError(f"malformed piece {pc!r}") from exc
        if unknown:
            raise ProblemError(f"unknown keys in piece: {unknown}")
        if not all(is_finite_real(v) for v in (a, b, *coeffs)):
            raise ProblemError(f"piece domain ends and coefficients must be finite numbers: {pc!r}")
        if b < a or not coeffs:
            raise ProblemError(f"malformed piece {pc!r}")
        parsed.append((float(a), float(b), np.array(coeffs, dtype=float)))
    parsed.sort(key=lambda t: t[0])
    # membership and the graph map read the first piece holding a point,
    # the coderivative matrix every one: pieces may share an end, no more
    reach = -INF
    for a, b, _ in parsed:
        if min(b, reach) > a:
            raise ProblemError(f"piece domains overlap on [{a!r}, {min(b, reach)!r}]")
        reach = max(reach, b)
    lo_all = parsed[0][0]
    hi_all = max(b for _, b, _ in parsed)
    # highest-degree-first coefficient tuples, the ones np.polyval and
    # poly1d.__call__ would run through, as Python floats for _horner
    values = [(a, b, tuple(c[::-1].tolist())) for a, b, c in parsed]
    derivs = [tuple(np.polyder(np.poly1d(c[::-1])).coeffs.tolist()) for _, _, c in parsed]
    edges = [edge for a, b, _ in parsed for edge in (a, b)]

    def poly_at(u: float) -> Optional[float]:
        for a, b, c in values:
            if a - MEMBERSHIP_TOL <= u <= b + MEMBERSHIP_TOL:
                return _horner(c, u)
        return None

    def piece_index(u: np.ndarray) -> np.ndarray:
        # the first piece in sorted order holding u, -1 in a gap
        idx = np.full(u.shape, -1)
        for k, (a, b, _) in enumerate(values):
            hit = (idx < 0) & (a - MEMBERSHIP_TOL <= u) & (u <= b + MEMBERSHIP_TOL)
            idx[hit] = k
        return idx

    def to_graph_batch(t):
        # clip to the pieces' hull, take the first piece holding each
        # point, and snap a point in a gap to the nearest domain end (the
        # first one on a tie)
        u = np.clip(np.asarray(t, dtype=float)[:, 0], lo_all, hi_all)
        idx = piece_index(u)
        gap = np.flatnonzero(idx < 0)
        if gap.size:
            ug = u[gap]
            best = np.full(ug.shape, edges[0])
            best_d = np.abs(ug - edges[0])
            for edge in edges[1:]:
                d = np.abs(ug - edge)
                closer = d < best_d
                best[closer] = edge
                best_d[closer] = d[closer]
            u[gap] = best
            idx[gap] = piece_index(best)
        v = np.empty_like(u)
        for k, (_, _, c) in enumerate(values):
            rows = idx == k
            v[rows] = np.polyval(c, u[rows])
        return u[:, None], v[:, None]

    # per piece: does F - ybar vanish on it, and else its real roots in
    # the (slightly widened) domain; neither depends on x
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

    def coderivative_matrix(x, y):
        # the distinct slopes of the pieces holding x: none off the
        # domain, more than one at a kink, and a matrix only for one
        u = float(x[0])
        slopes = {
            round(_horner(dc, u), 12)
            for (a, b, _), dc in zip(parsed, derivs)
            if a - MEMBERSHIP_TOL <= u <= b + MEMBERSHIP_TOL
        }
        return np.array([[slopes.pop()]]) if len(slopes) == 1 else None

    return _line_problem(
        name,
        value=poly_at,
        batch=to_graph_batch,
        matrix=coderivative_matrix,
        solution_distance=solution_distance,
        xbar=xbar,
        ybar=ybar,
        window=lambda t0, r: (np.maximum(t0 - r, lo_all), np.minimum(t0 + r, hi_all)),
        convex=convex,
        graph_locally_closed=graph_locally_closed,
    )


def finite_graph_problem(
    points: Sequence,
    xbar,
    ybar,
    name: str = "finite",
    dim_x: int = 1,
    dim_y: int = 1,
) -> MappingProblem:
    """A mapping whose graph is exactly a finite point list; samplers
    enumerate the list, so exhaustive budgets scan every candidate."""
    pts = tuple(
        ProductPoint(np.asarray(p[0], dtype=float), np.asarray(p[1], dtype=float))
        for p in points
    )
    if not pts:
        raise ProblemError("finite graph needs at least one point")
    nx, ny = euclidean(dim_x), euclidean(dim_y)
    ybar_arr = np.asarray(ybar, dtype=float).reshape(-1)

    def membership(x, y):
        x = np.asarray(x, dtype=float).reshape(-1)
        y = np.asarray(y, dtype=float).reshape(-1)
        return any(
            nx.value(x - p.x) <= MEMBERSHIP_TOL and ny.value(y - p.y) <= MEMBERSHIP_TOL
            for p in pts
        )

    solset = [p.x for p in pts if ny.value(p.y - ybar_arr) <= MEMBERSHIP_TOL]

    def solution_distance(x):
        x = np.asarray(x, dtype=float).reshape(-1)
        if not solset:
            return 1e30
        return min(nx.value(x - s) for s in solset)

    def fiber_distance(x):
        x = np.asarray(x, dtype=float).reshape(-1)
        fibers = [p.y for p in pts if nx.value(x - p.x) <= MEMBERSHIP_TOL]
        if not fibers:
            return INF
        return min(ny.value(f - ybar_arr) for f in fibers)

    return MappingProblem(
        name=name,
        dim_x=dim_x,
        dim_y=dim_y,
        norm_x=nx,
        norm_y=ny,
        xbar=xbar,
        ybar=ybar,
        graph_membership=membership,
        graph_points=pts,
        solution_distance=solution_distance,
        fiber_distance=fiber_distance,
    )
