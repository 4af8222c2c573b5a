"""Error-bound and subregularity moduli, criteria, and consistency checks.

The moduli are liminf proxies over shrinking shells with recorded
worst-ratio witnesses; the criteria evaluator thresholds the slope
estimates at a supplied gamma and machine-checks every implication
arrow between the lettered conditions; the invariant suite bundles all
cross-family inequality checks into pass/fail rows.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .geometry import INF, ProductPoint, distinct_rows, duality_map, is_finite_real, is_inf, is_order
from .problems import (
    EPS_MEM,
    ErrorFunction,
    MappingProblem,
    OuterPool,
    Schedule,
    halton_points,
    halving_ladder,
    mix_seed,
    outer_pools,
    q_powers,
    sample_graph_batch,
)
from .slopes_dual import (
    DualStrictSlopes,
    limiting_coderivative_min_norm,
    lm_constants,
    strict_subdiff_q_slopes,
)
from .slopes_primal import (
    SlopeEstimate,
    StrictSweepResult,
    SweepTable,
    _finish,
    _gather,
    anchor_f_rows,
    f_level_strict,
    strict_sweep,
    sweep_table,
    validate_P1_P2,
)

SHARED_SLACK = 1e-6  # sample-shared comparisons
SAMPLED_REL = 0.05  # sampled-vs-sampled agreement
MODULUS_REL = 0.10  # modulus vs uniform slope (two independent limits)
MODULUS_ABS = 0.02
# Sampling-bias allowance for primal-vs-dual comparisons: outer points
# just above the membership threshold EPS_MEM cannot have candidates
# closer than the exclusion band, so sampled primal suprema can lag by
# up to (band / threshold) relative to the exact dual values.
BAND_BIAS_REL = 2.0 * 1e-12 / EPS_MEM


class ModuliError(ValueError):
    pass


def _require_positive(**values) -> None:
    """Refuse any value that is not a positive finite real (a bool is
    not taken for one)."""
    for name, value in values.items():
        if not is_finite_real(value) or value <= 0:
            raise ModuliError(f"{name} must be a positive finite number, got {value!r}")


def rel_close(a: float, b: float, rel: float, abs_tol: float = 1e-9) -> bool:
    if is_inf(a) or is_inf(b):
        return is_inf(a) and is_inf(b)
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


def leq_ok(lhs: float, rhs: float, slack: float) -> bool:
    """lhs <= rhs + slack, with ``INF`` kept out of the slack arithmetic."""
    if is_inf(rhs):
        return True
    if is_inf(lhs):
        return False
    return lhs <= rhs + slack


def looks_divergent(trace: Sequence) -> bool:
    """Heuristic for a liminf proxy marching to infinity: the last
    levels keep growing and gained at least a factor two."""
    vals = [v for _, v in trace if not is_inf(v)]
    if len(vals) < 5:
        return False
    tail = vals[-5:]
    increasing = all(b > a for a, b in zip(tail, tail[1:]))
    return increasing and tail[-1] > 2.0 * tail[0]


@dataclass(frozen=True)
class ModulusReport:
    kind: str
    value: float
    trace: tuple
    witnesses: tuple
    forms: dict = field(default_factory=dict)
    forms_agree: Optional[bool] = None
    flags: tuple = ()

    @property
    def inconclusive(self) -> bool:
        return "inconclusive" in self.flags

    def as_estimate(self) -> SlopeEstimate:
        return SlopeEstimate(
            self.value, self.trace, False, len(self.trace), self.kind, self.flags
        )


def _ambient_x_samples(problem: MappingProblem, radius: float, count: int, seed: int) -> np.ndarray:
    """Deterministic x-samples (rows) in the ball around xbar: axis
    stencil plus quasi-random fill."""
    dim, xbar = problem.dim_x, problem.xbar
    offs, keep = halving_ladder(radius, max(1e-9 * radius, 1e-11), 2 * count)
    offs = offs[keep]
    blocks, used = [np.zeros((0, dim))], 0
    for i in range(dim):
        # at most 4 * count stencil points over all axes: +off, -off each
        n = min(offs.size, max(0, 2 * count - used))
        used += n
        block = np.repeat(xbar[None], 2 * n, axis=0)
        block[:, i] += np.repeat(offs[:n], 2) * np.tile([1.0, -1.0], n)
        blocks.append(block)
    fill = max(0, count - 2 * used)
    if fill:
        u = halton_points(dim, fill, mix_seed(seed, "ambient"))
        blocks.append(xbar + (2.0 * u - 1.0) * radius)
    return np.concatenate(blocks)


def _first_least(values: np.ndarray, valid=True) -> tuple:
    """The entry a scan over the ``valid`` entries (all by default) keeps
    when it starts from ``INF`` and takes each one ``<`` its best, and its
    value: the first least, or -1 and ``INF`` when none is below ``INF``."""
    rows = np.flatnonzero(valid & (values < INF))
    i = int(rows[np.argmin(values[rows])]) if rows.size else -1
    return i, INF if i < 0 else float(values[i])


def _suffix_minima(values: np.ndarray, starts: np.ndarray, also=INF) -> list:
    """Each level's minimum of depth-ordered ``values`` and of ``also[k]``,
    level ``k`` being ``values[starts[k]:]``, from one reversed running
    minimum in which, as in :func:`_first_least`, neither NaN nor ``INF``
    ever wins."""
    running = np.fmin.accumulate(np.append(values, INF)[::-1])[::-1]
    return [INF if v == INF else v for v in np.fmin(running[starts], also).tolist()]


def _read_only(columns):
    """``columns``, a dataclass of arrays, with every array read-only."""
    for f in fields(columns):
        value = getattr(columns, f.name)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return columns


def _error_bound_draw(schedule: Schedule) -> tuple:
    """The anchor samples of the error bound: ``(radii, budget, seeds)``."""
    rhos = schedule.rho_values()
    seeds = [mix_seed(schedule.seed, "er", k) for k in range(len(rhos))]
    return rhos, max(64, schedule.sample_budget // 8), seeds


@dataclass(frozen=True, eq=False)
class SubregColumns:
    """``sr_q``'s x rows, each distinct x (by bytes) once, with its fiber
    and solution distances (NaN where the ratio is undefined: solution
    distance at most ``EPS_MEM``, infinite fiber distance), and the
    ``ids`` of the x each level reads: the pool's, held in pool depth
    order, then each level's in-ball ambient samples.  Level ``k`` reads
    ``ids[pool_starts[k]:bounds[0]]``, then ``ids[bounds[k]:bounds[k + 1]]``."""

    x: np.ndarray
    fiber: np.ndarray
    solution: np.ndarray
    ids: np.ndarray
    pool_starts: np.ndarray
    bounds: np.ndarray


@dataclass(frozen=True, eq=False)
class AnchorColumns:
    """The error bound's anchor graph rows with ``d(v, ybar) > 0`` and
    solution distance above ``EPS_MEM`` in depth order, level ``k``
    (``d(x, xbar) < rho_k``) being the rows from ``starts[k]`` on: x, y,
    ``d(x, xbar)``, ``d(y, ybar)`` and the solution distance of each
    row's x; ``drawn`` counts the rows before the solution filter."""

    x: np.ndarray
    y: np.ndarray
    dxa: np.ndarray
    dya: np.ndarray
    solution: np.ndarray
    starts: np.ndarray
    drawn: int


def _anchor_columns(ux, vy, dxa, dya, soldist, rhos) -> tuple:
    """The :class:`AnchorColumns` of anchor rows, with ``soldist`` called
    once on the distinct x rows (NaN without an oracle), and the index of
    each kept row."""
    solution = np.full(ux.shape[0], np.nan)
    if soldist is not None:
        first, inverse, _ = distinct_rows(ux)
        solution = np.asarray(soldist(ux[first]), dtype=float)[inverse]
    depth = (dxa[:, None] < np.asarray(rhos, dtype=float)).sum(axis=1) - 1
    keep = np.flatnonzero((solution > EPS_MEM) & (depth >= 0))
    rows = keep[np.argsort(depth[keep], kind="stable")]
    starts = np.searchsorted(depth[rows], np.arange(len(rhos)))
    cols = AnchorColumns(ux[rows], vy[rows], dxa[rows], dya[rows], solution[rows], starts, dya.size)
    return cols, rows


class Tables:
    """Every order-free array the three moduli read for one problem and
    schedule, each built on first read and then read-only.

    The outer pool (:func:`~subreg.problems.outer_pools`), the ``sr_q``
    rows (:class:`SubregColumns`) and the error bound's anchor rows
    (:class:`AnchorColumns`) are held stably in depth order, a row's depth
    being the finest rho level whose window holds it, so level ``k`` is a
    suffix.  An order recomputes only its powers, its ratios and one
    suffix minimum per modulus: runs of one problem and schedule at
    several orders can share one ``Tables``.  ``pool`` is a run's one
    reader of :func:`~subreg.problems.outer_pools`.
    """

    def __init__(self, problem: MappingProblem, schedule: Schedule):
        self.problem = problem
        self.schedule = schedule

    @cached_property
    def pool(self) -> OuterPool:
        return outer_pools(self.problem, self.schedule, True)

    def pool_starts(self) -> np.ndarray:
        return np.searchsorted(self.pool.depth, np.arange(self.schedule.steps))

    @cached_property
    def subreg(self) -> SubregColumns:
        problem, schedule, pool = self.problem, self.schedule, self.pool
        ambient = []
        for k, rho in enumerate(schedule.rho_values()):
            drawn = _ambient_x_samples(problem, rho, 64, mix_seed(schedule.seed, "srx", k))
            ambient.append(drawn[problem.norm_x.value_rows(drawn - problem.xbar) < rho])
        xs = np.concatenate([pool.x] + ambient)
        first, inverse, _ = distinct_rows(xs)
        fib, sol = np.full(first.size, np.nan), np.full(first.size, np.nan)
        if problem.fiber_distance is not None and problem.solution_distance is not None:
            # one call of each oracle on the distinct x
            sd, fd = problem.solution_distance(xs[first]), problem.fiber_distance(xs[first])
            keep = (sd > EPS_MEM) & (fd < INF)
            fib[keep], sol[keep] = fd[keep], sd[keep]
        bounds = np.cumsum([len(pool.x)] + [len(rows) for rows in ambient])
        return _read_only(SubregColumns(xs[first], fib, sol, inverse, self.pool_starts(), bounds))

    @cached_property
    def anchor(self) -> AnchorColumns:
        # graph rows with d(v, ybar) > 0: the rows where d(v, ybar)**1 > 0
        func = ErrorFunction(self.problem, 1.0)
        ux, vy, _, dxa, dya = anchor_f_rows(func, *_error_bound_draw(self.schedule))
        columns = (ux, vy, dxa, dya, self.problem.solution_distance, self.schedule.rho_values())
        return _read_only(_anchor_columns(*columns)[0])


def _tables(problem: MappingProblem, schedule: Schedule, tables: Optional[Tables]) -> Tables:
    if tables is None:
        return Tables(problem, schedule)
    if tables.problem is not problem or tables.schedule != schedule:
        raise ModuliError("the tables belong to another problem or schedule")
    return tables


def subregularity_modulus(
    problem: MappingProblem, q: float, schedule: Schedule, tables: Optional[Tables] = None
) -> ModulusReport:
    """Per-shell minimum of ``d(ybar, F(x))^q / d(x, F^{-1}(ybar))``
    over points outside the solution set; the value is the final-shell
    entry and the recorded witnesses reproduce their ratio exactly.

    Each level reads its pool's distinct x, then its in-ball ambient
    samples, the finest level's witness being the first least in that
    order; each oracle is called once, on the distinct x of all levels,
    when ``tables`` (fresh ones if not given) first builds its ``sr_q``
    rows."""
    if not is_order(q):
        raise ModuliError("q must lie in (0, 1]")
    cols = _tables(problem, schedule, tables).subreg
    ratio = q_powers(cols.fiber, q) / cols.solution  # NaN where undefined
    rows, bounds = ratio[cols.ids], cols.bounds
    ambient = np.fmin.reduceat(np.append(rows, INF), bounds[:-1])
    ambient[bounds[1:] == bounds[:-1]] = INF  # reduceat reads an empty level's next entry
    values = _suffix_minima(rows[: bounds[0]], cols.pool_starts, ambient)
    trace = list(zip(schedule.rho_values(), values))

    witnesses = []
    ids = np.concatenate([cols.ids[cols.pool_starts[-1] : bounds[0]], cols.ids[bounds[-2] :]])
    i, _ = _first_least(ratio[ids])
    if i >= 0:  # the finest shell's
        j = ids[i]
        witnesses.append(
            {
                "x": [float(t) for t in cols.x[j]],
                "fiber_distance": float(cols.fiber[j]),
                "solution_distance": float(cols.solution[j]),
                "ratio": float(ratio[j]),
            }
        )

    flags = ()
    if all(is_inf(v) for v in values):
        flags = ("inconclusive",)
    elif any(is_inf(v) for v in values):
        flags = ("empty-levels",)
    return ModulusReport("sr_q", values[-1], tuple(trace), tuple(witnesses), flags=flags)


def error_bound_modulus(func, schedule: Schedule, tables: Optional[Tables] = None) -> ModulusReport:
    """Liminf of ``f / d(x, S(f))`` along the shells, with the two
    companion window forms (x and y shrinking; function value shrinking)
    reported and compared.  An :class:`ErrorFunction` reads its rows
    from ``tables`` (fresh ones if not given) and takes ``f = d(v,
    ybar)**q`` per row."""
    rhos = schedule.rho_values()
    if isinstance(func, ErrorFunction):
        cols = _tables(func.problem, schedule, tables).anchor
        f = q_powers(cols.dya, func.q)
    else:
        ux, vy, f, dxa, dya = anchor_f_rows(func, *_error_bound_draw(schedule))
        cols, rows = _anchor_columns(ux, vy, dxa, dya, func.solution_distance, rhos)
        f = f[rows]
    flags = ()
    if func.solution_distance is None and cols.drawn:
        flags = ("inconclusive", "no-solution-distance")
    ratio = f / cols.solution
    trace = list(zip(rhos, _suffix_minima(ratio, cols.starts)))

    # the witness and the window forms at the finest shell, whose rows
    # keep their draw order
    fine, rho = cols.starts[-1], rhos[-1]
    fine_ratio = ratio[fine:]
    i, value = _first_least(fine_ratio)
    forms = {
        "x_only": value,
        "x_and_y": _first_least(fine_ratio, cols.dya[fine:] < rho)[1],
        "f_to_zero": _first_least(fine_ratio, f[fine:] < rho)[1],
    }
    witnesses = []
    if i >= 0:
        witnesses.append(
            {
                "x": [float(t) for t in cols.x[fine + i]],
                "y": [float(t) for t in cols.y[fine + i]],
                "f": float(f[fine + i]),
                "solution_distance": float(cols.solution[fine + i]),
                "ratio": value,
            }
        )

    conclusives = [v for v in forms.values() if not is_inf(v)]
    forms_agree = None
    if looks_divergent(trace):
        # all window forms march to infinity; finite-shell proxies do so
        # at different rates and cannot be compared meaningfully
        flags = flags + ("divergent",)
    elif len(conclusives) == 3:
        forms_agree = all(
            rel_close(a, b, SAMPLED_REL) for a in conclusives for b in conclusives
        )
    if all(is_inf(v) for _, v in trace) and not flags:
        flags = ("inconclusive",)
    return ModulusReport(
        "error_bound_modulus",
        trace[-1][1],
        tuple(trace),
        tuple(witnesses),
        forms=dict(forms),
        forms_agree=forms_agree,
        flags=flags,
    )


@dataclass(frozen=True)
class InequalityCheck:
    holds: bool
    witness: Optional[dict] = None


def check_subregularity_inequality(
    problem: MappingProblem,
    q: float,
    tau: float,
    u_radius: float,
    grid_budget: int = 512,
    seed: int = 0,
) -> InequalityCheck:
    """Direct grid verification of ``tau * d(x, F^{-1}(ybar)) <=
    d(ybar, F(x))^q`` over the ball around xbar; a failure returns the
    violating point with both sides."""
    _require_positive(tau=tau, u_radius=u_radius)
    if problem.fiber_distance is None or problem.solution_distance is None:
        raise ModuliError("inequality check needs fiber and solution oracles")
    xs = _ambient_x_samples(problem, u_radius, grid_budget, seed)
    xs = xs[problem.norm_x.value_rows(xs - problem.xbar) <= u_radius]
    lhs = tau * problem.solution_distance(xs)
    rhs = q_powers(problem.fiber_distance(xs), q)  # INF, never exceeded, where F(x) is empty
    bad = np.flatnonzero(lhs > rhs + 1e-12)
    if not bad.size:
        return InequalityCheck(True)
    i = bad[0]
    return InequalityCheck(
        False, {"x": [float(t) for t in xs[i]], "lhs": float(lhs[i]), "rhs": float(rhs[i])}
    )


# --------------------------------------------------------------------------
# constants and criteria
# --------------------------------------------------------------------------

# report entry name -> how a run context obtains it
_CONSTANT_SOURCES = {
    "sr_q": lambda ctx: ctx.subregularity.as_estimate(),
    "error_bound_modulus": lambda ctx: ctx.error_bound.as_estimate(),
    "anchor_ratio_liminf": lambda ctx: ctx.anchor_ratio,
    "uniform_strict_q_slope": lambda ctx: ctx.sweep.uniform,
    "strict_q_slope": lambda ctx: ctx.sweep.plain,
    "modified_strict_q_slope": lambda ctx: ctx.sweep.modified,
    "subdiff_strict_q_slope_plain": lambda ctx: ctx.dual_slopes.plain,
    "subdiff_strict_q_slope_approx": lambda ctx: ctx.dual_slopes.approx,
    "subdiff_strict_q_slope_modified": lambda ctx: ctx.dual_slopes.modified,
    "subdiff_strict_q_slope_modified_approx": lambda ctx: ctx.dual_slopes.modified_approx,
    "limiting_coderivative_min_norm": lambda ctx: ctx.limiting,
    "lm_alpha": lambda ctx: ctx.lm[0],
    "lm_beta": lambda ctx: ctx.lm[1],
}
CONSTANT_NAMES = tuple(_CONSTANT_SOURCES)


class RunContext(Mapping):
    """Every quantity of one run, each computed on first access and kept.

    As a read-only mapping it takes the names in ``CONSTANT_NAMES`` to
    estimates, and reading an entry computes only what that entry
    needs.  It also holds the strict sweeps under the max- and sum-type
    product metrics, which read one :class:`SweepTable` (candidates do
    not depend on the metric, so the outer pool is gathered once), the
    two modulus reports and the theorem-7T1 result.  Everything reads
    the outer pool of the :class:`Tables` given (fresh ones if not).
    The checks and the four constants that walk the pool take a context
    as their one run input, and it refuses an order outside (0, 1].
    """

    def __init__(
        self, problem: MappingProblem, q: float, schedule: Schedule, tables: Optional[Tables] = None
    ):
        if not is_order(q):
            raise ModuliError(f"q must lie in (0, 1], got {q!r}")
        self.problem = problem
        self.q = q
        self.schedule = schedule
        self.tables = _tables(problem, schedule, tables)

    def __getitem__(self, name: str) -> SlopeEstimate:
        return _CONSTANT_SOURCES[name](self)

    def __contains__(self, name) -> bool:
        return name in _CONSTANT_SOURCES

    def __iter__(self):
        return iter(CONSTANT_NAMES)

    def __len__(self) -> int:
        return len(CONSTANT_NAMES)

    @cached_property
    def anchor_ratio(self) -> SlopeEstimate:
        """The ratio liminf from anchor distances; the budget counts pool copies read."""
        pool, starts = self.tables.pool, self.tables.pool_starts()
        trace = list(zip(self.schedule.rho_values(), _suffix_minima(pool.ratio(self.q), starts)))
        used = int((pool.copies * (pool.depth + 1)).sum())  # each copy once per level it lies in
        return _finish("anchor_ratio_liminf", trace, False, used)

    @cached_property
    def sweep_table(self) -> SweepTable:
        return sweep_table(self.problem, self.q, self.schedule, self.tables.pool)

    @cached_property
    def sweep(self) -> StrictSweepResult:
        return strict_sweep(self)

    @cached_property
    def sum_sweep(self) -> StrictSweepResult:
        return strict_sweep(self, "sum")

    @cached_property
    def dual_slopes(self) -> DualStrictSlopes:
        return strict_subdiff_q_slopes(self)

    @cached_property
    def limiting(self) -> SlopeEstimate:
        return limiting_coderivative_min_norm(self)

    @cached_property
    def lm(self) -> tuple:
        """(lm_alpha, lm_beta)."""
        return lm_constants(self)

    @cached_property
    def subregularity(self) -> ModulusReport:
        return subregularity_modulus(self.problem, self.q, self.schedule, self.tables)

    @cached_property
    def error_bound(self) -> ModulusReport:
        return error_bound_modulus(ErrorFunction(self.problem, self.q), self.schedule, self.tables)

    @cached_property
    def theorem_7T1(self) -> Theorem7T1Result:
        return theorem_7T1_check(self)


@dataclass(frozen=True)
class CriteriaReport:
    gamma: float
    conditions: dict
    qualitative: dict
    estimates: dict
    implication_violations: tuple
    flags: tuple = ()


_QUANT_SOURCES = {
    "a": "sr_q",
    "b": "uniform_strict_q_slope",
    "c": "anchor_ratio_liminf",
    "d": "strict_q_slope",
    "e": "modified_strict_q_slope",
    "f": "subdiff_strict_q_slope_approx",
    "g": "subdiff_strict_q_slope_modified_approx",
    "h": "subdiff_strict_q_slope_plain",
    "i": "subdiff_strict_q_slope_modified",
    "j": "limiting_coderivative_min_norm",
}

_QUANT_ARROWS = (
    ("c", "e"),
    ("d", "e"),
    ("e", "b"),
    ("f", "g"),
    ("g", "i"),
    ("f", "h"),
    ("h", "i"),
)

_QUAL_SOURCES = {
    "a": "uniform_strict_q_slope",
    "b": "anchor_ratio_liminf",
    "c": "strict_q_slope",
    "d": "modified_strict_q_slope",
    "e": "subdiff_strict_q_slope_approx",
    "f": "subdiff_strict_q_slope_modified_approx",
    "g": "subdiff_strict_q_slope_plain",
    "h": "subdiff_strict_q_slope_modified",
    "i": "limiting_coderivative_min_norm",
}

_QUAL_ARROWS = (("b", "d"), ("c", "d"), ("d", "a"), ("e", "f"), ("g", "h"))


def _status(est: SlopeEstimate, threshold: float) -> str:
    if est.inconclusive:
        return "inconclusive"
    if is_inf(est.value):
        return "holds"
    return "holds" if est.value > threshold else "fails"


def criteria_report(ctx: RunContext, gamma: float) -> CriteriaReport:
    """Truth values of the lettered quantitative conditions of the run
    ``ctx`` at ``gamma`` and of the qualitative (strict positivity)
    conditions, with every implication arrow re-checked against the
    recorded booleans.

    Thresholds are widened by +/- 1e-6 before arrow checking so that
    one-sided sampling bias cannot manufacture a violation; inconclusive
    conditions are vacuously consistent.  Infinite estimates (empty
    infima) count as holding and are flagged.
    """
    _require_positive(gamma=gamma)
    eps = SHARED_SLACK
    sr = ctx["sr_q"]
    conditions = {"a": _status(sr, 0.0)}
    estimates = {"a": sr.value}
    flags = []
    for letter in "bcdefghij":
        est = ctx[_QUANT_SOURCES[letter]]
        conditions[letter] = _status(est, gamma)
        estimates[letter] = est.value
        if not est.inconclusive and is_inf(est.value):
            flags.append(f"condition {letter} holds via empty-infimum convention")
    qualitative = {letter: _status(ctx[name], 1e-6) for letter, name in _QUAL_SOURCES.items()}

    # an arrow is broken when its source holds strictly above the upper
    # threshold and its target fails at or below the lower one
    def holds_above(est: SlopeEstimate, threshold: float) -> bool:
        return not est.inconclusive and (is_inf(est.value) or est.value > threshold)

    def fails_at(est: SlopeEstimate, threshold: float) -> bool:
        return not est.inconclusive and not is_inf(est.value) and est.value <= threshold

    def broken(sources: dict, arrows: tuple, above: float, at_most: float) -> list:
        return [
            (lhs, rhs)
            for lhs, rhs in arrows
            if holds_above(ctx[sources[lhs]], above) and fails_at(ctx[sources[rhs]], at_most)
        ]

    violations = [
        f"quantitative ({lhs}) => ({rhs}) broken at gamma={gamma:g}"
        for lhs, rhs in broken(_QUANT_SOURCES, _QUANT_ARROWS, gamma + eps, gamma - eps)
    ]
    violations += [
        f"qualitative ({lhs}) => ({rhs}) broken"
        for lhs, rhs in broken(_QUAL_SOURCES, _QUAL_ARROWS, 2e-6, 0.0)
    ]
    # tau-gated arrows, reading the estimated modulus as tau
    if not sr.inconclusive and not is_inf(sr.value):
        tau, b = sr.value, ctx[_QUANT_SOURCES["b"]]
        if gamma + eps < tau and conditions["a"] == "holds" and fails_at(b, gamma - eps):
            violations.append(f"(a) => (b) broken for gamma={gamma:g} < tau={tau:g}")
        if (
            tau <= gamma - eps
            and ctx.problem.graph_locally_closed
            and holds_above(b, gamma + eps)
            and conditions["a"] == "fails"
        ):
            violations.append(f"(b) => (a) broken for tau={tau:g} <= gamma={gamma:g}")

    return CriteriaReport(
        gamma=gamma,
        conditions=conditions,
        qualitative=qualitative,
        estimates=estimates,
        implication_violations=tuple(violations),
        flags=tuple(flags),
    )


# --------------------------------------------------------------------------
# named checks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexityCheckResult:
    status: str  # pass | fail | skipped
    lhs: float
    rhs: float
    infinite_lhs_guard: bool = False


def convexity_necessity_check(ctx: RunContext) -> ConvexityCheckResult:
    """For convex mappings the scaled modulus is dominated by the plain
    strict subdifferential q-slope.  A modulus estimate that is infinite
    or visibly diverging along its trace passes with a guard flag
    instead of asserting against an equally divergent right-hand side."""
    if not ctx.problem.convex:
        return ConvexityCheckResult("skipped", 0.0, 0.0)
    sr = ctx["sr_q"]
    dual_plain = ctx["subdiff_strict_q_slope_plain"]
    lhs = INF if is_inf(sr.value) else ctx.q * sr.value
    rhs = dual_plain.value
    if is_inf(sr.value) or looks_divergent(sr.trace):
        return ConvexityCheckResult("pass", lhs, rhs, infinite_lhs_guard=True)
    if dual_plain.inconclusive:
        return ConvexityCheckResult("pass", lhs, rhs, infinite_lhs_guard=True)
    slack = SAMPLED_REL * (abs(rhs) if not is_inf(rhs) else 0.0) + 1e-9
    ok = leq_ok(lhs, rhs, slack)
    return ConvexityCheckResult("pass" if ok else "fail", lhs, rhs)


@dataclass(frozen=True)
class Theorem7T1Result:
    sr: SlopeEstimate
    uniform_max: SlopeEstimate
    uniform_sum: SlopeEstimate
    inequality_ok: bool
    equality_checked: bool
    equality_ok: Optional[bool]
    metric_invariant: bool

    @property
    def passed(self) -> bool:
        return (
            self.inequality_ok
            and self.metric_invariant
            and (not self.equality_checked or bool(self.equality_ok))
        )


def theorem_7T1_check(ctx: RunContext) -> Theorem7T1Result:
    """The modulus never exceeds the uniform strict q-slope (always
    asserted, with combined slack); with a locally closed graph the two
    agree within ten percent, and the equality verdict is invariant
    under switching the admissible product metric from max-type to
    sum-type."""
    sr = ctx["sr_q"]
    uniform = ctx["uniform_strict_q_slope"]
    uniform_sum = ctx.sum_sweep.uniform

    slack = SHARED_SLACK + (
        0.0 if is_inf(uniform.value) else SAMPLED_REL * abs(uniform.value)
    )
    inequality_ok = leq_ok(sr.value, uniform.value, slack)

    equality_checked = ctx.problem.graph_locally_closed
    equality_ok = None
    eq_max = rel_close(sr.value, uniform.value, MODULUS_REL, MODULUS_ABS)
    eq_sum = rel_close(sr.value, uniform_sum.value, MODULUS_REL, MODULUS_ABS)
    if equality_checked:
        equality_ok = eq_max
    return Theorem7T1Result(
        sr=sr,
        uniform_max=uniform,
        uniform_sum=uniform_sum,
        inequality_ok=inequality_ok,
        equality_checked=equality_checked,
        equality_ok=equality_ok,
        metric_invariant=(eq_max == eq_sum),
    )


# --------------------------------------------------------------------------
# invariant suite
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantRow:
    name: str
    passed: bool
    lhs: float
    rhs: float
    slack: float
    note: str = ""


def _probe_points(problem: MappingProblem, schedule: Schedule, count: int) -> list:
    """Graph probes at mixed scales with y off ybar (for pointwise
    slope-chain checks), from one anchor-centred draw per radius."""
    calls = [
        (problem.anchor, radius, count, mix_seed(schedule.seed, "probe", j))
        for j, radius in enumerate((1.0, 0.1, 0.01))
    ]
    ux, vy, _ = sample_graph_batch(problem, calls)
    dx = problem.norm_x.value_rows(ux - problem.xbar)
    dy = problem.norm_y.value_rows(vy - problem.ybar)
    keep = np.flatnonzero((dy > 1e-9) & (np.maximum(dx, dy) >= 1e-3))[:count]
    return [ProductPoint(x, y) for x, y in zip(ux[keep], vy[keep])]


def run_invariant_suite(ctx: RunContext, gamma: Optional[float] = None) -> list:
    """Every cross-family inequality and consistency check of the run
    ``ctx`` as pass/fail rows; shared pools and shared candidate supersets
    keep the comparisons sample-wise wherever the relations hold
    pointwise."""
    problem, q, schedule = ctx.problem, ctx.q, ctx.schedule
    rows = []

    def row(name, passed, lhs, rhs, slack, note=""):
        rows.append(InvariantRow(name, bool(passed), lhs, rhs, float(slack), note))

    def leq(name, lhs, rhs, slack=SHARED_SLACK):
        row(name, leq_ok(lhs, rhs, slack), lhs, rhs, slack)

    def close(name, lhs, rhs):
        row(name, rel_close(lhs, rhs, SAMPLED_REL), lhs, rhs, SAMPLED_REL)

    # pointwise domination of the nonlocal slope over the local slope and
    # the anchor-distance ratio, on shared candidate supersets
    probes = _probe_points(problem, schedule, 24)
    nl = loc = fl = []
    if probes:
        # one candidate table for every probe, reduced at the two test
        # rhos and along the decreasing ladder in one pass per family
        grid = (0.7, 0.15, *schedule.rho_values())
        tables = _gather(problem, probes, schedule).rho_profiles(q, grid)
        nl, loc, fl = (tables[k].tolist() for k in ("nonlocal", "local", "f_local"))
    worst_f = worst_fl = worst_rho = 0.0
    for i, p in enumerate(probes):
        if i < 10:
            # rho-monotonicity along the ladder, shared candidates; its
            # row comes further down
            for series in (nl[i][2:], loc[i][2:], fl[i][2:]):
                for a, b in zip(series, series[1:]):
                    worst_rho = min(worst_rho, b - a)
        d = problem.d_y(p.y, problem.ybar)
        dxa = problem.d_x(p.x, problem.xbar)
        for j, rho in enumerate((0.7, 0.15)):
            anchor_den = max(dxa, rho * d)
            bound = max(
                q * d ** (q - 1.0) * loc[i][j],
                (d**q / anchor_den) if anchor_den > 0 else 0.0,
            )
            worst_f = min(worst_f, nl[i][j] - bound)
            # on the graph f = d(y, ybar)**q, so f's nonlocal slope is nl
            fbound = max(fl[i][j], (d**q / anchor_den) if anchor_den > 0 else 0.0)
            worst_fl = min(worst_fl, nl[i][j] - fbound)
    row("nonlocal_dominates_local_and_anchor", worst_f >= -SHARED_SLACK, worst_f, 0.0, SHARED_SLACK)
    row("f_nonlocal_dominates_local_and_anchor", worst_fl >= -SHARED_SLACK, worst_fl, 0.0, SHARED_SLACK)

    # strict-slope chains
    uni = ctx["uniform_strict_q_slope"].value
    plain = ctx["strict_q_slope"].value
    modified = ctx["modified_strict_q_slope"].value
    leq("uniform_ge_modified", modified, uni)
    leq("modified_ge_plain", plain, modified)

    dp = ctx["subdiff_strict_q_slope_plain"].value
    da = ctx["subdiff_strict_q_slope_approx"].value
    dm = ctx["subdiff_strict_q_slope_modified"].value
    dma = ctx["subdiff_strict_q_slope_modified_approx"].value
    leq("dual_approx_le_plain", da, dp)
    leq("dual_plain_le_modified", dp, dm)
    leq("dual_approx_le_modified_approx", da, dma)
    leq("dual_modified_approx_le_modified", dma, dm)

    bias = SHARED_SLACK + BAND_BIAS_REL * (0.0 if is_inf(da) else abs(da))
    leq("primal_ge_dual_approx", da, plain, bias)
    bias_m = SHARED_SLACK + BAND_BIAS_REL * (0.0 if is_inf(dma) else abs(dma))
    leq("modified_primal_ge_dual_modified_approx", dma, modified, bias_m)

    if problem.norm_y.smooth_off_origin and problem.has_coderivative:
        close("primal_dual_equality_plain", plain, dp)
        close("primal_dual_equality_modified", modified, dm)

    alpha = ctx["lm_alpha"].value
    beta = ctx["lm_beta"].value
    # the plain/modified integrands carry a (1 - rho) perturbation shrink
    # that the normalized enlargement does not, a one-sided residue of
    # order rho at the finest level
    rho_last = schedule.rho_values()[-1]
    lm_slack = SHARED_SLACK + rho_last * max(
        [abs(v) for v in (alpha, beta, dm, dma) if not is_inf(v)] or [0.0]
    )
    leq("alpha_le_dual_modified_approx", alpha, dma, lm_slack)
    leq("dual_plain_le_beta", dp, beta, lm_slack)
    leq("beta_le_dual_modified", beta, dm, lm_slack)

    lim = ctx["limiting_coderivative_min_norm"].value
    close("limiting_agrees_with_dual_plain", lim, dp)
    close("limiting_agrees_with_dual_approx", lim, da)

    # modulus cross-checks
    ef = ErrorFunction(problem, q)
    er = ctx.error_bound
    if er.forms_agree is not None:
        row(
            "modulus_forms_agreement",
            er.forms_agree,
            er.forms.get("x_and_y", INF),
            er.forms.get("x_only", INF),
            SAMPLED_REL,
        )
    f_strict = f_level_strict(ef, schedule)
    f_uni, f_mod, f_plain = (f_strict[k].value for k in ("uniform", "modified", "plain"))
    slack = SHARED_SLACK + (0.0 if is_inf(f_uni) else SAMPLED_REL * abs(f_uni))
    leq("error_bound_le_f_uniform_slope", er.value, f_uni, slack)
    leq("f_uniform_ge_f_modified", f_mod, f_uni)
    leq("f_modified_ge_f_plain", f_plain, f_mod)

    thm = ctx.theorem_7T1
    row(
        "modulus_le_uniform_slope",
        thm.inequality_ok,
        ctx["sr_q"].value,
        thm.uniform_max.value,
        SHARED_SLACK,
    )
    row("metric_invariance", thm.metric_invariant, 0.0, 0.0, 0.0)

    row("rho_monotonicity", worst_rho >= -1e-12, worst_rho, 0.0, 1e-12)

    if problem.has_coderivative:
        worst_h = 0.0
        for p in probes[:5]:
            d = problem.d_y(p.y, problem.ybar)
            if d <= 0:
                continue
            for j in duality_map(p.y - problem.ybar, problem.norm_y).members():
                base = problem.coderivative_image(p.x, p.y, j)
                scaled = problem.coderivative_image(p.x, p.y, 2.5 * j)
                if base is None or scaled is None or base.is_empty() or scaled.is_empty():
                    continue
                if "ball" in (base.kind, scaled.kind):
                    # a ball has no member list: scale its centre and radius
                    if base.kind != scaled.kind:
                        worst_h = INF
                        continue
                    gap_c = float(np.max(np.abs(2.5 * base.center - scaled.center)))
                    gap_r = abs(2.5 * base.radius - scaled.radius)
                    worst_h = max(worst_h, gap_c, gap_r)
                    continue
                for u, v in zip(base.members(), scaled.members()):
                    worst_h = max(worst_h, float(np.max(np.abs(2.5 * u - v))))
        row("coderivative_homogeneity", worst_h <= 1e-9, worst_h, 0.0, 1e-9)

    sr_rep = ctx.subregularity
    wit_err = 0.0
    for w in sr_rep.witnesses:
        x = np.asarray(w["x"], dtype=float)[None]
        fib, sol = float(problem.fiber_distance(x)[0]), float(problem.solution_distance(x)[0])
        if not is_inf(fib) and sol > 0:
            wit_err = max(wit_err, abs(fib**q / sol - w["ratio"]))
    row("witness_reproducibility", wit_err <= 1e-9, wit_err, 0.0, 1e-9)

    gammas = [gamma] if gamma is not None else [0.1, 0.5, 0.9, 1.1, 2.0]
    n_viol = 0
    for g in gammas:
        rep = criteria_report(ctx, g)
        n_viol += len(rep.implication_violations)
    row("criteria_implications", n_viol == 0, float(n_viol), 0.0, 0.0)

    p1p2 = validate_P1_P2(ef, schedule)
    row(
        "p1_p2",
        p1p2.p1_status == "pass" and p1p2.p2_status in ("pass", "inconclusive"),
        0.0 if p1p2.passed else 1.0,
        0.0,
        0.0,
        note=f"P1={p1p2.p1_status}, P2={p1p2.p2_status}",
    )

    conv = convexity_necessity_check(ctx)
    row(
        "convexity_necessity",
        conv.status != "fail",
        conv.lhs,
        conv.rhs,
        SAMPLED_REL,
        note=conv.status + (" (infinite-lhs guard)" if conv.infinite_lhs_guard else ""),
    )

    # order monotonicity of the direct inequality check (d < 1 windows)
    if problem.fiber_distance is not None and problem.solution_distance is not None:
        q_low = q / 2.0
        tau = 0.05
        hi = check_subregularity_inequality(problem, q, tau, 0.05, 256, schedule.seed)
        lo = check_subregularity_inequality(problem, q_low, tau, 0.05, 256, schedule.seed)
        row(
            "holder_order_monotonicity",
            (not hi.holds) or lo.holds,
            1.0 if hi.holds else 0.0,
            1.0 if lo.holds else 0.0,
            0.0,
        )

    return rows
