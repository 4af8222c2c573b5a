"""The per-level outer-pool build, kept as the tests' reference.

Each rho level draws its own anchor-centred ``sample_graph_arrays`` and takes
scalar distances and one solution distance per point; level ``k``'s pool
then holds every drawn point, of any level, inside window ``k``, one
entry per copy.  The references of the constants that read the outer
pools scan these nested lists.
"""

from collections import namedtuple

from subreg import is_inf, solution_set_distance
from subreg.problems import EPS_MEM, mix_seed, sample_graph_arrays
from oracle_reference import solution_dist_exact

# one drawn outer point: its distances to xbar and ybar, and to F^{-1}(ybar)
RefPoint = namedtuple("RefPoint", "x y dxa dya sol")


def ref_outer_level(problem, radius, budget, seed, schedule, outer_restriction, anchor_zeros):
    """One level's draw: the points of its shell, in draw order."""
    out = []
    ux, vy = sample_graph_arrays(problem, problem.anchor, radius, budget, seed)
    for x, y in zip(ux, vy):
        dxa = problem.d_x(x, problem.xbar)
        dya = problem.d_y(y, problem.ybar)
        if not (dxa < radius and 0.0 < dya < radius):
            continue
        sd = solution_dist_exact(problem, x)
        if sd is None:
            sd_est = solution_set_distance(problem, x, schedule, anchor_zeros).value
            sd = 1e30 if is_inf(sd_est) else float(sd_est)
        if outer_restriction and sd <= EPS_MEM:
            continue
        out.append(RefPoint(x, y, dxa, dya, sd))
    return out


def ref_fresh(problem, schedule, outer_restriction=True, anchor_zeros=None):
    """Every level's points, in level order."""
    n = schedule.outer_samples_per_level() * (2 if problem.param_dim >= 2 else 1)
    levels = [
        ref_outer_level(
            problem, rho, n, mix_seed(schedule.seed, "outer", k), schedule, outer_restriction,
            anchor_zeros,
        )
        for k, rho in enumerate(schedule.rho_values())
    ]
    return [pt for level in levels for pt in level]


def ref_pools(problem, schedule, outer_restriction=True):
    """Per rho level, every drawn point inside its window, copies included."""
    fresh = ref_fresh(problem, schedule, outer_restriction, {})
    return [
        [pt for pt in fresh if pt.dxa < rho and pt.dya < rho] for rho in schedule.rho_values()
    ]
