"""The benchmark's workloads: which configurations a round runs, how, and
what each report must contain.

Every configuration is built from the benchmark's ``--seed``, which
becomes the schedule seed; nothing else in the inputs depends on it.
The references are derived here from closed forms, never from the
program (see ``checks.py`` for how they are applied).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

ALL_CHECKS = ["slopes", "moduli", "criteria", "invariants", "theorem-7T1", "lm-constants"]

# The all-checks workloads use a reduced schedule: at the default schedule
# one catalog round takes about 80 s (linear-A alone about 46 s), which
# leaves no room for the repeated rounds a steady median needs.  Five rho
# levels with a 256-point budget still pass all six checks on every
# catalog entry; at four levels the primal-dual equality and
# metric-invariance rows fail.
REDUCED_SCHEDULE = {"sample_budget": 256, "steps": 5}
# The order scan keeps eight rho levels: enough for the finest shell to
# tell a zero, a finite and a divergent modulus apart on this grid.
SCAN_SCHEDULE = {"sample_budget": 1024, "steps": 8}

LINEAR_A = [[2.0, 0.0], [0.0, 3.0]]  # the catalog's default matrix


@dataclass(frozen=True)
class PowerLaw:
    """Near the anchor, on points outside the solution set, the ratio
    ``d(ybar, F(x))^q / d(x, F^{-1}(ybar))`` is exactly ``coef * x**exponent``.

    The modulus (the liminf as x -> 0+) is then ``coef`` for a zero
    exponent, 0 for a positive one and infinite for a negative one; in
    the last case the infimum over a shell ``0 < x < rho`` is
    ``coef * rho**exponent``.
    """

    coef: float
    exponent: float

    @property
    def exact(self) -> float:
        if self.exponent == 0.0:
            return self.coef
        return 0.0 if self.exponent > 0.0 else float("inf")

    def shell_infimum(self, rho: float) -> float:
        return self.coef * rho**self.exponent


@dataclass(frozen=True)
class Finite:
    """A finite modulus known in closed form."""

    exact: float


@dataclass(frozen=True)
class EmptyOuterSet:
    """No point lies outside the solution set: the modulus must come back
    inconclusive at ``inf``."""


def linear_a_modulus() -> Finite:
    # F(x) = A x with euclidean norms at q = 1: the modulus is the
    # smallest singular value of A
    return Finite(float(np.linalg.svd(np.array(LINEAR_A), compute_uv=False).min()))


def max_power_law(coef: float, power: int, q: float) -> PowerLaw:
    """``F(x) = coef * max(x, 0)**power`` at order q:
    ``(coef x^power)^q / x = coef^q x^(power q - 1)``."""
    return PowerLaw(coef**q, power * q - 1.0)


def catalog_reference(name: str, q: float):
    if name in ("half-square", "square"):
        return max_power_law(1.0, 2, q)
    if name in ("identity", "halfline-convex"):
        return max_power_law(1.0, 1, q)
    if name == "linear-A":
        return linear_a_modulus()
    if name == "constant":
        return EmptyOuterSet()
    raise KeyError(name)


@dataclass(frozen=True)
class Operation:
    """One configuration, from its parsed form to its emitted report."""

    label: str
    config: dict
    reference: object  # PowerLaw | Finite | EmptyOuterSet
    all_checks: bool  # the report must carry all_passed and no violations


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "cli": a fresh interpreter per operation; "scan": one interpreter per round
    build: Callable[[int], list]


CATALOG_Q = {
    "half-square": 0.5,
    "identity": 1.0,
    "square": 1.0,
    "linear-A": 1.0,
    "halfline-convex": 1.0,
    "constant": 1.0,
}


def _config(problem, q: float, seed: int, schedule: dict, checks: list, gamma=None) -> dict:
    cfg = {"problem": problem, "q": q, "schedule": dict(schedule, seed=seed), "checks": checks}
    if gamma is not None:
        cfg["gamma"] = gamma
    return cfg


def catalog_full(seed: int) -> list:
    return [
        Operation(
            f"{name}@q={q:g}",
            _config(name, q, seed, REDUCED_SCHEDULE, ALL_CHECKS, gamma=0.5),
            catalog_reference(name, q),
            True,
        )
        for name, q in CATALOG_Q.items()
    ]


# (label, coef, power, q, flags): F(x) = coef * max(x, 0)**power on [-1, 2]
INLINE_PROBLEMS = (
    ("half-square-inline", 1.0, 2, 0.5, {"convex": False, "smooth": True}),
    ("2max2-inline", 2.0, 2, 0.5, {"convex": False, "smooth": True}),
    ("3max1-inline", 3.0, 1, 1.0, {"convex": False, "smooth": False}),
)


def inline_spec(coef: float, power: int, flags: dict) -> dict:
    coeffs = [0.0] * power + [coef]  # ascending: c0 + c1 x + ...
    return {
        "pieces": [
            {"domain": [-1.0, 0.0], "coeffs": [0.0]},
            {"domain": [0.0, 2.0], "coeffs": coeffs},
        ],
        "xbar": 0.0,
        "ybar": 0.0,
        "flags": dict(flags),
    }


def inline_piecewise(seed: int) -> list:
    return [
        Operation(
            f"{label}@q={q:g}",
            _config(inline_spec(coef, power, flags), q, seed, REDUCED_SCHEDULE, ALL_CHECKS),
            max_power_law(coef, power, q),
            True,
        )
        for label, coef, power, q, flags in INLINE_PROBLEMS
    ]


SCAN_PROBLEMS = ("half-square", "identity", "square", "halfline-convex", "constant")
# q = 0.5 and 1.0 are the canonical orders; below them every 1-D entry is
# in the divergent regime.  Orders in (0.5, 0.62) are left out: there the
# modulus of half-square and square is 0, but at the finest sampled
# x (about 1.2e-7) x**(2q-1) still exceeds the 0.02 absolute floor.
SCAN_Q = (0.25, 0.5, 0.75, 1.0)


def order_scan(seed: int) -> list:
    return [
        Operation(
            f"{name}@q={q:g}",
            _config(name, q, seed, SCAN_SCHEDULE, ["moduli"]),
            catalog_reference(name, q),
            False,
        )
        for name in SCAN_PROBLEMS
        for q in SCAN_Q
    ]


WORKLOADS = {
    "catalog-full": Workload("catalog-full", "cli", catalog_full),
    "inline-piecewise": Workload("inline-piecewise", "cli", inline_piecewise),
    "order-scan": Workload("order-scan", "scan", order_scan),
}
