"""Checks of one emitted report against the references in ``workloads.py``.

Tolerances are the README's: 10 % relative, with a 0.02 absolute floor
where the exact modulus is 0.  Where the exact modulus is infinite, a
finite-shell estimate cannot be compared with it; instead every finite
trace entry must be at least the exact infimum over its shell, and the
trace must not decrease from level to level.
"""

from __future__ import annotations

import math

from workloads import EmptyOuterSet

REL_TOL = 0.10
ABS_FLOOR = 0.02
SHELL_SLACK = 1e-9  # relative rounding allowance on shell infima
MODULUS_ENTRIES = ("sr_q", "error_bound_modulus")


def _num(v) -> float:
    return math.inf if v == "inf" else float(v)


def check_modulus(name: str, entry: dict, reference) -> list:
    """Problems found in one estimate entry; empty when it matches."""
    value = _num(entry["value"])
    if isinstance(reference, EmptyOuterSet):
        if value != math.inf or entry["status"] != "inconclusive":
            return [f"{name}: expected inconclusive inf, got {entry['value']!r} ({entry['status']})"]
        return []
    exact = reference.exact
    if math.isinf(exact):
        problems = []
        trace = [(float(r), _num(v)) for r, v in entry["trace"]]
        for rho, v in trace:
            if v < reference.shell_infimum(rho) * (1.0 - SHELL_SLACK):
                problems.append(
                    f"{name}: trace {v!r} at rho={rho!r} is below the shell infimum "
                    f"{reference.shell_infimum(rho)!r}"
                )
        for (r0, v0), (r1, v1) in zip(trace, trace[1:]):
            if v1 < v0:
                problems.append(f"{name}: trace decreases from {v0!r} to {v1!r} at rho={r1!r}")
        return problems
    if exact == 0.0:
        ok = abs(value) <= ABS_FLOOR
    else:
        ok = abs(value - exact) <= REL_TOL * abs(exact)
    return [] if ok else [f"{name}: {value!r} is not within tolerance of {exact!r}"]


def check_report(report: dict, reference, all_checks: bool) -> list:
    """Problems found in one parsed report."""
    problems = []
    for name in MODULUS_ENTRIES:
        entry = report["constants"].get(name)
        if entry is None:
            problems.append(f"{name}: missing from the report")
        else:
            problems.extend(check_modulus(name, entry, reference))
    if all_checks:
        if report["all_passed"] is not True:
            failed = [r["name"] for r in report["invariant_results"] if not r["passed"]]
            problems.append(f"all_passed is not true; failed rows: {failed}")
        criteria = report.get("criteria")
        if criteria is None:
            problems.append("criteria block missing")
        elif criteria["implication_violations"]:
            problems.append(f"implication violations: {criteria['implication_violations']}")
    return problems

