"""Configuration-driven runs and report emission.

A run configuration (JSON file) names a problem (catalog entry or
inline piecewise-polynomial graph), the order q, an optional gamma, the
schedule, and the checks to execute.  Reports serialize floats at 17
significant digits with infinity as the literal string "inf", so
re-running an identical configuration byte-reproduces the machine
report.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .extended import Infinity, is_inf
from .moduli import (
    CONSTANT_NAMES,
    CriteriaReport,
    InvariantRow,
    RunContext,
    criteria_report,
    run_invariant_suite,
)
from .problems import (
    MappingProblem,
    Schedule,
    catalog_problem,
    is_finite_real,
    piecewise_problem,
)

ALL_CHECKS = ("slopes", "moduli", "criteria", "invariants", "theorem-7T1", "lm-constants")
DEFAULT_GAMMA = 0.5

# check -> the constants its report shows
_CHECK_ENTRIES = {
    "slopes": (
        "uniform_strict_q_slope",
        "strict_q_slope",
        "modified_strict_q_slope",
        "subdiff_strict_q_slope_plain",
        "subdiff_strict_q_slope_approx",
        "subdiff_strict_q_slope_modified",
        "subdiff_strict_q_slope_modified_approx",
        "limiting_coderivative_min_norm",
    ),
    "moduli": ("sr_q", "error_bound_modulus", "anchor_ratio_liminf"),
    "lm-constants": ("lm_alpha", "lm_beta"),
}


class ConfigError(ValueError):
    """The run configuration failed validation."""


@dataclass(frozen=True)
class RunConfig:
    problem_spec: object
    q: float
    gamma: Optional[float]
    schedule: Schedule
    checks: tuple
    output_path: Optional[str] = None
    output_format: str = "json"

    def canonical(self) -> dict:
        spec = self.problem_spec
        if isinstance(spec, dict):
            spec = json.loads(json.dumps(spec, sort_keys=True))
        return {
            "problem": spec,
            "q": self.q,
            "gamma": self.gamma,
            "schedule": {
                "rho0": self.schedule.rho0,
                "factor": self.schedule.factor,
                "steps": self.schedule.steps,
                "neighborhood_radii": list(self.schedule.neighborhood_radii),
                "sample_budget": self.schedule.sample_budget,
                "truncation_radius": self.schedule.truncation_radius,
                "seed": self.schedule.seed,
            },
            "checks": list(self.checks),
            "format": self.output_format,
        }

    def config_hash(self) -> str:
        text = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def _require_keys(data: dict, allowed: set, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def parse_config(data: dict) -> RunConfig:
    """Validate a raw configuration mapping; unknown keys are rejected."""
    _require_keys(
        data, {"problem", "q", "gamma", "schedule", "checks", "output"}, "config"
    )
    if "problem" not in data or "q" not in data:
        raise ConfigError("configuration requires 'problem' and 'q'")

    q = data["q"]
    if not is_finite_real(q) or not 0.0 < float(q) <= 1.0:
        raise ConfigError(f"q must lie in (0, 1], got {q!r}")
    gamma = data.get("gamma")
    if gamma is not None and (not is_finite_real(gamma) or gamma <= 0):
        raise ConfigError(f"gamma must be a positive finite number, got {gamma!r}")

    sched_data = data.get("schedule", {})
    _require_keys(
        sched_data,
        {
            "rho0",
            "factor",
            "steps",
            "neighborhood_radii",
            "sample_budget",
            "truncation_radius",
            "seed",
        },
        "schedule",
    )
    kwargs = dict(sched_data)
    try:
        if "neighborhood_radii" in kwargs:
            kwargs["neighborhood_radii"] = tuple(kwargs["neighborhood_radii"])
        schedule = Schedule(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid schedule: {exc}") from exc

    checks = data.get("checks", ALL_CHECKS)
    if not isinstance(checks, (list, tuple)):
        raise ConfigError("checks must be a list of check names")
    checks = tuple(checks)
    bad = [c for c in checks if c not in ALL_CHECKS]
    if bad:
        raise ConfigError(f"unknown checks: {bad}")

    spec = data["problem"]
    if isinstance(spec, str):
        pass
    elif isinstance(spec, dict):
        _require_keys(spec, {"pieces", "xbar", "ybar", "flags"}, "problem")
        if "pieces" not in spec:
            raise ConfigError("inline problem requires 'pieces'")
        for key in ("xbar", "ybar"):
            if not is_finite_real(spec.get(key, 0.0)):
                raise ConfigError(f"problem.{key} must be a finite number, got {spec[key]!r}")
        flags = spec.get("flags", {})
        _require_keys(
            flags, {"convex", "smooth", "graph_locally_closed"}, "problem.flags"
        )
    else:
        raise ConfigError("problem must be a catalog name or an inline mapping")

    output = data.get("output", {})
    _require_keys(output, {"path", "format"}, "output")
    fmt = output.get("format", "json")
    if fmt not in ("json", "table"):
        raise ConfigError(f"unknown output format {fmt!r}")
    path = output.get("path")
    if path is not None and not isinstance(path, str):
        raise ConfigError(f"output path must be a string, got {path!r}")

    return RunConfig(
        problem_spec=spec,
        q=float(q),
        gamma=None if gamma is None else float(gamma),
        schedule=schedule,
        checks=checks,
        output_path=path,
        output_format=fmt,
    )


def build_problem(cfg: RunConfig) -> MappingProblem:
    spec = cfg.problem_spec
    if isinstance(spec, str):
        try:
            return catalog_problem(spec)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    flags = spec.get("flags", {})
    try:
        return piecewise_problem(
            spec["pieces"],
            xbar=spec.get("xbar", 0.0),
            ybar=spec.get("ybar", 0.0),
            convex=bool(flags.get("convex", False)),
            smooth=bool(flags.get("smooth", False)),
            graph_locally_closed=bool(flags.get("graph_locally_closed", True)),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid inline problem: {exc}") from exc


@dataclass(frozen=True)
class RunReport:
    problem_name: str
    q: float
    gamma: Optional[float]
    checks: tuple
    constants: dict
    criteria: Optional[CriteriaReport]
    invariant_results: tuple
    provenance: dict

    @property
    def all_passed(self) -> bool:
        ok = all(r.passed for r in self.invariant_results)
        if self.criteria is not None:
            ok = ok and not self.criteria.implication_violations
        return ok


def run_config(cfg: RunConfig) -> RunReport:
    """Execute the configured checks in dependency order; missing
    oracles degrade the dependent entries to inconclusive instead of
    aborting."""
    problem = build_problem(cfg)
    gamma = cfg.gamma if cfg.gamma is not None else DEFAULT_GAMMA

    # computes each constant once, and only those the checks read
    ctx = RunContext(problem, cfg.q, cfg.schedule)
    shown = {name for c in cfg.checks for name in _CHECK_ENTRIES.get(c, ())}
    constants = {name: ctx[name] for name in CONSTANT_NAMES if name in shown}

    criteria = None
    if "criteria" in cfg.checks:
        criteria = criteria_report(problem, cfg.q, gamma, cfg.schedule, ctx)

    rows = []
    if "invariants" in cfg.checks:
        rows.extend(run_invariant_suite(problem, cfg.q, cfg.schedule, cfg.gamma, ctx))
    if "theorem-7T1" in cfg.checks:
        thm = ctx.theorem_7T1
        rows.append(
            InvariantRow(
                "modulus_le_uniform_slope_check",
                thm.inequality_ok,
                thm.sr.value,
                thm.uniform_max.value,
                1e-6,
            )
        )
        if thm.equality_checked:
            rows.append(
                InvariantRow(
                    "modulus_equals_uniform_slope",
                    bool(thm.equality_ok),
                    thm.sr.value,
                    thm.uniform_max.value,
                    0.10,
                )
            )
        rows.append(
            InvariantRow(
                "modulus_equality_metric_invariant",
                thm.metric_invariant,
                thm.uniform_max.value,
                thm.uniform_sum.value,
                0.10,
            )
        )

    return RunReport(
        problem_name=problem.name,
        q=cfg.q,
        gamma=cfg.gamma,
        checks=cfg.checks,
        constants=constants,
        criteria=criteria,
        invariant_results=tuple(rows),
        provenance={"config_sha256": cfg.config_hash(), "seed": cfg.schedule.seed},
    )


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def _emit(value, parts: list):
    if isinstance(value, Infinity):
        parts.append('"inf"')
    elif value is None:
        parts.append("null")
    elif isinstance(value, (bool, np.bool_)):
        parts.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        parts.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        v = float(value)
        if v != v:
            parts.append('"nan"')
        else:
            parts.append(format(v, ".17g"))
    elif isinstance(value, str):
        parts.append(json.dumps(value))
    elif isinstance(value, dict):
        parts.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(k)))
            parts.append(":")
            _emit(v, parts)
        parts.append("}")
    elif isinstance(value, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(value):
            if i:
                parts.append(",")
            _emit(v, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _estimate_payload(est) -> dict:
    return {
        "value": est.value,
        "trace": [[r, v] for r, v in est.trace],
        "truncated": est.truncated,
        "budget": est.budget_used,
        "status": "inconclusive" if est.inconclusive else "ok",
        "flags": list(est.flags),
    }


def report_payload(report: RunReport) -> dict:
    payload = {
        "problem": report.problem_name,
        "q": report.q,
        "gamma": report.gamma,
        "checks": list(report.checks),
        "constants": {
            name: _estimate_payload(est) for name, est in report.constants.items()
        },
        "criteria": None,
        "invariant_results": [
            {
                "name": r.name,
                "passed": r.passed,
                "lhs": r.lhs,
                "rhs": r.rhs,
                "slack": r.slack,
                "note": r.note,
            }
            for r in report.invariant_results
        ],
        "provenance": dict(report.provenance),
        "all_passed": report.all_passed,
    }
    if report.criteria is not None:
        c = report.criteria
        payload["criteria"] = {
            "gamma": c.gamma,
            "conditions": dict(c.conditions),
            "qualitative": dict(c.qualitative),
            "estimates": dict(c.estimates),
            "implication_violations": list(c.implication_violations),
            "flags": list(c.flags),
        }
    return payload


def emit_report(report: RunReport, fmt: str = "json") -> str:
    """Serialize a run report: machine (json) or human (table) format."""
    if fmt == "json":
        parts: list = []
        _emit(report_payload(report), parts)
        return "".join(parts) + "\n"
    if fmt != "table":
        raise ConfigError(f"unknown output format {fmt!r}")

    lines = []
    lines.append(f"problem: {report.problem_name}    q={report.q:g}")
    if report.constants:
        lines.append("")
        lines.append(f"{'constant':42s} {'value':>24s} {'levels':>7s} flags")
        for name, est in report.constants.items():
            val = "inf" if is_inf(est.value) else format(float(est.value), ".12g")
            flags = ",".join(est.flags) if est.flags else "-"
            lines.append(f"{name:42s} {val:>24s} {len(est.trace):>7d} {flags}")
    if report.criteria is not None:
        c = report.criteria
        lines.append("")
        lines.append(f"criteria at gamma={c.gamma:g}:")
        quant = "  ".join(f"({k}):{v}" for k, v in c.conditions.items())
        lines.append(f"  quantitative  {quant}")
        qual = "  ".join(f"({k}):{v}" for k, v in c.qualitative.items())
        lines.append(f"  qualitative   {qual}")
        lines.append(
            f"  implication violations: {len(c.implication_violations)}"
        )
    if report.invariant_results:
        lines.append("")
        lines.append(f"{'check':44s} {'status':>7s} {'lhs':>14s} {'rhs':>14s}")
        for r in report.invariant_results:
            lhs = "inf" if is_inf(r.lhs) else format(float(r.lhs), ".6g")
            rhs = "inf" if is_inf(r.rhs) else format(float(r.rhs), ".6g")
            status = "pass" if r.passed else "FAIL"
            lines.append(f"{r.name:44s} {status:>7s} {lhs:>14s} {rhs:>14s}")
    lines.append("")
    lines.append(f"all checks passed: {report.all_passed}")
    return "\n".join(lines) + "\n"
