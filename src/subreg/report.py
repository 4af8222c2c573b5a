"""Configuration-driven runs and report emission.

A run configuration (JSON file) names a problem (catalog entry or
inline piecewise-polynomial graph), the order q, an optional gamma, the
schedule, and the checks to execute.  Reports serialize floats at 17
significant digits with infinity as the literal string "inf", so
re-running an identical configuration byte-reproduces the machine
report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# hashlib loads OpenSSL's libcrypto (about 3.5 MiB resident) for this one
# digest: take CPython's builtin sha256 first, as random.py does for sha512
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .geometry import is_finite_real, is_order
from .moduli import (
    CONSTANT_NAMES,
    MODULUS_REL,
    SHARED_SLACK,
    CriteriaReport,
    InvariantRow,
    RunContext,
    Tables,
    criteria_report,
    run_invariant_suite,
)
from .problems import MappingProblem, Schedule, catalog_problem, piecewise_problem

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
        return sha256(text.encode()).hexdigest()


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
    if not is_order(q):
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
    try:
        schedule = Schedule(**sched_data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid schedule: {exc}") from exc

    checks = data.get("checks", ALL_CHECKS)
    if not isinstance(checks, (list, tuple)):
        raise ConfigError("checks must be a list of check names")
    checks = tuple(checks)
    bad = [c for c in checks if c not in ALL_CHECKS]
    if bad:
        raise ConfigError(f"unknown checks: {bad}")
    if len(set(checks)) < len(checks):
        raise ConfigError(f"duplicate checks: {sorted({c for c in checks if checks.count(c) > 1})}")

    spec = data["problem"]
    if isinstance(spec, dict):
        _require_keys(spec, {"pieces", "xbar", "ybar", "flags"}, "problem")
        if "pieces" not in spec:
            raise ConfigError("inline problem requires 'pieces'")
        for key in ("xbar", "ybar"):
            if not is_finite_real(spec.get(key, 0.0)):
                raise ConfigError(f"problem.{key} must be a finite number, got {spec[key]!r}")
        flags = spec.get("flags", {})
        # smooth is accepted for older configurations; it does not change the run
        _require_keys(flags, {"convex", "smooth", "graph_locally_closed"}, "problem.flags")
        for key, value in flags.items():
            if not isinstance(value, bool):
                raise ConfigError(f"problem.flags.{key} must be true or false, got {value!r}")
    elif not isinstance(spec, str):
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
            convex=flags.get("convex", False),
            graph_locally_closed=flags.get("graph_locally_closed", True),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid inline problem: {exc}") from exc


# The last run's problem and order-free tables, under the key of its
# canonical problem spec and schedule: the runs of one problem and
# schedule at several orders build them once.
_last_tables: dict = {}


def _tables_for(cfg: RunConfig) -> Tables:
    """The tables of the last run when ``cfg`` names the same problem
    spec and schedule, else fresh ones (with a fresh problem) in their
    place."""
    key = (json.dumps(cfg.problem_spec, sort_keys=True), cfg.schedule)
    tables = _last_tables.get(key)
    if tables is None:
        _last_tables.clear()
        tables = _last_tables[key] = Tables(build_problem(cfg), cfg.schedule)
    return tables


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
    tables = _tables_for(cfg)
    problem = tables.problem
    gamma = cfg.gamma if cfg.gamma is not None else DEFAULT_GAMMA

    # computes each constant once, and only those the checks read
    ctx = RunContext(problem, cfg.q, cfg.schedule, tables)
    shown = {name for c in cfg.checks for name in _CHECK_ENTRIES.get(c, ())}
    constants = {name: ctx[name] for name in CONSTANT_NAMES if name in shown}

    criteria = None
    if "criteria" in cfg.checks:
        criteria = criteria_report(ctx, gamma)

    rows = []
    if "invariants" in cfg.checks:
        rows.extend(run_invariant_suite(ctx, cfg.gamma))
    if "theorem-7T1" in cfg.checks:
        thm = ctx.theorem_7T1
        rows.append(
            InvariantRow(
                "modulus_le_uniform_slope_check",
                thm.inequality_ok,
                thm.sr.value,
                thm.uniform_max.value,
                SHARED_SLACK,
            )
        )
        if thm.equality_checked:
            rows.append(
                InvariantRow(
                    "modulus_equals_uniform_slope",
                    bool(thm.equality_ok),
                    thm.sr.value,
                    thm.uniform_max.value,
                    MODULUS_REL,
                )
            )
        rows.append(
            InvariantRow(
                "modulus_equality_metric_invariant",
                thm.metric_invariant,
                thm.uniform_max.value,
                thm.uniform_sum.value,
                MODULUS_REL,
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


# what json.dumps returns for a str, without its dispatch
_encode_str = json.encoder.encode_basestring_ascii
# numpy scalars and subclasses of the builtins, as the builtin each stands for
_AS_BUILTIN = (((bool, np.bool_), bool), ((int, np.integer), int), ((float, np.floating), float),
               (str, str.__str__), (dict, lambda d: dict(d.items())), ((list, tuple), list))


def _text(value) -> str:
    """The JSON text of ``value``, dispatching on its exact type: floats
    keep 17 significant digits, and non-finite ones are strings."""
    kind = type(value)
    if kind is float:
        return "%.17g" % value if math.isfinite(value) else f'"{value}"'
    if kind is str:
        return _encode_str(value)
    if kind is dict:
        items = [_encode_str(str(k)) + ":" + _text(v) for k, v in value.items()]
        return "{" + ",".join(items) + "}"
    if kind is list or kind is tuple:
        return "[" + ",".join([_text(v) for v in value]) + "]"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    if value is None:
        return "null"
    for types, builtin in _AS_BUILTIN:
        if isinstance(value, types):
            return _text(builtin(value))
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit(value, parts: list):
    parts.append(_text(value))


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
            flags = ",".join(est.flags) if est.flags else "-"
            lines.append(f"{name:42s} {float(est.value):>24.12g} {len(est.trace):>7d} {flags}")
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
            status = "pass" if r.passed else "FAIL"
            lines.append(f"{r.name:44s} {status:>7s} {float(r.lhs):>14.6g} {float(r.rhs):>14.6g}")
    lines.append("")
    lines.append(f"all checks passed: {report.all_passed}")
    return "\n".join(lines) + "\n"
