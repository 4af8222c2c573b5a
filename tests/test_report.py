import ast
import dataclasses
import enum
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from collections import Counter, OrderedDict, namedtuple
from pathlib import Path

import numpy as np
import pytest

import subreg.cli
import subreg.moduli as moduli
import subreg.problems as problems
import subreg.report as report_module
from subreg import Schedule, catalog_problem, emit_report, parse_config, run_config
from subreg.problems import outer_pools
from subreg.report import ALL_CHECKS, ConfigError, _emit, build_problem, report_payload

FULL_HS_CONFIG = {
    "problem": "half-square",
    "q": 0.5,
    "gamma": 0.5,
    "schedule": {"sample_budget": 1024, "steps": 8, "seed": 7},
    "checks": ["slopes", "moduli", "criteria", "theorem-7T1", "lm-constants"],
}

EXPECTED_ENTRY_NAMES = [
    "uniform_strict_q_slope",
    "strict_q_slope",
    "modified_strict_q_slope",
    "subdiff_strict_q_slope_plain",
    "subdiff_strict_q_slope_approx",
    "subdiff_strict_q_slope_modified",
    "subdiff_strict_q_slope_modified_approx",
    "limiting_coderivative_min_norm",
    "lm_alpha",
    "lm_beta",
    "sr_q",
]


class TestConfigValidation:
    def test_q_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"problem": "half-square", "q": 1.5})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"problem": "half-square", "q": 0.5, "extra": 1})
        with pytest.raises(ConfigError):
            parse_config(
                {"problem": "half-square", "q": 0.5, "schedule": {"rho_zero": 1}}
            )

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"problem": "half-square", "q": 0.5, "checks": ["nope"]})

    def test_unknown_catalog_name_rejected(self):
        cfg = parse_config({"problem": "nosuch", "q": 0.5})
        with pytest.raises(ConfigError):
            build_problem(cfg)

    def test_inline_piecewise_problem(self):
        cfg = parse_config(
            {
                "problem": {
                    "pieces": [{"domain": [-1.0, 1.0], "coeffs": [0.0, 1.0]}],
                    "xbar": 0.0,
                    "ybar": 0.0,
                    "flags": {"convex": True, "smooth": True},
                },
                "q": 1.0,
            }
        )
        problem = build_problem(cfg)
        assert problem.convex
        assert problem.graph_membership([0.5], [0.5])

    def test_defaults(self):
        cfg = parse_config({"problem": "identity", "q": 1.0})
        assert cfg.schedule == Schedule()
        assert set(cfg.checks) == {
            "slopes",
            "moduli",
            "criteria",
            "invariants",
            "theorem-7T1",
            "lm-constants",
        }


@pytest.fixture(scope="module")
def hs_report():
    return run_config(parse_config(FULL_HS_CONFIG))


class TestRunAndEmit:
    def test_entry_names_present(self, hs_report):
        for name in EXPECTED_ENTRY_NAMES:
            assert name in hs_report.constants, name

    def test_half_square_values_near_one(self, hs_report):
        for name in EXPECTED_ENTRY_NAMES:
            if name == "lm_alpha":
                continue  # enlargement constant sits at 1/sqrt(2) here
            value = hs_report.constants[name].value
            assert value == pytest.approx(1.0, abs=0.05), name

    def test_all_passed(self, hs_report):
        assert hs_report.all_passed

    def test_json_is_parseable_and_17_digits(self, hs_report):
        text = emit_report(hs_report, "json")
        data = json.loads(text)
        assert data["problem"] == "half-square"
        assert data["constants"]["sr_q"]["value"] == 1.0
        assert "e-" in format(1 / 3, ".17g") or len(format(1 / 3, ".17g")) >= 17

    def test_table_format_lists_constants(self, hs_report):
        text = emit_report(hs_report, "table")
        for name in EXPECTED_ENTRY_NAMES:
            assert name in text
        assert "criteria at gamma=0.5" in text

    def test_byte_determinism_in_process(self):
        a = emit_report(run_config(parse_config(FULL_HS_CONFIG)), "json")
        b = emit_report(run_config(parse_config(FULL_HS_CONFIG)), "json")
        assert a == b

    def test_provenance_changes_with_seed(self):
        cfg1 = parse_config(FULL_HS_CONFIG)
        data = dict(FULL_HS_CONFIG)
        data["schedule"] = dict(data["schedule"], seed=8)
        cfg2 = parse_config(data)
        assert cfg1.config_hash() != cfg2.config_hash()


def test_infinite_values_serialized_as_literal_inf():
    cfg = parse_config(
        {
            "problem": "constant",
            "q": 1.0,
            "schedule": {"sample_budget": 512, "steps": 6},
            "checks": ["slopes"],
        }
    )
    report = run_config(cfg)
    text = emit_report(report, "json")
    data = json.loads(text)
    assert data["constants"]["uniform_strict_q_slope"]["value"] == "inf"
    assert data["constants"]["uniform_strict_q_slope"]["status"] == "inconclusive"


def _ref_emit(value, parts: list):
    # the isinstance chain the exact-type dispatch replaced
    if value is None:
        parts.append("null")
    elif isinstance(value, (bool, np.bool_)):
        parts.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        parts.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        v = float(value)
        parts.append(format(v, ".17g") if math.isfinite(v) else f'"{v}"')
    elif isinstance(value, str):
        parts.append(json.dumps(value))
    elif isinstance(value, dict):
        parts.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(k)))
            parts.append(":")
            _ref_emit(v, parts)
        parts.append("}")
    elif isinstance(value, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(value):
            if i:
                parts.append(",")
            _ref_emit(v, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _emitted(emit, value) -> str:
    parts = []
    emit(value, parts)
    return "".join(parts)


class _Level(enum.IntEnum):
    FINE = 3


class _Tag(str):
    def __str__(self):
        return "not the text"


_Pair = namedtuple("_Pair", "rho value")


_SERIALIZER_PAYLOADS = [
    # numpy scalars, and the non-finite floats of both kinds
    [np.float64(0.1), np.float32(0.1), np.int64(-7), np.int32(3), np.bool_(True), np.bool_(False)],
    [math.inf, -math.inf, math.nan, np.float64("inf"), np.float64("-inf"), np.float64("nan")],
    [0.0, -0.0, 5e-324, 1e300, -1.5, 1 / 3, 2**-1074, 123456789.0, 1e16, 1e-7],
    # tuples, nesting, empty containers
    {"trace": ((0.5, 1.0), (0.25, math.inf)), "empty": ((), [], {}), "none": None},
    # quotes, control characters and non-ASCII text, as values and keys
    {'a "quoted" \\ key': 'tab\t, newline\n, nul\x00, bell\x07 and \x7f', "é∞": "日本 \U0001f600"},
    # non-string keys go through str
    {7: "int", 2.5: "float", True: "bool", None: "none", (1, 2): "tuple", np.int64(4): "np"},
    # subclasses of the builtins take the isinstance chain
    [_Level.FINE, _Tag("text"), {_Tag("key"): 1}, OrderedDict(b=1, a=[2]), _Pair(0.5, 2.0)],
    [True, False, 0, -1, 2**70, "", "plain"],
]


@pytest.mark.parametrize("payload", _SERIALIZER_PAYLOADS)
def test_emit_matches_the_isinstance_chain(payload):
    assert _emitted(_emit, payload) == _emitted(_ref_emit, payload)


def test_emit_floats_match_the_isinstance_chain():
    # 100k floats of every exponent, by their bits
    bits = np.random.default_rng(11).integers(0, 2**63, 100_000, dtype=np.int64)
    values = bits.view(np.float64).tolist()
    assert _emitted(_emit, values) == _emitted(_ref_emit, values)


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", object(), np.zeros(2), [1.0, {"a": 1j}]])
def test_emit_refuses_what_it_cannot_serialize(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        _emitted(_emit, value)
    with pytest.raises(TypeError, match="cannot serialize"):
        _emitted(_ref_emit, value)


def test_emitted_reports_match_the_isinstance_chain():
    for checks in (["moduli"], ALL_CHECKS):
        payload = report_payload(run_config(_reduced_config(checks)))
        assert _emitted(_emit, payload) == _emitted(_ref_emit, payload)


def test_empty_checks_report_has_provenance_only():
    cfg = parse_config({"problem": "identity", "q": 1.0, "checks": []})
    report = run_config(cfg)
    payload = report_payload(report)
    assert payload["constants"] == {}
    assert payload["criteria"] is None
    assert payload["invariant_results"] == []
    assert "config_sha256" in payload["provenance"]


REDUCED_SCHEDULE = {"sample_budget": 256, "steps": 5}


def _reduced_config(checks, problem="half-square", q=0.5):
    return parse_config(
        {"problem": problem, "q": q, "schedule": dict(REDUCED_SCHEDULE), "checks": list(checks)}
    )


class TestRunContext:
    def test_moduli_only_run_skips_the_dual_constants(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a moduli-only run must not compute this")

        for name in ("lm_constants", "strict_subdiff_q_slopes", "limiting_coderivative_min_norm"):
            monkeypatch.setattr(moduli, name, refuse)
        report = run_config(_reduced_config(["moduli"]))
        assert list(report.constants) == ["sr_q", "error_bound_modulus", "anchor_ratio_liminf"]

    def test_moduli_only_run_builds_no_sweep_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a moduli-only run must not gather candidates")

        monkeypatch.setattr(moduli, "sweep_table", refuse)  # the name RunContext calls
        for problem in ("half-square", _inline_max_power(1.0, 2)):
            report = run_config(_reduced_config(["moduli"], problem=problem))
            ratio = report.constants["anchor_ratio_liminf"]
            assert not ratio.inconclusive and ratio.budget_used > 0

    def test_anchor_ratio_stays_below_the_modified_slope(self):
        # arrow (c) => (e) level by level: the modified slope is the larger
        # of the ratio and the plain slope on the same outer points
        report = run_config(_reduced_config(ALL_CHECKS, problem="linear-A", q=1.0))
        ratio = report.constants["anchor_ratio_liminf"].trace
        modified = report.constants["modified_strict_q_slope"].trace
        assert len(ratio) == len(modified) == REDUCED_SCHEDULE["steps"]
        for (rho, r), (rho_m, m) in zip(ratio, modified):
            assert rho == rho_m and r <= m

    def test_all_checks_compute_each_quantity_once(self, monkeypatch):
        calls = Counter()

        def counted(name):
            original = getattr(moduli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(moduli, name, wrapper)

        init = moduli.RunContext.__init__

        def counted_init(self, *args, **kwargs):
            calls["RunContext"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(moduli.RunContext, "__init__", counted_init)
        for name in (
            "theorem_7T1_check",
            "subregularity_modulus",
            "error_bound_modulus",
            "strict_sweep",
        ):
            counted(name)
        outer_pools.cache_clear()
        report_module._last_tables.clear()
        run_config(_reduced_config(ALL_CHECKS))
        assert calls == {
            "RunContext": 1,  # every check reads the one run context
            "theorem_7T1_check": 1,
            "subregularity_modulus": 1,
            "error_bound_modulus": 1,
            "strict_sweep": 2,  # max- and sum-type product metric
        }
        assert outer_pools.cache_info().misses == 1
        # the next run of the same problem and schedule, at another order,
        # reuses the last run's problem and pools
        run_config(_reduced_config(["moduli"], q=1.0))
        assert outer_pools.cache_info().misses == 1
        # a different problem replaces them
        run_config(_reduced_config(["moduli"], problem="identity", q=1.0))
        assert outer_pools.cache_info().misses == 2
        assert outer_pools.cache_info().currsize == 1

    def test_all_checks_read_the_outer_pools_once(self, monkeypatch):
        # the run's Tables is the one reader of the outer-point table: one
        # call under every name a subreg module holds it by, and no cache hit
        calls = Counter()

        def counted(*args):
            calls["outer_pools"] += 1
            return outer_pools(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("subreg") and getattr(module, "outer_pools", None) is outer_pools:
                monkeypatch.setattr(module, "outer_pools", counted)
        outer_pools.cache_clear()
        report_module._last_tables.clear()
        run_config(_reduced_config(ALL_CHECKS))
        assert calls == {"outer_pools": 1}
        info = outer_pools.cache_info()
        assert (info.hits, info.misses) == (0, 1)

    def test_sweeps_share_candidates_then_drop_them(self, monkeypatch):
        gathers = Counter()
        original = problems.sample_graph_batch

        def counted(problem, calls):
            gathers["calls"] += len(calls)
            return original(problem, calls)

        monkeypatch.setattr(problems, "sample_graph_batch", counted)
        ctx = moduli.RunContext(
            catalog_problem("half-square"), 0.5, Schedule(**REDUCED_SCHEDULE)
        )
        ctx.sweep
        gathered = gathers["calls"]
        assert gathered > 0
        ctx.sum_sweep
        assert gathers["calls"] == gathered  # the sum sweep gathers nothing new
        # and once both are done no per-candidate array is left: the
        # context keeps one row of scalars per pool point
        table = ctx.sweep_table
        assert table.rows is ctx.tables.pool
        assert int(table.sizes.sum()) > 2 * table.rows.depth.size > 0

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, dict):
                for v in obj.values():
                    yield from arrays(v)
            elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
                for field in dataclasses.fields(obj):
                    yield from arrays(getattr(obj, field.name))

        kept = list(arrays({k: v for k, v in vars(ctx).items() if k != "problem"}))
        assert kept
        assert all(a.shape[0] == table.rows.depth.size for a in kept)

    def test_order_scan_reuses_tables_and_keeps_bytes(self, monkeypatch):
        # the order-scan benchmark round: five problems at four orders each
        raws = [
            {"problem": name, "q": q, "schedule": dict(_SCAN_SCHEDULE), "checks": ["moduli"]}
            for name in ("half-square", "identity", "square", "halfline-convex", "constant")
            for q in (0.25, 0.5, 0.75, 1.0)
        ]
        builds = Counter()
        build = report_module.build_problem

        def counted(cfg):
            builds[cfg.problem_spec] += 1
            return build(cfg)

        monkeypatch.setattr(report_module, "build_problem", counted)
        report_module._last_tables.clear()
        warm = [emit_report(run_config(parse_config(raw))) for raw in raws]
        assert builds == {raw["problem"]: 1 for raw in raws}
        assert [_cold_report(raw) for raw in raws] == warm

    @pytest.mark.parametrize("change", ["coefficient", "seed"])
    def test_a_changed_key_never_reuses_tables(self, change):
        first = {
            "problem": _inline_max_power(3.0, 1),
            "q": 1.0,
            "schedule": dict(REDUCED_SCHEDULE),
            "checks": ["moduli"],
        }
        if change == "coefficient":  # inline specs that differ in one coefficient
            second = dict(first, problem=_inline_max_power(3.5, 1))
        else:  # schedules that differ only in their seed
            second = dict(first, schedule=dict(REDUCED_SCHEDULE, seed=1))
        report_module._last_tables.clear()
        run_config(parse_config(first))
        (held,) = report_module._last_tables.values()
        text = emit_report(run_config(parse_config(second)))
        (fresh,) = report_module._last_tables.values()
        assert fresh is not held and fresh.problem is not held.problem
        assert text == _cold_report(second)
        # the two keys give different constants, so a stale table would show
        assert json.loads(text)["constants"] != json.loads(_cold_report(first))["constants"]

    def test_table_arrays_are_read_only(self):
        report_module._last_tables.clear()
        run_config(_reduced_config(["moduli"]))
        (tables,) = report_module._last_tables.values()
        columns = (tables.pool, tables.subreg, tables.anchor)
        values = [getattr(c, f.name) for c in columns for f in dataclasses.fields(c)]
        arrays = [v for v in values if isinstance(v, np.ndarray)]
        # every field is an array but the anchor rows' drawn count
        assert len(arrays) == 18 and len(values) == 19
        for a in arrays:
            assert a.size
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]

    @pytest.mark.parametrize("problem,q", [("half-square", 0.5), ("halfline-convex", 1.0)])
    def test_moduli_only_entries_equal_all_checks_entries(self, problem, q):
        only = json.loads(emit_report(run_config(_reduced_config(["moduli"], problem, q))))
        full = json.loads(emit_report(run_config(_reduced_config(ALL_CHECKS, problem, q))))
        assert only["constants"]
        for name, entry in only["constants"].items():
            # 17 significant digits round-trip, so equal dumps are equal bits
            assert json.dumps(entry) == json.dumps(full["constants"][name]), name


# Eight benchmark configurations at seed 0 and the sha256 of their report
# bytes, as listed in .github/report-hashes/seed-0.txt: the vectorized
# layers must leave every report byte unchanged.  The two catalog rows pin the 2-D
# dual path (linear-A) and empty coderivative images (halfline-convex);
# the inline rows at q = 0.5 and identity at q = 0.25 (a divergent error
# bound) pin the f-level engine.
_SCAN_SCHEDULE = {"sample_budget": 1024, "steps": 8, "seed": 0}
_CATALOG_SCHEDULE = {"sample_budget": 256, "steps": 5, "seed": 0}


def _cold_report(raw):
    """The report of ``raw`` run with no table or pool kept from before."""
    report_module._last_tables.clear()
    outer_pools.cache_clear()
    return emit_report(run_config(parse_config(raw)))


def _inline_max_power(coef, power):
    # F(x) = coef * max(x, 0)**power on [-1, 2], smooth and not convex
    return {
        "pieces": [
            {"domain": [-1.0, 0.0], "coeffs": [0.0]},
            {"domain": [0.0, 2.0], "coeffs": [0.0] * power + [coef]},
        ],
        "xbar": 0.0,
        "ybar": 0.0,
        "flags": {"convex": False, "smooth": True},
    }

_REPORT_HASHES = [
    (
        {"problem": "half-square", "q": 0.5, "schedule": _SCAN_SCHEDULE, "checks": ["moduli"]},
        "362357504b7127411c65e6411144d38ec63da62c579ba124b7d9f31b46d6b36f",
    ),
    (
        {"problem": "halfline-convex", "q": 1.0, "schedule": _SCAN_SCHEDULE, "checks": ["moduli"]},
        "1e2fe65e03b95d4915c5fc6a90e4b637fc7858ee493451bbff46f1224f218fc3",
    ),
    (
        {
            "problem": {
                "pieces": [
                    {"domain": [-1.0, 0.0], "coeffs": [0.0]},
                    {"domain": [0.0, 2.0], "coeffs": [0.0, 3.0]},
                ],
                "xbar": 0.0,
                "ybar": 0.0,
                "flags": {"convex": False, "smooth": False},
            },
            "q": 1.0,
            "schedule": {"sample_budget": 256, "steps": 5, "seed": 0},
            "checks": ["slopes", "moduli", "criteria", "invariants", "theorem-7T1", "lm-constants"],
        },
        "b06b62aad4e1eb3a66346de674f0e4d58fced3dfe0ebbbd2bbcc7d15eb0193db",
    ),
    (
        {
            "problem": "linear-A",
            "q": 1.0,
            "gamma": 0.5,
            "schedule": _CATALOG_SCHEDULE,
            "checks": ALL_CHECKS,
        },
        "6173fa091b29c6a8323c6bcd3c9db3066f45f834f7e8aad8ac2fd56c88eb8f60",
    ),
    (
        {
            "problem": "halfline-convex",
            "q": 1.0,
            "gamma": 0.5,
            "schedule": _CATALOG_SCHEDULE,
            "checks": ALL_CHECKS,
        },
        "1e4dc52e3126bef3b12271a4b92d19724c3354a8fc8fe0ea6f331950c9939eb9",
    ),
    (
        {
            "problem": _inline_max_power(1.0, 2),
            "q": 0.5,
            "schedule": _CATALOG_SCHEDULE,
            "checks": ALL_CHECKS,
        },
        "6032df69fed90dfff59ccf17b0ad2162368706e343e2d15ce24d2d8e3ceed476",
    ),
    (
        {
            "problem": _inline_max_power(2.0, 2),
            "q": 0.5,
            "schedule": _CATALOG_SCHEDULE,
            "checks": ALL_CHECKS,
        },
        "80d7c5e353cce458238ab9f06a6e2f6d9d78e538ddf08abc51db8c2c6d5d4f4f",
    ),
    (
        {"problem": "identity", "q": 0.25, "schedule": _SCAN_SCHEDULE, "checks": ["moduli"]},
        "0e8a565e2bd0e2f4790622a4dbf772ce03e3c8f0497669fea8debe91409bc46c",
    ),
]


@pytest.mark.parametrize(
    "config,digest",
    _REPORT_HASHES,
    ids=[
        "half-square-scan",
        "halfline-convex-scan",
        "3max1-inline",
        "linear-A-catalog",
        "halfline-convex-catalog",
        "half-square-inline",
        "2max2-inline",
        "identity-q0.25-scan",
    ],
)
def test_report_bytes_unchanged(config, digest):
    cfg = parse_config(json.loads(json.dumps(config)))
    text = emit_report(run_config(cfg), cfg.output_format)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="an x86-64 OpenBLAS kernel"
)
def test_report_bytes_do_not_depend_on_the_blas_kernel(tmp_path, cli_env):
    # OpenBLAS picks its kernel from the CPU when it loads. Every x86-64 CPU
    # runs Prescott's; forcing a kernel the CPU lacks can die with an
    # illegal instruction, so no other one is forced
    raw = {"problem": "linear-A", "q": 1.0, "schedule": _CATALOG_SCHEDULE, "checks": ALL_CHECKS}
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(raw))
    res = subprocess.run(
        [sys.executable, "-m", "subreg.cli", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        env=dict(cli_env, OPENBLAS_CORETYPE="Prescott"),
    )
    assert res.returncode == 0, res.stderr
    assert out.read_text() == emit_report(run_config(parse_config(raw)))


def test_readme_library_example_runs(capsys):
    # the README's one python block, so the library docs cannot rot unseen
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
    sr_q, conditions = capsys.readouterr().out.splitlines()
    assert float(sr_q) == pytest.approx(1.0, rel=0.05)  # the "~1.0" it prints
    assert set(ast.literal_eval(conditions)) == set("abcdefghij")


def test_import_does_not_load_scipy_or_openssl(cli_env):
    # _hashlib is the OpenSSL-backed module behind hashlib
    script = "import sys, subreg; print('scipy' in sys.modules, '_hashlib' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=cli_env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "False"]


def _canonical_sha256(cfg):
    # the digest through hashlib, which config_hash takes only as its last resort
    text = json.dumps(cfg.canonical(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "raw",
    [FULL_HS_CONFIG, {"problem": _inline_max_power(1.0, 2), "q": 0.5}],
    ids=["catalog", "inline"],
)
def test_config_hash_is_sha256_of_canonical_json(raw):
    cfg = parse_config(raw)
    assert cfg.config_hash() == _canonical_sha256(cfg)


# a changed value of each schedule field, valid on its own
_OTHER_SCHEDULE_VALUES = {
    "rho0": 0.25,
    "factor": 0.25,
    "steps": 11,
    "neighborhood_radii": (0.25, 0.05),
    "sample_budget": 4095,
    "truncation_radius": 1.0,
    "seed": 1,
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Schedule)])
def test_config_hash_reads_every_schedule_field(name):
    # the parser accepts every field, and the hash changes with each one
    base = parse_config({"problem": "half-square", "q": 0.5})
    other = parse_config(
        {"problem": "half-square", "q": 0.5, "schedule": {name: _OTHER_SCHEDULE_VALUES[name]}}
    )
    assert getattr(other.schedule, name) != getattr(base.schedule, name)
    assert other.config_hash() != base.config_hash()


def test_config_hash_falls_back_to_hashlib(cli_env):
    # a build without the builtin sha256 modules still imports and hashes alike
    script = "\n".join(
        [
            "import sys",
            "sys.modules['_sha256'] = sys.modules['_sha2'] = None",
            "import hashlib, subreg.report as r",
            "print(r.sha256 is hashlib.sha256)",
            f"print(r.parse_config({FULL_HS_CONFIG!r}).config_hash())",
        ]
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=cli_env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["True", _canonical_sha256(parse_config(FULL_HS_CONFIG))]


def test_one_dimensional_runs_do_not_load_numpy_random_or_openssl(tmp_path, cli_env):
    # the Halton shift is computed without numpy.random and the config hash
    # without hashlib; 2-D and larger catalog entries may still load
    # numpy.random (and through it OpenSSL) for their gaussian directions.
    # numpy.ma, which a bare np.unique imports, costs about 17 ms a process
    configs = [
        {"problem": _inline_max_power(1.0, 2), "q": 0.5, "checks": ALL_CHECKS},
        {"problem": "half-square", "q": 0.5, "checks": ["moduli"]},
    ]
    script = ["import sys, subreg.cli"]
    for i, raw in enumerate(configs):
        cfg = tmp_path / f"config-{i}.json"
        cfg.write_text(json.dumps(dict(raw, schedule=dict(REDUCED_SCHEDULE))))
        out = tmp_path / f"report-{i}.json"
        script.append(f"assert subreg.cli.main(['--config', {str(cfg)!r}, '--out', {str(out)!r}]) == 0")
        script.append("print(*(m in sys.modules for m in ('numpy.random', '_hashlib', 'numpy.ma')))")
    res = subprocess.run(
        [sys.executable, "-c", "\n".join(script)], capture_output=True, text=True, env=cli_env
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False"] * 6


# an inline problem whose anchor the bad-value cases replace
_LINE = {"pieces": [{"domain": [-1.0, 1.0], "coeffs": [0.0, 1.0]}]}
_BAD_PIECE = "piece domain ends and coefficients must be finite numbers"


def _pieces(*domains_and_coeffs):
    # an inline problem from alternating domain and coefficient lists
    pairs = zip(domains_and_coeffs[::2], domains_and_coeffs[1::2])
    return {"pieces": [{"domain": d, "coeffs": c} for d, c in pairs]}


def _bad_flag(name, shown):
    return f"problem.flags.{name} must be true or false, got {shown}"


class TestCLI:
    def _run(self, args, tmp_path, env):
        return subprocess.run(
            [sys.executable, "-m", "subreg.cli"] + args,
            capture_output=True,
            text=True,
            cwd=str(tmp_path),
            env=env,
        )

    def test_invalid_q_exits_2(self, tmp_path, cli_env):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"problem": "half-square", "q": 1.5}))
        res = self._run(["--config", str(cfg)], tmp_path, cli_env)
        assert res.returncode == 2, res.stderr
        assert "invalid configuration" in res.stderr

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("q", True, "q must lie in (0, 1], got True"),
            ("gamma", float("inf"), "gamma must be a positive finite number, got inf"),
            ("neighborhood_radii", [float("nan")], "neighborhood radii must be positive finite"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("steps", 1.5, "steps must be an integer, got 1.5"),
            ("sample_budget", 100.5, "sample_budget must be an integer, got 100.5"),
            ("output", 5, "output must be a mapping"),
            ("checks", "moduli", "checks must be a list of check names"),
            ("output", {"path": 5}, "output path must be a string, got 5"),
            ("problem", dict(_LINE, xbar=[0, 1]), "problem.xbar must be a finite number, got [0, 1]"),
            ("problem", dict(_LINE, ybar=[0, 1]), "problem.ybar must be a finite number, got [0, 1]"),
            ("problem", dict(_LINE, ybar={"y": 0}), "problem.ybar must be a finite number, got {'y': 0}"),
            # rho ladders whose finest rho underflows to 0
            ("steps", 1100, "the finest rho, rho0 * factor**(steps - 1), underflows to 0"),
            ("factor", 1e-100, "the finest rho, rho0 * factor**(steps - 1), underflows to 0"),
            # inline pieces: a string, a bool, a NaN or an infinity
            ("problem", _pieces([-1, 1], [0, "1"]), _BAD_PIECE),
            ("problem", _pieces([-1, True], [0, True]), _BAD_PIECE),
            ("problem", _pieces([-1, 0], [0.0], [0, 1], [0, float("nan")]), _BAD_PIECE),
            ("problem", _pieces([-1, float("inf")], [0, 1]), _BAD_PIECE),
            # inline flags that are not JSON booleans
            ("problem", dict(_LINE, flags={"convex": "false"}), _bad_flag("convex", "'false'")),
            ("problem", dict(_LINE, flags={"convex": "yes"}), _bad_flag("convex", "'yes'")),
            ("problem", dict(_LINE, flags={"convex": 1.5}), _bad_flag("convex", "1.5")),
            ("problem", dict(_LINE, flags={"smooth": 1}), _bad_flag("smooth", "1")),
            (
                "problem",
                dict(_LINE, flags={"graph_locally_closed": "no"}),
                _bad_flag("graph_locally_closed", "'no'"),
            ),
            # a check named twice would run once and be listed twice
            ("checks", ["moduli", "slopes", "moduli"], "duplicate checks: ['moduli']"),
            ("neighborhood_radii", 5, "invalid schedule"),
            # a key a piece does not have, and domains that overlap on a length
            (
                "problem",
                {"pieces": [{"domain": [-1, 1], "coeffs": [0, 1], "extra": 1}]},
                "unknown keys in piece: ['extra']",
            ),
            ("problem", _pieces([-1, 1], [0, 1], [0, 2], [0, 2]), "piece domains overlap on [0.0, 1.0]"),
        ],
    )
    def test_bad_value_exits_2(self, tmp_path, cli_env, key, value, message):
        raw = {"problem": "identity", "q": 1.0, "schedule": dict(REDUCED_SCHEDULE)}
        if key in ("problem", "q", "gamma", "output", "checks"):
            raw[key] = value
        else:
            raw["schedule"][key] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))  # inf and nan as the JSON literals Infinity / NaN
        res = self._run(["--config", str(cfg)], tmp_path, cli_env)
        assert res.returncode == 2, res.stderr
        assert "invalid configuration" in res.stderr
        assert message in res.stderr

    def test_neighborhood_radii_list_runs(self, tmp_path, cli_env):
        # the JSON list reaches Schedule as it is: the schedule makes it a tuple
        schedule = dict(REDUCED_SCHEDULE, neighborhood_radii=[0.25, 0.05, 0.01])
        raw = {"problem": "identity", "q": 1.0, "schedule": schedule, "checks": ["moduli"]}
        cfg = tmp_path / "radii.json"
        cfg.write_text(json.dumps(raw))
        res = self._run(["--config", str(cfg)], tmp_path, cli_env)
        assert res.returncode == 0, res.stderr
        assert parse_config(raw).schedule.neighborhood_radii == (0.25, 0.05, 0.01)

    def test_overflowing_rho0_exits_2(self, tmp_path, cli_env):
        for problem, q, schedule, checks in (
            # the fiber distance squares the huge sampled x
            ("half-square", 0.5, {"rho0": 1e308}, ["moduli"]),
            # numpy overflow in the batched graph map
            ("linear-A", 1, {"rho0": 1e308}, ["moduli"]),
            # the slopes sample out to a huge truncation radius
            ("half-square", 0.5, {"truncation_radius": 1e300}, ["slopes"]),
        ):
            raw = {
                "problem": problem,
                "q": q,
                "schedule": dict(schedule, sample_budget=256, steps=5),
                "checks": checks,
            }
            cfg = tmp_path / "huge.json"
            cfg.write_text(json.dumps(raw))
            res = self._run(["--config", str(cfg)], tmp_path, cli_env)
            assert res.returncode == 2, (problem, schedule, res.stderr)
            assert "invalid configuration: numeric overflow" in res.stderr
            assert "smaller schedule rho0 or truncation_radius" in res.stderr

    def test_memory_exhaustion_exits_2(self, tmp_path, monkeypatch, capsys):
        # a huge sample budget fails numpy's allocation inside the run: no
        # traceback, and the message names the budget (nothing is allocated)
        def exhausted(cfg):
            raise MemoryError("Unable to allocate 286. MiB for an array")

        monkeypatch.setattr(subreg.cli, "run_config", exhausted)
        cfg = tmp_path / "huge.json"
        raw = {"problem": "half-square", "q": 0.5, "checks": ["moduli"]}
        cfg.write_text(json.dumps(dict(raw, schedule={"sample_budget": 100000000, "steps": 3})))
        assert subreg.cli.main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration: out of memory during evaluation" in err
        assert "Unable to allocate 286. MiB" in err
        assert "smaller schedule sample_budget" in err
        assert "Traceback" not in err

    def test_missing_config_exits_2(self, tmp_path, cli_env):
        res = self._run(
            ["--config", str(tmp_path / "absent.json")], tmp_path, cli_env
        )
        assert res.returncode == 2, res.stderr
        assert "cannot read config" in res.stderr

    def test_config_not_utf8_exits_2(self, tmp_path, cli_env):
        cfg = tmp_path / "utf16.json"
        text = json.dumps({"problem": "identity", "q": 1.0})
        cfg.write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))  # UTF-16 with its byte-order mark
        res = self._run(["--config", str(cfg)], tmp_path, cli_env)
        assert res.returncode == 2, res.stderr
        assert "cannot read config" in res.stderr

    def test_out_naming_a_directory_exits_2(self, tmp_path, cli_env):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "identity", "q": 1.0, "checks": ["moduli"]}))
        (tmp_path / "reports").mkdir()
        for args in (["--out", str(tmp_path / "reports")], ["--out", "reports"]):
            res = self._run(["--config", str(cfg)] + args, tmp_path, cli_env)
            assert res.returncode == 2, res.stderr
            assert "invalid configuration: output path is a directory" in res.stderr
            assert "Traceback" not in res.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_report_write_failure_exits_2(self, tmp_path, cli_env):
        # every write to /dev/full fails with ENOSPC
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "identity", "q": 1.0, "checks": ["moduli"]}))
        res = self._run(["--config", str(cfg), "--out", "/dev/full"], tmp_path, cli_env)
        assert res.returncode == 2, res.stderr
        assert "error: cannot write report:" in res.stderr
        assert "Traceback" not in res.stderr

    def test_verify_run_passes(self, tmp_path, cli_env):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "problem": "identity",
                    "q": 1.0,
                    "schedule": {"sample_budget": 512, "steps": 6},
                }
            )
        )
        out = tmp_path / "report.json"
        res = self._run(
            ["--config", str(cfg), "--verify", "--out", str(out)], tmp_path, cli_env
        )
        assert res.returncode == 0, res.stderr
        data = json.loads(out.read_text())
        assert data["all_passed"] is True
        assert all(r["passed"] for r in data["invariant_results"])

    def test_seed_override_changes_provenance(self, tmp_path, cli_env):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "problem": "identity",
                    "q": 1.0,
                    "schedule": {"sample_budget": 256, "steps": 4},
                    "checks": ["slopes"],
                }
            )
        )
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        r1 = self._run(["--config", str(cfg), "--out", str(out1)], tmp_path, cli_env)
        r2 = self._run(
            ["--config", str(cfg), "--seed-override", "99", "--out", str(out2)],
            tmp_path,
            cli_env,
        )
        assert r1.returncode == 0, r1.stderr
        assert r2.returncode == 0, r2.stderr
        d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert d1["provenance"]["seed"] == 0
        assert d2["provenance"]["seed"] == 99
        assert d1["provenance"]["config_sha256"] != d2["provenance"]["config_sha256"]
