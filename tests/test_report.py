import dataclasses
import hashlib
import json
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import subreg.moduli as moduli
import subreg.slopes_primal as slopes_primal
from subreg import Schedule, catalog_problem, emit_report, parse_config, run_config
from subreg.problems import outer_pools
from subreg.report import ALL_CHECKS, ConfigError, build_problem, report_payload

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

        monkeypatch.setattr(slopes_primal, "sweep_table", refuse)
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

        for name in (
            "theorem_7T1_check",
            "subregularity_modulus",
            "error_bound_modulus",
            "strict_sweep",
        ):
            counted(name)
        outer_pools.cache_clear()
        run_config(_reduced_config(ALL_CHECKS))
        assert calls == {
            "theorem_7T1_check": 1,
            "subregularity_modulus": 1,
            "error_bound_modulus": 1,
            "strict_sweep": 2,  # max- and sum-type product metric
        }
        assert outer_pools.cache_info().misses == 1
        # a finished run's problem and pools are not kept alive
        run_config(_reduced_config(["moduli"], problem="identity", q=1.0))
        assert outer_pools.cache_info().misses == 2
        assert outer_pools.cache_info().currsize == 1

    def test_sweeps_share_candidates_then_drop_them(self, monkeypatch):
        gathers = Counter()
        original = slopes_primal.sample_graph_batch

        def counted(problem, calls):
            gathers["calls"] += len(calls)
            return original(problem, calls)

        monkeypatch.setattr(slopes_primal, "sample_graph_batch", counted)
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
        table = ctx.table
        assert ctx.sweep.table is ctx.sum_sweep.table is table
        assert int(table.sizes.sum()) > 2 * len(table.points) > 0

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
        assert all(a.shape[0] == len(table.points) for a in kept)

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


def test_import_does_not_load_scipy(cli_env):
    res = subprocess.run(
        [sys.executable, "-c", "import sys, subreg; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=cli_env,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


# an inline problem whose anchor the bad-value cases replace
_LINE = {"pieces": [{"domain": [-1.0, 1.0], "coeffs": [0.0, 1.0]}]}


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

    def test_overflowing_rho0_exits_2(self, tmp_path, cli_env):
        for problem, q in (
            ("half-square", 0.5),  # the fiber distance squares the huge sampled x
            ("linear-A", 1),  # numpy overflow in the batched graph map
        ):
            raw = {
                "problem": problem,
                "q": q,
                "schedule": {"rho0": 1e308, "sample_budget": 256, "steps": 5},
                "checks": ["moduli"],
            }
            cfg = tmp_path / "huge.json"
            cfg.write_text(json.dumps(raw))
            res = self._run(["--config", str(cfg)], tmp_path, cli_env)
            assert res.returncode == 2, (problem, res.stderr)
            assert "invalid configuration: numeric overflow" in res.stderr
            assert "smaller schedule rho0" in res.stderr

    def test_missing_config_exits_2(self, tmp_path, cli_env):
        res = self._run(
            ["--config", str(tmp_path / "absent.json")], tmp_path, cli_env
        )
        assert res.returncode == 2, res.stderr
        assert "cannot read config" in res.stderr

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
