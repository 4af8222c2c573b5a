"""The subreg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's configurations (see
``workloads.py``) one at a time, in child processes started from this
one, for about ``S`` seconds: another round starts while less than
``S`` minus half a round has passed, so at least one round always runs.  Every report is checked against references derived
in the benchmark.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics from a
traced run with ``--trace 1``.  Progress goes to standard error.

Run it from the root of a source checkout: ``subreg`` is imported from
``src/`` next to this directory, and reports are written under
``.perfbench_out/`` there and removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from checks import check_report
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"

RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever happens to a child
MIN_SETUP_SAMPLES = 6  # setup-only processes top the run up to this many

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _self_s(key):
    return lambda t: t.get(f"{key}.self_s", 0.0)


def _calls(key):
    return lambda t: t.get(f"{key}.calls", 0)


def _items(key):
    return lambda t: t.get(f"{key}.items", 0)


def _pool_points(t):
    builds = t.get("problems.pool_builds", 0)
    return t.get("problems.outer_sample.items", 0) / builds if builds else 0.0


# per-layer metric -> (unit, value from one round's summed trace totals)
PER_LAYER = {
    "problems.sample_s": ("s", _self_s("problems.sample")),
    "problems.sample_calls": ("count", _calls("problems.sample")),
    "problems.graph_points": ("count", _items("problems.sample")),
    "problems.graph_map_calls": ("count", _calls("problems.graph_map")),
    "problems.pool_builds": ("count", lambda t: t.get("problems.pool_builds", 0)),
    "problems.pool_points": ("count", _pool_points),
    "geometry.norm_calls": ("count", _calls("geometry.norm")),
    "geometry.norm_rows": ("count", _items("geometry.norm_rows")),
    "geometry.duality_map_calls": ("count", _calls("geometry.duality_map")),
    "slopes_primal.gather_s": ("s", _self_s("slopes_primal.gather")),
    "slopes_primal.gathers": ("count", _calls("slopes_primal.gather")),
    "slopes_primal.candidates": ("count", _items("slopes_primal.gather")),
    "slopes_primal.sweep_s": ("s", _self_s("slopes_primal.sweep")),
    "slopes_primal.sweeps": ("count", _calls("slopes_primal.sweep")),
    "slopes_primal.f_level_s": ("s", _self_s("slopes_primal.f_level")),
    "slopes_dual.subdiff_s": ("s", _self_s("slopes_dual.subdiff")),
    "slopes_dual.limiting_s": ("s", _self_s("slopes_dual.limiting")),
    "slopes_dual.lm_s": ("s", _self_s("slopes_dual.lm")),
    "slopes_dual.coderivative_calls": ("count", _calls("slopes_dual.coderivative")),
    "slopes_dual.coderivative_s": ("s", _self_s("slopes_dual.coderivative")),
    "moduli.subreg_s": ("s", _self_s("moduli.subreg")),
    "moduli.error_bound_s": ("s", _self_s("moduli.error_bound")),
    "moduli.invariants_s": ("s", _self_s("moduli.invariants")),
    "moduli.criteria_s": ("s", _self_s("moduli.criteria")),
    "moduli.theorem_7T1_calls": ("count", _calls("moduli.theorem_7T1")),
    "report.parse_s": ("s", _self_s("report.parse")),
    "report.emit_s": ("s", _self_s("report.emit")),
    "report.report_bytes": ("count", _items("report.emit")),
}
TRACED_WALL = "traced.wall_s"  # the traced rounds' wall_s, beside the untraced one


class Run:
    """One benchmark run: its directory, deadline and everything measured."""

    def __init__(self, workload, seed: int, trace: bool):
        self.workload = workload
        self.ops = workload.build(seed)
        self.trace = trace
        self.dir = OUT / f"{workload.name}-{seed}-{os.getpid()}"
        self.deadline = perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # completed operations whose output failed a check
        self.op_walls = [[] for _ in self.ops]  # each operation's wall time, one per round
        self.round_traces = []
        self.setups = []
        self.rss = []
        self.config_paths = []
        self.dir.mkdir(parents=True, exist_ok=True)
        for i, op in enumerate(self.ops):
            path = self.dir / f"config-{i}.json"
            path.write_text(json.dumps(op.config), encoding="utf-8")
            self.config_paths.append(str(path))

    def _worker(self, mode: str, configs: list, reports: list) -> dict:
        """Run one child to its end; raise RuntimeError on any failure."""
        job = {"src": str(SRC), "mode": mode, "configs": configs, "reports": reports, "trace": self.trace}
        job_path = self.dir / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        timeout = max(1.0, self.deadline - perf_counter())
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), str(job_path)],
                capture_output=True,
                text=True,
                timeout=timeout,
                cwd=str(ROOT),
            )
        except subprocess.TimeoutExpired as exc:
            raise RuntimeError(f"worker still running after {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise RuntimeError(f"worker printed no result: {proc.stderr.strip()[-2000:]}") from exc
        self.rss.append(result["rss_mb"])
        if "setup_s" in result:
            self.setups.append(result["setup_s"])
        return result

    def _judge(self, op, result: dict, report_path: str) -> bool:
        """Check one operation's outcome; True when it did not fail."""
        self.attempted += 1
        problems = []
        if "error" in result:
            problems.append(result["error"])
        elif result["exit"] != 0:
            problems.append(f"exit code {result['exit']}")
        if "wall_s" in result:
            try:
                with open(report_path, "r", encoding="utf-8") as handle:
                    report = json.load(handle)
            except (OSError, json.JSONDecodeError) as exc:
                problems.append(f"unreadable report: {exc}")
            else:
                found = check_report(report, op.reference, op.all_checks)
                if found:
                    self.wrong += 1
                problems.extend(found)
        for p in problems:
            print(f"FAIL {self.workload.name} {op.label}: {p}", file=sys.stderr)
        if "wall_s" in result:
            print(f"  {op.label}: {result['wall_s']:.3f} s", file=sys.stderr)
        if problems:
            self.failed += 1
        return not problems

    def round(self, index: int):
        reports = [str(self.dir / f"report-{index}-{i}.json") for i in range(len(self.ops))]
        outcomes, traces = [], []
        if self.workload.mode == "cli":
            for config, report in zip(self.config_paths, reports):
                try:
                    result = self._worker("cli", [config], [report])
                except RuntimeError as exc:
                    outcomes.append({"error": str(exc)})
                    continue
                outcomes.append(result["ops"][0])
                traces.append(result.get("trace", {}))
        else:
            try:
                result = self._worker("scan", self.config_paths, reports)
            except RuntimeError as exc:
                outcomes = [{"error": str(exc)}] * len(self.ops)
            else:
                outcomes = result["ops"]
                if not result["rerun_identical"]:
                    outcomes[0] = dict(outcomes[0], error="re-run after the scan changed the report bytes")
                traces.append(result.get("trace", {}))
        wall = 0.0
        for i, (op, outcome, report) in enumerate(zip(self.ops, outcomes, reports)):
            if self._judge(op, outcome, report):
                self.op_walls[i].append(outcome["wall_s"])
                wall += outcome["wall_s"]
        totals = {}
        for t in traces:
            for key, value in t.items():
                totals[key] = totals.get(key, 0) + value
        self.round_traces.append(totals)
        print(f"round {index}: wall {wall:.3f} s", file=sys.stderr)

    def top_up_setups(self):
        while len(self.setups) < MIN_SETUP_SAMPLES and perf_counter() < self.deadline:
            try:
                self._worker("setup", self.config_paths[:1], [])
            except RuntimeError as exc:
                print(f"FAIL setup probe: {exc}", file=sys.stderr)
                return


def median_wall(op_walls: list) -> float:
    """Sum over the operations of each one's median wall time across the
    rounds: a burst of load on the machine during one round moves it less
    than it moves that round's total."""
    return sum(statistics.median(walls) for walls in op_walls if walls)


def end_to_end_metrics(op_walls: list, setups: list, rss: list) -> dict:
    values = {
        "wall_s": median_wall(op_walls),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": max(rss) if rss else 0.0,
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def per_layer_metrics(round_traces: list, op_walls: list) -> dict:
    out = {}
    for name, (unit, value_of) in PER_LAYER.items():
        out[name] = {"value": statistics.fmean(value_of(t) for t in round_traces), "unit": unit}
    out[TRACED_WALL] = {"value": median_wall(op_walls), "unit": "s"}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark subreg run_config workloads.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "subreg" / "__init__.py").is_file():
        print(f"error: no subreg sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed, bool(args.trace))
    try:
        start = perf_counter()
        index = 0
        while True:
            t0 = perf_counter()
            run.round(index)
            index += 1
            now = perf_counter()
            last = now - t0
            if now - start > args.seconds - last / 2 or now + last > run.deadline:
                break
        if not run.trace:
            run.top_up_setups()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass  # another run still uses it
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": (
            per_layer_metrics(run.round_traces, run.op_walls)
            if run.trace
            else end_to_end_metrics(run.op_walls, run.setups, run.rss)
        ),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
