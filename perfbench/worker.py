"""One child process of the benchmark.

    python3 perfbench/worker.py JOB.json

The job file gives the ``src`` directory to import ``subreg`` from, the
mode, the configuration files, where the reports go and whether to
trace.  Modes:

* ``cli``: one configuration through ``subreg.cli.main``, as a user's
  command would run it;
* ``scan``: every configuration through ``parse_config`` /
  ``run_config`` / ``emit_report`` in this interpreter, then the first
  one again, whose report must come back byte-identical;
* ``setup``: ``import subreg`` and ``parse_config`` only.

Set-up is timed from before ``import subreg`` to the return of the first
``parse_config``.  The last line of standard output is one JSON object
with the measurements.
"""

from time import perf_counter

T_START = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _cli(job, out):
    import subreg.cli as cli

    tracer = _install_tracer() if job["trace"] else None
    stamp = {}
    parse = cli.parse_config

    def parse_stamped(raw):
        cfg = parse(raw)
        stamp.setdefault("setup_end", perf_counter())
        return cfg

    cli.parse_config = parse_stamped
    code = cli.main(["--config", job["configs"][0], "--out", job["reports"][0]])
    t_end = perf_counter()
    if "setup_end" in stamp:
        out["setup_s"] = stamp["setup_end"] - T_START
        out["ops"].append({"wall_s": t_end - stamp["setup_end"], "exit": code})
    else:
        out["ops"].append({"exit": code, "error": "parse_config was never reached"})
    if tracer is not None:
        out["trace"] = _trace_totals(tracer)


def _scan(job, out):
    import subreg.report as report

    raws = [_load(path) for path in job["configs"]]
    report.parse_config(raws[0])
    out["setup_s"] = perf_counter() - T_START
    tracer = _install_tracer() if job["trace"] else None
    texts = []
    for raw, path in zip(raws, job["reports"]):
        try:
            cfg = report.parse_config(raw)
            t0 = perf_counter()
            text = report.emit_report(report.run_config(cfg), cfg.output_format)
            wall = perf_counter() - t0
        except Exception as exc:  # one failed configuration must not end the scan
            out["ops"].append({"error": f"{type(exc).__name__}: {exc}"})
            texts.append(None)
            continue
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out["ops"].append({"wall_s": wall, "exit": 0})
        texts.append(text)
    if tracer is not None:
        out["trace"] = _trace_totals(tracer)
    # warm caches must not change the output; not an operation of its own
    again = report.emit_report(report.run_config(report.parse_config(raws[0])))
    out["rerun_identical"] = texts[0] is not None and again == texts[0]


def _setup(job, out):
    import subreg.report as report

    report.parse_config(_load(job["configs"][0]))
    out["setup_s"] = perf_counter() - T_START


def _install_tracer():
    import spans

    return spans.install()


def _trace_totals(tracer) -> dict:
    import subreg.problems as problems

    totals = tracer.snapshot()
    totals["problems.pool_builds"] = problems.outer_pools.cache_info().misses
    return totals


def main(argv) -> int:
    job = _load(argv[1])
    sys.path.insert(0, job["src"])
    out = {"ops": []}
    {"cli": _cli, "scan": _scan, "setup": _setup}[job["mode"]](job, out)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
