"""Spans and counters recorded from outside the program.

``install()`` replaces public functions of the ``subreg`` modules, and
the oracle callables of every problem that ``build_problem`` returns,
with wrappers that time or count the calls.  The program's own code is
untouched: a wrapper is put under every module name that refers to the
original function, so calls from inside the package go through it too.

A span's self time is its duration minus the time covered by its child
spans.  Counters that are not spans (``count``) leave their time with
the enclosing span.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter
from time import perf_counter

# (metric prefix, module, function) timed as spans
SPANS = (
    ("problems.sample", "subreg.problems", "sample_graph_arrays"),
    ("slopes_primal.gather", "subreg.slopes_primal", "gather_point_candidates"),
    ("slopes_primal.sweep", "subreg.slopes_primal", "strict_sweep"),
    ("slopes_primal.f_level", "subreg.slopes_primal", "f_level_strict"),
    ("slopes_dual.subdiff", "subreg.slopes_dual", "strict_subdiff_q_slopes"),
    ("slopes_dual.limiting", "subreg.slopes_dual", "limiting_coderivative_min_norm"),
    ("slopes_dual.lm", "subreg.slopes_dual", "lm_constants"),
    ("moduli.subreg", "subreg.moduli", "subregularity_modulus"),
    ("moduli.error_bound", "subreg.moduli", "error_bound_modulus"),
    ("moduli.invariants", "subreg.moduli", "run_invariant_suite"),
    ("moduli.criteria", "subreg.moduli", "criteria_report"),
    ("report.parse", "subreg.report", "parse_config"),
    ("report.emit", "subreg.report", "emit_report"),
)
# (metric prefix, module, function) only counted
COUNTS = (
    ("geometry.duality_map", "subreg.geometry", "duality_map"),
    ("moduli.theorem_7T1", "subreg.moduli", "theorem_7T1_check"),
    ("problems.outer_sample", "subreg.problems", "sample_outer_points"),
)


class Tracer:
    def __init__(self):
        self.self_s = Counter()  # span name -> self time
        self.calls = Counter()  # span or counter name -> calls
        self.items = Counter()  # name -> rows, candidates or bytes returned
        self._stack = []  # child time accumulated by each open span

    def span(self, name, fn, measure=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self.self_s[name] += dur - stack.pop()
                self.calls[name] += 1
                if stack:
                    stack[-1] += dur
            if measure is not None:
                self.items[name] += measure(result)
            return result

        return wrapper

    def count(self, name, fn, measure=None):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            result = fn(*args, **kwargs)
            if measure is not None:
                self.items[name] += measure(result)
            return result

        return wrapper

    def snapshot(self) -> dict:
        """Plain totals, keyed ``<name>.self_s``, ``.calls`` and ``.items``."""
        out = {}
        for kind, counter in (("self_s", self.self_s), ("calls", self.calls), ("items", self.items)):
            for name, v in counter.items():
                out[f"{name}.{kind}"] = v
        return out


_MEASURES = {
    "problems.sample": lambda r: len(r[0]),
    "slopes_primal.gather": lambda r: r.size,
    "report.emit": lambda r: len(r.encode()),
    "problems.outer_sample": len,
}


def _replace_everywhere(original, wrapper):
    for name, mod in list(sys.modules.items()):
        if name != "subreg" and not name.startswith("subreg."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install() -> Tracer:
    """Wrap the package's functions; call once, after ``import subreg``."""
    import subreg.geometry as geometry
    import subreg.report as report

    tracer = Tracer()
    for name, modname, fn in SPANS:
        original = getattr(sys.modules[modname], fn)
        _replace_everywhere(original, tracer.span(name, original, _MEASURES.get(name)))
    for name, modname, fn in COUNTS:
        original = getattr(sys.modules[modname], fn)
        _replace_everywhere(original, tracer.count(name, original, _MEASURES.get(name)))

    norm = geometry.NormSpec
    norm.value = tracer.count("geometry.norm", norm.value)
    norm.value_rows = tracer.count("geometry.norm_rows", norm.value_rows, lambda r: len(r))

    build = report.build_problem

    def build_traced(cfg):
        problem = build(cfg)
        oracles = {}
        if problem.param_to_graph is not None:
            oracles["param_to_graph"] = tracer.count("problems.graph_map", problem.param_to_graph)
        if problem.coderivative is not None:
            oracles["coderivative"] = tracer.span("slopes_dual.coderivative", problem.coderivative)
        return dataclasses.replace(problem, **oracles)

    _replace_everywhere(build, build_traced)
    return tracer
