"""Per-layer tracing of freewalk from outside the package.

The tracer replaces each traced public function with a timing wrapper at
every ``freewalk`` module that binds it.  The modules import by name
(``from .traffic import solve_walk``), so patching only the defining
module would miss the calls made from ``metrics``, ``cli`` or ``verify``.
Nested calls are therefore seen, and a function's self time is its span
minus the traced spans it encloses.

Spans are kept in memory and written out by the caller at the end of the
run.  Functions in ``LEAVES`` are called millions of times per run
(``cylinder_prob`` on a 2-factor ``solve``), so they keep a count and a
summed time instead of one span per call.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter

# Metric prefix -> the functions it covers, as "module:function".  Several
# functions may share one prefix; the prefix's busy time then counts only
# its outermost calls.
TRACED = {
    "traffic.solve_walk": ["freewalk.traffic:solve_walk"],
    "traffic.validate_walk": ["freewalk.traffic:validate_walk"],
    "traffic.traffic_residual": ["freewalk.traffic:traffic_residual"],
    "traffic.q_to_r": ["freewalk.traffic:q_to_r"],
    "metrics.metrics_report": ["freewalk.metrics:metrics_report"],
    "metrics.entropy": ["freewalk.metrics:entropy"],
    "metrics.drift": ["freewalk.metrics:drift"],
    "metrics.drift_weighted": ["freewalk.metrics:drift_weighted"],
    "metrics.volume": ["freewalk.metrics:volume"],
    "metrics.quality_sup": ["freewalk.metrics:quality_sup"],
    "harmonic.build_chain": ["freewalk.harmonic:build_chain"],
    "harmonic.tau2_invariance_residual": ["freewalk.harmonic:tau2_invariance_residual"],
    "harmonic.cylinder_prob": ["freewalk.harmonic:cylinder_prob"],
    "groups.free_product_of_cyclics": ["freewalk.groups:free_product_of_cyclics"],
    "groups.letter_lengths": ["freewalk.groups:letter_lengths"],
    "groups.normal_words": ["freewalk.groups:normal_words"],
    "groups.sphere_series": ["freewalk.groups:sphere_series"],
    "walkspec.load_spec": ["freewalk.walkspec:load_spec"],
    "walkspec.builders": [
        "freewalk.walkspec:zkzk_simple",
        "freewalk.walkspec:hecke_simple",
        "freewalk.walkspec:z2z3_walk",
        "freewalk.walkspec:z3z3_sym",
        "freewalk.walkspec:z3z3_asym",
        "freewalk.walkspec:uniform_per_factor",
        "freewalk.walkspec:extremal_walk",
        "freewalk.walkspec:z2z2z2",
        "freewalk.metrics:extremal_measure",
    ],
    "closedform.gamma_zkzk_interval": ["freewalk.closedform:gamma_zkzk_interval"],
    "closedform.gamma_hecke_interval": ["freewalk.closedform:gamma_hecke_interval"],
    "closedform.float_roots": ["freewalk.closedform:solve_xk", "freewalk.closedform:solve_yk"],
    "simulate.estimate_drift": ["freewalk.simulate:estimate_drift"],
    "simulate.estimate_prefix": ["freewalk.simulate:estimate_prefix"],
    "simulate.estimate_hitting": ["freewalk.simulate:estimate_hitting"],
    "simulate.exact_convolution": ["freewalk.simulate:exact_convolution"],
    "cli.main": ["freewalk.cli:main"],
}

LEAVES = {"harmonic.cylinder_prob"}


@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    depth: int = 0


def _count_solve(tracer: "Tracer", bound, result, exc) -> None:
    if exc is not None:
        tracer.add("traffic.errors", 1)
        return
    tracer.add("traffic.iterations.sum", result.iterations)
    tracer.counts["traffic.iterations.max"] = max(
        tracer.counts.get("traffic.iterations.max", 0), result.iterations
    )


def _count_quality_sup(tracer: "Tracer", bound, result, exc) -> None:
    if exc is None:
        tracer.add("metrics.quality_sup.evaluations", result.evaluations)


def _count_normal_words(tracer: "Tracer", bound, result, exc) -> None:
    if exc is None:
        tracer.add("groups.normal_words.words", len(result))


def _count_steps(tracer: "Tracer", bound, result, exc) -> None:
    arguments = bound()
    tracer.add("simulate.steps", arguments["steps"] * arguments["reps"])


def _count_support(tracer: "Tracer", bound, result, exc) -> None:
    if exc is None:
        tracer.add("simulate.exact_convolution.support", len(result))


# Counts taken at a boundary from the arguments or the result of a call.
HOOKS = {
    "freewalk.traffic:solve_walk": _count_solve,
    "freewalk.metrics:quality_sup": _count_quality_sup,
    "freewalk.groups:normal_words": _count_normal_words,
    "freewalk.simulate:estimate_drift": _count_steps,
    "freewalk.simulate:estimate_prefix": _count_steps,
    "freewalk.simulate:exact_convolution": _count_support,
}


class Tracer:
    """Spans, per-prefix call statistics and boundary counts for one run."""

    def __init__(self, meter):
        self.meter = meter  # a Speedometer; its sampling time is left out of every span
        self.stats = {key: Stat() for key in TRACED}
        self.counts: dict[str, float] = {}
        # (span id, parent span id, op index, prefix, start, end)
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.op = -1
        self._stack: list[list] = []  # [span id, enclosed traced time]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, key: str, target: str, fn):
        stat = self.stats[key]
        leaf = key in LEAVES
        hook = HOOKS.get(target)
        stack = self._stack
        spans = self.spans
        signature = inspect.signature(fn)
        meter = self.meter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            stat.depth += 1
            result = exc = None
            sampling = meter.overhead
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                end = perf_counter()
                elapsed = end - start - (meter.overhead - sampling)
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stat.depth -= 1
                stat.calls += 1
                stat.self_time += elapsed - frame[1]
                if stat.depth == 0:
                    stat.busy += elapsed
                if not leaf:
                    spans.append((span_id, parent, self.op, key, start, end))
                if hook is not None:
                    hook(self, lambda: signature.bind(*args, **kwargs).arguments, result, exc)

        return traced

    def install(self) -> None:
        """Patch every binding of every traced function in the loaded freewalk modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "freewalk" or name.startswith("freewalk."))]
        wrappers = {}
        for key, targets in TRACED.items():
            for target in targets:
                module_name, func_name = target.split(":")
                original = getattr(sys.modules[module_name], func_name)
                wrappers[id(original)] = (original, self._wrap(key, target, original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The traced pass's per-layer metrics, named ``<module>.<function>.<stat>``."""
    stats, counts = tracer.stats, tracer.counts
    out: dict[str, float] = {}
    for key in ("traffic.validate_walk", "traffic.traffic_residual", "traffic.q_to_r",
                "metrics.entropy", "metrics.drift", "metrics.drift_weighted", "metrics.volume",
                "metrics.quality_sup", "harmonic.build_chain", "harmonic.cylinder_prob",
                "groups.free_product_of_cyclics", "groups.letter_lengths", "groups.normal_words",
                "groups.sphere_series", "walkspec.load_spec", "walkspec.builders",
                "closedform.gamma_zkzk_interval", "closedform.gamma_hecke_interval",
                "closedform.float_roots", "simulate.estimate_drift", "simulate.estimate_prefix",
                "simulate.estimate_hitting", "simulate.exact_convolution", "cli.main"):
        out[f"{key}.busy_s"] = stats[key].busy
    for key in ("traffic.solve_walk", "metrics.metrics_report",
                "harmonic.tau2_invariance_residual", "cli.main"):
        out[f"{key}.self_s"] = stats[key].self_time
    for key in ("traffic.solve_walk", "harmonic.tau2_invariance_residual",
                "harmonic.cylinder_prob"):
        out[f"{key}.calls"] = stats[key].calls
    for name in ("traffic.iterations.sum", "traffic.iterations.max", "traffic.errors",
                 "metrics.quality_sup.evaluations", "groups.normal_words.words",
                 "simulate.steps", "simulate.exact_convolution.support", "cli.output_bytes"):
        out[name] = counts.get(name, 0)
    iterations = out["traffic.iterations.sum"]
    out["traffic.us_per_iteration"] = (
        1e6 * out["traffic.solve_walk.self_s"] / iterations if iterations else 0.0
    )
    stepping = stats["simulate.estimate_drift"].busy + stats["simulate.estimate_prefix"].busy
    out["simulate.steps_per_s"] = out["simulate.steps"] / stepping if stepping else 0.0
    out["trace.spans"] = len(tracer.spans)
    return out
