"""Spans around tracelab's layer boundaries, recorded from outside the package.

A traced round patches each public function at the module attribute through
which the package calls it (``tracelab.harness.cover_trial``, not
``tracelab.walks.cover_trial``, because the harness imported it by name),
runs, and restores the originals. Spans stay in memory: name, start, end,
parent span, and an optional note taken from the return value.
"""

from __future__ import annotations

import functools
import statistics
import time

# (module or class path, attribute, span name, note taken from the result)
TARGETS = (
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "_unit_row", "harness.unit", None),
    ("generate", "random_regular", "generate.random_regular", None),
    ("graphs.Graph", "from_edges", "graphs.from_edges", None),
    ("harness", "start_pool", "walks.start_pool", None),
    ("harness", "cover_trial", "walks.cover_trial", lambda out: out[1]),
    ("harness", "return_probe_trial", "walks.return_probe_trial", None),
    ("harness", "simulate_walk", "walks.simulate_walk", lambda out: out.length),
    ("walks", "simulate_walk", "walks.simulate_walk", lambda out: out.length),
    ("harness", "trace_graph", "walks.trace_graph", None),
    ("walks", "trace_graph", "walks.trace_graph", None),
    ("_kernels", "walk_stats", "kernels.walk", None),
    ("_kernels", "walk_trace", "kernels.walk", None),
    ("_kernels", "hit_within_count", "kernels.walk", None),
    ("_kernels", "shuffle_ints", "kernels.shuffle", None),
    ("harness", "hamiltonian_posa", "hamilton.posa", lambda out: out),
    ("hamilton", "hamiltonian_posa", "hamilton.posa", lambda out: out),
    ("spectral", "eigen_extremes", "spectral.eigen", lambda out: out.iterations),
    ("spectral", "resistance_matrix", "spectral.resistance", None),
    ("harness", "exact_binomial_ci", "bounds.ci", None),
    ("bounds", "exact_binomial_ci", "bounds.ci", None),
)


class Tracer:
    """Records spans while installed; ``spans`` holds
    ``[name, start, end, parent index, note]`` lists."""

    def __init__(self, tracelab):
        self.tracelab = tracelab
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _owner(self, path: str):
        obj = self.tracelab
        for part in path.split("."):
            obj = getattr(obj, part)
        return obj

    def _wrap(self, fn, name, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                rec[4] = note(out)
            return out

        return traced

    def __enter__(self):
        for path, attr, name, note in TARGETS:
            owner = self._owner(path)
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self._wrap(raw.__func__, name, note)))
            else:
                setattr(owner, attr, self._wrap(raw, name, note))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        return False


def _self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _tail(values: list[float]) -> float:
    """Highest order statistic with at least ten values above it; 0 below
    forty values, where that statistic would be no tail."""
    if len(values) < 40:
        return 0.0
    return sorted(values)[len(values) - 11]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-module figures of one traced round."""
    def named(name):
        return [s for s in spans if s[0] == name]

    def total(name):
        return sum(s[2] - s[1] for s in named(name))

    own = _self_times(spans)
    units = [1e3 * (s[2] - s[1]) for s in named("harness.unit")]
    trials = named("walks.cover_trial") + named("walks.return_probe_trial") \
        + named("walks.simulate_walk")
    trial_s = sum(s[2] - s[1] for s in trials)
    stepped = [s for s in trials if s[4] is not None and s[4] > 0]
    steps = sum(s[4] for s in stepped)
    posa = named("hamilton.posa")
    found = sum(1 for s in posa if s[4].found)
    return {
        "harness.self_s": sum(t for s, t in zip(spans, own) if s[0].startswith("harness.")),
        "harness.unit_median_ms": statistics.median(units) if units else 0.0,
        "harness.unit_tail_ms": _tail(units),
        "generate.builds": len(named("generate.random_regular")),
        "generate.build_s": total("generate.random_regular"),
        "graphs.from_edges_calls": len(named("graphs.from_edges")),
        "graphs.from_edges_s": total("graphs.from_edges"),
        "walks.trial_s": trial_s,
        "walks.ns_per_step": (1e9 * sum(s[2] - s[1] for s in stepped) / steps) if steps else 0.0,
        "walks.us_per_trial": (1e6 * trial_s / len(trials)) if trials else 0.0,
        "walks.start_pool_calls": len(named("walks.start_pool")),
        "walks.start_pool_s": total("walks.start_pool"),
        "kernels.walk_s": total("kernels.walk"),
        "kernels.shuffle_calls": len(named("kernels.shuffle")),
        "kernels.shuffle_s": total("kernels.shuffle"),
        "hamilton.searches": len(posa),
        "hamilton.posa_s": total("hamilton.posa"),
        "hamilton.rotations": sum(s[4].work["rotations"] for s in posa),
        "hamilton.restarts": sum(s[4].work["restarts"] for s in posa),
        "hamilton.found_per_search": (found / len(posa)) if posa else 0.0,
        "hamilton.absent_search_s": sum(s[2] - s[1] for s in posa if not s[4].found),
        "spectral.eigen_s": total("spectral.eigen"),
        "spectral.eigen_iterations": sum(s[4] for s in named("spectral.eigen")),
        "spectral.resistance_s": total("spectral.resistance"),
        "bounds.ci_calls": len(named("bounds.ci")),
        "bounds.ci_s": total("bounds.ci"),
    }
