"""Experiment harness: versioned JSON configs, deterministic per-trial rows,
CSV/JSON persistence, threshold checks, and estimators that run it in memory.

Reproducibility contract: row i of an experiment depends only on the config
(seed included) and i, never on worker count or row order. Trials use RNG
streams ``(seed, i)``; auxiliary derivations (per-trial graph seeds, drawn
starts) use ``(seed, AUX_STREAM + i)``. Environment variables override the
output directory (``TRACELAB_OUT``) and worker count (``TRACELAB_WORKERS``);
seeds and semantics come from the config file alone.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import _kernels as K
from ._accel import blas_info
from .bounds import cover_time_spectral_bound, exact_binomial_ci
from .generate import GenSpec
from .graphs import Graph, GraphError
from .hamilton import _DP_LIMIT, certify_expander, hamiltonian_posa, tau_times
from .walks import (START_POOL_SAMPLE, _check_length, _require_connected,
                    blanket_trial, cover_trials, default_budget, probe_trials,
                    simulate_walk, start_pool, trace_graph, visits_trial)
# perfbench/tracing.py patches these names here; the harness reaches them
# only through cover_trials and probe_trials
from .walks import cover_trial, return_probe_trial  # noqa: F401


@dataclass(frozen=True)
class _Kind:
    """One experiment kind: its CSV columns, the params it accepts, whether
    it takes a walk block ("required", "optional" or "refused"), and whether
    each trial builds its own graph from a derived seed."""

    columns: list[str]
    params: set[str]
    walk: str = "refused"
    graph_per_trial: bool = False


_KINDS = {
    "cover": _Kind(["trial", "start", "cover_step", "censored"],
                   {"worst_start", "budget", "start", "sample_starts"}),
    "strong_cover": _Kind(["trial", "start", "covered", "cover_step"], set(), walk="required"),
    "blanket": _Kind(["trial", "start", "cover_step", "blanket_step", "censored"],
                     {"delta", "budget", "start"}),
    "visits": _Kind(["trial", "start", "covered", "min_visits", "rho"], {"start"},
                    walk="required"),
    "return_probe": _Kind(["trial", "hit"], {"u", "v", "horizon", "c"}, walk="optional"),
    "trace_hamilton": _Kind(["trial", "graph_seed", "walk_seed", "covered", "found",
                             "rotations", "restarts"], {"max_rotations", "max_restarts"},
                            walk="required", graph_per_trial=True),
    "tau": _Kind(["trial", "graph_seed", "walk_seed", "start", "tau1", "tau_hc", "exact",
                  "censored"], {"start", "checker_budget"},
                 walk="required", graph_per_trial=True),
    "bounds_sweep": _Kind(["n", "d", "lambda", "eps", "h_lower", "h_upper", "cover_upper"],
                          {"n", "d", "eps", "ratios", "lambdas"}),
    "counterexample": _Kind(["trial", "start", "cover_step", "censored"],
                            {"budget", "start", "cert_n", "cert_c"}),
}
EXPERIMENTS = tuple(_KINDS)
COLUMNS = {name: kind.columns for name, kind in _KINDS.items()}

CONFIG_VERSION = 1

_TOP_KEYS = {"version", "experiment", "graph", "trials", "seed", "walk",
             "params", "check", "output"}
_WALK_KEYS = {"steps", "multiplier"}
_OUTPUT_KEYS = {"dir", "prefix"}
_OPTIONAL_INTS: dict[str, int | None] = {
    "budget": 0, "start": 0, "u": 0, "v": 0, "horizon": 1,
    "max_rotations": 1, "max_restarts": 0, "checker_budget": 1,
    "cert_n": None, "cert_c": None,
}


class ConfigError(ValueError):
    """Config file failed validation."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _int_field(value: Any, name: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), f"{name} must be an integer")
    return value


def _num_field(value: Any, name: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{name} must be a number")
    return float(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see ``from_dict`` for the schema)."""

    experiment: str
    seed: int
    trials: int
    graph: dict[str, Any] | None
    walk_steps: int | None
    walk_multiplier: float | None
    params: dict[str, Any]
    check: dict[str, float]
    output_dir: str | None
    output_prefix: str | None
    source: dict[str, Any] = field(repr=False, compare=False)

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "ExperimentConfig":
        _expect(isinstance(data, dict), "config must be a JSON object")
        # a private copy: to_dict returns it, and later edits to the
        # caller's dict cannot reach the run
        data = copy.deepcopy(data)
        unknown = set(data) - _TOP_KEYS
        _expect(not unknown, f"unknown config keys: {sorted(unknown)}")
        _expect(data.get("version") == CONFIG_VERSION,
                f"config version must be {CONFIG_VERSION}")
        experiment = data.get("experiment")
        _expect(experiment in EXPERIMENTS,
                f"experiment must be one of {', '.join(EXPERIMENTS)}")
        seed = _int_field(data.get("seed"), "seed")
        kind = _KINDS[experiment]

        graph = data.get("graph")
        if experiment == "bounds_sweep":
            _expect(graph is None, "bounds_sweep takes no graph")
            _expect("trials" not in data, "bounds_sweep takes no trials")
            trials = 1
        else:
            _expect(isinstance(graph, dict), "graph must be an object")
            trials = _int_field(data.get("trials"), "trials")
            _expect(trials >= 1, "trials must be >= 1")

        walk = data.get("walk")
        walk_steps = None
        walk_multiplier = None
        if walk is not None:
            _expect(kind.walk != "refused", f"{experiment} does not take a walk block")
            _expect(isinstance(walk, dict), "walk must be an object")
            unknown = set(walk) - _WALK_KEYS
            _expect(not unknown, f"unknown walk keys: {sorted(unknown)}")
            _expect(len(walk) == 1, "walk needs exactly one of steps/multiplier")
            if "steps" in walk:
                walk_steps = _int_field(walk["steps"], "walk.steps")
                _expect(walk_steps >= 0, "walk.steps must be >= 0")
            else:
                walk_multiplier = _num_field(walk["multiplier"], "walk.multiplier")
                _expect(walk_multiplier > 0, "walk.multiplier must be > 0")
        elif kind.walk == "required":
            raise ConfigError(f"{experiment} needs a walk block")

        params = data.get("params", {})
        _expect(isinstance(params, dict), "params must be an object")
        unknown = set(params) - kind.params
        _expect(not unknown, f"unknown params for {experiment}: {sorted(unknown)}")

        check = data.get("check", {})
        _expect(isinstance(check, dict), "check must be an object")
        for key, value in check.items():
            _expect(key.startswith(("min_", "max_")),
                    f"check key {key!r} must start with min_ or max_")
            _num_field(value, f"check.{key}")

        output = data.get("output", {})
        _expect(isinstance(output, dict), "output must be an object")
        unknown = set(output) - _OUTPUT_KEYS
        _expect(not unknown, f"unknown output keys: {sorted(unknown)}")
        out_dir = output.get("dir")
        out_prefix = output.get("prefix")
        _expect(out_dir is None or isinstance(out_dir, str), "output.dir must be a string")
        _expect(out_prefix is None or isinstance(out_prefix, str),
                "output.prefix must be a string")

        cfg = ExperimentConfig(
            experiment=experiment, seed=seed, trials=trials, graph=graph,
            walk_steps=walk_steps, walk_multiplier=walk_multiplier,
            params=dict(params), check={k: float(v) for k, v in check.items()},
            output_dir=out_dir, output_prefix=out_prefix, source=data,
        )
        cfg._validate_params()
        return cfg

    # -- validation details --------------------------------------------------

    def _validate_params(self) -> None:
        p = self.params
        exp = self.experiment
        if exp == "bounds_sweep":
            _expect(_int_field(p.get("n"), "params.n") >= 2, "params.n must be >= 2")
            d = _int_field(p.get("d"), "params.d")
            _expect(d >= 1, "params.d must be >= 1")
            if "eps" in p:
                _expect(_num_field(p["eps"], "params.eps") > 0, "params.eps must be > 0")
            has_r = "ratios" in p
            has_l = "lambdas" in p
            _expect(has_r != has_l, "bounds_sweep needs exactly one of ratios/lambdas")
            key = "ratios" if has_r else "lambdas"
            grid = p[key]
            _expect(isinstance(grid, list) and grid, f"params.{key} must be a non-empty list")
            for x in grid:
                x = _num_field(x, f"params.{key} entry")
                if has_r:
                    # lambda = d / ratio must lie in (0, d)
                    _expect(1.0 < x < math.inf, "params.ratios entries must be finite and > 1")
                else:
                    _expect(0.0 < x < d, "params.lambdas entries must lie in (0, d)")
            return
        per_trial = _KINDS[exp].graph_per_trial
        try:
            spec = self.graph_spec(seed_override=0 if per_trial else None)
        except GraphError as exc:
            raise ConfigError(f"graph: {exc}") from exc
        if per_trial:
            _expect("seed" not in self.graph,
                    f"{exp} derives graph seeds per trial; drop graph.seed")
        if "worst_start" in p:
            _expect(isinstance(p["worst_start"], bool), "params.worst_start must be a boolean")
        if "sample_starts" in p:
            _expect(_int_field(p["sample_starts"], "params.sample_starts") >= 1,
                    "params.sample_starts must be >= 1")
            _expect(p.get("worst_start", False), "params.sample_starts needs worst_start")
        if p.get("worst_start"):
            _expect(p.get("start") is None, "params.start cannot be set with worst_start")
        # integer params with their lower bounds, vertices below n; null keeps the default
        for key, low in _OPTIONAL_INTS.items():
            if p.get(key) is not None:
                value = _int_field(p[key], f"params.{key}")
                _expect(low is None or value >= low, f"params.{key} must be >= {low}")
                _expect(key not in ("start", "u", "v") or value < spec.n,
                        f"params.{key} must be < n = {spec.n}")
        if exp == "tau" and p.get("checker_budget") is not None:
            _expect(spec.n > _DP_LIMIT, f"params.checker_budget applies only above "
                    f"n = {_DP_LIMIT}, where tau probes run posa")
        if "c" in p:
            _expect(_num_field(p["c"], "params.c") > 0, "params.c must be > 0")
        if exp == "blanket":
            _expect("delta" in p, "blanket needs params.delta")
            delta = _num_field(p["delta"], "params.delta")
            _expect(0.0 < delta < 1.0, "params.delta must be in (0, 1)")
        if exp == "return_probe":
            horizon = _probe_horizon(self, spec.n)
            _expect(horizon is not None, "return_probe needs horizon, a walk block, or c")
            _expect(horizon >= 1, f"return_probe horizon (from walk.steps or params.c) "
                    f"is 0 on n = {spec.n}")
        if exp == "counterexample":
            _expect(spec.family == "counterexample",
                    "counterexample experiment needs the counterexample family")
            _cert_spec(self)

    def graph_spec(self, seed_override: int | None = None) -> GenSpec:
        if self.graph is None:
            raise ConfigError("experiment has no graph")
        data = dict(self.graph)
        if seed_override is not None:
            data["seed"] = seed_override
        return GenSpec.from_dict(data)

    def resolve_length(self, n: int) -> int | None:
        if self.walk_steps is not None:
            return self.walk_steps
        if self.walk_multiplier is not None:
            return int(math.ceil(self.walk_multiplier * n * math.log(max(n, 2))))
        return None

    def to_dict(self) -> dict[str, Any]:
        """The config as it was given to ``from_dict``."""
        return copy.deepcopy(self.source)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or a file that is not UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(data)


# ---------------------------------------------------------------------------
# per-unit row computation
# ---------------------------------------------------------------------------


def _param(p: dict[str, Any], key: str, default: Any) -> Any:
    """``p[key]``, with a missing or null value meaning ``default``."""
    value = p.get(key)
    return default if value is None else value


def _derived_seeds(seed: int, unit: int, n: int) -> tuple[int, int, int]:
    """Per-trial (graph_seed, walk_seed, start) from the auxiliary stream."""
    state = K.stream_state(seed, K.AUX_STREAM + unit)
    gseed, wseed = (int(x) for x in K.draw_uints(state, 2))
    start = int(K.draw_ints(state, n, 1)[0])
    return gseed, wseed, start


def _probe_horizon(cfg: ExperimentConfig, n: int) -> int | None:
    """``params.horizon``, else the walk length, else round(n / sqrt(c));
    None when the config gives none of them."""
    p = cfg.params
    if p.get("horizon") is not None:
        return p["horizon"]
    length = cfg.resolve_length(n)
    if length is None and "c" in p:
        return int(round(n / math.sqrt(float(p["c"]))))
    return length


def _cert_spec(cfg: ExperimentConfig) -> GenSpec:
    """The counterexample certificate's graph. ``cert_n`` defaults to
    min(n, 16), where the exact joinedness sweep stays under its pair
    budget, and ``cert_c`` to the graph's c."""
    n = _param(cfg.params, "cert_n", min(int(cfg.graph["n"]), 16))
    c = _param(cfg.params, "cert_c", int(cfg.graph["c"]))
    try:
        return GenSpec(family="counterexample", n=n, c=c)
    except GraphError as exc:
        raise ConfigError(f"params.cert_n/params.cert_c: the certificate graph "
                          f"(n = {n}, c = {c}) is invalid: {exc}") from exc


def _plan(cfg: ExperimentConfig, g: Graph | None) -> tuple[tuple[int, ...] | None, int]:
    """The run's shared start pool and its unit count: worst-start cover
    walks ``trials`` times from every pool vertex, strong_cover cycles
    through the pool."""
    p = cfg.params
    if cfg.experiment == "bounds_sweep":
        return None, len(p.get("ratios") or p.get("lambdas"))
    if cfg.experiment == "cover" and p.get("worst_start"):
        pool = start_pool(g, cfg.seed, sample=p.get("sample_starts", START_POOL_SAMPLE))
        return pool, len(pool) * cfg.trials
    if cfg.experiment == "strong_cover":
        return start_pool(g, cfg.seed), cfg.trials
    return None, cfg.trials


def _unit_row(cfg: ExperimentConfig, g: Graph | None,
              pool: tuple[int, ...] | None, unit: int) -> list:
    exp = cfg.experiment
    p = cfg.params
    if exp == "bounds_sweep":
        n, d, eps = int(p["n"]), int(p["d"]), float(p.get("eps", 0.1))
        lam = d / float(p["ratios"][unit]) if "ratios" in p else float(p["lambdas"][unit])
        sb = cover_time_spectral_bound(n, d, lam, eps)
        return [n, d, lam, eps, sb.h_lower, sb.h_upper, sb.cover_upper]

    if exp == "blanket":
        delta = float(p["delta"])
        v, cover, blanket = blanket_trial(
            g, cfg.seed, unit, delta, budget=p.get("budget"), start=p.get("start"))
        return [unit, v, cover if cover >= 0 else None,
                blanket if blanket >= 0 else None, int(blanket < 0)]

    if exp == "visits":
        length = cfg.resolve_length(g.n)
        v, covered, min_visits, rho = visits_trial(
            g, cfg.seed, unit, length, start=p.get("start"))
        return [unit, v, int(covered), min_visits, rho]

    # trace_hamilton and tau: a fresh graph per trial; parsing rejected a
    # fixed graph.seed
    gseed, wseed, start = _derived_seeds(cfg.seed, unit, int(cfg.graph["n"]))
    graph = cfg.graph_spec(seed_override=gseed).build()
    length = cfg.resolve_length(graph.n)
    if exp == "trace_hamilton":
        trace = simulate_walk(graph, start, length, wseed, stream=0)
        if not trace.covered:
            return [unit, gseed, wseed, 0, 0, 0, 0]
        res = hamiltonian_posa(trace_graph(trace), wseed, max_rotations=p.get("max_rotations"),
                               max_restarts=_param(p, "max_restarts", 50), stream=1)
        return [unit, gseed, wseed, 1, int(res.found),
                res.work["rotations"], res.work["restarts"]]
    start = _param(p, "start", start)
    res = tau_times(graph, start, length, wseed,
                    checker_budget=p.get("checker_budget"))
    return [unit, gseed, wseed, start, res.tau1, res.tau_hc,
            int(res.exact), int(res.censored)]


def _cover_rows(cfg: ExperimentConfig, g: Graph, pool: tuple[int, ...] | None,
                lo: int, hi: int) -> list[list]:
    """Rows of ``cover``, ``counterexample`` and ``strong_cover`` units."""
    p = cfg.params
    units = range(lo, hi)
    budget = p.get("budget")
    if cfg.experiment == "strong_cover":
        budget = cfg.resolve_length(g.n)
        starts = [pool[unit % len(pool)] for unit in units]
    elif pool is not None:
        starts = [pool[unit // cfg.trials] for unit in units]
    else:
        start = _param(p, "start", 0 if cfg.experiment == "counterexample" else None)
        starts = None if start is None else [start] * len(units)
    vs, covers = cover_trials(g, cfg.seed, lo, hi, budget, starts)
    rows = []
    for unit, v, cover in zip(units, vs.tolist(), covers.tolist()):
        step = cover if cover >= 0 else None
        if cfg.experiment == "strong_cover":
            rows.append([unit, v, int(cover >= 0), step])
        else:
            rows.append([unit, v, step, int(cover < 0)])
    return rows


def _row_range(cfg: ExperimentConfig, g: Graph | None, pool: tuple[int, ...] | None,
               lo: int, hi: int) -> list[list]:
    """Rows of units ``lo..hi-1``. Cover-style and return-probe units run as
    one batch of independent trials; the rest run one unit at a time."""
    if cfg.experiment in ("cover", "counterexample", "strong_cover"):
        return _cover_rows(cfg, g, pool, lo, hi)
    if cfg.experiment == "return_probe":
        p = cfg.params
        hits = probe_trials(g, cfg.seed, lo, hi, _param(p, "u", 0), _param(p, "v", 1),
                            _probe_horizon(cfg, g.n))
        return [[unit, hit] for unit, hit in zip(range(lo, hi), hits.tolist())]
    return [_unit_row(cfg, g, pool, unit) for unit in range(lo, hi)]


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def _rate(out: dict[str, Any], keys: tuple, count: int, n: int,
          level: float | None = None) -> None:
    """Write ``count`` under ``keys[0]`` (unless it is None), ``count / n``
    under ``keys[1]`` (NaN without rows) and, given a ``level``, the exact
    binomial interval under ``keys[2]`` and ``keys[3]``."""
    if keys[0] is not None:
        out[keys[0]] = count
    out[keys[1]] = count / n if n else math.nan
    if level is not None and n:
        out[keys[2]], out[keys[3]] = exact_binomial_ci(count, n, level)


def _rank_starts(starts: Sequence[int], steps: Sequence[int]
                 ) -> tuple[dict[int, float], int, float]:
    """Mean cover step per start vertex, and the worst start.

    ``steps`` holds -1 for a censored walk. A start none of whose walks
    covered has mean NaN and ranks worst; ties go to the larger vertex id.
    Returns ``(per_start_mean, worst_start, worst_mean)``.
    """
    by_start: dict[int, list[int]] = {}
    for v, step in zip(starts, steps):
        by_start.setdefault(int(v), []).append(int(step))
    per_start = {}
    for v, block in by_start.items():
        good = [step for step in block if step >= 0]
        per_start[v] = float(np.mean(good)) if good else math.nan
    worst = max(per_start, key=lambda v: (
        math.inf if math.isnan(per_start[v]) else per_start[v], v))
    return per_start, worst, per_start[worst]


def summarize(experiment: str, rows: list[list]) -> dict[str, Any]:
    """Aggregate statistics recomputable from the per-trial rows alone."""
    col = {name: [row[i] for row in rows] for i, name in enumerate(COLUMNS[experiment])}
    n = len(rows)
    out: dict[str, Any] = {"rows": n}
    if experiment in ("cover", "counterexample"):
        _rate(out, ("censored", "censored_rate"), sum(col["censored"]), n)
        steps = np.asarray([s for s in col["cover_step"] if s is not None], dtype=np.float64)
        if steps.size:
            out["mean"] = float(steps.mean())
            out["stderr"] = (float(steps.std(ddof=1) / math.sqrt(steps.size))
                             if steps.size > 1 else 0.0)
            out["min"], out["max"] = int(steps.min()), int(steps.max())
        if rows:
            _, worst, worst_mean = _rank_starts(
                col["start"], [-1 if s is None else s for s in col["cover_step"]])
            out["worst_start"] = worst
            # null when the worst start never covered, so a max_ check fails
            out["worst_start_mean"] = None if math.isnan(worst_mean) else worst_mean
    elif experiment == "strong_cover":
        _rate(out, ("covered", "fraction", "ci_low", "ci_high"), sum(col["covered"]), n, 0.95)
    elif experiment == "blanket":
        blankets = [b for b in col["blanket_step"] if b is not None]
        covers = [c for c in col["cover_step"] if c is not None]
        out["censored"] = sum(col["censored"])
        if blankets:
            out["blanket_mean"] = float(np.mean(blankets))
            out["blanket_max"] = int(max(blankets))
        if covers:
            out["cover_mean"] = float(np.mean(covers))
    elif experiment == "visits":
        _rate(out, ("covered", "covered_fraction"), sum(col["covered"]), n)
        if rows:
            rho = np.asarray(col["rho"], dtype=np.float64)
            out["rho_mean"] = float(rho.mean())
            out["rho_min"] = float(rho.min())
            out["rho_quartiles"] = [float(x) for x in np.percentile(rho, [25.0, 50.0, 75.0])]
            out["min_visits_mean"] = float(np.mean(col["min_visits"]))
    elif experiment == "return_probe":
        _rate(out, ("hits", "estimate", "ci99_low", "ci99_high"), sum(col["hit"]), n, 0.99)
    elif experiment == "trace_hamilton":
        _rate(out, ("covered", "covered_fraction"), sum(col["covered"]), n)
        _rate(out, ("found", "found_fraction", "ci_low", "ci_high"), sum(col["found"]), n, 0.95)
    elif experiment == "tau":
        out["censored"] = sum(col["censored"])
        gaps = [h - t for t, h in zip(col["tau1"], col["tau_hc"])
                if t is not None and h is not None]
        if gaps:
            out["gap_mean"] = float(np.mean(gaps))
            out["gap_min"] = int(min(gaps))
            out["gap_max"] = int(max(gaps))
            t1 = [t for t in col["tau1"] if t is not None]
            th = [h for h in col["tau_hc"] if h is not None]
            out["tau1_mean"] = float(np.mean(t1))
            out["tau_hc_mean"] = float(np.mean(th))
        _rate(out, (None, "exact_fraction"), sum(col["exact"]), n)
    return out


# ---------------------------------------------------------------------------
# estimators: one experiment's plan, rows and summary on the caller's graph
# ---------------------------------------------------------------------------


def _estimate(g: Graph, experiment: str, trials: int, seed: int, walk_steps: int | None = None,
              **params) -> tuple[tuple[int, ...] | None, dict[str, np.ndarray], dict[str, Any]]:
    """Run ``experiment`` on ``g`` in memory at one worker: the plan's start
    pool, the rows as int64 columns by name (null cells -1), the summary."""
    if trials < 1:
        raise GraphError("trials must be >= 1")
    cfg = ExperimentConfig(experiment=experiment, seed=seed, trials=trials, graph=None,
                           walk_steps=walk_steps, walk_multiplier=None, params=params,
                           check={}, output_dir=None, output_prefix=None, source={})
    pool, units = _plan(cfg, g)
    rows = _row_range(cfg, g, pool, 0, units)
    col = {name: np.array([-1 if row[i] is None else row[i] for row in rows], dtype=np.int64)
           for i, name in enumerate(COLUMNS[experiment])}
    return pool, col, summarize(experiment, rows)


@dataclass(frozen=True)
class CoverSummary:
    """Per-trial cover steps plus the usual aggregates.

    ``cover_steps`` holds -1 for censored trials (budget hit first); the
    aggregates ignore those but ``censored`` counts them. In worst-start
    mode the trials field is per start, rows are ordered pool-major, and
    the worst (largest) per-start mean is reported alongside its vertex.
    """

    trials: int
    budget: int
    seed: int
    worst_start_mode: bool
    pool: tuple[int, ...]
    starts: np.ndarray
    cover_steps: np.ndarray
    censored: int
    mean: float
    stderr: float
    smallest: int
    largest: int
    per_start_mean: dict[int, float] | None
    worst_start: int | None
    worst_mean: float | None


def cover_time_empirical(g: Graph, trials: int, seed: int, worst_start: bool = False,
                         start: int | None = None, budget: int | None = None) -> CoverSummary:
    """Monte Carlo cover times: the ``cover`` experiment on ``g``.

    Default mode: ``trials`` walks, each from its own uniformly drawn start
    (or the fixed ``start`` if given), trial i on stream ``(seed, i)``.
    Worst-start mode: ``trials`` walks from every pool vertex; the pool is
    every vertex up to n = 200 and a 32-vertex seeded sample beyond; walk
    for pool slot j, repeat k runs on stream ``(seed, j * trials + k)``.
    """
    if worst_start and start is not None:
        raise GraphError("start cannot be set in worst-start mode")
    _require_connected(g)
    if budget is None:
        budget = default_budget(g.n)
    pool, col, stats = _estimate(g, "cover", trials, seed, worst_start=worst_start,
                                 start=start, budget=budget)
    starts, steps = col["start"], col["cover_step"]
    per_start = worst_v = worst_mean = None
    if worst_start:
        per_start, worst_v, worst_mean = _rank_starts(starts, steps)
    return CoverSummary(
        trials=trials, budget=budget, seed=seed, worst_start_mode=worst_start,
        pool=pool or (), starts=starts, cover_steps=steps, censored=stats["censored"],
        mean=stats.get("mean", math.nan), stderr=stats.get("stderr", math.nan),
        smallest=stats.get("min", -1), largest=stats.get("max", -1),
        per_start_mean=per_start, worst_start=worst_v, worst_mean=worst_mean,
    )


@dataclass(frozen=True)
class StrongCoverEstimate:
    """Fraction of fixed-length walks that covered the whole graph."""

    length: int
    trials: int
    seed: int
    pool: tuple[int, ...]
    starts: np.ndarray
    cover_steps: np.ndarray
    covered: int
    fraction: float
    ci_low: float
    ci_high: float
    ci_level: float


def strong_cover_estimate(g: Graph, length: int, trials: int, seed: int
                          ) -> StrongCoverEstimate:
    """Estimate P(walk of ``length`` steps covers G): the ``strong_cover``
    experiment on ``g``, round-robin over the start pool, one stream per
    trial, with a 95% exact binomial interval."""
    _check_length(length)
    _require_connected(g)
    pool, col, stats = _estimate(g, "strong_cover", trials, seed, walk_steps=length)
    return StrongCoverEstimate(
        length=length, trials=trials, seed=seed, pool=pool, starts=col["start"],
        cover_steps=col["cover_step"], covered=stats["covered"], fraction=stats["fraction"],
        ci_low=stats["ci_low"], ci_high=stats["ci_high"], ci_level=0.95,
    )


@dataclass(frozen=True)
class ReturnProbeResult:
    u: int
    v: int
    horizon: int
    trials: int
    hits: int
    estimate: float
    ci_low: float
    ci_high: float
    ci_level: float


def return_probe(g: Graph, u: int, v: int, horizon: int, trials: int, seed: int,
                 ci_level: float = 0.95) -> ReturnProbeResult:
    """Fraction of ``horizon``-step walks from u that touch v, with an exact
    binomial confidence interval: the ``return_probe`` experiment on ``g``.
    Trial i runs on stream ``(seed, i)``."""
    _, _, stats = _estimate(g, "return_probe", trials, seed, u=u, v=v, horizon=horizon)
    lo, hi = exact_binomial_ci(stats["hits"], trials, ci_level)
    return ReturnProbeResult(
        u=u, v=v, horizon=horizon, trials=trials, hits=stats["hits"],
        estimate=stats["estimate"], ci_low=lo, ci_high=hi, ci_level=ci_level,
    )


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    columns: list[str]
    rows: list[list]
    stats: dict[str, Any]
    meta: dict[str, Any]
    csv_path: str | None
    json_path: str | None


def _workers_from_env(workers: int | None) -> int:
    if workers is None:
        raw = os.environ.get("TRACELAB_WORKERS", "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigError(f"TRACELAB_WORKERS must be an integer, got {raw!r}")
    _expect(workers >= 1,
            f"workers (--workers or TRACELAB_WORKERS) must be >= 1, got {workers}")
    return workers


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> ExperimentResult:
    """Compute all rows (possibly in parallel) plus summary statistics.

    Rows come out identical for every worker count; see the module
    docstring for the stream layout that guarantees it.
    """
    t0 = time.perf_counter()
    workers = _workers_from_env(workers)
    # the certificate first, so that its budget failure costs no trials
    cert = {}
    if cfg.experiment == "counterexample":
        spec = _cert_spec(cfg)
        res = certify_expander(spec.build(), float(spec.c), mode="exact")
        cert = {"cert_n": spec.n, "cert_c": spec.c, "cert_expansion": res.expansion.passed,
                "cert_joinedness": res.joinedness.passed, "certified": res.certified}
    g = None
    if cfg.graph is not None and not _KINDS[cfg.experiment].graph_per_trial:
        g = cfg.graph_spec().build()
    pool, units = _plan(cfg, g)
    if workers <= 1 or units <= 1:
        rows = _row_range(cfg, g, pool, 0, units)
    else:
        chunk = (units + workers - 1) // workers
        spans = [(lo, min(lo + chunk, units)) for lo in range(0, units, chunk)]
        rows = []
        # imported here: multiprocessing costs every start about 15 ms
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as executor:
            for part in executor.map(_row_range, [cfg] * len(spans), [g] * len(spans),
                                     [pool] * len(spans),
                                     [s[0] for s in spans], [s[1] for s in spans]):
                rows.extend(part)
    stats = summarize(cfg.experiment, rows)
    stats.update(cert)
    meta = {"wall_clock_s": time.perf_counter() - t0, "workers": workers,
            "blas": blas_info()}
    return ExperimentResult(config=cfg, columns=COLUMNS[cfg.experiment], rows=rows,
                            stats=stats, meta=meta, csv_path=None, json_path=None)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def rows_to_csv(columns: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(x) for x in row])
    return buf.getvalue()


def output_dir(cfg: ExperimentConfig) -> Path:
    env = os.environ.get("TRACELAB_OUT")
    if env:
        return Path(env)
    if cfg.output_dir:
        return Path(cfg.output_dir)
    return Path("results")


def write_result(result: ExperimentResult, out_dir: str | os.PathLike | None = None
                 ) -> ExperimentResult:
    """Write ``<prefix>_trials.csv`` and ``<prefix>_summary.json``."""
    cfg = result.config
    base = Path(out_dir) if out_dir is not None else output_dir(cfg)
    base.mkdir(parents=True, exist_ok=True)
    prefix = cfg.output_prefix or f"{cfg.experiment}_{cfg.seed}"
    csv_path = base / f"{prefix}_trials.csv"
    json_path = base / f"{prefix}_summary.json"
    csv_path.write_text(rows_to_csv(result.columns, result.rows), encoding="ascii")
    payload = {
        "version": CONFIG_VERSION,
        "experiment": cfg.experiment,
        "config": cfg.to_dict(),
        "stats": result.stats,
        "meta": result.meta,
    }
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                         encoding="ascii")
    return replace(result, csv_path=str(csv_path), json_path=str(json_path))


def evaluate_checks(stats: dict[str, Any], check: dict[str, float]) -> list[str]:
    """Threshold failures, empty when everything holds."""
    failures = []
    for key, bound in sorted(check.items()):
        kind, field = key.split("_", 1)
        value = stats.get(field)
        if value is None:
            failures.append(f"{key}: summary has no field {field!r}")
            continue
        if kind == "min" and value < bound:
            failures.append(f"{key}: {value} < {bound}")
        elif kind == "max" and value > bound:
            failures.append(f"{key}: {value} > {bound}")
    return failures

