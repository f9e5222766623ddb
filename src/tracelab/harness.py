"""Experiment harness: versioned JSON configs, deterministic per-trial rows,
CSV/JSON persistence and threshold checks.

Reproducibility contract: row i of an experiment depends only on the config
(seed included) and i, never on worker count or row order. Trials use RNG
streams ``(seed, i)``; auxiliary derivations (per-trial graph seeds, drawn
starts) use ``(seed, AUX_STREAM + i)``. Environment variables override the
output directory (``TRACELAB_OUT``) and worker count (``TRACELAB_WORKERS``);
seeds and semantics come from the config file alone.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from . import _kernels as K
from ._accel import blas_info
from .bounds import cover_time_spectral_bound, exact_binomial_ci
from .generate import GenSpec
from .graphs import Graph, GraphError
from .hamilton import certify_expander, hamiltonian_posa, tau_times
from .walks import (START_POOL_SAMPLE, blanket_trial, cover_trials,
                    probe_trials, rank_starts, simulate_walk, start_pool,
                    step_moments, trace_graph, visits_trial)
# perfbench/tracing.py patches these names here; the harness reaches them
# only through cover_trials and probe_trials
from .walks import cover_trial, return_probe_trial  # noqa: F401

EXPERIMENTS = (
    "cover", "strong_cover", "blanket", "visits", "return_probe",
    "trace_hamilton", "tau", "bounds_sweep", "counterexample",
)

CONFIG_VERSION = 1

_TOP_KEYS = {"version", "experiment", "graph", "trials", "seed", "walk",
             "params", "check", "output"}
_WALK_KEYS = {"steps", "multiplier"}
_OUTPUT_KEYS = {"dir", "prefix"}
_PARAM_KEYS: dict[str, set[str]] = {
    "cover": {"worst_start", "budget", "start", "sample_starts"},
    "strong_cover": set(),
    "blanket": {"delta", "budget", "start"},
    "visits": {"start"},
    "return_probe": {"u", "v", "horizon", "c"},
    "trace_hamilton": {"max_rotations", "max_restarts"},
    "tau": {"start", "checker_budget"},
    "bounds_sweep": {"n", "d", "eps", "ratios", "lambdas"},
    "counterexample": {"budget", "start", "cert_n", "cert_c"},
}
_OPTIONAL_INTS: dict[str, int | None] = {
    "budget": 0, "start": None, "u": None, "v": None, "horizon": 1,
    "max_rotations": 1, "max_restarts": 0, "checker_budget": 1,
    "cert_n": None, "cert_c": None,
}
_WALK_REQUIRED = {"strong_cover", "visits", "trace_hamilton", "tau"}
_WALK_ALLOWED = _WALK_REQUIRED | {"return_probe"}
_DERIVED_GRAPH_SEED = {"trace_hamilton", "tau"}

COLUMNS: dict[str, list[str]] = {
    "cover": ["trial", "start", "cover_step", "censored"],
    "strong_cover": ["trial", "start", "covered", "cover_step"],
    "blanket": ["trial", "start", "cover_step", "blanket_step", "censored"],
    "visits": ["trial", "start", "covered", "min_visits", "rho"],
    "return_probe": ["trial", "hit"],
    "trace_hamilton": ["trial", "graph_seed", "walk_seed", "covered", "found",
                       "rotations", "restarts"],
    "tau": ["trial", "graph_seed", "walk_seed", "start", "tau1", "tau_hc",
            "exact", "censored"],
    "bounds_sweep": ["n", "d", "lambda", "eps", "h_lower", "h_upper", "cover_upper"],
    "counterexample": ["trial", "start", "cover_step", "censored"],
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

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "ExperimentConfig":
        _expect(isinstance(data, dict), "config must be a JSON object")
        unknown = set(data) - _TOP_KEYS
        _expect(not unknown, f"unknown config keys: {sorted(unknown)}")
        _expect(data.get("version") == CONFIG_VERSION,
                f"config version must be {CONFIG_VERSION}")
        experiment = data.get("experiment")
        _expect(experiment in EXPERIMENTS,
                f"experiment must be one of {', '.join(EXPERIMENTS)}")
        seed = _int_field(data.get("seed"), "seed")

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
            _expect(experiment in _WALK_ALLOWED,
                    f"{experiment} does not take a walk block")
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
        elif experiment in _WALK_REQUIRED:
            raise ConfigError(f"{experiment} needs a walk block")

        params = data.get("params", {})
        _expect(isinstance(params, dict), "params must be an object")
        allowed = _PARAM_KEYS[experiment]
        unknown = set(params) - allowed
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
            output_dir=out_dir, output_prefix=out_prefix,
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
        try:
            spec = self.graph_spec(seed_override=0 if exp in _DERIVED_GRAPH_SEED else None)
        except GraphError as exc:
            raise ConfigError(f"graph: {exc}") from exc
        if exp in _DERIVED_GRAPH_SEED:
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
        # integer params with their lower bounds; null keeps the default
        for key, low in _OPTIONAL_INTS.items():
            if p.get(key) is not None:
                value = _int_field(p[key], f"params.{key}")
                _expect(low is None or value >= low, f"params.{key} must be >= {low}")
        if "c" in p:
            _expect(_num_field(p["c"], "params.c") > 0, "params.c must be > 0")
        if exp == "blanket":
            _expect("delta" in p, "blanket needs params.delta")
            delta = _num_field(p["delta"], "params.delta")
            _expect(0.0 < delta < 1.0, "params.delta must be in (0, 1)")
        if exp == "return_probe":
            if p.get("horizon") is None and self.walk_steps is None and self.walk_multiplier is None:
                _expect("c" in p, "return_probe needs horizon, a walk block, or c")
        if exp == "counterexample":
            _expect(spec.family == "counterexample",
                    "counterexample experiment needs the counterexample family")

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
        out: dict[str, Any] = {
            "version": CONFIG_VERSION,
            "experiment": self.experiment,
            "seed": self.seed,
        }
        if self.experiment != "bounds_sweep":
            out["graph"] = dict(self.graph or {})
            out["trials"] = self.trials
        if self.walk_steps is not None:
            out["walk"] = {"steps": self.walk_steps}
        elif self.walk_multiplier is not None:
            out["walk"] = {"multiplier": self.walk_multiplier}
        if self.params:
            out["params"] = dict(self.params)
        if self.check:
            out["check"] = dict(self.check)
        output = {}
        if self.output_dir is not None:
            output["dir"] = self.output_dir
        if self.output_prefix is not None:
            output["prefix"] = self.output_prefix
        if output:
            out["output"] = output
        return out


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


def _run_pool(cfg: ExperimentConfig, g: Graph | None) -> tuple[int, ...] | None:
    """Start pool shared by the run's units: worst-start cover walks from
    every pool vertex, strong_cover cycles through the pool."""
    if cfg.experiment == "cover" and cfg.params.get("worst_start"):
        return start_pool(g, cfg.seed,
                          sample=cfg.params.get("sample_starts", START_POOL_SAMPLE))
    if cfg.experiment == "strong_cover":
        return start_pool(g, cfg.seed)
    return None


def _unit_count(cfg: ExperimentConfig, pool: tuple[int, ...] | None) -> int:
    if cfg.experiment == "bounds_sweep":
        grid = cfg.params.get("ratios") or cfg.params.get("lambdas")
        return len(grid)
    if cfg.experiment == "cover" and pool is not None:
        return len(pool) * cfg.trials
    return cfg.trials


def _bounds_sweep_row(cfg: ExperimentConfig, unit: int) -> list:
    p = cfg.params
    n = int(p["n"])
    d = int(p["d"])
    eps = float(p.get("eps", 0.1))
    if "ratios" in p:
        lam = d / float(p["ratios"][unit])
    else:
        lam = float(p["lambdas"][unit])
    sb = cover_time_spectral_bound(n, d, lam, eps)
    return [n, d, lam, eps, sb.h_lower, sb.h_upper, sb.cover_upper]


def _unit_row(cfg: ExperimentConfig, g: Graph | None,
              pool: tuple[int, ...] | None, unit: int) -> list:
    exp = cfg.experiment
    p = cfg.params
    if exp == "bounds_sweep":
        return _bounds_sweep_row(cfg, unit)

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

    if exp not in _DERIVED_GRAPH_SEED:
        raise ConfigError(f"unhandled experiment {exp}")
    # a fresh graph per trial; parsing rejected a fixed graph.seed
    gseed, wseed, start = _derived_seeds(cfg.seed, unit, int(cfg.graph["n"]))
    graph = cfg.graph_spec(seed_override=gseed).build()
    length = cfg.resolve_length(graph.n)
    if exp == "trace_hamilton":
        trace = simulate_walk(graph, start, length, wseed, stream=0)
        if not trace.covered:
            return [unit, gseed, wseed, 0, 0, 0, 0]
        tg = trace_graph(trace)
        res = hamiltonian_posa(
            tg, wseed,
            max_rotations=p.get("max_rotations"),
            max_restarts=_param(p, "max_restarts", 50),
            stream=1)
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


def _probe_rows(cfg: ExperimentConfig, g: Graph, lo: int, hi: int) -> list[list]:
    p = cfg.params
    horizon = p.get("horizon")
    if horizon is None:
        horizon = cfg.resolve_length(g.n)
    if horizon is None:
        horizon = int(round(g.n / math.sqrt(float(p["c"]))))
    hits = probe_trials(g, cfg.seed, lo, hi, _param(p, "u", 0), _param(p, "v", 1),
                        int(horizon))
    return [[unit, hit] for unit, hit in zip(range(lo, hi), hits.tolist())]


def _row_range(cfg: ExperimentConfig, g: Graph | None, pool: tuple[int, ...] | None,
               lo: int, hi: int) -> list[list]:
    """Rows of units ``lo..hi-1``. Cover-style and return-probe units run as
    one batch of independent trials; the rest run one unit at a time."""
    if cfg.experiment in ("cover", "counterexample", "strong_cover"):
        return _cover_rows(cfg, g, pool, lo, hi)
    if cfg.experiment == "return_probe":
        return _probe_rows(cfg, g, lo, hi)
    return [_unit_row(cfg, g, pool, unit) for unit in range(lo, hi)]


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def _col(rows: list[list], columns: list[str], name: str) -> list:
    i = columns.index(name)
    return [row[i] for row in rows]


def summarize(experiment: str, rows: list[list]) -> dict[str, Any]:
    """Aggregate statistics recomputable from the per-trial rows alone."""
    columns = COLUMNS[experiment]
    out: dict[str, Any] = {"rows": len(rows)}
    if experiment in ("cover", "counterexample"):
        steps = [s for s in _col(rows, columns, "cover_step") if s is not None]
        censored = sum(_col(rows, columns, "censored"))
        out["censored"] = censored
        out["censored_rate"] = censored / len(rows) if rows else math.nan
        if steps:
            out["mean"], out["stderr"], out["min"], out["max"] = step_moments(steps)
        if rows:
            _, worst, worst_mean = rank_starts(
                _col(rows, columns, "start"),
                [-1 if s is None else s for s in _col(rows, columns, "cover_step")])
            out["worst_start"] = worst
            # null when the worst start never covered, so a max_ check fails
            out["worst_start_mean"] = None if math.isnan(worst_mean) else worst_mean
    elif experiment == "strong_cover":
        covered = sum(_col(rows, columns, "covered"))
        out["covered"] = covered
        out["fraction"] = covered / len(rows) if rows else math.nan
        if rows:
            lo, hi = exact_binomial_ci(covered, len(rows), 0.95)
            out["ci_low"], out["ci_high"] = lo, hi
    elif experiment == "blanket":
        blankets = [b for b in _col(rows, columns, "blanket_step") if b is not None]
        covers = [c for c in _col(rows, columns, "cover_step") if c is not None]
        out["censored"] = sum(_col(rows, columns, "censored"))
        if blankets:
            out["blanket_mean"] = float(np.mean(blankets))
            out["blanket_max"] = int(max(blankets))
        if covers:
            out["cover_mean"] = float(np.mean(covers))
    elif experiment == "visits":
        covered = sum(_col(rows, columns, "covered"))
        rho = np.asarray(_col(rows, columns, "rho"), dtype=np.float64)
        out["covered"] = covered
        out["covered_fraction"] = covered / len(rows) if rows else math.nan
        if rows:
            out["rho_mean"] = float(rho.mean())
            out["rho_min"] = float(rho.min())
            q = np.percentile(rho, [25.0, 50.0, 75.0])
            out["rho_quartiles"] = [float(x) for x in q]
            out["min_visits_mean"] = float(np.mean(_col(rows, columns, "min_visits")))
    elif experiment == "return_probe":
        hits = sum(_col(rows, columns, "hit"))
        out["hits"] = hits
        out["estimate"] = hits / len(rows) if rows else math.nan
        if rows:
            lo, hi = exact_binomial_ci(hits, len(rows), 0.99)
            out["ci99_low"], out["ci99_high"] = lo, hi
    elif experiment == "trace_hamilton":
        covered = sum(_col(rows, columns, "covered"))
        found = sum(_col(rows, columns, "found"))
        out["covered"] = covered
        out["found"] = found
        out["covered_fraction"] = covered / len(rows) if rows else math.nan
        out["found_fraction"] = found / len(rows) if rows else math.nan
        if rows:
            lo, hi = exact_binomial_ci(found, len(rows), 0.95)
            out["ci_low"], out["ci_high"] = lo, hi
    elif experiment == "tau":
        out["censored"] = sum(_col(rows, columns, "censored"))
        gaps = [(h - t) for t, h in zip(_col(rows, columns, "tau1"),
                                        _col(rows, columns, "tau_hc"))
                if t is not None and h is not None]
        if gaps:
            out["gap_mean"] = float(np.mean(gaps))
            out["gap_min"] = int(min(gaps))
            out["gap_max"] = int(max(gaps))
            t1 = [t for t in _col(rows, columns, "tau1") if t is not None]
            th = [h for h in _col(rows, columns, "tau_hc") if h is not None]
            out["tau1_mean"] = float(np.mean(t1))
            out["tau_hc_mean"] = float(np.mean(th))
        out["exact_fraction"] = (sum(_col(rows, columns, "exact")) / len(rows)
                                 if rows else math.nan)
    elif experiment == "bounds_sweep":
        pass
    return out


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
    if workers is not None:
        return max(1, workers)
    raw = os.environ.get("TRACELAB_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"TRACELAB_WORKERS must be an integer, got {raw!r}")


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> ExperimentResult:
    """Compute all rows (possibly in parallel) plus summary statistics.

    Rows come out identical for every worker count; see the module
    docstring for the stream layout that guarantees it.
    """
    t0 = time.perf_counter()
    workers = _workers_from_env(workers)
    g = None
    if cfg.experiment != "bounds_sweep" and cfg.experiment not in _DERIVED_GRAPH_SEED:
        g = cfg.graph_spec().build()
    pool = _run_pool(cfg, g)
    units = _unit_count(cfg, pool)
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
    if cfg.experiment == "counterexample":
        stats.update(_counterexample_cert(cfg))
    meta = {"wall_clock_s": time.perf_counter() - t0, "workers": workers,
            "blas": blas_info()}
    return ExperimentResult(config=cfg, columns=COLUMNS[cfg.experiment], rows=rows,
                            stats=stats, meta=meta, csv_path=None, json_path=None)


def _counterexample_cert(cfg: ExperimentConfig) -> dict[str, Any]:
    c = int(cfg.graph["c"])
    # the exact joinedness sweep is the binding cost: n = 16 keeps every
    # c >= 1 under the pair budget
    cert_n = _param(cfg.params, "cert_n", min(int(cfg.graph["n"]), 16))
    cert_c = _param(cfg.params, "cert_c", c)
    spec = GenSpec(family="counterexample", n=cert_n, c=cert_c)
    cert = certify_expander(spec.build(), float(cert_c), mode="exact")
    return {
        "cert_n": cert_n,
        "cert_c": cert_c,
        "cert_expansion": cert.expansion.passed,
        "cert_joinedness": cert.joinedness.passed,
        "certified": cert.certified,
    }


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

