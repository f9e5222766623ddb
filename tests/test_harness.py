"""Harness contracts: strict config validation, worker-count-independent
rows, recomputable summaries, and stable CSV bytes."""

import json
import math
from pathlib import Path

import pytest

from tracelab import BudgetError
from tracelab import (cover_time_empirical, cycle_graph, generate, harness,
                      return_probe, strong_cover_estimate)
from tracelab.harness import (COLUMNS, ConfigError, ExperimentConfig,
                              evaluate_checks, load_config, rows_to_csv,
                              run_experiment, summarize, write_result)

BASE = {
    "version": 1,
    "experiment": "cover",
    "graph": {"family": "complete", "n": 12},
    "trials": 20,
    "seed": 3,
}


def cfg_with(**overrides):
    data = dict(BASE)
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


def test_minimal_config():
    cfg = cfg_with()
    assert cfg.experiment == "cover"
    assert cfg.trials == 20
    assert cfg.to_dict()["graph"] == {"family": "complete", "n": 12}


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError):
        cfg_with(bogus=1)
    with pytest.raises(ConfigError):
        cfg_with(params={"nope": 1})
    with pytest.raises(ConfigError):
        cfg_with(output={"folder": "x"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**BASE, "graph": {"family": "complete",
                                                      "n": 12, "x": 1}})
    with pytest.raises(ConfigError):
        cfg_with(experiment="strong_cover", walk={"steps": 5, "multiplier": 2.0})


def test_version_and_experiment_validation():
    with pytest.raises(ConfigError):
        cfg_with(version=2)
    with pytest.raises(ConfigError):
        cfg_with(experiment="mystery")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({k: v for k, v in BASE.items() if k != "seed"})


def test_walk_block_rules():
    with pytest.raises(ConfigError):
        cfg_with(walk={"steps": 100})  # cover takes no walk
    with pytest.raises(ConfigError):
        cfg_with(experiment="strong_cover")  # needs walk
    cfg = cfg_with(experiment="strong_cover", walk={"multiplier": 2.0})
    n = 12
    assert cfg.resolve_length(n) == math.ceil(2.0 * n * math.log(n))
    cfg = cfg_with(experiment="strong_cover", walk={"steps": 77})
    assert cfg.resolve_length(n) == 77


def test_param_validation():
    with pytest.raises(ConfigError):
        cfg_with(experiment="blanket", params={})  # delta required
    with pytest.raises(ConfigError):
        cfg_with(experiment="blanket", params={"delta": 1.5})
    with pytest.raises(ConfigError):
        cfg_with(experiment="return_probe", params={})  # horizon/walk/c needed
    cfg = cfg_with(experiment="return_probe", params={"c": 16.0})
    assert cfg.params["c"] == 16.0


VALID_PARAMS = {"return_probe": {"horizon": 5}, "trace_hamilton": {}, "tau": {},
                "counterexample": {}, "cover": {}}
COUNTEREXAMPLE = {"family": "counterexample", "n": 20, "c": 3}


@pytest.mark.parametrize("experiment,bad", [
    ("return_probe", {"horizon": 2.5}),
    ("return_probe", {"horizon": 0}),
    ("return_probe", {"horizon": True}),
    ("return_probe", {"u": 0.9}),
    ("return_probe", {"v": True}),
    ("return_probe", {"c": -1}),
    ("return_probe", {"c": 0}),
    ("return_probe", {"c": "4"}),
    ("return_probe", {"c": None}),
    ("trace_hamilton", {"max_restarts": 2.5}),
    ("trace_hamilton", {"max_restarts": -1}),
    ("trace_hamilton", {"max_rotations": 2.5}),
    ("tau", {"checker_budget": 2.5}),
    ("counterexample", {"cert_n": 12.7}),
    ("counterexample", {"cert_c": True}),
    ("trace_hamilton", {"max_rotations": 0}),
    ("trace_hamilton", {"max_rotations": -5}),
    ("tau", {"checker_budget": 0}),
    ("tau", {"checker_budget": -7}),
    # vertices must lie in the graph (n = 12, or 20 for counterexample)
    ("return_probe", {"u": 12}),
    ("return_probe", {"v": -1}),
    ("tau", {"start": 12}),
    ("counterexample", {"start": 20}),
    ("cover", {"start": 12}),
    ("cover", {"start": -1}),
])
def test_probe_and_search_params_rejected_at_parse(experiment, bad):
    data = dict(BASE, experiment=experiment, params=VALID_PARAMS[experiment])
    if experiment in ("trace_hamilton", "tau"):
        data["walk"] = {"multiplier": 2.0}
    if experiment == "counterexample":
        data["graph"] = COUNTEREXAMPLE
    ExperimentConfig.from_dict(data)
    with pytest.raises(ConfigError, match=rf"params\.{next(iter(bad))}\b"):
        ExperimentConfig.from_dict(dict(data, params={**data["params"], **bad}))


def test_tau_checker_budget_refused_on_the_exact_path():
    """tau graphs of n <= 24 are probed by the subset dp, which has no
    budget; beyond that the budget caps each posa probe."""
    def tau(n):
        return cfg_with(experiment="tau", walk={"multiplier": 2.0},
                        graph={"family": "random_regular", "n": n, "d": 4},
                        params={"checker_budget": 5})
    with pytest.raises(ConfigError, match="checker_budget"):
        tau(24)
    assert tau(26).params["checker_budget"] == 5


def test_summary_echoes_the_config_as_given(tmp_path):
    data = dict(BASE, graph=dict(BASE["graph"]), check={"max_mean": 6000},
                params={"budget": 50000})
    cfg = ExperimentConfig.from_dict(data)
    given = json.loads(json.dumps(data))
    data["graph"]["n"] = 12.5  # an edit after validation does not reach the config
    assert cfg.graph == BASE["graph"]
    res = write_result(run_experiment(cfg), out_dir=tmp_path)
    summary = json.loads(Path(res.json_path).read_text())
    assert summary["config"] == given
    assert type(summary["config"]["check"]["max_mean"]) is int


def test_null_params_keep_defaults():
    for exp, params, walk in [
        ("return_probe", {"horizon": 4, "u": None, "v": None, "c": 2.0}, None),
        ("trace_hamilton", {"max_restarts": None, "max_rotations": None}, {"multiplier": 2.0}),
        ("tau", {"start": None, "checker_budget": None}, {"multiplier": 2.0}),
        ("counterexample", {"start": None, "cert_n": None, "cert_c": None}, None),
    ]:
        extra = {} if walk is None else {"walk": walk}
        if exp == "counterexample":
            extra["graph"] = COUNTEREXAMPLE
        base = cfg_with(experiment=exp, trials=3,
                        params={"horizon": 4} if exp == "return_probe" else {}, **extra)
        nulls = cfg_with(experiment=exp, trials=3, params=params, **extra)
        got, want = run_experiment(nulls, workers=1), run_experiment(base, workers=1)
        assert (got.rows, got.stats) == (want.rows, want.stats), exp


def test_derived_seed_experiments_reject_graph_seed():
    with pytest.raises(ConfigError):
        cfg_with(experiment="tau",
                 graph={"family": "random_regular", "n": 12, "d": 4, "seed": 1},
                 walk={"multiplier": 4.0})
    cfg = cfg_with(experiment="tau",
                   graph={"family": "random_regular", "n": 12, "d": 4},
                   walk={"multiplier": 4.0})
    assert cfg.experiment == "tau"


def test_bounds_sweep_shape():
    cfg = ExperimentConfig.from_dict({
        "version": 1, "experiment": "bounds_sweep", "seed": 0,
        "params": {"n": 500, "d": 16, "ratios": [2.0, 4.0]},
    })
    res = run_experiment(cfg)
    assert res.columns == COLUMNS["bounds_sweep"]
    assert len(res.rows) == 2
    # ratio 2 means lambda = 8
    assert res.rows[0][2] == pytest.approx(8.0)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({
            "version": 1, "experiment": "bounds_sweep", "seed": 0,
            "graph": {"family": "complete", "n": 5},
            "params": {"n": 500, "d": 16, "ratios": [2.0]},
        })
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({
            "version": 1, "experiment": "bounds_sweep", "seed": 0,
            "params": {"n": 500, "d": 16, "ratios": [2.0], "lambdas": [4.0]},
        })


def test_rows_identical_across_workers():
    for exp, extra in [
        ("cover", {}),
        ("strong_cover", {"walk": {"multiplier": 2.0}}),
        ("visits", {"walk": {"steps": 200}}),
        ("return_probe", {"params": {"horizon": 4}}),
    ]:
        cfg = cfg_with(experiment=exp, **extra)
        r1 = run_experiment(cfg, workers=1)
        r2 = run_experiment(cfg, workers=3)
        assert r1.rows == r2.rows, exp
        assert rows_to_csv(r1.columns, r1.rows) == rows_to_csv(r2.columns, r2.rows)


def test_trace_hamilton_and_tau_rows():
    cfg = ExperimentConfig.from_dict({
        "version": 1, "experiment": "trace_hamilton",
        "graph": {"family": "random_regular", "n": 16, "d": 4},
        "trials": 6, "seed": 2, "walk": {"multiplier": 4.0},
    })
    res = run_experiment(cfg)
    assert len(res.rows) == 6
    cols = res.columns
    for row in res.rows:
        assert row[cols.index("found")] <= row[cols.index("covered")]
    # per-trial graph seeds differ
    seeds = {row[cols.index("graph_seed")] for row in res.rows}
    assert len(seeds) == 6

    cfg = ExperimentConfig.from_dict({
        "version": 1, "experiment": "tau",
        "graph": {"family": "random_regular", "n": 16, "d": 4},
        "trials": 4, "seed": 2, "walk": {"multiplier": 6.0},
    })
    res = run_experiment(cfg, workers=2)
    cols = res.columns
    for row in res.rows:
        t1, thc = row[cols.index("tau1")], row[cols.index("tau_hc")]
        if thc is not None:
            assert thc >= t1 + 1


def test_summary_recompute_is_pure():
    cfg = cfg_with(experiment="blanket", params={"delta": 0.1}, trials=10)
    res = run_experiment(cfg)
    assert summarize("blanket", res.rows) == res.stats


def test_worst_start_units():
    cfg = cfg_with(params={"worst_start": True}, trials=3)
    res = run_experiment(cfg)
    assert len(res.rows) == 12 * 3
    assert "worst_start" in res.stats


def test_worst_start_never_covered_ranks_worst():
    """The harness and cover_time_empirical rank starts by one rule: a start
    whose walks never covered is the worst, and its mean is null, so a
    max_worst_start_mean check fails instead of passing."""
    cfg = cfg_with(graph={"family": "cycle", "n": 12}, trials=3,
                   params={"worst_start": True, "budget": 40})
    res = run_experiment(cfg)
    cols = res.columns
    never = {v for v in range(12)
             if all(row[cols.index("censored")] for row in res.rows
                    if row[cols.index("start")] == v)}
    assert never == {1, 4, 8, 9}
    assert res.stats["worst_start"] == 9
    assert res.stats["worst_start_mean"] is None
    cs = cover_time_empirical(cycle_graph(12), 3, 3, worst_start=True, budget=40)
    assert cs.worst_start == res.stats["worst_start"]
    assert math.isnan(cs.worst_mean)
    fails = evaluate_checks(res.stats, {"max_worst_start_mean": 1e9})
    assert fails == ["max_worst_start_mean: summary has no field 'worst_start_mean'"]


def test_estimators_equal_the_harness_kinds():
    """cover_time_empirical, strong_cover_estimate and return_probe give what
    run_experiment gives for the cover, strong_cover and return_probe kinds,
    on a graph large enough (n > 200) for worst start to sample its pool."""
    graph = {"family": "random_regular", "n": 300, "d": 4, "seed": 0}
    g = generate.random_regular(300, 4, 0)

    def run(**overrides):
        res = run_experiment(cfg_with(graph=graph, seed=5, **overrides), workers=1)
        cols = {name: [row[i] for row in res.rows] for i, name in enumerate(res.columns)}
        return cols, res.stats

    def steps(col):
        return [-1 if s is None else s for s in col]

    for worst in (True, False):
        cs = cover_time_empirical(g, 3 if worst else 40, 5, worst_start=worst)
        cols, stats = run(trials=3 if worst else 40, params={"worst_start": worst})
        assert cs.starts.tolist() == cols["start"]
        assert cs.cover_steps.tolist() == steps(cols["cover_step"])
        assert (cs.censored, cs.mean, cs.stderr, cs.smallest, cs.largest) == (
            stats["censored"], stats["mean"], stats["stderr"], stats["min"], stats["max"])
        if worst:
            assert len(cs.pool) == 32 and len(cols["start"]) == 32 * 3
            assert (cs.worst_start, cs.worst_mean) == (stats["worst_start"],
                                                       stats["worst_start_mean"])
    est = strong_cover_estimate(g, 6000, 64, 5)
    cols, stats = run(experiment="strong_cover", trials=64, walk={"steps": 6000})
    assert est.starts.tolist() == cols["start"]
    assert est.cover_steps.tolist() == steps(cols["cover_step"])
    assert (est.covered, est.fraction, est.ci_low, est.ci_high) == (
        stats["covered"], stats["fraction"], stats["ci_low"], stats["ci_high"])
    probe = return_probe(g, 0, 1, 300, 500, 5, ci_level=0.99)
    cols, stats = run(experiment="return_probe", trials=500,
                      params={"u": 0, "v": 1, "horizon": 300})
    assert (probe.hits, probe.estimate, probe.ci_low, probe.ci_high) == (
        stats["hits"], stats["estimate"], stats["ci99_low"], stats["ci99_high"])


def test_fixed_graph_and_start_pool_built_once(monkeypatch):
    calls = {"random_regular": 0, "start_pool": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    counting(generate, "random_regular")
    counting(harness, "start_pool")
    cfg = cfg_with(graph={"family": "random_regular", "n": 16, "d": 4, "seed": 1},
                   trials=2, params={"worst_start": True})
    res = run_experiment(cfg, workers=1)
    assert len(res.rows) == 16 * 2
    assert calls == {"random_regular": 1, "start_pool": 1}


def test_counterexample_experiment():
    cfg = ExperimentConfig.from_dict({
        "version": 1, "experiment": "counterexample",
        "graph": {"family": "counterexample", "n": 30, "c": 2},
        "trials": 4, "seed": 1,
    })
    res = run_experiment(cfg)
    assert res.stats["certified"] is True
    assert res.stats["cert_n"] == 16
    # default start is the first attachment vertex
    cols = res.columns
    assert all(row[cols.index("start")] == 0 for row in res.rows)
    with pytest.raises(ConfigError):
        cfg_with(experiment="counterexample")  # wrong family


def test_csv_formatting(tmp_path):
    cfg = cfg_with(trials=5, output={"prefix": "unit"})
    res = run_experiment(cfg)
    out = write_result(res, tmp_path)
    text = Path(out.csv_path).read_text()
    lines = text.split("\n")
    assert lines[0] == "trial,start,cover_step,censored"
    assert len(lines) == 7  # header + 5 rows + trailing newline
    again = write_result(run_experiment(cfg), tmp_path)
    assert Path(again.csv_path).read_text() == text
    payload = json.loads(Path(out.json_path).read_text())
    assert payload["stats"] == res.stats
    assert payload["config"]["experiment"] == "cover"


def test_output_dir_env_override(tmp_path, monkeypatch):
    cfg = cfg_with(trials=2, output={"dir": str(tmp_path / "cfgdir")})
    monkeypatch.setenv("TRACELAB_OUT", str(tmp_path / "envdir"))
    res = write_result(run_experiment(cfg))
    assert "envdir" in res.csv_path
    monkeypatch.delenv("TRACELAB_OUT")
    res = write_result(run_experiment(cfg))
    assert "cfgdir" in res.csv_path


def test_workers_env(monkeypatch):
    cfg = cfg_with(trials=4)
    monkeypatch.setenv("TRACELAB_WORKERS", "2")
    res = run_experiment(cfg)
    assert res.meta["workers"] == 2
    monkeypatch.setenv("TRACELAB_WORKERS", "zebra")
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_meta_names_blas():
    """The summary names the BLAS library the dense solves ran on."""
    from tracelab._accel import blas_info
    res = run_experiment(cfg_with(trials=2))
    assert res.meta["blas"] == blas_info()
    assert set(res.meta["blas"]) == {"library", "one_thread"}
    assert res.meta["blas"]["one_thread"] == (res.meta["blas"]["library"] is not None)


def test_evaluate_checks():
    stats = {"mean": 30.0, "censored": 0}
    assert evaluate_checks(stats, {"max_mean": 35.0, "min_mean": 10.0}) == []
    fails = evaluate_checks(stats, {"max_mean": 25.0})
    assert len(fails) == 1 and "mean" in fails[0]
    fails = evaluate_checks(stats, {"min_ghost": 1.0})
    assert "no field" in fails[0]


def test_check_keys_validated_at_parse():
    with pytest.raises(ConfigError):
        cfg_with(check={"mean": 30.0})
    cfg = cfg_with(check={"max_mean": 99.0})
    assert cfg.check == {"max_mean": 99.0}


def test_load_config(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(BASE))
    cfg = load_config(path)
    assert cfg.experiment == "cover"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")



def counterexample_cfg(graph_c=2, **params):
    return ExperimentConfig.from_dict({
        "version": 1, "experiment": "counterexample",
        "graph": {"family": "counterexample", "n": 30, "c": graph_c},
        "trials": 2, "seed": 1, "params": params,
    })


@pytest.mark.parametrize("graph_c, params", [(7, {}), (2, {"cert_n": 3}), (2, {"cert_c": 0})],
                         ids=["default-cert-c-too-large", "cert-n-3", "cert-c-0"])
def test_certificate_params_checked_at_parse(graph_c, params):
    """The certificate graph (cert_n defaults to min(n, 16), cert_c to c) is
    checked with the config: c = 7 is valid at n = 30 but not at the
    certificate's n = 16."""
    with pytest.raises(ConfigError, match="params.cert_n/params.cert_c"):
        counterexample_cfg(graph_c, **params)


def test_certificate_runs_before_the_trials(monkeypatch):
    """A certificate over its pair budget fails before any trial runs."""
    calls = []
    original = harness.cover_trials
    monkeypatch.setattr(harness, "cover_trials",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    cfg = ExperimentConfig.from_dict({
        "version": 1, "experiment": "counterexample",
        "graph": {"family": "counterexample", "n": 60, "c": 2},
        "trials": 1, "seed": 0, "params": {"cert_n": 40},
    })
    with pytest.raises(BudgetError):
        run_experiment(cfg, workers=1)
    assert calls == []


def test_return_probe_horizon_from_c_checked_at_parse():
    """round(10 / sqrt(1e6)) is 0: no probe could run."""
    with pytest.raises(ConfigError, match="params.c"):
        cfg_with(experiment="return_probe", graph={"family": "complete", "n": 10},
                 params={"c": 1e6})
    assert cfg_with(experiment="return_probe", graph={"family": "complete", "n": 10},
                    params={"c": 25.0}).params == {"c": 25.0}


TRACE = {"experiment": "trace_hamilton",
         "graph": {"family": "random_regular", "n": 16, "d": 4},
         "trials": 8, "walk": {"multiplier": 4.0}}
STRONG = {"experiment": "strong_cover",
          "graph": {"family": "random_regular", "n": 32, "d": 4, "seed": 1},
          "trials": 20, "walk": {"multiplier": 3.0}}


@pytest.mark.parametrize("target, raw", [
    ("_unit_row", TRACE), ("start_pool", STRONG), ("simulate_walk", TRACE),
    ("trace_graph", TRACE), ("hamiltonian_posa", TRACE), ("exact_binomial_ci", STRONG),
], ids=lambda x: x if isinstance(x, str) else x["experiment"])
def test_harness_calls_traced_targets_through_its_attributes(monkeypatch, target, raw):
    """The benchmark's tracer wraps these names on the harness module; a
    call that bypassed the attribute would leave its spans at zero."""
    calls = []
    original = getattr(harness, target)
    monkeypatch.setattr(harness, target,
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    run_experiment(ExperimentConfig.from_dict({"version": 1, "seed": 9, **raw}), workers=1)
    assert calls


COVER_KEYS = {"rows", "censored", "censored_rate", "mean", "stderr", "min", "max",
              "worst_start", "worst_start_mean"}


@pytest.mark.parametrize("raw, keys", [
    ({"experiment": "cover", "graph": {"family": "complete", "n": 12}, "trials": 20},
     COVER_KEYS),
    ({"experiment": "cover", "graph": {"family": "random_regular", "n": 16, "d": 4, "seed": 1},
      "trials": 2, "params": {"worst_start": True}}, COVER_KEYS),
    (STRONG, {"rows", "covered", "fraction", "ci_low", "ci_high"}),
    ({"experiment": "blanket", "graph": {"family": "complete", "n": 10},
      "trials": 10, "params": {"delta": 0.1}},
     {"rows", "censored", "blanket_mean", "blanket_max", "cover_mean"}),
    ({"experiment": "visits", "graph": {"family": "random_regular", "n": 32, "d": 4, "seed": 1},
      "trials": 15, "walk": {"steps": 600}},
     {"rows", "covered", "covered_fraction", "rho_mean", "rho_min", "rho_quartiles",
      "min_visits_mean"}),
    ({"experiment": "return_probe", "graph": {"family": "complete", "n": 10},
      "trials": 50, "params": {"horizon": 4}},
     {"rows", "hits", "estimate", "ci99_low", "ci99_high"}),
    (TRACE, {"rows", "covered", "found", "covered_fraction", "found_fraction",
             "ci_low", "ci_high"}),
    ({"experiment": "tau", "graph": {"family": "random_regular", "n": 14, "d": 4},
      "trials": 5, "walk": {"multiplier": 6.0}},
     {"rows", "censored", "gap_mean", "gap_min", "gap_max", "tau1_mean", "tau_hc_mean",
      "exact_fraction"}),
    ({"experiment": "bounds_sweep", "params": {"n": 500, "d": 16, "ratios": [2.0, 4.0, 8.0]}},
     {"rows"}),
    ({"experiment": "counterexample", "graph": {"family": "counterexample", "n": 30, "c": 2},
      "trials": 5},
     COVER_KEYS | {"cert_n", "cert_c", "cert_expansion", "cert_joinedness", "certified"}),
], ids=["cover", "cover-worst-start", "strong_cover", "blanket", "visits", "return_probe",
        "trace_hamilton", "tau", "bounds_sweep", "counterexample"])
def test_summary_key_sets(raw, keys):
    """Each experiment's summary has exactly these fields on the
    determinism configs."""
    res = run_experiment(ExperimentConfig.from_dict({"version": 1, "seed": 9, **raw}),
                         workers=1)
    assert set(res.stats) == keys
