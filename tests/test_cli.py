import json

import pytest

from tracelab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "cycle", "--n", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "5 5"
    assert len(lines) == 6


def test_gen_without_a_source_exits_one(capsys):
    code, out, err = run_cli(capsys, "gen", "--n", "5")
    assert code == 1 and out == ""
    assert "need --input or --family" in err


def test_gen_roundtrip_through_file(capsys, tmp_path):
    path = str(tmp_path / "g.txt")
    code, out, _ = run_cli(capsys, "gen", "--family", "random_regular",
                           "--n", "20", "--d", "4", "--graph-seed", "7",
                           "--output", path)
    assert code == 0
    meta = json.loads(out)
    assert meta["n"] == 20 and meta["edges"] == 40
    code, out, _ = run_cli(capsys, "spectral", "--input", path)
    assert code == 0
    spec = json.loads(out)
    assert spec["d"] == 4
    assert abs(spec["lambda2"]) < 4


def test_spectral_petersen(capsys):
    code, out, _ = run_cli(capsys, "spectral", "--family", "petersen", "--n", "10")
    assert code == 0
    d = json.loads(out)
    assert d["lambda2"] == pytest.approx(1.0, abs=1e-8)
    assert d["ratio"] == pytest.approx(1.5, abs=1e-8)


def test_bounds_subcommand(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "1000", "--d", "16",
                           "--ratio", "4", "--xi", "0.01")
    assert code == 0
    d = json.loads(out)
    assert d["h_upper"] > d["h_lower"] > 0
    assert d["mixing_bound"] > 0
    code, out, _ = run_cli(capsys, "bounds", "--n", "1000", "--d", "16",
                           "--lam", "4.0")
    assert json.loads(out)["h_lower"] > 0


def test_walk_subcommand(capsys):
    code, out, _ = run_cli(capsys, "walk", "--family", "complete", "--n", "10",
                           "--start", "0", "--steps", "200", "--seed", "3",
                           "--delta", "0.2")
    assert code == 0
    d = json.loads(out)
    assert d["cover_step"] is not None
    assert "0.2" in d["blanket_steps"]


def test_cover_subcommand(capsys):
    code, out, _ = run_cli(capsys, "cover", "--family", "complete", "--n", "12",
                           "--trials", "50", "--seed", "1")
    assert code == 0
    d = json.loads(out)
    assert d["censored"] == 0
    assert 20 < d["mean"] < 60


def test_cover_negative_budget_exits_one(capsys):
    """A negative budget is refused, not reported as every trial censored."""
    code, out, err = run_cli(capsys, "cover", "--family", "petersen", "--trials", "3",
                             "--seed", "1", "--budget", "-5")
    assert code == 1 and out == "" and err.startswith("error:")


def test_hamilton_cycle_subcommand(capsys):
    code, out, _ = run_cli(capsys, "hamilton", "cycle", "--family", "petersen",
                           "--n", "10")
    assert code == 0
    assert json.loads(out)["status"] == "proven-absent"
    code, out, _ = run_cli(capsys, "hamilton", "cycle", "--family", "complete",
                           "--n", "8", "--method", "posa", "--seed", "2")
    d = json.loads(out)
    assert d["status"] == "found" and len(d["cycle"]) == 8


@pytest.mark.parametrize("method", ["posa", "exact"])
@pytest.mark.parametrize("budget", ["0", "-3"])
def test_hamilton_cycle_budget_below_one_exits_one(capsys, method, budget):
    """A search with no budget cannot answer; it is refused, not reported
    as budget-exhausted."""
    code, out, err = run_cli(capsys, "hamilton", "cycle", "--family", "complete",
                             "--n", "8", "--method", method, "--budget", budget)
    assert code == 1 and out == "" and "--budget" in err and err.startswith("error:")


def test_hamilton_certify_subcommand(capsys):
    code, out, _ = run_cli(capsys, "hamilton", "certify", "--family",
                           "counterexample", "--n", "16", "--c", "2")
    assert code == 0
    assert json.loads(out)["certified"] is True
    code, out, _ = run_cli(capsys, "hamilton", "certify", "--family",
                           "random_regular", "--n", "64", "--d", "8",
                           "--graph-seed", "0", "--cert-c", "2",
                           "--mode", "sampled:16")
    assert code == 0
    d = json.loads(out)
    assert d["expansion"]["mode"] == "sampled"


def test_hamilton_tau_subcommand(capsys):
    code, out, _ = run_cli(capsys, "hamilton", "tau", "--family",
                           "random_regular", "--n", "16", "--d", "4",
                           "--graph-seed", "1", "--walk-length", "800",
                           "--seed", "2")
    assert code == 0
    d = json.loads(out)
    assert d["tau_hc"] >= d["tau1"] + 1


def test_mixing_subcommand(capsys):
    code, out, _ = run_cli(capsys, "mixing", "--family", "petersen", "--n", "10",
                           "--lam", "2.0")
    assert code == 0
    assert json.loads(out)["violations"] == 0


@pytest.mark.parametrize("lam", ["0", "-1"])
@pytest.mark.parametrize("mode", ["exact", "sampled:8"])
def test_mixing_nonpositive_lam_exits_one(capsys, lam, mode):
    code, out, err = run_cli(capsys, "mixing", "--family", "petersen", "--n", "10",
                             f"--lam={lam}", "--mode", mode)
    assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("mixing", "--family", "petersen", "--lam", "2.0", "--mode", "sampled:abc"),
    ("hamilton", "certify", "--family", "counterexample", "--n", "16", "--c", "2",
     "--mode", "sampled:x2"),
], ids=["mixing", "certify"])
def test_malformed_sample_count_exits_one(capsys, argv):
    """A sample count that is not an integer ends in an error line, not a
    traceback."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error:")


def test_experiment_subcommand(capsys, tmp_path):
    cfg = {
        "version": 1, "experiment": "cover",
        "graph": {"family": "complete", "n": 10},
        "trials": 25, "seed": 4,
        "check": {"max_censored_rate": 0.0},
        "output": {"prefix": "k10"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "experiment", "--config", str(path),
                           "--check", "--out", str(tmp_path / "res"))
    assert code == 0
    d = json.loads(out)
    assert d["rows"] == 25
    assert (tmp_path / "res" / "k10_trials.csv").exists()
    assert (tmp_path / "res" / "k10_summary.json").exists()


def test_experiment_check_failure_exit_code(capsys, tmp_path):
    cfg = {
        "version": 1, "experiment": "cover",
        "graph": {"family": "complete", "n": 10},
        "trials": 10, "seed": 4,
        "check": {"max_mean": 1.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "experiment", "--config", str(path),
                           "--check", "--out", str(tmp_path / "res"))
    assert code == 3
    assert "max_mean" in err


def test_validation_errors_exit_one(capsys, tmp_path):
    code, _, err = run_cli(capsys, "spectral", "--family", "complete")
    assert code == 1 and "required" in err
    code, _, err = run_cli(capsys, "cover", "--trials", "5", "--seed", "0")
    assert code == 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1, "experiment": "cover",
                                "graph": {"family": "complete", "n": 5},
                                "trials": 2, "seed": 0, "oops": 1}))
    code, _, err = run_cli(capsys, "experiment", "--config", str(path))
    assert code == 1 and "oops" in err
    code, _, _ = run_cli(capsys, "gen", "--family", "random_regular",
                         "--n", "5", "--d", "3", "--graph-seed", "0")
    assert code == 1  # odd n d


def test_ci_level_param_rejected(capsys, tmp_path):
    """The harness reports fixed 95% / 99% intervals, so it refuses a
    ci_level it would not use."""
    for experiment, params in (("strong_cover", {}), ("return_probe", {"horizon": 4})):
        cfg = {"version": 1, "experiment": experiment,
               "graph": {"family": "complete", "n": 8}, "trials": 5, "seed": 0,
               "params": {**params, "ci_level": 0.5}}
        if experiment == "strong_cover":
            cfg["walk"] = {"multiplier": 3.0}
        path = tmp_path / f"{experiment}.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "experiment", "--config", str(path),
                               "--out", str(tmp_path / "res"))
        assert code == 1 and "ci_level" in err


def test_cover_param_types_exit_one(capsys, tmp_path):
    """Cover params of the wrong type or range fail at parse, not as a
    truthy string, a negative slice, a truncated float or a traceback."""
    bad = [({"worst_start": "no"}, "worst_start"),
           ({"worst_start": True, "sample_starts": -298}, "sample_starts"),
           ({"worst_start": True, "sample_starts": 0}, "sample_starts"),
           ({"budget": 2.5}, "budget"), ({"budget": True}, "budget"),
           ({"budget": -1}, "budget"), ({"start": 1.5}, "start")]
    for params, name in bad:
        path = tmp_path / "cover.json"
        path.write_text(json.dumps({
            "version": 1, "experiment": "cover", "trials": 2, "seed": 0,
            "graph": {"family": "random_regular", "n": 300, "d": 4, "seed": 0},
            "params": params}))
        code, _, err = run_cli(capsys, "experiment", "--config", str(path),
                               "--out", str(tmp_path / "res"))
        assert code == 1 and f"params.{name}" in err, params


@pytest.mark.parametrize("params, name", [
    ({"worst_start": True, "start": 3}, "start"),
    ({"sample_starts": 5}, "sample_starts"),
    ({"worst_start": False, "sample_starts": 5}, "sample_starts"),
], ids=["start-with-worst-start", "sample-starts-alone", "sample-starts-without-worst-start"])
def test_cover_params_it_would_ignore_exit_one(capsys, tmp_path, params, name):
    """A cover param that its mode would ignore fails at parse; a null start
    stays legal beside worst_start."""
    path = tmp_path / "cover.json"
    cfg = {"version": 1, "experiment": "cover", "trials": 2, "seed": 0,
           "graph": {"family": "complete", "n": 20}}
    path.write_text(json.dumps(dict(cfg, params={"worst_start": True, "start": None})))
    code, _, _ = run_cli(capsys, "experiment", "--config", str(path),
                         "--out", str(tmp_path / "res"))
    assert code == 0
    path.write_text(json.dumps(dict(cfg, params=params)))
    code, out, err = run_cli(capsys, "experiment", "--config", str(path),
                             "--out", str(tmp_path / "res"))
    assert code == 1 and out == "" and f"params.{name}" in err


@pytest.mark.parametrize("params, name", [
    ({"n": 500, "d": 16, "lambdas": [20]}, "lambdas"),
    ({"n": 500, "d": 16, "lambdas": [0]}, "lambdas"),
    ({"n": 500, "d": 16, "ratios": [0]}, "ratios"),
    ({"n": 500, "d": 16, "ratios": [1]}, "ratios"),
    ({"n": 500, "d": 16, "ratios": [2.0], "eps": "x"}, "eps"),
    ({"n": 500, "d": 16, "ratios": [2.0], "eps": 0}, "eps"),
    ({"n": 1, "d": 16, "ratios": [2.0]}, "n"),
    ({"n": 500, "d": 0, "ratios": [2.0]}, "d"),
    ({"n": 500, "d": 16, "ratios": [2.0], "xi": 0.25}, "xi"),
])
def test_bounds_sweep_params_exit_one(capsys, tmp_path, params, name):
    """Out-of-range sweep params fail at parse with an error line, not as a
    traceback from the bound formulas; an unused xi is refused."""
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"version": 1, "experiment": "bounds_sweep",
                                "seed": 0, "params": params}))
    code, _, err = run_cli(capsys, "experiment", "--config", str(path),
                           "--out", str(tmp_path / "res"))
    assert code == 1 and err.startswith("error:") and name in err


@pytest.mark.parametrize("args", [
    ("--n", "500", "--d", "16", "--lam", "20"),
    ("--n", "500", "--d", "16", "--ratio", "0"),
    ("--n", "1", "--d", "16", "--ratio", "4"),
    ("--n", "500", "--d", "16", "--ratio", "4", "--eps", "-1"),
    ("--n", "500", "--d", "16", "--ratio", "4", "--xi", "2"),
])
def test_bounds_bad_input_exits_one(capsys, args):
    """Out-of-range bounds arguments end in an error line, not a traceback."""
    code, out, err = run_cli(capsys, "bounds", *args)
    assert code == 1 and out == "" and err.startswith("error:")


def test_runtime_errors_exit_two(capsys, tmp_path):
    cfg = {
        "version": 1, "experiment": "counterexample",
        "graph": {"family": "counterexample", "n": 60, "c": 2},
        "trials": 1, "seed": 0,
        "params": {"cert_n": 40},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "experiment", "--config", str(path),
                           "--out", str(tmp_path / "res"))
    assert code == 2
    assert "budget" in err.lower()


CHECK_KEYS = {"kind", "c", "passed", "mode", "set_size", "checked", "exhaustive", "witness"}


@pytest.mark.parametrize("argv, keys, values", [
    (("spectral", "--family", "petersen"),
     {"n", "d", "lambda2", "lambda_min", "lambda_abs", "ratio", "method", "residual",
      "iterations"}, {"n": 10, "d": 3, "lambda_abs": 2.0}),
    (("bounds", "--n", "1000", "--d", "16", "--lam", "4", "--xi", "0.01"),
     {"n", "d", "lambda", "eps", "xi", "h_lower", "h_upper", "cover_lower", "cover_upper",
      "mixing_bound", "convention", "lower_in_band", "upper_in_band"}, {"lambda": 4.0}),
    (("mixing", "--family", "petersen", "--lam", "2"),
     {"mode", "single_max_ratio", "pair_max_ratio", "singles_checked", "pairs_checked",
      "violations", "slack", "passed", "evidence"},
     {"passed": True, "evidence": "exhaustive"}),
    (("mixing", "--family", "petersen", "--lam", "2", "--mode", "sampled:4"),
     {"mode", "single_max_ratio", "pair_max_ratio", "singles_checked", "pairs_checked",
      "violations", "slack", "passed", "evidence"}, {"mode": "sampled", "evidence": "sampled"}),
    (("hamilton", "certify", "--family", "cycle", "--n", "12", "--cert-c", "2"),
     {"c", "certified", "expansion", "joinedness"}, {"certified": False}),
    (("hamilton", "cycle", "--family", "petersen"),
     {"status", "cycle", "method", "work"}, {"method": "exact"}),
    (("hamilton", "cycle", "--family", "complete", "--n", "8", "--method", "posa"),
     {"status", "cycle", "method", "work"}, {"status": "found"}),
    (("hamilton", "tau", "--family", "complete", "--n", "8", "--walk-length", "200",
      "--seed", "1"),
     {"start", "length", "tau1", "tau_hc", "exact", "censored", "probes"}, {"exact": True}),
    (("walk", "--family", "complete", "--n", "10", "--steps", "200", "--seed", "3"),
     {"start", "length", "cover_step", "blanket_steps", "min_visits", "max_visits",
      "min_visit_ratio"}, {"blanket_steps": {"0.1": 25}}),
], ids=["spectral", "bounds", "mixing-exact", "mixing-sampled", "certify", "cycle-exact",
        "cycle-posa", "tau", "walk"])
def test_json_keys(capsys, argv, keys, values):
    """The key sets each result subcommand prints, nested ones included."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    d = json.loads(out)
    assert set(d) == keys
    for name in ("expansion", "joinedness"):
        if name in d:
            assert set(d[name]) == CHECK_KEYS
    for k, v in values.items():
        assert d[k] == pytest.approx(v), k


@pytest.mark.parametrize("argv", [
    ("spectral", "--input", "{tmp}/missing.txt"),
    ("spectral", "--input", "{tmp}/latin1.txt"),
    ("gen", "--family", "cycle", "--n", "5", "--output", "{tmp}"),
    ("experiment", "--config", "{tmp}/cfg.json", "--out", "{tmp}/cfg.json/res"),
    ("experiment", "--config", "{tmp}/latin1.txt"),
], ids=["missing-input", "non-ascii-input", "output-is-a-directory", "out-under-a-file",
        "non-utf8-config"])
def test_unusable_files_exit_one(capsys, tmp_path, argv):
    """A file that cannot be read or written ends in an error line, not a
    traceback."""
    (tmp_path / "latin1.txt").write_bytes(b"3 3\n0 1\n1 2\n2 0\n\xe9\n")
    (tmp_path / "cfg.json").write_text(json.dumps({
        "version": 1, "experiment": "cover", "graph": {"family": "complete", "n": 5},
        "trials": 2, "seed": 0}))
    code, out, err = run_cli(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 1 and out == "" and err.startswith("error:")


TAU = ("hamilton", "tau", "--family", "random_regular", "--n", "64", "--d", "8",
       "--graph-seed", "0", "--seed", "5", "--walk-length", "800")


@pytest.mark.parametrize("argv", [
    ("cover", "--family", "complete", "--n", "20", "--trials", "2", "--seed", "1",
     "--worst-start", "--start", "3"),
    TAU + ("--checker-budget", "0"),
    TAU + ("--checker-budget", "-5"),
], ids=["cover-worst-start-with-start", "tau-checker-budget-0", "tau-checker-budget-negative"])
def test_options_with_no_effect_or_no_search_exit_one(capsys, argv):
    """A start that worst-start mode would ignore, or a checker budget that
    leaves no search, ends in an error line instead of a result."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("cover", "--family", "complete", "--n", "5", "--trials", "2", "--seed", "1",
     "--start", "99"),
    ("walk", "--family", "complete", "--n", "5", "--steps", "20", "--seed", "1",
     "--start", "-1"),
    ("hamilton", "tau", "--family", "complete", "--n", "5", "--walk-length", "50",
     "--seed", "1", "--start", "5"),
], ids=["cover", "walk", "tau"])
def test_start_not_a_vertex_names_the_flag(capsys, argv):
    """A --start outside 0..n - 1 ends in an error line that names the flag
    and n, as the harness names params.start."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error:")
    assert "--start" in err and "n = 5" in err


@pytest.mark.parametrize("argv", [
    ("hamilton", "tau", "--family", "random_regular", "--n", "16", "--d", "4",
     "--graph-seed", "1", "--walk-length", "800", "--seed", "2", "--checker-budget", "1"),
    ("hamilton", "cycle", "--family", "petersen", "--method", "exact", "--budget", "1"),
], ids=["tau-exact-checker-budget", "cycle-dp-budget"])
def test_budgets_the_exact_path_ignores_exit_one(capsys, argv):
    """At n <= 24 both commands run the subset dp, which has no budget, so a
    budget would change nothing; it ends in an error line."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error:")


def test_exact_cycle_passes_its_budget_to_branch_and_bound(capsys):
    code, out, _ = run_cli(capsys, "hamilton", "cycle", "--family", "random_regular",
                           "--n", "30", "--d", "4", "--graph-seed", "1",
                           "--method", "exact", "--budget", "1")
    assert code == 0
    assert json.loads(out)["status"] == "budget-exhausted"


@pytest.mark.parametrize("graph", [
    {"family": "complete", "n": 12.7},
    {"family": "random_regular", "n": 20, "d": "4", "seed": True},
    {"family": "cycle", "n": "9"},
], ids=["float-n", "text-d-bool-seed", "text-n"])
def test_graph_fields_that_are_not_integers_exit_one(capsys, tmp_path, graph):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"version": 1, "experiment": "cover", "graph": graph,
                                "trials": 2, "seed": 1}))
    code, out, err = run_cli(capsys, "experiment", "--config", str(path),
                             "--out", str(tmp_path / "res"))
    assert code == 1 and out == "" and err.startswith("error: graph:")
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("flag,env", [(("--workers", "0"), None), ((), "-3")],
                         ids=["flag-0", "env-minus-3"])
def test_worker_counts_below_one_exit_one(capsys, tmp_path, monkeypatch, flag, env):
    if env is not None:
        monkeypatch.setenv("TRACELAB_WORKERS", env)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"version": 1, "experiment": "cover",
                                "graph": {"family": "complete", "n": 5},
                                "trials": 2, "seed": 1}))
    code, out, err = run_cli(capsys, "experiment", "--config", str(path),
                             "--out", str(tmp_path / "res"), *flag)
    assert code == 1 and out == "" and err.startswith("error:")
    assert "must be >= 1" in err
