"""Command line interface.

Every subcommand prints one JSON document (except ``gen`` without
``--output``, which prints the edge-list text itself) so runs compose with
shell pipelines. Exit codes: 0 success, 1 invalid input or config or a
file that cannot be read or written, 2 a computation could not finish
(generation dead end, eigensolver stall, budget cap), 3 an experiment
check failed its threshold. A result dataclass prints as its fields; the
few JSON keys that are not fields are added where the subcommand prints it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Any

from .bounds import BudgetError, bounds_report, expander_mixing_check
from .generate import FAMILIES, GenSpec, GenerationError
from .graphs import Graph, GraphError, read_edge_file, write_edge_file, format_edge_text
from .hamilton import HamiltonError, certify_expander, hamiltonian_exact, \
    hamiltonian_posa, tau_times
from .harness import ConfigError, cover_time_empirical, evaluate_checks, load_config, \
    run_experiment, write_result
from .spectral import SpectralError, eigen_extremes
from .walks import cover_stats


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns exit codes."""

    def error(self, message):
        raise ConfigError(message)


def _dump(obj: Any) -> None:
    print(json.dumps(_jsonable(obj), indent=2, sort_keys=True))


def _jsonable(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        # text keys, so sort_keys orders walk's float deltas as printed
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="edge-list file to load")
    p.add_argument("--family", choices=FAMILIES, help="generate instead of loading")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--graph-seed", type=int, default=None)


def _graph_from_args(args) -> Graph:
    if args.input and args.family:
        raise ConfigError("give either --input or --family, not both")
    if args.input:
        return read_edge_file(args.input)
    if not args.family:
        raise ConfigError("need --input or --family")
    data: dict[str, Any] = {"family": args.family}
    n = args.n
    if n is None and args.family == "petersen":
        n = 10
    if n is None:
        raise ConfigError("--n is required")
    data["n"] = n
    if args.d is not None:
        data["d"] = args.d
    if args.c is not None:
        data["c"] = args.c
    if args.graph_seed is not None:
        data["seed"] = args.graph_seed
    return GenSpec.from_dict(data).build()


def _check_start(start: int | None, g: Graph) -> None:
    """Refuse a ``--start`` that is not a vertex of ``g``, naming the flag
    as the harness names ``params.start``."""
    if start is not None and not 0 <= start < g.n:
        raise ConfigError(f"--start must be >= 0 and < n = {g.n}")


def _build_parser() -> _Parser:
    root = _Parser(prog="trace-lab", description=__doc__.splitlines()[0])
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph")
    _add_graph_args(p)
    p.add_argument("--output", help="write edge list here instead of stdout")

    p = sub.add_parser("spectral", help="eigenvalue extremes and spectral ratio")
    _add_graph_args(p)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--method", choices=("auto", "dense", "iterative"), default="auto")

    p = sub.add_parser("bounds", help="spectral bound report from (n, d, lambda)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lam", type=float, help="second eigenvalue bound")
    group.add_argument("--ratio", type=float, help="d / lambda instead of lambda")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--xi", type=float, default=None)
    p.add_argument("--convention", choices=("n-1", "n"), default="n-1")

    p = sub.add_parser("mixing", help="audit the mixing-lemma inequalities")
    _add_graph_args(p)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--mode", default="exact", help='"exact" or "sampled:<k>"')
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("walk", help="one seeded walk: cover, blanket, visit stats")
    _add_graph_args(p)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--delta", type=float, action="append", default=None)

    p = sub.add_parser("cover", help="Monte Carlo cover-time estimate")
    _add_graph_args(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--worst-start", action="store_true")
    p.add_argument("--start", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("hamilton", help="expansion certificates and cycle search")
    hsub = p.add_subparsers(dest="ham_command", required=True)

    hp = hsub.add_parser("certify", help="expansion + joinedness at parameter c")
    _add_graph_args(hp)
    hp.add_argument("--cert-c", type=float, default=None,
                    help="expansion constant; defaults to the family --c")
    hp.add_argument("--mode", default="exact", help='"exact" or "sampled:<k>"')
    hp.add_argument("--seed", type=int, default=0)

    hp = hsub.add_parser("cycle", help="find a Hamilton cycle")
    _add_graph_args(hp)
    hp.add_argument("--method", choices=("exact", "posa"), default="exact")
    hp.add_argument("--seed", type=int, default=0)
    hp.add_argument("--budget", type=int, default=None)

    hp = hsub.add_parser("tau", help="trace thresholds of one walk")
    _add_graph_args(hp)
    hp.add_argument("--start", type=int, default=0)
    hp.add_argument("--walk-length", type=int, required=True)
    hp.add_argument("--seed", type=int, required=True)
    hp.add_argument("--checker-budget", type=int, default=None)

    p = sub.add_parser("experiment", help="run a JSON-configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--check", action="store_true",
                   help="evaluate the config check block; exit 3 on failure")
    p.add_argument("--out", default=None, help="override the output directory")
    p.add_argument("--workers", type=int, default=None)

    return root


def _parse_mode(text: str) -> tuple[str, int]:
    if text == "exact":
        return "exact", 0
    if text.startswith("sampled:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"sample count must be an integer, got {text!r}") from exc
        if k < 1:
            raise ConfigError("sample count must be >= 1")
        return "sampled", k
    raise ConfigError(f'mode must be "exact" or "sampled:<k>", got {text!r}')


def _run(args) -> int:
    if args.command == "gen":
        g = _graph_from_args(args)
        if args.output:
            write_edge_file(g, args.output)
            _dump({"n": g.n, "edges": g.edge_count, "output": args.output})
        else:
            sys.stdout.write(format_edge_text(g))
        return 0

    if args.command == "spectral":
        g = _graph_from_args(args)
        _dump(eigen_extremes(g, tol=args.tol, method=args.method))
        return 0

    if args.command == "bounds":
        if args.ratio is not None and not args.ratio > 0:
            raise ConfigError("--ratio must be > 0")
        lam = args.lam if args.lam is not None else args.d / args.ratio
        try:
            report = bounds_report(args.n, args.d, lam, eps=args.eps, xi=args.xi,
                                   convention=args.convention)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        out = dataclasses.asdict(report)
        out["lambda"] = out.pop("lam")
        _dump(out)
        return 0

    if args.command == "mixing":
        g = _graph_from_args(args)
        mode, k = _parse_mode(args.mode)
        report = expander_mixing_check(g, args.lam, mode=mode, samples=k, seed=args.seed)
        # a sampled pass is evidence, not a proof: label which kind passed is
        evidence = "exhaustive" if mode == "exact" else "sampled"
        _dump({**dataclasses.asdict(report), "passed": report.passed, "evidence": evidence})
        return 0

    if args.command == "walk":
        g = _graph_from_args(args)
        _check_start(args.start, g)
        deltas = tuple(args.delta) if args.delta else (0.1,)
        _dump(cover_stats(g, args.start, args.steps, args.seed, deltas=deltas))
        return 0

    if args.command == "cover":
        g = _graph_from_args(args)
        _check_start(args.start, g)
        cs = cover_time_empirical(g, args.trials, args.seed,
                                  worst_start=args.worst_start,
                                  start=args.start, budget=args.budget)
        out = {
            "trials": cs.trials, "budget": cs.budget, "censored": cs.censored,
            "mean": cs.mean, "stderr": cs.stderr,
            "min": cs.smallest, "max": cs.largest,
        }
        if cs.worst_start_mode:
            out["pool_size"] = len(cs.pool)
            out["worst_start"] = cs.worst_start
            out["worst_start_mean"] = cs.worst_mean
        _dump(out)
        return 0

    if args.command == "hamilton":
        if args.ham_command == "cycle" and args.budget is not None and args.budget < 1:
            raise ConfigError("--budget must be >= 1")
        g = _graph_from_args(args)
        if args.ham_command == "certify":
            mode, k = _parse_mode(args.mode)
            cert_c = args.cert_c if args.cert_c is not None else args.c
            if cert_c is None:
                raise ConfigError("certify needs --cert-c (or the family --c)")
            cert = certify_expander(g, float(cert_c), mode=mode, samples=k,
                                    seed=args.seed)
            _dump({**dataclasses.asdict(cert), "certified": cert.certified})
            return 0
        if args.ham_command == "cycle":
            if args.method == "exact":
                res = hamiltonian_exact(g, budget=args.budget)
            else:
                res = hamiltonian_posa(g, args.seed, max_rotations=args.budget)
            _dump(res)
            return 0
        _check_start(args.start, g)
        _dump(tau_times(g, args.start, args.walk_length, args.seed,
                        checker_budget=args.checker_budget))
        return 0

    if args.command == "experiment":
        cfg = load_config(args.config)
        result = run_experiment(cfg, workers=args.workers)
        result = write_result(result, out_dir=args.out)
        _dump({
            "experiment": cfg.experiment,
            "rows": len(result.rows),
            "csv": result.csv_path,
            "summary": result.json_path,
            "stats": result.stats,
        })
        if args.check:
            failures = evaluate_checks(result.stats, cfg.check)
            if failures:
                for line in failures:
                    print(f"check failed: {line}", file=sys.stderr)
                return 3
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except (ConfigError, GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GenerationError, SpectralError, BudgetError, HamiltonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
