"""End-to-end and per-module benchmark of tracelab.

    python3 perfbench/run.py --workload walk_cover --seed 1 --seconds 50 --trace 0

Run from the repository root; tracelab is imported from ``src/`` without an
install. The run:

1. times set-up in fresh processes (import tracelab, then call every kernel
   once on a tiny graph) and keeps the median;
2. draws the workload's inputs from ``--seed`` (untimed);
3. repeats whole rounds of the workload until ``--seconds`` have passed,
   timing each; with ``--trace 1`` every other round runs traced;
4. checks the first round's output, and that every round returned the same;
5. prints a manifest line and, last, one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
   ``--trace 0``, the per-module ones with ``--trace 1``.

Spans of traced rounds are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 5


def _import_tracelab():
    if not (SRC / "tracelab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tracelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tracelab
    return tracelab


def warm_up(tl) -> None:
    """Call every kernel once on a tiny graph (compiles them under numba)."""
    g = tl.random_regular(8, 4, 1)
    tl.cover_trial(g, 1, 0)
    trace = tl.simulate_walk(g, 0, 60, 1)
    tl.hamiltonian_posa(tl.trace_graph(trace), 1)
    tl.hamiltonian_exact(g, method="dp")
    tl.eigen_extremes(g, method="dense")
    tl.eigen_extremes(g, method="iterative")
    tl.resistance_matrix(g)
    tl.return_probe(g, 0, 1, 5, 4, 1)
    tl.segmented_visit_experiment(g, 60, 2.0, 2, 1)
    tl.expander_mixing_check(g, 3.0)
    tl.exact_binomial_ci(3, 10)


def setup_child() -> None:
    tl = _import_tracelab()
    imported = time.perf_counter()
    warm_up(tl)
    print(json.dumps({"imported": imported, "warm": time.perf_counter()}))


def measure_setup() -> dict[str, float]:
    """Median over fresh processes of process start -> import done -> warm.

    ``perf_counter`` reads CLOCK_MONOTONIC, which all processes share."""
    runs = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-child"],
                              capture_output=True, text=True, timeout=120, check=True)
        mark = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append((mark["imported"] - t0, mark["warm"] - mark["imported"], mark["warm"] - t0))
    return {"setup.import_s": statistics.median(r[0] for r in runs),
            "setup.warmup_s": statistics.median(r[1] for r in runs),
            "setup_s": statistics.median(r[2] for r in runs)}


def manifest(tl) -> dict:
    try:
        from importlib.metadata import version
        numba_version = version("numba")
    except Exception:  # not installed, or metadata unreadable
        numba_version = None
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {"backend": "numba" if tl.NUMBA_ENABLED else "interpreted",
            "python": platform.python_version(), "numpy": np.__version__,
            "numba": numba_version, "nproc": os.cpu_count(), "git_rev": rev}


def same(a, b) -> bool:
    """Equality of round outputs: nested tuples and lists of numbers,
    numpy arrays and None."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return a == b


def measure(workload, tracer_cls, tl, seconds: float, traced: bool):
    """Whole rounds until ``seconds`` pass; with ``traced`` odd rounds run
    under the tracer. Returns the rounds, the first good output, how many
    rounds returned it, and the failed-operation count of rounds that
    raised or returned something else."""
    rounds = []
    first = None
    matching = failed = 0
    start = time.perf_counter()
    while True:
        on = traced and len(rounds) % 2 == 1
        tracer = tracer_cls(tl)
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            if on:
                with tracer:
                    out = workload.run()
            else:
                out = workload.run()
        except Exception:
            traceback.print_exc()
            out = None
        w1, c1 = time.perf_counter(), time.process_time()
        rounds.append({"traced": on, "wall": w1 - w0, "cpu": c1 - c0,
                       "spans": tracer.spans if on else None})
        if out is None:
            failed += workload.operations
        elif first is None:
            first, matching = out, 1
        elif same(first, out):
            matching += 1
        else:
            print("perfbench: a round's output differs from the first round's", file=sys.stderr)
            failed += workload.operations
        if time.perf_counter() - start >= seconds and (not traced or len(rounds) >= 2):
            return rounds, first, matching, failed


def write_spans(name: str, seed: int, rounds) -> Path:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{name}-seed{seed}.json"
    traced = [[s[:4] for s in r["spans"]] for r in rounds if r["traced"]]
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                "rounds": traced}) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_child:
        setup_child()
        return 0

    tl = _import_tracelab()
    sys.path.insert(0, str(HERE))
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    setup = measure_setup()
    workload = WORKLOADS[args.workload](tl, args.seed)
    rounds, first, matching, failed = measure(workload, Tracer, tl, args.seconds,
                                              bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = workload.check(first) if first is not None else [(None, "every round raised")]
    bad_ops = {op for op, _ in problems if op is not None}
    failed += matching * len(bad_ops)
    for _, message in problems[:20]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    attempted = len(rounds) * workload.operations
    correct = not problems and failed == 0

    plain = [r for r in rounds if not r["traced"]]
    wall = statistics.median(r["wall"] for r in plain)
    info = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
            "round_wall_s": [round(r["wall"], 4) for r in rounds],
            "round_cpu_s": [round(r["cpu"], 4) for r in rounds],
            "manifest": manifest(tl)}
    if getattr(workload, "p_in_ci99", None) is not None:
        info["p_in_ci99"] = workload.p_in_ci99
    end_to_end = {"setup_s": setup["setup_s"], "wall_s": wall,
                  "cpu_s": statistics.median(r["cpu"] for r in plain),
                  "peak_rss_mb": peak_rss_mb}
    if args.trace:
        info["end_to_end"] = end_to_end
        traced = [r for r in rounds if r["traced"]]
        per_round = [layer_metrics(r["spans"]) for r in traced]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        values["setup.import_s"] = setup["setup.import_s"]
        values["setup.warmup_s"] = setup["setup.warmup_s"]
        values["trace.overhead_s"] = statistics.median(r["wall"] for r in traced) - wall
        info["spans"] = str(write_spans(args.workload, args.seed, rounds).relative_to(ROOT))
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    else:
        values = end_to_end
        units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    print("perfbench: " + json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}))
    return 0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
