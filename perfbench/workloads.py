"""The benchmark's workloads.

Each part draws its inputs from its seed in ``__init__`` (untimed), runs one
round of tracelab calls in ``run`` (timed), and checks a round's output in
``check`` against :mod:`checks`. A workload runs two parts one after the
other in each round. Every round of a run repeats the same inputs, so every
round must return the same output.
Tracelab is reached only through module attributes (``tl.harness.
run_experiment``, ``tl.generate.random_regular``), so the tracer's patches
see every call.
"""

from __future__ import annotations

import numpy as np

import checks
import reference as ref

D = 16


def derive(seed: int, index: int) -> int:
    """A 63-bit input seed, reproducible from the benchmark seed."""
    return ref.Stream(seed, index).next64() >> 1


def _graph_failures(tl, n: int, gseed: int, adj: list[list[int]]) -> list[str]:
    """Rebuild the graph with tracelab after timing: it must be simple,
    16-regular, and equal to the reference pairing."""
    g = tl.generate.random_regular(n, D, gseed)
    bad = checks.graph_shape(n, D, g.indptr, g.indices)
    if not bad and ref.csr_adjacency(g.indptr, g.indices) != adj:
        bad = [f"graph for seed {gseed} differs from the reference pairing"]
    return bad


class CoverWorstStart:
    """Harness ``cover`` with ``worst_start``: 16 pool starts x 5 trials on
    criterion 4's first graph (n = 500, seed 0). The start pool and the walk
    streams follow the benchmark seed. The graph is fixed because the
    harness builds it twice and one build takes 0.08 s to 0.53 s depending
    on the graph seed, which would move a 6 s round by up to a sixth."""

    n, gseed, starts, trials = 500, 0, 16, 5

    def __init__(self, tl, seed: int):
        self.tl = tl
        self.seed = derive(seed, 0)
        self.cfg = tl.harness.ExperimentConfig.from_dict({
            "version": 1, "experiment": "cover", "seed": self.seed,
            "graph": {"family": "random_regular", "n": self.n, "d": D, "seed": self.gseed},
            "trials": self.trials,
            "params": {"worst_start": True, "sample_starts": self.starts},
        })
        self.operations = self.starts * self.trials

    def run(self):
        res = self.tl.harness.run_experiment(self.cfg, workers=1)
        return [tuple(r) for r in res.rows], res.stats["worst_start_mean"]

    def check(self, out):
        rows, reported = out
        adj = ref.sorted_adjacency(self.n, ref.random_regular_edges(self.n, D, self.gseed))
        bad = [(None, m) for m in _graph_failures(self.tl, self.n, self.gseed, adj)]
        if len(rows) != self.operations:
            return bad + [(None, f"{len(rows)} rows, want {self.operations}")]
        pool = ref.start_pool(self.n, self.seed, sample=self.starts)
        bad += checks.cover_rows(rows, adj, self.seed, self.trials, pool)
        if bad:
            return bad
        g = self.tl.generate.random_regular(self.n, D, self.gseed)
        ev = np.linalg.eigvalsh(checks.adjacency(self.n, g.indptr, g.indices))
        lam = max(abs(ev[-2]), abs(ev[0]))
        bound = self.tl.bounds.cover_time_spectral_bound(self.n, D, float(lam)).cover_upper
        worst = checks.worst_start_mean(rows)
        if not abs(reported - worst) <= 1e-9 * worst:
            bad.append((None, f"worst-start mean {reported!r}, rows give {worst!r}"))
        if not worst <= bound:
            bad.append((None, f"worst-start mean {worst} above the spectral bound {bound}"))
        return bad


class TraceHamilton:
    """Criterion 7's trace search (n = 200, d = 16, walk 1.5 n ln n).

    A round is the harness ``trace_hamilton`` experiment on 16 trials, plus
    the one search criterion 7 names at seed 2024 (trial 48: the walk
    covers, a trace vertex has degree 1, and the search runs its whole
    budget). Hopeless searches cost 0.5 s to 2.7 s each and turn up in about
    one trial in fifty, so a seed-drawn round would swing with their count.
    The seed-drawn trials therefore come from the first derived experiment
    seed whose traces are all eligible or uncovered, and the hopeless
    search is the fixed trial 48, the same in every run.
    """

    n, trials, multiplier, restarts = 200, 16, 1.5, 50
    fixed_seed, fixed_unit = 2024, 48

    def __init__(self, tl, seed: int):
        self.tl = tl
        self.length = ref.ceil_walk_length(self.multiplier, self.n)
        index = 0
        while not all(self._eligible_or_uncovered(derive(seed, index), u)
                      for u in range(self.trials)):
            index += 1
        self.seed = derive(seed, index)
        self.cfg = tl.harness.ExperimentConfig.from_dict({
            "version": 1, "experiment": "trace_hamilton", "seed": self.seed,
            "graph": {"family": "random_regular", "n": self.n, "d": D},
            "trials": self.trials, "walk": {"multiplier": self.multiplier},
        })
        self.fixed = dict(zip(("gseed", "wseed", "start"),
                              ref.derived_seeds(self.fixed_seed, self.fixed_unit, self.n)))
        self.operations = self.trials + 1

    def _replay(self, seed: int, unit: int) -> dict:
        gseed, wseed, start = ref.derived_seeds(seed, unit, self.n)
        adj = ref.sorted_adjacency(self.n, ref.random_regular_edges(self.n, D, gseed))
        seen, edges = ref.trace_walk(adj, start, self.length, ref.Stream(wseed, 0))
        return {"unit": unit, "gseed": gseed, "wseed": wseed, "start": start,
                "adj": adj, "covered": all(seen), "edges": edges}

    def _eligible_or_uncovered(self, seed: int, unit: int) -> bool:
        r = self._replay(seed, unit)
        return not r["covered"] or checks.trace_witness(self.n, True, r["edges"]) is None

    def run(self):
        tl, fx = self.tl, self.fixed
        res = tl.harness.run_experiment(self.cfg, workers=1)
        g = tl.generate.random_regular(self.n, D, fx["gseed"])
        trace = tl.walks.simulate_walk(g, fx["start"], self.length, fx["wseed"], stream=0)
        found = 0
        if trace.covered:
            found = int(tl.hamilton.hamiltonian_posa(
                tl.walks.trace_graph(trace), fx["wseed"],
                max_restarts=self.restarts, stream=1).found)
        fixed_row = (self.fixed_unit, fx["gseed"], fx["wseed"], int(trace.covered), found)
        return [tuple(r[:5]) for r in res.rows] + [fixed_row]

    def check(self, out):
        if len(out) != self.operations:
            return [(None, f"{len(out)} rows, want {self.operations}")]
        replays = [self._replay(self.seed, u) for u in range(self.trials)]
        replays.append(self._replay(self.fixed_seed, self.fixed_unit))
        bad = []
        for op, (row, replay) in enumerate(zip(out, replays)):
            bad += [(op, m) for m in self._row_failures(row, replay)]
        return bad

    def _row_failures(self, row, r) -> list[str]:
        _, gseed, wseed, covered, found = row
        if (gseed, wseed) != (r["gseed"], r["wseed"]):
            return [f"trial {r['unit']}: seeds ({gseed}, {wseed}), reference "
                    f"({r['gseed']}, {r['wseed']})"]
        bad = _graph_failures(self.tl, self.n, gseed, r["adj"])
        if bool(covered) != r["covered"]:
            bad.append(f"trial {r['unit']}: covered {covered}, reference {r['covered']}")
        elif found:
            tg = self.tl.graphs.Graph.from_edges(self.n, sorted(r["edges"]))
            res = self.tl.hamilton.hamiltonian_posa(tg, wseed, max_restarts=self.restarts,
                                                    stream=1)
            if not res.found:
                bad.append(f"trial {r['unit']}: found, but the replayed search finds no cycle")
            else:
                bad += [f"trial {r['unit']}: {m}"
                        for m in checks.hamilton_cycle(res.cycle, self.n, r["edges"])]
        elif checks.trace_witness(self.n, r["covered"], r["edges"]) is None:
            bad.append(f"trial {r['unit']}: no cycle found and no trace vertex rules one out")
        return bad


class SpectralCertify:
    """eigen_extremes and the spectral cover bound on random 16-regular
    graphs both sides of the dense limit (512): two seed-drawn graphs with
    100 vertices (Jacobi, plus resistance_matrix) and criterion 8's graph
    with 1000 vertices (power iteration). The power-iteration graph is fixed
    because its iteration count swings with the gap below lambda2: 10,000
    on this graph, 128,000 (19 s) on another, and a graph past 200,000
    raises instead of answering."""

    dense = (100, 100)
    iterative = (1000, 0)
    dense_limit = 512

    def __init__(self, tl, seed: int):
        self.tl = tl
        self.graphs = [(n, derive(seed, i)) for i, n in enumerate(self.dense)]
        self.graphs.append(self.iterative)
        self.operations = len(self.graphs)

    def run(self):
        tl = self.tl
        out = []
        for n, gseed in self.graphs:
            g = tl.generate.random_regular(n, D, gseed)
            s = tl.spectral.eigen_extremes(g)
            bound = tl.bounds.cover_time_spectral_bound(n, D, s.lambda_abs).cover_upper
            r = tl.spectral.resistance_matrix(g) if n <= self.dense_limit else None
            out.append((g.indptr, g.indices, s.lambda2, s.lambda_min, s.lambda_abs, bound, r))
        return out

    def check(self, out):
        bad = []
        for op, ((n, _), (indptr, indices, lam2, lam_min, lam_abs, bound, r)) in enumerate(
                zip(self.graphs, out)):
            msgs = checks.graph_shape(n, D, indptr, indices)
            if not msgs:
                a = checks.adjacency(n, indptr, indices)
                msgs = checks.eigen_pair(lam2, lam_min, a, D)
                if lam_abs != max(abs(lam2), abs(lam_min)):
                    msgs.append(f"lambda_abs {lam_abs!r} is not max(|lambda2|, |lambda_min|)")
                msgs += checks.cover_bound(bound, n, D, lam_abs)
                if r is not None:
                    ev = np.linalg.eigvalsh(a)
                    msgs += checks.resistances(r, a, D, max(abs(ev[-2]), abs(ev[0])))
            bad += [(op, f"graph {op} (n = {n}): {m}") for m in msgs]
        return bad


class ReturnProbe:
    """Harness ``return_probe`` on criterion 8's probe: walks from u = 0 that
    stop at v = 1 or after 250 steps, with a 99% Clopper-Pearson interval on
    the hit rate. The graph is criterion 8's (n = 1000, seed 0) and the walk
    streams follow the benchmark seed. The harness builds the graph twice,
    and one build takes 0.08 s to 0.37 s depending on the graph seed (2 to
    10 pairing shuffles), so a seed-drawn graph would move a 2 s round by
    up to a third."""

    n, gseed, u, v, horizon, trials, level = 1000, 0, 0, 1, 250, 1000, 0.99
    replayed = 100

    def __init__(self, tl, seed: int):
        self.tl = tl
        self.seed = derive(seed, 0)
        self.cfg = tl.harness.ExperimentConfig.from_dict({
            "version": 1, "experiment": "return_probe", "seed": self.seed,
            "graph": {"family": "random_regular", "n": self.n, "d": D, "seed": self.gseed},
            "trials": self.trials,
            "params": {"u": self.u, "v": self.v, "horizon": self.horizon},
        })
        self.operations = self.trials
        self.p_in_ci99 = None

    def run(self):
        res = self.tl.harness.run_experiment(self.cfg, workers=1)
        st = res.stats
        return [tuple(r) for r in res.rows], st["hits"], (st["ci99_low"], st["ci99_high"])

    def check(self, out):
        rows, hits, interval = out
        adj = ref.sorted_adjacency(self.n, ref.random_regular_edges(self.n, D, self.gseed))
        bad = [(None, m) for m in _graph_failures(self.tl, self.n, self.gseed, adj)]
        if bad:
            return bad
        if len(rows) != self.trials or hits != sum(r[1] for r in rows):
            return [(None, f"hits {hits} is not the sum of {len(rows)} rows")]
        step = self.trials // self.replayed
        for unit in range(0, self.trials, step):
            want = ref.hits_within(adj, self.u, self.v, self.horizon,
                                   ref.Stream(self.seed, unit))
            if rows[unit] != (unit, want):
                bad.append((unit, f"row {rows[unit]}, reference hit {want}"))
        indices = [w for row in adj for w in row]
        p = checks.hit_probability(self.n, D, indices, self.u, self.v, self.horizon)
        self.p_in_ci99 = bool(interval[0] <= p <= interval[1])
        bad += [(None, m) for m in checks.probe_interval(hits, self.trials, self.level,
                                                         interval, p)]
        return bad


class Pair:
    """Two parts as one workload. Part k draws its inputs from seed
    ``derive(seed, k)``, so the parts share no stream. A round runs the
    parts in order; operations are numbered across them."""

    def __init__(self, tl, seed: int, *parts):
        self.parts = [part(tl, derive(seed, k)) for k, part in enumerate(parts)]
        self.operations = sum(p.operations for p in self.parts)

    def run(self):
        return tuple(p.run() for p in self.parts)

    def check(self, out):
        bad, offset = [], 0
        for part, part_out in zip(self.parts, out):
            bad += [(None if op is None else offset + op, m) for op, m in part.check(part_out)]
            offset += part.operations
        return bad

    @property
    def p_in_ci99(self):
        return next((p.p_in_ci99 for p in self.parts if hasattr(p, "p_in_ci99")), None)


WORKLOADS = {
    "walk_cover": lambda tl, seed: Pair(tl, seed, CoverWorstStart, ReturnProbe),
    "trace_spectral": lambda tl, seed: Pair(tl, seed, TraceHamilton, SpectralCertify),
}
