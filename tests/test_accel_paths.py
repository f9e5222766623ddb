"""Numba compiles the kernel source; the interpreted path runs the
Python-int twins of the hot kernels (block draws from ``BLOCK_MIN`` draws
on) and the source of the rest. Integer results must be bit-identical and
float results equal to roundoff. The flag is read at import, so each path
gets its own subprocess."""

import json
import os
import subprocess
import sys

import pytest

try:
    import numba  # noqa: F401
    HAS_NUMBA = True
except ImportError:
    HAS_NUMBA = False

PROBE = r"""
import json
import numpy as np
import tracelab as tl
from tracelab import _kernels as K, _twins

out = {"numba": tl.NUMBA_ENABLED}
out["uints"] = [int(x) for x in K.stream_uints(7, 0, 8)]
out["ints"] = [int(x) for x in K.stream_ints(7, 1, 16, 97)]
out["floats"] = [repr(float(x)) for x in K.stream_floats(7, 2, 8)]

g = tl.random_regular(64, 8, 3)
tr = tl.simulate_walk(g, 0, 4000, 11)
out["visits"] = tr.visit_counts.tolist()
out["edge_steps"] = tr.edge_step[:20].tolist()

res = tl.hamiltonian_posa(g, 5)
out["posa"] = {"status": res.status, "cycle": list(res.cycle or ()),
               "work": res.work}

small = tl.random_regular(14, 4, 2)
out["ham_exact"] = tl.hamiltonian_exact(small, method="dp").found

s = tl.eigen_extremes(g)
out["lambda2"] = repr(s.lambda2)
out["lambda_min"] = repr(s.lambda_min)

sv = tl.segmented_visit_experiment(g, 3000, 4.0, 10, 13)
out["segment_hits"] = sv.segment_hits.tolist()

out["blanket"] = list(tl.blanket_trial(g, 9, 0, 0.1, start=0)[1:])

# numba runs these per trial, the interpreted path as lockstep lanes
cw = tl.cover_time_empirical(g, 3, 17, worst_start=True)
out["cover_worst"] = [cw.starts.tolist(), cw.cover_steps.tolist(), cw.worst_start]
cd = tl.cover_time_empirical(g, 40, 17)
out["cover_drawn"] = [cd.starts.tolist(), cd.cover_steps.tolist()]
out["probe_hits"] = tl.return_probe(g, 0, 1, 30, 500, 19).hits

stubs = np.repeat(np.arange(500, dtype=np.int64), 16)
state = K.stream_state(23, 0)
K.shuffle_ints(stubs, state)
out["shuffle"] = [stubs.tolist(), state.tolist()]
state = K.stream_state(21, 0)
out["draw_2_63"] = [K.draw_ints(state, np.uint64(2**63 + 1), 40).tolist(), state.tolist()]
# block-sized: the interpreted path draws these as blocks; about half the
# outputs at 2**63 + 1 are rejected, so that one replays its scalar loop
block = _twins.BLOCK_MIN + 1
out["draw_2_63_block"] = [K.draw_ints(state, np.uint64(2**63 + 1), block).tolist(),
                          state.tolist()]
out["floats_block"] = [x.hex() for x in K.stream_floats(7, 3, 1000).tolist()]
out["walk_block"] = tl.simulate_walk(g, 0, block, 12).edge_step.tolist()
hopeless = tl.Graph.from_edges(40, [(i, (i + 1) % 39) for i in range(39)] + [(0, 39)])
res = tl.hamiltonian_posa(hopeless, 3, max_rotations=200, max_restarts=5)
out["posa_exhausted"] = [res.status, res.work]
# hopeless has a degree-1 vertex and is answered before the kernel runs;
# Petersen (minimum degree 3, no Hamilton cycle) exhausts the kernel's budget
res = tl.hamiltonian_posa(tl.petersen_graph(), 3, max_rotations=200, max_restarts=5)
out["posa_petersen"] = [res.status, res.work]
tau = tl.tau_times(tl.random_regular(30, 6, 4), 0, 612, 1)
out["tau"] = [tau.tau1, tau.tau_hc, tau.exact, tau.censored, tau.probes]

print(json.dumps(out))
"""


def run_probe(flag):
    env = dict(os.environ)
    env["TRACELAB_NUMBA"] = flag
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
def test_paths_agree():
    fast = run_probe("1")
    plain = run_probe("0")
    assert fast["numba"] is True
    assert plain["numba"] is False
    for key in ("uints", "ints", "floats", "visits", "edge_steps", "posa",
                "ham_exact", "segment_hits", "blanket", "cover_worst",
                "cover_drawn", "probe_hits", "shuffle", "draw_2_63",
                "draw_2_63_block", "floats_block", "walk_block",
                "posa_exhausted", "posa_petersen", "tau"):
        assert fast[key] == plain[key], key
    # float eigen results may differ in the last bits only
    for key in ("lambda2", "lambda_min"):
        assert abs(float(fast[key]) - float(plain[key])) < 1e-9


def test_flag_parsing():
    from tracelab._accel import _env_wants_numba
    for raw, want in [("0", False), ("false", False), ("off", False),
                      ("no", False), ("1", True), ("yes", True), (None, True)]:
        old = os.environ.pop("TRACELAB_NUMBA", None)
        try:
            if raw is not None:
                os.environ["TRACELAB_NUMBA"] = raw
            assert _env_wants_numba() == want, raw
        finally:
            os.environ.pop("TRACELAB_NUMBA", None)
            if old is not None:
                os.environ["TRACELAB_NUMBA"] = old
